import numpy as np
import pytest

from vnentropy.generators import grid2d_adjacency
from vnentropy.solver import (
    FactorCache,
    FactorizationError,
    PoleSolver,
    cg_solve,
    factorize,
    solve,
)
from vnentropy.sparse import build_laplacian, from_coo, matvec

from conftest import path_graph, random_connected_graph


def shifted_dense(mat, xi):
    return xi * np.eye(mat.n) - mat.todense()


def direct_fill(mat):
    """nnz(L) / nnz(A) of the direct factor, read through the public solver."""
    solver = PoleSolver(mat, backend="direct")
    solver.solve_spd_shift(1.0, np.ones(mat.n))
    return solver.cache.fill_ratio


class TestAnalyze:
    """Fill-in of the direct factor under its symmetric minimum-degree order."""

    def test_tridiagonal_no_fill(self):
        lap = build_laplacian(path_graph(50))
        # banded matrix: factor nnz equals lower-triangle nnz of the matrix
        assert direct_fill(lap) == pytest.approx((lap.nnz + lap.n) / 2 / lap.nnz, rel=0.05)

    def test_grid_fill_moderate(self):
        assert direct_fill(build_laplacian(grid2d_adjacency(32))) < 20

    def test_road_like_fill_small(self, rng):
        # sparse near-planar graph: tree plus a few local shortcuts
        n = 400
        rows, cols = [], []
        for i in range(1, n):
            j = i - int(rng.integers(1, min(i, 4) + 1))
            rows += [i, j]
            cols += [j, i]
        mat = from_coo(n, rows, cols, np.ones(len(rows)))
        assert direct_fill(build_laplacian(mat)) < 3.0


class TestFactorize:
    def test_zero_matrix_factor(self):
        zero = from_coo(4, [], [], [])
        cache = FactorCache(matrix=zero)
        factor = factorize(zero, -2.0, cache)
        # xi I - A = -2 I
        y = np.array([2.0, -4.0, 0.0, 6.0])
        assert np.array_equal(solve(factor, y), y / -2.0)

    def test_cache_hit_no_refactorization(self, rng):
        lap = build_laplacian(random_connected_graph(50, 60, rng))
        cache = FactorCache(matrix=lap)
        f1 = factorize(lap, -1.0, cache)
        f2 = factorize(lap, -1.0, cache)
        assert f1 is f2
        assert cache.factor_count == 1
        factorize(lap, -2.0, cache)
        assert cache.factor_count == 2

    def test_residual_on_random_laplacian(self, rng):
        lap = build_laplacian(random_connected_graph(200, 260, rng))
        cache = FactorCache(matrix=lap)
        factor = factorize(lap, -1.0, cache)
        y = rng.standard_normal(200)
        x = solve(factor, y)
        res = np.linalg.norm(-1.0 * x - matvec(lap, x) - y)
        assert res <= 1e-12 * np.linalg.norm(y)

    def test_factor_identity_on_probe_vectors(self, rng):
        lap = build_laplacian(random_connected_graph(80, 100, rng))
        xi = -0.5
        cache = FactorCache(matrix=lap)
        factor = factorize(lap, xi, cache)
        shifted = shifted_dense(lap, xi)
        norm = np.linalg.norm(shifted, 2)
        for _ in range(5):
            v = rng.standard_normal(80)
            # solve then multiply back: || (xi I - A) x - v || tests P^T R^T R P = -(xi I - A)
            x = factor.solve(v)
            assert np.linalg.norm(shifted @ x - v) <= 1e-10 * norm * np.linalg.norm(x)

    def test_positive_pole_rejected(self):
        lap = build_laplacian(path_graph(4))
        with pytest.raises(ValueError):
            factorize(lap, 1.0, FactorCache(matrix=lap))

    def test_indefinite_shift_detected(self):
        # A = -L has eigenvalues down to about -3.7 < xi, so |xi| I + A is indefinite
        neg = build_laplacian(path_graph(6)).scaled(-1.0)
        cache = FactorCache(matrix=neg)
        with pytest.raises(FactorizationError):
            factorize(neg, -1.0, cache)
        assert cache.factor_count == 0


class TestSolve:
    def test_zero_rhs(self, rng):
        lap = build_laplacian(random_connected_graph(30, 30, rng))
        factor = factorize(lap, -1.5, FactorCache(matrix=lap))
        assert np.array_equal(solve(factor, np.zeros(30)), np.zeros(30))

    def test_recovers_constructed_solution(self, rng):
        lap = build_laplacian(random_connected_graph(120, 150, rng))
        xi = -0.7
        x_true = rng.standard_normal(120)
        y = xi * x_true - matvec(lap, x_true)
        factor = factorize(lap, xi, FactorCache(matrix=lap))
        x = solve(factor, y)
        assert np.linalg.norm(x - x_true) <= 1e-9 * np.linalg.norm(x_true)

    def test_dimension_mismatch(self, rng):
        lap = build_laplacian(path_graph(5))
        factor = factorize(lap, -1.0, FactorCache(matrix=lap))
        with pytest.raises(ValueError):
            solve(factor, np.ones(6))


class TestCgSolve:
    def test_diagonal_matrix_immediate(self, rng):
        n = 20
        mat = from_coo(n, range(n), range(n), rng.uniform(0.5, 2.0, n))
        y = rng.standard_normal(n)
        x = cg_solve(mat, -1.0, y, tol_rel=1e-12, max_iter=3)
        assert np.linalg.norm((-1.0 * x) - matvec(mat, x) - y) <= 1e-10

    def test_zero_rhs(self):
        lap = build_laplacian(path_graph(8))
        assert np.array_equal(cg_solve(lap, -1.0, np.zeros(8)), np.zeros(8))

    def test_matches_direct_on_grid(self, rng):
        lap = build_laplacian(grid2d_adjacency(22))  # n = 484
        xi = -0.3
        y = rng.standard_normal(lap.n)
        direct = solve(factorize(lap, xi, FactorCache(matrix=lap)), y)
        iterative = cg_solve(lap, xi, y, tol_rel=1e-12)
        assert np.linalg.norm(direct - iterative) <= 1e-8 * np.linalg.norm(direct)

    def test_max_iter_exceeded(self, rng):
        lap = build_laplacian(grid2d_adjacency(10))
        with pytest.raises(RuntimeError):
            cg_solve(lap, -1e-9, rng.standard_normal(100), tol_rel=1e-14, max_iter=2)


class TestPoleSolver:
    def test_auto_picks_direct_for_low_fill(self, rng):
        lap = build_laplacian(path_graph(60))
        solver = PoleSolver(lap, backend="auto", fill_threshold=50.0)
        y = rng.standard_normal(60)
        x = solver.solve_spd_shift(1.0, y)
        assert solver.backend == "direct"
        assert np.linalg.norm(matvec(lap, x) + x - y) <= 1e-10

    def test_cg_backend(self, rng):
        lap = build_laplacian(path_graph(60))
        solver = PoleSolver(lap, backend="cg")
        y = rng.standard_normal(60)
        x = solver.solve_spd_shift(1.0, y)
        assert np.linalg.norm(matvec(lap, x) + x - y) <= 1e-8
        assert solver.factorization_count == 0

    def test_auto_threshold_forces_cg(self, rng):
        lap = build_laplacian(random_connected_graph(40, 80, rng))
        solver = PoleSolver(lap, backend="auto", fill_threshold=0.01)
        assert solver.backend == "auto"
        y = rng.standard_normal(40)
        x = solver.solve_spd_shift(2.0, y)
        assert solver.backend == "cg"
        assert np.linalg.norm(matvec(lap, x) + 2.0 * x - y) <= 1e-8 * np.linalg.norm(y)
        # the factor that resolved the backend stays cached and counted
        assert solver.factorization_count == 1
