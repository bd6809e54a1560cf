import numpy as np
import pytest

from vnentropy.generators import barabasi_albert_adjacency, grid2d_adjacency
from vnentropy.krylov import eds_poles
from vnentropy import solver as solver_module
from vnentropy.solver import FactorizationError, PoleSolver, cg_solve, factorize
from vnentropy.sparse import build_laplacian, from_coo, laplacian_interval, matvec, normalize_trace

from conftest import path_graph, random_connected_graph


def shifted_dense(mat, tau):
    return tau * np.eye(mat.n) + mat.todense()


def direct_fill(mat):
    """nnz(L) / nnz(A) of the direct factor, read through the public solver."""
    solver = PoleSolver(mat, backend="direct")
    solver.solve_spd_shift(1.0, np.ones(mat.n))
    return solver.fill_ratio


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
        # tau I + A = 2 I
        y = np.array([2.0, -4.0, 0.0, 6.0])
        assert np.array_equal(factorize(zero, 2.0).solve(y), y / 2.0)

    def test_cache_hit_no_refactorization(self, rng, monkeypatch):
        lap = build_laplacian(random_connected_graph(50, 60, rng))
        shifts = []

        def counting(mat, tau):
            shifts.append(tau)
            return factorize(mat, tau)

        monkeypatch.setattr(solver_module, "factorize", counting)
        solver = PoleSolver(lap, backend="direct")
        y = rng.standard_normal(50)
        x1 = solver.solve_spd_shift(1.0, y)
        lu = solver.factors[1.0]
        x2 = solver.solve_spd_shift(1.0, y)
        assert np.array_equal(x1, x2)
        assert solver.factors[1.0] is lu
        assert shifts == [1.0]
        assert len(solver.factors) == 1
        solver.solve_spd_shift(2.0, y)
        assert shifts == [1.0, 2.0]
        assert len(solver.factors) == 2

    def test_residual_on_random_laplacian(self, rng):
        lap = build_laplacian(random_connected_graph(200, 260, rng))
        y = rng.standard_normal(200)
        x = PoleSolver(lap, backend="direct").solve_spd_shift(1.0, y)
        res = np.linalg.norm(1.0 * x + matvec(lap, x) - y)
        assert res <= 1e-12 * np.linalg.norm(y)

    def test_factor_identity_on_probe_vectors(self, rng):
        lap = build_laplacian(random_connected_graph(80, 100, rng))
        tau = 0.5
        lu = factorize(lap, tau)
        shifted = shifted_dense(lap, tau)
        norm = np.linalg.norm(shifted, 2)
        for _ in range(5):
            v = rng.standard_normal(80)
            # solve then multiply back: || (tau I + A) x - v || tests P^T L U P = tau I + A
            x = lu.solve(v)
            assert np.linalg.norm(shifted @ x - v) <= 1e-10 * norm * np.linalg.norm(x)

    def test_positive_pole_rejected(self):
        # a pole xi >= 0 is a shift tau = -xi <= 0
        lap = build_laplacian(path_graph(4))
        for tau in (-1.0, 0.0):
            with pytest.raises(ValueError):
                factorize(lap, tau)
            for backend in ("direct", "cg", "auto"):
                with pytest.raises(ValueError):
                    PoleSolver(lap, backend=backend).solve_spd_shift(tau, np.ones(4))

    def test_indefinite_shift_detected(self):
        # A = -L has eigenvalues down to about -3.7 < -tau, so tau I + A is indefinite
        neg = build_laplacian(path_graph(6)).scaled(-1.0)
        with pytest.raises(FactorizationError):
            factorize(neg, 1.0)
        solver = PoleSolver(neg, backend="direct")
        with pytest.raises(FactorizationError):
            solver.solve_spd_shift(1.0, np.ones(6))
        assert len(solver.factors) == 0
        assert solver.fill_ratio is None


class TestSolve:
    def test_zero_rhs(self, rng):
        lap = build_laplacian(random_connected_graph(30, 30, rng))
        for backend in ("direct", "cg"):
            x = PoleSolver(lap, backend=backend).solve_spd_shift(1.5, np.zeros(30))
            assert np.array_equal(x, np.zeros(30))

    def test_recovers_constructed_solution(self, rng):
        lap = build_laplacian(random_connected_graph(120, 150, rng))
        tau = 0.7
        x_true = rng.standard_normal(120)
        y = tau * x_true + matvec(lap, x_true)
        x = PoleSolver(lap, backend="direct").solve_spd_shift(tau, y)
        assert np.linalg.norm(x - x_true) <= 1e-9 * np.linalg.norm(x_true)

    def test_dimension_mismatch(self, rng):
        lap = build_laplacian(path_graph(5))
        for backend in ("direct", "cg"):
            with pytest.raises(ValueError):
                PoleSolver(lap, backend=backend).solve_spd_shift(1.0, np.ones(6))


class TestCgSolve:
    def test_diagonal_matrix_immediate(self, rng):
        n = 20
        mat = from_coo(n, range(n), range(n), rng.uniform(0.5, 2.0, n))
        y = rng.standard_normal(n)
        x = cg_solve(mat, 1.0, y, tol_rel=1e-12, max_iter=3)
        assert np.linalg.norm(1.0 * x + matvec(mat, x) - y) <= 1e-10

    def test_zero_rhs(self):
        lap = build_laplacian(path_graph(8))
        y = np.zeros(8)
        x = cg_solve(lap, 1.0, y)
        assert np.array_equal(x, np.zeros(8)) and not np.shares_memory(x, y)

    def test_matches_direct_on_grid(self, rng):
        lap = build_laplacian(grid2d_adjacency(22))  # n = 484
        tau = 0.3
        y = rng.standard_normal(lap.n)
        direct = factorize(lap, tau).solve(y)
        iterative = cg_solve(lap, tau, y, tol_rel=1e-12)
        assert np.linalg.norm(direct - iterative) <= 1e-8 * np.linalg.norm(direct)

    @pytest.mark.parametrize("adjacency", [grid2d_adjacency(30), barabasi_albert_adjacency(300, 2, 0)],
                             ids=["grid2d:30", "ba:300:2"])
    def test_matches_direct_at_eds_shifts(self, rng, adjacency):
        density = normalize_trace(build_laplacian(adjacency))
        rho = density.matrix
        y = rng.standard_normal(rho.n)
        for xi in eds_poles(laplacian_interval(density), 8).poles:
            x = cg_solve(rho, -xi, y)
            assert np.linalg.norm(-xi * x + matvec(rho, x) - y) <= 2e-10 * np.linalg.norm(y)
            direct = factorize(rho, -xi).solve(y)
            assert np.linalg.norm(x - direct) <= 1e-6 * np.linalg.norm(direct)

    def test_max_iter_exceeded(self, rng):
        lap = build_laplacian(grid2d_adjacency(10))
        with pytest.raises(RuntimeError):
            cg_solve(lap, 1e-9, rng.standard_normal(100), tol_rel=1e-14, max_iter=2)

    def test_breakdown_reported(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "cg", lambda *args, **kw: (args[1], -1))
        lap = build_laplacian(path_graph(10))
        with pytest.raises(RuntimeError, match="broke down"):
            cg_solve(lap, 1.0, rng.standard_normal(10))


class TestPoleSolver:
    def test_auto_picks_direct_for_low_fill(self, rng):
        lap = build_laplacian(path_graph(60))
        solver = PoleSolver(lap, backend="auto")
        y = rng.standard_normal(60)
        x = solver.solve_spd_shift(1.0, y)
        assert solver.backend == "direct"
        assert solver.fill_ratio <= solver_module.FILL_LIMIT
        assert np.linalg.norm(matvec(lap, x) + x - y) <= 1e-10

    def test_cg_backend(self, rng):
        lap = build_laplacian(path_graph(60))
        solver = PoleSolver(lap, backend="cg")
        y = rng.standard_normal(60)
        x = solver.solve_spd_shift(1.0, y)
        assert np.linalg.norm(matvec(lap, x) + x - y) <= 1e-8
        assert len(solver.factors) == 0
        assert solver.fill_ratio is None

    def test_auto_threshold_forces_cg(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "FILL_LIMIT", 0.01)
        lap = build_laplacian(random_connected_graph(40, 80, rng))
        solver = PoleSolver(lap, backend="auto")
        assert solver.backend == "auto"
        y = rng.standard_normal(40)
        x = solver.solve_spd_shift(2.0, y)
        assert solver.backend == "cg"
        assert np.linalg.norm(matvec(lap, x) + 2.0 * x - y) <= 1e-8 * np.linalg.norm(y)
        # the factor that resolved the backend stays cached and counted
        assert len(solver.factors) == 1
        assert np.array_equal(solver.solve_spd_shift(2.0, y), cg_solve(lap, 2.0, y))
