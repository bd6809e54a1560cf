"""Lockstep groups of start vectors: every group result must be bitwise the
result of running its vector alone."""

import numpy as np
import pytest

import vnentropy.krylov as krylov
from vnentropy.estimators import (
    MIN_HUTCH_SAMPLES,
    STREAM_HUTCH,
    DenseProvider,
    KrylovEntropyProvider,
    NonConvergenceError,
    _hutchinson_tail,
    _required_hutch_samples,
    gaussian_vector,
)
from vnentropy.generators import barabasi_albert_adjacency, grid2d_adjacency
from vnentropy.krylov import (
    ENTROPY,
    XLOGX,
    DenseOperator,
    adaptive_funvec,
    adaptive_quadform,
    aposteriori_bounds,
    desingularized_quadform,
    eds_poles,
    group_size,
)
from vnentropy.sparse import SpectralInterval, laplacian_interval

from conftest import laplacian_density, path_graph

FIELDS = (
    "value", "poly_iters", "rational_iters", "bound_lower", "bound_upper",
    "estimate", "converged", "tol", "dim", "switched_at",
)


def assert_bitwise(group, singles):
    assert len(group) == len(singles)
    for j, (g, s) in enumerate(zip(group, singles)):
        for name in FIELDS:
            assert getattr(g, name) == getattr(s, name), (j, name)
        if s.vector is not None:
            assert np.array_equal(g.vector, s.vector), j


@pytest.fixture(params=[2, 5, 13])
def k(request):
    return request.param


def _desingularized_pair(rho, block, tols, **kwargs):
    iv = laplacian_interval(rho)
    group = desingularized_quadform(rho, block, ENTROPY, iv, tols, **kwargs)
    singles = [
        desingularized_quadform(rho, block[:, j], ENTROPY, iv, tols[j], **kwargs)
        for j in range(block.shape[1])
    ]
    return group, singles


class TestGroupsMatchSingleRuns:
    def test_ba_density(self, rng, k):
        rho = laplacian_density(barabasi_albert_adjacency(150, 2, 11))
        assert group_size(rho.n) >= 13
        block = rng.standard_normal((rho.n, k))
        tols = list(1e-7 * (1.0 + 3.0 * np.arange(k)))
        iv = laplacian_interval(rho)
        group, singles = _desingularized_pair(rho, block, tols, pole_source=eds_poles(iv, 40))
        assert_bitwise(group, singles)

    def test_grid_density(self, rng, k):
        rho = laplacian_density(grid2d_adjacency(12))
        block = rng.standard_normal((rho.n, k))
        group, singles = _desingularized_pair(rho, block, [1e-8] * k)
        assert_bitwise(group, singles)

    def test_path_bound_stop_reaches_rational_phase(self, rng, k):
        rho = laplacian_density(path_graph(200))
        iv = laplacian_interval(rho)
        block = rng.standard_normal((rho.n, k))
        group, singles = _desingularized_pair(
            rho, block, [1e-9] * k, pole_source=eds_poles(iv, 40), stop="bound"
        )
        assert_bitwise(group, singles)
        assert all(r.rational_iters > 0 for r in group)

    def test_early_breakdown(self, rng, k):
        lam = np.linspace(0.5, 3.0, 40)
        block = rng.standard_normal((40, k))
        block[2:, 0] = 0.0   # two eigencomponents: breaks down at m = 2
        iv = SpectralInterval(0.5, 3.0)
        group = adaptive_quadform(DenseOperator(np.diag(lam)), block, XLOGX, iv, 1e-12)
        singles = [
            adaptive_quadform(DenseOperator(np.diag(lam)), block[:, j], XLOGX, iv, 1e-12)
            for j in range(k)
        ]
        assert_bitwise(group, singles)
        assert group[0].dim == 2 and group[1].dim > 2

    def test_ritz_values_outside_interval(self, rng, k):
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        a = (q * np.linspace(0.5, 3.0, 60)) @ q.T
        a = 0.5 * (a + a.T)
        iv = SpectralInterval(1.0, 2.0)   # narrower than the spectrum
        block = rng.standard_normal((60, k))
        for run in (adaptive_quadform, adaptive_funvec):
            group = run(DenseOperator(a), block, XLOGX, iv, 1e-6, m_max=12)
            singles = [run(DenseOperator(a), block[:, j], XLOGX, iv, 1e-6, m_max=12) for j in range(k)]
            assert_bitwise(group, singles)
        decomp = krylov.RationalArnoldiDecomposition(DenseOperator(a), block[:, 0])
        for _ in range(5):
            decomp.step(krylov.INF)
        theta = decomp.spectrum()[0]
        assert (theta < iv.a).any() and (theta > iv.b).any()

    def test_small_groups_and_row_blocks(self, rng, monkeypatch):
        rho = laplacian_density(barabasi_albert_adjacency(150, 2, 12))
        iv = laplacian_interval(rho)
        block = rng.standard_normal((rho.n, 13))
        kwargs = dict(pole_source=eds_poles(iv, 40))
        singles = _desingularized_pair(rho, block, [1e-8] * 13, **kwargs)[1]
        monkeypatch.setattr(krylov, "GROUP_BYTES", 3 * 8 * rho.n * (krylov.BASIS_CAP + 1))
        monkeypatch.setattr(krylov, "TEMP_BYTES", 8 * 2 * 2100)
        assert group_size(rho.n) == 3
        group = desingularized_quadform(rho, block, ENTROPY, iv, 1e-8, **kwargs)
        assert_bitwise(group, singles)


class _FixedSpectrum:
    """Decomposition stand-in with a prescribed projected spectrum."""

    def __init__(self, theta, alpha, beta, b_norm):
        self.data = (np.asarray(theta), np.asarray(alpha), np.asarray(beta), len(theta))
        self.b_norm = b_norm

    def spectrum(self):
        return self.data


def test_clustered_ritz_stand_in(rng, k):
    iv = SpectralInterval(0.2, 2.0)
    stand_ins = []
    for j in range(k):
        theta = np.sort(rng.uniform(0.3, 1.8, 4))
        if j % 2 == 0:
            theta[2] = theta[1] * (1 + 1e-16)   # clustered: lower bound degrades
        stand_ins.append(_FixedSpectrum(theta, rng.standard_normal(4), rng.standard_normal(4), 1.0 + j))
    lower, upper = aposteriori_bounds(stand_ins, XLOGX, iv)
    for j, s in enumerate(stand_ins):
        assert (lower[j], upper[j]) == aposteriori_bounds(s, XLOGX, iv)
    assert all(lower[::2] == 0.0) and all(lower[1::2] > 0.0)


class TestProviderBlocks:
    def test_krylov_provider_block_equals_columns(self, rng):
        rho = laplacian_density(barabasi_albert_adjacency(120, 2, 13))
        block = rng.standard_normal((rho.n, 6))
        block[:, 2] = 1.0   # in the kernel: the trivial desingularized path
        by_block, by_column = KrylovEntropyProvider(rho), KrylovEntropyProvider(rho)
        values = by_block.quadform(block, tol_abs=[1e-8] * 6)
        assert np.array_equal(values, [by_column.quadform(block[:, j], tol_abs=1e-8) for j in range(6)])
        applied = by_block.apply(block)
        assert np.array_equal(applied, np.column_stack([by_column.apply(block[:, j]) for j in range(6)]))
        assert (by_block.poly_iters, by_block.rational_iters) == (by_column.poly_iters, by_column.rational_iters)

    def test_dense_provider_blocks(self, rng):
        b = rng.standard_normal((30, 30))
        provider = DenseProvider(b @ b.T)
        block = rng.standard_normal((30, 7))
        singles = [provider.quadform(block[:, j]) for j in range(7)]
        assert np.allclose(provider.quadform(block), singles, rtol=1e-13)
        assert np.allclose(provider.apply(block), np.column_stack([provider.apply(block[:, j]) for j in range(7)]))


def _serial_tail(provider, eps_hat, delta, seed, tol, q=None, spent=0, max_total=10_000):
    """The one-vector-at-a-time Hutchinson loop the block tail must replay."""
    samples = []
    while len(samples) < max(MIN_HUTCH_SAMPLES, _required_hutch_samples(samples, eps_hat, delta)):
        if spent + len(samples) >= max_total:
            raise NonConvergenceError("budget")
        x = gaussian_vector(seed, STREAM_HUTCH, len(samples), provider.n)
        if q is not None:
            x = x - q @ (q.T @ x)
        samples.append(provider.quadform(x, tol_abs=tol))
    return samples


class TestBlockHutchinsonTail:
    @pytest.mark.parametrize("eps_hat", [0.5, 0.2])
    def test_matches_serial_replay(self, rng, eps_hat):
        rho = laplacian_density(barabasi_albert_adjacency(120, 2, 14))
        q, _ = np.linalg.qr(rng.standard_normal((rho.n, 2)))
        block_provider, serial_provider = KrylovEntropyProvider(rho), KrylovEntropyProvider(rho)
        for proj in (None, q):
            samples = _hutchinson_tail(block_provider, eps_hat, 1e-2, 5, 1e-6, proj)
            serial = _serial_tail(serial_provider, eps_hat, 1e-2, 5, 1e-6, proj)
            assert len(samples) == len(serial) > MIN_HUTCH_SAMPLES
            assert samples == serial
            assert np.mean(samples) == np.mean(serial)
        # no form is computed past the stop: the Krylov work is the same
        assert block_provider.poly_iters == serial_provider.poly_iters

    def test_dense_provider_matches_serial_replay(self, rng):
        b = rng.standard_normal((40, 40))
        provider = DenseProvider(b @ b.T)
        samples = _hutchinson_tail(provider, 200.0, 1e-2, 3, None)
        serial = _serial_tail(provider, 200.0, 1e-2, 3, None)
        assert len(samples) == len(serial) > provider.group_size
        assert np.mean(samples) == pytest.approx(np.mean(serial), rel=1e-12)

    def test_budget_error_as_serial(self, rng):
        b = rng.standard_normal((50, 50))
        provider = DenseProvider(b @ b.T)
        for spent, max_total in ((0, 20), (3, 20), (17, 20)):
            with pytest.raises(NonConvergenceError):
                _serial_tail(provider, 1e-12, 1e-2, 1, None, spent=spent, max_total=max_total)
            with pytest.raises(NonConvergenceError):
                _hutchinson_tail(provider, 1e-12, 1e-2, 1, None, spent=spent, max_total=max_total)
