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
    STREAM_OMEGA,
    _hutchinson_tail,
    _rank_revealing_orth,
    _required_hutch_samples,
    gaussian_vector,
    hutchinson,
    hutchpp,
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


@pytest.fixture(params=[2, 5, 13, 40])
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
        assert group_size(rho.n) >= 40
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
        # f(A) b over [0, b] on the singular matrix: its certified sup cuts
        # cells, a different number in each spectrum of a group
        op, wide = krylov.ShiftedOperator(rho.matrix), SpectralInterval(0.0, iv.b)
        funvec_singles = [adaptive_funvec(op, block[:, j], ENTROPY, wide, 1e-8) for j in range(13)]
        # three 5-row start bases; with 19-row bases the width is at least 4
        monkeypatch.setattr(krylov, "GROUP_BYTES", 3 * 8 * rho.n * 5)
        assert group_size(rho.n) == 3
        group = desingularized_quadform(rho, block, ENTROPY, iv, 1e-8, **kwargs)
        assert_bitwise(group, singles)
        assert_bitwise(adaptive_funvec(op, block, ENTROPY, wide, 1e-8), funvec_singles)

    def test_grid_groups_grow_from_short_start_bases(self, rng, monkeypatch):
        """Groups of 4 on 5-row start bases, as on grid2d:120: the loose
        members leave before the pool first doubles, the tight ones grow it."""
        rho = laplacian_density(grid2d_adjacency(12))
        iv = laplacian_interval(rho)
        block = rng.standard_normal((rho.n, 8))
        tols = [1e-2, 1e-8] * 4
        singles = [desingularized_quadform(rho, block[:, j], ENTROPY, iv, tols[j]) for j in range(8)]
        monkeypatch.setattr(krylov, "GROUP_BYTES", 4 * 8 * rho.n * 5)
        assert (krylov.start_rows(rho.n), group_size(rho.n)) == (5, 4)
        live_at_grow, grow = [], krylov.ArnoldiGroup._grow

        def spy(group):
            live_at_grow.append(len(group.members))
            grow(group)

        monkeypatch.setattr(krylov.ArnoldiGroup, "_grow", spy)
        group = desingularized_quadform(rho, block, ENTROPY, iv, tols)
        assert_bitwise(group, singles)
        assert live_at_grow and max(live_at_grow) == 2
        assert max(r.dim for r in group[::2]) < 5 < min(r.dim for r in group[1::2])


class TestGroupWidth:
    @pytest.mark.parametrize("n, rows, width", [(1024, 19, 16), (3600, 19, 4), (14400, 5, 4)])
    def test_start_rows_and_width(self, n, rows, width):
        """ba:1024:2 and grid2d:60 keep full 19-row bases; grid2d:120 gets
        four 5-row bases where one 19-row basis used to fill the budget."""
        assert (krylov.start_rows(n), group_size(n)) == (rows, width)


class TestPinnedResults:
    """Values and iteration counts recorded before the lockstep groups
    shared one stacked state, when every vector was orthogonalized on its
    own: (value, poly_iters, rational_iters, dim, switched_at)."""

    BA = [
        (4.273317000828898, 15, 0, 15, -1),
        (4.140175443545358, 15, 0, 15, -1),
        (3.997059387409259, 15, 0, 15, -1),
        (5.935318222560223, 16, 0, 16, -1),
        (4.776537036794784, 15, 0, 15, -1),
        # one step fewer than with the 2000-point mesh, whose max at m = 15
        # was a rounding spike 1e-6 relative from a Ritz value, 7.9 times
        # the true sup |g_m(a)|; the extra step had taken the error from
        # 6.2e-8 to 2.1e-8, and test_ba_density checks that 6.2e-8 is still
        # within the tolerance and the bounds
        (3.308283990018914, 15, 0, 15, -1),
    ]
    PATH = [
        (5.337370804219144, 10, 9, 19, 10),
        (5.520709639688059, 17, 9, 26, 17),
        (5.9765425955631715, 9, 9, 18, 9),
    ]
    # recorded before the bounds were certified over the whole interval
    # instead of sampled on a 2000-point mesh: the bound kernel must not
    # move a value or an iteration count
    FUNVEC = [
        (4.453506700451016, 28, 0, 28, -1),
        (4.030368452873237, 27, 0, 27, -1),
        (4.388517534276506, 28, 0, 28, -1),
        (4.048056493431822, 28, 0, 28, -1),
        (4.722877689904533, 28, 0, 28, -1),
    ]
    FUNVEC_NORMS = [0.42677893013300794, 0.40436476734096255, 0.47827114123029085,
                    0.4296539356417097, 0.49828620381225464]
    GRID = [
        (6.099278855469368, 16, 4, 20, 16),
        (6.1189182085627785, 17, 4, 21, 17),
        (5.387839745161474, 13, 5, 18, 13),
        (6.792495602168951, 15, 5, 20, 15),
    ]

    @staticmethod
    def _check(results, pinned):
        for res, (value, poly, rat, dim, switched) in zip(results, pinned, strict=True):
            assert (res.poly_iters, res.rational_iters, res.dim, res.switched_at) == (poly, rat, dim, switched)
            assert abs(res.value - value) <= 1e-14 * abs(value)

    def test_ba_density(self):
        rho = laplacian_density(barabasi_albert_adjacency(150, 2, 11))
        iv = laplacian_interval(rho)
        block = np.random.default_rng(11).standard_normal((rho.n, 6))
        results = desingularized_quadform(rho, block, ENTROPY, iv, 1e-7, pole_source=eds_poles(iv, 40))
        self._check(results, self.BA)
        w, u = np.linalg.eigh(rho.matrix.todense())
        w = np.maximum(w, 0.0)
        exact = (-w * np.log(np.where(w > 0, w, 1.0))) @ (u.T @ block) ** 2
        for res, psi in zip(results, exact):
            assert res.bound_lower <= abs(res.value - psi) <= min(res.bound_upper, 1e-7)

    def test_path_bound_stop_rational_phase(self):
        rho = laplacian_density(path_graph(200))
        iv = laplacian_interval(rho)
        block = np.random.default_rng(200).standard_normal((rho.n, 3))
        results = desingularized_quadform(
            rho, block, ENTROPY, iv, 1e-9, pole_source=eds_poles(iv, 40), stop="bound"
        )
        self._check(results, self.PATH)

    def test_ba_funvec_zero_left_end(self):
        # f(A) b on the singular Laplacian density over [0, b]: the a = 0 tail
        rho = laplacian_density(barabasi_albert_adjacency(150, 2, 11))
        iv = SpectralInterval(0.0, laplacian_interval(rho).b)
        block = np.random.default_rng(12).standard_normal((rho.n, 5))
        results = adaptive_funvec(krylov.ShiftedOperator(rho.matrix), block, ENTROPY, iv, 1e-7)
        self._check(results, self.FUNVEC)
        for res, norm in zip(results, self.FUNVEC_NORMS, strict=True):
            assert abs(np.linalg.norm(res.vector) - norm) <= 1e-14 * norm

    def test_grid_bound_stop_rational_phase(self):
        rho = laplacian_density(grid2d_adjacency(20))
        iv = laplacian_interval(rho)
        block = np.random.default_rng(20).standard_normal((rho.n, 4))
        results = desingularized_quadform(
            rho, block, ENTROPY, iv, 1e-10, pole_source=eds_poles(iv, 40), stop="bound"
        )
        self._check(results, self.GRID)


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


    def test_fixed_size_estimators_match_serial_replay(self):
        # hutchinson and hutchpp feed blocks; the old one-vector-at-a-time
        # loops, summed the same way, must give the same bits
        rho = laplacian_density(barabasi_albert_adjacency(120, 2, 15))
        n = rho.n
        block_provider, serial_provider = KrylovEntropyProvider(rho), KrylovEntropyProvider(rho)
        total = 0.0
        for j in range(20):
            total += serial_provider.quadform(gaussian_vector(3, STREAM_HUTCH, j, n))
        assert hutchinson(block_provider, 20, seed=3) == total / 20
        y = np.column_stack([serial_provider.apply(gaussian_vector(4, STREAM_OMEGA, j, n)) for j in range(5)])
        q = _rank_revealing_orth(y)
        t_low = sum(serial_provider.quadform(q[:, i]) for i in range(q.shape[1]))
        total = 0.0
        for j in range(7):
            x = gaussian_vector(4, STREAM_HUTCH, j, n)
            total += serial_provider.quadform(x - q @ (q.T @ x))
        assert hutchpp(block_provider, 5, 7, seed=4) == float(t_low + total / 7)
        assert block_provider.poly_iters == serial_provider.poly_iters


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


class _CountingProvider(DenseProvider):
    """DenseProvider that counts the forms it computes. A block is computed
    column by column, so its forms are bitwise those of single calls."""

    def __init__(self, b):
        super().__init__(b)
        self.forms = 0

    def quadform(self, x, tol_abs=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return np.array([self.quadform(np.ascontiguousarray(col)) for col in x.T])
        self.forms += 1
        return super().quadform(x)


class TestTailStopsWhereTheRuleDoes:
    """The block tail keeps exactly the serial loop's samples and computes
    no form past the stop or the budget."""

    @pytest.fixture
    def provider(self, rng):
        b = rng.standard_normal((40, 40))
        return _CountingProvider(b @ b.T / 40)

    def test_long_tail_matches_serial(self, provider, rng):
        q, _ = np.linalg.qr(rng.standard_normal((40, 3)))
        serial = _serial_tail(provider, 0.7, 1e-2, 9, None, q)
        provider.forms = 0
        samples = _hutchinson_tail(provider, 0.7, 1e-2, 9, None, q)
        assert len(serial) >= 500
        assert samples == serial
        assert provider.forms == len(samples)

    def test_tail_that_uses_the_whole_budget(self, provider):
        serial = _serial_tail(provider, 1.5, 1e-2, 4, None)
        max_total = 7 + len(serial)
        provider.forms = 0
        samples = _hutchinson_tail(provider, 1.5, 1e-2, 4, None, spent=7, max_total=max_total)
        assert samples == serial and provider.forms == len(serial)
        provider.forms = 0
        with pytest.raises(NonConvergenceError):
            _hutchinson_tail(provider, 1.5, 1e-2, 4, None, spent=8, max_total=max_total)
        assert provider.forms == len(serial) - 1


class TestStackedFinish:
    def test_values_equal_quadform_value_of_each_member(self, monkeypatch):
        """The grid2d:20 bound-stop group of PINNED_RUNS takes rational steps;
        a fifth member spans two eigenvectors and exhausts its space."""
        rho = laplacian_density(grid2d_adjacency(20))
        iv = laplacian_interval(rho)
        u = np.linalg.eigh(rho.matrix.todense())[1]
        block = np.column_stack([np.random.default_rng(20).standard_normal((rho.n, 4)), u[:, 3] + u[:, 9]])
        finished, finish = [], krylov._Run.finish

        def spy(run, fun, value, *rest):
            d = run.decomp
            finished.append((value, krylov.quadform_value(d, fun), d.rational_solves, d.exhausted))
            finish(run, fun, value, *rest)

        monkeypatch.setattr(krylov._Run, "finish", spy)
        results = desingularized_quadform(
            rho, block, ENTROPY, iv, 1e-10, pole_source=eds_poles(iv, 40), stop="bound"
        )
        assert len(finished) == 5
        assert all(value == single for value, single, _, _ in finished)
        assert any(rat > 0 for _, _, rat, _ in finished) and any(ex for *_, ex in finished)
        TestPinnedResults._check(results[:4], TestPinnedResults.GRID)

    def test_stacked_rows_equal_single_rows(self, rng):
        rho = laplacian_density(barabasi_albert_adjacency(150, 2, 11))
        decomps = krylov.RationalArnoldiDecomposition.lockstep(
            krylov.ShiftedOperator(rho.matrix), list(rng.standard_normal((6, rho.n)))
        )
        for _ in range(7):
            decomps[0]._group.step([krylov.INF] * 6)
        values = krylov.quadform_value(decomps, ENTROPY)
        assert values.tolist() == [krylov.quadform_value(d, ENTROPY) for d in decomps]

    def test_undefined_ritz_value_raises_as_alone(self, rng):
        # an indefinite operator: every member reaches m_max with negative Ritz values
        lam = np.linspace(-1.0, 2.0, 30)
        block = rng.standard_normal((30, 3))
        iv = SpectralInterval(0.5, 2.0)
        with pytest.raises(ValueError, match="f undefined") as alone:
            adaptive_quadform(DenseOperator(np.diag(lam)), block[:, 0], XLOGX, iv, 1e-12, m_max=6)
        with pytest.raises(ValueError, match="f undefined") as group:
            adaptive_quadform(DenseOperator(np.diag(lam)), block, XLOGX, iv, 1e-12, m_max=6)
        assert str(group.value) == str(alone.value)
