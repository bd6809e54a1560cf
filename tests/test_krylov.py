import numpy as np
import pytest

from vnentropy.krylov import (
    ENTROPY,
    INF,
    XLOGX,
    DenseOperator,
    FunctionTriple,
    PoleSequence,
    RationalArnoldiDecomposition,
    adaptive_funvec,
    adaptive_quadform,
    aposteriori_bounds,
    desingularized_quadform,
    eds_poles,
    funvec_aposteriori,
    funvec_value,
    gm_estimate,
    quadform_value,
)
from vnentropy.sparse import SpectralInterval, build_laplacian, dense_sym_eig, normalize_trace

from conftest import cycle_graph, random_connected_graph, laplacian_density


def random_spd(n, rng, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(lo, hi, n)
    a = q @ np.diag(lam) @ q.T
    return 0.5 * (a + a.T), lam, q


def dense_quadform(a, b, fun):
    w, u = np.linalg.eigh(a)
    return float(b @ u @ (np.asarray(fun.f(w)) * (u.T @ b)))


def chebyshev_diag(n, lo=1e-3, hi=1e3):
    nodes = lo + (hi - lo) * 0.5 * (1 + np.cos(np.pi * np.arange(n) / (n - 1)))
    return np.diag(nodes), nodes


def decomposition_residual(d):
    m = len(d.poles)
    v = d.V[:, : d.nbasis]
    av = np.column_stack([d.op.matvec(v[:, i]) for i in range(d.nbasis)])
    return np.linalg.norm(av @ d.K[: d.nbasis, :m] - v @ d.H[: d.nbasis, :m])


class TestEdsPoles:
    def test_negative_and_finite(self):
        seq = eds_poles(SpectralInterval(1e-3, 1e3), 25)
        poles = np.array(seq.poles)
        assert np.all(np.isfinite(poles)) and np.all(poles < 0)

    def test_nested_prefix(self):
        iv = SpectralInterval(0.01, 10.0)
        short = eds_poles(iv, 8)
        longer = eds_poles(iv, 13)
        assert longer.poles[:8] == short.poles

    def test_deterministic(self):
        iv = SpectralInterval(0.2, 7.0)
        assert eds_poles(iv, 10).poles == eds_poles(iv, 10).poles

    def test_requires_positive_interval(self):
        with pytest.raises(ValueError):
            eds_poles(SpectralInterval(0.0, 1.0), 5)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_empty_or_reversed_interval(self, a, b):
        with pytest.raises(ValueError, match="empty or reversed"):
            eds_poles(SpectralInterval(a, b), 3)

    def test_zero_pole_rejected_in_sequence(self):
        with pytest.raises(ValueError):
            PoleSequence(poles=(0.0,))
        with pytest.raises(ValueError):
            PoleSequence(poles=(1.0,))

    def test_convergence_rate_mixed_schedule(self, rng):
        a, nodes = chebyshev_diag(500)
        b = rng.standard_normal(500)
        psi = float(b @ (nodes * np.log(nodes) * b))
        op = DenseOperator(a)
        seq = eds_poles(SpectralInterval(1e-3, 1e3), 15)
        d = RationalArnoldiDecomposition(op, b)
        for k in range(20):
            d.step(INF if k < 10 else seq[k - 10])
        err = abs(quadform_value(d, XLOGX) - psi) / abs(psi)
        assert err <= 1e-8


class TestExtend:
    def test_identity_breakdown(self, rng):
        op = DenseOperator(np.eye(12))
        d = RationalArnoldiDecomposition(op, rng.standard_normal(12))
        assert d.exhausted
        assert quadform_value(d, XLOGX) == pytest.approx(0.0, abs=1e-14)

    def test_all_infinity_spans_polynomial_krylov(self, rng):
        a, _, _ = random_spd(30, rng)
        b = rng.standard_normal(30)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for _ in range(5):
            d.step(INF)
        v = d.V[:, : d.nbasis]
        powers = np.column_stack(
            [np.linalg.matrix_power(a, k) @ b for k in range(d.nbasis)]
        )
        q, _ = np.linalg.qr(powers)
        assert np.linalg.norm(v @ v.T - q @ q.T) <= 1e-9

    def test_residual_invariant_every_step(self, rng):
        a, _, _ = random_spd(30, rng)
        b = rng.standard_normal(30)
        op = DenseOperator(a)
        norm_a = np.linalg.norm(a, 2)
        d = RationalArnoldiDecomposition(op, b)
        for xi in (-0.5, INF, -2.0, -1.0, INF, -0.25):
            d.step(xi)
            m = len(d.poles)
            norm_k = np.linalg.norm(d.K[: d.nbasis, :m])
            assert decomposition_residual(d) <= 1e-10 * norm_a * norm_k
            basis = d.V[:, : d.nbasis]
            assert np.linalg.norm(basis.T @ basis - np.eye(d.nbasis)) <= 1e-10 * m

    def test_last_row_of_k_zero_when_last_pole_infinite(self, rng):
        a, _, _ = random_spd(20, rng)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(20))
        for xi in (-1.0, -0.3, -2.2):
            d.step(xi)
        m = len(d.poles)
        assert d.poles[-1] == INF
        assert np.all(d.K[m, :m] == 0.0)


class TestQuadformValue:
    def test_full_space_exact(self, rng):
        n = 14
        a, lam, q = random_spd(n, rng)
        b = rng.standard_normal(n)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for _ in range(n + 1):
            if d.exhausted:
                break
            d.step(INF)
        psi = quadform_value(d, XLOGX)
        assert psi == pytest.approx(dense_quadform(a, b, XLOGX), rel=1e-10)

    def test_rational_exactness(self, rng):
        # f = p_{2m-1} / q_{m-1}^2 is reproduced exactly at dimension m
        n, m = 40, 5
        a, lam, q = random_spd(n, rng)
        b = rng.standard_normal(n)
        poles = [-0.4, -1.1, -2.7, -0.9]
        coef = rng.standard_normal(2 * m)

        def f_rat(x):
            denom = np.ones_like(x)
            for xi in poles:
                denom = denom * (1 - x / xi)
            return np.polyval(coef, x) / denom**2

        fun = FunctionTriple(f=f_rat, df=None, d2f=None)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for xi in poles:
            d.step(xi)
        assert d.eval_dim == m
        psi_m = quadform_value(d, fun)
        psi = dense_quadform(a, b, fun)
        assert abs(psi_m - psi) <= 1e-9 * abs(psi)

    def test_quadform_twice_as_fast_as_funvec(self, rng):
        a, nodes = chebyshev_diag(300, lo=1e-2, hi=1e2)
        b = rng.standard_normal(300)
        op = DenseOperator(a)
        iv = SpectralInterval(1e-2, 1e2)
        seq = eds_poles(iv, 45)
        psi = float(b @ (nodes * np.log(nodes) * b))
        fab = nodes * np.log(nodes) * b
        quad_err, vec_err = [], []
        d = RationalArnoldiDecomposition(op, b)
        for k in range(40):
            if d.exhausted:
                break
            d.step(seq[k])
            quad_err.append(abs(quadform_value(d, XLOGX) - psi) / abs(psi))
            vec_err.append(
                np.linalg.norm(funvec_value(d, XLOGX) - fab) / np.linalg.norm(fab)
            )
        for tol in (1e-6, 1e-8, 1e-10):
            m_quad = next(i + 2 for i, e in enumerate(quad_err) if e <= tol)
            m_vec = next(i + 2 for i, e in enumerate(vec_err) if e <= tol)
            assert abs(m_quad - m_vec / 2) <= 2


class TestFunvecValue:
    def test_full_space_exact(self, rng):
        n = 12
        a, lam, q = random_spd(n, rng)
        b = rng.standard_normal(n)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for _ in range(n + 1):
            if d.exhausted:
                break
            d.step(INF)
        w, u = np.linalg.eigh(a)
        expect = u @ (w * np.log(w) * (u.T @ b))
        assert np.allclose(funvec_value(d, XLOGX), expect, atol=1e-10)

    def test_linear_function_exact_at_dim_two(self, rng):
        a, _, _ = random_spd(10, rng)
        b = rng.standard_normal(10)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        d.step(INF)
        ident = FunctionTriple(f=lambda x: x, df=None, d2f=None)
        assert np.allclose(funvec_value(d, ident), a @ b, atol=1e-12)

    def test_mixed_poles_high_accuracy(self, rng):
        n = 40
        a, lam, q = random_spd(n, rng, lo=0.05, hi=5.0)
        b = rng.standard_normal(n)
        iv = SpectralInterval(0.05, 5.0)
        seq = eds_poles(iv, 15)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for k in range(20):
            d.step(INF if k < 5 else seq[k - 5])
        w, u = np.linalg.eigh(a)
        expect = u @ (w * np.log(w) * (u.T @ b))
        err = np.linalg.norm(funvec_value(d, XLOGX) - expect)
        assert err <= 1e-8 * np.linalg.norm(expect)


class TestAposterioriBounds:
    def test_sandwich_chebyshev_matrix(self, rng):
        a, nodes = chebyshev_diag(500)
        b = rng.standard_normal(500)
        psi = float(b @ (nodes * np.log(nodes) * b))
        iv = SpectralInterval(1e-3, 1e3)
        seq = eds_poles(iv, 20)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for k in range(15):
            d.step(seq[k])
            lo, up = aposteriori_bounds(d, XLOGX, iv)
            err = abs(quadform_value(d, XLOGX) - psi)
            if err < 1e-12 * abs(psi):
                break
            assert lo <= err * (1 + 1e-9)
            assert err <= up * (1 + 1e-9)
            assert lo <= gm_estimate(lo, up) <= up

    def test_full_space_zero_error_zero_lower(self, rng):
        n = 10
        a, _, _ = random_spd(n, rng)
        b = rng.standard_normal(n)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for _ in range(n + 1):
            if d.exhausted:
                break
            d.step(INF)
        lo, up = aposteriori_bounds(d, XLOGX, SpectralInterval(0.5, 3.0))
        assert lo == 0.0 and up == 0.0

    def test_entropy_triple_derivatives(self):
        x = np.linspace(0.1, 2.0, 50)
        h = 1e-6
        df_numeric = (XLOGX.f(x + h) - XLOGX.f(x - h)) / (2 * h)
        assert np.allclose(XLOGX.df(x), df_numeric, atol=1e-7)
        d2f_numeric = (XLOGX.df(x + h) - XLOGX.df(x - h)) / (2 * h)
        assert np.allclose(XLOGX.d2f(x), d2f_numeric, rtol=1e-5)
        assert np.allclose(ENTROPY.f(x), -XLOGX.f(x))


def _reference_mesh(interval, theta, grid=2000):
    a, b = interval.a, interval.b
    if a > 0:
        mesh = np.geomspace(a, b, grid)
    else:
        mesh = np.concatenate([[0.0], np.geomspace(max(b * 1e-16, 1e-300), b, grid - 1)])
    return np.unique(np.concatenate([mesh, theta[(theta >= a) & (theta <= b)]]))


def _reference_bounds(decomp, fun, interval, degraded=False):
    """Plain per-Ritz-value evaluation of g_m (quadratic form) and h_m
    (f(A) b) on the sorted mesh. Returns, for each, the scaled (min, max)
    of the absolute value and the scale max_z sum_j |term_j(z)|: min |g|
    sits near a cancellation, so rounding moves it relative to that scale,
    not relative to itself."""
    theta, alpha, beta, _ = decomp.spectrum()
    th = np.maximum(theta, np.finfo(float).tiny)
    z = _reference_mesh(interval, theta)
    fz = fun.f(z)
    tol = 1e-8 * interval.b
    g_terms, h_terms = [], []
    for j in range(th.size):
        ab = alpha[j] * beta[j]
        others = [ab_k / (th[j] - th[k]) for k, ab_k in enumerate(alpha * beta) if k != j]
        gamma = 0.0 if degraded else sum(others)
        fj, dfj, d2fj = (float(np.asarray(fn(th[j : j + 1]))[0]) for fn in (fun.f, fun.df, fun.d2f))
        near = np.abs(z - th[j]) <= tol
        dz = np.where(near, 1.0, z - th[j])
        ratio = (fz - fj) / dz
        g_terms.append(np.where(near, 0.5 * ab**2 * d2fj + 2 * ab * gamma * dfj,
                                ab**2 * (ratio - dfj) / dz + 2 * ab * gamma * ratio))
        h_terms.append(ab * np.where(near, dfj, ratio))
    out = []
    for terms, scale in ((np.column_stack(g_terms), decomp.b_norm**2), (np.column_stack(h_terms), decomp.b_norm)):
        absval = scale * np.abs(terms.sum(axis=1))
        out.append((absval.min(), absval.max(), scale * np.abs(terms).sum(axis=1).max()))
    if degraded:
        out[0] = (0.0,) + out[0][1:]
    return out


class _FixedSpectrum:
    """Decomposition stand-in with a prescribed projected spectrum."""

    def __init__(self, theta, alpha, beta, b_norm=1.0):
        self.data = (np.asarray(theta), np.asarray(alpha), np.asarray(beta), len(theta))
        self.b_norm = b_norm

    def spectrum(self):
        return self.data


class TestBoundsAgainstReference:
    SQRT = FunctionTriple(
        f=lambda x: np.sqrt(np.maximum(x, 0.0)),
        df=lambda x: 0.5 / np.sqrt(np.maximum(x, 1e-300)),
        d2f=lambda x: -0.25 / np.maximum(x, 1e-300) ** 1.5,
    )

    def _check(self, decomp, fun, iv, degraded=False):
        quad, vec = _reference_bounds(decomp, fun, iv, degraded)
        for bounds, (lo, up, scale) in (
            (aposteriori_bounds(decomp, fun, iv), quad),
            (funvec_aposteriori(decomp, fun, iv), vec),
        ):
            assert abs(bounds[0] - lo) <= 1e-12 * scale
            assert abs(bounds[1] - up) <= 1e-12 * scale

    def test_intervals_and_functions_share_one_process(self, rng):
        # alternating (interval, function) pairs: a stale or colliding mesh
        # cache entry would evaluate one pair on another pair's mesh
        a, _, _ = random_spd(60, rng, lo=0.5, hi=3.0)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(60))
        intervals = (SpectralInterval(0.4, 3.2), SpectralInterval(0.1, 4.0))
        for k in range(12):
            d.step(INF)
            for fun in (XLOGX, self.SQRT):
                for iv in intervals:
                    self._check(d, fun, iv)

    def test_zero_left_end_mesh(self, rng):
        a, _, _ = random_spd(40, rng, lo=1e-3, hi=2.0)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(40))
        for _ in range(9):
            d.step(INF)
            self._check(d, ENTROPY, SpectralInterval(0.0, 2.5))

    def test_clustered_ritz_values_degrade_lower_bound(self):
        theta = np.array([0.3, 0.7, 0.7 + 1e-16, 1.5])
        decomp = _FixedSpectrum(theta, [0.2, -0.1, 0.05, 0.3], [0.6, 0.5, -0.4, 0.2], b_norm=1.7)
        iv = SpectralInterval(0.2, 2.0)
        self._check(decomp, XLOGX, iv, degraded=True)
        assert aposteriori_bounds(decomp, XLOGX, iv)[0] == 0.0

    def test_spectrum_recomputed_after_each_step(self, rng):
        a, _, _ = random_spd(30, rng)
        iv = SpectralInterval(0.5, 3.0)
        seq = eds_poles(iv, 10)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(30))
        for k in range(8):
            d.step(seq[k] if k % 2 else INF)
            assert d.spectrum() is d.spectrum()
            a_m, _, m = d.projected()
            assert m == d.spectrum()[3]
            assert np.allclose(d.spectrum()[0], np.linalg.eigvalsh(0.5 * (a_m + a_m.T)))

    def test_polynomial_spectrum_skips_identity_solves_bitwise(self, rng):
        # before any finite pole K_m = I_m, and spectrum() uses H_m directly;
        # the projected() route with its solves must give the same bits
        a, _, _ = random_spd(50, rng)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(50))
        for _ in range(12):
            d.step(INF)
            theta, alpha, beta, m = d.spectrum()
            a_m, last, m_proj = d.projected()
            ref_theta, u = np.linalg.eigh(0.5 * (a_m + a_m.T))
            assert m == m_proj and d.rational_solves == 0
            assert np.array_equal(theta, ref_theta)
            assert np.array_equal(alpha, np.linalg.solve(d.K[:m, :m].T, last) @ u)
            assert np.array_equal(beta, u[0, :])


class TestGmEstimate:
    def test_zero_lower(self):
        assert gm_estimate(0.0, 3.0) == 0.0

    def test_equal_bounds(self):
        assert gm_estimate(2.5, 2.5) == 2.5

    def test_between(self):
        assert 0.1 <= gm_estimate(0.1, 10.0) <= 10.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gm_estimate(-1.0, 1.0)


class TestPoleSwap:
    def test_already_infinite_is_identity(self, rng):
        a, _, _ = random_spd(15, rng)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(15))
        d.step(INF)
        h_before = d.H.copy()
        d.swap_last_pole_to_infinity()
        assert np.array_equal(d.H, h_before)

    def test_projection_matches_explicit(self, rng):
        a, _, _ = random_spd(30, rng)
        b = rng.standard_normal(30)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for xi in (-1.0, -0.5, -2.0):
            d.step(xi)
        a_m, _, m = d.projected()
        v_m = d.V[:, :m]
        assert np.linalg.norm(a_m - v_m.T @ a @ v_m) <= 1e-9

    def test_swap_preserves_full_subspace_and_psi(self, rng):
        a, _, _ = random_spd(25, rng)
        b = rng.standard_normal(25)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        d.step(-0.7)
        d.step(-1.9)
        # extend without the automatic swap, snapshot, then swap manually
        d._extend(-0.4)
        v_before = d.V[:, : d.nbasis].copy()
        proj_full_before = v_before.T @ a @ v_before
        w, u = np.linalg.eigh(0.5 * (proj_full_before + proj_full_before.T))
        psi_before = d.b_norm**2 * float((np.asarray(XLOGX.f(w)) * u[0, :] ** 2).sum())
        d.swap_last_pole_to_infinity()
        v_after = d.V[:, : d.nbasis]
        # principal angles of the full basis span
        sv = np.linalg.svd(v_before.T @ v_after, compute_uv=False)
        assert np.all(np.abs(sv - 1.0) <= 1e-10)
        proj_full_after = v_after.T @ a @ v_after
        w2, u2 = np.linalg.eigh(0.5 * (proj_full_after + proj_full_after.T))
        psi_after = d.b_norm**2 * float((np.asarray(XLOGX.f(w2)) * u2[0, :] ** 2).sum())
        assert psi_after == pytest.approx(psi_before, rel=1e-12)


class TestAdaptiveQuadform:
    def test_huge_tolerance_minimum_iterations(self, rng):
        a, _, _ = random_spd(20, rng)
        b = rng.standard_normal(20)
        res = adaptive_quadform(
            DenseOperator(a), b, XLOGX, SpectralInterval(0.5, 3.0), tol_abs=1e9
        )
        assert res.converged and res.dim == 2

    def test_switch_fires_near_ten(self, rng):
        a, nodes = chebyshev_diag(500)
        b = rng.standard_normal(500)
        iv = SpectralInterval(1e-3, 1e3)
        res = adaptive_quadform(
            DenseOperator(a), b, XLOGX, iv, tol_abs=1e-10,
            pole_source=eds_poles(iv, 40),
        )
        assert res.converged
        assert 5 <= res.switched_at <= 15

    def test_estimate_stop_cheaper_than_bound_stop(self, rng):
        iv = SpectralInterval(1e-3, 1e3)
        for n in (120, 260, 400):
            a, nodes = chebyshev_diag(n)
            b = rng.standard_normal(n)
            seq = eds_poles(iv, 40)
            kwargs = dict(tol_abs=1e-8, pole_source=seq)
            by_est = adaptive_quadform(DenseOperator(a), b, XLOGX, iv, stop="estimate", **kwargs)
            by_bound = adaptive_quadform(DenseOperator(a), b, XLOGX, iv, stop="bound", **kwargs)
            assert by_est.converged and by_bound.converged
            assert by_est.dim <= by_bound.dim

    def test_bound_stop_honors_tolerance(self, rng):
        a, nodes = chebyshev_diag(300)
        b = rng.standard_normal(300)
        iv = SpectralInterval(1e-3, 1e3)
        psi = float(b @ (nodes * np.log(nodes) * b))
        res = adaptive_quadform(
            DenseOperator(a), b, XLOGX, iv, tol_abs=1e-6,
            pole_source=eds_poles(iv, 40), stop="bound",
        )
        assert res.converged
        assert abs(res.value - psi) <= 1e-6

    def test_nonconvergence_flagged(self, rng):
        a, nodes = chebyshev_diag(200)
        b = rng.standard_normal(200)
        iv = SpectralInterval(1e-3, 1e3)
        res = adaptive_quadform(
            DenseOperator(a), b, XLOGX, iv, tol_abs=1e-13, m_max=4
        )
        assert not res.converged


class TestDesingularized:
    def test_ones_vector_returns_zero(self):
        rho = laplacian_density(cycle_graph(10))
        iv = SpectralInterval(0.01, 0.5)
        res = desingularized_quadform(rho, np.ones(10), ENTROPY, iv, tol_abs=1e-8)
        assert res.value == pytest.approx(0.0, abs=1e-14)
        assert res.converged

    def test_matches_dense_oracle(self, rng):
        rho = laplacian_density(random_connected_graph(60, 80, rng))
        dense = rho.matrix.todense()
        w, u = dense_sym_eig(dense)
        w = np.clip(w, 0.0, None)
        fa = (u * np.asarray(ENTROPY.f(w))) @ u.T
        nz = w[w > 1e-12]
        iv = SpectralInterval(nz.min() * 0.9, w.max() * 1.1)
        for _ in range(3):
            b = rng.standard_normal(60)
            res = desingularized_quadform(
                rho, b, ENTROPY, iv, tol_abs=1e-9, pole_source=eds_poles(iv, 20)
            )
            assert res.converged
            assert res.value == pytest.approx(float(b @ fa @ b), abs=2e-9)

    def test_effective_interval_pairing_on_cycle(self, rng):
        # convergence on C_100 matches a synthetic matrix with the kernel removed
        n = 100
        rho = laplacian_density(cycle_graph(n))
        w, u = dense_sym_eig(rho.matrix.todense())
        keep = w > 1e-12
        iv = SpectralInterval(w[keep].min(), w.max())
        seq = eds_poles(iv, 30)
        b = rng.standard_normal(n)
        res = desingularized_quadform(
            rho, b, ENTROPY, iv, tol_abs=1e-10, pole_source=seq
        )
        c = b - b.mean()
        coeffs = u[:, keep].T @ c
        synth = DenseOperator(np.diag(w[keep]))
        res_synth = adaptive_quadform(
            synth, coeffs, ENTROPY, iv, tol_abs=1e-10, pole_source=seq
        )
        assert res.converged and res_synth.converged
        assert abs(res.dim - res_synth.dim) <= 1
        assert res.value == pytest.approx(res_synth.value, abs=1e-9)


class TestFunvecAposteriori:
    def test_full_space_zero(self, rng):
        n = 10
        a, _, _ = random_spd(n, rng)
        b = rng.standard_normal(n)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for _ in range(n + 1):
            if d.exhausted:
                break
            d.step(INF)
        lo, up = funvec_aposteriori(d, XLOGX, SpectralInterval(0.5, 3.0))
        assert lo == 0.0 and up == 0.0

    def test_sandwich_on_chebyshev_matrix(self, rng):
        a, nodes = chebyshev_diag(400)
        b = rng.standard_normal(400)
        fab = nodes * np.log(nodes) * b
        iv = SpectralInterval(1e-3, 1e3)
        seq = eds_poles(iv, 20)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for k in range(14):
            d.step(seq[k])
            err = np.linalg.norm(funvec_value(d, XLOGX) - fab)
            lo, up = funvec_aposteriori(d, XLOGX, iv)
            if err < 1e-11 * np.linalg.norm(fab):
                break
            assert lo <= err * (1 + 1e-9)
            assert err <= up * (1 + 1e-9)

    def test_adaptive_funvec_converges(self, rng):
        a, nodes = chebyshev_diag(300)
        b = rng.standard_normal(300)
        iv = SpectralInterval(1e-3, 1e3)
        fab = nodes * np.log(nodes) * b
        res = adaptive_funvec(
            DenseOperator(a), b, XLOGX, iv, tol_abs=1e-6,
            pole_source=eds_poles(iv, 40),
        )
        assert res.converged
        assert np.linalg.norm(res.vector - fab) <= 2e-6


class TestTraceCsv:
    def test_trace_csv_format(self, rng):
        from vnentropy.krylov import trace_to_csv

        a, nodes = chebyshev_diag(100)
        b = rng.standard_normal(100)
        iv = SpectralInterval(1e-3, 1e3)
        res = adaptive_quadform(
            DenseOperator(a), b, XLOGX, iv, tol_abs=1e-4,
            pole_source=eds_poles(iv, 20), keep_trace=True,
        )
        csv = trace_to_csv(res)
        lines = csv.strip().splitlines()
        assert lines[0] == "m,pole,lower,upper,estimate,value"
        assert len(lines) == len(res.trace) + 1
        fields = lines[-1].split(",")
        assert int(fields[0]) == res.dim
        assert float(fields[2]) <= float(fields[4]) <= float(fields[3])


class TestDesingularizationConsistency:
    def test_matches_plain_polynomial_run(self, rng):
        # f(0) = 0: the desingularized result agrees with a plain adaptive
        # run on the singular matrix over [0, lambda_max]
        rho = laplacian_density(random_connected_graph(80, 100, rng))
        w, _ = dense_sym_eig(rho.matrix.todense())
        iv_plain = SpectralInterval(0.0, float(w.max()))
        nz = w[w > 1e-12 * w.max()]
        iv_desing = SpectralInterval(float(nz.min()), float(w.max()))
        from vnentropy.krylov import ShiftedOperator

        tol = 1e-9
        for _ in range(3):
            b = rng.standard_normal(80)
            res_d = desingularized_quadform(rho, b, ENTROPY, iv_desing, tol_abs=tol)
            res_p = adaptive_quadform(
                ShiftedOperator(rho.matrix), b, ENTROPY, iv_plain, tol_abs=tol
            )
            assert res_d.converged and res_p.converged
            assert abs(res_d.value - res_p.value) <= 2 * tol
