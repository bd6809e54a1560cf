import math

import mpmath
import numpy as np
import pytest

from vnentropy.krylov import (
    ENTROPY,
    INF,
    XLOGX,
    DenseOperator,
    RationalArnoldiDecomposition,
    adaptive_funvec,
    adaptive_quadform,
    aposteriori_bounds,
    eds_poles,
    funvec_aposteriori,
    funvec_value,
    gm_estimate,
    quadform_value,
)
import vnentropy.krylov as krylov
from vnentropy.estimators import KrylovEntropyProvider
from vnentropy.generators import barabasi_albert_adjacency, grid2d_adjacency
from vnentropy.sparse import SpectralInterval, build_laplacian, dense_sym_eig, normalize_trace

from conftest import cycle_graph, desingularized_forms, laplacian_density, path_graph, random_connected_graph


def random_spd(n, rng, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(lo, hi, n)
    a = q @ np.diag(lam) @ q.T
    return 0.5 * (a + a.T), lam, q


def dense_quadform(a, b, fun):
    w, u = np.linalg.eigh(a)
    return float(b @ u @ (np.asarray(fun(w)) * (u.T @ b)))


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
        poles = np.array(seq)
        assert np.all(np.isfinite(poles)) and np.all(poles < 0)

    def test_nested_prefix(self):
        iv = SpectralInterval(0.01, 10.0)
        short = eds_poles(iv, 8)
        longer = eds_poles(iv, 13)
        assert longer[:8] == short

    def test_deterministic(self):
        iv = SpectralInterval(0.2, 7.0)
        assert eds_poles(iv, 10) == eds_poles(iv, 10)

    def test_requires_positive_interval(self):
        with pytest.raises(ValueError):
            eds_poles(SpectralInterval(0.0, 1.0), 5)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_empty_or_reversed_interval(self, a, b):
        with pytest.raises(ValueError, match="empty or reversed"):
            eds_poles(SpectralInterval(a, b), 3)

    def test_zero_pole_rejected_in_sequence(self, rng):
        # the group step's pole check rejects them before any state changes
        d = RationalArnoldiDecomposition(DenseOperator(np.diag(np.linspace(1.0, 2.0, 10))), rng.standard_normal(10))
        for xi in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="invalid pole"):
                d.step(xi)
        assert d.poles == [INF] and d.nbasis == 2 and d.poly_matvecs == 1

    @staticmethod
    def _mu_and_t(kappa, m):
        # the conformal modulus and Weyl points exactly as eds_poles forms them
        w = 2.0 * kappa - 1.0
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        return 1.0 / (w + np.sqrt(w * w - 1.0)), (np.arange(1, m + 1) * golden) % 1.0

    @pytest.mark.parametrize("kappa", [1 + 1e-12, 1 + 1e-6, 1.5, 10.0, 1e2, 1e3])
    def test_amplitude_matches_scipy(self, kappa):
        from scipy.special import ellipj, ellipkm1

        mu, t = self._mu_and_t(kappa, 150)
        phi = ellipj(t * ellipkm1(mu * mu), 1.0 - mu * mu)[3]
        np.testing.assert_allclose(krylov._amplitude(t, mu), phi, rtol=1e-12, atol=0)

    def test_amplitude_without_agm_step(self):
        # mu = 1 is the modulus m = 0: am(u | 0) = u and K = pi / 2, so dn = 1
        t = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(krylov._amplitude(t, 1.0), t * (math.pi / 2))

    @pytest.mark.parametrize("kappa, rtol", [(1 + 1e-12, 1e-13), (2.0, 1e-13), (1e3, 1e-11), (1e6, 1e-8)])
    def test_poles_match_mpmath(self, kappa, rtol):
        # 40-digit poles for the same float mu and Weyl points; poles from
        # scipy's ellipj were 1.2e-8 off at kappa = 1 + 1e-12 and 4.9e-4 at 1e6
        mu, t = self._mu_and_t(kappa, 40)
        with mpmath.workdps(40):
            mmu, m_ell = mpmath.mpf(mu), 1 - mpmath.mpf(mu) ** 2
            big_k = mpmath.ellipk(m_ell)
            ref = []
            for tj in t:
                dn = mpmath.ellipfun("dn", mpmath.mpf(tj) * big_k, m=m_ell)
                xi = 2 * mmu * kappa / (1 + mmu) * (1 - dn) / (mmu - dn)
                ref.append(float(min(xi, mpmath.mpf(-1) / 100)))
        got = eds_poles(SpectralInterval(1.0, kappa), 40)
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=0)

    @pytest.mark.parametrize("kappa", [1 + 1e-12, 1e4, 1e6, 1e7, 1e8])
    def test_extreme_ratios_finite_negative_nested(self, kappa):
        # RuntimeWarnings are errors under the suite's configuration
        iv = SpectralInterval(2.0, 2.0 * kappa)
        poles = np.array(eds_poles(iv, 150))
        assert np.all(np.isfinite(poles)) and np.all(poles <= -iv.a / 100.0)
        assert eds_poles(iv, 40) == tuple(poles[:40].tolist())

    def test_old_dn_guard_unreachable(self):
        # the scipy route clipped dn into [mu (1 + 1e-12), 1] before dividing
        # by dn - mu; along the AGM route dn stays inside by itself, and the
        # pole formula divides by cn^2 instead
        for kappa in np.concatenate([[1 + 1e-12, 1 + 1e-9], np.logspace(0.01, 8, 60)]):
            mu, t = self._mu_and_t(kappa, 150)
            phi = krylov._amplitude(t, mu)
            dn = np.hypot(np.cos(phi), mu * np.sin(phi))
            assert np.all((0 < phi) & (phi < math.pi / 2))
            assert np.all((dn > mu * (1.0 + 1e-12)) & (dn <= 1.0))

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
        short = (-0.5, INF, -2.0, -1.0, INF, -0.25)
        # 24 poles outgrow BASIS_CAP = 18 on the 18th step, a finite pole,
        # so a pole swap acts on the regrown row storage
        for schedule in (short, short * 4):
            d = RationalArnoldiDecomposition(op, b)
            for xi in schedule:
                d.step(xi)
                m = len(d.poles)
                norm_k = np.linalg.norm(d.K[: d.nbasis, :m])
                assert decomposition_residual(d) <= 1e-10 * norm_a * norm_k
                basis = d.V[:, : d.nbasis]
                assert np.linalg.norm(basis.T @ basis - np.eye(d.nbasis)) <= 1e-10 * m
            assert d.nbasis == len(schedule) + 2 and d.H.shape[1] >= len(schedule) + 1

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

        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        for xi in poles:
            d.step(xi)
        assert d.eval_dim == m
        psi_m = quadform_value(d, f_rat)
        psi = dense_quadform(a, b, f_rat)
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
        assert np.allclose(funvec_value(d, lambda x: x), a @ b, atol=1e-12)

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
        assert np.allclose(ENTROPY(x), -XLOGX(x))


TINY = np.finfo(float).tiny
_U = np.arange(40)


def _kernel_coefficients(decomp, kind, degraded=False):
    """(theta, c1, c2, scale): the kernel is scale |sum_j c1_j f[th_j, z] +
    c2_j f[th_j, th_j, z]|, g_m of the quadratic form (kind "g") or h_m of
    f(A) b (kind "h")."""
    theta, alpha, beta, _ = decomp.spectrum()
    th = np.maximum(theta, krylov.RITZ_FLOOR)
    ab = alpha * beta
    if kind == "h":
        return th, ab, np.zeros_like(ab), decomp.b_norm
    gamma = np.zeros_like(ab)
    if not degraded:
        for j in range(th.size):
            gamma[j] = sum(ab[i] / (th[j] - th[i]) for i in range(th.size) if i != j)
    return th, 2 * ab * gamma, ab**2, decomp.b_norm**2


def _dense_sample(decomp, interval, kind, degraded=False, n=200_001):
    """The kernel on n geometric points of [a, b] (0 plus a geometric tail
    when a = 0), the 65 level-0 cell ends and the Ritz values in [a, b], for
    f = x log x. Within th / 4 of a Ritz value th the divided differences
    come from 40 terms of their Taylor series, with
    f^(k)(th) / k! = (-1)^k / (k (k - 1) th^(k - 1)), elsewhere from the
    plain formulas. Returns (|kernel| at the points, the largest
    sum_j |term_j| over them, both scaled): rounding moves the kernel by
    a small multiple of the second, not of itself."""
    th, c1, c2, scale = _kernel_coefficients(decomp, kind, degraded)
    a, b = interval.a, interval.b
    if a > 0:
        z = np.concatenate([np.geomspace(a, b, n), np.geomspace(a, b, 65)])
    else:
        z = np.concatenate([[0.0], np.geomspace(max(b * 1e-16, TINY), b, n - 1),
                            np.geomspace(max(b * 1e-16, TINY), b, 64)])
    z = np.concatenate([z, th[(th >= a) & (th <= b)]])
    fz = np.where(z > 0, z * np.log(np.maximum(z, TINY)), 0.0)
    g, size = np.zeros_like(z), np.zeros_like(z)
    for t, w1, w2 in zip(th, c1, c2):
        d = z - t
        near = np.abs(d) <= t / 4
        dz = np.where(near, 1.0, d)
        d1 = (fz - t * np.log(t)) / dz
        d2 = (d1 - np.log(t) - 1.0) / dz
        powers = np.cumprod(np.broadcast_to(-d[near, None] / t, (near.sum(), _U.size)), axis=1)
        d2[near] = (0.5 + (powers[:, :-1] / ((_U[1:] + 1) * (_U[1:] + 2))).sum(axis=1)) / t
        d1[near] = np.log(t) + 1.0 + d[near] * d2[near]
        g += w1 * d1 + w2 * d2
        size += np.abs(w1 * d1) + np.abs(w2 * d2)
    return scale * np.abs(g), scale * size.max()


def _check_certified(decomp, interval, degraded=False, funs=(XLOGX, ENTROPY)):
    """g_m's bounds are its largest and smallest values on the dense
    sample, which sit at a and b. h_m's upper bound is at least the
    sample's max and within 2e-9 of it, and its lower bound at least the
    sample's min. All hold up to rounding: two summation orders of a kernel
    at one point differ by a few eps times the sum of its terms'
    magnitudes, which exceeds the kernel up to 1e10-fold on these spectra."""
    for kind, bound_fn in (("g", aposteriori_bounds), ("h", funvec_aposteriori)):
        sample, size = _dense_sample(decomp, interval, kind, degraded and kind == "g")
        top, bottom, rounding = sample.max(), sample.min(), 1e-14 * size
        for fun in funs:
            lower, upper = bound_fn(decomp, fun, interval)
            if kind == "g":
                assert abs(upper - top) <= 1e-12 * top + rounding, (upper, top)
                if degraded:
                    assert lower == 0.0
                else:
                    assert abs(lower - bottom) <= 1e-12 * top + rounding, (lower, bottom)
                continue
            assert upper >= (1 - 1e-12) * top - rounding, (upper, top)
            assert upper <= (1 + 2e-9) * top + rounding, (upper, top, size / top)
            assert lower >= bottom - rounding, (lower, bottom)


class _FixedSpectrum:
    """Decomposition stand-in with a prescribed projected spectrum."""

    def __init__(self, theta, alpha, beta, b_norm=1.0):
        self.data = (np.asarray(theta), np.asarray(alpha), np.asarray(beta), len(theta))
        self.b_norm = b_norm

    def spectrum(self):
        return self.data


class TestBoundsAgainstReference:
    def test_intervals_and_functions_share_one_process(self, rng):
        # alternating intervals and functions: a stale or colliding cache
        # entry of the cell ends would evaluate one interval on another's
        a, _, _ = random_spd(60, rng, lo=0.5, hi=3.0)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(60))
        intervals = (SpectralInterval(0.4, 3.2), SpectralInterval(0.1, 4.0))
        for k in range(12):
            d.step(INF)
            for iv in intervals:
                _check_certified(d, iv)

    def test_zero_left_end_mesh(self, rng):
        a, _, _ = random_spd(40, rng, lo=1e-3, hi=2.0)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(40))
        for _ in range(9):
            d.step(INF)
            _check_certified(d, SpectralInterval(0.0, 2.5), funs=(ENTROPY,))

    def test_clustered_ritz_values_degrade_lower_bound(self):
        theta = np.array([0.3, 0.7, 0.7 + 1e-16, 1.5])
        decomp = _FixedSpectrum(theta, [0.2, -0.1, 0.05, 0.3], [0.6, 0.5, -0.4, 0.2], b_norm=1.7)
        iv = SpectralInterval(0.2, 2.0)
        _check_certified(decomp, iv, degraded=True)
        assert aposteriori_bounds(decomp, XLOGX, iv)[0] == 0.0

    def test_ritz_values_on_base_mesh_points(self, rng):
        # Ritz values at a, on a level-0 cell end and a few ulps either side
        # of it: the group, each spectrum alone and the dense sample agree
        iv = SpectralInterval(0.2, 2.0)
        end = np.geomspace(iv.a, iv.b, 65)[32]
        stand_ins = [
            _FixedSpectrum(np.sort(np.append(rng.uniform(0.3, 1.8, 3), theta)),
                           rng.standard_normal(4), rng.standard_normal(4), b_norm=1.0 + j)
            for j, theta in enumerate((iv.a, end, end * (1 + 4e-16), end * (1 - 4e-16)))
        ]
        for bound_fn in (aposteriori_bounds, funvec_aposteriori):
            lower, upper = bound_fn(stand_ins, XLOGX, iv)
            for j, s in enumerate(stand_ins):
                assert (lower[j], upper[j]) == bound_fn(s, XLOGX, iv)
        for s in stand_ins:
            _check_certified(s, iv)

    def test_interior_maximum(self, monkeypatch):
        # |h_m| peaks inside [a, b], off the level-0 cell ends, by 4.2 and
        # 4.5 times its end values: only the cut cells certify the sup, and
        # with no cuts the level-0 cell bounds must still lie above it
        cases = [
            ([1.2e-3, 0.0901, 0.3114, 5.9808, 502.957], [-1.29, 0.002, 3.526, -2.328, 0.218],
             SpectralInterval(0.00161, 40.14)),
            ([7.0e-3, 1.02e-2, 7.4595, 14.1582, 29.2905, 77.9083], [-0.131, -0.535, 3.241, -0.181, -1.492, -0.68],
             SpectralInterval(0.0635, 94.06)),
        ]
        for theta, ab, iv in cases:
            s = _FixedSpectrum(theta, ab, np.ones(len(theta)))
            _check_certified(s, iv)
            sample, size = _dense_sample(s, iv, "h")
            assert sample.max() > 4 * max(sample[0], sample[200_000])
            with monkeypatch.context() as patch:
                patch.setattr(krylov, "BOUND_POINTS", 0)
                assert funvec_aposteriori(s, XLOGX, iv)[1] >= (1 - 1e-12) * sample.max()

    def test_taylor_rest_bound(self, rng):
        # a refined cell's Taylor polynomial plus its rest bound encloses h_m
        # on cells 0.6 to 1.6 times as wide as their centre, where the rest
        # is far above rounding
        for _ in range(300):
            m = rng.integers(1, 10)
            theta = np.sort(rng.uniform(0.01, 5.0, m)) * 10.0 ** rng.uniform(-3, 3)
            c1 = rng.standard_normal(m)
            c = theta[rng.integers(m)] * 10.0 ** rng.uniform(-1, 1)
            r = c * rng.uniform(0.3, 0.8)
            d, last = krylov._taylor(np.array([c]), theta[None], c1[None])
            z = c + np.linspace(-r, r, 201)
            terms = c1[:, None] * (z * np.log(z) - (theta * np.log(theta))[:, None]) / (z - theta[:, None])
            far = np.abs(z - theta[:, None]).min(axis=0) > 0.05 * c
            poly = np.polynomial.polynomial.polyval((z - c) / c, d[0])
            rest = (r / c) ** krylov.BOUND_ORDER * c / (c - r) * last[0]
            rounding = 1e-14 * np.abs(terms).sum(axis=0).max()
            assert np.all(np.abs(terms.sum(axis=0) - poly)[far] <= rest + rounding)

    def test_piece_bounds(self, rng):
        # polynomials with decaying coefficients, as a piece carries: the
        # bound lies above |p| on [-1, 1], and the largest value found,
        # at an end or the vertex, between |p| at the ends and the bound
        a = rng.standard_normal((2000, krylov.BOUND_ORDER)) * 0.3 ** np.arange(krylov.BOUND_ORDER)
        a[:, 1] *= rng.uniform(0.0, 2.0, 2000)
        bound, found = krylov._piece_bounds(a)
        p = np.abs(np.polynomial.polynomial.polyval(np.linspace(-1.0, 1.0, 4001), a.T))
        assert np.all(bound >= p.max(axis=1) * (1 - 1e-14))
        assert np.all(found <= bound) and np.all(found >= np.maximum(p[:, 0], p[:, -1]) * (1 - 1e-14))

    def test_ritz_value_at_zero_on_zero_left_end(self):
        # a null eigenvalue and a = 0: a Ritz value reaches 0 and counts as
        # RITZ_FLOOR, the kernels stay finite at z = 0 and the cell from 0
        # is never taken as monotone
        lam = np.concatenate([[0.0], np.linspace(0.5, 3.0, 19)])
        d = RationalArnoldiDecomposition(DenseOperator(np.diag(lam)), np.ones(20))
        for _ in range(18):
            d.step(INF)
        assert d.spectrum()[0].min() <= 0 and not d.exhausted
        _check_certified(d, SpectralInterval(0.0, 3.0))

    def test_other_functions_are_refused(self, rng):
        a, _, _ = random_spd(20, rng)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(20))
        d.step(INF)
        iv = SpectralInterval(0.5, 3.0)
        for bound_fn in (aposteriori_bounds, funvec_aposteriori):
            with pytest.raises(ValueError, match="ENTROPY and XLOGX"):
                bound_fn(d, np.sqrt, iv)
        with pytest.raises(ValueError, match="ENTROPY and XLOGX"):
            adaptive_quadform(DenseOperator(a), rng.standard_normal(20), np.sqrt, iv, 1e-6)

    def test_spectrum_recomputed_after_each_step(self, rng):
        a, _, _ = random_spd(30, rng)
        iv = SpectralInterval(0.5, 3.0)
        seq = eds_poles(iv, 10)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(30))
        for k in range(8):
            d.step(seq[k] if k % 2 else INF)
            stacked = krylov.group_spectrum(d._group)
            assert krylov.group_spectrum(d._group) is stacked
            assert not any(arr.flags.writeable for arr in (*stacked[:3], stacked[4]))
            m = d.eval_dim
            a_m = np.linalg.solve(d.K[:m, :m].T, d.H[:m, :m].T).T
            assert m == d.spectrum()[3]
            assert np.allclose(d.spectrum()[0], np.linalg.eigvalsh(0.5 * (a_m + a_m.T)))

    def test_polynomial_spectrum_skips_identity_solves_bitwise(self, rng):
        # before any finite pole K_m = I_m, and spectrum() uses H_m directly;
        # A_m = H_m K_m^{-1} formed with its solves must give the same bits
        a, _, _ = random_spd(50, rng)
        d = RationalArnoldiDecomposition(DenseOperator(a), rng.standard_normal(50))
        for _ in range(12):
            d.step(INF)
            theta, alpha, beta, m = d.spectrum()
            a_m, last = np.linalg.solve(d.K[:m, :m].T, d.H[:m, :m].T).T, d.H[m, :m]
            ref_theta, u = np.linalg.eigh(0.5 * (a_m + a_m.T))
            assert m == d.eval_dim and d.rational_solves == 0
            assert np.array_equal(theta, ref_theta)
            assert np.array_equal(alpha, np.linalg.solve(d.K[:m, :m].T, last) @ u)
            assert np.array_equal(beta, u[0, :])


def _density_oracle(adjacency):
    """(dense rho, [lambda_2, lambda_max] from its eigenvalues)."""
    rho = laplacian_density(adjacency).matrix.todense()
    w = np.linalg.eigvalsh(rho)
    return rho, SpectralInterval(float(w[1]), float(w[-1]))


class TestCertifiedSup:
    """Both bound functions against 2e5-point Taylor-evaluated samples of
    their kernels, on dense oracles of graph densities and random SPD
    matrices, in the polynomial and the rational phase."""

    def _run(self, a, interval, rng, monkeypatch, start_in_range=False, steps=14):
        n = a.shape[0]
        block = rng.standard_normal((n, 3))
        if start_in_range:   # orthogonal to the kernel of a Laplacian
            block -= block.mean(axis=0)
        members = RationalArnoldiDecomposition.lockstep(DenseOperator(a), list(block.T))
        group = members[0]._group
        poles = eds_poles(interval, 8) if interval.a > 0 else None
        for step in range(steps):
            if any(d.exhausted for d in members):
                break
            xi = poles[step - 8] if poles is not None and step >= 8 else INF
            group.step([xi] * len(members))
            if step % 4 != 1:
                continue
            for bound_fn in (aposteriori_bounds, funvec_aposteriori):
                lower, upper = bound_fn(members, ENTROPY, interval)
                for j, d in enumerate(members):
                    assert (lower[j], upper[j]) == bound_fn(d, ENTROPY, interval)
            _check_certified(members[0], interval, funs=(ENTROPY,))
            with monkeypatch.context() as patch:
                patch.setattr(krylov, "BOUND_POINTS", 0)
                sample, size = _dense_sample(members[0], interval, "h")
                upper = funvec_aposteriori(members[0], ENTROPY, interval)[1]
                assert upper >= (1 - 1e-12) * sample.max() - 1e-14 * size

    def test_grid_density(self, rng, monkeypatch):
        rho, iv = _density_oracle(grid2d_adjacency(6))
        self._run(rho, iv, rng, monkeypatch, start_in_range=True)

    def test_ba_density(self, rng, monkeypatch):
        rho, iv = _density_oracle(barabasi_albert_adjacency(60, 2, 5))
        self._run(rho, iv, rng, monkeypatch, start_in_range=True)

    def test_path_density(self, rng, monkeypatch):
        rho, iv = _density_oracle(path_graph(40))
        self._run(rho, iv, rng, monkeypatch, start_in_range=True)

    def test_random_spd(self, rng, monkeypatch):
        a, lam, _ = random_spd(50, rng, lo=0.05, hi=4.0)
        self._run(a, SpectralInterval(0.04, 4.5), rng, monkeypatch)

    def test_random_spd_zero_left_end(self, rng, monkeypatch):
        a, lam, _ = random_spd(50, rng, lo=1e-3, hi=2.0)
        self._run(a, SpectralInterval(0.0, 2.5), rng, monkeypatch)


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
        m = d.eval_dim
        a_m = np.linalg.solve(d.K[:m, :m].T, d.H[:m, :m].T).T
        v_m = d.V[:, :m]
        assert np.linalg.norm(a_m - v_m.T @ a @ v_m) <= 1e-9

    def test_swap_preserves_full_subspace_and_psi(self, rng):
        a, _, _ = random_spd(25, rng)
        b = rng.standard_normal(25)
        d = RationalArnoldiDecomposition(DenseOperator(a), b)
        d.step(-0.7)
        d.step(-1.9)
        # extend without the automatic swap, snapshot, then swap manually
        d._group.extend([-0.4])
        v_before = d.V[:, : d.nbasis].copy()
        proj_full_before = v_before.T @ a @ v_before
        w, u = np.linalg.eigh(0.5 * (proj_full_before + proj_full_before.T))
        psi_before = d.b_norm**2 * float((np.asarray(XLOGX(w)) * u[0, :] ** 2).sum())
        d.swap_last_pole_to_infinity()
        v_after = d.V[:, : d.nbasis]
        # principal angles of the full basis span
        sv = np.linalg.svd(v_before.T @ v_after, compute_uv=False)
        assert np.all(np.abs(sv - 1.0) <= 1e-10)
        proj_full_after = v_after.T @ a @ v_after
        w2, u2 = np.linalg.eigh(0.5 * (proj_full_after + proj_full_after.T))
        psi_after = d.b_norm**2 * float((np.asarray(XLOGX(w2)) * u2[0, :] ** 2).sum())
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
        # on one Krylov sequence the estimate lies below the upper bound, so
        # it reaches the tolerance first: along a stop="bound" run that
        # switches to rational poles, and in dimension on polynomial runs.
        # The upper bound stays above the error. (A stop="estimate" run with
        # a pole source switches on the stall of its own statistic, here
        # later than the upper bound stalls, so it follows another sequence
        # and its dimension is not compared with a stop="bound" run's.)
        iv = SpectralInterval(1e-3, 1e3)
        for n in (120, 260, 400):
            a, nodes = chebyshev_diag(n)
            b = rng.standard_normal(n)
            psi = float(b @ (nodes * np.log(nodes) * b))
            seq = eds_poles(iv, 40)
            kwargs = dict(tol_abs=1e-8, pole_source=seq, keep_trace=True)
            by_est = adaptive_quadform(DenseOperator(a), b, XLOGX, iv, stop="estimate", **kwargs)
            by_bound = adaptive_quadform(DenseOperator(a), b, XLOGX, iv, stop="bound", **kwargs)
            assert by_est.converged and by_bound.converged
            first_est = next(m for m, _, _, _, est, _ in by_bound.trace if est <= 1e-8)
            assert first_est <= by_bound.dim
            for m, _, lower, upper, est, value in by_bound.trace:
                assert lower <= est <= upper
                if abs(value - psi) > 1e-9 * abs(psi):   # above rounding
                    assert abs(value - psi) <= upper * (1 + 1e-9), m
        iv = SpectralInterval(0.1, 10.0)
        for n in (120, 260, 400):
            a, _ = chebyshev_diag(n, iv.a, iv.b)
            b = rng.standard_normal(n)
            by_est = adaptive_quadform(DenseOperator(a), b, XLOGX, iv, 1e-8, stop="estimate")
            by_bound = adaptive_quadform(DenseOperator(a), b, XLOGX, iv, 1e-8, stop="bound")
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
        # the kernel of a graph-Laplacian density: f(rho) 1 = f(0) 1 = 0
        rho = laplacian_density(cycle_graph(10))
        provider = KrylovEntropyProvider(rho, SpectralInterval(0.01, 0.5))
        assert provider.desingularize
        assert provider.quadform(np.ones(10), tol_abs=1e-8) == 0.0
        assert np.array_equal(provider.apply(np.ones(10)), np.zeros(10))
        assert (provider.poly_iters, provider.rational_iters) == (0, 0)

    def test_matches_dense_oracle(self, rng):
        rho = laplacian_density(random_connected_graph(60, 80, rng))
        dense = rho.matrix.todense()
        w, u = dense_sym_eig(dense)
        w = np.clip(w, 0.0, None)
        fa = (u * np.asarray(ENTROPY(w))) @ u.T
        nz = w[w > 1e-12]
        iv = SpectralInterval(nz.min() * 0.9, w.max() * 1.1)
        provider = KrylovEntropyProvider(rho, iv)
        for _ in range(3):
            b = rng.standard_normal(60)
            res = desingularized_forms(rho, b, iv, tol_abs=1e-9, pole_source=eds_poles(iv, 20))
            assert res.converged
            assert res.value == pytest.approx(float(b @ fa @ b), abs=2e-9)
            assert provider.quadform(b, tol_abs=1e-9) == pytest.approx(float(b @ fa @ b), abs=2e-9)

    def test_effective_interval_pairing_on_cycle(self, rng):
        # convergence on C_100 matches a synthetic matrix with the kernel removed
        n = 100
        rho = laplacian_density(cycle_graph(n))
        w, u = dense_sym_eig(rho.matrix.todense())
        keep = w > 1e-12
        iv = SpectralInterval(w[keep].min(), w.max())
        seq = eds_poles(iv, 30)
        b = rng.standard_normal(n)
        res = desingularized_forms(rho, b, iv, tol_abs=1e-10, pole_source=seq)
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
            res_d = desingularized_forms(rho, b, iv_desing, tol_abs=tol)
            res_p = adaptive_quadform(
                ShiftedOperator(rho.matrix), b, ENTROPY, iv_plain, tol_abs=tol
            )
            assert res_d.converged and res_p.converged
            assert abs(res_d.value - res_p.value) <= 2 * tol
