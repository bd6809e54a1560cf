import numpy as np
import pytest

from vnentropy.coloring import greedy_distance_coloring
from vnentropy.estimators import (
    STREAM_HUTCH,
    STREAM_OMEGA,
    STREAM_PILOT,
    DenseProvider,
    KrylovEntropyProvider,
    NonConvergenceError,
    _hutchinson_tail,
    adaptive_hutchpp,
    entropy_hutchpp,
    entropy_probing,
    fit_probing_model,
    gaussian_stream,
    gaussian_vector,
    hutchinson,
    hutchpp,
    probing_error_identity_check,
    probing_trace,
)
from vnentropy.generators import barabasi_albert_adjacency
from vnentropy.krylov import ENTROPY
from vnentropy.sparse import dense_entropy_oracle, dense_sym_eig, from_coo

from conftest import (
    complete_graph,
    diag_density,
    laplacian_density,
    random_connected_graph,
)


def dense_entropy_matrix(density):
    w, u = dense_sym_eig(density.matrix.todense())
    w = np.clip(w, 0.0, None)
    return (u * np.asarray(ENTROPY(w))) @ u.T


class TestProbingTrace:
    def test_singleton_coloring_exact(self, rng):
        rho = laplacian_density(random_connected_graph(40, 50, rng))
        coloring = greedy_distance_coloring(rho.matrix, 40)  # d >= diameter
        assert coloring.num_colors == 40
        provider = KrylovEntropyProvider(rho)
        eps_hat = 1e-8
        value, per_class = probing_trace(rho, coloring, provider, eps_hat)
        exact = dense_entropy_oracle(rho.matrix)
        assert len(per_class) == 40
        assert abs(value - exact) <= eps_hat * (1 + 1e-6)

    def test_accumulation_deterministic(self, rng):
        rho = laplacian_density(random_connected_graph(60, 70, rng))
        coloring = greedy_distance_coloring(rho.matrix, 2)
        v1, per_class1 = probing_trace(rho, coloring, KrylovEntropyProvider(rho), 1e-7)
        v2, per_class2 = probing_trace(rho, coloring, KrylovEntropyProvider(rho), 1e-7)
        assert v1 == v2
        assert per_class1 == per_class2


class TestProbingErrorIdentity:
    def test_singleton_classes_zero(self, rng):
        rho = laplacian_density(random_connected_graph(20, 20, rng))
        coloring = greedy_distance_coloring(rho.matrix, 20)
        val = probing_error_identity_check(rho.matrix.todense(), coloring, ENTROPY)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_single_class_two_by_two(self):
        rho = laplacian_density(complete_graph(2))
        fa = dense_entropy_matrix(rho)
        coloring = greedy_distance_coloring(from_coo(2, [], [], []), 1)
        val = probing_error_identity_check(rho.matrix.todense(), coloring, ENTROPY)
        assert val == pytest.approx(-2 * fa[0, 1], rel=1e-12)

    def test_identity_matches_probing_error(self, rng):
        rho = laplacian_density(random_connected_graph(100, 130, rng))
        coloring = greedy_distance_coloring(rho.matrix, 2)
        fa = dense_entropy_matrix(rho)
        exact = float(np.trace(fa))
        trace_p = sum(
            float(fa[np.ix_(cls, cls)].sum()) for cls in coloring.classes
        )
        identity = probing_error_identity_check(rho.matrix.todense(), coloring, ENTROPY)
        assert exact - trace_p == pytest.approx(identity, abs=1e-10)

    def test_rounding_negative_eigenvalue_clamped(self):
        """ba:1024:2 seed 7001 has a smallest eigenvalue of about -2e-18:
        clamped to 0, the identity stays finite and equals S - traceP_4."""
        rho = laplacian_density(barabasi_albert_adjacency(1024, 2, 7001))
        dense = rho.matrix.todense()
        assert np.linalg.eigvalsh(dense).min() < 0
        coloring = greedy_distance_coloring(rho.matrix, 4)
        fa = dense_entropy_matrix(rho)
        trace_p = sum(float(fa[np.ix_(c, c)].sum()) for c in coloring.classes)
        identity = probing_error_identity_check(dense, coloring, ENTROPY)
        assert np.isfinite(identity)
        assert identity == pytest.approx(dense_entropy_oracle(rho.matrix) - trace_p, rel=1e-10)

    def test_indefinite_rejected(self):
        coloring = greedy_distance_coloring(from_coo(2, [], [], []), 1)
        with pytest.raises(ValueError):
            probing_error_identity_check(np.diag([1.0, -0.5]), coloring, ENTROPY)

    def test_m_matrix_lower_bound_small(self, rng):
        for _ in range(5):
            rho = laplacian_density(random_connected_graph(50, 60, rng))
            fa = dense_entropy_matrix(rho)
            exact = float(np.trace(fa))
            for d in (1, 2, 3):
                coloring = greedy_distance_coloring(rho.matrix, d)
                trace_p = sum(float(fa[np.ix_(c, c)].sum()) for c in coloring.classes)
                assert trace_p <= exact + 1e-12


class TestHeuristicFit:
    def test_recovers_synthetic_model(self):
        c_true, q_true, k = 1.0, 0.5, 2
        delta1 = c_true * q_true / 1**k
        delta2 = c_true * q_true**2 / 2**k
        fits, d_star = fit_probing_model(delta1, delta2, eps_hat=1e-6)
        c_fit, q_fit = fits[k]
        assert q_fit == pytest.approx(q_true, abs=1e-12)
        assert c_fit == pytest.approx(c_true, abs=1e-12)
        # modeled error telescopes the remaining differences
        tail = lambda d: sum(c_true * q_true**j / j**2 for j in range(d, d + 200))
        expect = next(d for d in range(1, 100) if tail(d) <= 1e-6)
        # k = 3 fit from the same data gives q = 1 (rejected), so max is k=2's
        assert 3 not in fits
        assert d_star == expect

    def test_rejects_nondecreasing_differences(self):
        fits, d_star = fit_probing_model(1e-3, 2e-3, eps_hat=1e-6)
        assert not fits

    def test_loose_epsilon_floors_at_two(self):
        fits, d_star = fit_probing_model(0.5, 0.03125, eps_hat=10.0)
        assert d_star == 2


class TestEntropyProbing:
    def test_maximally_mixed_exact(self):
        n = 64
        rho = diag_density(np.ones(n))
        est = entropy_probing(rho, 1e-6)
        assert est.value == pytest.approx(np.log(n), rel=1e-12)
        assert est.d == 3  # differences vanish, early-converged branch

    def test_random_graph_within_tolerance(self, rng):
        rho = laplacian_density(random_connected_graph(150, 160, rng))
        exact = dense_entropy_oracle(rho.matrix)
        for eps in (1e-3, 1e-4):
            est = entropy_probing(rho, eps)
            assert abs(est.value - exact) / exact <= eps
            assert est.eps_abs == pytest.approx(eps * est.rough_pre_estimate / 2)

    def test_pre_estimate_is_lower_bound(self, rng):
        rho = laplacian_density(random_connected_graph(120, 150, rng))
        exact = dense_entropy_oracle(rho.matrix)
        est = entropy_probing(rho, 1e-3)
        assert est.rough_pre_estimate <= exact * (1 + 1e-6)

    def test_apriori_mode(self, rng):
        rho = laplacian_density(random_connected_graph(60, 60, rng))
        exact = dense_entropy_oracle(rho.matrix)
        est = entropy_probing(rho, 1e-2, mode="apriori")
        assert abs(est.value - exact) / exact <= 1e-2
        assert est.heuristic is None

    def test_d_override(self, rng):
        rho = laplacian_density(random_connected_graph(80, 90, rng))
        est = entropy_probing(rho, 1e-3, d_override=4)
        assert est.d == 4


class TestHutchinson:
    def test_zero_operator(self):
        assert hutchinson(DenseProvider(np.zeros((7, 7))), 25, seed=1) == 0.0

    def test_identity_within_three_sigma(self):
        n, num = 20, 10_000
        est = hutchinson(DenseProvider(np.eye(n)), num, seed=11)
        sigma = np.sqrt(2.0 * n / num)
        assert abs(est - n) <= 3 * sigma

    def test_fixed_seed_bit_identical(self, rng):
        b = rng.standard_normal((15, 15))
        provider = DenseProvider(b @ b.T)
        assert hutchinson(provider, 50, seed=7) == hutchinson(provider, 50, seed=7)

    def test_unbiased_single_sample(self, rng):
        n = 20
        b = rng.standard_normal((n, n))
        b = b @ b.T
        provider = DenseProvider(b)
        num = 10_000
        samples = [
            provider.quadform(gaussian_vector(seed, 3, 0, n)) for seed in range(num)
        ]
        sigma_mean = np.sqrt(2.0) * np.linalg.norm(b, "fro") / np.sqrt(num)
        assert abs(np.mean(samples) - np.trace(b)) <= 4 * sigma_mean


def _fresh_philox_vector(seed, stream, j, n):
    """The reference: a new Philox keyed by [seed mod 2^64, (stream << 48) + j]."""
    key = np.array([seed % 2**64, ((stream << 48) + j) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


class TestGaussianVector:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, -1], ids=["0", "7", "2^63+5", "masked-1"])
    def test_bitwise_a_fresh_philox(self, seed):
        for stream in (STREAM_PILOT, STREAM_OMEGA, STREAM_HUTCH):
            draw = gaussian_stream(seed, stream, 13)
            for j in (0, 1, 2, 3, 17, 255, 4096, 9_999, 10_000):
                ref = _fresh_philox_vector(seed, stream, j, 13)
                assert np.array_equal(gaussian_vector(seed, stream, j, 13), ref)
                assert np.array_equal(draw(j), ref)

    def test_interleaved_streams_do_not_leak_state(self):
        # odd lengths leave Philox's output buffer part-used; re-keying must
        # discard it, whatever the other stream drew last
        hutch, omega = gaussian_stream(5, STREAM_HUTCH, 7), gaussian_stream(5, STREAM_OMEGA, 7)
        for j in (3, 0, 3, 1, 10_000, 2):
            assert np.array_equal(hutch(j), _fresh_philox_vector(5, STREAM_HUTCH, j, 7))
            assert np.array_equal(omega(j), _fresh_philox_vector(5, STREAM_OMEGA, j, 7))
            assert np.array_equal(hutch(j + 1)[:3], _fresh_philox_vector(5, STREAM_HUTCH, j + 1, 3))


class TestHutchpp:
    def test_exact_on_low_rank(self, rng):
        n, r = 40, 4
        g = rng.standard_normal((n, r))
        b = g @ g.T  # PSD rank 4
        est = hutchpp(DenseProvider(b), n_rank=6, n_hutch=3, seed=5)
        assert est == pytest.approx(np.trace(b), rel=1e-10)

    def test_diag_123_exact(self):
        b = np.diag([1.0, 2.0, 3.0] + [0.0] * 17)
        est = hutchpp(DenseProvider(b), n_rank=3, n_hutch=0, seed=2)
        assert est == pytest.approx(6.0, rel=1e-12)

    def test_no_hutch_phase_underestimates_psd(self, rng):
        b = rng.standard_normal((30, 30))
        b = b @ b.T
        est = hutchpp(DenseProvider(b), n_rank=5, n_hutch=0, seed=3)
        assert est <= np.trace(b) + 1e-10


class TestAdaptiveHutchpp:
    def test_loose_tolerance_keeps_minimum_rank(self, rng):
        # flat-spectrum entropy operator: deflation does not pay off
        rho = laplacian_density(random_connected_graph(1200, 1500, rng))
        b = dense_entropy_matrix(rho)
        exact = float(np.trace(b))
        est, n_rank, n_hutch = adaptive_hutchpp(
            DenseProvider(b), eps_hat=0.01 * exact, delta=1e-2, seed=3
        )
        assert n_rank == 3
        assert n_hutch <= 300
        assert abs(est - exact) <= 0.02 * exact

    def test_tight_tolerance_grows_rank(self, rng):
        rho = laplacian_density(random_connected_graph(300, 360, rng))
        b = dense_entropy_matrix(rho)
        exact = float(np.trace(b))
        _, n_rank_loose, _ = adaptive_hutchpp(
            DenseProvider(b), eps_hat=0.05 * exact, delta=1e-2, seed=4
        )
        _, n_rank_tight, _ = adaptive_hutchpp(
            DenseProvider(b), eps_hat=2e-4 * exact, delta=1e-2, seed=4
        )
        assert n_rank_tight > n_rank_loose

    def test_max_rank_holds_the_sketch(self, rng):
        # the operator of test_tight_tolerance_grows_rank at a tolerance
        # where the unlimited sketch grows past the first round
        rho = laplacian_density(random_connected_graph(300, 360, rng))
        b = dense_entropy_matrix(rho)
        exact = float(np.trace(b))
        runs = [
            adaptive_hutchpp(DenseProvider(b), eps_hat=1e-2 * exact, delta=1e-2, seed=4, **kw)
            for kw in ({}, {"max_rank": 3})
        ]
        assert runs[0][1] > 3 and runs[1][1] == 3
        assert abs(runs[1][0] - exact) <= 0.02 * exact

    def test_hutch_samples_scale_inverse_square(self, rng):
        rho = laplacian_density(random_connected_graph(400, 500, rng))
        b = dense_entropy_matrix(rho)
        provider = DenseProvider(b)
        n1 = len(_hutchinson_tail(provider, 0.10, 1e-2, 9, tol=None))
        n4 = len(_hutchinson_tail(provider, 0.05, 1e-2, 9, tol=None))
        assert 2.5 <= n4 / n1 <= 8.0

    def test_budget_error(self, rng):
        b = rng.standard_normal((50, 50))
        b = b @ b.T
        with pytest.raises(NonConvergenceError):
            adaptive_hutchpp(DenseProvider(b), eps_hat=1e-12, delta=1e-2, seed=1, max_total=20)

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_hutchpp(DenseProvider(np.eye(3)), eps_hat=0.0, delta=0.5, seed=0)


class TestEntropyHutchpp:
    def test_maximally_mixed(self):
        n = 128
        rho = diag_density(np.ones(n))
        est = entropy_hutchpp(rho, 1e-2, 1e-2, seed=5)
        assert abs(est.value - np.log(n)) <= 1e-2 * np.log(n)
        assert est.n_rank >= 3

    def test_deterministic_under_seed(self, rng):
        rho = laplacian_density(random_connected_graph(100, 120, rng))
        a = entropy_hutchpp(rho, 1e-2, 1e-2, seed=123)
        b = entropy_hutchpp(rho, 1e-2, 1e-2, seed=123)
        assert a.value == b.value
        assert (a.n_rank, a.n_hutch) == (b.n_rank, b.n_hutch)

    def test_hutchinson_method(self, rng):
        rho = laplacian_density(random_connected_graph(80, 100, rng))
        exact = dense_entropy_oracle(rho.matrix)
        est = entropy_hutchpp(rho, 5e-2, 1e-1, seed=77, method="hutchinson")
        assert est.method == "hutchinson"
        assert est.n_rank == 0
        assert abs(est.value - exact) / exact <= 0.15  # statistical, loose

    def test_unknown_method_refused_before_any_krylov_work(self, monkeypatch):
        import vnentropy.estimators

        def forbidden(*args, **kwargs):
            raise AssertionError("provider built for an unknown method")

        monkeypatch.setattr(vnentropy.estimators, "KrylovEntropyProvider", forbidden)
        rho = diag_density(np.ones(16))
        with pytest.raises(ValueError, match="bogus"):
            entropy_hutchpp(rho, 1e-2, 1e-2, seed=5, method="bogus")

    def test_fixed_rank_hutchpp_method(self, rng):
        rho = laplacian_density(random_connected_graph(80, 100, rng))
        est = entropy_hutchpp(rho, 5e-2, 1e-1, seed=78, method="hutchpp")
        assert est.n_rank == 3


class TestPoleEconomy:
    def test_factor_cache_bounded_by_eds_pole_count(self):
        # ill-conditioned cycle Laplacian forces rational iterations; the
        # shared EDS sequence keeps the number of factorizations small
        from conftest import cycle_graph

        rho = laplacian_density(cycle_graph(400))
        est = entropy_probing(rho, 1e-5)
        assert est.rational_iters > 0
        assert est.factorizations <= 10
        exact = dense_entropy_oracle(rho.matrix)
        # the even cycle is bipartite: its staircase error decay is the
        # worst case for the heuristic d selection, which carries no hard
        # accuracy guarantee; allow modest slack over the nominal target
        assert abs(est.value - exact) / exact <= 5e-5


class TestHeuristicFallback:
    def test_invalid_fit_falls_back_to_apriori(self, rng):
        from vnentropy.estimators import KrylovEntropyProvider, heuristic_select_d
        from vnentropy.bounds import select_d_apriori

        rho = laplacian_density(random_connected_graph(60, 80, rng))
        provider = KrylovEntropyProvider(rho)
        # doctored non-monotone probing values: the model fit is rejected
        values = {2: 1.0, 3: 1.5}
        fit = heuristic_select_d(
            rho, provider, eps_hat=1e-3,
            run_probing=lambda d, eps: values[d], p1=0.8,
        )
        assert fit.fallback
        iv = provider.interval
        # the closed-form interval's bound first holds beyond the diameter
        # bound, where probing is exact: d_star is capped there
        uncapped = select_d_apriori(rho.n, iv.a, iv.b, 1e-3)
        assert uncapped > iv.diameter_bound
        assert fit.d_star == iv.diameter_bound


class TestDiameterCap:
    def test_valid_fit_capped_at_diameter_bound(self, rng):
        from vnentropy.estimators import heuristic_select_d

        rho = laplacian_density(random_connected_graph(60, 80, rng))
        provider = KrylovEntropyProvider(rho)
        # doctored slowly decaying differences 0.1, 0.02: the k = 2 fit
        # (q = 0.8) is valid but needs a d beyond the diameter bound
        values = {2: 0.9, 3: 0.92}
        fit = heuristic_select_d(
            rho, provider, eps_hat=1e-9,
            run_probing=lambda d, eps: values[d], p1=0.8,
        )
        assert not fit.fallback
        assert fit_probing_model(0.1, 0.02, 1e-9)[1] > provider.interval.diameter_bound
        assert fit.d_star == provider.interval.diameter_bound

    def test_apriori_mode_probes_exactly_at_the_cap(self, rng):
        # the a priori bound on the closed-form interval fails below the
        # diameter bound; probing at d = D gives every node its own color
        rho = laplacian_density(random_connected_graph(60, 80, rng))
        est = entropy_probing(rho, 1e-6, mode="apriori")
        diameter = KrylovEntropyProvider(rho).interval.diameter_bound
        assert est.d == diameter and est.colors == rho.n
        exact = dense_entropy_oracle(rho.matrix)
        assert abs(est.value - exact) <= 1e-6 * exact


class TestNoLanczosSweepOnLaplacians:
    def test_estimators_use_the_closed_form(self, rng, monkeypatch):
        import vnentropy.estimators
        import vnentropy.sparse

        def forbidden(*args, **kwargs):
            raise AssertionError("Lanczos interval sweep called on a Laplacian")

        # no estimator path runs the sweep, laplacian_interval's fallback
        # included
        assert not hasattr(vnentropy.estimators, "spectral_interval")
        monkeypatch.setattr(vnentropy.sparse, "spectral_interval", forbidden)
        rho = laplacian_density(random_connected_graph(80, 100, rng))
        exact = dense_entropy_oracle(rho.matrix)
        assert KrylovEntropyProvider(rho).interval.provenance == "closed-form"
        est = entropy_probing(rho, 1e-3)
        assert abs(est.value - exact) <= 1e-3 * exact
        est = entropy_hutchpp(rho, 5e-2, 1e-1, seed=5)
        assert abs(est.value - exact) <= 0.15 * exact


class TestSmallGraphEdges:
    def test_zero_entropy_single_edge(self):
        # K2 density matrix has eigenvalues {0, 1}: a pure state, S = 0
        rho = laplacian_density(complete_graph(2))
        assert dense_entropy_oracle(rho.matrix) == 0.0
        est = entropy_probing(rho, 1e-3)
        assert abs(est.value) <= 1e-12
        est2 = entropy_hutchpp(rho, 1e-1, 1e-1, seed=1)
        assert abs(est2.value) <= 1e-12

    def test_triangle_exact(self):
        # K3 density matrix has eigenvalues {0, 1/2, 1/2}: S = log 2
        rho = laplacian_density(complete_graph(3))
        est = entropy_probing(rho, 1e-6)
        assert est.value == pytest.approx(np.log(2), abs=1e-12)


class TestBoundStop:
    def test_probing_with_bound_stopping(self, rng):
        rho = laplacian_density(random_connected_graph(120, 140, rng))
        exact = dense_entropy_oracle(rho.matrix)
        est = entropy_probing(rho, 1e-3, stop="bound")
        assert abs(est.value - exact) / exact <= 1e-3

    def test_hutchpp_with_bound_stopping(self, rng):
        rho = laplacian_density(random_connected_graph(120, 140, rng))
        exact = dense_entropy_oracle(rho.matrix)
        est = entropy_hutchpp(rho, 5e-2, 1e-1, seed=2, stop="bound")
        assert abs(est.value - exact) / exact <= 0.15


# Values and counts of entropy_probing and entropy_hutchpp, recorded before
# the provider and the Hutch++ rounds were unified: (value, N_r, N_H,
# poly_iters, rat_iters, factorizations). A refactor of the estimator layer
# must keep them.
PINNED_RUNS = {
    ("ba", "probing"): (4.851870759956698, None, None, 1705, 0, 0),
    ("ba", "hutchinson"): (4.8698694611164015, 0, 107, 343, 0, 0),
    ("ba", "hutchpp"): (4.851230824828677, 3, 1067, 4087, 0, 0),
    ("ba", "adaptive-hutchpp"): (4.846603312283686, 192, 23, 1528, 0, 0),
    ("ba", "adaptive-bound"): (4.85376291614498, 200, 5, 2632, 0, 0),
    ("grid", "probing"): (5.8281475110201075, None, None, 178, 0, 0),
    ("grid", "hutchinson"): (5.884591110495993, 0, 62, 144, 0, 0),
    ("grid", "hutchpp"): (5.810137253154008, 3, 515, 1360, 0, 0),
    ("grid", "adaptive-hutchpp"): (5.810137253154008, 3, 515, 1360, 0, 0),
    ("grid", "probing-bound"): (5.8042487873199775, None, None, 154, 4, 1),
    ("grid", "adaptive-bound"): (5.82571972282848, 384, 22, 4010, 32, 2),
}


def _pinned_run(graph, run):
    from vnentropy.generators import grid2d_adjacency
    from vnentropy.sparse import build_laplacian, normalize_trace

    adj = barabasi_albert_adjacency(200, 2, 11) if graph == "ba" else grid2d_adjacency(20)
    rho = normalize_trace(build_laplacian(adj))
    if run == "probing":
        return entropy_probing(rho, 1e-4)
    if run == "probing-bound":
        return entropy_probing(rho, 1e-6, stop="bound", d_override=3)
    if run == "adaptive-bound":
        return entropy_hutchpp(rho, 1e-2, 1e-2, seed=7, stop="bound")
    eps, delta = (5e-2, 1e-1) if run == "hutchinson" else (2e-2, 1e-2)
    return entropy_hutchpp(rho, eps, delta, seed=7, method=run)


class TestPinnedEstimates:
    @pytest.mark.parametrize("graph, run", sorted(PINNED_RUNS), ids="-".join)
    def test_values_and_counts(self, graph, run):
        value, n_rank, n_hutch, poly, rat, factors = PINNED_RUNS[graph, run]
        est = _pinned_run(graph, run)
        assert est.value == pytest.approx(value, rel=1e-14, abs=0)
        assert (est.n_rank, est.n_hutch) == (n_rank, n_hutch)
        assert (est.poly_iters, est.rational_iters, est.factorizations) == (poly, rat, factors)
