import numpy as np
import pytest

from vnentropy.bounds import (
    best_approx_error_oracle,
    cheb_bound,
    entropy_poly_bound,
    near_best_slack,
    probing_apriori_bound,
    select_d_apriori,
)


class TestChebBound:
    def test_k1(self):
        assert cheb_bound(1, 1.0) == 0.25

    def test_k10(self):
        assert cheb_bound(10, 1.0) == pytest.approx(1 / 220)

    def test_linear_in_b(self):
        for k in (1, 3, 17):
            assert cheb_bound(k, 2.0) == pytest.approx(2 * cheb_bound(k, 1.0))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            cheb_bound(0, 1.0)


class TestEntropyPolyBound:
    def test_singular_interval_k2(self):
        # a = 0 reduces to b / (4 (k^2 - 1))
        assert entropy_poly_bound(2, 0.0, 1.0) == pytest.approx(1 / 12)
        for k in (2, 5, 20):
            assert entropy_poly_bound(k, 0.0, 1.0) == pytest.approx(1 / (4 * (k * k - 1)))

    def test_quarter_gamma(self):
        # gamma = 1/4: 0.5 * (1.25 + 2k*0.5) / (4(k^2-1)) * 3^-k, k = 2
        expect = 0.5 * (1.25 + 2.0) / 12.0 * (1 / 9)
        assert entropy_poly_bound(2, 0.25, 1.0) == pytest.approx(expect)
        assert expect == pytest.approx(0.0150463, rel=1e-5)

    def test_dominates_chebyshev_at_gamma_zero(self):
        for k in range(2, 1001):
            assert entropy_poly_bound(k, 0.0, 1.0) <= cheb_bound(k, 1.0)

    def test_nonincreasing_in_k(self):
        for a, b in [(0.0, 1.0), (1e-6, 1e-2), (1e-3, 1.0)]:
            vals = [entropy_poly_bound(k, a, b) for k in range(2, 201)]
            assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_homogeneous_in_b(self):
        for scale in (2.0, 10.0, 0.5):
            base = entropy_poly_bound(7, 0.001, 1.0)
            assert entropy_poly_bound(7, 0.001 * scale, scale) == pytest.approx(scale * base)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            entropy_poly_bound(1, 0.0, 1.0)


class TestProbingAprioriBound:
    def test_formula_a0(self):
        assert probing_apriori_bound(3, 100, 0.0, 1.0) == pytest.approx(100 / 16)

    def test_equals_twice_n_poly_bound(self):
        for d in (2, 5, 11):
            assert probing_apriori_bound(d, 37, 1e-4, 1e-1) == pytest.approx(
                2 * 37 * entropy_poly_bound(d, 1e-4, 1e-1)
            )

    def test_d_validation(self):
        with pytest.raises(ValueError):
            probing_apriori_bound(1, 10, 0.0, 1.0)


class TestSelectDApriori:
    def test_scan(self):
        # n b / (2 (d^2 - 1)): d = 7 gives 1.042, d = 8 gives 0.794
        assert select_d_apriori(100, 0.0, 1.0, 1.0) == 8

    def test_loose_tolerance(self):
        bound2 = probing_apriori_bound(2, 10, 0.0, 1.0)
        assert select_d_apriori(10, 0.0, 1.0, bound2 + 1) == 2

    def test_monotone_in_eps(self):
        prev = None
        for eps in (0.2, 1.0, 10.0, 100.0):
            d = select_d_apriori(1000, 0.0, 1.0, eps)
            if prev is not None:
                assert d <= prev
            prev = d

    def test_over_cap(self):
        with pytest.raises(ValueError):
            select_d_apriori(10**9, 0.0, 1.0, 1e-12, d_max=16)

    def test_exact_distance_replaces_failure(self):
        # no d <= 16 attains the bound: the exact distance is returned
        assert select_d_apriori(10**9, 0.0, 1.0, 1e-12, d_max=16, d_exact=12) == 12
        assert select_d_apriori(10**9, 0.0, 1.0, 1e-12, d_max=16, d_exact=40) == 40

    def test_exact_distance_caps_the_scan(self):
        # the scan alone gives d = 8 (test_scan); a smaller exact distance wins
        assert select_d_apriori(100, 0.0, 1.0, 1.0, d_exact=9) == 8
        assert select_d_apriori(100, 0.0, 1.0, 1.0, d_exact=8) == 8
        assert select_d_apriori(100, 0.0, 1.0, 1.0, d_exact=5) == 5


class TestBestApproxOracle:
    def test_constant_approx(self):
        # best constant on a short interval: about half the range of x log x
        a, b = 1.0, 1.001
        val = best_approx_error_oracle(0, a, b)
        f = lambda x: x * np.log(x)
        half_range = (f(b) - f(a)) / 2
        assert val == pytest.approx(half_range, rel=0.05)

    def test_degenerate_interval_vanishes(self):
        assert best_approx_error_oracle(3, 1.0, 1.0 + 1e-9) < 1e-11

    def test_bound_dominates_oracle_within_near_best_slack(self):
        for a, b in [(0.0, 1.0), (1e-6, 1e-2), (1e-3, 1.0)]:
            for k in range(2, 61, 3):
                oracle = best_approx_error_oracle(k, a, b)
                assert entropy_poly_bound(k, a, b) >= oracle / near_best_slack(k)
