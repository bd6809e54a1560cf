"""Polynomial-approximation error bounds for x log x and the induced
a priori probing bounds, plus a numerical best-approximation oracle."""

from __future__ import annotations

import numpy as np

D_MAX_DEFAULT = 64


def cheb_bound(k: int, b: float) -> float:
    """Chebyshev-expansion bound b / (2 k (k+1)) on [0, b], k >= 1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return b / (2.0 * k * (k + 1))


def entropy_poly_bound(k: int, a: float, b: float) -> float:
    """Integral-representation bound on the best degree-k approximation of
    x log x over [a, b], valid for k >= 2:

        b (1-sqrt(g)) (1 + g + 2 k sqrt(g)) / (4 (k^2-1)) * ((1-sqrt(g))/(1+sqrt(g)))^k

    with g = a/b. For a = 0 this reduces to b / (4 (k^2 - 1)).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    g = a / b
    sg = np.sqrt(g)
    ratio = (1.0 - sg) / (1.0 + sg)
    return float(
        b * (1.0 - sg) * (1.0 + g + 2.0 * k * sg) / (4.0 * (k * k - 1.0)) * ratio**k
    )


def probing_apriori_bound(d: int, n: int, a: float, b: float) -> float:
    """A priori bound on |S(A) - traceP_d| for a distance-d coloring:
    2 n E_d slack, i.e. exactly 2*n*entropy_poly_bound(d, a, b)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return 2.0 * n * entropy_poly_bound(d, a, b)


def select_d_apriori(
    n: int, a: float, b: float, eps_hat: float, d_max: int = D_MAX_DEFAULT,
    d_exact: int | None = None,
) -> int:
    """Smallest d >= 2 whose a priori probing bound is below eps_hat.

    ``d_exact`` is a distance at which probing is exact, such as a bound on
    the graph diameter (a distance-d coloring then gives every node its own
    color). When given, it is returned if no d <= min(d_max, d_exact - 1)
    attains the bound; without it that case raises ValueError.
    """
    if eps_hat <= 0:
        raise ValueError("eps_hat must be positive")
    top = d_max if d_exact is None else min(d_max, d_exact - 1)
    for d in range(2, top + 1):
        if probing_apriori_bound(d, n, a, b) <= eps_hat:
            return d
    if d_exact is not None:
        return d_exact
    raise ValueError(f"no d <= {d_max} attains the requested bound {eps_hat}")


def lebesgue_factor(k: int) -> float:
    """Lebesgue constant of degree-k Chebyshev interpolation:
    2/pi log(k+1) + 1."""
    return 2.0 / np.pi * np.log(k + 1.0) + 1.0


def near_best_slack(k: int) -> float:
    """Near-best interpolation slack: ||f - p_interp|| <= (1 + Lebesgue) E_k."""
    return 1.0 + lebesgue_factor(k)


def best_approx_error_oracle(k: int, a: float, b: float) -> float:
    """Near-best proxy for E_k(x log x, [a, b]).

    Interpolates x log x at k+1 Chebyshev points of [a, b] and measures the
    max error on a dense sample (>= 10k + 1000 points). The result is an
    upper proxy for the true best-approximation error, within the near-best
    factor near_best_slack(k).
    """
    if k < 0 or not 0 <= a < b:
        raise ValueError("need k >= 0 and 0 <= a < b")

    def f(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] * np.log(x[pos])
        return out

    interp = np.polynomial.chebyshev.Chebyshev.interpolate(f, k, domain=[a, b])
    xs = np.linspace(a, b, 10 * k + 1000)
    return float(np.abs(f(xs) - interp(xs)).max())
