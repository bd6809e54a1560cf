"""Probing and stochastic trace estimators over the Krylov quadratic-form
engine, with error budgeting, heuristic distance selection and the
end-to-end entropy drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import qr as scipy_qr

from .bounds import select_d_apriori
from .coloring import Coloring, make_coloring, probing_vector_dense
from .krylov import (
    ENTROPY,
    ShiftedOperator,
    adaptive_funvec,
    adaptive_quadform,
    desingularized_columns,
    eds_poles,
    group_size,
)
from .solver import PoleSolver
from .sparse import DensityMatrix, SpectralInterval, clamp_psd_eigenvalues, dense_sym_eig, laplacian_interval

STREAM_PILOT = 1
STREAM_OMEGA = 2
STREAM_HUTCH = 3

MAX_TOTAL_VECTORS = 10_000
MIN_DEFLATION = 3          # smallest sketch size the adaptive algorithm uses
MIN_HUTCH_SAMPLES = 5
DEFLATION_COST_RATIO = 2.0  # one apply + one quadform vs one quadform


def gaussian_stream(seed: int, stream: int, n: int):
    """j -> the standard normal vector of a counter-based generator keyed by
    (seed, stream, j): reproducible and order-independent. The stream's own
    Philox is re-keyed per vector, with the bits of a new Philox(key=...)."""
    gen = np.random.Generator(np.random.Philox())
    zeros, mask = (0, 0, 0, 0), 0xFFFFFFFFFFFFFFFF

    def draw(j: int) -> np.ndarray:
        key = (seed & mask, ((stream << 48) + j) & mask)
        gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                                   "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen.standard_normal(n)
    return draw


def gaussian_vector(seed: int, stream: int, j: int, n: int) -> np.ndarray:
    """Vector j of gaussian_stream(seed, stream, n)."""
    return gaussian_stream(seed, stream, n)(j)


class NonConvergenceError(RuntimeError):
    """A quadratic form or the sampling budget failed to converge."""


# ---------------------------------------------------------------------------
# operator providers


class DenseProvider:
    """Exact dense B for tests: quadratic forms and matvecs with no error,
    for a vector or column-wise for an (n, k) block."""

    group_size = 16

    def __init__(self, b: np.ndarray):
        self.b = np.asarray(b, dtype=np.float64)
        self.n = self.b.shape[0]

    def quadform(self, x, tol_abs=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return float(x @ (self.b @ x))
        return np.einsum("ij,ij->j", x, self.b @ x)

    def apply(self, x, tol_abs=None) -> np.ndarray:
        return self.b @ x


class KrylovEntropyProvider:
    """B = f(rho) for f = ENTROPY, accessed through the rational Krylov engine.

    Quadratic forms and matvecs run with implicit desingularization when the
    matrix annihilates the ones vector (graph Laplacian densities). Both take
    a vector or an (n, k) block; a block runs in lockstep groups of at most
    ``group_size`` columns, with results bitwise those of one column at a time.
    Shifted solves go to a PoleSolver with the given backend.
    """

    QUADFORM_TOL = 1e-8   # absolute tolerances when a call gives none
    FUNVEC_TOL = 1e-6

    def __init__(
        self,
        density: DensityMatrix,
        interval: SpectralInterval | None = None,
        stop: str = "estimate",
        solver_backend: str = "auto",
    ):
        self.n = density.n
        self.interval = laplacian_interval(density) if interval is None else interval
        # EDS poles need 0 < a < b; a = b only when rho is a multiple of I
        self.pole_source = eds_poles(self.interval, 40) if 0 < self.interval.a < self.interval.b else None
        self.op = ShiftedOperator(density.matrix, PoleSolver(density.matrix, solver_backend))
        self.stop = stop
        self.desingularize = float(np.abs(density.matrix.matvec(np.ones(self.n))).max()) <= 1e-12
        self.group_size = group_size(self.n)
        self.poly_iters = 0
        self.rational_iters = 0

    def _account(self, results: list):
        for res in results:
            self.poly_iters += res.poly_iters
            self.rational_iters += res.rational_iters
        for res in results:
            if not res.converged:
                raise NonConvergenceError(
                    f"quadratic form did not converge below {res.tol} in {res.dim} iterations"
                )

    def _run(self, adaptive, x, tol_abs) -> list:
        """(j, result) for each column j of x (a vector is one column) off
        the kernel: one ``adaptive`` call (adaptive_quadform or
        adaptive_funvec) on the columns, each projected off the ones vector
        when the density is desingularized. A column in the kernel of a
        graph-Laplacian density gets no result; its form and f(rho) x are 0,
        as f(0) = 0."""
        rows = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64).T))
        tols = np.broadcast_to(np.asarray(tol_abs, dtype=np.float64), (len(rows),))
        js, starts = desingularized_columns(rows, self.n) if self.desingularize else (range(len(rows)), rows)
        if not js:
            return []
        # the transpose of the rows: the engine takes its columns uncopied
        results = adaptive(
            self.op, starts.T, ENTROPY, self.interval, tols[js],
            pole_source=self.pole_source, stop=self.stop,
        )
        self._account(results)
        return list(zip(js, results))

    def quadform(self, x, tol_abs=None):
        """x^T f(rho) x for a vector, or an array of the column forms of an
        (n, k) block; tol_abs may then hold one tolerance per column."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(1 if x.ndim == 1 else x.shape[1])
        for j, res in self._run(adaptive_quadform, x, self.QUADFORM_TOL if tol_abs is None else tol_abs):
            out[j] = res.value
        return out if x.ndim == 2 else float(out[0])

    def apply(self, x, tol_abs=None) -> np.ndarray:
        """f(rho) x for a vector, or column-wise for an (n, k) block."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros((self.n, 1 if x.ndim == 1 else x.shape[1]))
        for j, res in self._run(adaptive_funvec, x, self.FUNVEC_TOL if tol_abs is None else tol_abs):
            out[:, j] = res.vector
        return out if x.ndim == 2 else out[:, 0]


# ---------------------------------------------------------------------------
# probing


def probing_trace(
    density: DensityMatrix,
    coloring: Coloring,
    provider: KrylovEntropyProvider,
    eps_hat: float,
):
    """traceP_d = sum_l psi_l over the probing vectors of the coloring.

    The quadratic form for class l runs to absolute tolerance
    eps_hat * |V_l| / n, so the class errors sum to at most eps_hat.
    """
    n = density.n
    sizes = coloring.class_sizes()
    tols = [eps_hat * sizes[ell] / n for ell in range(coloring.num_colors)]
    results = _quadforms(
        provider, coloring.num_colors, lambda ell: probing_vector_dense(coloring, ell), tols
    )
    return float(np.sum(results)), results


def _blocks(provider, count: int) -> list:
    """Index ranges 0..count-1 cut into blocks of provider.group_size."""
    width = provider.group_size
    return [range(lo, min(lo + width, count)) for lo in range(0, count, width)]


def _quadforms(provider, count: int, vector, tol=None) -> list:
    """[x_j^T B x_j for j < count] with x_j = vector(j), fed to the provider
    one block of columns at a time; tol is None, a scalar or a list with
    one tolerance per j."""
    values = []
    for idx in _blocks(provider, count):
        block = np.column_stack([vector(j) for j in idx])
        tols = [tol[j] for j in idx] if isinstance(tol, list) else tol
        values.extend(provider.quadform(block, tol_abs=tols).tolist())
    return values


def _applies(provider, count: int, vector, tol=None) -> np.ndarray:
    """The (n, count) block of B x_j with x_j = vector(j), fed to the
    provider one block of columns at a time."""
    return np.hstack([
        provider.apply(np.column_stack([vector(j) for j in idx]), tol_abs=tol)
        for idx in _blocks(provider, count)
    ])


def probing_error_identity_check(dense_a: np.ndarray, coloring: Coloring, fun) -> float:
    """-sum_l sum_{i != j in V_l} [f(A)]_{ij} for a vectorized f, computed
    densely for a PSD A.

    Equals trace(f(A)) - traceP_d(f(A)) for the same coloring. Eigenvalues
    are clamped as in sparse.clamp_psd_eigenvalues.
    """
    w, u = dense_sym_eig(dense_a)
    w = clamp_psd_eigenvalues(w)
    fa = (u * np.asarray(fun(w))) @ u.T
    total = 0.0
    for cls in coloring.classes:
        block = fa[np.ix_(cls, cls)]
        total += block.sum() - np.trace(block)
    return -total


@dataclass
class HeuristicFit:
    """Two-point fit of the probing error model C q^d / d^k for k in {2, 3}."""

    deltas: tuple
    fits: dict
    d_star: int
    fallback: bool
    trace_values: dict


def _model_error_tail(c: float, q: float, k: int, d: int) -> float:
    """Modeled probing error at distance d: the telescoped tail
    sum_{j >= d} C q^j / j^k of the fitted consecutive differences."""
    total = 0.0
    term = c * q**d / d**k
    j = d
    while term > 1e-3 * total or j < d + 4:
        total += term
        j += 1
        term = c * q**j / j**k
        if j > d + 10_000:
            break
    return total


def fit_probing_model(delta1: float, delta2: float, eps_hat: float, d_max: int = 64):
    """Solve C q^d / d^k = delta_d at d = 1, 2 for each k in {2, 3} and
    return the fitted parameters plus d_star = max_k min{d : modeled error
    <= eps_hat}, where the modeled error telescopes the remaining
    differences (which only matters when q is not small)."""
    fits = {}
    d_star = 0
    for k in (2, 3):
        if delta1 <= 0 or delta2 <= 0:
            continue
        q = (delta2 / delta1) * 2.0**k
        if not 0 < q < 1:
            continue
        c = delta1 / q
        fits[k] = (c, q)
        for d in range(1, d_max + 1):
            if _model_error_tail(c, q, k, d) <= eps_hat:
                d_star = max(d_star, d)
                break
        else:
            d_star = max(d_star, d_max)
    return fits, max(d_star, 2)


@dataclass
class EntropyEstimate:
    """Entropy value plus the full error-budget and cost accounting."""

    value: float
    method: str
    eps_rel: float
    eps_abs: float
    budget: dict
    rough_pre_estimate: float
    d: int | None = None
    colors: int | None = None
    class_sizes: tuple | None = None
    n_rank: int | None = None
    n_hutch: int | None = None
    poly_iters: int = 0
    rational_iters: int = 0
    factorizations: int = 0
    wall_time_s: float = 0.0
    seed: int | None = None
    heuristic: HeuristicFit | None = None
    solver_backend: str = "direct"
    fill_ratio: float | None = None


def heuristic_select_d(
    density: DensityMatrix,
    provider: KrylovEntropyProvider,
    eps_hat: float,
    run_probing,
    p1: float,
    d_max: int = 64,
) -> HeuristicFit:
    """Probing-error heuristic: run traceP_d for d = 2, 3 (d = 1 supplied),
    estimate |trace - traceP_d| by consecutive differences and fit the decay
    model; on an invalid fit (q outside (0,1)) fall back to the a priori
    bound. d_star is capped at the interval's diameter bound, where probing
    is exact."""
    cap = provider.interval.diameter_bound
    if cap is not None:
        d_max = min(d_max, cap)
    p2 = run_probing(2, eps_hat)
    p3 = run_probing(3, eps_hat)
    delta1, delta2 = abs(p2 - p1), abs(p3 - p2)
    fallback = False
    if delta1 <= eps_hat and delta2 <= eps_hat:
        # differences already below the Krylov noise floor: d = 3 suffices
        fits, d_star = {}, 3
    else:
        fits, d_star = fit_probing_model(delta1, delta2, eps_hat, d_max)
        fallback = not fits
        if fallback:
            d_star = select_d_apriori(
                density.n, provider.interval.a, provider.interval.b, eps_hat, d_max, cap
            )
    return HeuristicFit(
        deltas=(delta1, delta2),
        fits=fits,
        d_star=d_star,
        fallback=fallback,
        trace_values={1: p1, 2: p2, 3: p3},
    )


def entropy_probing(
    density: DensityMatrix,
    eps_rel: float,
    mode: str = "heuristic",
    stop: str = "estimate",
    order: str = "degree",
    d_override: int | None = None,
    coloring_method: str = "greedy",
    solver_backend: str = "auto",
    interval: SpectralInterval | None = None,
    grid_side: int | None = None,
) -> EntropyEstimate:
    """Probing estimate of S(rho) with relative accuracy eps_rel.

    The rough pre-estimate is traceP_1 (a lower bound for M-matrix inputs),
    converting the relative target into the absolute budget eps_hat =
    eps_rel * pre / 2 for the coloring error, with the same amount spread
    over the Krylov quadratic forms proportionally to class sizes.
    """
    if mode not in ("heuristic", "apriori"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    n = density.n
    provider = KrylovEntropyProvider(density, interval, stop, solver_backend)
    interval = provider.interval
    colorings: dict = {}

    def coloring_at(d):
        if d not in colorings:
            colorings[d] = make_coloring(density.matrix, d, coloring_method, order, grid_side)
        return colorings[d]

    def run_probing(d, eps_hat):
        value, _ = probing_trace(density, coloring_at(d), provider, eps_hat)
        return value

    # bootstrap tolerance: S(rho) <= log n bounds the scale from above
    eps0 = eps_rel * max(np.log(max(n, 2)), 1e-6) / 2
    p1 = run_probing(1, eps0)
    pre = max(p1, 1e-12)
    eps_hat = eps_rel * pre / 2
    fit = None
    if d_override is not None:
        d_star = d_override
    elif mode == "heuristic":
        fit = heuristic_select_d(density, provider, eps_hat, run_probing, p1)
        d_star = fit.d_star
    else:
        d_star = select_d_apriori(n, interval.a, interval.b, eps_hat, d_exact=interval.diameter_bound)
    if fit is not None and d_star <= 3:
        d_star = 3
        value = fit.trace_values[3]
    else:
        value = run_probing(d_star, eps_hat)
    coloring = colorings[d_star]
    return EntropyEstimate(
        value=value,
        method="probing",
        eps_rel=eps_rel,
        eps_abs=eps_hat,
        budget={"coloring": eps_hat, "krylov": eps_hat},
        rough_pre_estimate=pre,
        d=d_star,
        colors=coloring.num_colors,
        class_sizes=(int(coloring.class_sizes().min()), int(coloring.class_sizes().max())),
        heuristic=fit,
        **_engine_stats(provider, t0),
    )


def _engine_stats(provider: KrylovEntropyProvider, t0: float) -> dict:
    """The EntropyEstimate fields that entropy_probing and entropy_hutchpp
    fill alike: Krylov iteration counts, shifted-solver use and the wall
    time since t0."""
    solver = provider.op.solver
    fill = solver.fill_ratio
    return {
        "poly_iters": provider.poly_iters,
        "rational_iters": provider.rational_iters,
        "factorizations": len(solver.factors),
        "wall_time_s": time.perf_counter() - t0,
        "solver_backend": solver.backend,
        "fill_ratio": None if fill is None else round(fill, 3),
    }


# ---------------------------------------------------------------------------
# stochastic estimators


def hutchinson(provider, n_samples: int, seed: int, stream: int = STREAM_HUTCH) -> float:
    """(1/N) sum_j x_j^T B x_j with i.i.d. N(0,1) vectors keyed by (seed, j)."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    total = 0.0
    for value in _quadforms(provider, n_samples, gaussian_stream(seed, stream, provider.n)):
        total += value
    return total / n_samples


def _rank_revealing_orth(y: np.ndarray):
    """Orthonormal basis of range(Y) by column-pivoted QR with drop
    tolerance 1e-12 ||Y||_F."""
    if y.size == 0:
        return np.zeros((y.shape[0], 0))
    q, r, _ = scipy_qr(y, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    keep = diag > 1e-12 * max(np.linalg.norm(y), np.finfo(float).tiny)
    return q[:, : int(keep.sum())]


def _sketch(provider, q, first: int, count: int, seed: int, apply_tol=None, form_tol=None):
    """One Hutch++ sketch round: Y = B [w_first, ..., w_{first+count-1}] for
    Gaussian w_j keyed by (seed, STREAM_OMEGA, j), projected off range(q)
    and orthonormalized to Q. Returns Q and the forms q_i^T B q_i."""
    draw = gaussian_stream(seed, STREAM_OMEGA, provider.n)
    y = _applies(provider, count, lambda j: draw(first + j), apply_tol)
    q_new = _rank_revealing_orth(y - q @ (q.T @ y))
    return q_new, _quadforms(provider, q_new.shape[1], lambda i: q_new[:, i], form_tol)


def _deflated(x: np.ndarray, q) -> np.ndarray:
    """A Hutchinson vector x projected off range(q) when q is given."""
    return x if q is None else x - q @ (q.T @ x)


def hutchpp(provider, n_rank: int, n_hutch: int, seed: int) -> float:
    """Hutch++: trace of the rank-N_r sketch plus Hutchinson on the deflated
    remainder; N_r matvecs and N_r + N_H quadratic forms."""
    if n_rank < 1:
        raise ValueError("n_rank must be at least 1")
    n = provider.n
    q, forms = _sketch(provider, np.zeros((n, 0)), 0, n_rank, seed)
    t_low = float(np.sum(forms))
    if n_hutch == 0:
        return t_low
    draw = gaussian_stream(seed, STREAM_HUTCH, n)
    return t_low + float(np.mean(_quadforms(provider, n_hutch, lambda j: _deflated(draw(j), q))))


def _required_hutch_samples(samples, eps_hat, delta):
    """Sample count for the tail bound P[|est - tr| >= eps_hat] <= delta,
    from the sample variance of the quadratic forms with a chi-square
    finite-sample inflation (delta split between tail and variance)."""
    n = len(samples)
    return _required_count(n, float(np.var(samples, ddof=1)) if n >= 2 else 0.0, eps_hat, delta)


def _required_count(n: int, var: float, eps_hat, delta) -> int:
    """_required_hutch_samples for n samples of sample variance var."""
    if n < 2 or var == 0.0:
        return MIN_HUTCH_SAMPLES
    z2, infl = _tail_factors(n, delta)
    return int(np.ceil(z2 * var * infl / eps_hat**2))


@lru_cache(maxsize=1024)
def _tail_factors(n: int, delta: float):
    """(z^2, chi-square inflation capped at 20) of the tail bound for n >= 2
    samples; the package's only use of scipy.special, imported on first call."""
    from scipy.special import gammaincinv, ndtri

    z = ndtri(1.0 - delta / 4.0)
    chi2_q = 2.0 * gammaincinv((n - 1) / 2.0, delta / 4.0)
    return z * z, min(20.0, (n - 1) / max(chi2_q, 1e-12))


def adaptive_hutchpp(
    provider,
    eps_hat: float,
    delta: float,
    seed: int,
    max_total: int = MAX_TOTAL_VECTORS,
    eps_kry: float | None = None,
    max_rank: int = MAX_TOTAL_VECTORS,
):
    """Adaptive Hutch++: grow the low-rank sketch while the variance
    reduction per deflation vector outweighs its cost, then run Hutchinson
    on the deflated operator until the estimated tail bound holds.

    The first round sketches MIN_DEFLATION vectors, and later rounds never
    take the sketch past max_rank vectors: max_rank = MIN_DEFLATION is
    fixed-rank Hutch++ with an adaptive Hutchinson tail.

    eps_kry splits the Krylov budget: every apply runs to eps_kry, each of
    the `block` forms of round r = 1, 2, ... to eps_kry 2^-(r+1) / block,
    and each Hutchinson form to eps_kry / 4. Without eps_kry the provider's
    default tolerances apply.

    Returns (estimate, N_r, N_H).
    """
    if eps_hat <= 0 or not 0 < delta < 1:
        raise ValueError("need eps_hat > 0 and delta in (0, 1)")
    n = provider.n
    z2, _ = _tail_factors(MIN_HUTCH_SAMPLES, delta)
    q = np.zeros((n, 0))
    t_low = 0.0
    n_rank = 0
    block = MIN_DEFLATION
    round_idx = 0
    while True:
        round_idx += 1
        form_tol = None if eps_kry is None else eps_kry * 0.5 ** (round_idx + 1) / block
        q_new, round_forms = _sketch(provider, q, n_rank, block, seed, eps_kry, form_tol)
        t_low += float(np.sum(round_forms))
        q = np.hstack([q, q_new])
        n_rank += block
        if n_rank + MIN_HUTCH_SAMPLES >= max_total:
            break
        # marginal value of one more deflation vector, via the smallest
        # quadratic form captured this round as an eigenvalue proxy
        q_min = min(abs(v) for v in round_forms) if round_forms else 0.0
        saving = z2 * 2.0 * q_min**2 / eps_hat**2
        if saving <= DEFLATION_COST_RATIO or q_new.shape[1] < block:
            break
        block = min(n_rank, n - n_rank, max_total // 2 - n_rank, max_rank - n_rank)
        if block <= 0:
            break
    tol = None if eps_kry is None else eps_kry / 4.0
    samples = _hutchinson_tail(provider, eps_hat, delta, seed, tol, q, n_rank, max_total)
    estimate = t_low + float(np.mean(samples))
    return estimate, n_rank, len(samples)


def _hutchinson_tail(
    provider, eps_hat, delta, seed, tol, q=None, spent=0, max_total=MAX_TOTAL_VECTORS
):
    """Hutchinson quadratic forms x_j^T B x_j, j = 0, 1, ..., with x_j from
    (seed, STREAM_HUTCH, j) projected off range(q) when q is given, until
    the estimated tail bound holds. ``spent`` vectors of the budget
    ``max_total`` are already used. Returns the list of forms.

    The forms are computed in blocks of the samples the stopping rule takes
    whatever their values (``_sure_samples``), then replayed through the
    rule one at a time, so the samples are those of a one-at-a-time loop.
    The budget error comes before a block once the rule is sure to want a
    sample after the whole budget: that loop would spend it all.
    """
    draw = gaussian_stream(seed, STREAM_HUTCH, provider.n)
    buf = np.empty(max(max_total - spent, 0))
    k, pending = 0, []
    while k < max(MIN_HUTCH_SAMPLES, _required_hutch_samples(buf[:k], eps_hat, delta)):
        if not pending:
            ss = float(np.sum((buf[:k] - np.mean(buf[:k])) ** 2)) if k else 0.0
            if k == len(buf) or _sure_to_want(len(buf), ss, eps_hat, delta):
                raise NonConvergenceError(f"Hutchinson samples exceeded the vector budget {max_total}")
            count = _sure_samples(k, ss, eps_hat, delta, min(provider.group_size, len(buf) - k))
            pending = _quadforms(provider, count, lambda t, first=k: _deflated(draw(first + t), q), tol)
        buf[k] = pending.pop(0)
        k += 1
    return buf[:k].tolist()


def _sure_to_want(total: int, ss: float, eps_hat, delta) -> bool:
    """Whether the stopping rule is sure to want another sample after
    ``total`` samples, the first of which have the sum of squared
    deviations ss, whatever the values of the rest.

    Later samples never lower SS, so the variance is at least
    SS / (total - 1), and the required count is at least the one for that
    variance; one sample of slack covers rounding. The required count
    falls as the sample count grows, so a rule sure to want a sample after
    ``total`` samples is sure to want every sample before that too.
    """
    return total < max(
        MIN_HUTCH_SAMPLES, _required_count(total, ss / max(total - 1, 1), eps_hat, delta) - 1
    )


def _sure_samples(n: int, ss: float, eps_hat, delta, limit: int) -> int:
    """How many more samples, from 1 (the rule wants one now) up to limit,
    the stopping rule takes after n samples with sum of squared deviations
    ss, whatever their values."""
    t = 1
    while t < limit and _sure_to_want(n + t, ss, eps_hat, delta):
        t += 1
    return t


def entropy_hutchpp(
    density: DensityMatrix,
    eps_rel: float,
    delta: float,
    seed: int,
    method: str = "adaptive-hutchpp",
    stop: str = "estimate",
    solver_backend: str = "auto",
    interval: SpectralInterval | None = None,
) -> EntropyEstimate:
    """Stochastic estimate of S(rho): a 10-sample Hutchinson pilot fixes the
    scale, half the relative budget goes to the trace estimator and half to
    the Krylov tolerances. "hutchpp" is adaptive Hutch++ held at the
    MIN_DEFLATION-vector sketch."""
    if method not in ("adaptive-hutchpp", "hutchpp", "hutchinson"):
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    n = density.n
    provider = KrylovEntropyProvider(density, interval, stop, solver_backend)
    pilot_tol = 0.05 * max(np.log(max(n, 2)), 1.0)
    pilot = _quadforms(provider, 10, gaussian_stream(seed, STREAM_PILOT, n), pilot_tol)
    pre = max(float(np.mean(pilot)), 1e-12)
    eps_est = eps_rel * pre / 2
    eps_kry = eps_rel * pre / 2
    if method == "hutchinson":
        samples = _hutchinson_tail(provider, eps_est, delta, seed, eps_kry / 4.0)
        value, n_rank, n_hutch = float(np.mean(samples)), 0, len(samples)
    else:
        max_rank = MIN_DEFLATION if method == "hutchpp" else MAX_TOTAL_VECTORS
        value, n_rank, n_hutch = adaptive_hutchpp(
            provider, eps_est, delta, seed, eps_kry=eps_kry, max_rank=max_rank
        )
    return EntropyEstimate(
        value=value,
        method=method,
        eps_rel=eps_rel,
        eps_abs=eps_est,
        budget={"estimator": eps_est, "krylov": eps_kry},
        rough_pre_estimate=pre,
        n_rank=n_rank,
        n_hutch=n_hutch,
        seed=seed,
        **_engine_stats(provider, t0),
    )
