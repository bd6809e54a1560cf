"""Probing and stochastic trace estimators over the Krylov quadratic-form
engine, with error budgeting, heuristic distance selection and the
end-to-end entropy drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as scipy_qr
from scipy.special import gammaincinv, ndtri

from .bounds import select_d_apriori
from .coloring import Coloring, make_coloring, probing_vector_dense
from .krylov import (
    ENTROPY,
    FunctionTriple,
    PoleSequence,
    QuadformResult,
    ShiftedOperator,
    adaptive_funvec,
    adaptive_quadform,
    desingularized_quadform,
    eds_poles,
    group_size,
)
from .solver import PoleSolver
from .sparse import DensityMatrix, SpectralInterval, dense_sym_eig, laplacian_interval

STREAM_PILOT = 1
STREAM_OMEGA = 2
STREAM_HUTCH = 3

MAX_TOTAL_VECTORS = 10_000
MIN_DEFLATION = 3          # smallest sketch size the adaptive algorithm uses
MIN_HUTCH_SAMPLES = 5
DEFLATION_COST_RATIO = 2.0  # one apply + one quadform vs one quadform


def gaussian_vector(seed: int, stream: int, j: int, n: int) -> np.ndarray:
    """Standard normal vector from a counter-based generator keyed by
    (seed, stream, j): reproducible and order-independent."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(((stream << 48) + j) & 0xFFFFFFFFFFFFFFFF)],
        dtype=np.uint64,
    )
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(n)


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
    """B = f(rho) accessed through the rational Krylov engine.

    Quadratic forms and matvecs run with implicit desingularization when the
    matrix annihilates the ones vector (graph Laplacian densities). Both take
    a vector or an (n, k) block; a block runs in lockstep groups of at most
    ``group_size`` columns, with results bitwise those of one column at a time.
    """

    def __init__(
        self,
        density: DensityMatrix,
        fun: FunctionTriple = ENTROPY,
        interval: SpectralInterval | None = None,
        pole_source: PoleSequence | None = None,
        operator: ShiftedOperator | None = None,
        stop: str = "estimate",
        quadform_tol: float = 1e-8,
        funvec_tol: float = 1e-6,
        m_max: int = 150,
        desingularize: bool | None = None,
    ):
        self.density = density
        self.fun = fun
        self.n = density.n
        if interval is None:
            interval = laplacian_interval(density)
        self.interval = interval
        if pole_source is None and interval.a > 0:
            pole_source = eds_poles(interval, 40)
        self.pole_source = pole_source
        self.op = operator if operator is not None else ShiftedOperator(density.matrix)
        self.stop = stop
        self.quadform_tol = quadform_tol
        self.funvec_tol = funvec_tol
        self.m_max = m_max
        if desingularize is None:
            ones = np.ones(self.n)
            desingularize = (
                float(np.abs(self.density.matrix.matvec(ones)).max()) <= 1e-12
            )
        self.desingularize = desingularize
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

    def quadform(self, x, tol_abs=None):
        """x^T f(rho) x for a vector, or an array of the column forms of an
        (n, k) block; tol_abs may then hold one tolerance per column."""
        tol = self.quadform_tol if tol_abs is None else tol_abs
        if self.desingularize:
            res = desingularized_quadform(
                self.density, x, self.fun, self.interval, tol,
                pole_source=self.pole_source, stop=self.stop,
                m_max=self.m_max, operator=self.op,
            )
        else:
            res = adaptive_quadform(
                self.op, x, self.fun, self.interval, tol,
                pole_source=self.pole_source, stop=self.stop, m_max=self.m_max,
            )
        if isinstance(res, QuadformResult):
            self._account([res])
            return res.value
        self._account(res)
        return np.array([r.value for r in res])

    def apply(self, x, tol_abs=None) -> np.ndarray:
        """f(rho) x for a vector, or column-wise for an (n, k) block."""
        tol = self.funvec_tol if tol_abs is None else tol_abs
        x = np.asarray(x, dtype=np.float64)
        block = x if x.ndim == 2 else x[:, None]
        out = np.zeros(block.shape)
        starts, cols = [], []
        for j in range(block.shape[1]):
            xj = np.ascontiguousarray(block[:, j])
            if self.desingularize:
                c = xj - xj.sum() / self.n
                if np.linalg.norm(c) <= 1e-14 * np.linalg.norm(xj):
                    continue
                xj = c
            starts.append(xj)
            cols.append(j)
        if starts:
            results = adaptive_funvec(
                self.op, np.column_stack(starts), self.fun, self.interval, tol,
                pole_source=self.pole_source, stop=self.stop, m_max=self.m_max,
            )
            self._account(results)
            for j, res in zip(cols, results):
                out[:, j] = res.vector
        return out if x.ndim == 2 else out[:, 0]

    @property
    def factorizations(self) -> int:
        solver = self.op.solver
        return solver.factorization_count if solver is not None else 0


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


def probing_error_identity_check(dense_a: np.ndarray, coloring: Coloring, fun: FunctionTriple) -> float:
    """-sum_l sum_{i != j in V_l} [f(A)]_{ij}, computed densely.

    Equals trace(f(A)) - traceP_d(f(A)) for the same coloring.
    """
    w, u = dense_sym_eig(dense_a)
    fa = (u * np.asarray(fun.f(w))) @ u.T
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
    valid: bool
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
    solve_count: int = 0
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
    if delta1 <= eps_hat and delta2 <= eps_hat:
        # differences already below the Krylov noise floor: d = 3 suffices
        return HeuristicFit(
            deltas=(delta1, delta2),
            fits={},
            d_star=3,
            valid=True,
            fallback=False,
            trace_values={1: p1, 2: p2, 3: p3},
        )
    fits, d_star = fit_probing_model(delta1, delta2, eps_hat, d_max)
    valid = bool(fits)
    fallback = not valid
    if fallback:
        d_star = select_d_apriori(
            density.n, provider.interval.a, provider.interval.b, eps_hat, d_max, cap
        )
    return HeuristicFit(
        deltas=(delta1, delta2),
        fits=fits,
        d_star=d_star,
        valid=valid,
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
    if interval is None:
        interval = laplacian_interval(density)
    operator = ShiftedOperator(density.matrix, PoleSolver(density.matrix, backend=solver_backend))
    provider = KrylovEntropyProvider(
        density, ENTROPY, interval=interval, operator=operator, stop=stop
    )
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
        poly_iters=provider.poly_iters,
        rational_iters=provider.rational_iters,
        factorizations=provider.factorizations,
        wall_time_s=time.perf_counter() - t0,
        heuristic=fit,
        **_solver_stats(operator),
    )


def _solver_stats(operator):
    solver = operator.solver
    if solver is None:
        return {"solver_backend": "direct", "solve_count": 0, "fill_ratio": None}
    fill = solver.cache.fill_ratio
    return {
        "solver_backend": solver.backend,
        "solve_count": solver.solve_count,
        "fill_ratio": None if fill is None else round(fill, 3),
    }


# ---------------------------------------------------------------------------
# stochastic estimators


def hutchinson(provider, n_samples: int, seed: int, stream: int = STREAM_HUTCH) -> float:
    """(1/N) sum_j x_j^T B x_j with i.i.d. N(0,1) vectors keyed by (seed, j)."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    total = 0.0
    for j in range(n_samples):
        x = gaussian_vector(seed, stream, j, provider.n)
        total += provider.quadform(x)
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


def hutchpp(provider, n_rank: int, n_hutch: int, seed: int) -> float:
    """Hutch++: trace of the rank-N_r sketch plus Hutchinson on the deflated
    remainder; N_r matvecs and N_r + N_H quadratic forms."""
    if n_rank < 1:
        raise ValueError("n_rank must be at least 1")
    n = provider.n
    omega = np.column_stack(
        [gaussian_vector(seed, STREAM_OMEGA, j, n) for j in range(n_rank)]
    )
    y = np.column_stack([provider.apply(omega[:, j]) for j in range(n_rank)])
    q = _rank_revealing_orth(y)
    t_low = sum(provider.quadform(q[:, i]) for i in range(q.shape[1]))
    if n_hutch == 0:
        return float(t_low)
    total = 0.0
    for j in range(n_hutch):
        x = gaussian_vector(seed, STREAM_HUTCH, j, n)
        x = x - q @ (q.T @ x)
        total += provider.quadform(x)
    return float(t_low + total / n_hutch)


def _required_hutch_samples(samples, eps_hat, delta, inflation_cap=20.0):
    """Sample count for the tail bound P[|est - tr| >= eps_hat] <= delta,
    from the sample variance of the quadratic forms with a chi-square
    finite-sample inflation (delta split between tail and variance)."""
    n = len(samples)
    if n < 2:
        return MIN_HUTCH_SAMPLES
    var = float(np.var(samples, ddof=1))
    if var == 0.0:
        return MIN_HUTCH_SAMPLES
    z = ndtri(1.0 - delta / 4.0)
    chi2_q = 2.0 * gammaincinv((n - 1) / 2.0, delta / 4.0)
    infl = min(inflation_cap, (n - 1) / max(chi2_q, 1e-12))
    return int(np.ceil(z * z * var * infl / eps_hat**2))


def adaptive_hutchpp(
    provider,
    eps_hat: float,
    delta: float,
    seed: int,
    max_total: int = MAX_TOTAL_VECTORS,
    quadform_tol=None,
    apply_tol=None,
):
    """Adaptive Hutch++: grow the low-rank sketch while the variance
    reduction per deflation vector outweighs its cost, then run Hutchinson
    on the deflated operator until the estimated tail bound holds.

    Returns (estimate, N_r, N_H). The deflation floor is 3 matvecs.
    """
    if eps_hat <= 0 or not 0 < delta < 1:
        raise ValueError("need eps_hat > 0 and delta in (0, 1)")
    n = provider.n
    z = ndtri(1.0 - delta / 4.0)
    q = np.zeros((n, 0))
    captured: list = []
    t_low = 0.0
    n_rank = 0
    omega_count = 0
    block = MIN_DEFLATION
    round_idx = 0
    while True:
        round_idx += 1
        first = omega_count
        tol = apply_tol(round_idx) if apply_tol is not None else None
        y = _applies(provider, block, lambda j: gaussian_vector(seed, STREAM_OMEGA, first + j, n), tol)
        omega_count += block
        y = y - q @ (q.T @ y)
        q_new = _rank_revealing_orth(y)
        tol = quadform_tol("rank", round_idx, block) if quadform_tol is not None else None
        round_forms = _quadforms(provider, q_new.shape[1], lambda i: q_new[:, i], tol)
        t_low += float(np.sum(round_forms))
        captured.extend(round_forms)
        q = np.hstack([q, q_new])
        n_rank += block
        if n_rank + MIN_HUTCH_SAMPLES >= max_total:
            break
        # marginal value of one more deflation vector, via the smallest
        # quadratic form captured this round as an eigenvalue proxy
        q_min = min(abs(v) for v in round_forms) if round_forms else 0.0
        saving = z * z * 2.0 * q_min**2 / eps_hat**2
        if saving <= DEFLATION_COST_RATIO or q_new.shape[1] < block:
            break
        block = min(n_rank, n - n_rank, max_total // 2 - n_rank)
        if block <= 0:
            break
    tol = quadform_tol("hutch", 0, 1) if quadform_tol is not None else None
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
    """
    n = provider.n

    def vector(j):
        x = gaussian_vector(seed, STREAM_HUTCH, j, n)
        return x if q is None else x - q @ (q.T @ x)

    samples: list = []
    while _wants_sample(samples, eps_hat, delta):
        room = max_total - spent - len(samples)
        if room <= 0:
            raise NonConvergenceError(f"Hutchinson samples exceeded the vector budget {max_total}")
        count = _sure_samples(samples, eps_hat, delta, min(provider.group_size, room))
        first = len(samples)
        for value in _quadforms(provider, count, lambda t: vector(first + t), tol):
            if not _wants_sample(samples, eps_hat, delta):
                break
            samples.append(value)
    return samples


def _wants_sample(samples, eps_hat, delta) -> bool:
    """The Hutchinson stopping rule: True while more samples are needed."""
    return len(samples) < max(MIN_HUTCH_SAMPLES, _required_hutch_samples(samples, eps_hat, delta))


def _sure_samples(samples, eps_hat, delta, limit: int) -> int:
    """How many more samples, from 1 (the rule wants one now) up to limit,
    the stopping rule takes whatever their values.

    Samples at the current mean add nothing to the sum of squared
    deviations, the least any values can add, so the count required after
    t more samples is at least the count computed with t copies of the
    mean; one sample of slack covers rounding.
    """
    mean = float(np.mean(samples)) if samples else 0.0
    t = 1
    while t < limit:
        floor = _required_hutch_samples(samples + [mean] * t, eps_hat, delta) - 1
        if len(samples) + t >= max(MIN_HUTCH_SAMPLES, floor):
            break
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
    the Krylov tolerances."""
    t0 = time.perf_counter()
    n = density.n
    if interval is None:
        interval = laplacian_interval(density)
    operator = ShiftedOperator(density.matrix, PoleSolver(density.matrix, backend=solver_backend))
    provider = KrylovEntropyProvider(
        density, ENTROPY, interval=interval, operator=operator, stop=stop
    )
    pilot_tol = 0.05 * max(np.log(max(n, 2)), 1.0)
    pilot = _quadforms(provider, 10, lambda j: gaussian_vector(seed, STREAM_PILOT, j, n), pilot_tol)
    pre = max(float(np.mean(pilot)), 1e-12)
    eps_est = eps_rel * pre / 2
    eps_kry = eps_rel * pre / 2

    def quadform_tol(kind, round_idx, block):
        if kind == "rank":
            return eps_kry * 0.5 ** (round_idx + 1) / block
        return eps_kry / 4.0

    def apply_tol(round_idx):
        return eps_kry

    if method == "adaptive-hutchpp":
        value, n_rank, n_hutch = adaptive_hutchpp(
            provider, eps_est, delta, seed,
            quadform_tol=quadform_tol, apply_tol=apply_tol,
        )
    elif method == "hutchpp":
        # one deflation round at the floor size, then the adaptive tail
        value, n_rank, n_hutch = _fixed_rank_hutchpp(
            provider, eps_est, delta, seed, quadform_tol, apply_tol
        )
    elif method == "hutchinson":
        samples = _hutchinson_tail(provider, eps_est, delta, seed, quadform_tol("hutch", 0, 1))
        value, n_rank, n_hutch = float(np.mean(samples)), 0, len(samples)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EntropyEstimate(
        value=value,
        method=method,
        eps_rel=eps_rel,
        eps_abs=eps_est,
        budget={"estimator": eps_est, "krylov": eps_kry},
        rough_pre_estimate=pre,
        n_rank=n_rank,
        n_hutch=n_hutch,
        poly_iters=provider.poly_iters,
        rational_iters=provider.rational_iters,
        factorizations=provider.factorizations,
        wall_time_s=time.perf_counter() - t0,
        seed=seed,
        **_solver_stats(operator),
    )


def _fixed_rank_hutchpp(provider, eps_hat, delta, seed, quadform_tol, apply_tol):
    n = provider.n
    y = _applies(
        provider, MIN_DEFLATION, lambda j: gaussian_vector(seed, STREAM_OMEGA, j, n), apply_tol(1)
    )
    q = _rank_revealing_orth(y)
    t_low = sum(
        _quadforms(provider, q.shape[1], lambda i: q[:, i], quadform_tol("rank", 1, MIN_DEFLATION))
    )
    samples = _hutchinson_tail(
        provider, eps_hat, delta, seed, quadform_tol("hutch", 0, 1), q, MIN_DEFLATION
    )
    return float(t_low + np.mean(samples)), MIN_DEFLATION, len(samples)
