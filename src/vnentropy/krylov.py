"""Rational Arnoldi engine for quadratic forms b^T f(A) b and for f(A) b.

The pole at infinity is kept last by a 2x2 pole swap of the Hessenberg
pencil after every finite pole, so the projected matrix A_m = H_m K_m^{-1}
and the a posteriori error bounds are available after every iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipj, ellipkm1

from .solver import PoleSolver
from .sparse import DensityMatrix, SparseSymMatrix, SpectralInterval, matvec

INF = np.inf

BREAKDOWN_TOL = 1e-14
SWAP_RESIDUAL_TOL = 1e-10
DEFAULT_MESH = 2000
RITZ_CLUSTER_TOL = 1e-14
DEFAULT_M_MAX = 150
SWITCH_WINDOW = 3          # paper's ell
SWITCH_FACTOR = 0.75       # paper's c


@dataclass(frozen=True)
class FunctionTriple:
    """Scalar function with first and second derivatives, vectorized."""

    f: callable
    df: callable
    d2f: callable


def _xlogx(x):
    """x log x with 0 log 0 = 0; undefined (NaN) for negative arguments."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x < 0, np.nan, 0.0)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


XLOGX = FunctionTriple(
    f=_xlogx,
    df=lambda x: np.log(np.maximum(x, np.finfo(float).tiny)) + 1.0,
    d2f=lambda x: 1.0 / np.maximum(x, np.finfo(float).tiny),
)

ENTROPY = FunctionTriple(
    f=lambda x: -_xlogx(x),
    df=lambda x: -(np.log(np.maximum(x, np.finfo(float).tiny)) + 1.0),
    d2f=lambda x: -1.0 / np.maximum(x, np.finfo(float).tiny),
)


@dataclass(frozen=True)
class PoleSequence:
    """Ordered poles in (-inf, 0) or at infinity; nested by construction."""

    poles: tuple
    interval: SpectralInterval | None = None
    kind: str = "mixed"

    def __post_init__(self):
        for xi in self.poles:
            if xi == 0 or (np.isfinite(xi) and xi > 0):
                raise ValueError("poles must be negative or infinite")

    def __len__(self):
        return len(self.poles)

    def __getitem__(self, j):
        return self.poles[j]


def eds_poles(interval: SpectralInterval, m: int) -> PoleSequence:
    """Nested negative poles equidistributed per the Zolotarev limit measure
    of the condenser ([a, b], (-inf, 0]).

    The condenser is mapped by a Moebius transformation onto the symmetric
    configuration ([mu, 1], [-1, -mu]); there the equilibrium measure of the
    pole plate is uniform in the elliptic coordinate u, x = -dn(u | 1-mu^2).
    A golden-ratio Weyl sequence on u yields a nested equidistributed
    sequence, pulled back to (-inf, 0).
    """
    a, b = interval.a, interval.b
    if a <= 0:
        raise ValueError("interval must be positive; desingularize first")
    kappa = b / a
    w = 2.0 * kappa - 1.0
    mu = 1.0 / (w + np.sqrt(w * w - 1.0))
    m_ell = 1.0 - mu * mu
    big_k = float(ellipkm1(mu * mu))
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    j = np.arange(1, m + 1)
    t = (j * golden) % 1.0
    _, _, dn, _ = ellipj(t * big_k, m_ell)
    # guard the m_ell -> 1 rounding at extreme b/a: keep x inside the plate
    dn = np.clip(dn, mu * (1.0 + 1e-12), 1.0)
    x = -dn
    xi = (2.0 * mu * b / (1.0 + mu)) * (1.0 + x) / (x + mu)
    # poles far below the spectrum act like the excluded xi = 0 and would
    # amplify the deflated kernel through the shifted solves; floor them
    xi = -np.clip(-xi, a / 100.0, 1e300)
    return PoleSequence(poles=tuple(xi.tolist()), interval=interval, kind="eds")


class ShiftedOperator:
    """Matrix plus shifted-solver handle consumed by the Arnoldi engine."""

    def __init__(self, matrix: SparseSymMatrix, solver: PoleSolver | None = None):
        self.matrix = matrix
        self.solver = solver if solver is not None else PoleSolver(matrix)
        self.n = matrix.n

    def matvec(self, x):
        return matvec(self.matrix, x)

    def solve_pole(self, xi, av):
        """(I - A/xi)^{-1} (A v) for xi < 0, via the SPD solve with |xi| I + A."""
        return (-xi) * self.solver.solve_spd_shift(-xi, av)


class DenseOperator:
    """Dense test double with exact solves."""

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=np.float64)
        self.n = self.a.shape[0]

    def matvec(self, x):
        return self.a @ x

    def solve_pole(self, xi, av):
        return (-xi) * np.linalg.solve(-xi * np.eye(self.n) + self.a, av)


class RationalArnoldiDecomposition:
    """State of the rational Arnoldi process: orthonormal basis V, the
    Hessenberg pencil (H_under, K_under) and the poles in decomposition
    order, with the pole at infinity last."""

    def __init__(self, operator, b):
        self.op = operator
        n = operator.n
        b = np.asarray(b, dtype=np.float64)
        self.b_norm = float(np.linalg.norm(b))
        if self.b_norm == 0:
            raise ValueError("start vector is zero")
        cap = 18
        self.V = np.zeros((n, cap + 1))
        self.H = np.zeros((cap + 1, cap))
        self.K = np.zeros((cap + 1, cap))
        self.V[:, 0] = b / self.b_norm
        self.nbasis = 1
        self.poles: list = []
        self.exhausted = False
        self.poly_matvecs = 0
        self.rational_solves = 0
        self._spectrum = None
        self._extend(INF)

    # -- storage -----------------------------------------------------------

    def _grow(self):
        cap = self.H.shape[1]
        if len(self.poles) < cap:
            return
        new_cap = 2 * cap
        V = np.zeros((self.V.shape[0], new_cap + 1))
        V[:, : self.nbasis] = self.V[:, : self.nbasis]
        H = np.zeros((new_cap + 1, new_cap))
        K = np.zeros((new_cap + 1, new_cap))
        H[: cap + 1, :cap] = self.H
        K[: cap + 1, :cap] = self.K
        self.V, self.H, self.K = V, H, K

    @property
    def eval_dim(self) -> int:
        """Dimension of the subspace whose projection is currently usable."""
        return len(self.poles) if not self.exhausted else self.nbasis

    # -- extension ---------------------------------------------------------

    def _orthogonalize(self, w):
        V = self.V[:, : self.nbasis]
        c = V.T @ w
        w = w - V @ c
        c2 = V.T @ w
        w = w - V @ c2
        c += c2
        return w, c

    def _extend(self, xi):
        if self.exhausted:
            raise RuntimeError("decomposition is exhausted (invariant subspace)")
        self._grow()
        self._spectrum = None
        m = self.nbasis
        v = self.V[:, m - 1]
        av = self.op.matvec(v)
        if xi == INF:
            w = av
            self.poly_matvecs += 1
        else:
            if not (np.isfinite(xi) and xi < 0):
                raise ValueError(f"invalid pole {xi}")
            w = self.op.solve_pole(xi, av)
            self.poly_matvecs += 1
            self.rational_solves += 1
        w, c = self._orthogonalize(w)
        beta = float(np.linalg.norm(w))
        col = len(self.poles)
        self.H[:m, col] = c
        self.H[m, col] = beta
        if xi == INF:
            self.K[m - 1, col] += 1.0
        else:
            self.K[:m, col] = c / xi
            self.K[m, col] = beta / xi
            self.K[m - 1, col] += 1.0
        self.poles.append(xi)
        scale = max(self.b_norm, float(np.linalg.norm(av)))
        if beta <= BREAKDOWN_TOL * scale:
            self.exhausted = True
            self.H[m, col] = 0.0
            self.K[m, col] = 0.0
            return False
        self.V[:, m] = w / beta
        self.nbasis += 1
        return True

    def step(self, xi) -> bool:
        """Consume one pole (infinity or negative), then swap a finite one
        ahead of the trailing infinity. Returns False on breakdown, which
        marks the decomposition exhausted (early convergence, not failure)."""
        ok = self._extend(xi)
        if ok and xi != INF and len(self.poles) >= 2:
            self.swap_last_pole_to_infinity()
        return ok

    # -- pole swapping -----------------------------------------------------

    def swap_last_pole_to_infinity(self):
        """Swap the trailing (infinity, xi) pole pair so xi comes first.

        2x2 orthogonal rotations on the bottom-right of the pencil, applied
        to the basis as well; the last row of K_under is zeroed exactly.
        """
        m = len(self.poles)
        if m < 2 or self.poles[-1] == INF:
            return
        if self.poles[-2] != INF:
            raise RuntimeError("second-to-last pole must be infinity to swap")
        H, K, V = self.H, self.K, self.V
        r0, r1 = m - 1, m          # rows of the 2x2 subpencil
        c0, c1 = m - 2, m - 1      # columns
        h2 = np.array([[H[r0, c0], H[r0, c1]], [0.0, H[r1, c1]]])
        k2 = np.array([[K[r0, c0], K[r0, c1]], [0.0, K[r1, c1]]])
        # eigenvector of the pencil for the trailing eigenvalue (h22, k22)
        h22, k22 = h2[1, 1], k2[1, 1]
        scale = max(abs(h22), abs(k22))
        h22, k22 = h22 / scale, k22 / scale
        m00 = k22 * h2[0, 0] - h22 * k2[0, 0]
        m01 = k22 * h2[0, 1] - h22 * k2[0, 1]
        x = np.array([-m01, m00])
        nx = np.linalg.norm(x)
        if nx == 0:
            return
        x /= nx
        gw = np.array([[x[0], -x[1]], [x[1], x[0]]])
        y = h2 @ x
        ny = np.linalg.norm(y)
        if ny == 0:
            y = k2 @ x
            ny = np.linalg.norm(y)
        y /= ny
        gu = np.array([[y[0], -y[1]], [y[1], y[0]]])
        H[: m + 1, [c0, c1]] = H[: m + 1, [c0, c1]] @ gw
        K[: m + 1, [c0, c1]] = K[: m + 1, [c0, c1]] @ gw
        H[[r0, r1], : m] = gu.T @ H[[r0, r1], : m]
        K[[r0, r1], : m] = gu.T @ K[[r0, r1], : m]
        if self.nbasis > m:
            V[:, [r0, r1]] = V[:, [r0, r1]] @ gu
        norm_k = np.abs(K[: m + 1, :m]).max()
        if max(abs(K[r1, c1]), abs(K[r1, c0]), abs(H[r1, c0])) > SWAP_RESIDUAL_TOL * max(
            norm_k, np.abs(self.H[: m + 1, :m]).max()
        ):
            raise RuntimeError("pole swap failed to restore the pencil structure")
        K[r1, c1] = 0.0
        K[r1, c0] = 0.0
        H[r1, c0] = 0.0
        self.poles[-1], self.poles[-2] = self.poles[-2], self.poles[-1]
        self._spectrum = None

    # -- projections -------------------------------------------------------

    def projected(self):
        """(A_m, last_row, m): the projected matrix H_m K_m^{-1}, plus the
        residual coupling row h_{m+1}^T used by the a posteriori bounds."""
        m = self.eval_dim
        if not self.exhausted and self.poles[-1] != INF:
            raise RuntimeError("last pole must be infinity (swap first)")
        hm = self.H[:m, :m]
        km = self.K[:m, :m]
        last = self.H[m, :m] if self.H.shape[0] > m else np.zeros(m)
        a_m = np.linalg.solve(km.T, hm.T).T
        return a_m, last, m

    def spectrum(self):
        """Eigen-data of the symmetrized projection: (theta, alpha, beta, m).

        alpha = h_{m+1}^T K_m^{-1} U, beta = U^T e_1 in the notation of the
        error kernel g_m. Computed once per iteration (read-only arrays).
        """
        if self._spectrum is not None:
            return self._spectrum
        a_m, last, m = self.projected()
        theta, u = np.linalg.eigh(0.5 * (a_m + a_m.T))
        alpha = np.linalg.solve(self.K[:m, :m].T, last) @ u
        beta = u[0, :].copy()
        for arr in (theta, alpha, beta):
            arr.flags.writeable = False
        self._spectrum = (theta, alpha, beta, m)
        return self._spectrum


def quadform_value(decomp: RationalArnoldiDecomposition, fun: FunctionTriple) -> float:
    """psi_m = ||b||^2 e_1^T f(A_m) e_1 via the symmetrized eigendecomposition.

    Ritz values in [-1e-12 b_scale, 0) are clamped to zero (f(0) = 0 for the
    entropy integrand); values below that are an error for f undefined there.
    """
    theta, _, beta, _ = decomp.spectrum()
    theta = _clamp_ritz(theta)
    fv = np.asarray(fun.f(theta), dtype=np.float64)
    if not np.all(np.isfinite(fv)):
        raise ValueError(f"f undefined at Ritz value(s) {theta[~np.isfinite(fv)]}")
    return float(decomp.b_norm**2 * (fv * beta**2).sum())


def funvec_value(decomp: RationalArnoldiDecomposition, fun: FunctionTriple) -> np.ndarray:
    """f(A) b ~ ||b|| V_m f(A_m) e_1."""
    a_m, _, m = decomp.projected()
    theta, u = np.linalg.eigh(0.5 * (a_m + a_m.T))
    theta = _clamp_ritz(theta)
    fv = np.asarray(fun.f(theta), dtype=np.float64)
    if not np.all(np.isfinite(fv)):
        raise ValueError(f"f undefined at Ritz value(s) {theta[~np.isfinite(fv)]}")
    coeffs = u @ (fv * u[0, :])
    return decomp.b_norm * (decomp.V[:, :m] @ coeffs)


def _clamp_ritz(theta):
    scale = np.abs(theta).max() if theta.size else 0.0
    tol = 1e-12 * max(scale, 1e-300)
    return np.where((theta < 0) & (theta >= -tol), 0.0, theta)


@functools.lru_cache(maxsize=8)
def _base_mesh(a: float, b: float, grid: int, fun: FunctionTriple):
    """Read-only geometric mesh of [a, b] (0 plus a geometric tail when
    a = 0) and f on it, built once per (interval, grid, function)."""
    if a > 0:
        mesh = np.geomspace(a, b, grid)
    else:
        lo = max(b * 1e-16, np.finfo(float).tiny)
        mesh = np.concatenate([[0.0], np.geomspace(lo, b, grid - 1)])
    fz = np.asarray(fun.f(mesh), dtype=np.float64)
    mesh.flags.writeable = False
    fz.flags.writeable = False
    return mesh, fz


def _bound_mesh(interval: SpectralInterval, theta, grid: int, fun: FunctionTriple):
    """(z, f(z)): the cached base mesh plus the Ritz values inside [a, b].

    Only min/max over the mesh are taken, so order and duplicates are moot.
    """
    a, b = interval.a, interval.b
    mesh, fz = _base_mesh(a, b, grid, fun)
    inside = theta[(theta >= a) & (theta <= b)]
    f_inside = np.asarray(fun.f(inside), dtype=np.float64)
    return np.concatenate([mesh, inside]), np.concatenate([fz, f_inside])


def _divided_differences(z, fz, theta, fth, b_scale: float):
    """(m, N) arrays dz = z - theta_j (1 where near) and the divided
    differences (f(z) - f(theta_j)) / dz, plus the mask of points within
    1e-8 b of a Ritz value, where the caller substitutes the limit."""
    dz = np.subtract(z[None, :], theta[:, None])
    near = np.abs(dz) <= 1e-8 * max(b_scale, 1e-300)
    if not near.any():
        near = None
    else:
        dz[near] = 1.0
    ratio = np.subtract(fz[None, :], fth[:, None])
    ratio /= dz
    return dz, ratio, near


def _pairwise_sum(t):
    """Column sums of the (m, N) array t, added in the order numpy's
    pairwise summation adds a contiguous row of m (eight interleaved partial
    sums from m = 8, halves above 128), so the sums match an (N, m) row sum
    bitwise while each step is one vector operation over N."""
    m = t.shape[0]
    if m < 8:
        return t.sum(axis=0)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise_sum(t[:half]) + _pairwise_sum(t[half:])
    body = m - m % 8
    r = t[:8].copy()
    for i in range(8, body, 8):
        r += t[i : i + 8]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(body, m):
        res += t[i]
    return res


def gm_kernel(z, fz, theta, alpha, beta, fun: FunctionTriple, b_scale: float, gammas=None):
    """Evaluate g_m on the points z, given fz = f(z) (second-order
    quadratic-form kernel)."""
    theta = np.maximum(theta, np.finfo(float).tiny)
    fth = np.asarray(fun.f(theta), dtype=np.float64)
    dfth = np.asarray(fun.df(theta), dtype=np.float64)
    d2fth = np.asarray(fun.d2f(theta), dtype=np.float64)
    ab = alpha * beta
    if gammas is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = theta[:, None] - theta[None, :]
            inv = np.where(np.eye(theta.size, dtype=bool), 0.0, 1.0 / diff)
        gammas = (ab[None, :] * inv).sum(axis=1)
    dz, ratio1, near = _divided_differences(z, fz, theta, fth, b_scale)
    term = np.subtract(ratio1, dfth[:, None])
    term /= dz
    term *= (ab**2)[:, None]
    ratio1 *= (2.0 * (ab * gammas))[:, None]
    term += ratio1
    if near is not None:
        limit = 0.5 * ab**2 * d2fth + 2.0 * alpha * beta * gammas * dfth
        np.copyto(term, limit[:, None], where=near)
    return _pairwise_sum(term)


def aposteriori_bounds(
    decomp: RationalArnoldiDecomposition,
    fun: FunctionTriple,
    interval: SpectralInterval,
    grid: int = DEFAULT_MESH,
):
    """Lower/upper bounds ||b||^2 (min, max) |g_m| over the spectral interval.

    Clustered Ritz values (gap <= 1e-14 b) make the gamma coupling terms
    ill-defined; they are then dropped and the lower bound degrades to 0.
    """
    theta, alpha, beta, _ = decomp.spectrum()
    degraded = False
    if theta.size > 1 and np.diff(np.sort(theta)).min() <= RITZ_CLUSTER_TOL * interval.b:
        degraded = True
        gammas = np.zeros_like(theta)
    else:
        gammas = None
    mesh, fz = _bound_mesh(interval, theta, grid, fun)
    g = gm_kernel(mesh, fz, theta, alpha, beta, fun, interval.b, gammas=gammas)
    absg = np.abs(g)
    lower = 0.0 if degraded else float(decomp.b_norm**2 * absg.min())
    upper = float(decomp.b_norm**2 * absg.max())
    return lower, upper


def funvec_aposteriori(
    decomp: RationalArnoldiDecomposition,
    fun: FunctionTriple,
    interval: SpectralInterval,
    grid: int = DEFAULT_MESH,
):
    """First-order bounds ||b|| (min, max) |h_m| for the f(A) b error, with
    h_m(z) = sum_j alpha_j beta_j (f(z) - f(theta_j)) / (z - theta_j)."""
    theta, alpha, beta, _ = decomp.spectrum()
    theta_safe = np.maximum(theta, np.finfo(float).tiny)
    mesh, fz = _bound_mesh(interval, theta, grid, fun)
    fth = np.asarray(fun.f(theta_safe), dtype=np.float64)
    _, ratio, near = _divided_differences(mesh, fz, theta_safe, fth, interval.b)
    if near is not None:
        dfth = np.asarray(fun.df(theta_safe), dtype=np.float64)
        np.copyto(ratio, dfth[:, None], where=near)
    ratio *= (alpha * beta)[:, None]
    h = _pairwise_sum(ratio)
    absh = np.abs(h)
    return float(decomp.b_norm * absh.min()), float(decomp.b_norm * absh.max())


def gm_estimate(lower: float, upper: float) -> float:
    """Geometric mean sqrt(lower * upper); lies in [lower, upper]."""
    if lower < 0 or upper < 0:
        raise ValueError("bounds must be nonnegative")
    return float(np.sqrt(lower * upper))


@dataclass
class QuadformResult:
    """Outcome of an adaptive quadratic-form (or f(A)b) computation."""

    value: float
    poly_iters: int
    rational_iters: int
    bound_lower: float
    bound_upper: float
    estimate: float
    converged: bool
    tol: float
    dim: int = 0
    switched_at: int = -1
    trace: list = field(default_factory=list)
    vector: np.ndarray | None = None


def _run_adaptive(
    operator,
    b,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tol_abs: float,
    pole_source: PoleSequence | None,
    stop: str,
    m_max: int,
    want_vector: bool,
    keep_trace: bool,
    grid: int,
):
    if tol_abs <= 0:
        raise ValueError("tol_abs must be positive")
    if stop not in ("bound", "estimate"):
        raise ValueError(f"unknown stop criterion {stop!r}")
    decomp = RationalArnoldiDecomposition(operator, b)
    bound_fn = funvec_aposteriori if want_vector else aposteriori_bounds
    history = []
    switched_at = -1
    rational_index = 0
    trace = []
    lower = upper = est = np.nan
    while True:
        lower, upper = bound_fn(decomp, fun, interval, grid=grid)
        est = gm_estimate(lower, upper)
        stat = upper if stop == "bound" else est
        history.append(stat)
        m = decomp.eval_dim
        if keep_trace:
            pole = decomp.poles[-1] if decomp.poles else INF
            trace.append((m, pole, lower, upper, est, quadform_value(decomp, fun)))
        if decomp.exhausted:
            converged = True
            break
        if m >= 2 and stat <= tol_abs:
            converged = True
            break
        if m >= m_max:
            converged = False
            break
        in_poly = switched_at < 0
        if (
            in_poly
            and pole_source is not None
            and len(history) >= SWITCH_WINDOW + 2
            and history[-1] >= SWITCH_FACTOR**SWITCH_WINDOW * history[-SWITCH_WINDOW - 2]
        ):
            switched_at = m
        if switched_at < 0 or pole_source is None:
            next_pole = INF
        else:
            if rational_index >= len(pole_source):
                next_pole = pole_source[rational_index % len(pole_source)]
            else:
                next_pole = pole_source[rational_index]
            rational_index += 1
        decomp.step(next_pole)
    result = QuadformResult(
        value=quadform_value(decomp, fun),
        poly_iters=decomp.poly_matvecs - decomp.rational_solves,
        rational_iters=decomp.rational_solves,
        bound_lower=lower,
        bound_upper=upper,
        estimate=est,
        converged=converged,
        tol=tol_abs,
        dim=decomp.eval_dim,
        switched_at=switched_at,
        trace=trace,
    )
    if want_vector:
        result.vector = funvec_value(decomp, fun)
    return result


def trace_to_csv(result: QuadformResult) -> str:
    """Per-iteration diagnostic trace as CSV: m, pole, lower, upper,
    estimate, value (collected when the run was made with keep_trace)."""
    lines = ["m,pole,lower,upper,estimate,value"]
    for m, pole, lower, upper, est, value in result.trace:
        pole_txt = "inf" if pole == INF else f"{pole:.17g}"
        lines.append(f"{m},{pole_txt},{lower:.17g},{upper:.17g},{est:.17g},{value:.17g}")
    return "\n".join(lines) + "\n"


def adaptive_quadform(
    operator,
    b,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tol_abs: float,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    keep_trace: bool = False,
    grid: int = DEFAULT_MESH,
) -> QuadformResult:
    """b^T f(A) b with polynomial iterations switching to the pole source
    when the error reduction stalls (est_k / est_{k-4} >= 0.75^3), stopping
    when the chosen statistic (upper bound or geometric-mean estimate) falls
    below tol_abs."""
    return _run_adaptive(
        operator, b, fun, interval, tol_abs, pole_source, stop, m_max,
        want_vector=False, keep_trace=keep_trace, grid=grid,
    )


def adaptive_funvec(
    operator,
    b,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tol_abs: float,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    grid: int = DEFAULT_MESH,
) -> QuadformResult:
    """f(A) b to absolute 2-norm tolerance tol_abs, same pole management."""
    return _run_adaptive(
        operator, b, fun, interval, tol_abs, pole_source, stop, m_max,
        want_vector=True, keep_trace=False, grid=grid,
    )


def desingularized_quadform(
    density: DensityMatrix,
    b,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tol_abs: float,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    operator: ShiftedOperator | None = None,
    grid: int = DEFAULT_MESH,
) -> QuadformResult:
    """b^T f(rho) b for a graph-Laplacian density matrix via implicit
    desingularization: the start vector c = b - (1^T b / n) 1 is orthogonal
    to the kernel, so convergence is governed by [lambda_2, lambda_n];
    the result is recovered through f(rho) 1 = f(0) 1."""
    b = np.asarray(b, dtype=np.float64)
    n = density.n
    mean = b.sum() / n
    c = b - mean
    op = operator if operator is not None else ShiftedOperator(density.matrix)
    f0 = float(np.asarray(fun.f(np.array([0.0])))[0])
    correction = f0 * b.sum() ** 2 / n
    if np.linalg.norm(c) <= 1e-14 * np.linalg.norm(b):
        return QuadformResult(
            value=f0 * float(b @ b),
            poly_iters=0,
            rational_iters=0,
            bound_lower=0.0,
            bound_upper=0.0,
            estimate=0.0,
            converged=True,
            tol=tol_abs,
        )
    result = _run_adaptive(
        op, c, fun, interval, tol_abs, pole_source, stop, m_max,
        want_vector=False, keep_trace=False, grid=grid,
    )
    result.value += correction
    return result
