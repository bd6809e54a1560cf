"""Rational Arnoldi engine for quadratic forms b^T f(A) b and for f(A) b.

The pole at infinity is kept last by a 2x2 pole swap of the Hessenberg
pencil after every finite pole, so the projected matrix A_m = H_m K_m^{-1}
and the a posteriori error bounds are available after every iteration.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipj, ellipkm1

from .solver import PoleSolver
from .sparse import DensityMatrix, SparseSymMatrix, SpectralInterval, matvec

INF = np.inf
TINY = np.finfo(float).tiny

BREAKDOWN_TOL = 1e-14
SWAP_RESIDUAL_TOL = 1e-10
DEFAULT_MESH = 2000
RITZ_CLUSTER_TOL = 1e-14
DEFAULT_M_MAX = 150
SWITCH_WINDOW = 3          # paper's ell
SWITCH_FACTOR = 0.75       # paper's c
BASIS_CAP = 18             # basis columns allocated up front; doubled as needed
# One byte budget for a lockstep group: the start bases of its vectors,
# n x (BASIS_CAP + 1) floats each, fit in it, and so do the three bound
# temporaries of a row block, TEMP_BYTES each.
GROUP_BYTES = 640 * 1024
TEMP_BYTES = GROUP_BYTES // 3


@dataclass(frozen=True)
class FunctionTriple:
    """Scalar function with first and second derivatives, vectorized."""

    f: callable
    df: callable
    d2f: callable


def _xlogx(x):
    """x log x with 0 log 0 = 0; undefined (NaN) for negative arguments."""
    x = np.asarray(x, dtype=np.float64)
    if x.size and x.min() > 0:
        return x * np.log(x)
    out = np.where(x < 0, np.nan, 0.0)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


XLOGX = FunctionTriple(
    f=_xlogx,
    df=lambda x: np.log(np.maximum(x, TINY)) + 1.0,
    d2f=lambda x: 1.0 / np.maximum(x, TINY),
)

ENTROPY = FunctionTriple(
    f=lambda x: -_xlogx(x),
    df=lambda x: -(np.log(np.maximum(x, TINY)) + 1.0),
    d2f=lambda x: -1.0 / np.maximum(x, TINY),
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
    if b <= a:
        raise ValueError(f"interval [{a}, {b}] is empty or reversed")
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
        cap = BASIS_CAP
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
        if self._spectrum is None:
            group_spectrum([self])
        return self._spectrum


def group_spectrum(decomps):
    """Fill the spectrum() cache of decompositions that share eval_dim m.

    One stacked eigh covers the (k, m, m) symmetrized projections, and one
    stacked solve with K_m^T the members that consumed a finite pole. Before
    the first finite pole K_m = I_m exactly, so A_m = H_m and
    alpha = h_{m+1}^T U need no solve. Stacked LAPACK calls give every member
    the bits of a call on it alone.
    """
    todo = [d for d in decomps if d._spectrum is None]
    if not todo:
        return
    m = todo[0].eval_dim
    for d in todo:
        if d.eval_dim != m:
            raise ValueError("decompositions in a group must share eval_dim")
        if not d.exhausted and d.poles[-1] != INF:
            raise RuntimeError("last pole must be infinity (swap first)")
    a_m = np.array([d.H[:m, :m] for d in todo])
    last = np.array([d.H[m, :m] for d in todo])
    rational = [i for i, d in enumerate(todo) if d.rational_solves]
    if rational:
        k_t = np.array([todo[i].K[:m, :m].T for i in rational])
        a_m[rational] = np.linalg.solve(k_t, a_m[rational].transpose(0, 2, 1)).transpose(0, 2, 1)
        last[rational] = np.linalg.solve(k_t, last[rational][:, :, None])[:, :, 0]
    theta, u = np.linalg.eigh(0.5 * (a_m + a_m.transpose(0, 2, 1)))
    alpha = np.matmul(last[:, None, :], u)[:, 0, :]
    beta = u[:, 0, :]
    for arr in (theta, alpha, beta):
        arr.flags.writeable = False
    for i, d in enumerate(todo):
        d._spectrum = (theta[i], alpha[i], beta[i], m)


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
    """(z, f(z)) as (k, N + m) arrays: the cached sorted base mesh of N
    points, then each row's m Ritz values. A Ritz value outside [a, b] is
    replaced by a, which is the first mesh point already, so the min/max
    over a row do not change."""
    a, b = interval.a, interval.b
    mesh, f_mesh = _base_mesh(a, b, grid, fun)
    k, m = theta.shape
    z = np.empty((k, mesh.size + m))
    fz = np.empty((k, mesh.size + m))
    z[:, : mesh.size] = mesh
    fz[:, : mesh.size] = f_mesh
    z[:, mesh.size :] = theta
    outside = ~((theta >= a) & (theta <= b))
    any_outside = outside.any()
    if any_outside:
        z[:, mesh.size :][outside] = a
    fz[:, mesh.size :] = fun.f(z[:, mesh.size :])
    if any_outside:
        fz[:, mesh.size :][outside] = f_mesh[0]
    return z, fz


_WINDOW = np.array([-2.0, 2.0])[:, None, None]


def _near_points(z, theta, tol: float):
    """Indices (j, i, p) of the points z[i, p] with |z[i, p] - theta[j, i]|
    <= tol, for z from _bound_mesh and theta (m, k). The sorted base mesh
    is searched around each theta, the m Ritz columns are compared whole."""
    m = theta.shape[0]
    n_mesh = z.shape[1] - m
    j, i, p = np.nonzero(np.abs(z[None, :, n_mesh:] - theta[:, :, None]) <= tol)
    p += n_mesh
    mesh = z[0, :n_mesh]
    lo, hi = np.searchsorted(mesh, theta + _WINDOW * tol)
    hits = hi > lo
    for jj, ii in zip(*np.nonzero(hits)) if hits.any() else ():
        cand = np.arange(lo[jj, ii], hi[jj, ii])
        cand = cand[np.abs(mesh[cand] - theta[jj, ii]) <= tol]
        j, i, p = (np.concatenate([j, np.full(cand.size, jj)]),
                   np.concatenate([i, np.full(cand.size, ii)]),
                   np.concatenate([p, cand]))
    return j, i, p


def _work(scratch, shape, count: int):
    """``count`` float work arrays of the given shape, cut from one buffer
    in the ``scratch`` dict of an adaptive run, or allocated when scratch
    is None.

    Fresh (m, rows, N) temporaries above malloc's mmap threshold would be
    mapped and page-faulted in on every bound evaluation; a run's buffer
    grows (at least doubling) to the largest request and is reused by each
    of its evaluations.
    """
    size = math.prod(shape)
    if scratch is None:
        return np.empty((count,) + shape)
    buf = scratch.get("work")
    if buf is None or buf.size < count * size:
        buf = scratch["work"] = np.empty(count * size if buf is None else max(count * size, 2 * buf.size))
    return buf[: count * size].reshape((count,) + shape)


def _divided_differences(z, fz, theta, fth, near, dz, ratio):
    """Fill dz = z - theta_j, 1 at the near points (where the caller
    substitutes the limit), and the divided differences
    ratio = (f(z) - f(theta_j)) / dz, both (m, rows, N). theta and fth are
    (m, rows), z and fz are (rows, N)."""
    np.subtract(z[None, :, :], theta[:, :, None], out=dz)
    dz[near] = 1.0
    np.subtract(fz[None, :, :], fth[:, :, None], out=ratio)
    ratio /= dz


def _pairwise_sum(t):
    """Sums over the first axis of t, added in the order numpy's pairwise
    summation adds a contiguous row of m (eight interleaved partial sums
    from m = 8, halves above 128), so the sums match a row sum bitwise while
    each step is one vector operation over the remaining axes. The first
    eight rows of t serve as the partial sums and are overwritten."""
    m = t.shape[0]
    if m < 8:
        return t.sum(axis=0)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise_sum(t[:half]) + _pairwise_sum(t[half:])
    body = m - m % 8
    r = t[:8]
    for i in range(8, body, 8):
        r += t[i : i + 8]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(body, m):
        res += t[i]
    return res


@contextlib.contextmanager
def _row_buffer(width: int):
    """numpy's ufunc buffer cut to at most ``width`` elements, the length of
    a bound mesh row.

    With the default 8192 elements, numpy's iterator copies an operand that
    broadcasts one value per row into its buffer whenever rows are shorter
    than the buffer, which makes the bound kernels' per-row operations
    about three times slower. Elementwise results and the reductions the
    adaptive loop makes do not depend on the buffer size.
    """
    old = np.setbufsize(max(16, min(8192, width - width % 16)))
    try:
        yield
    finally:
        np.setbufsize(old)


def _spectra(decomps):
    """Stacked (theta, alpha, beta), each (k, m), of decompositions sharing m."""
    spectra = [d.spectrum() for d in decomps]
    if len(spectra) == 1:
        return tuple(s[None] for s in spectra[0][:3])
    return tuple(np.array([s[i] for s in spectra]) for i in range(3))


def _row_blocks(near, k: int, m: int, width: int):
    """(rows, near) pairs: row slices of k spectra whose (m, rows, width)
    temporaries fit in TEMP_BYTES, at least one row each, with the near
    points of _near_points that fall in them, rows renumbered."""
    step = max(1, TEMP_BYTES // (8 * m * width))
    if step >= k:
        return [(slice(0, k), near)]
    j, i, p = near
    blocks = []
    for lo in range(0, k, step):
        sel = (i >= lo) & (i < lo + step)
        blocks.append((slice(lo, min(lo + step, k)), (j[sel], i[sel] - lo, p[sel])))
    return blocks


def gm_kernel(z, fz, theta, alpha, beta, fun: FunctionTriple, b_scale: float, degraded=None, scratch=None):
    """Evaluate g_m (second-order quadratic-form kernel) for k spectra at
    once: theta, alpha, beta are (k, m), z and fz = f(z) are (k, N) from
    _bound_mesh, and the result is (k, N). Rows flagged in ``degraded`` drop
    the gamma coupling terms; ``scratch`` is as in aposteriori_bounds. Each
    row is bitwise the kernel of its spectrum alone."""
    theta = np.maximum(theta, TINY)
    fth = np.asarray(fun.f(theta), dtype=np.float64).T
    dfth = np.asarray(fun.df(theta), dtype=np.float64).T
    d2fth = np.asarray(fun.d2f(theta), dtype=np.float64).T
    k, m = theta.shape
    ab = alpha * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / (theta[:, :, None] - theta[:, None, :])
    inv.reshape(k, m * m)[:, :: m + 1] = 0.0
    gammas = (ab[:, None, :] * inv).sum(axis=2)
    if degraded is not None:
        gammas[degraded] = 0.0
    theta, alpha, beta, ab, gammas = theta.T, alpha.T, beta.T, ab.T, gammas.T
    ab2 = ab**2
    coupling = 2.0 * (ab * gammas)
    limit = 0.5 * ab2 * d2fth + 2.0 * alpha * beta * gammas * dfth
    near = _near_points(z, theta, 1e-8 * max(b_scale, 1e-300))
    g = np.empty(z.shape)
    for r, near_r in _row_blocks(near, k, m, z.shape[1]):
        dz, ratio, term = _work(scratch, (m, r.stop - r.start, z.shape[1]), 3)
        _divided_differences(z[r], fz[r], theta[:, r], fth[:, r], near_r, dz, ratio)
        np.subtract(ratio, dfth[:, r, None], out=term)
        term /= dz
        term *= ab2[:, r, None]
        ratio *= coupling[:, r, None]
        term += ratio
        term[near_r] = limit[:, r][near_r[:2]]
        g[r] = _pairwise_sum(term)
    return g


def _as_group(decomps):
    """(list of decompositions, whether a single one was given)."""
    if isinstance(decomps, (list, tuple)):
        return list(decomps), False
    return [decomps], True


def aposteriori_bounds(
    decomps, fun: FunctionTriple, interval: SpectralInterval, grid: int = DEFAULT_MESH, scratch=None
):
    """Lower/upper bounds ||b||^2 (min, max) |g_m| over the spectral interval.

    Takes one decomposition and returns floats, or a list of decompositions
    sharing m and returns arrays. Clustered Ritz values (gap <= 1e-14 b)
    make the gamma coupling terms ill-defined; they are then dropped for
    that decomposition and its lower bound degrades to 0. ``scratch`` is a
    dict whose work arrays successive calls reuse, or None.
    """
    decomps, single = _as_group(decomps)
    theta, alpha, beta = _spectra(decomps)
    gaps = np.diff(np.sort(theta, axis=1), axis=1)
    degraded = gaps.min(axis=1, initial=np.inf) <= RITZ_CLUSTER_TOL * interval.b
    z, fz = _bound_mesh(interval, theta, grid, fun)
    absg = np.abs(gm_kernel(z, fz, theta, alpha, beta, fun, interval.b, degraded, scratch))
    scale = np.array([d.b_norm**2 for d in decomps])
    lower = np.where(degraded, 0.0, scale * absg.min(axis=1))
    upper = scale * absg.max(axis=1)
    return (float(lower[0]), float(upper[0])) if single else (lower, upper)


def funvec_aposteriori(
    decomps, fun: FunctionTriple, interval: SpectralInterval, grid: int = DEFAULT_MESH, scratch=None
):
    """First-order bounds ||b|| (min, max) |h_m| for the f(A) b error, with
    h_m(z) = sum_j alpha_j beta_j (f(z) - f(theta_j)) / (z - theta_j).
    One decomposition gives floats, a list sharing m gives arrays; scratch
    is as in aposteriori_bounds."""
    decomps, single = _as_group(decomps)
    theta, alpha, beta = _spectra(decomps)
    k, m = theta.shape
    z, fz = _bound_mesh(interval, theta, grid, fun)
    theta = np.maximum(theta, TINY)
    fth = np.asarray(fun.f(theta), dtype=np.float64).T
    dfth = np.asarray(fun.df(theta), dtype=np.float64).T
    ab = (alpha * beta).T
    theta = theta.T
    near = _near_points(z, theta, 1e-8 * max(interval.b, 1e-300))
    h = np.empty(z.shape)
    for r, near_r in _row_blocks(near, k, m, z.shape[1]):
        dz, ratio = _work(scratch, (m, r.stop - r.start, z.shape[1]), 2)
        _divided_differences(z[r], fz[r], theta[:, r], fth[:, r], near_r, dz, ratio)
        ratio[near_r] = dfth[:, r][near_r[:2]]
        ratio *= ab[:, r, None]
        h[r] = _pairwise_sum(ratio)
    absh = np.abs(h)
    b_norm = np.array([d.b_norm for d in decomps])
    lower, upper = b_norm * absh.min(axis=1), b_norm * absh.max(axis=1)
    return (float(lower[0]), float(upper[0])) if single else (lower, upper)


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


def group_size(n: int) -> int:
    """Start vectors advanced in lockstep: as many n x (BASIS_CAP + 1)
    start bases as fit in GROUP_BYTES, at least one."""
    return max(1, GROUP_BYTES // (8 * n * (BASIS_CAP + 1)))


def _columns(b):
    """(contiguous start vectors, whether b was a single vector) of a vector
    or an (n, k) block."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        return [b], True
    return [np.ascontiguousarray(b[:, j]) for j in range(b.shape[1])], False


def _tolerances(tol_abs, k: int) -> list:
    """One float tolerance per start vector from a scalar or a sequence."""
    return [float(t) for t in np.broadcast_to(np.asarray(tol_abs, dtype=np.float64), (k,))]


class _Run:
    """One start vector's state in the adaptive loop."""

    def __init__(self, operator, b, tol: float):
        self.decomp = RationalArnoldiDecomposition(operator, b)
        self.tol = tol
        self.history: list = []
        self.switched_at = -1
        self.rational_index = 0
        self.trace: list = []
        self.result = None

    def finish(self, fun, converged, lower, upper, est, want_vector):
        d = self.decomp
        self.result = QuadformResult(
            value=quadform_value(d, fun),
            poly_iters=d.poly_matvecs - d.rational_solves,
            rational_iters=d.rational_solves,
            bound_lower=lower,
            bound_upper=upper,
            estimate=est,
            converged=converged,
            tol=self.tol,
            dim=d.eval_dim,
            switched_at=self.switched_at,
            trace=self.trace,
        )
        if want_vector:
            self.result.vector = funvec_value(d, fun)
        self.decomp = None


def _run_adaptive(
    operator,
    vectors: list,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tols: list,
    pole_source: PoleSequence | None,
    stop: str,
    m_max: int,
    want_vector: bool,
    keep_trace: bool,
    grid: int,
) -> list:
    """The adaptive loop, one QuadformResult per start vector.

    Vectors run in lockstep groups of at most group_size(n): every member
    takes its own steps, but the group shares m, so one stacked spectrum and
    one stacked bound evaluation serve all members per iteration. A member
    leaves the group when it stops, and each member's decisions and result
    are bitwise those of a run on its own.
    """
    if min(tols, default=1.0) <= 0:
        raise ValueError("tol_abs must be positive")
    if stop not in ("bound", "estimate"):
        raise ValueError(f"unknown stop criterion {stop!r}")
    bound_fn = funvec_aposteriori if want_vector else aposteriori_bounds
    width = group_size(operator.n)
    scratch: dict = {}
    runs = []
    with _row_buffer(grid):
        for lo in range(0, len(vectors), width):
            live = [_Run(operator, b, tol) for b, tol in zip(vectors[lo : lo + width], tols[lo : lo + width])]
            runs += live
            while live:
                decomps = [r.decomp for r in live]
                group_spectrum(decomps)
                lowers, uppers = bound_fn(decomps, fun, interval, grid=grid, scratch=scratch)
                m = decomps[0].eval_dim
                stepping = []
                for r, lower, upper in zip(live, lowers.tolist(), uppers.tolist()):
                    d = r.decomp
                    est = gm_estimate(lower, upper)
                    stat = upper if stop == "bound" else est
                    r.history.append(stat)
                    if keep_trace:
                        r.trace.append((m, d.poles[-1], lower, upper, est, quadform_value(d, fun)))
                    converged = d.exhausted or (m >= 2 and stat <= r.tol)
                    if converged or m >= m_max:
                        r.finish(fun, converged, lower, upper, est, want_vector)
                        continue
                    h = r.history
                    if (
                        r.switched_at < 0
                        and pole_source is not None
                        and len(h) >= SWITCH_WINDOW + 2
                        and h[-1] >= SWITCH_FACTOR**SWITCH_WINDOW * h[-SWITCH_WINDOW - 2]
                    ):
                        r.switched_at = m
                    if r.switched_at < 0 or pole_source is None:
                        next_pole = INF
                    else:
                        next_pole = pole_source[r.rational_index % len(pole_source)]
                        r.rational_index += 1
                    d.step(next_pole)
                    stepping.append(r)
                live = stepping
    return [r.result for r in runs]


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
    tol_abs,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    keep_trace: bool = False,
    grid: int = DEFAULT_MESH,
):
    """b^T f(A) b with polynomial iterations switching to the pole source
    when the error reduction stalls (est_k / est_{k-4} >= 0.75^3), stopping
    when the chosen statistic (upper bound or geometric-mean estimate) falls
    below tol_abs.

    b may be an (n, k) block, with tol_abs a scalar or one per column: the
    k forms then run in lockstep and a list of k results is returned.
    """
    vectors, single = _columns(b)
    results = _run_adaptive(
        operator, vectors, fun, interval, _tolerances(tol_abs, len(vectors)), pole_source,
        stop, m_max, want_vector=False, keep_trace=keep_trace, grid=grid,
    )
    return results[0] if single else results


def adaptive_funvec(
    operator,
    b,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tol_abs,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    grid: int = DEFAULT_MESH,
):
    """f(A) b to absolute 2-norm tolerance tol_abs, same pole management;
    an (n, k) block gives a list of k results."""
    vectors, single = _columns(b)
    results = _run_adaptive(
        operator, vectors, fun, interval, _tolerances(tol_abs, len(vectors)), pole_source,
        stop, m_max, want_vector=True, keep_trace=False, grid=grid,
    )
    return results[0] if single else results


def desingularized_quadform(
    density: DensityMatrix,
    b,
    fun: FunctionTriple,
    interval: SpectralInterval,
    tol_abs,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    operator: ShiftedOperator | None = None,
    grid: int = DEFAULT_MESH,
):
    """b^T f(rho) b for a graph-Laplacian density matrix via implicit
    desingularization: the start vector c = b - (1^T b / n) 1 is orthogonal
    to the kernel, so convergence is governed by [lambda_2, lambda_n];
    the result is recovered through f(rho) 1 = f(0) 1. An (n, k) block
    gives a list of k results, as in adaptive_quadform."""
    vectors, single = _columns(b)
    tols = _tolerances(tol_abs, len(vectors))
    n = density.n
    op = operator if operator is not None else ShiftedOperator(density.matrix)
    f0 = float(np.asarray(fun.f(np.array([0.0])))[0])
    results = [None] * len(vectors)
    todo = []
    for j, bj in enumerate(vectors):
        c = bj - bj.sum() / n
        if np.linalg.norm(c) <= 1e-14 * np.linalg.norm(bj):
            results[j] = QuadformResult(
                value=f0 * float(bj @ bj),
                poly_iters=0,
                rational_iters=0,
                bound_lower=0.0,
                bound_upper=0.0,
                estimate=0.0,
                converged=True,
                tol=tols[j],
            )
        else:
            todo.append((j, c))
    runs = _run_adaptive(
        op, [c for _, c in todo], fun, interval, [tols[j] for j, _ in todo], pole_source,
        stop, m_max, want_vector=False, keep_trace=False, grid=grid,
    )
    for (j, _), res in zip(todo, runs):
        res.value += f0 * vectors[j].sum() ** 2 / n
        results[j] = res
    return results[0] if single else results
