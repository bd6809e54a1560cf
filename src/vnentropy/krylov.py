"""Rational Arnoldi engine for quadratic forms b^T f(A) b and for f(A) b.

The pole at infinity is kept last by a 2x2 pole swap of the Hessenberg
pencil after every finite pole, so the projected matrix A_m = H_m K_m^{-1}
and the a posteriori error bounds are available after every iteration.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .solver import PoleSolver
from .sparse import SparseSymMatrix, SpectralInterval, matvec

INF = np.inf
TINY = np.finfo(float).tiny

BREAKDOWN_TOL = 1e-14
SWAP_RESIDUAL_TOL = 1e-10
RITZ_CLUSTER_TOL = 1e-14
DEFAULT_M_MAX = 150
SWITCH_WINDOW = 3          # paper's ell
SWITCH_FACTOR = 0.75       # paper's c
BASIS_CAP = 18             # basis vectors allocated up front at most; doubled as needed
# A lockstep group holds as many vectors as their start bases, start_rows(n)
# rows of n floats each, fit in GROUP_BYTES. The per-iteration eigh, bound
# and loop cost is fixed per group, so wider groups spread it. Peak memory
# grows by about the budget, which caps it. Large n starts with fewer rows
# (grid forms stop within 5), doubled as needed: 2.5 MiB gives 16 vectors
# of 19 rows at n = 1024, 4 of 19 at n = 3600 and 4 of 5 at n = 14400.
GROUP_BYTES = 2560 * 1024


def _signed_xlogx(sign, x):
    """sign * x log x with 0 log 0 = 0; undefined (NaN) for negative arguments."""
    x = np.asarray(x, dtype=np.float64)
    if x.size and x.min() > 0:
        return sign * (x * np.log(x))
    out = np.where(x < 0, np.nan, 0.0)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return sign * out


# The vectorized functions whose matrix functions the engine forms. The
# a posteriori bounds recognise them by identity, so they are partial
# objects: perfbench's tracer wraps each public module function anew in
# every namespace that binds it, which would make two ENTROPY objects.
XLOGX = functools.partial(_signed_xlogx, 1.0)

ENTROPY = functools.partial(_signed_xlogx, -1.0)


@dataclass(frozen=True)
class PoleSequence:
    """Ordered poles in (-inf, 0) or at infinity; nested by construction."""

    poles: tuple

    def __post_init__(self):
        for xi in self.poles:
            if xi == 0 or (np.isfinite(xi) and xi > 0):
                raise ValueError("poles must be negative or infinite")

    def __len__(self):
        return len(self.poles)

    def __getitem__(self, j):
        return self.poles[j]


def _amplitude(t, mu):
    """am(t K | 1 - mu^2) for t in [0, 1] by the arithmetic-geometric mean of
    (1, mu), Abramowitz & Stegun 17.6 and 16.4: K = pi / (2 a_N), so the
    scale 2^N a_N t K is 2^(N-1) pi t. Starting from mu, not from 1 - mu^2,
    keeps its digits; with no step (mu = 1) the amplitude is t pi / 2."""
    a, b = 1.0, mu
    ratios = []  # c_n / a_n
    while a - b > 1e-15 * a:
        ratios.append((a - b) / (a + b))
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    phi = (2.0 ** (len(ratios) - 1) * math.pi) * t
    for r in reversed(ratios):
        phi = (phi + np.arcsin(r * np.sin(phi))) / 2.0
    return phi


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
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    phi = _amplitude((np.arange(1, m + 1) * golden) % 1.0, mu)
    # the pull-back of x = -dn is -(2 mu b / (1 + mu)) (1 - dn) / (dn - mu);
    # with k^2 = 1 - mu^2, 1 - dn = k^2 sn^2 / (1 + dn) and dn - mu =
    # k^2 cn^2 / (dn + mu) take out the cancellations as dn -> 1 or dn -> mu
    dn = np.hypot(np.cos(phi), mu * np.sin(phi))
    xi = -(2.0 * mu * b / (1.0 + mu)) * np.tan(phi) ** 2 * (dn + mu) / (1.0 + dn)
    # poles far below the spectrum act like the excluded xi = 0 and would
    # amplify the deflated kernel through the shifted solves; floor them
    xi = -np.clip(-xi, a / 100.0, 1e300)
    return PoleSequence(poles=tuple(xi.tolist()))


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


class ArnoldiGroup:
    """Stacked state of rational Arnoldi decompositions advanced in lockstep.

    Slot i holds member i's basis in rows[i], row-major as cap + 1 rows of n
    floats, and its Hessenberg pencil in H[i] and K[i]. ``members`` lists
    the member decompositions in slot order; remove() moves the last member
    into the freed slot, so the members always fill a prefix of the stacks
    and one batched call per stage serves them all. The members own the
    group and the group refers to them weakly, so the stacks are freed
    with the last member.
    """

    def __init__(self, operator, vectors, members: list):
        """Start ``members``, fresh RationalArnoldiDecomposition objects, on
        the vectors, one per slot, and take their first (polynomial) step."""
        k, n, cap = len(vectors), operator.n, start_rows(operator.n) - 1
        self.op = operator
        self.rows = np.empty((k, cap + 1, n))
        self.H = np.zeros((k, cap + 1, cap))
        self.K = np.zeros((k, cap + 1, cap))
        self._spectrum = None
        start = self.rows[:, 0]
        for i, b in enumerate(vectors):
            start[i] = b
        b_norm = _norms(start)
        if not b_norm.all():
            raise ValueError("start vector is zero")
        start /= b_norm[:, None]
        for i, d in enumerate(members):
            d.op, d.b_norm, d._group, d._slot = operator, float(b_norm[i]), self, i
            d.nbasis, d.poles, d.exhausted = 1, [], False
            d.poly_matvecs = d.rational_solves = 0
            d._spectrum = None
        self._refs = [weakref.ref(d) for d in members]
        self.step([INF] * k)

    @property
    def members(self) -> list:
        return [ref() for ref in self._refs]

    def _grow(self):
        """Double the capacity, once the members have filled all cap + 1 rows."""
        k, cap = len(self._refs), self.H.shape[2]
        rows = np.empty((k, 2 * cap + 1, self.rows.shape[2]))
        rows[:, : cap + 1] = self.rows[:k]
        H, K = np.zeros((2, k, 2 * cap + 1, 2 * cap))
        H[:, : cap + 1, :cap] = self.H[:k]
        K[:, : cap + 1, :cap] = self.K[:k]
        self.rows, self.H, self.K = rows, H, K

    def extend(self, poles, lo: int = 0) -> list:
        """Extend members lo, lo + 1, ... by one pole each, without the pole
        swap. Returns one bool per member, False where it broke down.

        Each column gets one matvec, and one shifted solve for a finite pole.
        Classical Gram-Schmidt applied twice orthogonalizes all columns in
        one batched matmul per pass; per member it is the gemv pair of a
        column on its own, so every member gets the same bits.
        """
        k = len(poles)
        members = [ref() for ref in self._refs[lo : lo + k]]
        m = members[0].nbasis
        for d, xi in zip(members, poles):
            if d.exhausted:
                raise RuntimeError("decomposition is exhausted (invariant subspace)")
            if d.nbasis != m:
                raise ValueError("members extended together must share nbasis")
            if xi != INF and not (np.isfinite(xi) and xi < 0):
                raise ValueError(f"invalid pole {xi}")
        if m > self.H.shape[2]:
            self._grow()
        self._spectrum = None
        s = slice(lo, lo + k)
        rows, H, K = self.rows[s], self.H[s], self.K[s]
        basis, w = rows[:, :m], rows[:, m]
        finite = []
        for i, (d, xi) in enumerate(zip(members, poles)):
            av = self.op.matvec(rows[i, m - 1])
            d.poly_matvecs += 1
            if xi == INF:
                w[i] = av
            else:
                w[i] = self.op.solve_pole(xi, av)
                d.rational_solves += 1
                finite.append((i, math.sqrt(av @ av)))
            d.poles.append(xi)
        av_norm = _norms(w).tolist()   # ||A v|| where w is still A v
        for i, norm in finite:
            av_norm[i] = norm
        c = np.matmul(basis, w[:, :, None])
        w -= _combine(c, basis)
        c2 = np.matmul(basis, w[:, :, None])
        w -= _combine(c2, basis)
        c = (c + c2)[:, :, 0]
        beta = _norms(w)
        col = m - 1
        H[:, :m, col] = c
        H[:, m, col] = beta
        if finite:
            f = [i for i, _ in finite]
            xi = np.array([poles[i] for i in f])
            K[f, :m, col] = c[f] / xi[:, None]
            K[f, m, col] = beta[f] / xi
        K[:, col, col] += 1.0
        ok = [not beta_i <= BREAKDOWN_TOL * max(d.b_norm, av_i)
              for d, beta_i, av_i in zip(members, beta.tolist(), av_norm)]
        for d, ok_i in zip(members, ok):
            d.nbasis += ok_i
            d.exhausted = not ok_i
        if all(ok):
            w /= beta[:, None]
            return ok
        for i, ok_i in enumerate(ok):   # a broken-down member's row stays unused
            if ok_i:
                w[i] /= beta[i]
            else:
                H[i, m, col] = K[i, m, col] = 0.0
        return ok

    def step(self, poles, lo: int = 0) -> list:
        """extend(), then swap each consumed finite pole ahead of the
        trailing infinity; the members' step() in one call."""
        ok = self.extend(poles, lo)
        for ref, xi, ok_i in zip(self._refs[lo : lo + len(poles)], poles, ok):
            if ok_i and xi != INF:
                ref().swap_last_pole_to_infinity()
        return ok

    def remove(self, i: int):
        """Drop member i, which leaves it unusable; the last member moves
        into its slot."""
        refs = self._refs
        gone, last = refs[i](), len(refs) - 1
        if i != last:
            d = refs[last]()
            self.rows[i, : d.nbasis] = self.rows[last, : d.nbasis]
            self.H[i] = self.H[last]
            self.K[i] = self.K[last]
            d._slot = i
            refs[i] = refs[last]
        refs.pop()
        gone._group = None
        self._spectrum = None


def _combine(c, basis):
    """c^T V per member, (k, m, 1) and (k, m, n) to (k, n), bitwise the gemv
    of one member alone. For m = 1 numpy's matmul skips BLAS for a loop
    that starts each sum at 0.0; a product plus 0.0 gives its bits at a
    fraction of its cost."""
    if basis.shape[1] == 1:
        return c[:, 0] * basis[:, 0] + 0.0
    return np.matmul(c.transpose(0, 2, 1), basis)[:, 0]


def _norms(x):
    """2-norms of the rows of x (k, n), each bitwise np.linalg.norm of the
    row alone (one dot product, then sqrt)."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


class RationalArnoldiDecomposition:
    """State of the rational Arnoldi process: orthonormal basis V, the
    Hessenberg pencil (H_under, K_under) and the poles in decomposition
    order, with the pole at infinity last.

    A decomposition is one slot of an ArnoldiGroup: one built on its own is
    the single member of its own group, and step() is the group step with
    k = 1. The basis is stored row-major, one contiguous row of n floats per
    basis vector; only the first nbasis rows are set.
    """

    def __init__(self, operator, b):
        ArnoldiGroup(operator, [np.asarray(b, dtype=np.float64)], [self])

    @classmethod
    def lockstep(cls, operator, vectors) -> list:
        """One decomposition per start vector, the members of one new
        ArnoldiGroup in slot order."""
        members = [cls.__new__(cls) for _ in vectors]
        ArnoldiGroup(operator, vectors, members)
        return members

    # -- storage -----------------------------------------------------------

    @property
    def _rows(self) -> np.ndarray:
        return self._group.rows[self._slot]

    @property
    def H(self) -> np.ndarray:
        return self._group.H[self._slot]

    @property
    def K(self) -> np.ndarray:
        return self._group.K[self._slot]

    @property
    def V(self) -> np.ndarray:
        """The basis as columns, V_m = V[:, :m]: a read-only view of the rows."""
        v = self._rows.T
        v.flags.writeable = False
        return v

    @property
    def eval_dim(self) -> int:
        """Dimension of the subspace whose projection is currently usable."""
        return len(self.poles) if not self.exhausted else self.nbasis

    # -- extension ---------------------------------------------------------

    def _extend(self, xi) -> bool:
        return bool(self._group.extend([xi], self._slot)[0])

    def step(self, xi) -> bool:
        """Consume one pole (infinity or negative), then swap a finite one
        ahead of the trailing infinity. Returns False on breakdown, which
        marks the decomposition exhausted (early convergence, not failure)."""
        return bool(self._group.step([xi], self._slot)[0])

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
        H, K = self.H, self.K
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
            self._rows[r0 : r1 + 1] = gu.T @ self._rows[r0 : r1 + 1]
        norm_k = np.abs(K[: m + 1, :m]).max()
        if max(abs(K[r1, c1]), abs(K[r1, c0]), abs(H[r1, c0])) > SWAP_RESIDUAL_TOL * max(
            norm_k, np.abs(self.H[: m + 1, :m]).max()
        ):
            raise RuntimeError("pole swap failed to restore the pencil structure")
        K[r1, c1] = 0.0
        K[r1, c0] = 0.0
        H[r1, c0] = 0.0
        self.poles[-1], self.poles[-2] = self.poles[-2], self.poles[-1]
        self._group._spectrum = None

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
        error kernel g_m: this member's rows of group_spectrum (read-only).
        """
        stacked = group_spectrum(self._group)
        if self._spectrum is None or self._spectrum[0] is not stacked:
            theta, alpha, beta, m = stacked
            i = self._slot
            self._spectrum = (stacked, (theta[i], alpha[i], beta[i], m))
        return self._spectrum[1]


def group_spectrum(group: ArnoldiGroup):
    """(theta, alpha, beta, m) of all members of a group sharing eval_dim m,
    each a read-only (k, m) array, computed once per iteration.

    One stacked eigh covers the (k, m, m) symmetrized projections, read
    straight from the H stack, and one stacked solve with K_m^T the members
    that consumed a finite pole. Before the first finite pole K_m = I_m
    exactly, so A_m = H_m and alpha = h_{m+1}^T U need no solve. Stacked
    LAPACK calls give every member the bits of a call on it alone.
    """
    if group._spectrum is not None:
        return group._spectrum
    members = group.members
    m = members[0].eval_dim
    for d in members:
        if d.eval_dim != m:
            raise ValueError("decompositions in a group must share eval_dim")
        if not d.exhausted and d.poles[-1] != INF:
            raise RuntimeError("last pole must be infinity (swap first)")
    h = group.H[: len(members)]
    a_m, last = h[:, :m, :m], h[:, m, :m]
    rational = [i for i, d in enumerate(members) if d.rational_solves]
    if rational:
        k_t = group.K[rational, :m, :m].transpose(0, 2, 1)
        a_m, last = a_m.copy(), last.copy()
        a_m[rational] = np.linalg.solve(k_t, a_m[rational].transpose(0, 2, 1)).transpose(0, 2, 1)
        last[rational] = np.linalg.solve(k_t, last[rational][:, :, None])[:, :, 0]
    theta, u = np.linalg.eigh(0.5 * (a_m + a_m.transpose(0, 2, 1)))
    alpha = np.matmul(last[:, None, :], u)[:, 0, :]
    beta = u[:, 0, :]
    for arr in (theta, alpha, beta):
        arr.flags.writeable = False
    group._spectrum = (theta, alpha, beta, m)
    return group._spectrum


def quadform_value(decomps, fun):
    """psi_m = ||b||^2 e_1^T f(A_m) e_1 via the symmetrized eigendecomposition.

    Ritz values in [-1e-12 b_scale, 0) are clamped to zero (f(0) = 0 for the
    entropy integrand); values below that are an error for f undefined there,
    reported for the first decomposition that has one. Takes one
    decomposition and returns a float, or a list of decompositions sharing m
    and returns an array, evaluated row-wise on their stacked spectra.
    """
    theta, _, beta, members, single = _stacked_spectra(decomps)
    theta = _clamp_ritz(theta)
    fv = np.asarray(fun(theta), dtype=np.float64)
    bad = ~np.isfinite(fv)
    if bad.any():
        i = bad.any(axis=1).argmax()
        raise ValueError(f"f undefined at Ritz value(s) {theta[i][bad[i]]}")
    values = np.array([d.b_norm**2 for d in members]) * (fv * beta**2).sum(axis=1)
    return float(values[0]) if single else values


def funvec_value(decomp: RationalArnoldiDecomposition, fun) -> np.ndarray:
    """f(A) b ~ ||b|| V_m f(A_m) e_1."""
    a_m, _, m = decomp.projected()
    theta, u = np.linalg.eigh(0.5 * (a_m + a_m.T))
    theta = _clamp_ritz(theta)
    fv = np.asarray(fun(theta), dtype=np.float64)
    if not np.all(np.isfinite(fv)):
        raise ValueError(f"f undefined at Ritz value(s) {theta[~np.isfinite(fv)]}")
    coeffs = u @ (fv * u[0, :])
    return decomp.b_norm * (coeffs @ decomp._rows[:m])


def _clamp_ritz(theta):
    tol = 1e-12 * np.maximum(np.abs(theta).max(axis=-1, keepdims=True, initial=0.0), 1e-300)
    return np.where((theta < 0) & (theta >= -tol), 0.0, theta)


# The error kernels are sums over the Ritz values th_j of divided differences
# of f = x log x (XLOGX; ENTROPY flips their sign, not their size):
#   g_m(z) = sum_j c2_j f[th_j, th_j, z] + c1_j f[th_j, z]
# with c2 = (alpha beta)^2 and c1 = 2 alpha beta gamma for the quadratic form,
# and h_m, the same with c2 = 0 and c1 = alpha beta, for f(A) b.
SUP_RTOL = 1e-9       # an h_m cell closes once its bound is within this of the largest sample
RITZ_FLOOR = 1e-150   # smaller Ritz values count as this: f[th, th, z, z] ~ 1 / th^2 stays finite
BOUND_CELLS = 64      # geometric cells of [a, b] before any refinement
BOUND_SPLIT = 8       # an open cell or piece is cut into this many
BOUND_POINTS = 2048   # cells and pieces per spectrum; past it the open ones' bounds are kept
BOUND_ORDER = 16      # Taylor terms of h_m about the centre of a refined cell
_TERMS = 20           # Taylor terms in t = (z - th) / th, |t| <= 1/4
_n = np.arange(_TERMS)
# -th f[th, th, z], -th f[th, z, z] and th^2 f[th, th, z, z] as power series
# in -t, from f^(k)(th) / k! = (-1)^k / (k (k - 1) th^(k - 1)) for k >= 2
_SERIES = -np.stack([1.0 / ((_n + 1) * (_n + 2)), 1.0 / (_n + 2), (_n + 1) / ((_n + 2) * (_n + 3))])
# c^k f[th, c, ..., c] (k + 1 copies of c) as power series in (th - c) / c:
# row k holds c^(n - 1) f^(n)(c) / n! for n = k + 1, k + 2, ...; row 0 lacks
# its first term, log c + 1
_q = np.arange(BOUND_ORDER + _TERMS + 2)
_OMEGA = np.where(_q >= 2, (-1.0) ** _q / np.maximum(_q * (_q - 1), 1), 0.0)
_HANKEL = _OMEGA[np.arange(BOUND_ORDER + 1)[:, None] + _n + 1]
# a polynomial's coefficients on [-1, 1] to those on each of its BOUND_SPLIT
# equal pieces, centred at u_i: sum_k a_k (u_i + v / BOUND_SPLIT)^k
_o = np.arange(BOUND_ORDER)
_u = (2.0 * np.arange(BOUND_SPLIT) + 1.0) / BOUND_SPLIT - 1.0
_SHIFT = (np.array([[math.comb(k, l) for k in _o] for l in _o], dtype=float)
          * _u[:, None, None] ** np.maximum(_o - _o[:, None], 0) * (1.0 / BOUND_SPLIT) ** _o[:, None])


def _kernel_spectra(theta, c1, c2):
    """What _split_values takes of k spectra: theta (at least RITZ_FLOOR), f and
    f' there, theta / 4, and the weights (k, 2, 2m) of the increasing and
    the decreasing part. c2 >= 0."""
    k, m = theta.shape
    log_theta = np.log(theta)
    weights = np.zeros((k, 2, 2 * m))
    np.maximum(c1, 0.0, out=weights[:, 0, :m])
    np.minimum(c1, 0.0, out=weights[:, 1, :m])
    np.negative(c2, out=weights[:, 1, m:])
    return theta, theta * log_theta, log_theta + 1.0, 0.25 * theta, weights


def _split_values(z, theta, fth, dfth, quarter, weights):
    """Increasing and decreasing parts of the kernel and of minus its
    derivative at the points z (R, P) of R spectra, as v (R, 2, 2, P):
    v[:, 0] for the kernel, v[:, 1] for minus its derivative, each
    (increasing part, decreasing part); the spectra are as _kernel_spectra
    gives them.

    By f'' > 0, f''' < 0 and f'''' > 0, the divided differences f[th, z],
    -f[th, th, z], -f[th, z, z] and f[th, th, z, z] all increase in z. With
    w = (c1, -c2), the kernel is (f[th, z], -f[th, th, z]) . w and minus its
    derivative (-f[th, z, z], f[th, th, z, z]) . w, so the positive entries
    of w give the increasing part and the negative ones the decreasing
    part. Where |z - th| <= th / 4 the differences come from their Taylor
    series, elsewhere from the recurrences. Each spectrum's values are
    bitwise those of its points alone.
    """
    R, P = z.shape
    m = theta.shape[1]
    x = np.empty((4, R, m, P))
    d1, d2, e1, e2 = x
    d = z[:, None, :] - theta[:, :, None]
    near = np.flatnonzero(np.abs(d) <= quarter[:, :, None])
    pair = near // P
    dn, thn = d.take(near), theta.take(pair)
    d.put(near, 1.0)
    lz = np.log(np.maximum(z, TINY))
    np.subtract((z * lz)[:, None, :], fth[:, :, None], out=d1)
    d1 /= d                                        # f[th, z]
    np.subtract(dfth[:, :, None], d1, out=d2)
    d2 /= d                                        # -f[th, th, z]
    np.subtract(d1, (lz + 1.0)[:, None, :], out=e1)
    e1 /= d                                        # -f[th, z, z]
    np.subtract(d2, e1, out=e2)
    e2 /= d                                        # f[th, th, z, z]
    powers = np.empty((near.size, _TERMS))
    powers[:, 0] = 1.0
    np.negative((dn / thn)[:, None], out=powers[:, 1:])
    np.cumprod(powers, axis=1, out=powers)
    s = np.empty((4, near.size))
    np.vecdot(powers[:, None, :], _SERIES, out=s[1:].T)
    s[1:] /= thn
    s[3] /= thn
    np.subtract(dfth.take(pair), dn * s[1], out=s[0])
    x.reshape(4, -1)[:, near] = s
    x = x.reshape(2, 2, R, m, P).transpose(2, 0, 1, 3, 4).reshape(R, 2, 2 * m, P)
    return np.matmul(weights[:, None], x)


@functools.lru_cache(maxsize=8)
def _cell_ends(a: float, b: float):
    """The BOUND_CELLS + 1 geometric cell ends of [a, b], read-only; for
    a = 0, 0 and then a geometric tail from 1e-16 b."""
    if a > 0:
        ends = np.geomspace(a, b, BOUND_CELLS + 1)
    else:
        ends = np.concatenate([[0.0], np.geomspace(max(b * 1e-16, TINY), b, BOUND_CELLS)])
    ends.flags.writeable = False
    return ends


def _cell_bounds(z, v, h):
    """Upper bounds (R, P - 1) of |h| on the cells between consecutive
    points z (R, P), from h and its split values v (R, 2, 2, P) there.

    h = P + Q and -h' = A + B, P and A increasing, Q and B decreasing, so on
    a cell [z0, z1] h lies in [P(z0) + Q(z1), P(z1) + Q(z0)] and -h' in
    [A(z0) + B(z1), A(z1) + B(z0)]. Where the latter excludes 0 the cell is
    monotone and its bound is the larger end value; f' is unbounded at 0,
    so a cell starting there never is. Otherwise the bound is the larger
    magnitude of the former's ends.
    """
    absh = np.abs(h)
    (p, q), (a, b) = v[:, 0].transpose(1, 0, 2), v[:, 1].transpose(1, 0, 2)
    monotone = ((a[:, 1:] + b[:, :-1]) * (a[:, :-1] + b[:, 1:]) > 0) & (z[:, :-1] > 0)
    return np.where(monotone, np.maximum(absh[:, :-1], absh[:, 1:]),
                    np.maximum(p[:, 1:] + q[:, :-1], -p[:, :-1] - q[:, 1:]))


def _taylor(c, theta, c1):
    """Taylor coefficients of h_m about the points c (N,) in powers of
    (z - c) / c, for the spectra theta, c1 (N, m): (d_k for k < BOUND_ORDER
    (N, BOUND_ORDER), the larger of the parts of d_BOUND_ORDER from positive
    and from negative c1 (N,)). d_k = sum_j c1_j c^k f[th_j, c^(k+1)], with
    c^(k+1) for k + 1 copies of c, is taken from the series in (th - c) / c
    within c / 4 of th, elsewhere from f[th, c^(k+1)] = (f^(k)(c) / k! -
    f[th, c^(k)]) / (c - th)."""
    cc = c[:, None]
    lc = np.log(cc)
    tau = theta / cc - 1.0
    near = np.abs(tau) <= 0.25
    delta = np.where(near, 1.0, -tau)
    t = np.empty(theta.shape + (BOUND_ORDER + 1,))
    t[..., 0] = (cc * lc - theta * np.log(theta)) / (cc * delta)
    for k in range(1, BOUND_ORDER + 1):
        t[..., k] = ((lc + 1.0 if k == 1 else _OMEGA[k]) - t[..., k - 1]) / delta
    powers = np.empty((near.sum(), _TERMS))
    powers[:, 0] = 1.0
    powers[:, 1:] = tau[near, None]
    np.cumprod(powers, axis=1, out=powers)
    t[near] = (powers[:, None, :] * _HANKEL).sum(axis=2)
    t[near, 0] += np.broadcast_to(lc + 1.0, tau.shape)[near]
    terms = c1[:, :, None] * t
    last = np.abs(terms[:, :, -1])
    return terms[:, :, :-1].sum(axis=1), np.maximum(last.sum(axis=1, where=c1 > 0), last.sum(axis=1, where=c1 < 0))


def _piece_bounds(a):
    """(upper bound, largest value found) of |p| on [-1, 1] for the
    polynomials p(u) = sum_k a_k u^k, the rows of a. Where |a_1| exceeds
    sum_k k |a_k| over k >= 2, p is monotone and the bound is the larger end
    value; otherwise it is the largest |a_0 + a_1 u + a_2 u^2| (at an end
    or at the vertex) plus sum_k |a_k| over k >= 3."""
    mag = np.abs(a)
    ends = np.maximum(np.abs(a.sum(axis=1)), np.abs((a * (-1.0) ** _o).sum(axis=1)))
    vertex = np.divide(-a[:, 1], 2.0 * a[:, 2], out=np.zeros(len(a)), where=a[:, 2] != 0).clip(-1.0, 1.0)
    quad = np.maximum(np.abs(a[:, 0] + a[:, 2] + a[:, 1]), np.abs(a[:, 0] + a[:, 2] - a[:, 1]))
    np.maximum(quad, np.abs(a[:, 0] + vertex * (a[:, 1] + vertex * a[:, 2])), out=quad)
    monotone = mag[:, 1] > (mag[:, 2:] * _o[2:]).sum(axis=1)
    bound = np.where(monotone, ends, quad + mag[:, 3:].sum(axis=1))
    return bound, np.maximum(ends, np.abs((a * vertex[:, None] ** _o).sum(axis=1)))


def _certified_sup(theta, c1, interval: SpectralInterval):
    """(smallest sample, certified sup) of |h_m| over [a, b] for k spectra,
    h_m(z) = sum_j c1_j f[th_j, z]; theta (>= RITZ_FLOOR) and c1 are (k, m).

    Level 0 bounds the cells between the cell ends (_cell_ends) and the
    Ritz values in [a, b] (_cell_bounds); a cell whose bound exceeds
    1 + SUP_RTOL times the largest sample stays open. An open cell [z0, z1],
    z0 > 0, becomes a piece: h_m's Taylor polynomial of degree p - 1 about
    the centre c, p = BOUND_ORDER. As f[th, z] = int_0^inf 1 / (1 + t) -
    t / ((th + t) (z + t)) dt, the rest is -(c - z)^p sum_j c1_j int_0^inf
    t dt / ((th_j + t) (c + t)^p (z + t)); for |z - c| <= r it is at most
    r^p (c / z0) times the larger of the positive-c1 and negative-c1 parts
    of the next coefficient. While that exceeds SUP_RTOL / 2 times the
    largest sample, the cell is first cut into BOUND_SPLIT geometric cells.
    Open pieces are cut into BOUND_SPLIT equal pieces (_piece_bounds), and
    a cell from 0 at z1 / BOUND_SPLIT. Past BOUND_POINTS cells and pieces
    per spectrum the open ones' bounds are kept. The inf is the smallest
    level-0 sample. Each spectrum's result is bitwise its own alone.
    """
    k, m = theta.shape
    a, b = interval.a, interval.b
    ends = _cell_ends(a, b)
    z = np.empty((k, ends.size + m))
    z[:, : ends.size] = ends
    np.minimum(np.maximum(theta, a, out=z[:, ends.size :]), b, out=z[:, ends.size :])
    z.sort(axis=1)
    spectra = _kernel_spectra(theta, c1, np.zeros_like(theta))
    v = _split_values(z, *spectra)
    h = v[:, 0, 0] + v[:, 0, 1]
    absh = np.abs(h)
    lower, top = absh.min(axis=1), absh.max(axis=1)
    bound = _cell_bounds(z, v, h)
    open_ = bound > (1.0 + SUP_RTOL) * top[:, None]
    if not open_.any():
        return lower, np.maximum(top, bound.max(axis=1))
    upper = np.maximum(top, np.where(open_, 0.0, bound).max(axis=1))
    row, c = np.nonzero(open_)
    z0, z1, cap = z[row, c], z[row, c + 1], bound[row, c]
    prow, coef, rem, pcap = np.empty(0, dtype=int), np.empty((0, BOUND_ORDER)), np.empty(0), np.empty(0)
    points = np.full(k, z.shape[1])
    while row.size or prow.size:
        points += np.bincount(row, minlength=k) + np.bincount(prow, minlength=k)
        over, pover = points[row] > BOUND_POINTS, points[prow] > BOUND_POINTS
        np.maximum.at(upper, row[over], cap[over])
        np.maximum.at(upper, prow[pover], pcap[pover])
        row, z0, z1, cap = (x[~over] for x in (row, z0, z1, cap))
        prow, coef, rem, pcap = (x[~pover] for x in (prow, coef, rem, pcap))
        zero = z0 == 0
        zr, cut = row[zero], z1[zero] / BOUND_SPLIT
        zv = _split_values(np.stack([z0[zero], cut], axis=1), *(x[zr] for x in spectra))
        zh = zv[:, 0, 0] + zv[:, 0, 1]
        np.maximum.at(top, zr, np.abs(zh[:, 1]))
        zb = np.minimum(_cell_bounds(np.zeros_like(zh), zv, zh)[:, 0], cap[zero])
        pr, p0, p1, pc = (x[~zero] for x in (row, z0, z1, cap))
        centre, ratio = 0.5 * (p0 + p1), (p1 - p0) / (p1 + p0)
        d, last = _taylor(centre, theta[pr], c1[pr])
        np.maximum.at(top, pr, np.abs(d[:, 0]))
        e = 2.0 * ratio**BOUND_ORDER * (centre / p0) * last   # twice the rest, for the recurrence's rounding
        fine = e <= 0.5 * SUP_RTOL * top[pr]
        cells = p0[~fine, None] * (p1 / p0)[~fine, None] ** (np.arange(BOUND_SPLIT + 1) / BOUND_SPLIT)
        prow, rem, pcap = (np.concatenate([x, y[fine]]) for x, y in ((prow, pr), (rem, e), (pcap, pc)))
        coef = np.concatenate([coef, d[fine] * ratio[fine, None] ** _o])
        pb, found = _piece_bounds(coef)
        np.maximum.at(top, prow, found - rem)
        pb = np.minimum(pb + rem, pcap)
        zopen, shut = zb > (1.0 + SUP_RTOL) * top[zr], pb <= (1.0 + SUP_RTOL) * top[prow]
        np.maximum.at(upper, zr[~zopen], zb[~zopen])
        np.maximum.at(upper, prow[shut], pb[shut])
        prow, rem, pcap = (x[~shut].repeat(BOUND_SPLIT) for x in (prow, rem, pb))
        coef = (coef[~shut, None, None, :] * _SHIFT).sum(axis=3).reshape(-1, BOUND_ORDER)
        row = np.concatenate([zr[zopen], zr, pr[~fine].repeat(BOUND_SPLIT)])
        z0 = np.concatenate([np.zeros(zopen.sum()), cut, cells[:, :-1].ravel()])
        z1 = np.concatenate([cut[zopen], z1[zero], cells[:, 1:].ravel()])
        cap = np.concatenate([zb[zopen], cap[zero], pc[~fine].repeat(BOUND_SPLIT)])
    return lower, np.maximum(upper, top)


def _stacked_spectra(decomps):
    """(theta, alpha, beta, members, single) for an ArnoldiGroup, one
    decomposition or a list of them sharing m: the spectra as (k, m) arrays,
    the group's decompositions, and whether a single one was given."""
    if isinstance(decomps, ArnoldiGroup):
        return (*group_spectrum(decomps)[:3], decomps.members, False)
    single = not isinstance(decomps, (list, tuple))
    members = [decomps] if single else list(decomps)
    theta, alpha, beta = (np.array(s) for s in zip(*(d.spectrum()[:3] for d in members)))
    return theta, alpha, beta, members, single


def _x_log_x_family(fun):
    """The bounds rest on the signs of the derivatives of x log x."""
    if fun is not ENTROPY and fun is not XLOGX:
        raise ValueError("a posteriori bounds are available for ENTROPY and XLOGX only")


def aposteriori_bounds(decomps, fun, interval: SpectralInterval):
    """Lower/upper bounds ||b||^2 (min, max) |g_m| over the spectral interval
    [a, b], for f = ENTROPY or XLOGX (ValueError for any other f), with
    g_m(z) = sum_j (alpha_j beta_j)^2 f[th_j, th_j, z]
    + 2 alpha_j beta_j gamma_j f[th_j, z].

    Both are exact, up to rounding: they are |g_m| at a and at b. For
    f = x log x and positive Ritz values th_j (those below RITZ_FLOOR count
    as RITZ_FLOOR), partial fractions give g_m(z) = int_0^inf t phi(t)^2 /
    (z + t) dt with phi(t) = sum_j alpha_j beta_j / (t + th_j), so g_m is
    positive and decreasing on [0, inf). The accuracy is set by rounding in
    the sum of the terms: where they exceed g_m a millionfold, |g_m(a)|
    carries a relative error of a few 1e-10.

    Takes one decomposition and returns floats, or an ArnoldiGroup or a
    list of decompositions sharing m and returns arrays. Clustered Ritz
    values (gap <= 1e-14 b) make the gamma coupling terms ill-defined; they
    are then dropped for that decomposition, which keeps g_m positive and
    decreasing, and its lower bound degrades to 0.
    """
    _x_log_x_family(fun)
    theta, alpha, beta, members, single = _stacked_spectra(decomps)
    gaps = np.diff(np.sort(theta, axis=1), axis=1)
    degraded = gaps.min(axis=1, initial=np.inf) <= RITZ_CLUSTER_TOL * interval.b
    theta = np.maximum(theta, RITZ_FLOOR)
    ab = alpha * beta
    diff = theta[:, :, None] - theta[:, None, :]
    inv = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
    gammas = (ab[:, None, :] * inv).sum(axis=2)
    gammas[degraded] = 0.0
    v = _split_values(np.array([[interval.a, interval.b]]).repeat(len(theta), axis=0),
                      *_kernel_spectra(theta, 2.0 * (ab * gammas), ab * ab))
    g = np.abs(v[:, 0, 0] + v[:, 0, 1])
    scale = np.array([d.b_norm**2 for d in members])
    lower = np.where(degraded, 0.0, scale * g[:, 1])
    upper = scale * g[:, 0]
    return (float(lower[0]), float(upper[0])) if single else (lower, upper)


def funvec_aposteriori(decomps, fun, interval: SpectralInterval):
    """First-order bounds ||b|| (min, max) |h_m| for the f(A) b error, with
    h_m(z) = sum_j alpha_j beta_j f[th_j, z], for f = ENTROPY or XLOGX
    (ValueError for any other f).

    The upper bound is certified (_certified_sup): up to rounding it is at
    least the sup of |h_m| over all of [a, b], and at most 1 + 1e-9 times
    it unless the spectrum used up its budget of cells and pieces (the
    bound is then looser, never lower). The lower bound is sampled, not
    certified: the min over the cell ends and the Ritz values in [a, b].
    Takes what aposteriori_bounds takes and returns the same way."""
    _x_log_x_family(fun)
    theta, alpha, beta, members, single = _stacked_spectra(decomps)
    lower, upper = _certified_sup(np.maximum(theta, RITZ_FLOOR), alpha * beta, interval)
    b_norm = np.array([d.b_norm for d in members])
    lower, upper = b_norm * lower, b_norm * upper
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


def start_rows(n: int) -> int:
    """Basis rows a group allocates per member: BASIS_CAP + 1 where four
    such bases fit in GROUP_BYTES, else as many as four fit, at least 5."""
    return min(BASIS_CAP + 1, max(5, GROUP_BYTES // (8 * n * 4)))


def group_size(n: int) -> int:
    """Start vectors advanced in lockstep: as many start_rows(n) x n start
    bases as fit in GROUP_BYTES, at least one."""
    return max(1, GROUP_BYTES // (8 * n * start_rows(n)))


class _Run:
    """One start vector's state in the adaptive loop."""

    def __init__(self, decomp: RationalArnoldiDecomposition, tol: float):
        self.decomp = decomp
        self.tol = tol
        self.history: list = []
        self.switched_at = -1
        self.rational_index = 0
        self.trace: list = []
        self.result = None

    def finish(self, fun, value, converged, lower, upper, est, want_vector):
        d = self.decomp
        self.result = QuadformResult(
            value=value,
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
    b,
    fun,
    interval: SpectralInterval,
    tol_abs,
    pole_source: PoleSequence | None,
    stop: str,
    m_max: int,
    want_vector: bool,
    keep_trace: bool,
):
    """The adaptive loop on the start vector b, one QuadformResult; or on
    the columns of an (n, k) block b, with tol_abs a scalar or one
    tolerance per column, a list of k results.

    Vectors run in lockstep groups of at most group_size(n), each one
    ArnoldiGroup: every member takes its own poles and stop decisions, but
    the group shares m, so per iteration one group step, one stacked
    spectrum and one stacked bound evaluation serve all members. A member
    leaves the group when it stops, and each member's decisions and result
    are bitwise those of a run on its own.
    """
    b = np.asarray(b, dtype=np.float64)
    vectors = [b] if b.ndim == 1 else [np.ascontiguousarray(col) for col in b.T]
    tols = [float(t) for t in np.broadcast_to(np.asarray(tol_abs, dtype=np.float64), (len(vectors),))]
    if min(tols, default=1.0) <= 0:
        raise ValueError("tol_abs must be positive")
    if stop not in ("bound", "estimate"):
        raise ValueError(f"unknown stop criterion {stop!r}")
    bound_fn = funvec_aposteriori if want_vector else aposteriori_bounds
    width = group_size(operator.n)
    runs = []
    for lo in range(0, len(vectors), width):
        decomps = RationalArnoldiDecomposition.lockstep(operator, vectors[lo : lo + width])
        group = decomps[0]._group
        live = [_Run(d, tol) for d, tol in zip(decomps, tols[lo : lo + width])]
        runs += live
        while live:
            m = group_spectrum(group)[3]
            lowers, uppers = bound_fn(group, fun, interval)
            poles, done, ends = [], [], []
            for i, (r, lower, upper) in enumerate(zip(live, lowers.tolist(), uppers.tolist())):
                d = r.decomp
                est = gm_estimate(lower, upper)
                stat = upper if stop == "bound" else est
                r.history.append(stat)
                if keep_trace:
                    r.trace.append((m, d.poles[-1], lower, upper, est, quadform_value(d, fun)))
                converged = d.exhausted or (m >= 2 and stat <= r.tol)
                if converged or m >= m_max:
                    poles.append(None)
                    done.append(i)
                    ends.append((converged, lower, upper, est))
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
                    poles.append(INF)
                else:
                    poles.append(pole_source[r.rational_index % len(pole_source)])
                    r.rational_index += 1
            if done:   # the values of the members that stop, in one stacked call
                values = quadform_value([live[i].decomp for i in done], fun).tolist()
                for i, value, end in zip(done, values, ends):
                    live[i].finish(fun, value, *end, want_vector)
            for i in reversed(done):
                group.remove(i)
                live[i], poles[i] = live[-1], poles[-1]
                live.pop()
                poles.pop()
            if live:
                group.step(poles)
    results = [r.result for r in runs]
    return results[0] if b.ndim == 1 else results


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
    fun,
    interval: SpectralInterval,
    tol_abs,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
    keep_trace: bool = False,
):
    """b^T f(A) b with polynomial iterations switching to the pole source
    when the error reduction stalls (est_k / est_{k-4} >= 0.75^3), stopping
    when the chosen statistic (upper bound or geometric-mean estimate) falls
    below tol_abs.

    b may be an (n, k) block, with tol_abs a scalar or one per column: the
    k forms then run in lockstep and a list of k results is returned.
    """
    return _run_adaptive(
        operator, b, fun, interval, tol_abs, pole_source, stop, m_max,
        want_vector=False, keep_trace=keep_trace,
    )


def adaptive_funvec(
    operator,
    b,
    fun,
    interval: SpectralInterval,
    tol_abs,
    pole_source: PoleSequence | None = None,
    stop: str = "estimate",
    m_max: int = DEFAULT_M_MAX,
):
    """f(A) b to absolute 2-norm tolerance tol_abs, same pole management;
    an (n, k) block gives a list of k results."""
    return _run_adaptive(
        operator, b, fun, interval, tol_abs, pole_source, stop, m_max,
        want_vector=True, keep_trace=False,
    )


def desingularized_columns(rows: np.ndarray, n: int):
    """(js, c) for the start vectors b_j, the rows of a (k, n) array: js
    lists each j whose part off the ones vector, c_j = b_j - (1^T b_j / n) 1,
    is not negligible, ||c_j|| > 1e-14 ||b_j||, and the rows of c are those
    parts. The other vectors lie in the kernel of a graph-Laplacian density."""
    c, js = np.empty_like(rows), []
    for j, b in enumerate(rows):
        c[len(js)] = b - b.sum() / n
        if np.linalg.norm(c[len(js)]) > 1e-14 * np.linalg.norm(b):
            js.append(j)
    return js, c[: len(js)]
