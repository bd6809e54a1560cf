"""Shifted SPD solves (xi*I - A)x = y for the rational Krylov engine:
SuperLU factors of |xi| I + A cached per pole, and a Jacobi-preconditioned
conjugate gradient fallback."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .sparse import SparseSymMatrix, matvec


class FactorizationError(RuntimeError):
    """Non-positive pivot; xi*I - A was not negative definite as required."""


@dataclass
class PoleFactor:
    """SuperLU factor of -(xi*I - A) = |xi| I + A, P C P^T = L U.

    ``fill_ratio`` is nnz(L) / nnz(A); the symmetric ordering depends only
    on the pattern, so it is the same for every pole of one matrix.
    """

    xi: float
    lu: SuperLU
    fill_ratio: float

    def solve_spd(self, y: np.ndarray) -> np.ndarray:
        """x with (|xi| I + A) x = y."""
        return self.lu.solve(y)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """x with (xi*I - A) x = y."""
        return -self.solve_spd(y)


@dataclass
class FactorCache:
    """Append-only pole -> factor map for one matrix."""

    matrix: SparseSymMatrix
    factors: dict = field(default_factory=dict)

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    @property
    def fill_ratio(self) -> float | None:
        """Fill of the cached factors, None before the first one."""
        for factor in self.factors.values():
            return factor.fill_ratio
        return None


def _lu_spd(mat: SparseSymMatrix, tau: float) -> SuperLU:
    """Unpivoted SuperLU factor of tau*I + A under a symmetric minimum-degree
    order; raises FactorizationError unless the matrix is positive definite.

    With perm_r == perm_c the factor is P C P^T = L U with U = D L^T, so by
    Sylvester's law of inertia C is positive definite iff every U pivot is.
    """
    # full symmetric pattern: the CSR arrays of A are also its CSC arrays
    a = sp.csc_matrix((mat.values, mat.col_idx, mat.row_ptr), shape=(mat.n, mat.n))
    shifted = a + tau * sp.identity(mat.n, format="csc")
    try:
        lu = splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise FactorizationError(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationError("SuperLU pivoted off the diagonal")
    pivots = lu.U.diagonal()
    bad = np.flatnonzero(pivots <= 0.0)
    if bad.size:
        raise FactorizationError(f"non-positive pivot at permuted index {bad[0]}")
    return lu


def factorize(mat: SparseSymMatrix, xi: float, cache: FactorCache) -> PoleFactor:
    """SuperLU factor of |xi| I + A for a pole xi < 0, cached by pole."""
    if xi >= 0:
        raise ValueError("pole must be negative")
    if xi in cache.factors:
        return cache.factors[xi]
    lu = _lu_spd(mat, -xi)
    factor = PoleFactor(xi=xi, lu=lu, fill_ratio=lu.L.nnz / max(1, mat.nnz))
    cache.factors[xi] = factor
    return factor


def solve(factor: PoleFactor, y: np.ndarray) -> np.ndarray:
    """(xi*I - A) x = y from a cached factor."""
    if y.shape[0] != factor.lu.shape[0]:
        raise ValueError("dimension mismatch")
    return factor.solve(y)


def cg_solve(
    mat: SparseSymMatrix,
    xi: float,
    y: np.ndarray,
    tol_rel: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Jacobi-preconditioned CG on |xi| I + A, returning x with
    (xi*I - A) x = y and ||r|| / ||y|| <= tol_rel."""
    if xi >= 0:
        raise ValueError("pole must be negative")
    tau = -xi
    norm_y = np.linalg.norm(y)
    if norm_y == 0:
        return np.zeros_like(y)
    if max_iter is None:
        max_iter = max(1000, 10 * mat.n)
    dinv = 1.0 / (tau + mat.diagonal())
    x = np.zeros_like(y)
    r = y.copy()
    z = dinv * r
    p = z.copy()
    rz = r @ z
    for _ in range(max_iter):
        ap = matvec(mat, p) + tau * p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol_rel * norm_y:
            return -x
        z = dinv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(f"CG did not converge in {max_iter} iterations")


class PoleSolver:
    """Backend-dispatching shifted solver used by the Krylov engine.

    ``backend`` is one of direct/cg/auto; auto factors the first pole and
    picks CG for all solves when that factor's fill ratio exceeds
    ``fill_threshold``. The first factor stays cached either way.
    """

    def __init__(
        self,
        mat: SparseSymMatrix,
        backend: str = "auto",
        fill_threshold: float = 50.0,
    ):
        if backend not in ("direct", "cg", "auto"):
            raise ValueError(f"unknown backend {backend!r}")
        self.matrix = mat
        self.cache = FactorCache(matrix=mat)
        self.requested_backend = backend
        self.fill_threshold = fill_threshold
        self._resolved = backend if backend != "auto" else None

    @property
    def backend(self) -> str:
        """The resolved backend; "auto" until the first solve resolves it."""
        return self._resolved or self.requested_backend

    def solve_spd_shift(self, tau: float, y: np.ndarray) -> np.ndarray:
        """x with (tau I + A) x = y, tau > 0."""
        if self._resolved != "cg":
            factor = factorize(self.matrix, -tau, self.cache)
            if self._resolved is None:
                self._resolved = "cg" if factor.fill_ratio > self.fill_threshold else "direct"
            if self._resolved == "direct":
                return factor.solve_spd(y)
        return -cg_solve(self.matrix, -tau, y)

    @property
    def factorization_count(self) -> int:
        return self.cache.factor_count
