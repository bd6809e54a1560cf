"""Shifted SPD solves (tau I + A) x = y, tau > 0, for the rational Krylov
engine (tau = -xi for a pole xi < 0): SuperLU factors cached per shift, and
scipy's Jacobi-preconditioned conjugate gradient as the fallback."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, SuperLU, cg, splu

from .sparse import SparseSymMatrix, matvec

# the "auto" backend solves by CG once the first factor's fill ratio,
# nnz(L) / nnz(A), exceeds this
FILL_LIMIT = 50.0


class FactorizationError(RuntimeError):
    """Non-positive pivot; tau I + A was not positive definite as required."""


def factorize(mat: SparseSymMatrix, tau: float) -> SuperLU:
    """Unpivoted SuperLU factor of tau I + A, tau > 0, under a symmetric
    minimum-degree order; raises FactorizationError unless the matrix is
    positive definite.

    With perm_r == perm_c the factor is P C P^T = L U with U = D L^T, so by
    Sylvester's law of inertia C is positive definite iff every U pivot is.
    The ordering depends only on the pattern, so every shift of one matrix
    has the same fill.
    """
    if not tau > 0:
        raise ValueError("shift must be positive")
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


def cg_solve(
    mat: SparseSymMatrix,
    tau: float,
    y: np.ndarray,
    tol_rel: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Jacobi-preconditioned CG (scipy) on tau I + A, tau > 0, returning x
    with (tau I + A) x = y and ||r|| / ||y|| <= tol_rel; RuntimeError after
    max_iter iterations (default max(1000, 10 n)) without convergence."""
    if not tau > 0:
        raise ValueError("shift must be positive")
    if not y.any():  # scipy would hand back y itself
        return np.zeros_like(y)
    n = mat.n
    shifted = LinearOperator((n, n), matvec=lambda p: matvec(mat, p) + tau * p, dtype=float)
    dinv = 1.0 / (tau + mat.diagonal())
    jacobi = LinearOperator((n, n), matvec=lambda r: dinv * r, dtype=float)
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    x, info = cg(shifted, y, rtol=tol_rel, atol=0.0, maxiter=max_iter, M=jacobi)
    if info > 0:
        raise RuntimeError(f"CG did not converge in {max_iter} iterations")
    if info < 0:
        raise RuntimeError(f"CG broke down (scipy info {info})")
    return x


class PoleSolver:
    """Shifted solver used by the Krylov engine: ``factors`` maps each shift
    tau to its SuperLU factor.

    ``backend`` is one of direct/cg/auto; auto factors the first shift and
    becomes cg for all solves when that factor's fill ratio exceeds
    FILL_LIMIT, else direct. The first factor stays cached either way.
    ``fill_ratio`` is the first factor's, None before it exists.
    """

    def __init__(self, mat: SparseSymMatrix, backend: str = "auto"):
        if backend not in ("direct", "cg", "auto"):
            raise ValueError(f"unknown backend {backend!r}")
        self.matrix = mat
        self.backend = backend
        self.factors: dict = {}
        self.fill_ratio: float | None = None

    def solve_spd_shift(self, tau: float, y: np.ndarray) -> np.ndarray:
        """x with (tau I + A) x = y, tau > 0."""
        if self.backend != "cg":
            lu = self.factors.get(tau)
            if lu is None:
                lu = self.factors[tau] = factorize(self.matrix, tau)
                if self.fill_ratio is None:
                    self.fill_ratio = lu.L.nnz / max(1, self.matrix.nnz)
            if self.backend == "auto":
                self.backend = "cg" if self.fill_ratio > FILL_LIMIT else "direct"
            if self.backend == "direct":
                return lu.solve(y)
        return cg_solve(self.matrix, tau, y)
