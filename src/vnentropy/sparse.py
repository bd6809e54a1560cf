"""Sparse symmetric matrices, Matrix Market I/O, graph Laplacians and the
dense reference oracle used throughout the test suite."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from io import BytesIO
from typing import Literal

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.csgraph import breadth_first_order, connected_components


class MatrixFormatError(ValueError):
    """Malformed Matrix Market input or invalid matrix data."""


# Header, comment and blank lines, then the size line.
_MM_PREAMBLE = re.compile(rb"[^\n]*\n(?:[ \t\r]*(?:%[^\n]*)?\n)*[^\n]*")
# Digits to d, signs to s, the point to p, exponents to e; the letters d, s, p to x.
_MM_CLASSES = bytes.maketrans(b"0123456789+-.eEdsp", b"ddddddddddsspeexxx")
_MM_TOKEN = {"real": re.compile(rb"s?(?:d+p?d*|pd+)(?:es?d+)?"), "integer": re.compile(rb"s?d+")}


@dataclass(frozen=True)
class SparseSymMatrix:
    """Immutable CSR matrix storing the full symmetric pattern (both triangles).

    Column indices are strictly increasing within each row and explicit zeros
    are never stored; instances are safe to share across threads.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    is_pattern: bool = False

    @property
    def nnz(self) -> int:
        return int(self.col_idx.shape[0])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        """scipy CSR matrix sharing ``values``, built on first product."""
        return sp.csr_matrix((self.values, self.col_idx, self.row_ptr), shape=(self.n, self.n))

    def row_indices(self) -> np.ndarray:
        """Row index of each stored entry, aligned with col_idx and values."""
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.n)
        rows = self.row_indices()
        mask = rows == self.col_idx
        diag[rows[mask]] = self.values[mask]
        return diag

    def trace(self) -> float:
        return float(self.diagonal().sum())

    def todense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.row_indices(), self.col_idx] = self.values
        return dense

    def pattern(self) -> sp.csr_matrix:
        """Boolean scipy CSR matrix of the stored pattern."""
        ones = np.ones(self.nnz, dtype=bool)
        return sp.csr_matrix((ones, self.col_idx, self.row_ptr), shape=(self.n, self.n))

    def degrees(self) -> np.ndarray:
        """Node degrees of the associated graph (off-diagonal entry counts)."""
        rows = self.row_indices()
        loops = np.bincount(rows[rows == self.col_idx], minlength=self.n)
        return np.diff(self.row_ptr).astype(np.int64) - loops

    def scaled(self, factor: float) -> "SparseSymMatrix":
        return SparseSymMatrix(
            self.n, self.row_ptr, self.col_idx, self.values * factor, False
        )


def from_coo(n, rows, cols, vals, is_pattern=False) -> SparseSymMatrix:
    """Build a SparseSymMatrix from symmetric COO triplets.

    Both (i, j) and (j, i) must be present with equal values; duplicates and
    explicit zeros are rejected, except zeros which are dropped.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise MatrixFormatError("index out of range")
    if not np.all(np.isfinite(vals)):
        raise MatrixFormatError("non-finite matrix entry")
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size > 1:
        dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
        if dup.any():
            raise MatrixFormatError("duplicate entry in coordinate data")
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    row_ptr[1:] = np.bincount(rows, minlength=n)
    np.cumsum(row_ptr, out=row_ptr)
    mat = SparseSymMatrix(n, row_ptr, cols, vals, is_pattern)
    _check_structural_symmetry(mat)
    return mat


def _check_structural_symmetry(mat: SparseSymMatrix) -> None:
    """Raise unless the transpose has the same entries. The storage order
    is by row, then strictly increasing column, so a stable sort by column
    gives the transpose's storage order."""
    rows = mat.row_indices()
    bw = np.argsort(mat.col_idx, kind="stable")
    if not (np.array_equal(rows, mat.col_idx[bw]) and np.array_equal(mat.col_idx, rows[bw])):
        raise MatrixFormatError("matrix is not structurally symmetric")
    if not np.array_equal(mat.values, mat.values[bw]):
        raise MatrixFormatError("unequal (i,j)/(j,i) values")


def parse_matrix_market(data) -> SparseSymMatrix:
    """Parse a Matrix Market coordinate file into a SparseSymMatrix.

    ``data`` is bytes, str or a readable file object. Accepts field
    real/integer/pattern and symmetry symmetric/general of a square matrix;
    general input must be structurally symmetric. For symmetric files only
    one triangle is stored in the file and the transpose is materialized.
    The entries are read by ``scipy.io.mmread``, loaded here so that runs
    on generated graphs never import ``scipy.io``.
    """
    from scipy.io import mminfo, mmread

    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, str):
        data = data.encode()
    try:
        nrows, ncols, _, fmt, field, symmetry = mminfo(BytesIO(data))
        # mmread also reads array, complex, hermitian and skew-symmetric files
        if fmt != "coordinate" or field == "complex" or symmetry not in ("symmetric", "general"):
            raise ValueError(f"unsupported kind: {fmt} {field} {symmetry}")
        if nrows != ncols:
            raise ValueError("matrix is not square")
        if field != "pattern":  # mmread reads "2,5" as 2 and "0x1p3" as 0: match each token's shape
            start = _MM_PREAMBLE.match(data).end()
            body = data[start:].translate(_MM_CLASSES)
            bad = [tok for tok in set(body.split()) if not _MM_TOKEN[field].fullmatch(tok)]
            if bad:
                at = start + re.search(rb"(?<!\S)(?:%s)(?!\S)" % b"|".join(map(re.escape, bad)), body).start()
                raise ValueError("line %d: malformed entry token" % (data.count(b"\n", 0, at) + 1))
        coo = mmread(BytesIO(data))
    except (ValueError, OverflowError) as exc:
        raise MatrixFormatError(str(exc)) from exc
    return from_coo(nrows, coo.row, coo.col, coo.data, is_pattern=(field == "pattern"))


def write_matrix_market(mat: SparseSymMatrix) -> str:
    """Write the upper triangle in Matrix Market coordinate format."""
    field = "pattern" if mat.is_pattern else "real"
    rows = mat.row_indices()
    mask = rows <= mat.col_idx
    r, c, v = rows[mask], mat.col_idx[mask], mat.values[mask]
    lines = [f"%%MatrixMarket matrix coordinate {field} symmetric"]
    lines.append(f"{mat.n} {mat.n} {r.size}")
    if mat.is_pattern:
        lines.extend(f"{i + 1} {j + 1}" for i, j in zip(r, c))
    else:
        lines.extend(f"{i + 1} {j + 1} {x:.17g}" for i, j, x in zip(r, c, v))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace rescaling rho = scale * A_raw of a PSD matrix."""

    matrix: SparseSymMatrix
    scale: float
    trace_raw: float

    @property
    def n(self) -> int:
        return self.matrix.n


@dataclass(frozen=True)
class SpectralInterval:
    """Spectral enclosure [a, b] of a density matrix and how it was found.

    ``provenance`` is ``"closed-form"`` when ``laplacian_interval`` derived
    both ends for a connected graph-Laplacian density: then a <= lambda_2
    and lambda_max <= b are certified, and ``diameter_bound`` holds the
    certified D >= diameter of the graph that a was derived from. It is
    ``"gershgorin"`` for ``laplacian_interval``'s fallback, whose [a, b]
    certifiably encloses the whole spectrum. Otherwise it is
    ``"ritz-uncertified"``: ``spectral_interval``'s widened Ritz values,
    which certify nothing (on the path graph P_2000 a is 11.9 lambda_2), or
    an interval built by hand.
    """

    a: float
    b: float
    provenance: Literal["closed-form", "gershgorin", "ritz-uncertified"] = "ritz-uncertified"
    diameter_bound: int | None = None


def matvec(mat: SparseSymMatrix, x: np.ndarray) -> np.ndarray:
    """CSR product A @ x for a vector x; each row is summed in stored column
    order. Calls the kernel that ``mat._csr @ x`` reaches after scipy's
    operator dispatch directly, so the result is bitwise the same."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (mat.n,):
        raise ValueError(f"dimension mismatch: {x.shape} != ({mat.n},)")
    csr = mat._csr
    y = np.zeros(mat.n)
    csr_matvec(mat.n, mat.n, csr.indptr, csr.indices, csr.data, x, y)
    return y


def build_laplacian(adjacency: SparseSymMatrix) -> SparseSymMatrix:
    """Graph Laplacian L = D - A with D = diag(A 1); rows sum to zero."""
    rows = adjacency.row_indices()
    if np.any(rows == adjacency.col_idx):
        raise MatrixFormatError("adjacency matrix has nonzero diagonal")
    if np.any(adjacency.values < 0):
        raise MatrixFormatError("negative edge weight")
    deg = np.zeros(adjacency.n)
    np.add.at(deg, rows, adjacency.values)
    all_rows = np.concatenate([rows, np.arange(adjacency.n)])
    all_cols = np.concatenate([adjacency.col_idx, np.arange(adjacency.n)])
    all_vals = np.concatenate([-adjacency.values, deg])
    return from_coo(adjacency.n, all_rows, all_cols, all_vals)


def largest_component(mat: SparseSymMatrix):
    """Induced submatrix of the largest connected component.

    Returns (submatrix, old_to_new) where old_to_new[i] is the new index of
    node i, or -1 for dropped nodes. Size ties go to the component holding
    the smallest original node index (components are discovered in index
    order, and the first maximum wins). A connected matrix comes back
    unchanged, with the identity map.
    """
    ncomp, labels = connected_components(mat.pattern(), directed=False)
    if ncomp <= 1:
        return mat, np.arange(mat.n)
    sizes = np.bincount(labels, minlength=ncomp)
    target = int(np.argmax(sizes))
    keep = labels == target
    old_to_new = np.full(mat.n, -1, dtype=np.int64)
    old_to_new[keep] = np.arange(int(keep.sum()))
    rows = mat.row_indices()
    mask = keep[rows] & keep[mat.col_idx]
    sub = from_coo(
        int(keep.sum()),
        old_to_new[rows[mask]],
        old_to_new[mat.col_idx[mask]],
        mat.values[mask],
        is_pattern=mat.is_pattern,
    )
    return sub, old_to_new


def normalize_trace(mat: SparseSymMatrix) -> DensityMatrix:
    """rho = A / trace(A), recording the scale 1/trace(A)."""
    tr = mat.trace()
    if tr <= 0:
        raise ValueError(f"trace must be positive, got {tr}")
    return DensityMatrix(matrix=mat.scaled(1.0 / tr), scale=1.0 / tr, trace_raw=tr)


def entropy_rescale(gamma: float, entropy_a: float, trace_a: float) -> float:
    """S(gamma*A) from S(A): gamma*S(A) - gamma*log(gamma)*trace(A)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma * entropy_a - gamma * np.log(gamma) * trace_a


def dense_sym_eig(a: np.ndarray):
    """Eigendecomposition of a small dense symmetric matrix.

    Contract: A = U diag(w) U^T with ||A U - U diag(w)|| <= 1e-12 n ||A||
    and ||U^T U - I|| <= 1e-12 n (LAPACK symmetric eigensolver).
    """
    return np.linalg.eigh(_symmetrized(a))


def _symmetrized(a) -> np.ndarray:
    """(A + A^T) / 2 after checking that A is square and symmetric."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0 and np.abs(a - a.T).max() > 1e-12 * scale * a.shape[0]:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


DENSE_ORACLE_CAP = 5000


def dense_entropy_oracle(mat, cap: int = DENSE_ORACLE_CAP) -> float:
    """-sum(lambda_i log lambda_i) from all eigenvalues, 0 log 0 = 0.

    Accepts a SparseSymMatrix or a dense symmetric array; eigenvalues in
    [-1e-12 ||A||, 0) are clamped to zero, anything lower is an error.
    """
    dense = mat.todense() if isinstance(mat, SparseSymMatrix) else np.asarray(mat)
    if dense.shape[0] > cap:
        raise ValueError(f"n={dense.shape[0]} exceeds dense oracle cap {cap}")
    return entropy_from_eigenvalues(np.linalg.eigvalsh(_symmetrized(dense)))


def clamp_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a PSD matrix with those in [-1e-12 ||A||, 0), rounding
    noise, set to 0; a lower eigenvalue raises ValueError."""
    norm = np.abs(w).max() if w.size else 0.0
    if norm > 0 and w.min() < -1e-12 * norm:
        raise ValueError(f"matrix is not PSD: eigenvalue {w.min()}")
    return np.clip(w, 0.0, None)


def entropy_from_eigenvalues(w: np.ndarray) -> float:
    w = clamp_psd_eigenvalues(w)
    pos = w[w > 0]
    return float(-(pos * np.log(pos)).sum())


def spectral_interval(
    mat: SparseSymMatrix,
    desingularize: bool = False,
    iters: int = 200,
    lower_safety: float = 0.5,
    upper_safety: float = 1.1,
    seed: int = 0,
) -> SpectralInterval:
    """Widened Ritz enclosure of the spectrum from a Lanczos sweep.

    With ``desingularize`` the start vector is orthogonalized against the
    all-ones kernel direction so the smallest Ritz value tracks lambda_2.
    Each step subtracts alpha_k q_k + beta_{k-1} q_{k-1} from A q_k, then
    runs one Gram-Schmidt pass against the whole basis and a second one only
    when the first shrinks the vector below 1/sqrt(2) of its norm ("twice is
    enough"). The Ritz interval is widened by the safety factors (lower
    clamped at 0); it is an estimate, not a certified enclosure.
    """
    if iters < 2:
        raise ValueError("iters must be at least 2")
    n = mat.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    ones = np.ones(n) / np.sqrt(n)
    if desingularize:
        v -= ones @ v * ones
    v /= np.linalg.norm(v)
    m = min(iters, n - 1 if desingularize else n)
    # row-major, so the basis in use basis[: k + 1] is one contiguous block
    basis = np.empty((m, n))
    alpha = np.zeros(m)
    beta = np.zeros(m)
    basis[0] = v
    for k in range(m):
        q = basis[: k + 1]
        w = matvec(mat, q[k])
        alpha[k] = q[k] @ w
        if k + 1 == m:
            break
        w -= alpha[k] * q[k]
        if k:
            w -= beta[k - 1] * q[k - 1]
        before = np.linalg.norm(w)
        w -= (q @ w) @ q
        if np.linalg.norm(w) < before / np.sqrt(2):
            w -= (q @ w) @ q
        if desingularize:
            w -= ones @ w * ones
        nw = np.linalg.norm(w)
        if nw < 1e-13 * max(1.0, np.abs(alpha).max()):
            break
        beta[k] = nw
        np.divide(w, nw, out=basis[k + 1])
    t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
    ritz = np.linalg.eigvalsh(t)
    a = max(0.0, float(ritz[0]) * lower_safety)
    b = float(ritz[-1]) * upper_safety
    return SpectralInterval(a=a, b=b)


def laplacian_interval(density: DensityMatrix) -> SpectralInterval:
    """Certified [a, b] for a connected graph-Laplacian density rho = s L_w.

    rho qualifies when its off-diagonals are negative, its rows sum to zero
    (max |rho 1| <= 1e-12) and a BFS from node 0 reaches every node. With w
    the off-diagonal magnitudes, deg the structural degrees and
    D = 2 ecc(0) >= diameter from that BFS:

    - a = 4 min(w) / (n D) <= lambda_2, by Mohar's lambda_2(L_G) >= 4 / (n
      diam) [Graphs Combin. 7, 1991] and L_w >= min(w) L_G;
    - b = max(w) max over edges ij of (deg_i + deg_j) >= lambda_max, by
      Anderson & Morley [Lin. Multilin. Algebra 18, 1985] and
      L_w <= max(w) L_G.

    Both take one pass over the entries and one BFS, with no product by rho.
    As D >= 2 and b >= 2 max(w), a <= b / 2. Other input gets the
    Gershgorin enclosure a = max(0, min_i (rho_ii - sum_{j != i} |rho_ij|))
    and b = max_i sum_j |rho_ij|; on a disconnected Laplacian a = 0, its
    smallest eigenvalue.
    """
    mat = density.matrix
    n = mat.n
    rows = mat.row_indices()
    off = rows != mat.col_idx
    w = -mat.values[off]
    row_sums = np.bincount(rows, weights=mat.values, minlength=n)
    if w.size and w.min() > 0 and np.abs(row_sums).max() <= 1e-12:
        order, pred = breadth_first_order(mat.pattern(), 0, return_predecessors=True)
        if order.size == n:
            # BFS visits nodes by distance from node 0: the last is farthest
            ecc, node = 0, order[-1]
            while node != 0:
                node, ecc = pred[node], ecc + 1
            diameter_bound = 2 * ecc
            deg = np.bincount(rows[off], minlength=n)
            a = 4.0 * float(w.min()) / (n * diameter_bound)
            b = float(w.max()) * float((deg[rows[off]] + deg[mat.col_idx[off]]).max())
            return SpectralInterval(a, b, "closed-form", diameter_bound)
    abs_sums = np.bincount(rows, weights=np.abs(mat.values), minlength=n)
    diag = mat.diagonal()
    a = max(0.0, float((diag - (abs_sums - np.abs(diag))).min()))
    return SpectralInterval(a, float(abs_sums.max()), "gershgorin")
