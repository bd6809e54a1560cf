"""Distance-d colorings of sparse graphs and the induced probing vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import rcm_kernel, validate_distance_coloring
from .sparse import SparseSymMatrix

COLOR_BLOCK = 256  # rows of the (A + I)^d pattern held at once


@dataclass(frozen=True)
class Coloring:
    """Node partition realizing a distance-d coloring.

    ``color`` maps node -> color id (1-based, contiguous 1..num_colors);
    ``classes[l]`` is the sorted node set of color l+1.
    """

    d: int
    color: np.ndarray
    num_colors: int
    classes: tuple

    @property
    def n(self) -> int:
        return int(self.color.shape[0])

    def class_sizes(self) -> np.ndarray:
        return np.array([c.shape[0] for c in self.classes], dtype=np.int64)


def _make_coloring(d: int, color: np.ndarray) -> Coloring:
    num = int(color.max()) if color.size else 0
    used = np.unique(color)
    if used.shape[0] != num:  # compact to 1..s (greedy output is already contiguous)
        remap = np.zeros(num + 1, dtype=np.int64)
        remap[used] = np.arange(1, used.shape[0] + 1)
        color = remap[color]
        num = used.shape[0]
    classes = tuple(np.flatnonzero(color == c + 1) for c in range(num))
    return Coloring(d=d, color=color, num_colors=num, classes=classes)


def degree_descending_order(graph: SparseSymMatrix) -> np.ndarray:
    """Stable node order by descending degree, ties by ascending index."""
    deg = graph.degrees()
    return np.lexsort((np.arange(graph.n), -deg))


def rcm_order(graph: SparseSymMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering; order[k] is the node placed at k."""
    return rcm_kernel(graph.row_ptr, graph.col_idx)


def bandwidth(graph: SparseSymMatrix, order=None) -> int:
    """Max |i - j| over stored off-diagonal entries, optionally reordered."""
    rows = np.repeat(np.arange(graph.n), np.diff(graph.row_ptr))
    cols = graph.col_idx
    if order is not None:
        pos = np.empty(graph.n, dtype=np.int64)
        pos[order] = np.arange(graph.n)
        rows, cols = pos[rows], pos[cols]
    if rows.size == 0:
        return 0
    return int(np.abs(rows - cols).max())


def greedy_distance_coloring(graph: SparseSymMatrix, d: int, order=None) -> Coloring:
    """Greedy distance-d coloring of the graph of A.

    Processes nodes in ``order`` (natural order by default) and assigns each
    the smallest color not used within distance d. Neighborhoods are the
    rows of (A + I)^d, built from boolean sparse products for COLOR_BLOCK
    nodes at a time in processing order.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if order is None:
        order = np.arange(graph.n, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
    step = _plus_identity(graph)
    color = np.zeros(graph.n, dtype=np.int64)
    num = 0
    for start in range(0, order.shape[0], COLOR_BLOCK):
        rows = order[start : start + COLOR_BLOCK]
        reach = _distance_pattern(step, rows, d)
        ptr, nbrs = reach.indptr, reach.indices
        for k, i in enumerate(rows):
            used = np.zeros(num + 2, dtype=bool)
            used[color[nbrs[ptr[k] : ptr[k + 1]]]] = True
            used[0] = True
            c = int(used.argmin())
            color[i] = c
            num = max(num, c)
    return _make_coloring(d, color)


def _plus_identity(graph: SparseSymMatrix) -> sp.csr_matrix:
    return graph.pattern() + sp.identity(graph.n, dtype=bool, format="csr")


def _distance_pattern(step: sp.csr_matrix, rows, d: int) -> sp.csr_matrix:
    """Rows ``rows`` of the pattern of step^d, step = A + I (the nodes within
    distance d of each), from d - 1 boolean sparse products."""
    reach = step[rows]
    for _ in range(d - 1):
        reach = reach @ step
    return reach


def banded_coloring(n: int, beta: int, d: int) -> Coloring:
    """col(i) = ((i-1) mod (d*beta+1)) + 1; valid for any beta-banded matrix
    and optimal with s = d*beta+1 when the band is full."""
    if n < 1 or beta < 1 or d < 1:
        raise ValueError("need n, beta, d >= 1")
    period = d * beta + 1
    color = np.arange(n, dtype=np.int64) % period + 1
    return _make_coloring(d, color)


def grid2d_coloring(side: int, d: int) -> Coloring:
    """Optimal distance-d coloring of the side x side grid graph with
    ceil((d+1)^2 / 2) colors, from a lattice sublattice construction.

    Nodes are numbered row-major: node = x * side + y.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    x, y = np.divmod(np.arange(side * side, dtype=np.int64), side)
    if d % 2 == 1:
        # sublattice generated by (t, t), (t, -t), index 2 t^2 = (d+1)^2 / 2
        t = (d + 1) // 2
        u = (x + y) % (2 * t)
        v = (x - y) % (2 * t)
        color = u * t + (v - (u % 2)) // 2 + 1
    else:
        # sublattice generated by (s, s+1), (-(s+1), s), index 2 s^2 + 2 s + 1
        s = d // 2
        m = 2 * s * s + 2 * s + 1
        k = (s + 1) * pow(s, -1, m) % m
        color = (x + k * y) % m + 1
    return _make_coloring(d, color)


def probing_vectors(coloring: Coloring):
    """Implicit probing vectors: for each color the index set V_l defining
    v_l = sum of the canonical basis vectors over V_l, ||v_l|| = |V_l|^{1/2}."""
    return coloring.classes


def probing_vector_dense(coloring: Coloring, ell: int) -> np.ndarray:
    v = np.zeros(coloring.n)
    v[coloring.classes[ell]] = 1.0
    return v


def validate_coloring(graph: SparseSymMatrix, coloring: Coloring, d: int):
    """Depth-d BFS check of the distance property.

    Returns (True, None) or (False, (i, j)) with a violating same-color pair.
    """
    ok, i, j = validate_distance_coloring(graph.row_ptr, graph.col_idx, coloring.color, d)
    return (True, None) if ok else (False, (int(i), int(j)))
