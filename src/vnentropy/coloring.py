"""Distance-d colorings of sparse graphs, their validation and the induced
probing vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


def _from_colors(d: int, color: np.ndarray) -> Coloring:
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
    """Reverse Cuthill-McKee ordering (scipy's csgraph); order[k] is the
    node placed at k."""
    order = reverse_cuthill_mckee(graph.pattern(), symmetric_mode=True)
    return order.astype(np.int64)


def bandwidth(graph: SparseSymMatrix, order=None) -> int:
    """Max |i - j| over stored off-diagonal entries, optionally reordered."""
    rows = graph.row_indices()
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
    return _from_colors(d, color)


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
    return _from_colors(d, color)


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
    return _from_colors(d, color)


def probing_vector_dense(coloring: Coloring, ell: int) -> np.ndarray:
    v = np.zeros(coloring.n)
    v[coloring.classes[ell]] = 1.0
    return v


def validate_coloring(graph: SparseSymMatrix, coloring: Coloring, d: int):
    """Check the distance-d property on rows of the (A + I)^d pattern, read
    COLOR_BLOCK nodes at a time in index order.

    Returns (True, None) or (False, (i, j)): i is the first node with a
    same-color node j != i within distance d, and j the smallest such node.
    """
    step = _plus_identity(graph)
    color = coloring.color
    for start in range(0, graph.n, COLOR_BLOCK):
        rows = np.arange(start, min(start + COLOR_BLOCK, graph.n))
        reach = _distance_pattern(step, rows, d).tocoo()
        i, j = reach.row + start, reach.col
        clash = (color[i] == color[j]) & (i != j)
        if clash.any():
            k = np.lexsort((j[clash], i[clash]))[0]
            return False, (int(i[clash][k]), int(j[clash][k]))
    return True, None


def make_coloring(
    graph: SparseSymMatrix,
    d: int,
    method: str = "greedy",
    order: str = "degree",
    grid_side: int | None = None,
) -> Coloring:
    """Distance-d coloring of the graph by ``method``.

    "greedy": greedy_distance_coloring over the node ``order`` ("degree",
    "rcm" or "natural"). "banded": banded_coloring of the RCM-permuted
    matrix at its bandwidth, mapped back to the original numbering. "grid":
    the lattice coloring of the grid2d graph with ``grid_side`` (row-major
    numbering, side^2 = n).
    """
    if method == "grid":
        if grid_side is None or grid_side * grid_side != graph.n:
            raise ValueError("grid coloring needs the generating grid side")
        return grid2d_coloring(grid_side, d)
    if method == "banded":
        perm = rcm_order(graph)
        banded = banded_coloring(graph.n, max(1, bandwidth(graph, perm)), d)
        color = np.empty(graph.n, dtype=np.int64)
        color[perm] = banded.color
        return _from_colors(d, color)
    if method != "greedy":
        raise ValueError(f"unknown coloring method {method!r}")
    if order == "degree":
        perm = degree_descending_order(graph)
    elif order == "rcm":
        perm = rcm_order(graph)
    elif order == "natural":
        perm = np.arange(graph.n, dtype=np.int64)
    else:
        raise ValueError(f"unknown order {order!r}")
    return greedy_distance_coloring(graph, d, perm)
