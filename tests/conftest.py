import numpy as np
import pytest

from vnentropy.krylov import ENTROPY, ShiftedOperator, adaptive_quadform, desingularized_columns
from vnentropy.sparse import SparseSymMatrix, build_laplacian, from_coo, normalize_trace


def random_connected_graph(n, extra_edges, rng) -> SparseSymMatrix:
    """Random spanning tree plus extra edges; always connected."""
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(0, i)), i))
    for _ in range(extra_edges):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    rows = [e[0] for e in edges] + [e[1] for e in edges]
    cols = [e[1] for e in edges] + [e[0] for e in edges]
    return from_coo(n, rows, cols, np.ones(len(rows)))


def path_graph(n) -> SparseSymMatrix:
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    return from_coo(n, rows, cols, np.ones(len(rows)))


def cycle_graph(n) -> SparseSymMatrix:
    rows = [i for i in range(n)] + [(i + 1) % n for i in range(n)]
    cols = [(i + 1) % n for i in range(n)] + [i for i in range(n)]
    return from_coo(n, rows, cols, np.ones(len(rows)))


def complete_graph(n) -> SparseSymMatrix:
    rows, cols = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append(i)
                cols.append(j)
    return from_coo(n, rows, cols, np.ones(len(rows)))


def laplacian_density(adjacency):
    return normalize_trace(build_laplacian(adjacency))


def diag_density(values) -> "DensityMatrix":
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    idx = np.flatnonzero(values)
    mat = from_coo(n, idx, idx, values[idx])
    return normalize_trace(mat)


def desingularized_forms(rho, b, interval, tol_abs, **kwargs):
    """adaptive_quadform of ENTROPY on the columns of b, each projected off
    the ones vector by desingularized_columns, as KrylovEntropyProvider runs
    them on a graph-Laplacian density: one result for a vector, a list for
    an (n, k) block. No column may lie in the kernel."""
    b = np.asarray(b, dtype=np.float64)
    rows = np.ascontiguousarray(np.atleast_2d(b.T))
    js, starts = desingularized_columns(rows, rho.n)
    assert len(js) == len(rows)
    start = starts.T if b.ndim == 2 else starts[0]
    return adaptive_quadform(ShiftedOperator(rho.matrix), start, ENTROPY, interval, tol_abs, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
