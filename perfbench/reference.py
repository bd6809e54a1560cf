"""Reference values for the benchmark workloads, computed without the
package's sparse, Krylov or estimator code.

Grid values come from the closed-form spectrum of the grid Laplacian; the
Barabasi-Albert value comes from a dense eigendecomposition of a Laplacian
built here from the generator's edge list.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def _neg_xlogx(w):
    w = np.clip(w, 0.0, None)
    pos = w[w > 0]
    out = np.zeros_like(w)
    out[w > 0] = -pos * np.log(pos)
    return out


def _path_eigen(side):
    """Eigenvalues and orthonormal eigenvectors (columns) of the path
    Laplacian on `side` nodes: 2 - 2 cos(pi j / side) and the DCT-II basis."""
    j = np.arange(side)
    lam = 2.0 - 2.0 * np.cos(np.pi * j / side)
    q = np.cos(np.pi * np.outer(np.arange(side) + 0.5, j) / side)
    q /= np.linalg.norm(q, axis=0)
    return lam, q


def _grid_density_spectrum(side):
    """Eigenvalues of the unit-trace grid Laplacian as a side x side array,
    entry [j, k] belonging to the eigenvector q_j (x) q_k."""
    lam, _ = _path_eigen(side)
    grid = lam[:, None] + lam[None, :]
    return grid / (4.0 * side * (side - 1))  # trace = sum of degrees


def grid_entropy(side: int) -> float:
    """S(rho) of the side x side grid graph."""
    return float(_neg_xlogx(_grid_density_spectrum(side)).sum())


def grid_probing_trace(side: int, classes) -> float:
    """sum_l v_l^T f(rho) v_l over the indicator vectors of `classes` (node
    sets, nodes numbered x * side + y), with f(x) = -x log x."""
    _, q = _path_eigen(side)
    fw = _neg_xlogx(_grid_density_spectrum(side))
    total = 0.0
    for cls in classes:
        v = np.zeros(side * side)
        v[np.asarray(cls)] = 1.0
        coeff = q.T @ v.reshape(side, side) @ q
        total += float((fw * coeff * coeff).sum())
    return total


def graph_entropy(n: int, rows, cols) -> float:
    """S(rho) of the largest connected component of the graph with edges
    (rows[i], cols[i]), by dense eigendecomposition of its Laplacian."""
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    adj.setdiag(0)
    adj.eliminate_zeros()
    _, labels = connected_components(adj, directed=False)
    keep = labels == np.argmax(np.bincount(labels))
    a = adj[keep][:, keep].toarray()
    lap = np.diag(a.sum(axis=1)) - a
    w = np.linalg.eigvalsh(lap / np.trace(lap))
    return float(_neg_xlogx(w).sum())
