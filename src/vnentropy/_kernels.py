"""Hot loops shared by the sparse and coloring modules: CSR matvec,
depth-limited BFS coloring validation, and RCM ordering.

Every kernel here is written in plain array style so that it runs both as a
numba ``@njit`` function and as ordinary Python. numba is an optional extra
(``pip install vnentropy[numba]``); without it, or with the environment
variable ``VNENTROPY_DISABLE_NUMBA=1`` set before import, the plain Python
path runs. Factorizations, connected components and the greedy coloring's
distance-d neighbourhoods use scipy instead.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("VNENTROPY_DISABLE_NUMBA", "0").lower() not in (
    "1",
    "true",
    "yes",
)

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # numba is an optional extra
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):
        """No-op replacement for numba.njit on the fallback path."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True, nogil=True)
def csr_matvec(row_ptr, col_idx, values, x, out):
    """out = A @ x for a CSR matrix, fixed row-major summation order."""
    n = row_ptr.shape[0] - 1
    for i in range(n):
        acc = 0.0
        for p in range(row_ptr[i], row_ptr[i + 1]):
            acc += values[p] * x[col_idx[p]]
        out[i] = acc
    return out


def csr_matvec_numpy(row_ptr, col_idx, values, x, out):
    """Vectorized matvec used when numba is disabled."""
    out[:] = 0.0
    if values.shape[0] == 0:
        return out
    prod = values * x[col_idx]
    starts = row_ptr[:-1]
    nonempty = row_ptr[1:] > starts
    out[nonempty] = np.add.reduceat(prod, starts[nonempty])
    return out


if NUMBA_ENABLED:
    matvec_kernel = csr_matvec
else:
    matvec_kernel = csr_matvec_numpy


@njit(cache=True)
def validate_distance_coloring(row_ptr, col_idx, color, d):
    """Check the distance-d property with a depth-d BFS from every node.

    Returns (ok, i, j); (i, j) is the first same-color pair within distance d.
    """
    n = row_ptr.shape[0] - 1
    visited = np.full(n, -1, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    for i in range(n):
        visited[i] = i
        queue[0] = i
        f_start = 0
        f_end = 1
        for _depth in range(d):
            nxt = f_end
            for qi in range(f_start, f_end):
                u = queue[qi]
                for p in range(row_ptr[u], row_ptr[u + 1]):
                    v = col_idx[p]
                    if visited[v] != i:
                        visited[v] = i
                        queue[nxt] = v
                        nxt += 1
                        if v != i and color[v] == color[i]:
                            return False, i, v
            f_start = f_end
            f_end = nxt
            if f_start == f_end:
                break
    return True, -1, -1


@njit(cache=True)
def bfs_levels(row_ptr, col_idx, start, level):
    """BFS filling ``level`` (-1 = unreached); returns (visit count, ecc)."""
    queue = np.empty(level.shape[0], dtype=np.int64)
    level[start] = 0
    queue[0] = start
    head = 0
    tail = 1
    ecc = 0
    while head < tail:
        u = queue[head]
        head += 1
        for p in range(row_ptr[u], row_ptr[u + 1]):
            v = col_idx[p]
            if level[v] == -1:
                level[v] = level[u] + 1
                if level[v] > ecc:
                    ecc = level[v]
                queue[tail] = v
                tail += 1
    return tail, ecc


@njit(cache=True)
def rcm_kernel(row_ptr, col_idx):
    """Reverse Cuthill-McKee ordering, per connected component.

    Each component is rooted at a pseudo-peripheral node found by repeated
    BFS eccentricity sweeps; BFS children are visited by ascending degree
    with node-index tie-break, and the concatenated order is reversed.
    """
    n = row_ptr.shape[0] - 1
    degree = np.empty(n, dtype=np.int64)
    for i in range(n):
        deg = 0
        for p in range(row_ptr[i], row_ptr[i + 1]):
            if col_idx[p] != i:
                deg += 1
        degree[i] = deg
    order = np.empty(n, dtype=np.int64)
    placed = np.zeros(n, dtype=np.bool_)
    level = np.empty(n, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    nbrs = np.empty(n, dtype=np.int64)
    pos = 0
    for seed in range(n):
        if placed[seed]:
            continue
        # pseudo-peripheral root: repeat BFS from a min-degree farthest node
        root = seed
        level[:] = -1
        for i in range(n):
            if placed[i]:
                level[i] = -2
        count, ecc = bfs_levels(row_ptr, col_idx, root, level)
        while True:
            best = -1
            for i in range(n):
                if level[i] == ecc:
                    if best == -1 or degree[i] < degree[best]:
                        best = i
            level[:] = -1
            for i in range(n):
                if placed[i]:
                    level[i] = -2
            count2, ecc2 = bfs_levels(row_ptr, col_idx, best, level)
            if ecc2 > ecc:
                root = best
                ecc = ecc2
            else:
                root = best
                break
        # Cuthill-McKee BFS from root
        head = pos
        queue[pos] = root
        placed[root] = True
        tail = pos + 1
        while head < tail:
            u = queue[head]
            head += 1
            k = 0
            for p in range(row_ptr[u], row_ptr[u + 1]):
                v = col_idx[p]
                if not placed[v]:
                    placed[v] = True
                    nbrs[k] = v
                    k += 1
            # insertion sort by (degree, index)
            for a in range(1, k):
                key = nbrs[a]
                b = a - 1
                while b >= 0 and (
                    degree[nbrs[b]] > degree[key]
                    or (degree[nbrs[b]] == degree[key] and nbrs[b] > key)
                ):
                    nbrs[b + 1] = nbrs[b]
                    b -= 1
                nbrs[b + 1] = key
            for a in range(k):
                queue[tail] = nbrs[a]
                tail += 1
        pos = tail
    for i in range(n):
        order[i] = queue[n - 1 - i]
    return order
