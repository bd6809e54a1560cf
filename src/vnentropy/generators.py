"""Built-in graph generators so benchmark runs need no external files."""

from __future__ import annotations

import numpy as np

from .sparse import SparseSymMatrix, from_coo


def grid2d_adjacency(side: int) -> SparseSymMatrix:
    """Adjacency of the side x side regular 2D grid, nodes numbered
    row-major (node = x * side + y)."""
    if side < 1:
        raise ValueError("side must be positive")
    idx = np.arange(side * side, dtype=np.int64).reshape(side, side)
    right_a = idx[:, :-1].ravel()
    right_b = idx[:, 1:].ravel()
    down_a = idx[:-1, :].ravel()
    down_b = idx[1:, :].ravel()
    rows = np.concatenate([right_a, right_b, down_a, down_b])
    cols = np.concatenate([right_b, right_a, down_b, down_a])
    return from_coo(side * side, rows, cols, np.ones(rows.size), is_pattern=True)


def barabasi_albert_adjacency(n: int, attach: int, seed: int) -> SparseSymMatrix:
    """Seeded Barabasi-Albert preferential attachment graph.

    Starts from a clique on attach + 1 nodes; every new node connects to
    ``attach`` distinct existing nodes sampled proportionally to degree.
    """
    if attach < 1 or n < attach + 1:
        raise ValueError("need attach >= 1 and n > attach")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in [0, 2^64)")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    edges = []
    endpoints = []  # node repeated once per incident edge
    m0 = attach + 1
    for i in range(m0):
        for j in range(i + 1, m0):
            edges.append((i, j))
            endpoints.extend((i, j))
    for v in range(m0, n):
        targets: set = set()
        while len(targets) < attach:
            pick = endpoints[int(rng.integers(0, len(endpoints)))]
            targets.add(pick)
        for t in targets:
            edges.append((t, v))
            endpoints.extend((t, v))
    rows = np.array([e[0] for e in edges] + [e[1] for e in edges], dtype=np.int64)
    cols = np.array([e[1] for e in edges] + [e[0] for e in edges], dtype=np.int64)
    return from_coo(n, rows, cols, np.ones(rows.size), is_pattern=True)


def parse_generator_spec(spec: str, seed: int | None = None):
    """Parse "grid2d:SIDE" or "ba:N:ATTACH" into (adjacency, label, meta)."""
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "grid2d":
        if len(parts) != 2:
            raise ValueError("grid2d generator spec is grid2d:SIDE")
        side = int(parts[1])
        return grid2d_adjacency(side), f"grid2d:{side}", {"grid_side": side}
    if kind == "ba":
        if len(parts) != 3:
            raise ValueError("ba generator spec is ba:N:ATTACH")
        n, attach = int(parts[1]), int(parts[2])
        return (
            barabasi_albert_adjacency(n, attach, 0 if seed is None else seed),
            f"ba:{n}:{attach}",
            {},
        )
    raise ValueError(f"unknown generator {kind!r}")
