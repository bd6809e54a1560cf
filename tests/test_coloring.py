import numpy as np
import pytest

from vnentropy import coloring
from vnentropy.coloring import (
    _distance_pattern,
    _from_colors,
    _plus_identity,
    bandwidth,
    banded_coloring,
    degree_descending_order,
    greedy_distance_coloring,
    grid2d_coloring,
    make_coloring,
    probing_vector_dense,
    rcm_order,
    validate_coloring,
)
from vnentropy.generators import grid2d_adjacency
from vnentropy.sparse import from_coo

from conftest import complete_graph, cycle_graph, path_graph, random_connected_graph


def star_graph(n, center):
    rows, cols = [], []
    for i in range(n):
        if i != center:
            rows += [center, i]
            cols += [i, center]
    return from_coo(n, rows, cols, np.ones(len(rows)))


class TestOrders:
    def test_star_center_first(self):
        order = degree_descending_order(star_graph(5, center=2))
        assert order[0] == 2

    def test_regular_graph_identity(self):
        order = degree_descending_order(complete_graph(6))
        assert np.array_equal(order, np.arange(6))

    def test_path_interior_first(self):
        order = degree_descending_order(path_graph(4))
        assert set(order[:2].tolist()) == {1, 2}
        assert set(order[2:].tolist()) == {0, 3}

    def test_rcm_keeps_path_banded(self):
        mat = path_graph(12)
        assert bandwidth(mat, rcm_order(mat)) == 1

    def test_rcm_restores_permuted_path_bandwidth(self, rng):
        n = 40
        perm = rng.permutation(n)
        rows = np.concatenate([perm[:-1], perm[1:]])
        cols = np.concatenate([perm[1:], perm[:-1]])
        mat = from_coo(n, rows, cols, np.ones(rows.size))
        assert bandwidth(mat) > 1
        assert bandwidth(mat, rcm_order(mat)) == 1

    def test_rcm_covers_components(self):
        mat = from_coo(4, [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        order = rcm_order(mat)
        assert sorted(order.tolist()) == [0, 1, 2, 3]


class TestGreedyColoring:
    def test_complete_graph_d1(self):
        col = greedy_distance_coloring(complete_graph(5), 1)
        assert col.num_colors == 5

    def test_edgeless_any_d(self):
        mat = from_coo(6, [], [], [])
        for d in (1, 2, 5):
            assert greedy_distance_coloring(mat, d).num_colors == 1

    def test_color_count_bound(self, rng):
        for _ in range(5):
            mat = random_connected_graph(60, 60, rng)
            maxdeg = int(mat.degrees().max())
            for d in (1, 2):
                col = greedy_distance_coloring(mat, d, degree_descending_order(mat))
                assert col.num_colors <= maxdeg**d + 1

    def test_valid_on_random_graphs(self, rng):
        for _ in range(25):
            mat = random_connected_graph(40, 40, rng)
            for d in (1, 2, 3):
                col = greedy_distance_coloring(mat, d, degree_descending_order(mat))
                ok, witness = validate_coloring(mat, col, d)
                assert ok, witness

    def test_power_pattern_route_matches_bfs(self, rng):
        for _ in range(25):
            mat = random_connected_graph(50, 70, rng)
            order = degree_descending_order(mat)
            for d in range(1, 6):
                col = greedy_distance_coloring(mat, d, order)
                assert np.array_equal(col.color, _bfs_greedy_colors(mat, d, order))
                ok, witness = validate_coloring(mat, col, d)
                assert ok, witness

    @pytest.mark.parametrize(
        "graph",
        [path_graph(30), cycle_graph(31), complete_graph(7), grid2d_adjacency(9)],
        ids=["path", "cycle", "complete", "grid"],
    )
    def test_distance_pattern_is_power_of_a_plus_i(self, graph, rng, monkeypatch):
        step = np.eye(graph.n, dtype=np.int64) + (graph.todense() != 0)
        order = rng.permutation(graph.n)
        # blocks of 7 rows put block boundaries all through the order
        monkeypatch.setattr(coloring, "COLOR_BLOCK", 7)
        for d in range(1, 6):
            power = np.linalg.matrix_power(step, d) != 0
            for rows in (np.arange(graph.n), order[:7]):
                reach = _distance_pattern(_plus_identity(graph), rows, d)
                assert np.array_equal(reach.toarray(), power[rows])
            col = greedy_distance_coloring(graph, d, order)
            assert np.array_equal(col.color, _bfs_greedy_colors(graph, d, order))

    def test_greedy_is_canonical(self, rng):
        # each node gets the minimum color absent among earlier nodes within d
        mat = random_connected_graph(30, 35, rng)
        d = 2
        order = degree_descending_order(mat)
        col = greedy_distance_coloring(mat, d, order)
        dense = mat.todense()
        dist = _pairwise_distances(dense)
        seen = []
        for i in order:
            forbidden = {col.color[j] for j in seen if dist[i, j] <= d}
            expect = 1
            while expect in forbidden:
                expect += 1
            assert col.color[i] == expect
            seen.append(i)

    def test_partition_invariants(self, rng):
        mat = random_connected_graph(30, 30, rng)
        col = greedy_distance_coloring(mat, 2)
        assert col.class_sizes().sum() == mat.n
        all_nodes = np.concatenate(col.classes)
        assert np.array_equal(np.sort(all_nodes), np.arange(mat.n))


def _bfs_greedy_colors(mat, d, order):
    """Reference greedy coloring: a depth-d BFS from each node in ``order``
    collects the colors already used within distance d."""
    color = np.zeros(mat.n, dtype=np.int64)
    for i in order:
        seen, frontier = {int(i)}, [int(i)]
        for _ in range(d):
            nxt = []
            for u in frontier:
                for v in mat.col_idx[mat.row_ptr[u] : mat.row_ptr[u + 1]]:
                    if int(v) not in seen:
                        seen.add(int(v))
                        nxt.append(int(v))
            frontier = nxt
        forbidden = {int(color[v]) for v in seen}
        c = 1
        while c in forbidden:
            c += 1
        color[i] = c
    return color


def _pairwise_distances(dense):
    n = dense.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0)
    dist[dense != 0] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


class TestBandedColoring:
    def test_formula_beta2_d1(self):
        col = banded_coloring(6, 2, 1)
        assert np.array_equal(col.color, [1, 2, 3, 1, 2, 3])

    def test_formula_beta1_d2(self):
        col = banded_coloring(4, 1, 2)
        assert np.array_equal(col.color, [1, 2, 3, 1])

    def test_color_count(self):
        assert banded_coloring(100, 3, 4).num_colors == 13
        assert banded_coloring(5, 3, 4).num_colors == 5

    def test_valid_on_random_tridiagonal(self, rng):
        n = 30
        mat = path_graph(n)  # bandwidth-1 pattern
        for d in (1, 2, 3):
            col = banded_coloring(n, 1, d)
            ok, _ = validate_coloring(mat, col, d)
            assert ok


class TestGrid2dColoring:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_color_count_and_validity(self, d):
        side = 50
        col = grid2d_coloring(side, d)
        expect = int(np.ceil((d + 1) ** 2 / 2))
        assert col.num_colors == expect
        ok, witness = validate_coloring(grid2d_adjacency(side), col, d)
        assert ok, witness

    def test_checkerboard(self):
        col = grid2d_coloring(4, 1)
        assert col.num_colors == 2

    def test_d2_five_colors_on_10x10(self):
        col = grid2d_coloring(10, 2)
        assert col.num_colors == 5
        ok, _ = validate_coloring(grid2d_adjacency(10), col, 2)
        assert ok

    def test_d3_eight_colors(self):
        assert grid2d_coloring(20, 3).num_colors == 8


class TestProbingVectors:
    def test_singletons_give_basis_vectors(self):
        col = greedy_distance_coloring(complete_graph(4), 1)
        assert col.num_colors == 4
        for ell in range(4):
            v = probing_vector_dense(col, ell)
            assert v.sum() == 1.0 and np.count_nonzero(v) == 1

    def test_single_class_gives_ones(self):
        mat = from_coo(5, [], [], [])
        col = greedy_distance_coloring(mat, 1)
        assert np.array_equal(probing_vector_dense(col, 0), np.ones(5))

    def test_vectors_partition_ones(self, rng):
        mat = random_connected_graph(25, 25, rng)
        col = greedy_distance_coloring(mat, 2)
        total = sum(probing_vector_dense(col, ell) for ell in range(col.num_colors))
        assert np.array_equal(total, np.ones(25))

    def test_norms(self, rng):
        mat = random_connected_graph(25, 25, rng)
        col = greedy_distance_coloring(mat, 2)
        for ell, cls in enumerate(col.classes):
            v = probing_vector_dense(col, ell)
            assert np.linalg.norm(v) == pytest.approx(np.sqrt(len(cls)))


class TestValidateColoring:
    def test_merged_colors_detected(self):
        mat = complete_graph(3)
        col = greedy_distance_coloring(mat, 1)
        bad = col.color.copy()
        bad[bad == 3] = 1
        merged = _from_colors(1, bad)
        ok, witness = validate_coloring(mat, merged, 1)
        assert not ok
        i, j = witness
        assert merged.color[i] == merged.color[j]

    @pytest.mark.parametrize(
        "graph",
        [path_graph(30), cycle_graph(31), grid2d_adjacency(9)],
        ids=["path", "cycle", "grid"],
    )
    @pytest.mark.parametrize("d", range(1, 6))
    def test_pair_at_distance_d_detected_at_d_plus_1_passes(self, graph, d, monkeypatch):
        # blocks of 7 rows put block boundaries all through the graph
        monkeypatch.setattr(coloring, "COLOR_BLOCK", 7)
        dist = _pairwise_distances(graph.todense())
        for i in (0, 8, graph.n // 2 + 3):
            for gap in (d, d + 1):
                j = int(np.flatnonzero(dist[i] == gap)[-1])
                color = np.arange(1, graph.n + 1)
                color[j] = color[i]
                ok, witness = validate_coloring(graph, _from_colors(d, color), d)
                if gap == d:
                    assert not ok
                    assert sorted(witness) == sorted((i, j))
                    assert color[witness[0]] == color[witness[1]]
                else:
                    assert ok and witness is None

    def test_full_band_banded_ok(self):
        n, beta, d = 20, 2, 2
        rows, cols = [], []
        for i in range(n):
            for j in range(max(0, i - beta), min(n, i + beta + 1)):
                if i != j:
                    rows.append(i)
                    cols.append(j)
        mat = from_coo(n, rows, cols, np.ones(len(rows)))
        ok, _ = validate_coloring(mat, banded_coloring(n, beta, d), d)
        assert ok


class TestMakeColoring:
    def test_matches_direct_constructions(self, rng):
        mat = random_connected_graph(60, 80, rng)
        for d in (1, 2, 3):
            for order, perm in (
                ("degree", degree_descending_order(mat)),
                ("rcm", rcm_order(mat)),
                ("natural", np.arange(mat.n)),
            ):
                col = make_coloring(mat, d, "greedy", order)
                assert np.array_equal(col.color, greedy_distance_coloring(mat, d, perm).color)
            banded = make_coloring(mat, d, "banded")
            assert banded.num_colors == min(mat.n, d * bandwidth(mat, rcm_order(mat)) + 1)
            assert validate_coloring(mat, banded, d)[0]
        grid = make_coloring(grid2d_adjacency(12), 3, "grid", grid_side=12)
        assert np.array_equal(grid.color, grid2d_coloring(12, 3).color)

    def test_rejects_bad_arguments(self):
        mat = grid2d_adjacency(5)
        with pytest.raises(ValueError):
            make_coloring(mat, 2, "grid", grid_side=4)
        with pytest.raises(ValueError):
            make_coloring(mat, 2, "lattice")
        with pytest.raises(ValueError):
            make_coloring(mat, 2, "greedy", "random")


class TestPaperBandwidth:
    def test_minnesota_rcm_bandwidth(self):
        import os

        path = None
        for base in (os.environ.get("VNENTROPY_DATA", ""), "data", "../data"):
            cand = os.path.join(base, "minnesota.mtx") if base else ""
            if cand and os.path.exists(cand):
                path = cand
                break
        if path is None:
            pytest.skip("minnesota.mtx not available (optional paper value)")
        from vnentropy.sparse import largest_component, parse_matrix_market

        with open(path, "rb") as fh:
            adj = parse_matrix_market(fh.read())
        comp, _ = largest_component(adj)
        assert bandwidth(comp, rcm_order(comp)) <= 67
