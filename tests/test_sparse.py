import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components, shortest_path

import vnentropy.sparse
from vnentropy.generators import barabasi_albert_adjacency, grid2d_adjacency
from vnentropy.sparse import (
    MatrixFormatError,
    build_laplacian,
    dense_entropy_oracle,
    dense_sym_eig,
    entropy_rescale,
    from_coo,
    laplacian_interval,
    largest_component,
    matvec,
    normalize_trace,
    parse_matrix_market,
    spectral_interval,
    write_matrix_market,
)

from conftest import (
    complete_graph,
    cycle_graph,
    laplacian_density,
    path_graph,
    random_connected_graph,
)

P3_MM = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 2
"""


class TestParseMatrixMarket:
    def test_pattern_symmetric_completion(self):
        mat = parse_matrix_market(P3_MM)
        assert mat.n == 3 and mat.nnz == 4
        assert np.allclose(mat.todense(), path_graph(3).todense())

    def test_single_diagonal_entry(self):
        mat = parse_matrix_market(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 5.0\n"
        )
        assert mat.n == 1 and mat.todense()[0, 0] == 5.0

    def test_general_structurally_symmetric(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 3.0\n2 1 3.0\n"
        )
        mat = parse_matrix_market(text)
        assert mat.nnz == 2

    def test_comment_lines_skipped(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n% a comment\n2 2 1\n2 1\n"
        assert parse_matrix_market(text).nnz == 2

    @pytest.mark.parametrize(
        "text",
        [
            "%%NotMatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n",
            "%%MatrixMarket matrix array real symmetric\n1 1\n1.0\n",
            "%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1 0\n",
            pytest.param(
                "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
                id="skew-symmetric",
            ),
            pytest.param(
                "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n2 1 1.0 0.0\n",
                id="hermitian",
            ),
            pytest.param("%%MatrixMarket vector coordinate real general\n3 1\n1 1.0\n", id="vector"),
            pytest.param("%%MatrixMarket matrix coordinate real general\n3 2 1\n2 1 1.0\n", id="non-square"),
            pytest.param(P3_MM.rsplit("\n", 2)[0] + "\n", id="truncated"),
            pytest.param(P3_MM + "3 1\n", id="too-many-entries"),
            pytest.param(P3_MM.replace("2 1\n", "0 1\n"), id="index-0"),
            pytest.param(
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 one\n",
                id="non-numeric",
            ),
            pytest.param(P3_MM.replace("2 1\n", "2 1\n% a comment\n"), id="comment-in-entries"),
            # mmread alone would read the numeric prefix of each of these values
            *(
                pytest.param(
                    f"%%MatrixMarket matrix coordinate {field} symmetric\n2 2 1\n2 1 {tok}\n", id=f"{field}-{tok}"
                )
                for field in ("real", "integer")
                for tok in ("2,5", "1.5abc", "3e", "0x1p3", "1.2.3") + (("1.5",) if field == "integer" else ())
            ),
        ],
    )
    def test_malformed_header(self, text):
        with pytest.raises(MatrixFormatError):
            parse_matrix_market(text)

    def test_number_forms(self):
        toks = ["5", "-1.5", "5.", ".5e1", "1.e+2", "-2.5E-3", "1e5"]
        body = "".join(f"{i} {i} {t}\n" for i, t in enumerate(toks, 1))
        mat = parse_matrix_market(f"%%MatrixMarket matrix coordinate real general\n7 7 7\n{body}")
        assert mat.diagonal().tolist() == [float(t) for t in toks]

    def test_out_of_range_index(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n"
        with pytest.raises(MatrixFormatError):
            parse_matrix_market(text)

    def test_asymmetric_general_rejected(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n"
        with pytest.raises(MatrixFormatError):
            parse_matrix_market(text)

    def test_roundtrip_identity(self, rng):
        mat = random_connected_graph(17, 20, rng)
        again = parse_matrix_market(write_matrix_market(mat))
        assert again.n == mat.n
        assert np.array_equal(again.row_ptr, mat.row_ptr)
        assert np.array_equal(again.col_idx, mat.col_idx)
        assert np.array_equal(again.values, mat.values)
        assert again.is_pattern == mat.is_pattern

    def test_roundtrip_real_values(self, rng):
        n = 10
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T
        rows, cols = np.nonzero(dense)
        mat = from_coo(n, rows, cols, dense[rows, cols])
        again = parse_matrix_market(write_matrix_market(mat))
        assert np.allclose(again.todense(), mat.todense(), rtol=0, atol=0)


class TestBuildLaplacian:
    def test_path_p3(self):
        lap = build_laplacian(path_graph(3))
        expect = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.array_equal(lap.todense(), expect)

    def test_complete_graph(self):
        n = 6
        lap = build_laplacian(complete_graph(n)).todense()
        assert np.allclose(np.diag(lap), n - 1)
        off = lap[~np.eye(n, dtype=bool)]
        assert np.all(off == -1.0)

    def test_nonzero_diagonal_rejected(self):
        mat = from_coo(2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(MatrixFormatError):
            build_laplacian(mat)

    def test_negative_weight_rejected(self):
        mat = from_coo(2, [0, 1], [1, 0], [-1.0, -1.0])
        with pytest.raises(MatrixFormatError):
            build_laplacian(mat)

    def test_rows_sum_to_zero_random(self, rng):
        for _ in range(10):
            lap = build_laplacian(random_connected_graph(60, 80, rng))
            norm = np.abs(lap.values).max()
            assert np.abs(matvec(lap, np.ones(lap.n))).max() <= 1e-13 * norm


class TestLargestComponent:
    def test_two_triangles_with_pendant(self):
        rows = [0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 0, 6]
        cols = [1, 0, 2, 1, 0, 2, 4, 3, 5, 4, 3, 5, 6, 0]
        mat = from_coo(7, rows, cols, np.ones(len(rows)))
        sub, mapping = largest_component(mat)
        assert sub.n == 4
        assert sorted(np.flatnonzero(mapping >= 0).tolist()) == [0, 1, 2, 6]

    def test_connected_identity_map(self, rng):
        mat = random_connected_graph(30, 30, rng)
        sub, mapping = largest_component(mat)
        assert sub is mat  # nothing to drop, so nothing is rebuilt
        assert np.array_equal(mapping, np.arange(30))

    def test_tie_breaks_to_smallest_index(self):
        # two disjoint edges: both size 2, component containing node 0 wins
        mat = from_coo(4, [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        sub, mapping = largest_component(mat)
        assert sub.n == 2
        assert mapping[0] == 0 and mapping[2] == -1

    def test_csgraph_labels_match_bfs_numbering(self, rng):
        # components numbered by their smallest node; the first largest wins
        for _ in range(200):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, n + 1))
            i, j = rng.integers(0, n, m), rng.integers(0, n, m)
            edges = {(int(a), int(b)) for a, b in zip(np.minimum(i, j), np.maximum(i, j)) if a != b}
            rows = [a for a, _ in edges] + [b for _, b in edges]
            cols = [b for _, b in edges] + [a for a, _ in edges]
            mat = from_coo(n, rows, cols, np.ones(len(rows)))
            labels = bfs_component_labels(mat)
            _, got = connected_components(mat.pattern(), directed=False)
            assert np.array_equal(got, labels)
            keep = labels == np.argmax(np.bincount(labels))
            _, mapping = largest_component(mat)
            assert np.array_equal(mapping >= 0, keep)


def bfs_component_labels(mat):
    """Component labels in order of discovery from node 0."""
    labels = np.full(mat.n, -1, dtype=np.int64)
    ncomp = 0
    for s in range(mat.n):
        if labels[s] >= 0:
            continue
        labels[s] = ncomp
        queue = [s]
        while queue:
            u = queue.pop()
            for v in mat.col_idx[mat.row_ptr[u] : mat.row_ptr[u + 1]]:
                if labels[v] < 0:
                    labels[v] = ncomp
                    queue.append(v)
        ncomp += 1
    return labels


class TestNormalizeAndRescale:
    def test_p3_diagonal(self):
        rho = normalize_trace(build_laplacian(path_graph(3)))
        assert np.allclose(rho.matrix.diagonal(), [0.25, 0.5, 0.25])
        assert rho.scale == 0.25 and rho.trace_raw == 4.0

    def test_unit_trace_scale_one(self):
        mat = from_coo(2, [0, 1], [0, 1], [0.5, 0.5])
        assert normalize_trace(mat).scale == 1.0

    def test_k4_scale(self):
        rho = normalize_trace(build_laplacian(complete_graph(4)))
        assert rho.scale == pytest.approx(1 / 12)

    def test_zero_trace_rejected(self):
        mat = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            normalize_trace(mat)

    def test_rescale_gamma_one(self):
        assert entropy_rescale(1.0, 1.234, 5.0) == 1.234

    def test_rescale_identity_half(self):
        # A = I_2, gamma = 1/2: S(A) = 0, trace 2 -> log 2
        assert entropy_rescale(0.5, 0.0, 2.0) == pytest.approx(np.log(2))

    def test_rescale_matches_dense_oracle(self):
        # A = diag(2, 2), gamma = 1/4 -> rho = diag(.5, .5)
        s_a = dense_entropy_oracle(np.diag([2.0, 2.0]))
        s_rho = dense_entropy_oracle(np.diag([0.5, 0.5]))
        assert entropy_rescale(0.25, s_a, 4.0) == pytest.approx(s_rho, rel=1e-12)
        assert s_rho == pytest.approx(np.log(2))

    def test_rescale_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            entropy_rescale(0.0, 1.0, 1.0)

    def test_normalize_then_oracle_equals_rescale(self, rng):
        for _ in range(5):
            lap = build_laplacian(random_connected_graph(80, 100, rng))
            rho = normalize_trace(lap)
            s_rho = dense_entropy_oracle(rho.matrix)
            s_l = dense_entropy_oracle(lap)
            expected = entropy_rescale(rho.scale, s_l, rho.trace_raw)
            assert s_rho == pytest.approx(expected, rel=1e-10)


class TestMatvec:
    def test_row_indices_align_with_entries(self, rng):
        assert path_graph(3).row_indices().tolist() == [0, 1, 1, 2]
        mat = random_connected_graph(30, 40, rng)
        rows = mat.row_indices()
        assert rows.shape == mat.col_idx.shape
        assert np.array_equal(mat.todense()[rows, mat.col_idx], mat.values)
        assert np.array_equal(rows, np.nonzero(mat.todense())[0])

    def test_identity(self, rng):
        n = 9
        eye = from_coo(n, range(n), range(n), np.ones(n))
        x = rng.standard_normal(n)
        assert np.array_equal(matvec(eye, x), x)

    def test_laplacian_annihilates_ones(self):
        lap = build_laplacian(path_graph(3))
        assert np.array_equal(matvec(lap, np.ones(3)), np.zeros(3))

    def test_against_dense(self, rng):
        n = 20
        dense = rng.standard_normal((n, n))
        dense = dense @ dense.T
        rows, cols = np.nonzero(dense)
        mat = from_coo(n, rows, cols, dense[rows, cols])
        x = rng.standard_normal(n)
        bound = 1e-14 * np.linalg.norm(dense, 2) * np.linalg.norm(x)
        assert np.abs(matvec(mat, x) - dense @ x).max() <= bound

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec(path_graph(3), np.ones(4))

    @pytest.mark.parametrize("adjacency", [grid2d_adjacency(15), barabasi_albert_adjacency(300, 2, 5)])
    def test_bitwise_scipy_product(self, rng, adjacency):
        """The direct CSR kernel call gives the bits of scipy's operator."""
        lap = build_laplacian(adjacency)
        x = rng.standard_normal(lap.n)
        assert np.array_equal(matvec(lap, x), lap._csr @ x)
        assert np.array_equal(matvec(lap, x[::-1]), lap._csr @ x[::-1])


def _reference_interval(mat, desingularize, iters, lower_safety=0.5, upper_safety=1.1, seed=0):
    """Lanczos sweep with two unconditional Gram-Schmidt passes per step over
    a column-major (n, m) basis: the loop spectral_interval used before the
    three-term recurrence, kept as the reference for its values."""
    n = mat.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    ones = np.ones(n) / np.sqrt(n)
    if desingularize:
        v -= ones @ v * ones
    v /= np.linalg.norm(v)
    m = min(iters, n - 1 if desingularize else n)
    basis = np.zeros((n, m))
    alpha = np.zeros(m)
    beta = np.zeros(m)
    basis[:, 0] = v
    k = 0
    for k in range(m):
        w = matvec(mat, basis[:, k])
        alpha[k] = basis[:, k] @ w
        w -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ w)
        w -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ w)
        if desingularize:
            w -= ones @ w * ones
        nw = np.linalg.norm(w)
        if k + 1 >= m or nw < 1e-13 * max(1.0, np.abs(alpha).max()):
            k += 1
            break
        beta[k] = nw
        basis[:, k + 1] = w / nw
    t = np.diag(alpha[:k])
    if k > 1:
        t += np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
    ritz = np.linalg.eigvalsh(t)
    return max(0.0, float(ritz[0]) * lower_safety), float(ritz[-1]) * upper_safety


def _interval_case_matrix(name):
    if name.startswith("ba-"):
        adjacency = barabasi_albert_adjacency(1024, 2, int(name[3:]))
    elif name.startswith("grid-"):
        adjacency = grid2d_adjacency(int(name[5:]))
    elif name == "random":
        adjacency = random_connected_graph(300, 400, np.random.default_rng(5))
    else:
        make = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}[name]
        adjacency = make(40)
    return laplacian_density(adjacency).matrix


INTERVAL_CASES = [
    "path", "cycle", "complete", "grid-30", "grid-60",
    "ba-7000", "ba-7001", "ba-11000", "random",
]


class TestSpectralInterval:
    def test_cycle_c4(self):
        lap = build_laplacian(cycle_graph(4))
        iv = spectral_interval(lap, desingularize=True, iters=10)
        assert iv.provenance == "ritz-uncertified" and iv.a <= 2.0 <= 4.0 <= iv.b

    def test_identity(self):
        n = 12
        eye = from_coo(n, range(n), range(n), np.ones(n))
        iv = spectral_interval(eye, iters=5)
        assert iv.a <= 1.0 <= iv.b

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            spectral_interval(path_graph(4), iters=1)

    def test_contains_spectrum(self, rng):
        for _ in range(5):
            lap = build_laplacian(random_connected_graph(120, 150, rng))
            iv = spectral_interval(lap, desingularize=True, iters=60)
            w, _ = dense_sym_eig(lap.todense())
            nonzero = w[w > 1e-10 * w.max()]
            assert iv.a <= nonzero.min() + 1e-12
            assert nonzero.max() <= iv.b + 1e-12

    @pytest.mark.parametrize("iters", [10, 60, 200])
    @pytest.mark.parametrize("desingularize", [True, False])
    @pytest.mark.parametrize("name", INTERVAL_CASES)
    def test_matches_two_pass_reference(self, name, desingularize, iters):
        mat = _interval_case_matrix(name)
        iv = spectral_interval(mat, desingularize=desingularize, iters=iters)
        ref_a, ref_b = _reference_interval(mat, desingularize, iters)
        assert abs(iv.b - ref_b) <= 1e-10 * ref_b
        if desingularize:
            assert abs(iv.a - ref_a) <= 1e-10 * ref_a
        else:
            # the smallest eigenvalue is 0: its Ritz value is rounding noise
            # (clamped at 0) or converging to 0, so check it on the scale of b
            assert abs(iv.a - ref_a) <= 1e-14 * ref_b

    @pytest.mark.parametrize("desingularize", [True, False])
    def test_early_breakdown_reads_no_unset_basis_row(self, monkeypatch, desingularize):
        # the complete graph's Krylov space has dimension 1 (2 without the
        # projection); NaN-filled storage would leak into [a, b] if the exit
        # read a basis row the sweep never wrote
        mat = _interval_case_matrix("complete")
        ref = _reference_interval(mat, desingularize, 200)
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", lambda shape, *args, **kw: np.full(shape, np.nan))
            iv = spectral_interval(mat, desingularize=desingularize)
        assert np.isfinite([iv.a, iv.b]).all()
        assert iv.b == pytest.approx(ref[1], rel=1e-12)
        assert iv.a == pytest.approx(ref[0], rel=1e-12, abs=1e-13 * ref[1])

    @pytest.mark.parametrize(
        "name, desingularize, iters, expected",
        [
            ("grid-30", True, 200, 200),
            ("grid-30", False, 60, 60),
            ("path", True, 200, 39),
            ("path", False, 200, 40),
        ],
    )
    def test_sweep_makes_one_matvec_per_step(self, monkeypatch, name, desingularize, iters, expected):
        # min(iters, n - 1) products with the projection, min(iters, n) without
        mat = _interval_case_matrix(name)
        calls = []
        inner = vnentropy.sparse.matvec

        def counting(m, x):
            calls.append(x.size)
            return inner(m, x)

        monkeypatch.setattr(vnentropy.sparse, "matvec", counting)
        spectral_interval(mat, desingularize=desingularize, iters=iters)
        assert calls == [mat.n] * expected


def _weighted_graph(n, extra_edges, seed):
    """Random connected graph with edge weights in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    pattern = random_connected_graph(n, extra_edges, rng)
    rows = pattern.row_indices()
    upper = rows < pattern.col_idx
    r, c = rows[upper], pattern.col_idx[upper]
    w = rng.uniform(0.1, 10.0, r.size)
    return from_coo(n, np.r_[r, c], np.r_[c, r], np.r_[w, w])


def _weak_link_path(n, weak):
    """Path graph with unit weights except one middle edge of weight weak:
    lambda_2 is about 4 weak / n, so the min(w) in a is what certifies it."""
    i = np.arange(n - 1)
    w = np.ones(n - 1)
    w[n // 2] = weak
    return from_coo(n, np.r_[i, i + 1], np.r_[i + 1, i], np.r_[w, w])


CERTIFIED_CASES = {
    "path-40": lambda: path_graph(40),
    "path-2000": lambda: path_graph(2000),
    "cycle-41": lambda: cycle_graph(41),
    "complete-12": lambda: complete_graph(12),
    "complete-2": lambda: complete_graph(2),
    "grid-20": lambda: grid2d_adjacency(20),
    "ba-7000": lambda: barabasi_albert_adjacency(1024, 2, 7000),
    "ba-300-3": lambda: barabasi_albert_adjacency(300, 3, 1),
    "random-1": lambda: random_connected_graph(200, 30, np.random.default_rng(1)),
    "random-2": lambda: random_connected_graph(300, 400, np.random.default_rng(2)),
    "random-3": lambda: random_connected_graph(80, 600, np.random.default_rng(3)),
    "weighted": lambda: _weighted_graph(150, 200, 4),
    "weak-link-path": lambda: _weak_link_path(40, 1e-3),
}


def _dense_density(dense):
    rows, cols = np.nonzero(dense)
    return normalize_trace(from_coo(dense.shape[0], rows, cols, dense[rows, cols]))


def _shifted_grid(sigma):
    """grid2d:20 Laplacian + sigma I: negative off-diagonals, nonzero row sums."""
    return _dense_density(build_laplacian(grid2d_adjacency(20)).todense() + sigma * np.eye(400))


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.05)
    return _dense_density(b @ b.T + 1e-2 * np.eye(n))


def _disconnected_laplacian():
    """Paths 0..29 and 30..49: a Laplacian whose BFS from node 0 stops short."""
    i = np.r_[np.arange(29), np.arange(30, 49)]
    return laplacian_density(from_coo(50, np.r_[i, i + 1], np.r_[i + 1, i], np.ones(2 * i.size)))


FALLBACK_CASES = {
    "grid-20+1e-3": lambda: _shifted_grid(1e-3),
    "grid-20+1e-2": lambda: _shifted_grid(1e-2),
    "random-spd": lambda: _random_spd(120, 5),
    "disconnected-laplacian": _disconnected_laplacian,
}


class TestLaplacianInterval:
    @pytest.mark.parametrize("name", CERTIFIED_CASES)
    def test_certified_against_dense_spectrum(self, name):
        density = laplacian_density(CERTIFIED_CASES[name]())
        iv = laplacian_interval(density)
        w = np.linalg.eigvalsh(density.matrix.todense())
        assert iv.provenance == "closed-form"
        # slack for the dense eigensolver's rounding only
        assert 0 < iv.a <= w[1] + 1e-13 * w[-1]
        assert w[-1] <= iv.b * (1 + 1e-13)
        diameter = shortest_path(density.matrix.pattern(), unweighted=True).max()
        assert diameter <= iv.diameter_bound

    def test_closed_forms_on_grid(self):
        # binary Laplacian: w = s, max deg_i + deg_j = 8, ecc(corner 0) = 2 (side - 1)
        side = 20
        density = laplacian_density(grid2d_adjacency(side))
        iv = laplacian_interval(density)
        s, n = density.scale, side * side
        assert iv.diameter_bound == 4 * (side - 1)
        assert iv.a == pytest.approx(4 * s / (n * iv.diameter_bound), rel=1e-15)
        assert iv.b == pytest.approx(8 * s, rel=1e-15)

    def test_no_products_with_rho(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form must not touch rho's products")

        monkeypatch.setattr(vnentropy.sparse, "matvec", forbidden)
        monkeypatch.setattr(vnentropy.sparse, "spectral_interval", forbidden)
        assert laplacian_interval(laplacian_density(grid2d_adjacency(12))).provenance == "closed-form"

    def test_non_laplacian_spd_gets_gershgorin_b(self):
        # positive off-diagonals and nonzero row sums: not a Laplacian
        n = 60
        i = np.arange(n - 1)
        rows = np.r_[np.arange(n), i, i + 1]
        cols = np.r_[np.arange(n), i + 1, i]
        vals = np.r_[np.linspace(1.0, 3.0, n), np.full(2 * (n - 1), 0.4)]
        density = normalize_trace(from_coo(n, rows, cols, vals))
        iv = laplacian_interval(density)
        dense = density.matrix.todense()
        assert iv.provenance == "gershgorin" and iv.diameter_bound is None
        assert iv.b == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-15)
        assert np.linalg.eigvalsh(dense)[-1] <= iv.b

    def test_disconnected_laplacian_falls_back(self):
        # zero row sums and negative off-diagonals, but the BFS from node 0
        # misses the second component
        density = _disconnected_laplacian()
        iv = laplacian_interval(density)
        dense = density.matrix.todense()
        assert iv.provenance == "gershgorin" and iv.diameter_bound is None
        assert iv.a == 0.0
        assert iv.b == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-15)
        assert np.linalg.eigvalsh(dense)[-1] <= iv.b

    @pytest.mark.parametrize("name", FALLBACK_CASES)
    def test_fallback_encloses_dense_spectrum(self, name, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the fallback must not run the Lanczos sweep")

        monkeypatch.setattr(vnentropy.sparse, "spectral_interval", forbidden)
        density = FALLBACK_CASES[name]()
        iv = laplacian_interval(density)
        w = np.linalg.eigvalsh(density.matrix.todense())
        assert iv.provenance == "gershgorin"
        # slack for the dense eigensolver's rounding only
        assert 0 <= iv.a <= w[0] + 1e-13 * w[-1]
        assert w[-1] <= iv.b * (1 + 1e-13)


class TestDenseOracle:
    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_maximally_mixed(self, n):
        assert dense_entropy_oracle(np.eye(n) / n) == pytest.approx(np.log(n), abs=1e-12)

    def test_pure_state(self):
        assert dense_entropy_oracle(np.diag([1.0, 0.0, 0.0])) == 0.0

    def test_cap(self):
        with pytest.raises(ValueError):
            dense_entropy_oracle(np.eye(10), cap=5)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            dense_entropy_oracle(np.diag([1.0, -0.5]))

    def test_tiny_negative_clamped(self):
        val = dense_entropy_oracle(np.diag([1.0, -1e-16]))
        assert val == 0.0


class TestDenseSymEig:
    def test_sorted_eigenvalues(self):
        w, _ = dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_off_diagonal(self):
        w, _ = dense_sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_residual_contract(self, rng):
        n = 50
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, u = dense_sym_eig(a)
        norm = np.linalg.norm(a, 2)
        assert np.linalg.norm(a @ u - u * w) <= 1e-12 * n * norm
        assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-12 * n

    def test_asymmetric_rejected(self, rng):
        with pytest.raises(ValueError):
            dense_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
