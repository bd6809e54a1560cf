"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures. Tolerances are pinned here, not configurable."""

import json
import os
import time

import numpy as np
import pytest

from vnentropy.bounds import (
    cheb_bound,
    entropy_poly_bound,
    near_best_slack,
    best_approx_error_oracle,
    probing_apriori_bound,
)
from vnentropy.cli import main as cli_main
from vnentropy.coloring import greedy_distance_coloring
from vnentropy.estimators import entropy_hutchpp, entropy_probing
from vnentropy.generators import barabasi_albert_adjacency, grid2d_adjacency
from vnentropy.krylov import (
    INF,
    XLOGX,
    DenseOperator,
    FunctionTriple,
    RationalArnoldiDecomposition,
    aposteriori_bounds,
    eds_poles,
    gm_estimate,
    quadform_value,
)
from vnentropy.sparse import (
    SpectralInterval,
    build_laplacian,
    dense_entropy_oracle,
    dense_sym_eig,
    largest_component,
    normalize_trace,
    parse_matrix_market,
)

from conftest import laplacian_density, random_connected_graph


def _report(label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _laplacian_density_from_adjacency(adj):
    comp, _ = largest_component(adj)
    return normalize_trace(build_laplacian(comp))


def test_criterion_1_dense_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 1000):
        err = abs(dense_entropy_oracle(np.eye(n) / n) - np.log(n))
        worst = max(worst, err)
    pure = dense_entropy_oracle(np.diag([1.0] + [0.0] * 9))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and pure == 0.0 and elapsed < 1.0
    _report(
        "criterion 1 (dense oracle)",
        ok,
        f"max |S - log n| = {worst:.2e}, pure state S = {pure}, {elapsed:.2f}s",
    )


def test_criterion_2_probing_end_to_end(capsys):
    results = []
    for gen, side in (("grid2d:50", 50), ("ba:1024:2", None)):
        t0 = time.perf_counter()
        code = cli_main(
            ["entropy", "--gen", gen, "--method", "probing", "--eps", "1e-4"]
        )
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - t0
        assert code == 0
        report = json.loads(out)
        if side:
            rho = _laplacian_density_from_adjacency(grid2d_adjacency(side))
        else:
            rho = _laplacian_density_from_adjacency(barabasi_albert_adjacency(1024, 2, 0))
        exact = dense_entropy_oracle(rho.matrix)
        rel = abs(report["value"] - exact) / exact
        results.append((gen, rel, elapsed))
    with capsys.disabled():
        ok = all(rel <= 1e-4 and t < 60 for _, rel, t in results)
        detail = "; ".join(f"{g}: rel err {r:.2e} in {t:.1f}s" for g, r, t in results)
        _report("criterion 2 (probing end-to-end, eps 1e-4)", ok, detail)


DATA_DIRS = [os.environ.get("VNENTROPY_DATA", ""), "data", "../data"]


def _find_matrix(name):
    for base in DATA_DIRS:
        if not base:
            continue
        path = os.path.join(base, f"{name}.mtx")
        if os.path.exists(path):
            return path
    return None


@pytest.mark.parametrize(
    "name,entropy_3dp,expect_d,expect_colors",
    [("minnesota", 7.607, 5, 24), ("yeast", 7.055, 3, 222)],
)
def test_criterion_3_paper_values(name, entropy_3dp, expect_d, expect_colors):
    path = _find_matrix(name)
    if path is None:
        pytest.skip(f"SuiteSparse file {name}.mtx not available (optional criterion)")
    with open(path, "rb") as fh:
        adj = parse_matrix_market(fh.read())
    rows = np.repeat(np.arange(adj.n), np.diff(adj.row_ptr))
    off = rows != adj.col_idx
    from vnentropy.sparse import from_coo

    adj = from_coo(adj.n, rows[off], adj.col_idx[off], np.ones(int(off.sum())), True)
    rho = _laplacian_density_from_adjacency(adj)
    exact = dense_entropy_oracle(rho.matrix)
    est = entropy_probing(rho, 1e-3)
    rel = abs(est.value - exact) / exact
    ok = round(exact, 3) == entropy_3dp and rel <= 1e-3
    flag = ""
    if abs(est.d - expect_d) > 1 or abs(est.colors - expect_colors) > 0.15 * expect_colors:
        flag = f" [flag: d={est.d}/colors={est.colors} vs paper {expect_d}/{expect_colors}]"
    _report(
        f"criterion 3 ({name})",
        ok,
        f"S = {exact:.3f} (paper {entropy_3dp}), probing rel err {rel:.2e}, "
        f"d = {est.d}, colors = {est.colors}{flag}",
    )


def test_criterion_4_bound_suites(rng):
    t0 = time.perf_counter()
    # (a) probing error within the a priori coloring bound
    worst_ratio = 0.0
    for trial in range(20):
        n = int(rng.integers(50, 301))
        rho = laplacian_density(random_connected_graph(n, int(rng.integers(n // 2, 2 * n)), rng))
        w, u = dense_sym_eig(rho.matrix.todense())
        w = np.clip(w, 0.0, None)
        fa = (u * np.asarray(XLOGX.f(w))) @ u.T * -1.0
        exact = float(np.trace(fa))
        b_exact = float(w.max())
        for d in range(2, 13):
            coloring = greedy_distance_coloring(rho.matrix, d)
            trace_p = sum(float(fa[np.ix_(c, c)].sum()) for c in coloring.classes)
            bound = probing_apriori_bound(d, rho.n, 0.0, b_exact)
            err = abs(exact - trace_p)
            worst_ratio = max(worst_ratio, err / bound)
            assert err <= bound
    # (b) scalar bound orderings
    for k in range(2, 61):
        assert entropy_poly_bound(k, 0.0, 1.0) <= cheb_bound(k, 1.0)
        for a, b in ((0.0, 1.0), (1e-6, 1e-2), (1e-3, 1.0)):
            oracle = best_approx_error_oracle(k, a, b)
            assert entropy_poly_bound(k, a, b) >= oracle / near_best_slack(k)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    _report(
        "criterion 4 (bound suites)",
        ok,
        f"probing error/bound worst ratio {worst_ratio:.3f}; "
        f"Thm-2.2 within [oracle/slack, Chebyshev] for k in [2,60]; {elapsed:.1f}s",
    )


def test_criterion_5_krylov_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(517)
    worst = 0.0
    for trial in range(100):
        n = 40
        m = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.5, 3.0, n)
        a = q @ np.diag(lam) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        poles = -rng.uniform(0.1, 10.0, m - 1)
        coef = rng.standard_normal(2 * m)

        def f_rat(x, poles=poles, coef=coef):
            denom = np.ones_like(x)
            for xi in poles:
                denom = denom * (1 - x / xi)
            return np.polyval(coef, x) / denom**2

        fun = FunctionTriple(f=f_rat)
        decomp = RationalArnoldiDecomposition(DenseOperator(a), b)
        for xi in poles:
            decomp.step(xi)
        psi_m = quadform_value(decomp, fun)
        w, u = np.linalg.eigh(a)
        psi = float(b @ u @ (f_rat(w) * (u.T @ b)))
        worst = max(worst, abs(psi_m - psi) / abs(psi))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30
    _report(
        "criterion 5 (rational exactness)",
        ok,
        f"worst relative discrepancy {worst:.2e} over 100 trials; {elapsed:.1f}s",
    )


def test_criterion_6_aposteriori_sandwich():
    t0 = time.perf_counter()
    n = 500
    lo, hi = 1e-3, 1e3
    nodes = lo + (hi - lo) * 0.5 * (1 + np.cos(np.pi * np.arange(n) / (n - 1)))
    a = np.diag(nodes)
    rng = np.random.default_rng(64)
    b = rng.standard_normal(n)
    psi = float(b @ (nodes * np.log(nodes) * b))
    interval = SpectralInterval(lo, hi)
    eds = eds_poles(interval, 30)
    schedules = {
        "polynomial": [INF] * 30,
        "eds": list(eds.poles[:25]),
        "mixed 10+10": [INF] * 10 + list(eds.poles[:15]),
    }
    checked = 0
    for label, poles in schedules.items():
        decomp = RationalArnoldiDecomposition(DenseOperator(a), b)
        for xi in poles:
            if decomp.exhausted:
                break
            decomp.step(xi)
            err = abs(quadform_value(decomp, XLOGX) - psi)
            if err < 1e-10 * abs(psi):
                break  # at rounding level; bounds no longer meaningful
            lower, upper = aposteriori_bounds(decomp, XLOGX, interval)
            est = gm_estimate(lower, upper)
            assert lower <= err * (1 + 1e-9), (label, decomp.eval_dim)
            assert err <= upper * (1 + 1e-9), (label, decomp.eval_dim)
            assert lower <= est <= upper
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 50 and elapsed < 60
    _report(
        "criterion 6 (a posteriori sandwich)",
        ok,
        f"{checked} iterations sandwiched across 3 schedules; {elapsed:.1f}s",
    )


def test_criterion_7_m_matrix_lower_bound(rng):
    t0 = time.perf_counter()
    from vnentropy.estimators import KrylovEntropyProvider, probing_trace

    tau = 1e-8
    margin_worst = -np.inf
    for trial in range(50):
        n = int(rng.integers(50, 301))
        rho = laplacian_density(random_connected_graph(n, int(rng.integers(n // 2, 2 * n)), rng))
        exact = dense_entropy_oracle(rho.matrix)
        provider = KrylovEntropyProvider(rho)
        for d in (1, 2, 3):
            coloring = greedy_distance_coloring(rho.matrix, d)
            value = sum(
                provider.quadform(_indicator(coloring, ell), tol_abs=tau)
                for ell in range(coloring.num_colors)
            )
            slack = exact + coloring.num_colors * tau - value
            margin_worst = max(margin_worst, value - exact)
            assert slack >= 0, (trial, d)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    _report(
        "criterion 7 (M-matrix lower bound)",
        ok,
        f"traceP_d <= S + s*tau on 150 runs, worst excess {margin_worst:.2e}; {elapsed:.1f}s",
    )


def _indicator(coloring, ell):
    v = np.zeros(coloring.n)
    v[coloring.classes[ell]] = 1.0
    return v


def test_criterion_8_stochastic_statistics(rng):
    t0 = time.perf_counter()
    rho = laplacian_density(random_connected_graph(500, 650, rng))
    exact = dense_entropy_oracle(rho.matrix)
    errors = []
    for seed in range(100):
        est = entropy_hutchpp(rho, 1e-2, 1e-2, seed=seed)
        errors.append(abs(est.value - exact) / exact)
    errors = np.array(errors)
    failures = float((errors > 1e-2).mean())
    mean_err = float(errors.mean())
    elapsed = time.perf_counter() - t0
    ok = failures <= 0.05 and mean_err <= 5e-3 and elapsed < 600
    _report(
        "criterion 8 (adaptive Hutch++ statistics)",
        ok,
        f"failure fraction {failures:.2%}, mean rel err {mean_err:.2e}; {elapsed:.0f}s",
    )


@pytest.mark.parametrize("family", ["grid2d", "ba"])
def test_criterion_9_scaling_shape(family):
    t0 = time.perf_counter()
    if family == "grid2d":
        sides = [32, 45, 64, 91, 128, 181, 256]
        sizes = [s * s for s in sides]
    else:
        sizes = [2**k for k in range(10, 17)]
    colors = []
    hutch_totals = []
    for size in sizes:
        if family == "grid2d":
            side = int(round(np.sqrt(size)))
            rho = _laplacian_density_from_adjacency(grid2d_adjacency(side))
            est = entropy_probing(
                rho, 1e-4, d_override=4, coloring_method="grid", grid_side=side
            )
        else:
            rho = _laplacian_density_from_adjacency(
                barabasi_albert_adjacency(size, 2, 0)
            )
            est = entropy_probing(rho, 1e-2, d_override=2, solver_backend="cg")
        colors.append(est.colors)
        # adaptive Hutch++ in the floor-dominated regime: counts stay flat
        hp = entropy_hutchpp(rho, 0.15, 1e-2, seed=1)
        hutch_totals.append(hp.n_rank + hp.n_hutch)
    if family == "grid2d":
        shape_ok = len(set(colors)) == 1
        shape_desc = f"colors constant = {colors[0]}"
    else:
        shape_ok = all(x < y for x, y in zip(colors, colors[1:]))
        shape_desc = f"colors strictly increasing {colors}"
    mean_total = float(np.mean(hutch_totals))
    flat_ok = all(0.5 * mean_total <= t <= 1.5 * mean_total for t in hutch_totals)
    elapsed = time.perf_counter() - t0
    ok = shape_ok and flat_ok and elapsed < 900
    _report(
        f"criterion 9 ({family} scaling)",
        ok,
        f"{shape_desc}; hutch++ totals {hutch_totals} within +-50% of mean "
        f"{mean_total:.1f}; {elapsed:.0f}s",
    )


def test_criterion_10_determinism(capsys):
    t0 = time.perf_counter()
    args = ["entropy", "--gen", "ba:300:2", "--method", "adaptive-hutchpp",
            "--eps", "5e-2", "--delta", "1e-1", "--seed", "42"]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    second = capsys.readouterr().out
    rep1, rep2 = json.loads(first), json.loads(second)
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    same = json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    elapsed = time.perf_counter() - t0
    ok = same and elapsed < 10
    with capsys.disabled():
        _report(
            "criterion 10 (determinism)",
            ok,
            f"seed replay identical excluding wall_time; {elapsed:.1f}s",
        )
