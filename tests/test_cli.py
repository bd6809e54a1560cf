import argparse
import json
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import vnentropy
from vnentropy import cli
from vnentropy.cli import REPORT_SCHEMA, main
from vnentropy.generators import barabasi_albert_adjacency, grid2d_adjacency
from vnentropy.sparse import dense_entropy_oracle, from_coo, largest_component, write_matrix_market


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall_time(text):
    return re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": 0', text)


class TestEntropyCommand:
    def test_probing_report_schema(self, capsys):
        code, out, _ = run_cli(
            ["entropy", "--gen", "ba:300:2", "--method", "probing", "--eps", "1e-3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["method"] == "probing"
        assert "d" in report and "colors" in report

    def test_stochastic_report_schema(self, capsys):
        code, out, _ = run_cli(
            ["entropy", "--gen", "grid2d:14", "--method", "adaptive-hutchpp",
             "--eps", "2e-2", "--delta", "1e-1", "--seed", "3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["N_r"] >= 3 and report["seed"] == 3

    def test_seed_replay_byte_identical(self, capsys):
        args = ["entropy", "--gen", "ba:256:2", "--method", "adaptive-hutchpp",
                "--eps", "3e-2", "--delta", "1e-1", "--seed", "11"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert strip_wall_time(out1) == strip_wall_time(out2)

    def test_probing_accuracy_against_oracle(self, capsys):
        code, out, _ = run_cli(
            ["entropy", "--gen", "grid2d:12", "--method", "probing", "--eps", "1e-3"],
            capsys,
        )
        report = json.loads(out)
        from vnentropy.generators import grid2d_adjacency
        from vnentropy.sparse import build_laplacian, normalize_trace

        rho = normalize_trace(build_laplacian(grid2d_adjacency(12)))
        exact = dense_entropy_oracle(rho.matrix)
        assert abs(report["value"] - exact) / exact <= 1e-3

    def test_file_input_roundtrip(self, tmp_path, capsys):
        from vnentropy.generators import grid2d_adjacency
        from vnentropy.sparse import write_matrix_market

        path = tmp_path / "grid.mtx"
        path.write_text(write_matrix_market(grid2d_adjacency(8)))
        code, out, _ = run_cli(
            ["entropy", "--in", str(path), "--method", "probing", "--eps", "1e-2"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["n"] == 64

    def test_file_input_matches_generator_report(self, tmp_path, capsys):
        path = tmp_path / "ba.mtx"
        path.write_text(write_matrix_market(barabasi_albert_adjacency(512, 2, 7)))
        reports = []
        for source in (["--in", str(path)], ["--gen", "ba:512:2"]):
            code, out, _ = run_cli(["entropy", *source, "--seed", "7", "--eps", "1e-4"], capsys)
            assert code == 0
            reports.append(json.loads(out))
        for report in reports:
            del report["matrix"], report["wall_time_s"]
        assert reports[0] == reports[1]

    def test_json_file_output(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["entropy", "--gen", "ba:200:2", "--method", "probing",
             "--eps", "1e-2", "--json", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(target.read_text()), REPORT_SCHEMA)


    def test_apriori_tight_eps_returns_exact_probing_report(self, capsys):
        # the a priori bound fails for every d <= 64 here; the diameter
        # bound of the closed-form interval (8) caps d, and probing there
        # gives every node its own color
        args = ["entropy", "--gen", "ba:256:2", "--seed", "7", "--apriori", "--eps", "1e-6"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["d"] == 8 and report["colors"] == report["n"] == 256
        density, _, _ = cli.load_density(argparse.Namespace(infile=None, gen="ba:256:2", seed=7))
        exact = dense_entropy_oracle(density.matrix)
        assert abs(report["value"] - exact) <= 1e-6 * exact


class TestSolverLine:
    def test_unused_without_shifted_solves(self, capsys):
        code, out, err = run_cli(
            ["entropy", "--gen", "grid2d:12", "--method", "probing", "--eps", "1e-3"],
            capsys,
        )
        assert code == 0 and json.loads(out)["rat_iters"] == 0
        assert "solver: unused" in err.splitlines()

    def test_fill_from_factor_after_solves(self, capsys):
        code, out, err = run_cli(
            ["entropy", "--gen", "grid2d:30", "--method", "probing", "--eps", "1e-6",
             "--stop", "bound", "--d", "3"],
            capsys,
        )
        report = json.loads(out)
        assert code == 0 and report["rat_iters"] > 0
        line = re.search(r"^solver: backend=(\w+) factors=(\d+) fill=([0-9.]+) solves=(\d+)$", err, re.M)
        assert line is not None, err
        assert line.group(1) == "direct"
        assert int(line.group(2)) == report["factorizations"]
        assert float(line.group(3)) >= 1.0
        assert int(line.group(4)) == report["rat_iters"]

    def test_cg_backend_in_the_rational_phase(self, capsys):
        args = ["entropy", "--gen", "grid2d:30", "--method", "probing", "--eps", "1e-6",
                "--stop", "bound", "--d", "3"]
        code, out, err = run_cli(args + ["--solver", "cg"], capsys)
        report = json.loads(out)
        assert code == 0 and report["rat_iters"] > 0
        assert f"solver: backend=cg factors=0 fill=n/a solves={report['rat_iters']}" in err.splitlines()
        code, out, _ = run_cli(args + ["--solver", "direct"], capsys)
        direct = json.loads(out)["value"]
        assert code == 0 and abs(report["value"] - direct) <= 1e-8 * abs(direct)


    @pytest.mark.parametrize("args, value", [
        (["--gen", "grid2d:30", "--eps", "1e-6", "--stop", "bound", "--d", "3"], 6.619934303276063),
        (["--gen", "ba:1024:2", "--seed", "7", "--eps", "1e-4"], 6.439709264779201),
    ], ids=["grid2d:30", "ba:1024:2"])
    def test_cg_values_match_the_hand_written_loop(self, capsys, args, value):
        # values of the Jacobi CG loop that scipy's cg replaced
        code, out, _ = run_cli(["entropy", *args, "--solver", "cg"], capsys)
        report = json.loads(out)
        assert code == 0 and report["rat_iters"] > 0
        assert report["value"] == pytest.approx(value, rel=1e-10)


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not a matrix market file\n")
        code, _, err = run_cli(
            ["entropy", "--in", str(bad), "--method", "probing", "--eps", "1e-2"],
            capsys,
        )
        assert code == 1 and "parse" in err

    def test_comment_inside_entries_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n% note\n3 2\n")
        code, out, err = run_cli(["entropy", "--in", str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [["--method", "bogus"], ["--eps", "abc"], ["--bogus"]],
        ids=["bad-choice", "non-numeric", "unknown-flag"],
    )
    def test_usage_error_is_config_error(self, capsys, flags):
        code, out, err = run_cli(["entropy", "--gen", "grid2d:8", *flags], capsys)
        assert code == 3 and out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_help_exits_zero(self):
        run = subprocess.run(
            [sys.executable, "-m", "vnentropy.cli", "entropy", "--help"],
            env=_src_env(), capture_output=True, text=True,
        )
        assert run.returncode == 0 and "--method" in run.stdout

    def test_missing_input_is_config_error(self, capsys):
        code, _, _ = run_cli(["entropy", "--method", "probing", "--eps", "1e-2"], capsys)
        assert code == 3

    def test_both_inputs_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "x.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n")
        code, _, _ = run_cli(
            ["entropy", "--in", str(path), "--gen", "grid2d:4",
             "--method", "probing", "--eps", "1e-2"],
            capsys,
        )
        assert code == 3

    def test_eps_out_of_range(self, capsys):
        code, _, _ = run_cli(
            ["entropy", "--gen", "grid2d:4", "--method", "probing", "--eps", "2.0"],
            capsys,
        )
        assert code == 3

    def test_stochastic_requires_seed(self, capsys):
        code, _, err = run_cli(
            ["entropy", "--gen", "grid2d:4", "--method", "hutchinson", "--eps", "1e-2"],
            capsys,
        )
        assert code == 3 and "seed" in err

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        from vnentropy.estimators import NonConvergenceError

        def boom(*args, **kwargs):
            raise NonConvergenceError("forced")

        monkeypatch.setattr(cli, "entropy_probing", boom)
        code, _, err = run_cli(
            ["entropy", "--gen", "grid2d:4", "--method", "probing", "--eps", "1e-2"],
            capsys,
        )
        assert code == 2 and "non-convergence" in err

    def test_hutchinson_budget_error_comes_early(self, capsys, monkeypatch):
        from vnentropy import estimators

        forms, quadforms = [], estimators._quadforms

        def counting(provider, count, *args, **kwargs):
            forms.append(count)
            return quadforms(provider, count, *args, **kwargs)

        monkeypatch.setattr(estimators, "_quadforms", counting)
        code, out, err = run_cli(
            ["entropy", "--gen", "grid2d:10", "--seed", "3", "--method", "hutchinson"], capsys
        )
        assert code == 2 and out == ""
        assert err == "error: non-convergence: Hutchinson samples exceeded the vector budget 10000\n"
        # the rule is sure to want more than the budget long before it is spent
        assert sum(forms) < 1000

    @pytest.mark.parametrize(
        "command",
        [
            ["entropy", "--method", "probing"],
            ["color-stats", "--d", "2"],
            ["probing-sweep"],
        ],
        ids=["entropy", "color-stats", "probing-sweep"],
    )
    def test_edgeless_graph_is_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "edgeless.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 0\n")
        code, _, err = run_cli([*command, "--in", str(path)], capsys)
        assert code == 1 and err.startswith("error:") and "no edges" in err

    def test_edgeless_generator_is_parse_error(self, capsys):
        code, _, err = run_cli(["bench-scaling", "--gen", "grid2d", "--sizes", "1"], capsys)
        assert code == 1 and err.startswith("error:") and "no edges" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "probing", "--d", "0"],
            ["--method", "probing", "--d", "-2"],
            *(["--method", "adaptive-hutchpp", "--seed", "1", "--delta", v]
              for v in ("0", "1.5", "-1", "nan")),
        ],
        ids=["d=0", "d=-2", "delta=0", "delta=1.5", "delta=-1", "delta=nan"],
    )
    def test_out_of_range_is_config_error(self, capsys, monkeypatch, flags):
        def no_work(args):
            raise AssertionError("input loaded before the flags were checked")

        monkeypatch.setattr(cli, "load_density", no_work)
        code, out, err = run_cli(["entropy", "--gen", "grid2d:4", *flags], capsys)
        assert code == 3 and out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["entropy", "--gen", "ba:100:2", "--seed", "-1"],
            ["entropy", "--gen", "ba:100:2", "--seed", str(2**64)],
            ["entropy", "--gen", "grid2d:8", "--method", "hutchinson", "--seed", "-1"],
            ["color-stats", "--gen", "ba:100:2", "--d", "2", "--seed", "-1"],
            ["probing-sweep", "--gen", "ba:100:2", "--seed", str(2**64)],
            ["bench-scaling", "--gen", "ba", "--sizes", "200", "--seed", "-1"],
            ["bench-scaling", "--gen", "grid2d", "--sizes", "64", "--d", "0"],
            ["bench-scaling", "--gen", "ba", "--sizes", "200", "--method", "adaptive-hutchpp",
             "--delta", "1.5"],
            ["color-stats", "--gen", "grid2d:8", "--d", "0"],
            ["probing-sweep", "--gen", "grid2d:8", "--dmin", "0"],
            ["probing-sweep", "--gen", "grid2d:8", "--dmin", "5", "--dmax", "2"],
            ["color-stats", "--in", "graph.mtx", "--gen", "grid2d:8", "--d", "2"],
            ["bounds", "--a", "2", "--b", "1"],
            ["bounds", "--a", "-1"],
            ["bounds", "--a", "nan"],
            ["bounds", "--b", "0"],
            ["bounds", "--b", "inf"],
            ["bounds", "--kmin", "5", "--kmax", "3"],
            ["bounds", "--kmin", "-1", "--with-oracle"],
            ["bench-scaling", "--gen", "grid2d", "--sizes", "abc"],
            ["bench-scaling", "--gen", "grid2d", "--sizes", "16,,64"],
            ["bench-scaling", "--gen", "grid2d", "--sizes", "-5"],
            ["bench-scaling", "--gen", "grid2d", "--sizes", "64", "--timeout", "-1"],
        ],
        ids=[
            "entropy-seed=-1", "entropy-seed=2^64", "entropy-grid-hutchinson-seed=-1",
            "color-stats-seed=-1", "probing-sweep-seed=2^64", "bench-scaling-seed=-1",
            "bench-scaling-d=0", "bench-scaling-delta=1.5", "color-stats-d=0",
            "probing-sweep-dmin=0", "probing-sweep-dmax<dmin", "color-stats-in-and-gen",
            "bounds-a>b", "bounds-a=-1", "bounds-a=nan", "bounds-b=0", "bounds-b=inf",
            "bounds-kmax<kmin", "bounds-kmin=-1", "bench-scaling-sizes=abc",
            "bench-scaling-sizes-empty-token", "bench-scaling-sizes=-5", "bench-scaling-timeout=-1",
        ],
    )
    def test_out_of_range_in_every_subcommand(self, capsys, monkeypatch, command):
        def no_work(args):
            raise AssertionError("input loaded before the flags were checked")

        monkeypatch.setattr(cli, "load_density", no_work)
        code, out, err = run_cli(command, capsys)
        assert code == 3 and out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_generator_rejects_seed_out_of_range(self, seed):
        from vnentropy.generators import barabasi_albert_adjacency

        with pytest.raises(ValueError, match="seed"):
            barabasi_albert_adjacency(100, 2, seed)

    def test_unknown_generator(self, capsys):
        code, _, _ = run_cli(
            ["entropy", "--gen", "torus:4", "--method", "probing", "--eps", "1e-2"],
            capsys,
        )
        assert code == 3


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 1e-2\ngen = grid2d:8\n")
        code, out, _ = run_cli(
            ["entropy", "--method", "probing", "--config", str(cfg)], capsys
        )
        assert code == 0
        assert json.loads(out)["eps_rel"] == 1e-2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 1e-1\ngen = grid2d:8\n")
        code, out, _ = run_cli(
            ["entropy", "--method", "probing", "--eps", "1e-2", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["eps_rel"] == 1e-2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 2\n")
        code, _, _ = run_cli(
            ["entropy", "--gen", "grid2d:4", "--method", "probing", "--config", str(cfg)],
            capsys,
        )
        assert code == 3

    def test_config_int_without_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 2\n")
        code, out, _ = run_cli(
            ["entropy", "--gen", "grid2d:8", "--eps", "1e-2", "--config", str(cfg)], capsys
        )
        assert code == 0
        assert json.loads(out)["d"] == 2

    def test_config_seed_for_stochastic_method(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        code, out, _ = run_cli(
            ["entropy", "--gen", "grid2d:8", "--method", "hutchinson", "--eps", "1e-1",
             "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 5

    @pytest.mark.parametrize("line", ["method = bogus", "d = two"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(["entropy", "--gen", "grid2d:4", "--config", str(cfg)], capsys)
        assert code == 3 and out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_explicit_flag_equal_to_default_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 1e-2\n")
        code, out, _ = run_cli(
            ["entropy", "--gen", "grid2d:8", "--eps", "1e-3", "--config", str(cfg)], capsys
        )
        assert code == 0
        assert json.loads(out)["eps_rel"] == 1e-3


class TestBoundsCommand:
    def test_csv_columns_and_values(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--kmin", "2", "--kmax", "60", "--a", "0.0", "--b", "1.0"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,cheb_bound,thm22_bound,oracle"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 59
        k2 = rows[0]
        assert float(k2[2]) == pytest.approx(1 / 12)
        for row in rows:
            assert float(row[2]) <= float(row[1]) + 1e-15

    def test_oracle_column(self, capsys):
        from vnentropy.bounds import near_best_slack

        code, out, _ = run_cli(
            ["bounds", "--kmin", "2", "--kmax", "12", "--a", "1e-6", "--b", "1e-2",
             "--with-oracle"],
            capsys,
        )
        lines = out.strip().splitlines()[1:]
        for line in lines:
            k, _, thm, oracle = line.split(",")
            assert float(oracle) <= float(thm) * near_best_slack(int(k)) * (1 + 1e-9)


class TestColorStats:
    def test_greedy_json(self, capsys):
        code, out, _ = run_cli(
            ["color-stats", "--gen", "ba:200:2", "--d", "2", "--order", "degree"],
            capsys,
        )
        report = json.loads(out)
        assert report["validated"] is True
        assert report["d"] == 2 and report["s"] >= 3

    def test_banded_method(self, capsys):
        code, out, _ = run_cli(
            ["color-stats", "--gen", "grid2d:8", "--d", "2", "--method", "banded"],
            capsys,
        )
        assert json.loads(out)["validated"] is True

    def test_grid_method(self, capsys):
        code, out, _ = run_cli(
            ["color-stats", "--gen", "grid2d:10", "--d", "3", "--method", "grid"],
            capsys,
        )
        report = json.loads(out)
        assert report["s"] == 8 and report["validated"] is True


class TestProbingSweep:
    def test_error_below_bound_columns(self, capsys):
        code, out, _ = run_cli(
            ["probing-sweep", "--gen", "grid2d:10", "--dmin", "1", "--dmax", "5",
             "--eps", "1e-4"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("d,colors,abs_error")
        for line in lines[1:]:
            d, colors, err, bound, model, consec = line.split(",")
            if int(d) >= 2:
                assert float(err) <= float(bound)

    def test_uses_the_closed_form_interval(self, capsys, monkeypatch):
        import vnentropy.sparse

        def forbidden(*args, **kwargs):
            raise AssertionError("Lanczos interval sweep called on a Laplacian")

        # no CLI path runs the sweep, laplacian_interval's fallback included
        assert not hasattr(cli, "spectral_interval")
        monkeypatch.setattr(vnentropy.sparse, "spectral_interval", forbidden)
        code, _, _ = run_cli(["probing-sweep", "--gen", "grid2d:8", "--dmax", "3"], capsys)
        assert code == 0


class TestBenchScaling:
    def test_grid_colors_constant(self, capsys):
        code, out, _ = run_cli(
            ["bench-scaling", "--gen", "grid2d", "--sizes", "256,1024", "--method",
             "probing", "--eps", "1e-3", "--d", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        colors = [int(line.split(",")[4]) for line in lines]
        assert colors[0] == colors[1] == 8

    def test_ba_colors_increase(self, capsys):
        code, out, _ = run_cli(
            ["bench-scaling", "--gen", "ba", "--sizes", "256,2048", "--method",
             "probing", "--eps", "1e-2", "--d", "2", "--seed", "1"],
            capsys,
        )
        lines = out.strip().splitlines()[1:]
        colors = [int(line.split(",")[4]) for line in lines]
        assert colors[1] > colors[0]


class TestThreads:
    def test_threads_flag_reproduces_serial_value(self, capsys):
        base = ["entropy", "--gen", "ba:200:2", "--method", "probing", "--eps", "1e-3"]
        code1 = main(base)
        out1 = json.loads(capsys.readouterr().out)
        code2 = main(base + ["--threads", "3"])
        out2 = json.loads(capsys.readouterr().out)
        assert code1 == code2 == 0
        assert out1["value"] == out2["value"]


class TestLoadDensity:
    def test_loop_free_pattern_not_rebuilt(self):
        adj = barabasi_albert_adjacency(30, 2, 5)
        assert cli._binarized_adjacency(adj) is adj

    @staticmethod
    def _report(path, capsys):
        code, out, _ = run_cli(
            ["entropy", "--in", str(path), "--eps", "1e-6", "--stop", "bound", "--seed", "7"], capsys
        )
        assert code == 0
        report = json.loads(strip_wall_time(out))
        report.pop("matrix")
        return report

    @pytest.mark.parametrize("kind", ["weighted", "self-loops", "disconnected"])
    def test_other_inputs_rebuilt(self, kind, tmp_path, capsys):
        # each file loads as the loop-free, unweighted, connected graph it contains
        adj = barabasi_albert_adjacency(30, 2, 5)
        rows, cols = adj.row_indices(), adj.col_idx
        if kind == "weighted":
            mat = from_coo(30, rows, cols, 1.0 + np.minimum(rows, cols) + 0.5 * np.maximum(rows, cols))
        elif kind == "self-loops":
            loops = np.arange(0, 30, 7)
            mat = from_coo(
                30, np.r_[rows, loops], np.r_[cols, loops], np.ones(adj.nnz + loops.size), is_pattern=True
            )
        else:
            tail = np.arange(30, 34)  # a path on 4 more nodes
            rows, cols = np.r_[rows, tail[:-1], tail[1:]], np.r_[cols, tail[1:], tail[:-1]]
            mat = from_coo(34, rows, cols, np.ones(rows.size), is_pattern=True)
        assert largest_component(cli._binarized_adjacency(mat))[0] is not mat
        (tmp_path / "graph.mtx").write_text(write_matrix_market(adj))
        (tmp_path / "input.mtx").write_text(write_matrix_market(mat))
        assert self._report(tmp_path / "input.mtx", capsys) == self._report(tmp_path / "graph.mtx", capsys)


def _src_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(vnentropy.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestImportCost:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats alone took about 0.9 s of every CLI start
        code = "import sys, vnentropy.cli; print('scipy.stats' in sys.modules)"
        run = subprocess.run(
            [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "False"

    @staticmethod
    def _cli_run(tmp_path, *args, module="scipy.special"):
        """(exit code, whether the module was loaded, report) of one CLI run
        in a fresh interpreter."""
        target = tmp_path / "report.json"
        code = "import sys; from vnentropy.cli import main; print(main(sys.argv[2:]), sys.argv[1] in sys.modules)"
        run = subprocess.run(
            [sys.executable, "-c", code, module, "entropy", *args, "--json", str(target)],
            env=_src_env(), capture_output=True, text=True, check=True,
        )
        rc, loaded = run.stdout.split()
        return int(rc), loaded == "True", json.loads(target.read_text())

    @pytest.mark.parametrize("flags, rational", [
        ((), False),
        (("--stop", "bound", "--d", "3", "--eps", "1e-8"), True),
    ])
    def test_probing_leaves_scipy_special_unloaded(self, tmp_path, flags, rational):
        # scipy.special cost about 0.035 s of every probing run; the EDS poles
        # of the rational phase come from the AGM instead
        rc, loaded, report = self._cli_run(tmp_path, "--gen", "grid2d:20", "--method", "probing", *flags)
        assert rc == 0 and not loaded
        assert (report["rat_iters"] > 0) == rational

    def test_hutchpp_loads_scipy_special_for_its_tail(self, tmp_path):
        rc, loaded, report = self._cli_run(
            tmp_path, "--gen", "grid2d:12", "--method", "hutchpp", "--eps", "1e-2", "--seed", "3"
        )
        assert rc == 0 and loaded and np.isfinite(report["value"])

    def test_only_file_input_loads_scipy_io(self, tmp_path):
        rc, loaded, _ = self._cli_run(tmp_path, "--gen", "grid2d:20", "--method", "probing", module="scipy.io")
        assert rc == 0 and not loaded
        path = tmp_path / "grid.mtx"
        path.write_text(write_matrix_market(grid2d_adjacency(20)))
        rc, loaded, _ = self._cli_run(tmp_path, "--in", str(path), "--method", "probing", module="scipy.io")
        assert rc == 0 and loaded
