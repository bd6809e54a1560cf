"""vnentropy benchmark: the `vnentropy entropy` CLI on one named workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The package is imported from `src/`. Each
CLI run is its own process, started only after the previous one has
exited, with BLAS/OpenMP pinned to BLAS_THREADS threads. Every run's value
is checked against a reference computed here, outside the timed region,
and runs of one CLI seed must give byte-identical reports apart from
`wall_time_s`. On the Barabasi-Albert workloads, whose graph is made from
the seed, the i-th run of an untraced set uses CLI seed SEED * 1000 + i,
so that the set's median spans several graphs; a traced set uses
SEED * 1000 throughout.

--trace 0 repeats the untraced CLI for --seconds and prints the medians of
the end-to-end metrics. --trace 1 makes one untraced run, the layer
microbenchmarks and then traced runs for the rest of --seconds, and prints
the per-layer metrics (medians over the traced runs). Either way the last
line of stdout is the result JSON; the line before it records the load
average, thread count and CPU/wall ratio of the set. README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
DEFAULT_SEED = 7
GRAPHS_PER_SEED = 1000


@dataclass(frozen=True)
class Workload:
    gen: str
    flags: tuple
    eps: float

    def cli_seed(self, seed: int, run: int) -> int:
        """CLI --seed of the run-th run; grid inputs do not depend on it."""
        return seed * GRAPHS_PER_SEED + run if self.gen.startswith("ba:") else seed

    def cli_args(self, cli_seed: int) -> list:
        return ["--gen", self.gen, *self.flags, "--seed", str(cli_seed)]


WORKLOADS = {
    "grid-probing": Workload("grid2d:120", ("--method", "probing", "--eps", "1e-4"), 1e-4),
    "ba-probing": Workload("ba:1024:2", ("--method", "probing", "--eps", "1e-4"), 1e-4),
    "ba-hutchpp": Workload(
        "ba:1024:2",
        ("--method", "adaptive-hutchpp", "--eps", "1e-2", "--delta", "1e-2"),
        1e-2,
    ),
    "grid-rational": Workload(
        "grid2d:60",
        ("--method", "probing", "--eps", "1e-6", "--stop", "bound", "--d", "3"),
        1e-6,
    ),
}


def reference_value(name: str, cli_seed: int) -> float:
    """S(rho) for the probing and Hutch++ workloads; for grid-rational, whose
    d is fixed at 3, the exact probing trace over the d = 3 coloring."""
    import numpy as np

    import reference
    from vnentropy.coloring import grid2d_coloring
    from vnentropy.generators import barabasi_albert_adjacency

    if name == "grid-probing":
        return reference.grid_entropy(120)
    if name == "grid-rational":
        return reference.grid_probing_trace(60, grid2d_coloring(60, 3).classes)
    adj = barabasi_albert_adjacency(1024, 2, cli_seed)
    rows = np.repeat(np.arange(adj.n), np.diff(adj.row_ptr))
    return reference.graph_entropy(adj.n, rows, adj.col_idx)


class Runner:
    """Starts child processes one at a time and measures each from spawn
    to exit."""

    def __init__(self, root: str, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

    def spawn(self, mode: str, cli_args=()):
        """Run child.py; returns (rc, child JSON or None, CLI report or None,
        wall_s, cpu_s, peak_rss_mb)."""
        self.count += 1
        out = os.path.join(self.tmp, f"out{self.count}.json")
        report = os.path.join(self.tmp, f"report{self.count}.json")
        err = os.path.join(self.tmp, f"err{self.count}.txt")
        cmd = [sys.executable, CHILD, mode, out]
        if cli_args:
            cmd += ["--", "entropy", *cli_args, "--json", report]
        with open(err, "w") as errfh:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=errfh)
            watchdog = threading.Timer(max(self.deadline - t0, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            with open(err) as fh:
                sys.stderr.write(f"child {mode} exited with {rc}:\n{fh.read()[-2000:]}")
        return (
            rc,
            _load(out),
            _load(report),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _median(values):
    return float(statistics.median(values))


class Checker:
    """Correctness of each CLI run against its reference, and determinism
    of the reports of each CLI seed within the set."""

    def __init__(self, name: str, eps: float):
        self.name = name
        self.eps = eps
        self.references: dict = {}
        self.attempted = 0
        self.failed = 0
        self.first_report: dict = {}
        self.problems: list = []

    def reference(self, cli_seed: int) -> float:
        if cli_seed not in self.references:
            self.references[cli_seed] = reference_value(self.name, cli_seed)
        return self.references[cli_seed]

    def check(self, rc, report, cli_seed) -> bool:
        self.attempted += 1
        if rc != 0 or report is None:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: exit code {rc}")
            return False
        err = self.rel_err(report, cli_seed)
        if err > self.eps:
            self.failed += 1
            self.problems.append(
                f"run {self.attempted}: value {report['value']!r} misses reference "
                f"{self.reference(cli_seed)!r} (rel err {err:.3g} > {self.eps:g})"
            )
            return False
        first = self.first_report.setdefault(cli_seed, report)
        differ = sorted(k for k in first.keys() | report.keys()
                        if k != "wall_time_s" and first.get(k) != report.get(k))
        if differ:
            self.problems.append(
                f"nondeterminism: run {self.attempted} (seed {cli_seed}) differs from the "
                f"first run of that seed in {', '.join(differ)}"
            )
        return True

    @property
    def correct(self) -> bool:
        return not self.problems

    def rel_err(self, report, cli_seed) -> float:
        ref = self.reference(cli_seed)
        return abs(report["value"] - ref) / abs(ref)


def cross_check(checks: dict, report: dict, plain_report: dict) -> list:
    """Counts seen in the traced run against the CLI report."""
    problems = []
    expected = {
        "krylov_matvecs": report["poly_iters"] + report["rat_iters"],
        "solver_solves": report["rat_iters"],
        "distinct_factors": report["factorizations"],
    }
    for key, want in expected.items():
        if checks[key] != want:
            problems.append(f"trace cross-check: {key} = {checks[key]}, report says {want}")
    if plain_report is not None and report["value"] != plain_report["value"]:
        problems.append(
            f"trace cross-check: traced value {report['value']!r} != untraced "
            f"{plain_report['value']!r}"
        )
    return problems


def measure_plain(runner, checker, workload, seed, seconds):
    """Repeat the untraced CLI until the next run would end after `seconds`."""
    samples = []
    t_start = perf_counter()
    for run in itertools.count():
        cli_seed = workload.cli_seed(seed, run)
        checker.reference(cli_seed)
        rc, times, report, wall, cpu, rss = runner.spawn("plain", workload.cli_args(cli_seed))
        if checker.check(rc, report, cli_seed) and times is not None:
            samples.append({
                "wall_s": wall,
                "setup_s": times["import_s"] + times["load_s"],
                "solve_s": times["solve_s"],
                "cpu_s": cpu,
                "peak_rss_mb": rss,
            })
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / (run + 1) > seconds:
            return samples


def measure_trace(runner, checker, workload, seed, seconds):
    """One untraced run, the microbenchmarks, then traced runs of the same
    CLI seed until the next would end after `seconds`."""
    t_start = perf_counter()
    cli_seed = workload.cli_seed(seed, 0)
    cli_args = workload.cli_args(cli_seed)
    rc, _, plain_report, plain_wall, plain_cpu, _ = runner.spawn("plain", cli_args)
    checker.check(rc, plain_report, cli_seed)
    rc, micro, _, _, _, _ = runner.spawn("micro")
    if rc != 0 or micro is None:
        checker.problems.append("layer microbenchmarks failed")
        micro = {}
    traced, walls = [], []
    t_traced = perf_counter()
    while True:
        rc, child, report, wall, _, _ = runner.spawn("trace", cli_args)
        if checker.check(rc, report, cli_seed) and child is not None:
            checker.problems += cross_check(child["checks"], report, plain_report)
            traced.append(child["metrics"])
            walls.append(wall)
        if not walls:
            return None
        now = perf_counter()
        if now - t_start + (now - t_traced) / len(walls) > seconds:
            break
    metrics = {key: _median([m[key] for m in traced]) for key in traced[0]}
    metrics.update(micro)
    metrics["estimators.rel_err"] = checker.rel_err(checker.first_report[cli_seed], cli_seed)
    metrics["trace.overhead_s"] = _median(walls) - plain_wall
    metrics["env.cpu_per_wall"] = plain_cpu / plain_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = perf_counter() + RUN_LIMIT_S
    # on SIGTERM, unwind through Runner.spawn so the running child is killed
    # and reaped and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vnentropy", "cli.py")):
        sys.exit(f"error: {src}/vnentropy not found; run from the repository root")
    sys.path[:0] = [src, BENCH_DIR]
    load_start = os.getloadavg()[0]

    workload = WORKLOADS[args.workload]
    checker = Checker(args.workload, workload.eps)
    checker.reference(workload.cli_seed(args.seed, 0))  # imports the package, untimed

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        runner = Runner(root, tmp, deadline)
        if args.trace:
            layer = measure_trace(runner, checker, workload, args.seed, args.seconds)
            ok = layer is not None
        else:
            samples = measure_plain(runner, checker, workload, args.seed, args.seconds)
            ok = bool(samples)
    if not ok:
        sys.stderr.write("\n".join(checker.problems) + "\nerror: no CLI run succeeded\n")
        sys.exit(1)

    if args.trace:
        layer["env.loadavg_1m"] = load_start
        layer["env.blas_threads"] = BLAS_THREADS
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in _units(root, "per_layer")}
        cpu_per_wall = layer["env.cpu_per_wall"]
        walls = []
    else:
        metrics = {
            name: {"value": _median([s[name] for s in samples]), "unit": unit}
            for name, unit in _units(root, "end_to_end")
        }
        cpu_per_wall = _median([s["cpu_s"] / s["wall_s"] for s in samples])
        walls = [s["wall_s"] for s in samples]
    for problem in checker.problems:
        sys.stderr.write(problem + "\n")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "loadavg_1m": [load_start, os.getloadavg()[0]],
        "blas_threads": BLAS_THREADS,
        "cpu_per_wall": cpu_per_wall,
        "cli_runs": checker.attempted,
        "cli_seeds": sorted(checker.references),
        "wall_s": walls,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))


def _units(root, key):
    """(name, unit) of the metrics BENCHMARK.json lists under `key`."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


if __name__ == "__main__":
    main()
