"""The benchmark harness runs against the package as it stands: a traced
grid-rational run must pass its cross-checks. grid-rational is the only
workload that factors, so it exercises the solver spans and the micro
benchmarks' imports."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_grid_rational_run_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-rational", "--trace", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, run.stdout
    assert summary["failed"] == 0
