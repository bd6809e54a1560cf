"""One benchmark process: runs `vnentropy entropy` in-process through
`vnentropy.cli.main`, or the layer microbenchmarks, and writes its timings
as JSON to OUT.

    python3 child.py plain OUT -- ENTROPY_ARGS...   three timed boundaries
    python3 child.py trace OUT -- ENTROPY_ARGS...   spans around every layer
    python3 child.py micro OUT                      layer microbenchmarks

The package must come from the `src` directory next to this one.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_cli():
    t0 = perf_counter()
    import vnentropy.cli as cli

    import_s = perf_counter() - t0
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(cli.__file__).startswith(src):
        raise SystemExit(f"vnentropy imported from {cli.__file__}, not from {src}")
    return cli, import_s


def _timed(fn, times, key):
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[key] = times.get(key, 0.0) + perf_counter() - t0

    return timed


def run_plain(argv):
    cli, import_s = _import_cli()
    times = {"import_s": import_s}
    cli.load_density = _timed(cli.load_density, times, "load_s")
    cli.entropy_probing = _timed(cli.entropy_probing, times, "solve_s")
    cli.entropy_hutchpp = _timed(cli.entropy_hutchpp, times, "solve_s")
    times["rc"] = cli.main(argv)
    return times


def run_trace(argv, report_path):
    from tracer import Tracer, layer_metrics

    cli, import_s = _import_cli()
    tracer = Tracer()
    tracer.install()
    rc = cli.main(argv)
    with open(report_path) as fh:
        report = json.load(fh)
    metrics, checks = layer_metrics(tracer, report)
    metrics["cli.import_s"] = import_s
    return {"rc": rc, "metrics": metrics, "checks": checks}


def run_micro():
    """Single-layer timings on fixed inputs, each the median of a few calls."""
    import numpy as np

    _import_cli()
    from vnentropy.generators import grid2d_adjacency
    from vnentropy.krylov import ENTROPY, INF, RationalArnoldiDecomposition, ShiftedOperator, aposteriori_bounds
    from vnentropy.solver import PoleSolver
    from vnentropy.sparse import SpectralInterval, build_laplacian, normalize_trace, spectral_interval

    def median_time(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return float(np.median(times))

    rng = np.random.default_rng(0)
    big = normalize_trace(build_laplacian(grid2d_adjacency(120))).matrix  # n = 14 400
    small = normalize_trace(build_laplacian(grid2d_adjacency(60))).matrix  # n = 3 600
    x = rng.standard_normal(big.n)
    y = rng.standard_normal(small.n)
    y -= y.mean()

    out = {"micro.matvec_s": median_time(lambda: big.matvec(x), 51)}
    out["micro.spectral_interval_s"] = median_time(
        lambda: spectral_interval(big, desingularize=True), 1
    )
    # a fresh solver per call, so each call orders, factors and solves
    tau = 1.0 / small.n
    out["micro.factorize_solve_s"] = median_time(
        lambda: PoleSolver(small, backend="direct").solve_spd_shift(tau, y), 1
    )
    trace = 4.0 * 60 * 59
    interval = SpectralInterval(a=0.5 * (2 - 2 * np.cos(np.pi / 60)) / trace, b=1.1 * 8 / trace)
    decomp = RationalArnoldiDecomposition(ShiftedOperator(small), y)
    for _ in range(29):
        decomp.step(INF)
    out["micro.bounds_s"] = median_time(lambda: aposteriori_bounds(decomp, ENTROPY, interval), 11)
    return out


def main():
    mode, out_path = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if mode != "micro" else []
    if mode == "plain":
        result = run_plain(argv)
    elif mode == "trace":
        result = run_trace(argv, argv[argv.index("--json") + 1])
    elif mode == "micro":
        result = run_micro()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
