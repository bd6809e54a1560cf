"""Command-line front end: ingest, compute, bound tables and benchmark
sweeps, with JSON/CSV emission for plots."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .bounds import best_approx_error_oracle, cheb_bound, entropy_poly_bound, probing_apriori_bound
from .coloring import make_coloring, validate_coloring
from .estimators import (
    NonConvergenceError,
    entropy_hutchpp,
    entropy_probing,
    fit_probing_model,
)
from .generators import parse_generator_spec
from .sparse import (
    DensityMatrix,
    MatrixFormatError,
    SparseSymMatrix,
    build_laplacian,
    dense_entropy_oracle,
    from_coo,
    laplacian_interval,
    largest_component,
    normalize_trace,
    parse_matrix_market,
)

EXIT_PARSE = 1
EXIT_NONCONVERGENCE = 2
EXIT_CONFIG = 3

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "matrix": {"type": "string"},
        "n": {"type": "integer", "minimum": 0},
        "nnz": {"type": "integer", "minimum": 0},
        "method": {
            "enum": ["probing", "hutchinson", "hutchpp", "adaptive-hutchpp"]
        },
        "eps_rel": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "delta": {"type": "number"},
        "value": {"type": "number"},
        "d": {"type": "integer"},
        "colors": {"type": "integer"},
        "N_r": {"type": "integer"},
        "N_H": {"type": "integer"},
        "poly_iters": {"type": "integer"},
        "rat_iters": {"type": "integer"},
        "factorizations": {"type": "integer"},
        "wall_time_s": {"type": "number"},
        "seed": {"type": "integer"},
    },
    "required": [
        "matrix", "n", "nnz", "method", "eps_rel", "value",
        "poly_iters", "rat_iters", "factorizations", "wall_time_s",
    ],
    "additionalProperties": False,
}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Command-line parse errors raise CliError (exit 3, one error: line)
    instead of printing the usage and exiting 2, which means non-convergence."""

    def error(self, message):
        raise CliError(message, EXIT_CONFIG)


def _load_config(path):
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"bad config line: {line!r}", EXIT_CONFIG)
                key, val = (tok.strip() for tok in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_CONFIG)
    return values


def _apply_config(args, argv):
    """Fill the arguments not given on the command line from --config, each
    converted and checked with its flag's own type and choices."""
    if not getattr(args, "config", None):
        return args
    overrides = _load_config(args.config)
    actions = {a.dest: a for a in args._parser._actions}
    # parsed into a namespace that holds every dest, only given flags change
    given = argparse.Namespace(**dict.fromkeys(actions))
    args._parser.parse_args(argv[1:], given)
    for key, text in overrides.items():
        action = actions.get(key)
        if action is None:
            raise CliError(f"unknown config key {key!r}", EXIT_CONFIG)
        if getattr(given, key) is not None:
            continue
        flag = action.nargs == 0   # store_true
        try:
            val = text.lower() in ("1", "true", "yes") if flag else (action.type or str)(text)
        except ValueError:
            val = None
        if val is None or action.choices is not None and val not in action.choices:
            raise CliError(f"bad config value {key} = {text!r}", EXIT_CONFIG)
        setattr(args, key, val)
    return args


def _binarized_adjacency(mat: SparseSymMatrix) -> SparseSymMatrix:
    """All edge weights set to one, diagonal dropped (graph convention); a
    loop-free pattern comes back unchanged."""
    rows = mat.row_indices()
    off = rows != mat.col_idx
    if mat.is_pattern and off.all() and (mat.values == 1.0).all():
        return mat
    return from_coo(
        mat.n, rows[off], mat.col_idx[off], np.ones(int(off.sum())), is_pattern=True
    )


def load_density(args) -> tuple[DensityMatrix, str, dict]:
    """parse -> binarize -> largest component -> Laplacian -> unit trace."""
    meta: dict = {}
    if getattr(args, "infile", None):
        try:
            with open(args.infile, "rb") as fh:
                adj = parse_matrix_market(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read input: {exc}", EXIT_PARSE)
        except MatrixFormatError as exc:
            raise CliError(f"parse error: {exc}", EXIT_PARSE)
        label = args.infile
    elif getattr(args, "gen", None):
        try:
            adj, label, meta = parse_generator_spec(args.gen, getattr(args, "seed", None))
        except ValueError as exc:
            raise CliError(str(exc), EXIT_CONFIG)
    else:
        raise CliError("exactly one of --in or --gen is required", EXIT_CONFIG)
    adj = _binarized_adjacency(adj)
    comp, _ = largest_component(adj)
    if comp.nnz == 0:
        raise CliError("the input graph has no edges", EXIT_PARSE)
    if comp.n != adj.n:
        meta = dict(meta)
        meta.pop("grid_side", None)  # node numbering no longer grid-shaped
    density = normalize_trace(build_laplacian(comp))
    return density, label, meta


def _write_out(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_flags(args):
    """Range checks of the flags a subcommand has, made before any input is
    loaded; the seed keys the generators, which take [0, 2^64)."""
    stochastic = getattr(args, "method", "probing") != "probing"
    for name, ok, rule in (
        ("eps", lambda v: 0 < v < 1, "in (0, 1)"),
        ("d", lambda v: v >= 1, "at least 1"),
        ("dmin", lambda v: v >= 1, "at least 1"),
        ("dmax", lambda v: v >= args.dmin, "at least --dmin"),
        ("seed", lambda v: 0 <= v < 2**64, "in [0, 2^64)"),
        ("delta", lambda v: not stochastic or 0 < v < 1, "in (0, 1)"),
    ):
        if getattr(args, name, None) is not None and not ok(getattr(args, name)):
            raise CliError(f"--{name} must be {rule}", EXIT_CONFIG)
    if stochastic and args.seed is None:
        raise CliError("--seed is required for stochastic methods", EXIT_CONFIG)
    if getattr(args, "infile", None) and getattr(args, "gen", None):
        raise CliError("exactly one of --in or --gen is required", EXIT_CONFIG)


def cmd_entropy(args):
    stochastic = args.method != "probing"
    if args.threads != 1:
        print("note: --threads is ignored; quadratic forms run serially", file=sys.stderr)
    density, label, meta = load_density(args)
    try:
        if args.method == "probing":
            # grid generator inputs use the optimal lattice coloring
            use_grid = meta.get("grid_side") and not args.no_grid_coloring
            est = entropy_probing(
                density,
                args.eps,
                mode="apriori" if args.apriori else "heuristic",
                stop=args.stop,
                order=args.order,
                d_override=args.d,
                coloring_method="grid" if use_grid else "greedy",
                solver_backend=args.solver,
                grid_side=meta.get("grid_side"),
            )
        else:
            est = entropy_hutchpp(
                density,
                args.eps,
                args.delta,
                seed=args.seed,
                method=args.method,
                stop=args.stop,
                solver_backend=args.solver,
            )
    except NonConvergenceError as exc:
        raise CliError(f"non-convergence: {exc}", EXIT_NONCONVERGENCE)
    report = {
        "matrix": label,
        "n": density.n,
        "nnz": density.matrix.nnz,
        "method": est.method,
        "eps_rel": est.eps_rel,
    }
    if stochastic:
        report["delta"] = args.delta
    report["value"] = est.value
    if est.d is not None:
        report["d"] = est.d
        report["colors"] = est.colors
    if est.n_rank is not None:
        report["N_r"] = est.n_rank
        report["N_H"] = est.n_hutch
    report["poly_iters"] = est.poly_iters
    report["rat_iters"] = est.rational_iters
    report["factorizations"] = est.factorizations
    report["wall_time_s"] = est.wall_time_s
    if args.seed is not None:
        report["seed"] = args.seed
    _write_out(json.dumps(report, indent=2) + "\n", args.json)
    if est.rational_iters == 0:
        print("solver: unused", file=sys.stderr)
    else:
        print(
            f"solver: backend={est.solver_backend} factors={est.factorizations} "
            f"fill={est.fill_ratio if est.fill_ratio is not None else 'n/a'} "
            f"solves={est.rational_iters}",
            file=sys.stderr,
        )
    return 0


def cmd_bounds(args):
    rows = ["k,cheb_bound,thm22_bound,oracle"]
    for k in range(args.kmin, args.kmax + 1):
        cheb = cheb_bound(k, args.b) if k >= 1 else float("nan")
        thm = entropy_poly_bound(k, args.a, args.b) if k >= 2 else float("nan")
        oracle = best_approx_error_oracle(k, args.a, args.b) if args.with_oracle else ""
        rows.append(f"{k},{cheb:.17g},{thm:.17g},{oracle if oracle == '' else format(oracle, '.17g')}")
    _write_out("\n".join(rows) + "\n", args.csv)
    return 0


def _cli_coloring(mat, d, args, meta):
    if args.coloring == "grid" and not meta.get("grid_side"):
        raise CliError("grid coloring needs --gen grid2d:SIDE", EXIT_CONFIG)
    return make_coloring(mat, d, args.coloring, args.order, meta.get("grid_side"))


def cmd_color_stats(args):
    density, label, meta = load_density(args)
    mat = density.matrix
    col = _cli_coloring(mat, args.d, args, meta)
    ok, _ = validate_coloring(mat, col, args.d)
    sizes = col.class_sizes()
    report = {
        "d": args.d,
        "s": col.num_colors,
        "max_class": int(sizes.max()),
        "min_class": int(sizes.min()),
        "validated": bool(ok),
    }
    _write_out(json.dumps(report, indent=2) + "\n", args.json)
    return 0


def cmd_probing_sweep(args):
    from .estimators import KrylovEntropyProvider, probing_trace

    density, label, meta = load_density(args)
    if density.n > 5000:
        raise CliError("probing sweep needs the dense oracle (n <= 5000)", EXIT_CONFIG)
    exact = dense_entropy_oracle(density.matrix)
    interval = laplacian_interval(density)
    provider = KrylovEntropyProvider(density, interval)
    eps_hat = args.eps * exact / 2
    rows = ["d,colors,abs_error,apriori_bound,model_estimate,consecutive_diff"]
    values = {}
    for d in range(args.dmin, args.dmax + 1):
        col = _cli_coloring(density.matrix, d, args, meta)
        value, _ = probing_trace(density, col, provider, eps_hat)
        values[d] = value
        err = abs(exact - value)
        bound = probing_apriori_bound(d, density.n, interval.a, interval.b) if d >= 2 else float("nan")
        consec = abs(values[d] - values[d - 1]) if d - 1 in values else float("nan")
        model = float("nan")
        if args.dmin + 1 in values and args.dmin + 2 in values:
            d1 = abs(values[args.dmin + 1] - values[args.dmin])
            d2 = abs(values[args.dmin + 2] - values[args.dmin + 1])
            fits, _ = fit_probing_model(d1, d2, eps_hat)
            if fits:
                model = max(c * q**d / d**k for k, (c, q) in fits.items())
        rows.append(
            f"{d},{col.num_colors},{err:.17g},{bound:.17g},{model:.17g},{consec:.17g}"
        )
    _write_out("\n".join(rows) + "\n", args.csv)
    return 0


def cmd_bench_scaling(args):
    sizes = [int(tok) for tok in args.sizes.split(",")]
    rows = ["generator,n,method,value,colors,N_r,N_H,poly_iters,rat_iters,time_s"]
    for size in sizes:
        if args.gen == "grid2d":
            side = int(round(np.sqrt(size)))
            spec = f"grid2d:{side}"
        else:
            spec = f"ba:{size}:{args.attach}"
        ns = argparse.Namespace(infile=None, gen=spec, seed=args.seed)
        density, label, meta = load_density(ns)
        t0 = time.perf_counter()
        try:
            if args.method == "probing":
                est = entropy_probing(
                    density, args.eps, d_override=args.d,
                    coloring_method="grid" if meta.get("grid_side") else "greedy",
                    grid_side=meta.get("grid_side"),
                )
                cols, nr, nh = est.colors, "", ""
            else:
                est = entropy_hutchpp(density, args.eps, args.delta, seed=args.seed, method=args.method)
                cols, nr, nh = "", est.n_rank, est.n_hutch
        except NonConvergenceError as exc:
            raise CliError(f"non-convergence at n={size}: {exc}", EXIT_NONCONVERGENCE)
        elapsed = time.perf_counter() - t0
        if args.timeout and elapsed > args.timeout:
            raise CliError(f"size {size} exceeded the per-point timeout", EXIT_NONCONVERGENCE)
        rows.append(
            f"{args.gen},{density.n},{args.method},{est.value:.12g},{cols},{nr},{nh},"
            f"{est.poly_iters},{est.rational_iters},{elapsed:.3f}"
        )
    _write_out("\n".join(rows) + "\n", args.csv)
    return 0


def build_parser():
    parser = _Parser(
        prog="vnentropy",
        description="Von Neumann entropy of sparse PSD matrices via probing, "
        "stochastic trace estimation and rational Krylov methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--in", dest="infile", help="Matrix Market input file")
        p.add_argument("--gen", help="generator spec: grid2d:SIDE or ba:N:ATTACH")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", help="key = value configuration file")

    p = sub.add_parser("entropy", help="estimate S(rho) for a graph input")
    add_input(p)
    p.add_argument("--method", default="probing",
                   choices=["probing", "hutchinson", "hutchpp", "adaptive-hutchpp"])
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--stop", default="estimate", choices=["bound", "estimate"])
    p.add_argument("--d", type=int, default=None, help="fixed probing distance")
    p.add_argument("--order", default="degree", choices=["degree", "rcm", "natural"])
    p.add_argument("--threads", type=int, default=1, help="ignored; accepted for old command lines")
    p.add_argument("--json", default=None, help="report path (stdout default)")
    p.add_argument("--solver", default="auto", choices=["direct", "cg", "auto"])
    p.add_argument("--apriori", action="store_true",
                   help="select d from the a priori bound instead of the heuristic")
    p.add_argument("--no-grid-coloring", dest="no_grid_coloring", action="store_true",
                   help="greedy coloring even for grid2d generator inputs")
    p.set_defaults(func=cmd_entropy, _parser=p)

    p = sub.add_parser("bounds", help="CSV table of the scalar bounds")
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", type=int, default=60)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--with-oracle", dest="with_oracle", action="store_true")
    p.add_argument("--csv", default=None)
    p.add_argument("--config", help="key = value configuration file")
    p.set_defaults(func=cmd_bounds, _parser=p)

    p = sub.add_parser("color-stats", help="coloring statistics as JSON")
    add_input(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--order", default="degree", choices=["degree", "rcm", "natural"])
    p.add_argument("--method", dest="coloring", default="greedy",
                   choices=["greedy", "banded", "grid"])
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_color_stats, _parser=p)

    p = sub.add_parser("probing-sweep", help="probing error vs d sweep (CSV)")
    add_input(p)
    p.add_argument("--dmin", type=int, default=1)
    p.add_argument("--dmax", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--order", default="degree", choices=["degree", "rcm", "natural"])
    p.add_argument("--method", dest="coloring", default="greedy",
                   choices=["greedy", "banded", "grid"])
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_probing_sweep, _parser=p)

    p = sub.add_parser("bench-scaling", help="size sweep of a method (CSV)")
    p.add_argument("--gen", required=True, choices=["grid2d", "ba"])
    p.add_argument("--sizes", required=True, help="comma-separated node counts")
    p.add_argument("--attach", type=int, default=2)
    p.add_argument("--method", default="probing",
                   choices=["probing", "hutchinson", "hutchpp", "adaptive-hutchpp"])
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None, help="per-point seconds")
    p.add_argument("--csv", default=None)
    p.add_argument("--config", help="key = value configuration file")
    p.set_defaults(func=cmd_bench_scaling, _parser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        args = _apply_config(args, argv)
        _check_flags(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MatrixFormatError as exc:
        print(f"error: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
