"""In-memory span recorder wrapped around the package's public functions.

A span is (name, start, end, parent, via, attr): `name` is
"<layer>.<function>", `via` is the module whose namespace the caller looked
the name up in, and `attr` is an optional value taken from the call. Spans
of one process form a single tree, since the estimators run in one thread.

Wrappers are installed in every layer module's namespace, because a name
imported with `from .sparse import matvec` is looked up in the importing
module, not in `sparse`.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "sparse", "coloring", "krylov", "solver", "estimators")

# methods the layers call through instances, as (layer, class, method)
METHODS = (
    ("krylov", "RationalArnoldiDecomposition", "step"),
    ("krylov", "RationalArnoldiDecomposition", "spectrum"),
    ("solver", "PoleSolver", "solve_spd_shift"),
    ("estimators", "KrylovEntropyProvider", "quadform"),
    ("estimators", "KrylovEntropyProvider", "apply"),
)

# values recorded with a span: f(args, kwargs, result)
ATTRS = {
    "estimators.probing_trace": lambda a, k, r: (a[1] if len(a) > 1 else k["coloring"]).d,
    "solver.factorize": lambda a, k, r: a[1] if len(a) > 1 else k["xi"],
    "solver.analyze": lambda a, k, r: r.fill_ratio,
}

COLORINGS = (
    "coloring.greedy_distance_coloring",
    "coloring.grid2d_coloring",
    "coloring.banded_coloring",
)
ORDERINGS = ("coloring.degree_descending_order", "coloring.rcm_order")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def wrap(self, name, fn, via):
        spans, open_ = self.spans, self._open
        attr = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, open_[-1] if open_ else -1, via, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = perf_counter()
            if attr is not None:
                span[5] = attr(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function in every layer namespace that
        binds it, plus the METHODS on their classes."""
        for via in LAYERS:
            mod = sys.modules[f"vnentropy.{via}"]
            for key, obj in list(vars(mod).items()):
                if key.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("vnentropy.") and home in LAYERS:
                    setattr(mod, key, self.wrap(f"{home}.{obj.__name__}", obj, via))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"vnentropy.{layer}"], cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth), layer))

    def summary(self):
        """Per span name: call count, inclusive time and self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, via, attr in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, parent, via, attr) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        return calls, total, self_time


def layer_metrics(tracer: Tracer, report: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced CLI run, plus the counts the
    benchmark cross-checks against the CLI report."""
    spans = tracer.spans
    calls, total, self_time = tracer.summary()
    names = [s[0] for s in spans]

    matvecs_from_krylov = sum(1 for s in spans if s[0] == "sparse.matvec" and s[4] == "krylov")
    interval_matvecs = sum(
        1 for s in spans
        if s[0] == "sparse.matvec" and s[3] >= 0 and names[s[3]] == "sparse.spectral_interval"
    )
    factor_poles = {s[5] for s in spans if s[0] == "solver.factorize"}
    fills = [s[5] for s in spans if s[0] == "solver.analyze"]
    passes = defaultdict(float)
    for name, start, end, parent, via, d in spans:
        if name == "estimators.probing_trace":
            passes[f"d{d}" if d <= 3 else "dstar"] += end - start

    solves = calls["solver.PoleSolver.solve_spd_shift"]
    poly, rat = report.get("poly_iters", 0), report.get("rat_iters", 0)
    forms = calls["krylov.adaptive_quadform"] + calls["krylov.desingularized_quadform"]
    funvecs = calls["krylov.adaptive_funvec"]
    metrics = {
        "cli.load_s": total["cli.load_density"],
        "sparse.largest_component_s": total["sparse.largest_component"],
        "sparse.spectral_interval_s": total["sparse.spectral_interval"],
        "sparse.spectral_interval.matvecs": interval_matvecs,
        "sparse.matvec_s": total["sparse.matvec"],
        "sparse.matvec.calls": calls["sparse.matvec"],
        "coloring.color_s": sum(total[n] for n in COLORINGS + ORDERINGS),
        "coloring.calls": sum(calls[n] for n in COLORINGS),
        "coloring.colors_dstar": report.get("colors", 0),
        "krylov.bounds_s": total["krylov.aposteriori_bounds"] + total["krylov.funvec_aposteriori"],
        "krylov.bounds.calls": calls["krylov.aposteriori_bounds"] + calls["krylov.funvec_aposteriori"],
        "krylov.spectrum_s": total["krylov.RationalArnoldiDecomposition.spectrum"],
        "krylov.step_self_s": self_time["krylov.RationalArnoldiDecomposition.step"],
        "krylov.quadforms": forms,
        "krylov.funvecs": funvecs,
        "krylov.iters_per_quadform": (poly + rat) / max(forms + funvecs, 1),
        "krylov.rational_share": rat / max(poly + rat, 1),
        "solver.solve_s": total["solver.PoleSolver.solve_spd_shift"],
        "solver.factor_s": self_time["solver.factorize"],
        "solver.analyze_s": total["solver.analyze"],
        "solver.solves": solves,
        "solver.factorizations": len(factor_poles),
        "solver.cache_hit_ratio": 1.0 - len(factor_poles) / solves if solves else 0.0,
        "solver.fill_ratio": fills[-1] if fills else 0.0,
        "solver.cg_solves": calls["solver.cg_solve"],
        "estimators.probing_pass_s.d1": passes["d1"],
        "estimators.probing_pass_s.d2": passes["d2"],
        "estimators.probing_pass_s.d3": passes["d3"],
        "estimators.probing_pass_s.dstar": passes["dstar"],
        "estimators.apply_s": total["estimators.KrylovEntropyProvider.apply"],
        "estimators.quadform_s": total["estimators.KrylovEntropyProvider.quadform"],
        "estimators.vectors": report.get("N_r", 0) + report.get("N_H", 0),
    }
    checks = {
        "krylov_matvecs": matvecs_from_krylov,
        "solver_solves": solves,
        "distinct_factors": len(factor_poles),
    }
    return metrics, checks
