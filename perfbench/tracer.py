"""Call counting and self-time tracing of hierstat's public functions.

The tracer measures each layer from outside: it replaces every binding of
a module's public functions (the names in its ``__all__``) with a wrapper
that counts the call and times it.  hierstat modules import each other's
functions by name (``from .gentile import gentile_mean``), so one
function can be bound in several module namespaces; every binding in
every loaded hierstat module is patched, and the originals are restored
by :meth:`Tracer.uninstall`.

Calls are aggregated in memory, never stored one by one: the scalar
kernels run millions of times per workload.  Functions that call nothing
traced in another layer (the kernels, the distribution helpers) get a
leaner wrapper that counts every call but times only the outermost one,
so a leaf calling a leaf is not timed twice.  For each operation label
set with :meth:`Tracer.op` the tracer keeps, per function, the call
count, the inclusive time and the self time (inclusive time minus the
time of traced callees), the caller -> callee edge counts, the
exceptions that crossed out of a module, and a few argument or result
derived counters (moment-integral kinds, Markov-chain steps).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

#: modules whose public functions are wrapped, i.e. the layers
LAYERS = ("gentile", "distributions", "quadrature", "ensemble",
          "thermostatics", "hierarchy", "montecarlo", "figures", "svgplot")

#: the scalar kernels reported as one aggregate
KERNELS = ("gentile.gentile_mean", "gentile.gentile_mean_dlambda",
           "gentile.log_partition")

#: functions that call no traced function of another layer
LEAF_LAYERS = ("gentile", "svgplot")
LEAF_FUNCTIONS = ("distributions.resolve", "distributions.support",
                  "distributions.atoms", "distributions.is_parametric")

_ROOT = "<benchmark>"


def _moment_kind(kwargs):
    """Label a moment_integrals call by what its caller asked for.

    The inverse problem passes rel_tol=1e-6 for its start scan and 1e-12
    for the Newton solve; derivative passes are told apart by the flag.
    """
    if kwargs.get("derivatives"):
        return "deriv"
    return {1e-6: "scan", 1e-12: "solve"}.get(kwargs.get("rel_tol"), "other")


class OpStats:
    """Aggregates for one operation label."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.edges = Counter()
        self.errors = Counter()
        self.extra = Counter()
        self.timed = Counter()
        self.leaf = {}

    def fold_leaves(self):
        """Move the leaves' [calls, timed calls, ns] cells into the counters."""
        for name, (calls, timed, ns) in self.leaf.items():
            self.calls[name] += calls
            self.timed[name] += timed
            self.total_ns[name] += ns
            self.self_ns[name] += ns
        self.leaf = {}

    def to_json(self):
        return {
            "functions": {name: {"calls": self.calls[name],
                                 "total_ns": self.total_ns[name],
                                 "self_ns": self.self_ns[name]}
                          for name in sorted(self.calls)},
            "edges": {f"{a} -> {b}": n for (a, b), n in sorted(self.edges.items())},
            "errors": {f"{m}:{c}": n for (m, c), n in sorted(self.errors.items())},
            "extra": dict(sorted(self.extra.items())),
        }


class Tracer:
    """Installs wrappers on hierstat's public functions and aggregates calls."""

    def __init__(self):
        self.by_op = {}
        self.stats = None
        self._stack = []
        self._in_leaf = [False]
        self._patched = []
        self.op(_ROOT)

    def op(self, label: str) -> None:
        """Attribute the following calls to operation ``label``."""
        self.stats = self.by_op.setdefault(label, OpStats())

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hierstat.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "hierstat" or name.startswith("hierstat.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        leaf = name.split(".", 1)[0] in LEAF_LAYERS or name in LEAF_FUNCTIONS
        return (self._wrap_leaf if leaf else self._wrap_span)(name, fn)

    def _wrap_leaf(self, name: str, fn):
        tracer = self
        stack = self._stack
        busy = self._in_leaf

        def traced(*args, **kwargs):
            cells = tracer.stats.leaf
            cell = cells.get(name)
            if cell is None:
                cell = cells[name] = [0, 0, 0]
            cell[0] += 1
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                busy[0] = False
                cell[1] += 1
                cell[2] += dt
                if stack:
                    stack[-1][0] += dt

        traced.__wrapped__ = fn
        return traced

    def _wrap_span(self, name: str, fn):
        tracer = self
        stack = self._stack
        layer = name.split(".", 1)[0]
        is_moments = name == "ensemble.moment_integrals"
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            caller = stack[-1][1] if stack else _ROOT
            if is_moments:
                tracer.stats.extra[f"moment_integrals.{_moment_kind(kwargs)}"] += 1
            frame = [0, name]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if caller.split(".", 1)[0] != layer:
                    tracer.stats.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = tracer.stats
                st.calls[name] += 1
                st.total_ns[name] += dt
                st.self_ns[name] += dt - frame[0]
                st.edges[(caller, name)] += 1
            if observe is not None:
                observe(tracer.stats.extra, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading the aggregates --------------------------------------------------

    def merged(self) -> OpStats:
        """All operation labels summed."""
        out = OpStats()
        for st in self.by_op.values():
            st.fold_leaves()
            for field in ("calls", "timed", "total_ns", "self_ns", "edges", "errors",
                          "extra"):
                getattr(out, field).update(getattr(st, field))
        return out

    def dump(self, path) -> None:
        """Write the per-operation aggregates as JSON."""
        for st in self.by_op.values():
            st.fold_leaves()
        payload = {label: st.to_json() for label, st in sorted(self.by_op.items())
                   if st.calls}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def _observe_canonical(extra, run):
    extra["montecarlo.steps"] += run.steps
    extra["montecarlo.canonical_steps"] += run.steps
    extra["montecarlo.accepted"] += round(run.acceptance_rate * run.steps)


def _observe_grand(extra, sample):
    extra["montecarlo.steps"] += sample.steps


_OBSERVERS = {
    "montecarlo.simulate_canonical": _observe_canonical,
    "montecarlo.sample_grand_canonical": _observe_grand,
}


def layer_metrics(st: OpStats) -> dict:
    """Per-layer metrics (name -> (value, unit)) from merged aggregates."""

    def self_s(layer):
        return sum(ns for name, ns in st.self_ns.items()
                   if name.split(".", 1)[0] == layer) / 1e9

    def calls(name):
        return st.calls[name]

    kernel_calls = sum(calls(k) for k in KERNELS)
    kernel_timed = sum(st.timed[k] for k in KERNELS)
    kernel_ns = sum(st.self_ns[k] for k in KERNELS)
    integrals = calls("quadrature.integrate_adaptive")
    panels = calls("quadrature.gauss_legendre_panel")
    kinds = {k: st.extra[f"moment_integrals.{k}"]
             for k in ("scan", "solve", "deriv", "other")}
    moments = sum(kinds.values())
    inversions = calls("thermostatics.invert_to_params")
    newton = st.edges[("thermostatics.invert_to_params",
                       "thermostatics.thermo_derivatives")]
    steps = st.extra["montecarlo.steps"]
    mc_ns = sum(ns for name, ns in st.self_ns.items()
                if name.split(".", 1)[0] == "montecarlo")
    canonical = st.extra["montecarlo.canonical_steps"]
    known = ("AccuracyError", "NoConvergence", "SingularInversion")
    thermo_errors = {cls: n for (layer, cls), n in st.errors.items()
                     if layer == "thermostatics"}

    out = {
        "gentile.calls": (kernel_calls, "count"),
        "gentile.ns_per_call": (kernel_ns / kernel_timed if kernel_timed else 0.0, "ns"),
        "gentile.self_s": (self_s("gentile"), "s"),
        "distributions.integrate_against.calls":
            (calls("distributions.integrate_against"), "count"),
        "distributions.self_s": (self_s("distributions"), "s"),
        "quadrature.integrals": (integrals, "count"),
        "quadrature.panels": (panels, "count"),
        "quadrature.panels_per_integral": (panels / integrals if integrals else 0.0, "ratio"),
        "quadrature.accuracy_errors": (st.errors[("quadrature", "AccuracyError")], "count"),
        "quadrature.self_s": (self_s("quadrature"), "s"),
    }
    for kind, n in kinds.items():
        out[f"ensemble.moment_integrals.{kind}"] = (n, "count")
    out.update({
        "ensemble.self_s": (self_s("ensemble"), "s"),
        "thermostatics.inversions": (inversions, "count"),
        "thermostatics.newton_iters": (newton / inversions if inversions else 0.0,
                                       "per_inversion"),
        "thermostatics.scan_share": (kinds["scan"] / moments if moments else 0.0, "ratio"),
    })
    for cls in known:
        out[f"thermostatics.failures.{cls}"] = (thermo_errors.get(cls, 0), "count")
    out["thermostatics.failures.other"] = (
        sum(n for cls, n in thermo_errors.items() if cls not in known), "count")
    out.update({
        "thermostatics.self_s": (self_s("thermostatics"), "s"),
        "hierarchy.exact_canonical.calls": (calls("hierarchy.exact_canonical"), "count"),
        "hierarchy.self_s": (self_s("hierarchy"), "s"),
        "montecarlo.steps": (steps, "count"),
        "montecarlo.ns_per_step": (mc_ns / steps if steps else 0.0, "ns"),
        "montecarlo.acceptance_rate": (
            st.extra["montecarlo.accepted"] / canonical if canonical else 0.0, "ratio"),
        "montecarlo.self_s": (self_s("montecarlo"), "s"),
        "figures.self_s": (self_s("figures"), "s"),
        "svgplot.self_s": (self_s("svgplot"), "s"),
    })
    return out


#: per-layer metrics that count work; they must repeat exactly for a seed
WORK_COUNTS = (
    "gentile.calls", "distributions.integrate_against.calls",
    "quadrature.integrals", "quadrature.panels", "quadrature.accuracy_errors",
    "ensemble.moment_integrals.scan", "ensemble.moment_integrals.solve",
    "ensemble.moment_integrals.deriv", "ensemble.moment_integrals.other",
    "thermostatics.inversions", "thermostatics.newton_iters",
    "hierarchy.exact_canonical.calls", "montecarlo.steps",
    "montecarlo.acceptance_rate",
)
