"""Span wrappers for the traced run, installed from outside the package.

`install()` rebinds every place the program looks a commcycles function up:
each module's globals (including names bound by `from`-imports), the
builders and constructors held in `cli._CLOSED_FORMS`, and the arithmetic
and evaluation methods of `RationalPoly`.  Only real functions are wrapped;
`polys.ONE`, `polys.X` and `polys.ZERO` are callable `RationalPoly`
instances and must stay untouched.

Each call records one span in memory: (name, parent span, start, end,
work), where work is a layer-specific count (coefficient products, permutations
enumerated, Monte-Carlo draws, checks).  `layer_metrics()` reduces the spans
to the per-layer numbers; `write_spans()` dumps them as CSV.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import time

LAYERS = ("cli", "polys", "genfun", "oracle", "perm", "rmt", "verify")

# Methods of polys.RationalPoly that get spans of their own.
POLY_METHODS = ("__mul__", "__rmul__", "__add__", "__radd__", "__call__", "compose")

# Functions whose inclusive time is reported on its own.
PGF_BUILDERS = frozenset(
    f"genfun.{n}"
    for n in ("uniform_cycles_pgf", "alternating_pgf", "one_cycle_pgf", "two_cycles_pgf", "transpositions_pgf")
)
ROOTFIND = frozenset({"genfun.negative_real_roots"})
MC_TARGETS = frozenset(
    f"rmt.{n}"
    for n in ("trace_power_target", "gamma_shortcut_target", "real_trace_target", "tr_g_squared_target", "tr_g1g2_target")
)
POLY_MUL = frozenset({"polys.RationalPoly.__mul__", "polys.RationalPoly.__rmul__"})
POLY_EVAL = frozenset({"polys.RationalPoly.__call__"})


def _poly_mul_work(args, kwargs, result):
    a, b = args
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _perms_from_tau(args, kwargs, result):
    return math.factorial(args[0].size)


def _perms_from_size(args, kwargs, result):
    return math.factorial(args[0])


def _mc_draws(args, kwargs, result):
    return result.samples


def _checks(args, kwargs, result):
    return len(result)


# Work counters, keyed by span name: f(args, kwargs, result) -> number.
WORK = {
    "polys.RationalPoly.__mul__": _poly_mul_work,
    "polys.RationalPoly.__rmul__": _poly_mul_work,
    "oracle.exact_commutator_distribution": _perms_from_tau,
    "oracle.conjugacy_class": _perms_from_tau,
    "oracle.exact_uniform_cycle_distribution": _perms_from_size,
    "rmt.mc_trace_power_moment": _mc_draws,
    "rmt.mc_gamma_shortcut_moment": _mc_draws,
    "rmt.mc_real_trace_law": _mc_draws,
    "rmt.mc_tr_g_squared_law": _mc_draws,
    "rmt.mc_tr_g1g2_law": _mc_draws,
    "rmt.mixed_trace_vanishing": _mc_draws,
    "verify.run_scope": _checks,
}


class Tracer:
    """In-memory span recorder.  Spans are appended in call order, so a
    parent always has a smaller index than its children."""

    def __init__(self):
        self.spans: list = []  # (name, parent, start, end, work)
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        """A wrapper around fn that records one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            work = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = work_of(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, work)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every commcycles module at every
        binding site the program reads them from."""
        modules = {n: importlib.import_module(f"commcycles.{n}") for n in LAYERS}

        wrapped: dict[int, object] = {}  # one wrapper per function, however many names bind it

        def wrap_once(fn):
            if id(fn) not in wrapped:
                name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
                wrapped[id(fn)] = self.wrap(fn, name)
            return wrapped[id(fn)]

        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("commcycles."):
                    continue
                setattr(mod, attr, wrap_once(obj))

        cli = modules["cli"]
        for key, (source, builder, ctor) in list(cli._CLOSED_FORMS.items()):
            cli._CLOSED_FORMS[key] = (
                source,
                wrap_once(builder),
                None if ctor is None else wrap_once(ctor),
            )

        poly_cls = modules["polys"].RationalPoly
        for attr in POLY_METHODS:
            # __rmul__ and __radd__ are the same functions as __mul__ and
            # __add__; each name gets its own wrapper and span name.
            setattr(poly_cls, attr, self.wrap(vars(poly_cls)[attr], f"polys.RationalPoly.{attr}"))

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics of the benchmark."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        # Inclusive-time metrics: each counts only the outermost span of its
        # kind, so nested calls (a builder inside a builder) are not doubled.
        inclusive = {
            "genfun.pgf_build_s": PGF_BUILDERS,
            "genfun.rootfind_s": ROOTFIND,
            "rmt.target_s": MC_TARGETS,
            "polys.eval_s": POLY_EVAL,
        }
        inside = {metric: [False] * len(spans) for metric in inclusive}
        m = {f"{layer}.{what}": 0 for layer in LAYERS for what in ("self_s", "calls")}
        m.update({metric: 0.0 for metric in inclusive})
        m.update(
            {
                "polys.mul_calls": 0,
                "polys.mul_coeff_ops": 0,
                "polys.eval_calls": 0,
                "genfun.rootfind_calls": 0,
                "oracle.perms": 0,
                "rmt.draws": 0,
                "verify.checks": 0,
            }
        )
        for i, (name, parent, start, end, work) in enumerate(spans):
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            layer = name.partition(".")[0]
            m[f"{layer}.calls"] += 1
            for metric, names in inclusive.items():
                enclosed = parent >= 0 and (inside[metric][parent] or spans[parent][0] in names)
                inside[metric][i] = enclosed
                if name in names and not enclosed:
                    m[metric] += duration
            if name in POLY_MUL:
                m["polys.mul_calls"] += 1
                m["polys.mul_coeff_ops"] += work
            elif name in POLY_EVAL:
                m["polys.eval_calls"] += 1
            elif name in ROOTFIND:
                m["genfun.rootfind_calls"] += 1
            elif layer == "oracle":
                m["oracle.perms"] += work
            elif layer == "rmt":
                m["rmt.draws"] += work
            elif layer == "verify":
                m["verify.checks"] += work
        for (name, _parent, start, end, _work), children in zip(spans, child_time):
            m[f"{name.partition('.')[0]}.self_s"] += (end - start) - children
        m["oracle.perms_per_s"] = m["oracle.perms"] / m["oracle.self_s"] if m["oracle.self_s"] > 0 else 0.0
        m["rmt.draws_per_s"] = m["rmt.draws"] / m["rmt.self_s"] if m["rmt.self_s"] > 0 else 0.0
        return m

    def write_spans(self, path) -> None:
        """Dump the spans as CSV: index, parent, name, start, end, work."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "start_s", "end_s", "work"])
            for i, (name, parent, start, end, work) in enumerate(self.spans):
                out.writerow([i, parent, name, f"{start:.9f}", f"{end:.9f}", work])
