"""Per-layer spans, recorded by wrapping calls into each ``ehrcollapse`` module.

A layer is a module.  The wrappers live here, in the benchmark, not in the
program: each public function is replaced, on every loaded ``ehrcollapse``
module that refers to it, by a wrapper that opens a span, calls it and closes
the span.  A function that does not exist is skipped, and the metrics of its
layer read 0, so the benchmark keeps running when a later change deletes one.

A span's self time is its duration minus its child spans.  A layer's self time
counts only spans whose parent is in another layer, and treats calls within
the layer as part of the outer span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function, layer) wrapped when present; "Class.method" wraps a method.
COUNTING = ("count_triangle", "count_triangle_many", "count_triangle_interior",
            "count_axis_simplex", "count_interval", "count_rational_triangle2d",
            "closed_form_admissible", "asymptotic_deficit", "counts_table")
CRITERIA = ("check_collapse_criterion", "check_pseudo_integral_criterion",
            "check_reciprocal_criterion", "reciprocal_params", "classify_admissible",
            "solve_beta_equation")
QUAD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__eq__", "__lt__",
            "__le__", "__gt__", "__ge__", "__abs__", "__floor__", "__ceil__", "sign")
TARGETS = (
    [("cli", "build_parser", "cli"), ("cli", "_Emitter.emit", "cli")]
    + [("arith", f"QuadNumber.{op}", "arith") for op in QUAD_OPS]
    + [("counting", name, "counting") for name in COUNTING]
    + [("kernels", "rational_counts", "kernels"), ("kernels", "quad_counts", "kernels")]
    + [("quasipoly", "fit_quasipolynomial", "quasipoly"),
       ("quasipoly", "minimal_period", "quasipoly")]
    + [("linalg", name, "linalg") for name in ("solve_square", "nullspace_vector", "rank_mod_p")]
    + [("precursive", "guess_recurrence", "precursive"),
       ("precursive", "verify_recurrence", "precursive")]
    + [("criteria", name, "criteria") for name in CRITERIA]
)

UNITS = {
    "cli.parse_ms": "ms", "cli.emit_ms": "ms",
    "arith.quad_ops": "count", "arith.quad_ms": "ms",
    "counting.calls": "count", "counting.ts": "count", "counting.self_ms": "ms",
    "counting.bigint_calls": "count",
    "kernels.calls": "count", "kernels.terms": "count", "kernels.ms": "ms",
    "kernels.ns_per_term": "ns",
    "quasipoly.fit_calls": "count", "quasipoly.samples": "count",
    "quasipoly.fit_self_ms": "ms", "quasipoly.minimal_period_ms": "ms",
    "linalg.solve_calls": "count", "linalg.solve_ms": "ms",
    "linalg.nullspace_calls": "count", "linalg.nullspace_ms": "ms",
    "linalg.rank_calls": "count", "linalg.rank_ms": "ms",
    "precursive.cells": "count", "precursive.rank_reject_share": "ratio",
    "precursive.verify_ms": "ms",
    "criteria.calls": "count", "criteria.ms": "ms",
}

MAX_SPANS = 200_000  # spans kept for the trace file; aggregates count every span


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "foreign", "kernel", "index")

    def __init__(self, layer, name, start, index):
        self.layer, self.name, self.start, self.index = layer, name, start, index
        self.child = 0  # ns in direct child spans
        self.foreign = 0  # ns in child spans of other layers, seen through same-layer spans
        self.kernel = False  # a kernels span ran inside this one


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list = []
        self.dropped = 0
        self.names: dict[str, int] = {}
        self.fn_calls = defaultdict(int)
        self.fn_incl = defaultdict(int)
        self.fn_self = defaultdict(int)
        self.layer_calls = defaultdict(int)
        self.layer_incl = defaultdict(int)
        self.layer_self = defaultdict(int)
        self.counts = defaultdict(int)
        self.installed: list[str] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str, name: str) -> _Frame:
        index = len(self.spans)
        if index < MAX_SPANS:
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = _Frame(layer, name, time.perf_counter_ns(), index)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> int:
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame.start
        parent = self.stack[-1] if self.stack else None
        self.fn_calls[frame.name] += 1
        self.fn_incl[frame.name] += dur
        self.fn_self[frame.name] += dur - frame.child
        if parent is not None:
            parent.child += dur
            parent.kernel |= frame.kernel or frame.layer == "kernels"
        if parent is not None and parent.layer == frame.layer:
            parent.foreign += frame.foreign
        else:
            if parent is not None:
                parent.foreign += dur
            self.layer_calls[frame.layer] += 1
            self.layer_incl[frame.layer] += dur
            self.layer_self[frame.layer] += dur - frame.foreign
        if frame.index >= 0:
            name_id = self.names.setdefault(frame.name, len(self.names))
            parent_index = parent.index if parent is not None else -1
            self.spans[frame.index] = (name_id, parent_index, frame.start, end)
        return dur

    def outermost_closed(self, frame: _Frame) -> bool:
        """After frame's exit: whether no span of its layer is still open."""
        return not self.stack or self.stack[-1].layer != frame.layer

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for module, target, layer in TARGETS:
            if module not in modules:
                try:
                    modules[module] = importlib.import_module(f"ehrcollapse.{module}")
                except ImportError:
                    modules[module] = None
            mod = modules[module]
            if mod is None:
                continue
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None:
                continue
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(fn, layer, f"{module}.{target}")
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                _rebind(fn, wrapped)
            self.installed.append(f"{module}.{target}")

    def _wrap(self, fn, layer: str, name: str):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            frame = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        ms = 1e-6
        c = self.counts
        fn_calls, fn_incl, fn_self = self.fn_calls, self.fn_incl, self.fn_self
        terms = c["kernels.terms"]
        cells = c["precursive.cells"]
        return {
            "cli.parse_ms": (fn_incl["cli.build_parser"] + fn_incl["cli.parse_args"]) * ms,
            "cli.emit_ms": fn_incl["cli._Emitter.emit"] * ms,
            "arith.quad_ops": self.layer_calls["arith"],
            "arith.quad_ms": self.layer_incl["arith"] * ms,
            "counting.calls": self.layer_calls["counting"],
            "counting.ts": c["counting.ts"],
            "counting.self_ms": self.layer_self["counting"] * ms,
            "counting.bigint_calls": c["counting.bigint_calls"],
            "kernels.calls": self.layer_calls["kernels"],
            "kernels.terms": terms,
            "kernels.ms": self.layer_incl["kernels"] * ms,
            "kernels.ns_per_term": self.layer_incl["kernels"] / terms if terms else 0.0,
            "quasipoly.fit_calls": fn_calls["quasipoly.fit_quasipolynomial"],
            "quasipoly.samples": c["quasipoly.samples"],
            "quasipoly.fit_self_ms": fn_self["quasipoly.fit_quasipolynomial"] * ms,
            "quasipoly.minimal_period_ms": fn_incl["quasipoly.minimal_period"] * ms,
            "linalg.solve_calls": fn_calls["linalg.solve_square"],
            "linalg.solve_ms": fn_incl["linalg.solve_square"] * ms,
            "linalg.nullspace_calls": fn_calls["linalg.nullspace_vector"],
            "linalg.nullspace_ms": fn_incl["linalg.nullspace_vector"] * ms,
            "linalg.rank_calls": fn_calls["linalg.rank_mod_p"],
            "linalg.rank_ms": fn_incl["linalg.rank_mod_p"] * ms,
            "precursive.cells": cells,
            "precursive.rank_reject_share": c["precursive.rank_rejects"] / cells if cells else 0.0,
            "precursive.verify_ms": fn_incl["precursive.verify_recurrence"] * ms,
            "criteria.calls": self.layer_calls["criteria"],
            "criteria.ms": self.layer_incl["criteria"] * ms,
        }

    def dump(self) -> dict:
        functions = {
            name: {"calls": self.fn_calls[name], "incl_ms": self.fn_incl[name] * 1e-6,
                   "self_ms": self.fn_self[name] * 1e-6}
            for name in sorted(self.fn_calls)
        }
        return {
            "installed": self.installed,
            "functions": functions,
            "span_fields": ["name", "parent", "start_ns", "end_ns"],
            "names": sorted(self.names, key=self.names.get),
            "spans": [s for s in self.spans if s is not None],
            "spans_dropped": self.dropped,
        }


def _rebind(fn, wrapped) -> None:
    """Point every loaded ehrcollapse module's reference to fn at wrapped."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ehrcollapse" or mod_name.startswith("ehrcollapse.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapped)


# -- hooks: work counts read from arguments and results ----------------------------


def _materialize(position: int):
    """Turn a one-shot iterable argument into a list so its length can be read."""
    def before(tracer, args):
        if len(args) > position and not hasattr(args[position], "__len__"):
            args = args[:position] + (list(args[position]),) + args[position + 1:]
        return args
    return before


def _build_parser_after(tracer, frame, args, parser):
    if parser is not None:
        parser.parse_args = tracer._wrap(parser.parse_args, "cli", "cli.parse_args")


def _count_one_after(tracer, frame, args, result):
    if tracer.outermost_closed(frame):
        tracer.counts["counting.ts"] += 1


def _count_many_after(tracer, frame, args, result):
    ts = args[1] if len(args) > 1 else ()
    if tracer.outermost_closed(frame):
        tracer.counts["counting.ts"] += len(ts)
    if not frame.kernel and len(ts):
        tracer.counts["counting.bigint_calls"] += 1


def _rational_kernel_after(tracer, frame, args, result):
    p, q, ts = args[0], args[1], args[4]
    tracer.counts["kernels.terms"] += sum(int(t) * p // q + 1 for t in ts)


def _quad_kernel_after(tracer, frame, args, result):
    tracer.counts["kernels.terms"] += sum(int(x) + 1 for x in args[7])


def _fit_after(tracer, frame, args, result):
    tracer.counts["quasipoly.samples"] += len(args[0])


def _guess_after(tracer, frame, args, result):
    max_order, max_degree = args[1], args[2]
    if result is None:
        cells = (max_order + 1) * (max_degree + 1)
    else:
        cells = result.order * (max_degree + 1) + result.degree + 1
    tracer.counts["precursive.cells"] += cells


def _rank_after(tracer, frame, args, result):
    if result == args[1] and any(
            f.name == "precursive.guess_recurrence" for f in tracer.stack):
        tracer.counts["precursive.rank_rejects"] += 1


HOOKS = {
    "cli.build_parser": (None, _build_parser_after),
    "counting.count_triangle": (None, _count_one_after),
    "counting.count_triangle_interior": (None, _count_one_after),
    "counting.count_axis_simplex": (None, _count_one_after),
    "counting.count_interval": (None, _count_one_after),
    "counting.count_triangle_many": (_materialize(1), _count_many_after),
    "kernels.rational_counts": (None, _rational_kernel_after),
    "kernels.quad_counts": (None, _quad_kernel_after),
    "quasipoly.fit_quasipolynomial": (_materialize(0), _fit_after),
    "precursive.guess_recurrence": (None, _guess_after),
    "linalg.rank_mod_p": (None, _rank_after),
}
