"""Outside-in tracing of the liftzonoid package for the benchmark's traced run.

The program is not changed. The tracer wraps public functions and methods
of the package and records one span per call: name, start, end, parent
span and the operation id the harness set. ``from x import f`` copies the
binding, so a function is replaced in every ``liftzonoid`` module
namespace that binds it (and in module-level dicts such as the CLI's
function table); methods are replaced on their class. Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

from stats import covered_length, mean_or_zero

NORMAL_CHAIN = (
    "normal_pdf",
    "normal_cdf",
    "normal_sf",
    "normal_quantile",
    "isoperimetric",
    "radius",
    "g_ratio",
    "g_inverse",
)
HALFSPACE_METHODS = ("halfspace_barycenter", "halfspace_mass", "upper_quantile")
# (module, attribute) pairs wrapped in the traced run. Span names are
# "<module>.<function>"; methods of both measure classes share one name.
TARGETS = (
    [
        ("cli", "main"),
        ("measures", "load_measure"),
        ("measures", "upper_mass_split"),
        ("depth", "check_affine_span"),
        ("depth", "zonoid_depth"),
        ("simplex", "solve_bounded_lp"),
        ("zonoid", "trimmed_boundary_point"),
        ("zonoid", "support_trimmed"),
        ("barycentric", "represent"),
        ("barycentric", "convert_coords"),
        ("gaussian", "gaussian_depth"),
        ("gaussian", "gaussian_represent"),
        ("verify", "run_suite"),
        ("sampling", "direction_grid"),
    ]
    + [("normal", name) for name in NORMAL_CHAIN]
    + [("measures", f"{cls}.{meth}") for cls in ("EmpiricalMeasure", "GaussianMeasure") for meth in HALFSPACE_METHODS]
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "meta")

    def __init__(self, name, start, end, parent, op, meta=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.meta = meta

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "meta": self.meta,
        }


def _annotate_depth(args, kwargs, result):
    return {"iterations": int(result.iterations), "n": int(args[0].size)}


def _annotate_load(args, kwargs, result):
    paths = [p for p in list(args) + list(kwargs.values()) if p is not None]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


_ANNOTATORS = {
    "depth.zonoid_depth": _annotate_depth,
    "measures.load_measure": _annotate_load,
}


class Tracer:
    """Span recorder whose wrappers can be installed and removed again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        annotate = _ANNOTATORS.get(name)
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.meta = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        modules = [
            m for key, m in list(sys.modules.items()) if key == "liftzonoid" or key.startswith("liftzonoid.")
        ]
        for module_name, attr in targets:
            owner = importlib.import_module(f"liftzonoid.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(f"{module_name}.{method}", original))
                self._undo.append((setattr, cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((setattr, module, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((dict.__setitem__, value, k, original))

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        kids = [(c.start, c.end) for c in children.get(index, ())]
        out.append((span.end - span.start) - covered_length(kids, span.start, span.end))
    return out


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, n_ops: int, import_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of one traced run.

    ``n_ops`` counts the operations of the traced pass (spans with an
    integer op id); load and direction-grid spans of set-up carry op
    ``"setup"`` and count towards their per-call means only.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name.get(name, ())]

    def self_of(name):
        return [selfs[i] for i in by_name.get(name, ())]

    def in_ops(name):
        return [i for i in by_name.get(name, ()) if isinstance(spans[i].op, int)]

    ms = 1e3
    loads = by_name.get("measures.load_measure", ())
    load_bytes = sum(spans[i].meta["bytes"] for i in loads)
    load_time = sum(durations("measures.load_measure"))
    depth_calls = [spans[i].meta for i in by_name.get("depth.zonoid_depth", ())]
    halfspace = {f"measures.{m}" for m in HALFSPACE_METHODS}
    outer_halfspace = sum(
        s.end - s.start
        for s in spans
        if s.name in halfspace and isinstance(s.op, int) and (s.parent is None or spans[s.parent].name not in halfspace)
    )
    normal = {f"normal.{f}" for f in NORMAL_CHAIN}
    normal_spans = [s for s in spans if s.name in normal]
    outer_normal = sum(
        s.end - s.start for s in normal_spans if s.parent is None or spans[s.parent].name not in normal
    )
    conversions = by_name.get("barycentric.convert_coords", ())
    passes = sum(
        1 for i in by_name.get("zonoid.support_trimmed", ()) if _has_ancestor(spans, spans[i], "barycentric.convert_coords")
    )
    ops = max(n_ops, 1)
    return {
        "cli.import_s": import_s,
        "cli.main_self_ms": ms * mean_or_zero(self_of("cli.main")),
        "measures.load_ms": ms * mean_or_zero(durations("measures.load_measure")),
        "measures.load_mb_per_s": load_bytes / load_time / 1e6 if load_time > 0 else 0.0,
        "measures.tail_calls_per_op": len(in_ops("measures.upper_mass_split")) / ops,
        "measures.tail_ms": ms * mean_or_zero(durations("measures.upper_mass_split")),
        "measures.halfspace_ms": ms * outer_halfspace / ops,
        "depth.span_check_ms": ms * mean_or_zero(durations("depth.check_affine_span")),
        "depth.self_ms": ms * mean_or_zero(self_of("depth.zonoid_depth")),
        "simplex.solve_ms": ms * mean_or_zero(durations("simplex.solve_bounded_lp")),
        "simplex.iterations": sum(c["iterations"] for c in depth_calls),
        "simplex.iterations_per_atom": mean_or_zero(c["iterations"] / c["n"] for c in depth_calls),
        "zonoid.boundary_point_self_ms": ms * mean_or_zero(self_of("zonoid.trimmed_boundary_point")),
        "zonoid.support_trimmed_self_ms": ms * mean_or_zero(self_of("zonoid.support_trimmed")),
        "barycentric.represent_self_ms": ms * mean_or_zero(self_of("barycentric.represent")),
        "barycentric.convert_ms": ms * mean_or_zero(durations("barycentric.convert_coords")),
        "barycentric.tail_passes_per_conversion": passes / len(conversions) if conversions else 0.0,
        "gaussian.depth_us": 1e6 * mean_or_zero(durations("gaussian.gaussian_depth")),
        "gaussian.represent_us": 1e6 * mean_or_zero(durations("gaussian.gaussian_represent")),
        "normal.calls": len(normal_spans),
        "normal.ms": ms * outer_normal,
        "verify.suite_ms": ms * mean_or_zero(durations("verify.run_suite")),
        "sampling.direction_grid_ms": ms * mean_or_zero(durations("sampling.direction_grid")),
        "trace.overhead_frac": overhead_frac,
    }

