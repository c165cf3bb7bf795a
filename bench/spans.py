"""Layer timing from outside the program.

`Tracer.install()` wraps every public function of every `factorkit` module
on each module attribute bound to it (the pipelines reach their engines
through `from .x import f` bindings), plus three methods on their classes.
A wrapper records a span only while an instance runs: name, start, end,
parent span, instance id and counts taken from the arguments and the
return value.  Self time is a span's duration minus its children's.

Per-layer totals accumulate for every traced call; raw spans are kept in
memory for the first round only and written out at the end.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from factorkit import UNKNOWN, FactorCertificate, MultiGraph, PackingRefusal, TreePacking

METHODS = (
    (FactorCertificate, "verify", "pipeline.FactorCertificate.verify"),
    (TreePacking, "verify", "connectivity.TreePacking.verify"),
    (MultiGraph, "__init__", "graph.MultiGraph.init"),
)
TWO_POINT_SEARCHES = ("orientations.two_point_orientation", "orientations.z_defective_orientation")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _counts(name: str, args, kwargs, result, self_s: float, tracer: "Tracer") -> dict | None:
    """Counts a span carries, taken from its arguments and return value."""
    if name == "connectivity.spanning_tree_packing":
        refused = isinstance(result, PackingRefusal)
        return {
            "trees_requested": _arg(args, kwargs, 1, "m") or 0,
            "refusals": int(refused),
            "refusal_self_s": self_s if refused else 0.0,
        }
    if name in TWO_POINT_SEARCHES:
        return {"unknowns": int(result is UNKNOWN)}
    if name == "orientations.interval_orientation":
        return {"in_search": int(tracer.search_depth > 0)}
    if name == "matching.maximum_matching":
        edges = _arg(args, kwargs, 1, "edges")
        return {
            "gadget_vertices": _arg(args, kwargs, 0, "n"),
            "gadget_edges": len(edges) if hasattr(edges, "__len__") else 0,
        }
    if name == "flow.feasible_flow":
        return {"arcs": len(_arg(args, kwargs, 1, "arcs"))}
    return None


class Tracer:
    def __init__(self) -> None:
        self.instance: int | None = None  # spans are recorded only while set
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extras: dict[str, float] = defaultdict(float)
        self.search_depth = 0
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        search = name in TWO_POINT_SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            tracer.search_depth += search
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer.search_depth -= search
                tracer._stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                self_s = dur - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += self_s
                counts = _counts(name, args, kwargs, result, self_s, tracer)
                if counts:
                    for key, val in counts.items():
                        tracer.extras[f"{name}.{key}"] += val
                if tracer.keep_spans:
                    tracer.spans.append((
                        span_id, name, start, end,
                        parent[0] if parent is not None else None,
                        tracer.instance, counts,
                    ))

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "factorkit" or key.startswith("factorkit."))
        ]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("factorkit."):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(f"{home[len('factorkit.'):]}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        for cls, attr, name in METHODS:
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    # -- results ----------------------------------------------------------

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "instance", "counts")
        return [dict(zip(keys, s)) for s in self.spans]


