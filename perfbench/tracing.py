"""Spans and counters around calls into planewheel, recorded from outside.

`install(tracer)` swaps each traced function or method for a wrapper, in the
class that defines it or in every loaded module that holds it by name (for
example `solver` imports `crossing_graph` by name), so no file of the program
is edited.  A span records its name, its parent span and its duration; a
layer's self time is its span time minus the time of the spans it caused.
Spans are aggregated in memory per (parent, name) edge.

`edgeorder` is called millions of times per run, mostly by itself, so its
spans sit at the layer boundary only: the modules that call into it see a
copy of the module whose functions are spans, while its calls to itself stay
unwrapped.  `dist` and `distance_children` are also counted on every call.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import defaultdict
from functools import wraps

from planewheel import _core, cli, doublestar, edgeorder, enumerate_k3, partition, solver, wheelgeom


class Tracer:
    def __init__(self):
        self._stack: list[list] = [[None, 0.0]]  # open spans as [name, time of child spans]
        self._edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total, child time]
        self._counters: dict[str, list[int]] = {}

    def span(self, name, fn):
        stack, edges, clock = self._stack, self._edges, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = edges.get((parent[0], name))
                if rec is None:
                    rec = edges[(parent[0], name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]

        return wrapper

    def span_generator(self, name, fn, item_count):
        """A generator function whose every step is one span; each item it
        yields adds one to the counter `item_count`."""
        step = self.span(name, next)
        items = self._counter(item_count)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                items[0] += 1
                yield item

        return wrapper

    def _counter(self, name) -> list[int]:
        return self._counters.setdefault(name, [0])

    def count(self, name, fn):
        cell = self._counter(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name, n: int) -> None:
        self._counter(name)[0] += n

    def dump(self) -> dict:
        spans: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (_, name), (calls, total, child) in self._edges.items():
            s = spans[name]
            s["calls"] += calls
            s["total_s"] += total
            s["self_s"] += total - child
        return {
            "spans": dict(sorted(spans.items())),
            "edges": [
                {"parent": p, "name": n, "calls": rec[0], "total_s": rec[1]}
                for (p, n), rec in sorted(self._edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "counts": {n: cell[0] for n, cell in sorted(self._counters.items())},
        }


def _replace_everywhere(original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _edgeorder_boundary(tracer: Tracer) -> types.SimpleNamespace:
    for name in ("dist", "distance_children"):
        setattr(edgeorder, name, tracer.count(f"edgeorder.{name}", getattr(edgeorder, name)))
    public = {}
    for name, value in vars(edgeorder).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == edgeorder.__name__:
            value = tracer.span(f"edgeorder.{name}", value)
        public[name] = value
    return types.SimpleNamespace(**public)


def install(tracer: Tracer) -> None:
    search = _core.search

    def traced_search(*args):
        res = search(*args)
        tracer.add("core.nodes", res["nodes"])
        return res

    functions = [
        ("core.search", search, traced_search),
        ("solver.solve", solver.solve, None),
        ("solver.max_crossing_family", solver.max_crossing_family, None),
        ("solver.decide_theorem", solver.decide_theorem, None),
        ("wheelgeom.realize_coordinates", wheelgeom.realize_coordinates, None),
        ("wheelgeom.geometric_crossing_pairs", wheelgeom.geometric_crossing_pairs, None),
        ("wheelgeom.canonicalize", wheelgeom.canonicalize, None),
        ("partition.validate_plane_partition", partition.validate_plane_partition, None),
        ("partition.validate_spanning_trees", partition.validate_spanning_trees, None),
        ("partition.validate_double_stars", partition.validate_double_stars, None),
        ("partition.structural_audit", partition.structural_audit, None),
        ("partition.canonical_form", partition.canonical_form, None),
        ("doublestar.bad_halfplanes", doublestar.bad_halfplanes, None),
        ("doublestar.empty_triple", doublestar.empty_triple, None),
        ("doublestar.criterion_small_families", doublestar.criterion_small_families, None),
        ("doublestar.criterion_large_families", doublestar.criterion_large_families, None),
        ("doublestar.tree_nonpartition_criterion", doublestar.tree_nonpartition_criterion, None),
        ("cli.run", cli.run, None),
    ]
    for name, fn, body in functions:
        _replace_everywhere(fn, tracer.span(name, body or fn))
    original = enumerate_k3.enumerate_all
    _replace_everywhere(
        original, tracer.span_generator("enumerate_k3.enumerate_all", original, "enumerate_k3.partitions")
    )
    boundary = _edgeorder_boundary(tracer)
    for module in (partition, enumerate_k3, doublestar):
        module.edgeorder = boundary

    # methods are wrapped on their class, so every caller sees the wrapper
    graph = wheelgeom.CrossingGraph
    graph.__init__ = tracer.span("wheelgeom.crossing_graph", graph.__init__)
    model = wheelgeom.WheelModel
    model.far_arc = tracer.count("wheelgeom.far_arc", model.far_arc)
    model.group_of = tracer.count("wheelgeom.group_of", model.group_of)
    part = partition.Partition
    part.__post_init__ = tracer.count("partition.partitions_built", part.__post_init__)
