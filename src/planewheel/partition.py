"""Partitions of the complete geometric graph on a wheel: validation of plane
subgraph / spanning tree / double star modes, structural audits of concrete
partitions, and isomorphism via canonical forms."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from . import edgeorder
from .wheelgeom import EdgeId, WheelModel, WheelTables, edge, is_bumpy, wheel_tables

MODE_SUBGRAPH = "subgraph"
MODE_TREE = "spanning_tree"
MODE_DOUBLE_STAR = "double_star"


@dataclass(frozen=True)
class Partition:
    """An edge colouring of a wheel's complete graph with colours 0..m-1:
    `colors[i]` is the colour of `wheel_tables(model).edges[i]`."""

    model: WheelModel
    m: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:  # True, 5.0 and -3 are no class counts
            raise ValueError(f"m must be an int >= 1, got {self.m!r}")
        colors = self.colors
        if type(colors) is not tuple or len(colors) != len(wheel_tables(self.model).edges):
            raise ValueError("color map must cover every edge exactly once")
        try:
            # one C pass: deleting the bytes 0..m-1 leaves nothing iff every
            # colour is an integer in range(m).  bytes() refuses non-integers
            # and values outside 0..255; those, and any m > 256, fall through
            # to the per-colour check below
            if not bytes(colors).translate(None, bytes(range(self.m))):
                return
        except (TypeError, ValueError):
            pass
        for c in colors:
            if not _is_color(c, self.m):
                raise ValueError(f"color must be an int in range({self.m}), got {c!r}")

    @cached_property
    def _classes(self) -> tuple[tuple[EdgeId, ...], ...]:
        out: list[list[EdgeId]] = [[] for _ in range(self.m)]
        for e, c in zip(wheel_tables(self.model).edges, self.colors):
            out[c].append(e)
        return tuple(map(tuple, out))

    def classes(self) -> tuple[tuple[EdgeId, ...], ...]:
        """The edges of each colour, in table edge order; built once, since a
        partition is frozen."""
        return self._classes

    def to_json(self) -> dict:
        return {"model": self.model.to_json(), "m": self.m, "colors": list(self.colors)}

    @classmethod
    def from_json(cls, obj: dict) -> "Partition":
        model = WheelModel.from_json(obj["model"])
        colors = obj["colors"]
        nv = model.num_points
        n_edges = nv * (nv - 1) // 2  # checked before the model's tables are built
        if len(colors) != n_edges:
            raise ValueError(f"expected {n_edges} colors, got {len(colors)}")
        m = obj["m"]
        for value in (m, *colors):
            if type(value) is not int:  # JSON true, 1.5 and "2" are no colours or counts
                raise ValueError(f"colors and m must be JSON integers, got {value!r}")
        if m > n_edges:  # classes beyond the edge count stay empty, yet every validator builds and reports them
            raise ValueError(f"m must be at most the edge count {n_edges}, got {m}")
        return cls(model=model, m=m, colors=tuple(colors))


def _is_color(c, m: int) -> bool:
    """Whether c is an integer (a list index, as `bytes` takes it) in range(m)."""
    try:
        c = operator.index(c)
    except TypeError:
        return False
    return 0 <= c < m


@dataclass
class AuditReport:
    class_flags: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, msg: str):
        self.violations.append(msg)


def _class_plane(t: WheelTables, es: Sequence[EdgeId]) -> tuple[bool, list]:
    """Whether no two edges of the class cross; if two do, the first edge in
    edge order that crosses another, and its lowest-index partner."""
    index = t.index
    mask = sum(1 << index[e] for e in es)
    for e in es:
        hit = t.crossings[index[e]] & mask
        if hit:
            return False, [e, t.edges[(hit & -hit).bit_length() - 1]]
    return True, []


def _class_components(num_vertices: int, es: Sequence[EdgeId]) -> tuple[int, set[int]]:
    """The number of connected components of the class's edges, and the
    vertices they touch: a union-find with path halving, where every union
    that joins two components removes one."""
    parent = list(range(num_vertices))
    unions = 0
    for a, b in es:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            unions += 1
    touched = set(chain.from_iterable(es))
    return len(touched) - unions, touched


def validate_plane_partition(p: Partition) -> AuditReport:
    rep = AuditReport()
    t = wheel_tables(p.model)
    for c, es in enumerate(p.classes()):
        plane, bad = _class_plane(t, es)
        rep.class_flags.append({"plane": plane})
        if not plane:
            rep.flag(f"class {c}: crossing pair {bad[0]} x {bad[1]}")
    if p.m != p.model.n:
        rep.flag(f"m={p.m} differs from n={p.model.n}")
    return rep


def validate_spanning_trees(p: Partition) -> AuditReport:
    rep = AuditReport()
    t = wheel_tables(p.model)
    nv = p.model.num_points
    if p.m != p.model.n:
        rep.flag(f"m={p.m} differs from n={p.model.n}")
    for c, es in enumerate(p.classes()):
        plane, bad = _class_plane(t, es)
        size_ok = len(es) == nv - 1
        comps, touched = _class_components(nv, es)
        connected = comps == 1
        spanning = len(touched) == nv
        flags = {
            "plane": plane,
            "size_2n_minus_1": size_ok,
            "connected": connected,
            "spanning": spanning,
            "acyclic": size_ok and connected and spanning,
        }
        rep.class_flags.append(flags)
        if not plane:
            rep.flag(f"class {c}: crossing pair {bad[0]} x {bad[1]}")
        if not size_ok:
            rep.flag(f"class {c}: {len(es)} edges, expected {nv - 1}")
        if not (connected and spanning):
            rep.flag(f"class {c}: not a spanning connected subgraph")
    return rep


def _internal_vertices(es: Sequence[EdgeId]) -> list[int]:
    """The vertices of degree at least 2 in a class, ascending: a double star
    has at most two, and two must be joined by the spine."""
    deg: dict[int, int] = {}
    for a, b in es:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return sorted(v for v, d in deg.items() if d >= 2)


def validate_double_stars(p: Partition) -> AuditReport:
    rep = validate_spanning_trees(p)
    for c, es in enumerate(p.classes()):
        internal = _internal_vertices(es)
        ok = len(internal) <= 2
        if len(internal) == 2 and edge(*internal) not in es:
            ok = False
        rep.class_flags[c]["double_star"] = ok
        if not ok:
            rep.flag(f"class {c}: internal vertices {internal} do not form a double star")
    return rep


VALIDATORS = {
    MODE_SUBGRAPH: validate_plane_partition,
    MODE_TREE: validate_spanning_trees,
    MODE_DOUBLE_STAR: validate_double_stars,
}


def _maximal_diagonals(model: WheelModel, t: WheelTables, es: Sequence[EdgeId]) -> set[EdgeId]:
    return edgeorder.maximal_edges(model, [e for e in es if e in t.children])


def _pair_of_edge(t: WheelTables, e: EdgeId) -> tuple[int, int] | None:
    """The opposite group pair an edge connects, if any."""
    ga, gb = t.group_of[e[0]], t.group_of[e[1]]
    pair = (ga, gb) if ga < gb else (gb, ga)
    return pair if pair in t.opposite_pairs else None


def structural_audit(p: Partition, mode: str) -> AuditReport:
    """Mechanical checks of the structural lemmas on a partition that already
    passed its mode validator.  Any violation on a validated partition is a
    hard failure upstream."""
    rep = AuditReport()
    model = p.model
    t = wheel_tables(model)
    classes = p.classes()
    maxd = [_maximal_diagonals(model, t, es) for es in classes]
    nv = model.num_points

    if mode in (MODE_TREE, MODE_DOUBLE_STAR):
        _audit_boundary_counts(rep, t, classes, maxd)
        _audit_span_confinement(rep, t, classes, maxd)
        _audit_distance_chain(rep, t, classes)
        _audit_max_edge_uniqueness(rep, model, t, maxd)
        _audit_incomparable_sums(rep, model, t, maxd, nv)
    elif mode == MODE_SUBGRAPH:
        _audit_span_confinement(rep, t, classes, maxd)
        _audit_incomparable_sums(rep, model, t, maxd, nv)
        if is_bumpy(model):
            _audit_forced_edges(rep, model, t, maxd, nv)
    return rep


def _audit_boundary_counts(rep, t, classes, maxd):
    # one class holds a single boundary edge, the n-1 others two each
    counts = [sum(1 for e in es if t.dist.get(e) == 1) for es in classes]
    if sorted(counts) != [1] + [2] * (len(classes) - 1):
        rep.flag(f"boundary-edge counts per class {counts} != one 1 and rest 2")
    # the same class must hold a single maximal diagonal, all others two
    mcounts = [len(m) for m in maxd]
    if sorted(mcounts) != [1] + [2] * (len(classes) - 1):
        rep.flag(f"maximal-diagonal counts per class {mcounts} != one 1 and rest 2")


def _audit_span_confinement(rep, t, classes, maxd):
    # a radial edge of a class never lies beyond a maximal diagonal of the class
    h = t.hull_count
    for c, es in enumerate(classes):
        arcs = [(f, *t.far_arc[f]) for f in maxd[c]]
        for e in es:
            if e[0] != 0:
                continue
            v = e[1]
            for f, start, length in arcs:
                if (v - start) % h < length:
                    rep.flag(f"class {c}: radial {e} beyond maximal diagonal {f}")


def _audit_distance_chain(rep, t, classes):
    # every non-radial edge of distance d >= 2 continues with exactly one of
    # its two distance-(d-1) children in the same class
    children = t.children
    for c, es in enumerate(classes):
        eset = set(es)
        for e in es:
            pair = children.get(e)
            if pair is None:
                continue
            left, right = pair
            hits = (left in eset) + (right in eset)
            if hits != 1:
                rep.flag(f"class {c}: edge {e} continues with {hits} children, expected 1")


def _audit_max_edge_uniqueness(rep, model, t, maxd):
    # per opposite pair and distance: at most one maximal diagonal overall;
    # for bumpy wheels exactly one for each of the top l distances
    seen: dict[tuple, list] = {}
    for m in maxd:
        for e in m:
            pair = _pair_of_edge(t, e)
            if pair is not None:
                seen.setdefault((pair, t.dist[e]), []).append(e)
    for key, es in seen.items():
        if len(es) > 1:
            rep.flag(f"pair/distance {key}: {len(es)} maximal diagonals {es}")
    if is_bumpy(model):
        ell = model.sizes[0]
        for pair in t.opposite_pairs:
            for i in range(1, ell + 1):
                d = edgeorder.d_value(model.k, ell, i)
                if (pair, d) not in seen:
                    rep.flag(f"pair {pair}: no maximal diagonal of distance d_{i}={d}")


def _audit_incomparable_sums(rep, model, t, maxd, nv):
    # pairwise incomparable family: sum of distances <= 2n-1; any two maximal
    # incomparable members: sum <= 2n-2; on bumpy wheels index sums i+j >= l+1
    two_n = nv
    bumpy = is_bumpy(model)
    for c, m in enumerate(maxd):
        ms = sorted(m)
        total = sum(t.dist[e] for e in ms)
        if total > two_n - 1:
            rep.flag(f"class {c}: maximal-diagonal distance sum {total} > {two_n - 1}")
        for i, e in enumerate(ms):
            for f in ms[i + 1 :]:
                de, df = t.dist[e], t.dist[f]
                if de + df > two_n - 2:
                    rep.flag(f"class {c}: dist({e})+dist({f}) = {de + df} > {two_n - 2}")
                if bumpy:
                    ell = model.sizes[0]
                    top = (model.k + 1) // 2 * ell
                    if (top - de) + (top - df) < ell + 1:
                        rep.flag(f"class {c}: index sum of {e},{f} below {ell + 1}")


def _audit_forced_edges(rep, model, t, maxd, nv):
    """Forced-edge accounting on plane subgraph partitions of bumpy wheels:
    per opposite pair a selection of l maximal diagonals with distances at
    least d_1..d_l exists; one class carries one forced edge and the rest two;
    the distance deficits x_i sum to at most (l-1)/2."""
    ell = model.sizes[0]
    k = model.k
    class_of: dict[EdgeId, int] = {}
    for c, m in enumerate(maxd):
        for e in m:
            class_of[e] = c

    forced: list[tuple[EdgeId, int]] = []  # (edge, slot index i)
    for pair in t.opposite_pairs:
        cands = sorted(
            (e for e in class_of if _pair_of_edge(t, e) == pair),
            key=lambda e: (-t.dist[e], e),
        )
        if len(cands) < ell:
            rep.flag(f"pair {pair}: only {len(cands)} maximal diagonals, need {ell}")
            return rep
        for i in range(1, ell + 1):
            e = cands[i - 1]
            if t.dist[e] < edgeorder.d_value(k, ell, i):
                rep.flag(f"pair {pair}: slot {i} edge {e} shorter than d_{i}")
            forced.append((e, i))

    per_class: dict[int, list[EdgeId]] = {}
    for e, _ in forced:
        per_class.setdefault(class_of[e], []).append(e)
    counts = sorted(len(v) for v in per_class.values())
    if counts != [1] + [2] * (len(maxd) - 1):
        rep.flag(f"forced-edge counts per class {counts} != one 1 and rest 2")
        return rep

    x_total = 0
    d1 = edgeorder.d_value(k, ell, 1)
    for c, es in per_class.items():
        if len(es) == 1:
            x_total += d1 - t.dist[es[0]]
        else:
            x_total += (nv - 2) - sum(t.dist[e] for e in es)
    if x_total > (ell - 1) // 2:
        rep.flag(f"forced-edge deficit sum {x_total} > {(ell - 1) // 2}")
    return rep


# ---------------------------------------------------------------------------
# isomorphism up to the wheel's rotations and reflections and a renaming of
# the colours


def canonical_form(p: Partition) -> bytes:
    """The least, over the wheel's symmetries, of the colours in table edge
    order read through the symmetry's edge image, with the colours renamed
    0, 1, ... by first appearance."""
    t = wheel_tables(p.model)
    colors = p.colors
    if p.m > 256:  # rename to bytes; a form holds at most 256 distinct colours
        dense: dict[int, int] = {}
        colors = [dense.setdefault(c, len(dense)) for c in colors]
    colors = bytes(colors)
    used = set(colors)
    ranks = bytes(range(len(used)))
    best = None
    for image in t.edge_images:
        cand = bytes(operator.itemgetter(*image)(colors))
        cand = cand.translate(bytes.maketrans(bytes(sorted(used, key=cand.find)), ranks))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best
