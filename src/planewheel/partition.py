"""Partitions of the complete geometric graph on a wheel: validation of plane
subgraph / spanning tree / double star modes, structural audits of concrete
partitions, and isomorphism via canonical forms."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import edgeorder
from .wheelgeom import (
    BOUNDARY,
    DIAGONAL,
    CrossingGraph,
    EdgeId,
    WheelModel,
    WheelTables,
    crossing_graph,
    edge,
    is_bumpy,
    wheel_tables,
)

MODE_SUBGRAPH = "subgraph"
MODE_TREE = "spanning_tree"
MODE_DOUBLE_STAR = "double_star"


@dataclass(frozen=True)
class Partition:
    model: WheelModel
    m: int
    color: dict[EdgeId, int]

    def __post_init__(self):
        if self.color.keys() != wheel_tables(self.model).index.keys():
            raise ValueError("color map must cover every edge exactly once")
        colors = self.color.values()
        if min(colors) < 0 or max(colors) >= self.m:
            bad = [c for c in colors if not 0 <= c < self.m]
            raise ValueError(f"color out of range: {bad[0]}")

    def classes(self) -> list[list[EdgeId]]:
        out: list[list[EdgeId]] = [[] for _ in range(self.m)]
        for e in wheel_tables(self.model).edges:
            out[self.color[e]].append(e)
        return out

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "m": self.m,
            "colors": [self.color[e] for e in self.model.edges()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Partition":
        model = WheelModel.from_json(obj["model"])
        es = model.edges()
        colors = obj["colors"]
        if len(colors) != len(es):
            raise ValueError(f"expected {len(es)} colors, got {len(colors)}")
        return cls(model=model, m=int(obj["m"]), color={e: int(c) for e, c in zip(es, colors)})


@dataclass
class AuditReport:
    class_flags: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, msg: str):
        self.violations.append(msg)


def _class_plane(cg: CrossingGraph, es: list[EdgeId]) -> tuple[bool, list]:
    for i, e in enumerate(es):
        for f in es[i + 1 :]:
            if cg.crosses(e, f):
                return False, [e, f]
    return True, []


def _class_components(num_vertices: int, es: list[EdgeId]) -> tuple[int, set[int]]:
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = set()
    for a, b in es:
        touched.add(a)
        touched.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    roots = {find(v) for v in touched}
    return len(roots), touched


def validate_plane_partition(p: Partition) -> AuditReport:
    rep = AuditReport()
    cg = crossing_graph(p.model)
    for c, es in enumerate(p.classes()):
        plane, bad = _class_plane(cg, es)
        rep.class_flags.append({"plane": plane})
        if not plane:
            rep.flag(f"class {c}: crossing pair {bad[0]} x {bad[1]}")
    if p.m != p.model.n:
        rep.flag(f"m={p.m} differs from n={p.model.n}")
    return rep


def validate_spanning_trees(p: Partition) -> AuditReport:
    rep = AuditReport()
    cg = crossing_graph(p.model)
    nv = p.model.num_points
    if p.m != p.model.n:
        rep.flag(f"m={p.m} differs from n={p.model.n}")
    for c, es in enumerate(p.classes()):
        plane, bad = _class_plane(cg, es)
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


def validate_double_stars(p: Partition) -> AuditReport:
    rep = validate_spanning_trees(p)
    for c, es in enumerate(p.classes()):
        deg: dict[int, int] = {}
        for a, b in es:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        internal = sorted(v for v, d in deg.items() if d >= 2)
        ok = len(internal) <= 2
        if len(internal) == 2 and edge(*internal) not in es:
            ok = False
        rep.class_flags[c]["double_star"] = ok
        if not ok:
            rep.flag(f"class {c}: internal vertices {internal} do not form a double star")
    return rep


def _maximal_diagonals(model: WheelModel, t: WheelTables, es: list[EdgeId]) -> set[EdgeId]:
    return edgeorder.maximal_edges(model, [e for e in es if t.kind[e] == DIAGONAL])


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
    counts = [sum(1 for e in es if t.kind[e] == BOUNDARY) for es in classes]
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


def _renumber(colors: list[int]) -> bytes:
    remap: dict[int, int] = {}
    out = bytearray()
    for c in colors:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return bytes(out)


def canonical_form(p: Partition) -> bytes:
    t = wheel_tables(p.model)
    colors = [p.color[e] for e in t.edges]
    best = None
    for image in t.edge_images:
        cand = _renumber([colors[j] for j in image])
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def isomorphic(p1: Partition, p2: Partition) -> bool:
    if p1.model != p2.model or p1.m != p2.m:
        raise ValueError("partitions must share model and class count")
    return canonical_form(p1) == canonical_form(p2)
