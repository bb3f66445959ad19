"""Order machinery on wheel edges: diagonal distances, the closer-than
partial order and its maximal members, spans and apexes, special wedges, and
distance children.

Everything here is read from the model's `WheelTables`; coordinates are only
used in tests to validate these rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .wheelgeom import DIAGONAL, EdgeId, WheelModel, edge, wheel_tables


@dataclass(frozen=True)
class Span:
    vertices: frozenset[int]
    edges: frozenset[EdgeId]
    apex: Optional[frozenset[int]]


def dist(model: WheelModel, e: EdgeId) -> int:
    t = wheel_tables(model)
    return t.dist[t.key(e, "dist undefined for radial edges")]


def d_value(k: int, ell: int, i: int) -> int:
    """d_i, the i-th largest diagonal distance of BW_{k,l}."""
    top = (k + 1) // 2 * ell - 1
    if not 1 <= i <= top:
        raise ValueError(f"index i out of range 1..{top}: {i}")
    return (k + 1) // 2 * ell - i


def closer_than(model: WheelModel, e: EdgeId, f: EdgeId) -> bool:
    """e <_c f: the segment e lies in the closed far side of f.  Each endpoint
    of e is either strictly inside f's far arc or coincides with an endpoint
    of f (the closed halfplane is convex)."""
    t = wheel_tables(model)
    e = t.key(e, "closer-than is defined for non-radial edges only")
    f = t.key(f, "closer-than is defined for non-radial edges only")
    if e == f:
        return False
    # the closed far side of f runs clockwise from its arc start s to s + dist
    s = t.arc_endpoints[f][0]
    d = t.dist[f]
    h = t.hull_count
    return (e[0] - s) % h <= d and (e[1] - s) % h <= d


def maximal_edges(model: WheelModel, edges: Iterable[EdgeId]) -> set[EdgeId]:
    """The keys of the non-radial edges no other member is closer than.  e is
    closer than f (e <_c f) when both ends of e lie in f's closed far side,
    the clockwise run from f's arc start s to s + dist(f).  That puts e's far
    arc strictly inside f's, so dist(e) < dist(f), and the order is
    transitive: in decreasing distance, a member is maximal iff it is closer
    than none of the maximal ones before it."""
    t = wheel_tables(model)
    h = t.hull_count
    dist = t.dist
    keys = {t.key(e, "closer-than is defined for non-radial edges only") for e in edges}
    maximal = set()
    arcs = []  # (arc start, dist) of each maximal member so far
    for e in sorted(keys, key=dist.__getitem__, reverse=True):
        if not any((e[0] - s) % h <= d and (e[1] - s) % h <= d for s, d in arcs):
            maximal.add(e)
            arcs.append((t.arc_endpoints[e][0], dist[e]))
    return maximal


def span(model: WheelModel, e: EdgeId, f: EdgeId) -> Span:
    """Closed region between two non-crossing non-radial edges.

    Comparable pair (e <_c f or f <_c e): the strip between them, cl(e+ ∩ f-).
    Incomparable: the region containing v_0, cl(e+ ∩ f+).  Vertices follow
    from arc arithmetic; the edge set is every edge inside by convexity.
    """
    t = wheel_tables(model)
    e = t.key(e, "span is defined for non-radial edges only")
    f = t.key(f, "span is defined for non-radial edges only")
    if e == f:
        raise ValueError("span needs two distinct edges")
    if t.crossings[t.index[e]] >> t.index[f] & 1:
        raise ValueError("span undefined for crossing edges")

    hull = set(range(1, t.hull_count + 1))
    arc_e = set(model.far_arc(e))
    arc_f = set(model.far_arc(f))
    apex: Optional[frozenset[int]] = None
    if closer_than(model, e, f):
        verts = (arc_f | set(f)) - arc_e
    elif closer_than(model, f, e):
        verts = (arc_e | set(e)) - arc_f
    else:
        verts = (hull - arc_e - arc_f) | {0}
        group_of = t.group_of
        shared = {group_of[e[0]], group_of[e[1]]} & {group_of[f[0]], group_of[f[1]]}
        if shared:
            apex = frozenset(v for v in verts if v != 0 and group_of[v] in shared)
    vs = sorted(verts)
    es = frozenset(edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])
    return Span(vertices=frozenset(verts), edges=es, apex=apex)


def is_special_wedge(model: WheelModel, e: EdgeId, f: EdgeId) -> Optional[frozenset[int]]:
    """Some(apex) iff e and f are non-crossing diagonals where one endpoint of
    each forms a consecutive outmost pair (last of group j, first of group
    j+1) and the remaining endpoints are inside vertices of the group opposite
    that pair.  An inside vertex shares its group with both hull neighbours."""
    if 0 in e or 0 in f:
        return None
    t = wheel_tables(model)
    e, f = t.key(e, "radial edge"), t.key(f, "radial edge")
    if t.kind[e] != DIAGONAL or t.kind[f] != DIAGONAL or e == f or t.crossings[t.index[e]] >> t.index[f] & 1:
        return None
    group_of, h, k = t.group_of, t.hull_count, model.k

    def inside(v: int) -> bool:
        return group_of[(v - 2) % h + 1] == group_of[v] == group_of[v % h + 1]

    for a, a2 in (e, e[::-1]):
        for b, b2 in (f, f[::-1]):
            # a, b consecutive on the hull, in adjacent groups: both are outmost
            if group_of[a] == group_of[b]:
                continue
            if a % h + 1 == b:
                j = group_of[a]
            elif b % h + 1 == a:
                j = group_of[b]
            else:
                continue
            opp = (j + (k + 1) // 2 - 1) % k + 1
            if group_of[a2] == group_of[b2] == opp and inside(a2) and inside(b2):
                return span(model, e, f).apex
    return None


def distance_children(model: WheelModel, e: EdgeId) -> tuple[EdgeId, EdgeId]:
    """The two distance-(d-1) edges inside e's far region sharing an endpoint
    with e: one keeps the arc start, the other keeps the arc end."""
    t = wheel_tables(model)
    children = t.children.get(e) or t.children.get(t.key(e, "dist undefined for radial edges"))
    if children is None:
        raise ValueError("boundary edges have no children")
    return children
