"""Order machinery on wheel edges: the closer-than partial order, spans and
apexes, special wedges, and the forced-edge distance template.

Everything here is read from the model's `WheelTables`; coordinates are only
used in tests to validate these rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .wheelgeom import DIAGONAL, EdgeId, WheelModel, edge, is_bumpy, wheel_tables


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
    if e[0] == 0 or f[0] == 0:
        raise ValueError("closer-than is defined for non-radial edges only")
    if e == f:
        return False
    t = wheel_tables(model)
    f = t.key(f, "radial edge")
    # the closed far side of f runs clockwise from its arc start s to s + dist
    s = t.arc_endpoints[f][0]
    d = t.dist[f]
    h = t.hull_count
    return (e[0] - s) % h <= d and (e[1] - s) % h <= d


def maximal_edges(model: WheelModel, edges: Iterable[EdgeId]) -> set[EdgeId]:
    es = list(edges)
    return {e for e in es if not any(closer_than(model, e, f) for f in es if f != e)}


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
    if t.crossings[t.index[e]][t.index[f]]:
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
    if t.kind[e] != DIAGONAL or t.kind[f] != DIAGONAL or e == f or t.crossings[t.index[e]][t.index[f]]:
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


def edges_of_distance(model: WheelModel, d: int) -> list[EdgeId]:
    """All non-radial edges of distance d, in clockwise circular order keyed
    by the far-arc start vertex (ties by end vertex)."""
    t = wheel_tables(model)
    maxd = max(t.dist.values())
    if not 1 <= d <= maxd:
        raise ValueError(f"distance out of range 1..{maxd}: {d}")
    return sorted((e for e, de in t.dist.items() if de == d), key=t.arc_endpoints.__getitem__)


def distance_children(model: WheelModel, e: EdgeId) -> tuple[EdgeId, EdgeId]:
    """The two distance-(d-1) edges inside e's far region sharing an endpoint
    with e: one keeps the arc start, the other keeps the arc end."""
    t = wheel_tables(model)
    children = t.children.get(e) or t.children.get(t.key(e, "dist undefined for radial edges"))
    if children is None:
        raise ValueError("boundary edges have no children")
    return children


def forced_edge_template(model: WheelModel) -> dict[tuple[int, int], list[int]]:
    """Per opposite pair, the required minimum distances d_1..d_l of the
    forced diagonal slots.  Bumpy wheels only."""
    if not is_bumpy(model):
        raise ValueError("forced-edge template is defined for bumpy wheels only")
    ell = model.sizes[0]
    k = model.k
    slots = [d_value(k, ell, i) for i in range(1, ell + 1)]
    return {pair: list(slots) for pair in wheel_tables(model).opposite_pairs}
