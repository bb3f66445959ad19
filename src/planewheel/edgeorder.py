"""Order machinery on wheel edges: diagonal distances, the maximal members of
the closer-than partial order, and distance children.

Everything here is read from the model's `WheelTables`; coordinates are only
used in tests to validate these rules.
"""

from __future__ import annotations

from typing import Iterable

from .wheelgeom import EdgeId, WheelModel, wheel_tables


def dist(model: WheelModel, e: EdgeId) -> int:
    t = wheel_tables(model)
    return t.dist[t.key(e, "dist undefined for radial edges")]


def d_value(k: int, ell: int, i: int) -> int:
    """d_i, the i-th largest diagonal distance of BW_{k,l}."""
    top = (k + 1) // 2 * ell - 1
    if not 1 <= i <= top:
        raise ValueError(f"index i out of range 1..{top}: {i}")
    return (k + 1) // 2 * ell - i


def maximal_edges(model: WheelModel, edges: Iterable[EdgeId]) -> set[EdgeId]:
    """The keys of the non-radial edges no other member is closer than.  e is
    closer than f (e <_c f) when e != f and both ends of e lie in f's closed
    far side, the clockwise run of dist(f) + 1 vertices from the vertex s just
    before f's far arc.  That puts e's far arc strictly inside f's, so dist(e)
    < dist(f), and the order is transitive: in decreasing distance, a member
    is maximal iff it is closer than none of the maximal ones before it."""
    t = wheel_tables(model)
    h = t.hull_count
    dist, far_arc = t.dist, t.far_arc
    keys = {t.key(e, "closer-than is defined for non-radial edges only") for e in edges}
    maximal = set()
    sides = []  # (s, dist) of each maximal member so far
    for e in sorted(keys, key=dist.__getitem__, reverse=True):
        if not any((e[0] - s) % h <= d and (e[1] - s) % h <= d for s, d in sides):
            maximal.add(e)
            sides.append((far_arc[e][0] - 1, dist[e]))
    return maximal


def distance_children(model: WheelModel, e: EdgeId) -> tuple[EdgeId, EdgeId]:
    """The two distance-(d-1) edges inside e's far region sharing an endpoint
    with e: one keeps the arc start, the other keeps the arc end."""
    t = wheel_tables(model)
    children = t.children.get(e) or t.children.get(t.key(e, "dist undefined for radial edges"))
    if children is None:
        raise ValueError("boundary edges have no children")
    return children
