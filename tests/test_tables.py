"""The per-model tables against direct computations from the group sizes.

The reference functions below are the per-call computations the tables
replaced: a linear scan for the group of a vertex and a clockwise walk for the
far arc.  Every other fact is derived from them here as the definitions state.
"""

import gc
import weakref

import pytest

from conftest import compositions, wheel_matrix
from planewheel import edgeorder as eo
from planewheel import wheelgeom
from planewheel.wheelgeom import (
    WheelModel,
    build_bumpy_wheel,
    build_generalized_wheel,
    crossing_graph,
    edge,
    wheel_tables,
)

MODELS = [build_generalized_wheel(s) for s in wheel_matrix(11)] + [
    build_bumpy_wheel(5, 5),
    build_bumpy_wheel(7, 3),
    build_generalized_wheel([2, 3, 3, 4, 5]),
]


def scan_group(model, v):
    end = 0
    for g, size in enumerate(model.sizes, 1):
        end += size
        if v <= end:
            return g
    raise AssertionError


def walk_far_arc(model, e):
    a, b = e
    ga, gb = scan_group(model, a), scan_group(model, b)
    h = model.hull_count
    if ga == gb:
        return list(range(a + 1, b))
    if (gb - ga) % model.k <= (model.k - 1) // 2:
        start, stop = a, b
    else:
        start, stop = b, a
    arc = []
    v = start % h + 1
    while v != stop:
        arc.append(v)
        v = v % h + 1
    return arc


def direct_arc_endpoints(model, e):
    a, b = e
    ga, gb = scan_group(model, a), scan_group(model, b)
    if ga == gb or (gb - ga) % model.k <= (model.k - 1) // 2:
        return a, b
    return b, a


def direct_cross(arcs, e, f):
    """arcs: the far arc of every non-radial edge, as a set."""
    if len({*e, *f}) < 4 or (e[0] == 0 and f[0] == 0):
        return False
    if e[0] == 0:
        return e[1] in arcs[f]
    if f[0] == 0:
        return f[1] in arcs[e]
    (a, b), (c, d) = e, f
    return (a < c < b) != (a < d < b)


def non_radial(model):
    h = model.hull_count
    return [(a, b) for a in range(1, h + 1) for b in range(a + 1, h + 1)]


def label(model):
    return f"GW_{list(model.sizes)}"


def test_group_of():
    for m in MODELS:
        t = wheel_tables(m)
        for v in range(1, m.hull_count + 1):
            assert m.group_of(v) == t.group_of[v] == scan_group(m, v), (label(m), v)


def test_far_arc_dist_and_endpoints():
    for m in MODELS:
        t = wheel_tables(m)
        for e in non_radial(m):
            arc = walk_far_arc(m, e)
            s, end = direct_arc_endpoints(m, e)
            assert m.far_arc(e) == arc, (label(m), e)
            assert t.far_arc[e] == (s % m.hull_count + 1, len(arc)), (label(m), e)
            assert eo.dist(m, e) == t.dist[e] == len(arc) + 1, (label(m), e)
            # the arc ends are the vertices just before and just after the far arc
            start, length, h = *t.far_arc[e], m.hull_count
            assert ((start - 2) % h + 1, (start + length - 1) % h + 1) == (s, end), (label(m), e)


def test_edge_kinds():
    # dist carries the kind: a radial edge has no entry, a boundary edge
    # distance 1, and the diagonals are exactly the keys of children
    for m in MODELS:
        t = wheel_tables(m)
        for e in t.edges:
            if e[0] == 0:
                assert e not in t.dist and e not in t.children, (label(m), e)
            elif not walk_far_arc(m, e):
                assert t.dist[e] == 1 and e not in t.children, (label(m), e)
            else:
                assert t.dist[e] >= 2 and e in t.children, (label(m), e)


def test_distance_children():
    for m in MODELS:
        t = wheel_tables(m)
        h = m.hull_count
        for e in non_radial(m):
            if len(walk_far_arc(m, e)) == 0:
                assert e not in t.children
                with pytest.raises(ValueError):
                    eo.distance_children(m, e)
                continue
            s, end = direct_arc_endpoints(m, e)
            want = (edge(s, (end - 2) % h + 1), edge(s % h + 1, end))
            assert eo.distance_children(m, e) == t.children[e] == want, (label(m), e)


def test_opposite_pairs():
    for m in MODELS:
        k, half = m.k, (m.k - 1) // 2
        want = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1) if (j - i) % k in (half, half + 1)]
        assert list(wheel_tables(m).opposite_pairs) == want, label(m)


def test_crossings():
    for m in MODELS:
        es = wheel_tables(m).edges
        arcs = {e: set(walk_far_arc(m, e)) for e in non_radial(m)}
        want = set()
        want_rows = [0] * len(es)
        for i, e in enumerate(es):
            for j in range(i + 1, len(es)):
                f = es[j]
                if direct_cross(arcs, e, f):
                    want.add((e, f))
                    want_rows[i] |= 1 << j
                    want_rows[j] |= 1 << i
        assert wheel_tables(m).crossings == tuple(want_rows), label(m)
        assert crossing_graph(m).crossing_pairs() == want, label(m)


def test_reversed_and_bad_edges():
    m = build_bumpy_wheel(3, 3)
    assert m.far_arc((9, 4)) == m.far_arc((4, 9))
    assert eo.dist(m, (8, 1)) == eo.dist(m, (1, 8))
    for bad in [(0, 4), (4, 0), (3, 3), (1, 10), (-1, 2)]:
        with pytest.raises(ValueError):
            m.far_arc(bad)
        with pytest.raises(ValueError):
            eo.dist(m, bad)
    with pytest.raises(ValueError):
        m.group_of(0)


def test_tables_built_on_first_use_only():
    before = wheelgeom._build_tables.cache_info().misses
    m = build_generalized_wheel([1, 1, 1, 2, 2])
    assert wheelgeom._build_tables.cache_info().misses == before
    t = wheel_tables(m)
    assert wheel_tables(m) is t
    assert wheel_tables(WheelModel.from_json(m.to_json())) is t  # equal models share


def test_cache_stays_bounded():
    """Tables for every atlas wheel, with every model kept alive: no more
    tables than the cache bound survive."""
    models = [build_generalized_wheel(s) for k in (3, 5) for h in range(k, 12, 2) for s in compositions(h, k)]
    refs = [weakref.ref(wheel_tables(m)) for m in models]
    gc.collect()
    assert len(models) == 391
    assert sum(r() is not None for r in refs) <= wheelgeom.TABLES_CACHE_SIZE
