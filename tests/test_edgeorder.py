import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planewheel import edgeorder as eo
from planewheel.wheelgeom import (
    BOUNDARY,
    DIAGONAL,
    RADIAL,
    build_bumpy_wheel,
    build_generalized_wheel,
    edge,
    wheel_tables,
)


class TestClassify:
    def test_kinds(self, bw33):
        kind = wheel_tables(bw33).kind
        assert kind[(0, 4)] == RADIAL
        assert kind[(1, 2)] == BOUNDARY
        assert kind[(1, 9)] == BOUNDARY
        assert kind[(4, 9)] == DIAGONAL

    def test_dist(self, bw33):
        assert eo.dist(bw33, (1, 2)) == 1
        assert eo.dist(bw33, (4, 9)) == 5  # d_1
        assert eo.dist(bw33, (4, 8)) == 4  # d_2
        with pytest.raises(ValueError):
            eo.dist(bw33, (0, 4))

    def test_d_values(self):
        # d_i = (k+1)/2 * l - i
        assert eo.d_value(3, 3, 1) == 5
        assert eo.d_value(3, 3, 2) == 4
        assert eo.d_value(3, 3, 3) == 3
        assert eo.d_value(5, 5, 1) == 14
        with pytest.raises(ValueError):
            eo.d_value(3, 3, 9)

    def test_arc_endpoints_clockwise(self, bw33):
        arc_endpoints = wheel_tables(bw33).arc_endpoints
        assert arc_endpoints[(4, 9)] == (4, 9)
        assert arc_endpoints[(1, 8)] == (8, 1)  # far arc is 9 only


class TestCloserThan:
    def test_nested(self, bw33):
        # (5,8) lies strictly inside the far side of (4,9)
        assert eo.closer_than(bw33, (5, 8), (4, 9))
        assert not eo.closer_than(bw33, (4, 9), (5, 8))

    def test_shared_endpoint_counts_as_closed(self, bw33):
        # closed far side: an endpoint of e may coincide with one of f
        assert eo.closer_than(bw33, (4, 8), (4, 9))
        assert eo.closer_than(bw33, (5, 9), (4, 9))

    def test_crossing_edges_incomparable(self, bw33):
        assert not eo.closer_than(bw33, (4, 8), (5, 9))
        assert not eo.closer_than(bw33, (5, 9), (4, 8))

    def test_irreflexive(self, bw33):
        assert not eo.closer_than(bw33, (4, 9), (4, 9))
        # the same edge in the other orientation
        assert not eo.closer_than(bw33, (5, 1), (1, 5))

    @pytest.mark.parametrize("e", [(3, 0), (1, 99)])
    def test_non_diagonal_refused(self, bw33, e):
        # a radial edge given as (v, 0), and an edge off the hull
        with pytest.raises(ValueError):
            eo.closer_than(bw33, e, (4, 9))

    def test_maximal_edges(self, bw33):
        es = [(4, 9), (4, 8), (5, 8), (5, 6)]
        assert eo.maximal_edges(bw33, es) == {(4, 9)}
        # two crossing edges are both maximal
        assert eo.maximal_edges(bw33, [(4, 8), (5, 9)]) == {(4, 8), (5, 9)}


# BW_{3,3}, BW_{5,3} and GW_{[2,3,3,4,3]}
_MAXIMAL_MODELS = [build_bumpy_wheel(3, 3), build_bumpy_wheel(5, 3), build_generalized_wheel([2, 3, 3, 4, 3])]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.integers(0, len(_MAXIMAL_MODELS) - 1))
def test_maximal_edges_matches_pairwise_definition(data, which):
    """Any set of diagonals, each given in either orientation: the maximal
    edges are the members closer than no other member."""
    model = _MAXIMAL_MODELS[which]
    t = wheel_tables(model)
    diagonals = [e for e in t.edges if t.kind[e] == DIAGONAL]
    chosen = data.draw(st.lists(st.sampled_from(diagonals), unique=True, max_size=12))
    es = [e[::-1] if data.draw(st.booleans()) else e for e in chosen]
    want = {e for e in es if not any(eo.closer_than(model, e, f) for f in es if f != e)}
    assert eo.maximal_edges(model, es) == {edge(*e) for e in want}


class TestSpan:
    def test_comparable_strip(self, bw33):
        sp = eo.span(bw33, (5, 8), (4, 9))
        assert sp.vertices == frozenset({4, 5, 8, 9})
        assert sp.apex is None

    def test_incomparable_contains_center(self, bw33):
        # (4,9) and (1,6) cross; pick two incomparable non-crossing diagonals
        sp = eo.span(bw33, (3, 5), (6, 8))
        assert 0 in sp.vertices
        assert sp.vertices == frozenset({0, 1, 2, 3, 5, 6, 8, 9})

    def test_apex_in_shared_group(self, bw33):
        # both edges end in group 2: apex is the span vertices of group 2
        sp = eo.span(bw33, (1, 4), (6, 9))
        assert sp.apex == frozenset({4, 5, 6})

    def test_crossing_rejected(self, bw33):
        with pytest.raises(ValueError):
            eo.span(bw33, (4, 9), (1, 6))

    def test_edges_inside(self, bw33):
        sp = eo.span(bw33, (5, 8), (4, 9))
        assert edge(4, 5) in sp.edges
        assert edge(8, 9) in sp.edges
        assert edge(1, 2) not in sp.edges


class TestGroupsAndRoles:
    def test_opposite_pairs_k3(self, bw33):
        assert wheel_tables(bw33).opposite_pairs == ((1, 2), (1, 3), (2, 3))

    def test_opposite_pairs_k5(self):
        m = build_bumpy_wheel(5, 1)
        assert wheel_tables(m).opposite_pairs == (
            (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
        )

    def test_special_wedge(self):
        m = build_bumpy_wheel(3, 5)
        # consecutive outmost endpoints 5 (last of G1) and 6 (first of G2),
        # inside endpoints in the opposite group G3
        e = edge(5, 13)
        f = edge(6, 12)
        apex = eo.is_special_wedge(m, e, f)
        assert apex is not None
        assert all(m.group_of(v) == 3 for v in apex)

    def test_not_special_wedge(self, bw33):
        assert eo.is_special_wedge(bw33, (1, 4), (6, 9)) is None


class TestDistanceStructure:
    def test_edges_of_distance(self, bw33):
        dist = wheel_tables(bw33).dist
        # one d_1 edge per opposite pair
        assert {e for e, d in dist.items() if d == 5} == {(1, 6), (4, 9), (3, 7)}
        # boundary edges: one per hull position
        assert sum(d == 1 for d in dist.values()) == 9

    def test_distance_level_sizes(self, bw33):
        # 3k chords at every distance up to d_3 on BW_{k,3}
        dist = wheel_tables(bw33).dist
        for level in range(1, 4):
            assert sum(d == level for d in dist.values()) == 9

    def test_distance_children(self, bw33):
        left, right = eo.distance_children(bw33, (4, 9))
        assert {left, right} == {edge(4, 8), edge(5, 9)}
        assert eo.dist(bw33, left) == eo.dist(bw33, (4, 9)) - 1
        with pytest.raises(ValueError):
            eo.distance_children(bw33, (1, 2))

    def test_children_stay_in_far_region(self, bw53):
        for e in bw53.edges():
            if e[0] == 0 or eo.dist(bw53, e) < 2:
                continue
            for child in eo.distance_children(bw53, e):
                assert eo.closer_than(bw53, child, e)
                assert eo.dist(bw53, child) == eo.dist(bw53, e) - 1


# The per-call crossing test, edge classes, vertex roles, span and special
# wedge that the table reads replaced, as they were.
def percall_cross(model, e, f):
    if len({*e, *f}) < 4:
        return False
    if e[0] == 0 and f[0] == 0:
        return False
    if f[0] == 0:
        e, f = f, e
    if e[0] == 0:
        return e[1] in model.far_arc(f)
    (a, b), (c, d) = e, f
    return (a < c < b) != (a < d < b)


def percall_kind(model, e):
    if e[0] == 0:
        return RADIAL
    return DIAGONAL if model.far_arc(e) else BOUNDARY


def percall_roles(model):
    outmost, inside = set(), set()
    for g in range(1, model.k + 1):
        vs = list(model.group_vertices(g))
        outmost.update((vs[0], vs[-1]))
        inside.update(vs[1:-1])
    return outmost, inside


def percall_span(model, e, f):
    if e[0] == 0 or f[0] == 0 or e == f or percall_cross(model, e, f):
        raise ValueError
    hull = set(range(1, model.hull_count + 1))
    arc_e, arc_f = set(model.far_arc(e)), set(model.far_arc(f))
    apex = None
    if eo.closer_than(model, e, f):
        verts = (arc_f | set(f)) - arc_e
    elif eo.closer_than(model, f, e):
        verts = (arc_e | set(e)) - arc_f
    else:
        verts = (hull - arc_e - arc_f) | {0}
        shared = {model.group_of(e[0]), model.group_of(e[1])} & {model.group_of(f[0]), model.group_of(f[1])}
        if shared:
            apex = frozenset(v for v in verts if v != 0 and model.group_of(v) in shared)
    vs = sorted(verts)
    es = frozenset(edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])
    return eo.Span(vertices=frozenset(verts), edges=es, apex=apex)


def percall_special_wedge(model, e, f, roles):
    if percall_kind(model, e) != DIAGONAL or percall_kind(model, f) != DIAGONAL:
        return None
    if percall_cross(model, e, f) or e == f:
        return None
    outmost, inside = roles
    k, h = model.k, model.hull_count
    for a in e:
        for b in f:
            if a not in outmost or b not in outmost:
                continue
            if a % h + 1 == b and model.group_of(a) != model.group_of(b):
                j = model.group_of(a)
            elif b % h + 1 == a and model.group_of(a) != model.group_of(b):
                j = model.group_of(b)
            else:
                continue
            opp = (j + (k + 1) // 2 - 1) % k + 1
            a2 = e[0] if e[1] == a else e[1]
            b2 = f[0] if f[1] == b else f[1]
            if a2 in inside and b2 in inside and model.group_of(a2) == opp and model.group_of(b2) == opp:
                return percall_span(model, e, f).apex
    return None


def test_span_and_special_wedge_match_percall():
    """Every ordered pair of non-radial edges: the same special-wedge apex as
    the per-call implementation and, on the wheels with at most 11 hull
    vertices, the same span (or refusal)."""
    pairs = wedges = spans = 0
    for sizes in [(3, 3, 3), (1, 2, 4), (3, 1, 3, 1, 3), (2, 3, 3, 4, 3), (5, 5, 5), (3, 3, 3, 3, 3), (1, 3, 1, 5, 5)]:
        model = build_generalized_wheel(list(sizes))
        roles = percall_roles(model)
        non_radial = [e for e in model.edges() if e[0] != 0]
        for e in non_radial:
            for f in non_radial:
                apex = eo.is_special_wedge(model, e, f)
                assert apex == percall_special_wedge(model, e, f, roles), (sizes, e, f)
                pairs += 1
                wedges += apex is not None
                if model.hull_count > 11:
                    continue
                try:
                    want = percall_span(model, e, f)
                except ValueError:
                    with pytest.raises(ValueError):
                        eo.span(model, e, f)
                else:
                    assert eo.span(model, e, f) == want, (sizes, e, f)
                    spans += 1
    assert (pairs, wedges, spans) == (48_862, 102, 3_668)
