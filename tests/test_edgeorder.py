import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planewheel import edgeorder as eo
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel, edge, wheel_tables


class TestClassify:
    def test_kinds(self, bw33):
        # radial: no distance; boundary: distance 1; diagonal: has children
        t = wheel_tables(bw33)
        assert (0, 4) not in t.dist
        assert t.dist[(1, 2)] == t.dist[(1, 9)] == 1
        assert (1, 2) not in t.children and (1, 9) not in t.children
        assert (4, 9) in t.children

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
        # the far arc runs clockwise from the arc start to the arc end
        assert bw33.far_arc((4, 9)) == [5, 6, 7, 8]  # from 4 to 9
        assert bw33.far_arc((1, 8)) == [9]  # from 8 round to 1
        assert wheel_tables(bw33).far_arc[(1, 8)] == (9, 1)


def closer(model, e, f):
    """e <_c f, as defined: e and f are distinct and both ends of e lie in the
    closed far side of f, its far arc and its own ends."""
    return edge(*e) != edge(*f) and set(e) <= set(model.far_arc(f)) | set(f)


class TestCloserThan:
    def test_nested(self, bw33):
        # (5,8) lies strictly inside the far side of (4,9)
        assert eo.maximal_edges(bw33, [(5, 8), (4, 9)]) == {(4, 9)}

    def test_shared_endpoint_counts_as_closed(self, bw33):
        # closed far side: an endpoint of e may coincide with one of f
        assert eo.maximal_edges(bw33, [(4, 8), (4, 9)]) == {(4, 9)}
        assert eo.maximal_edges(bw33, [(5, 9), (4, 9)]) == {(4, 9)}

    def test_crossing_edges_incomparable(self, bw33):
        assert eo.maximal_edges(bw33, [(4, 8), (5, 9)]) == {(4, 8), (5, 9)}

    def test_irreflexive(self, bw33):
        # the same edge in both orientations is one member, and maximal
        assert eo.maximal_edges(bw33, [(4, 9), (9, 4)]) == {(4, 9)}
        assert eo.maximal_edges(bw33, [(5, 1), (1, 5)]) == {(1, 5)}

    @pytest.mark.parametrize("e", [(3, 0), (1, 99)])
    def test_non_diagonal_refused(self, bw33, e):
        # a radial edge given as (v, 0), and an edge off the hull
        with pytest.raises(ValueError):
            eo.maximal_edges(bw33, [e, (4, 9)])

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
    diagonals = list(t.children)
    chosen = data.draw(st.lists(st.sampled_from(diagonals), unique=True, max_size=12))
    es = [e[::-1] if data.draw(st.booleans()) else e for e in chosen]
    want = {e for e in es if not any(closer(model, e, f) for f in es)}
    assert eo.maximal_edges(model, es) == {edge(*e) for e in want}


class TestGroupsAndRoles:
    def test_opposite_pairs_k3(self, bw33):
        assert wheel_tables(bw33).opposite_pairs == ((1, 2), (1, 3), (2, 3))

    def test_opposite_pairs_k5(self):
        m = build_bumpy_wheel(5, 1)
        assert wheel_tables(m).opposite_pairs == (
            (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
        )


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
        for e in wheel_tables(bw53).edges:
            if e[0] == 0 or eo.dist(bw53, e) < 2:
                continue
            for child in eo.distance_children(bw53, e):
                assert closer(bw53, child, e)
                assert eo.dist(bw53, child) == eo.dist(bw53, e) - 1
