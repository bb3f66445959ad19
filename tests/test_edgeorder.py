import pytest

from planewheel import edgeorder as eo
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel, edge


class TestClassify:
    def test_kinds(self, bw33):
        assert eo.classify_edge(bw33, (0, 4)).kind == eo.RADIAL
        assert eo.classify_edge(bw33, (1, 2)).kind == eo.BOUNDARY
        assert eo.classify_edge(bw33, (9, 1)).kind == eo.BOUNDARY
        assert eo.classify_edge(bw33, (4, 9)).kind == eo.DIAGONAL

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
        s, t = eo.arc_endpoints(bw33, (4, 9))
        assert (s, t) == (4, 9)
        s, t = eo.arc_endpoints(bw33, (1, 8))
        assert (s, t) == (8, 1)  # far arc is 9 only


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

    def test_maximal_edges(self, bw33):
        es = [(4, 9), (4, 8), (5, 8), (5, 6)]
        assert eo.maximal_edges(bw33, es) == {(4, 9)}
        # two crossing edges are both maximal
        assert eo.maximal_edges(bw33, [(4, 8), (5, 9)]) == {(4, 8), (5, 9)}


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
        assert eo.opposite_group_pairs(bw33) == [(1, 2), (1, 3), (2, 3)]

    def test_opposite_pairs_k5(self):
        m = build_bumpy_wheel(5, 1)
        assert eo.opposite_group_pairs(m) == [
            (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
        ]

    def test_vertex_roles(self, bw53):
        roles = eo.VertexRoles(bw53)
        assert 1 in roles.outmost and 3 in roles.outmost
        assert 2 in roles.inside
        assert roles.centers[1] == 2
        assert roles.centers[5] == 14

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
        d1 = eo.edges_of_distance(bw33, 5)
        assert len(d1) == 3  # one d_1 edge per opposite pair
        assert set(d1) == {(1, 6), (4, 9), (3, 7)}
        # boundary edges: one per hull position
        assert len(eo.edges_of_distance(bw33, 1)) == 9

    def test_distance_level_sizes(self, bw33):
        # 3k chords at every distance up to d_3 on BW_{k,3}
        for d in range(1, 4):
            assert len(eo.edges_of_distance(bw33, d)) == 9

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

    def test_forced_edge_template(self, bw35):
        tmpl = eo.forced_edge_template(bw35)
        assert set(tmpl) == set(eo.opposite_group_pairs(bw35))
        assert all(v == [9, 8, 7, 6, 5] for v in tmpl.values())

    def test_forced_edge_template_rejects_generalized(self, gw_mixed):
        with pytest.raises(ValueError):
            eo.forced_edge_template(gw_mixed)
