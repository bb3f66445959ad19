import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_one_interior_set, wheel_matrix
from planewheel.wheelgeom import (
    PointSet,
    WheelModel,
    build_bumpy_wheel,
    build_generalized_wheel,
    canonicalize,
    crossing_graph,
    edge,
    geometric_crossing_pairs,
    geometric_crossings,
    hull_and_interior,
    in_general_position,
    is_bumpy,
    orientation,
    realize_coordinates,
    segments_cross,
    wheel_tables,
    _inside_convex,
    _opposite_boundary_edge,
    _orient_idx,
    _rational_circle_point,
    _realization_ok,
)


class TestModel:
    def test_bumpy_layout(self, bw33):
        assert bw33.k == 3
        assert bw33.hull_count == 9
        assert bw33.num_points == 10
        assert bw33.n == 5
        assert list(bw33.group_vertices(1)) == [1, 2, 3]
        assert list(bw33.group_vertices(3)) == [7, 8, 9]
        assert bw33.group_of(1) == 1 and bw33.group_of(9) == 3

    def test_edge_count(self, bw33):
        assert len(wheel_tables(bw33).edges) == 45

    @pytest.mark.parametrize("k,ell", [(2, 3), (3, 2), (1, 3), (3, -1)])
    def test_bumpy_rejects_bad_parameters(self, k, ell):
        with pytest.raises(ValueError):
            build_bumpy_wheel(k, ell)

    def test_generalized_rejects_even_total(self):
        with pytest.raises(ValueError):
            build_generalized_wheel([1, 1, 2])

    def test_is_bumpy(self, bw33, gw_mixed):
        assert is_bumpy(bw33)
        assert not is_bumpy(gw_mixed)

    def test_json_roundtrip(self, gw_mixed):
        assert WheelModel.from_json(gw_mixed.to_json()) == gw_mixed

    @pytest.mark.parametrize("k,sizes", [(3.9, [3, 3, 3]), ("3", [3, 3, 3]), (3, [3.5, 3, 3]), (3, [3, "3", 3]),
                                         (3, [3, 3, True])])
    def test_from_json_refuses_non_integers(self, k, sizes):
        # int() would truncate 3.9 to 3, "3" to 3 and true to 1
        with pytest.raises(ValueError, match="must be JSON integers"):
            WheelModel.from_json({"k": k, "sizes": sizes})

    @pytest.mark.parametrize("k,sizes", [(3, (3.5, 2.5, 3)), (3, (True, 1, 1)), (3.0, (3, 3, 3))])
    def test_refuses_non_integers(self, k, sizes):
        # (3.5, 2.5, 3) has an odd total, 9.0, and used to fail only in edges()
        with pytest.raises(ValueError, match="must be integers"):
            WheelModel(k=k, sizes=sizes)

    def test_generalized_does_not_truncate(self):
        with pytest.raises(ValueError, match="must be integers"):
            build_generalized_wheel([3.9, 3, 3])  # used to give BW_{3,3}

    def test_edge_normalization(self):
        assert edge(5, 2) == (2, 5)
        with pytest.raises(ValueError):
            edge(3, 3)


class TestFarArc:
    def test_between_groups_short_way(self, bw33):
        # group 1 -> group 2 is the clockwise (short) direction
        assert bw33.far_arc((1, 6)) == [2, 3, 4, 5]
        # group 2 -> group 1 wraps the other way
        assert bw33.far_arc((4, 9)) == [5, 6, 7, 8]

    def test_in_group(self, bw33):
        assert bw33.far_arc((1, 3)) == [2]
        assert bw33.far_arc((1, 2)) == []

    def test_radial_rejected(self, bw33):
        with pytest.raises(ValueError):
            bw33.far_arc((0, 3))


class TestCrossing:
    def test_shared_endpoint_never_crosses(self, bw33):
        crosses = crossing_graph(bw33).crosses
        assert not crosses((0, 1), (1, 2))
        assert not crosses((1, 5), (1, 8))

    def test_radial_radial(self, bw33):
        assert not crossing_graph(bw33).crosses((0, 1), (0, 5))

    def test_radial_vs_diagonal(self, bw33):
        crosses = crossing_graph(bw33).crosses
        assert crosses((0, 6), (4, 9))
        assert crosses((4, 9), (0, 6))
        assert not crosses((0, 1), (4, 9))

    def test_interleaving(self, bw33):
        crosses = crossing_graph(bw33).crosses
        assert crosses((1, 6), (4, 9))
        assert not crosses((1, 6), (7, 9))

    def test_hull_hull_pair_count(self, bw33):
        # each 4-subset of convex-position points gives exactly one crossing
        pairs = crossing_graph(bw33).crossing_pairs()
        hull_hull = [p for p in pairs if p[0][0] != 0 and p[1][0] != 0]
        assert len(hull_hull) == 126  # C(9,4)

    def test_radial_crossing_count_formula(self, bw33):
        from planewheel.edgeorder import dist

        pairs = crossing_graph(bw33).crossing_pairs()
        radial = [p for p in pairs if p[0][0] == 0 or p[1][0] == 0]
        expected = sum(dist(bw33, e) - 1 for e in wheel_tables(bw33).edges if e[0] != 0)
        assert len(radial) == expected

    def test_crossing_graph_symmetric_irreflexive(self, bw33):
        t = wheel_tables(bw33)
        rows = t.crossings
        for i, e in enumerate(t.edges):
            assert not rows[i] >> i & 1
            for j, f in enumerate(t.edges):
                assert rows[i] >> j & 1 == rows[j] >> i & 1
                if rows[i] >> j & 1:
                    assert not set(e) & set(f)

    def test_regular_triangle_wheel_has_no_crossings(self):
        m = build_generalized_wheel([1, 1, 1])
        assert not crossing_graph(m).crossing_pairs()


class TestGeometry:
    def test_orientation_signs(self):
        a, b = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
        assert orientation(a, b, (Fraction(0), Fraction(1))) == 1
        assert orientation(a, b, (Fraction(0), Fraction(-1))) == -1
        assert orientation(a, b, (Fraction(2), Fraction(0))) == 0

    def test_quadrilateral_diagonals(self):
        ps = PointSet(
            points=(
                (Fraction(0), Fraction(0)),
                (Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(1)),
            )
        )
        assert segments_cross((0, 2), (1, 3), ps)
        assert not segments_cross((0, 1), (1, 2), ps)
        assert not segments_cross((0, 1), (2, 3), ps)

    def test_realization_properties(self, bw33):
        ps = realize_coordinates(bw33)
        assert ps.interior_index == 0
        assert in_general_position(ps)
        hull, interior = hull_and_interior(ps)
        assert interior == [0]
        assert sorted(hull) == list(range(1, 10))

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (5, 5, 5), (1, 2, 3, 4, 5), (3,) * 5])
    def test_predicates_agree_on_realization(self, sizes):
        m = build_generalized_wheel(list(sizes))
        ps = realize_coordinates(m)
        assert set(crossing_graph(m).crossing_pairs()) == geometric_crossing_pairs(ps)

    def test_pointset_json_roundtrip(self, bw33):
        ps = realize_coordinates(bw33)
        again = PointSet.from_json(ps.to_json())
        assert again.points == ps.points
        assert again.interior_index == ps.interior_index


class TestCanonicalize:
    def test_roundtrip_bumpy(self, bw33):
        assert canonicalize(realize_coordinates(bw33)).sizes == (3, 3, 3)

    def test_roundtrip_sizes_up_to_rotation_reflection(self):
        sizes = (2, 3, 3, 4, 3)
        m = build_generalized_wheel(list(sizes))
        got = canonicalize(realize_coordinates(m)).sizes
        k = len(sizes)
        variants = {tuple(sizes[(i + t) % k] for i in range(k)) for t in range(k)}
        variants |= {tuple(v[::-1]) for v in variants}
        assert got in variants

    def test_triangle_plus_center(self):
        m = build_generalized_wheel([1, 1, 1])
        assert canonicalize(realize_coordinates(m)).sizes == (1, 1, 1)

    def test_opposite_boundary_edge_triangle(self):
        m = build_generalized_wheel([1, 1, 1])
        ps = realize_coordinates(m)
        hull, interior = hull_and_interior(ps)
        assert _opposite_boundary_edge(ps, hull, interior[0], 1) == (2, 3)

    def test_random_sets_canonicalize(self):
        rng = random.Random(7)
        for _ in range(25):
            ps = random_one_interior_set(rng)
            model = canonicalize(ps)
            assert model.k % 2 == 1
            assert model.hull_count == len(ps) - 1

    def test_rejects_multiple_interior_points(self):
        pts = (
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(100)),
            (Fraction(0), Fraction(1, 7)),
            (Fraction(-100), Fraction(-100)),
            (Fraction(100), Fraction(-99)),
            (Fraction(-99), Fraction(100)),
        )
        with pytest.raises(ValueError):
            canonicalize(PointSet(points=pts))


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=7).filter(
        lambda s: len(s) % 2 == 1 and sum(s) % 2 == 1
    )
)
def test_property_realization_matches_model(sizes):
    m = build_generalized_wheel(sizes)
    ps = realize_coordinates(m)
    assert in_general_position(ps)
    assert set(crossing_graph(m).crossing_pairs()) == geometric_crossing_pairs(ps)


def test_matrix_models_all_realize():
    # every wheel with hull total <= 9 realizes and agrees with the predicate
    for sizes in wheel_matrix(9):
        m = build_generalized_wheel(list(sizes))
        ps = realize_coordinates(m)
        assert set(crossing_graph(m).crossing_pairs()) == geometric_crossing_pairs(ps)
        assert geometric_crossings(ps) == wheel_tables(m).crossings


# The per-call predicates the order type replaced, as they were: a determinant
# over homogeneous integer coordinates for every call, and the crossing pairs
# as every edge pair tested in turn.
def percall_orient_idx(ps, i, j, l):
    xi, yi, wi = ps._homog[i]
    xj, yj, wj = ps._homog[j]
    xl, yl, wl = ps._homog[l]
    d = (xj * wi - xi * wj) * (yl * wi - yi * wl) - (yj * wi - yi * wj) * (xl * wi - xi * wl)
    return (d > 0) - (d < 0)


def percall_segments_cross(e, f, ps):
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    return (
        percall_orient_idx(ps, a, b, c) != percall_orient_idx(ps, a, b, d)
        and percall_orient_idx(ps, c, d, a) != percall_orient_idx(ps, c, d, b)
    )


def pairwise_crossing_pairs(ps):
    m = len(ps)
    es = [(a, b) for a in range(m) for b in range(a + 1, m)]
    return {(e, f) for e, f in combinations(es, 2) if percall_segments_cross(e, f, ps)}


def collinear_grid():
    """A 3x3 integer grid, one point above it and a second copy of the grid's
    center: many collinear triples, and 4-subsets with two crossing pairings."""
    pts = [(Fraction(x), Fraction(y)) for x in range(3) for y in range(3)]
    return PointSet(points=tuple(pts) + ((Fraction(1, 2), Fraction(3)), pts[4]))


@pytest.fixture(scope="module")
def order_type_sets():
    rng = random.Random(5)
    sets = [random_one_interior_set(rng) for _ in range(6)]
    models = [build_bumpy_wheel(5, 5), build_bumpy_wheel(7, 3), build_generalized_wheel([2, 3, 3, 4, 5])]
    return sets + [realize_coordinates(m) for m in models]


class TestOrderType:
    def test_table_built_on_first_use(self, bw33):
        ps = realize_coordinates(bw33)
        fresh = PointSet(points=ps.points, interior_index=0)
        assert "_orientations" not in vars(fresh)
        assert _orient_idx(fresh, 0, 1, 2) == orientation(*fresh.points[:3])
        assert len(vars(fresh)["_orientations"]) == len(fresh) ** 3

    def test_every_entry_is_the_exact_orientation(self, order_type_sets):
        for ps in order_type_sets + [collinear_grid()]:
            pts = ps.points
            for i, j, l in product(range(len(ps)), repeat=3):
                want = orientation(pts[i], pts[j], pts[l])
                assert _orient_idx(ps, i, j, l) == want, (i, j, l)
                if len({i, j, l}) < 3:
                    assert want == 0

    def test_general_position(self, order_type_sets):
        assert all(in_general_position(ps) for ps in order_type_sets)
        assert not in_general_position(collinear_grid())
        pts = order_type_sets[0].points
        assert not in_general_position(PointSet(points=pts + pts[:1]))  # a repeated point

    def test_crossing_pairs_match_pairwise_definition(self, order_type_sets):
        grid = collinear_grid()
        for ps in order_type_sets + [grid]:
            pairs = pairwise_crossing_pairs(ps)
            assert geometric_crossing_pairs(ps) == pairs
            m = len(ps)
            index = {e: i for i, e in enumerate((a, b) for a in range(m) for b in range(a + 1, m))}
            rows = [0] * len(index)
            for e, f in pairs:
                rows[index[e]] |= 1 << index[f]
                rows[index[f]] |= 1 << index[e]
            assert geometric_crossings(ps) == tuple(rows)
        m = len(grid)
        for e, f in combinations([(a, b) for a in range(m) for b in range(a + 1, m)], 2):
            assert segments_cross(e, f, grid) == percall_segments_cross(e, f, grid), (e, f)

    def test_realization_check_rejects_other_crossings(self, bw33):
        ps = realize_coordinates(bw33)
        assert _realization_ok(bw33, ps)
        pts = list(ps.points)
        pts[1], pts[2] = pts[2], pts[1]  # two hull points of group 1 trade places
        swapped = PointSet(points=tuple(pts), interior_index=0)
        assert in_general_position(swapped)
        assert geometric_crossing_pairs(swapped) != crossing_graph(bw33).crossing_pairs()
        assert not _realization_ok(bw33, swapped)


# The two checks `_realization_ok` made before the crossing rows were compared
# whole, as they were.  Equal rows imply both (see `realize_coordinates`).
def reference_window_rejects(model, ps):
    """The center lies inside the hull of some (k+1)/2 consecutive groups."""
    k = model.k
    for start in range(1, k + 1):
        window = []
        for g in range(start, start + (k + 1) // 2):
            window.extend(model.group_vertices(g))
        if _inside_convex(ps, 0, window):
            return True
    return False


def reference_repeated_point(ps):
    return len(set(ps._homog)) != len(ps._homog)


def circle_layout(model, spread):
    """realize_coordinates' point set at `spread` times its first in-group spread."""
    k = model.k
    delta = math.pi / (4 * k * (max(model.sizes) + 1)) * spread
    scale = max(10**6, int(1024 / delta))
    pts = [(Fraction(0), Fraction(0))]
    for g in range(1, k + 1):
        s = model.sizes[g - 1]
        for r in range(s):
            pts.append(_rational_circle_point(-2 * math.pi * (g - 1) / k - (r - (s - 1) / 2) * delta, scale))
    return PointSet(points=tuple(pts), interior_index=0)


def test_row_equality_implies_the_deleted_checks():
    # 630 wheels x 5 spreads; on one x86-64 machine the window loop rejected
    # 591 sets in general position and 465 sets had a repeated point
    windows = repeats = 0
    for sizes in wheel_matrix(11):
        if len(sizes) not in (3, 5, 7):
            continue
        model = build_generalized_wheel(list(sizes))
        for spread in (64, 16, 4, 1, 0.25):
            ps = circle_layout(model, spread)
            repeated, window = reference_repeated_point(ps), reference_window_rejects(model, ps)
            if repeated:
                assert not in_general_position(ps), (sizes, spread)
            if repeated or window:
                assert not _realization_ok(model, ps), (sizes, spread)
            repeats += repeated
            windows += window and in_general_position(ps)
    assert windows > 100 and repeats > 100  # both references reject something
