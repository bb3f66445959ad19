import random
from itertools import combinations

import pytest

from conftest import compositions, random_one_interior_set
from planewheel import doublestar as ds
from planewheel.partition import validate_double_stars
from planewheel.solver import SolveConfig, solve
from planewheel.wheelgeom import (
    _orient_idx,
    build_bumpy_wheel,
    build_generalized_wheel,
    edge,
    realize_coordinates,
    segments_cross,
    wheel_tables,
)

# the 391 generalized wheels with k in {3, 5} and hull size at most 11
ATLAS = [s for k in (3, 5) for h in range(k, 12, 2) for s in compositions(h, k)]


@pytest.fixture(scope="module")
def regular9():
    return build_generalized_wheel([1] * 9)


class TestHalvingEdges:
    def test_bw33_counts(self, bw33):
        radial, non_radial = ds.halving_edges(bw33)
        assert len(radial) == 3  # one center radial per group
        assert len(non_radial) == 3
        assert all(e[0] == 0 for e in radial)
        from planewheel import edgeorder as eo

        assert all(eo.dist(bw33, e) == bw33.n for e in non_radial)

    def test_regular_wheel_has_no_nonradial_halving(self, regular9):
        radial, non_radial = ds.halving_edges(regular9)
        assert len(radial) == 9
        assert non_radial == []

    def test_radial_halving_balance(self, gw_mixed):
        # each radial halving edge leaves n-1 hull points per side
        ps = realize_coordinates(gw_mixed)
        radial, _ = ds.halving_edges(gw_mixed)
        from planewheel.wheelgeom import _orient_idx

        n = gw_mixed.n
        for e in radial:
            v = e[1]
            sides = [_orient_idx(ps, 0, v, w) for w in range(1, gw_mixed.hull_count + 1) if w != v]
            assert sides.count(1) == n - 1
            assert sides.count(-1) == n - 1


class TestBadHalfplanes:
    def test_center_strictly_outside(self, bw33):
        for bh in ds.bad_halfplanes(bw33):
            a, b, c = bh.line
            assert c < 0  # 0 <= c would put the origin inside A x + B y <= C

    def test_bw33_has_empty_triple(self, bw33):
        bads = ds.bad_halfplanes(bw33)
        triple = ds.empty_triple(bads)
        assert triple is not None
        assert all(t in bads for t in triple)

    def test_regular_wheel_no_bad_halfplanes(self, regular9):
        assert ds.bad_halfplanes(regular9) == []
        assert ds.empty_triple([]) is None

    def test_lines_on_atlas_wheels(self):
        # each line vanishes at both endpoints, the centre strictly violates
        # it and the n - 1 far-side points strictly satisfy it
        lines = 0
        for sizes in ATLAS:
            model = build_generalized_wheel(list(sizes))
            ps = realize_coordinates(model)
            for bh in ds.bad_halfplanes(model, ps):
                a, b, c = bh.line
                assert all(isinstance(v, int) for v in bh.line)

                def side(v):  # W_v (A x + B y - C) at point v
                    x, y, w = ps._homog[v]
                    return a * x + b * y - c * w

                assert side(bh.halving_edge[0]) == side(bh.halving_edge[1]) == 0, sizes
                assert side(0) > 0, sizes
                far = model.far_arc(bh.halving_edge)
                assert len(far) == model.n - 1
                assert all(side(v) < 0 for v in far), sizes
                lines += 1
        assert lines == 1_520


# Hand-made integer lines (A, B, C) for A x + B y <= C, with whether the
# closed halfplanes have an empty intersection.
PAIRS = [
    (((0, 1, 1), (0, -1, -2)), True),  # y <= 1, y >= 2: the a1 = 0 branch
    (((0, 1, 1), (0, -1, 0)), False),  # y <= 1, y >= 0
    (((0, 2, 2), (0, -1, -1)), False),  # y <= 1, y >= 1: closed, they touch
    (((1, 1, 1), (-2, -2, -6)), True),  # x + y <= 1, x + y >= 3
    (((1, 1, 1), (-2, -2, 0)), False),  # x + y <= 1, x + y >= 0
    (((-3, 1, -1), (3, -1, 2)), False),  # antiparallel with a1 < 0, overlapping
    (((-3, 1, -3), (3, -1, 2)), True),  # antiparallel with a1 < 0, disjoint
    (((1, 2, 3), (2, 4, -100)), False),  # same direction: never empty
    (((0, 1, -5), (0, 3, -1)), False),  # same direction, a1 = 0
    (((1, 0, 0), (0, 1, 0)), False),  # not parallel
]
TRIPLES = [
    (((1, 0, 0), (0, 1, 0), (-1, -1, -1)), True),  # x <= 0, y <= 0, x + y >= 1
    (((1, 0, 1), (0, 1, 1), (-1, -1, -1)), False),  # x <= 1, y <= 1, x + y >= 1
    (((1, 0, 0), (-1, 0, -1), (0, 1, 5)), True),  # an empty pair decides
    (((1, 0, 0), (0, 1, 0), (1, 1, -5)), False),  # normals in a half-plane
    (((1, 0, 0), (2, 0, -3), (0, 1, 0)), False),  # two parallel, same side
]


@pytest.mark.parametrize("lines, empty", PAIRS)
def test_pair_empty_integer_lines(lines, empty):
    l1, l2 = lines
    assert ds._pair_empty(l1, l2) == ds._pair_empty(l2, l1) == empty
    # a pair is empty iff, with any third line, the triple is
    assert ds._triple_empty(l1, l2, (1, 1, 10**6)) == empty


@pytest.mark.parametrize("lines, empty", TRIPLES)
def test_triple_empty_integer_lines(lines, empty):
    for order in ((0, 1, 2), (1, 2, 0), (2, 1, 0)):
        assert ds._triple_empty(*(lines[i] for i in order)) == empty


def test_positive_scaling_keeps_every_verdict():
    factors = (1, 2, 7, 10**12 + 3)
    for lines, empty in PAIRS:
        for s1 in factors:
            for s2 in factors:
                l1, l2 = (tuple(s * v for v in line) for s, line in zip((s1, s2), lines))
                assert ds._pair_empty(l1, l2) == empty, (lines, s1, s2)
    for lines, empty in TRIPLES:
        for s in [(1, 1, 1), (2, 3, 5), (10**12 + 3, 1, 7), (7, 10**9, 2)]:
            scaled = [tuple(f * v for v in line) for f, line in zip(s, lines)]
            assert ds._triple_empty(*scaled) == empty, (lines, s)


class TestMatchings:
    def test_potential_matching_structure(self, regular9):
        m = ds.potential_matching(regular9, 1)
        assert m.radial_pair() == (0, 1)
        assert len(m.pairs) == regular9.n

    def test_matching_must_cover(self, bw33):
        with pytest.raises(ValueError):
            ds.Matching(model=bw33, pairs=((0, 1), (2, 3)))

    def test_spine_matching_on_regular_wheel(self, regular9):
        ok = [v for v in range(1, 10) if ds.is_spine_matching(ds.potential_matching(regular9, v)).ok]
        assert ok  # some rotation admits a spine matching

    def test_no_spine_matching_on_bw33(self, bw33):
        for v in range(1, 10):
            chk = ds.is_spine_matching(ds.potential_matching(bw33, v))
            assert not chk.ok
            assert chk.kind in ("parallel", "cross_blocker")

    def test_cross_blocker_matches_quadrilateral_reference(self):
        centre_inside = []  # outcomes of the quadrilateral test itself

        def reference(e, f, g, ps):
            # the quadrilateral test cross_blocker used before it shared _inside_convex
            if not (ds.stabs(e, f, ps) is not None and ds.stabs(e, g, ps) is not None and segments_cross(f, g, ps)):
                return False
            quad = (f[0], g[0], f[1], g[1])
            signs = {_orient_idx(ps, quad[i], quad[(i + 1) % 4], ps.interior_index) for i in range(4)}
            centre_inside.append(0 not in signs and len(signs) == 1)
            return not centre_inside[-1]

        for sizes in [(3, 3, 3), (1,) * 9, (2, 3, 3, 4, 3)]:
            model = build_generalized_wheel(list(sizes))
            ps = realize_coordinates(model)
            for v in range(1, model.hull_count + 1):
                e = edge(ps.interior_index, v)
                rest = [f for f in wheel_tables(model).edges if not set(f) & set(e)]
                for f, g in combinations(rest, 2):
                    assert ds.cross_blocker(e, f, g, ps) == reference(e, f, g, ps), (sizes, e, f, g)
        assert set(centre_inside) == {True, False}

    def test_complete_double_stars(self, regular9):
        for v in range(1, 10):
            matching = ds.potential_matching(regular9, v)
            if not ds.is_spine_matching(matching).ok:
                continue
            p = ds.complete_double_stars(matching)
            assert p is not None
            assert validate_double_stars(p).ok
            extracted = ds.spine_matching_of(p)
            assert len(extracted.pairs) == regular9.n
            break
        else:
            pytest.fail("no certified spine matching found")

    def test_complete_rejects_uncertified(self, bw33):
        with pytest.raises(ValueError):
            ds.complete_double_stars(ds.potential_matching(bw33, 1))


class TestGeometricObstructions:
    def test_stabs_and_parallel_disjointness_required(self, bw33):
        ps = realize_coordinates(bw33)
        with pytest.raises(ValueError):
            ds.stabs((0, 1), (1, 5), ps)
        with pytest.raises(ValueError):
            ds.parallel((0, 1), (1, 5), ps)

    def test_radial_stabs_opposite_boundary(self, bw33):
        ps = realize_coordinates(bw33)
        # the line through {v_0, v_2} exits through the opposite boundary edge
        hit = ds.stabs((0, 2), (6, 7), ps)
        assert hit == 0


class TestCriteria:
    def test_bw33_small_families(self, bw33):
        assert ds.criterion_small_families(bw33)
        assert not ds.criterion_large_families(bw33)

    def test_regular_wheel_large_families(self, regular9):
        assert ds.criterion_large_families(regular9)
        assert not ds.criterion_small_families(regular9)

    def test_criteria_are_complementary_on_matrix(self):
        from conftest import wheel_matrix

        # small-families (UNSAT side) and large-families (SAT side) never
        # both hold; on this matrix they are exact complements
        for sizes in wheel_matrix(11):
            m = build_generalized_wheel(list(sizes))
            small = ds.criterion_small_families(m)
            large = ds.criterion_large_families(m)
            assert not (small and large), sizes

    def test_criterion_matches_solver(self, bw33, regular9):
        from planewheel.partition import MODE_DOUBLE_STAR

        for model in (bw33, regular9):
            expect_unsat = ds.criterion_small_families(model)
            got = solve(model, SolveConfig(mode=MODE_DOUBLE_STAR)).status
            assert (got == "UNSAT") == expect_unsat

    def test_spine_matchings_follow_the_small_families_criterion(self):
        """On every atlas wheel some hull vertex's potential matching is a
        spine matching iff the small-families criterion fails, and each such
        matching completes to a double-star partition with one spine per class."""
        certified = 0
        for sizes in ATLAS:
            model = build_generalized_wheel(list(sizes))
            ps = realize_coordinates(model)
            matchings = (ds.potential_matching(model, v) for v in range(1, model.hull_count + 1))
            spines = [m for m in matchings if ds.is_spine_matching(m, ps).ok]
            assert bool(spines) != ds.criterion_small_families(model), sizes
            index = wheel_tables(model).index
            for m in spines:
                p = ds.complete_double_stars(m)
                assert p is not None and validate_double_stars(p).ok, (sizes, m.pairs)
                assert len({p.colors[index[e]] for e in m.pairs}) == model.n, (sizes, m.pairs)
            certified += len(spines)
        assert len(ATLAS) == 391 and certified == 490

    def test_tree_nonpartition_criterion(self):
        assert ds.tree_nonpartition_criterion(build_generalized_wheel([5, 7, 5, 7, 5]))
        assert not ds.tree_nonpartition_criterion(build_bumpy_wheel(3, 3))


# The exact rational line-intersection versions of `stabs` and `parallel`
# that the order-type reads replaced, as they were.
def rational_meet(p1, p2, q1, q2):
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    t = ((q1[0] - p1[0]) * d2[1] - (q1[1] - p1[1]) * d2[0]) / den
    return (p1[0] + t * d1[0], p1[1] + t * d1[1])


def rational_strictly_inside(s, p, q):
    lo_x, hi_x = min(p[0], q[0]), max(p[0], q[0])
    lo_y, hi_y = min(p[1], q[1]), max(p[1], q[1])
    return lo_x < s[0] < hi_x if p[0] != q[0] else lo_y < s[1] < hi_y


def fraction_stabs(e, f, ps):
    p1, p2 = ps.points[e[0]], ps.points[e[1]]
    q1, q2 = ps.points[f[0]], ps.points[f[1]]
    s = rational_meet(p1, p2, q1, q2)
    if s is None or not rational_strictly_inside(s, q1, q2) or rational_strictly_inside(s, p1, p2):
        return None
    d1 = (p1[0] - s[0]) ** 2 + (p1[1] - s[1]) ** 2
    d2 = (p2[0] - s[0]) ** 2 + (p2[1] - s[1]) ** 2
    return e[0] if d1 < d2 else e[1]


def fraction_parallel(e, f, ps):
    p1, p2 = ps.points[e[0]], ps.points[e[1]]
    q1, q2 = ps.points[f[0]], ps.points[f[1]]
    s = rational_meet(p1, p2, q1, q2)
    return s is None or (not rational_strictly_inside(s, p1, p2) and not rational_strictly_inside(s, q1, q2))


def test_stabs_and_parallel_match_fraction_versions():
    """Every ordered pair of disjoint edges of realized wheels and of random
    one-interior-point sets: the same answers as the rational
    line-intersection versions."""
    wheels = [(1, 1, 1), (3, 3, 3), (1, 2, 4), (1, 1, 1, 1, 1), (2, 1, 3, 1, 2), (1,) * 7, (1, 3, 1, 3, 1)]
    rng = random.Random(0)
    point_sets = [realize_coordinates(build_generalized_wheel(list(sizes))) for sizes in wheels]
    point_sets += [random_one_interior_set(rng) for _ in range(2)]
    pairs = stabbing = parallels = 0
    for ps in point_sets:
        es = [(a, b) for a in range(len(ps)) for b in range(a + 1, len(ps))]
        for e in es:
            for f in es:
                if set(e) & set(f):
                    continue
                hit = ds.stabs(e, f, ps)
                assert hit == fraction_stabs(e, f, ps), (ps, e, f)
                par = ds.parallel(e, f, ps)
                assert par == fraction_parallel(e, f, ps), (ps, e, f)
                pairs += 1
                stabbing += hit is not None
                parallels += par
    assert (pairs, stabbing, parallels) == (6_066, 372, 3_548)
