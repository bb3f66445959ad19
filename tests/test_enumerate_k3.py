from dataclasses import replace
from itertools import product

import pytest

from planewheel import edgeorder
from planewheel import enumerate_k3 as ek
from planewheel.partition import MODE_TREE, canonical_form, structural_audit, validate_spanning_trees
from planewheel.wheelgeom import crossing_graph, wheel_tables


def covered(pp):
    """The coloured edges of a partial partition."""
    return [e for e, c in zip(wheel_tables(pp.model).edges, pp.colors) if c != -1]


def recolor(pp, e, c):
    colors = list(pp.colors)
    colors[wheel_tables(pp.model).index[e]] = c
    return replace(pp, colors=tuple(colors))


class TestPredictions:
    def test_counts(self):
        assert ek.predicted_count(3) == 20
        assert ek.predicted_count(5) == 320
        assert ek.predicted_count(7) == 5120

    def test_base_counts(self):
        assert ek.predicted_base_count(3) == 5
        assert ek.predicted_base_count(5) == 10

    @pytest.mark.parametrize("k", [2, 4, 1, -3])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError):
            ek.predicted_count(k)


class TestBaseConstruction:
    def test_base_partition_count(self):
        assert len(ek.base_partitions(3)) == ek.predicted_base_count(3)
        assert len(ek.base_partitions(5)) == ek.predicted_base_count(5)

    def test_base_cases_present(self):
        cases = {pp.case for pp in ek.base_partitions(3)}
        assert cases == {"1", "2a", "2b"}

    def test_base_classes_disjoint_and_plane(self):
        for pp in ek.base_partitions(5):
            cg = crossing_graph(pp.model)
            classes = {}
            for e, c in zip(cg.edges, pp.colors):
                if c != -1:
                    classes.setdefault(c, []).append(e)
            for edges in classes.values():
                for i, e in enumerate(edges):
                    for f in edges[i + 1 :]:
                        assert not cg.crosses(e, f), (pp.case, e, f)

    def test_base_covers_all_radials(self):
        for pp in ek.base_partitions(3):
            radials = {e for e in covered(pp) if e[0] == 0}
            assert radials == {(0, v) for v in range(1, 10)}

    def test_stage_transitions_enforced(self):
        pp = ek.base_partitions(3)[0]
        ext = ek.extend_base(pp)
        assert ext.stage == ek.STAGE_BASE_EXTENDED
        with pytest.raises(ValueError):
            ek.extend_base(ext)
        with pytest.raises(ValueError):
            ek.extend_full(pp, (0, 0))

    def test_extension_covers_top_distances(self):
        from planewheel import edgeorder as eo

        ext = ek.extend_base(ek.base_partitions(3)[0])
        covered_dists = {eo.dist(ext.model, e) for e in covered(ext) if e[0] != 0}
        assert {5, 4, 3} <= covered_dists

    def test_full_extension_bit_length(self):
        assert ek.choice_length(3) == 2
        assert ek.choice_length(5) == 5
        ext = ek.extend_base(ek.base_partitions(3)[0])
        with pytest.raises(ValueError):
            ek.extend_full(ext, (0,))

    def test_extension_refuses_a_collision_or_a_gap(self):
        ext = ek.extend_base(ek.base_partitions(3)[0])
        # (1, 2) is a boundary edge, placed by the last level
        with pytest.raises(ValueError, match=r"extension collision at \(1, 2\)"):
            ek.extend_full(recolor(ext, (1, 2), 0), (0, 0))
        # a radial edge is no edge's child, so nothing covers it again
        gap = recolor(ext, (0, 1), -1)
        with pytest.raises(ValueError, match="extension left 1 edges uncovered"):
            ek.extend_full(gap, (0, 0))


class TestEnumeration:
    def test_count_k3(self):
        assert ek.count(3) == 20

    def test_all_outputs_validated_k3(self):
        for p in ek.enumerate_all(3):
            assert validate_spanning_trees(p).ok
            assert structural_audit(p, MODE_TREE).ok

    def test_outputs_pairwise_nonisomorphic_k3(self):
        forms = [canonical_form(p) for p in ek.enumerate_all(3)]
        assert len(set(forms)) == 20

    def test_case_split_k3(self):
        # case 1 has one fewer free radial bit than cases 2a/2b
        per_case = {c: sum(1 for _ in ek.enumerate_all(3, c)) for c in ek.CASES}
        assert per_case == {"1": 4, "2a": 8, "2b": 8}

    def test_count_k5(self):
        assert ek.count(5) == 320

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError):
            list(ek.enumerate_all(3, "3"))

    @pytest.mark.parametrize("k", [3, 5])
    def test_walk_equals_single_path(self, k):
        # the shared-prefix walk yields, in order, exactly the single-path
        # extension of every base by every bit string
        want = [
            ek.extend_full(ek.extend_base(b), bits).colors
            for b in ek.base_partitions(k)
            for bits in product((0, 1), repeat=ek.choice_length(k))
        ]
        assert [p.colors for p in ek.enumerate_all(k)] == want

    def test_children_computed_once_per_prefix(self, monkeypatch):
        calls = []
        original = edgeorder.distance_children
        monkeypatch.setattr(edgeorder, "distance_children", lambda m, e: calls.append(e) or original(m, e))
        assert ek.count(5) == 320
        # 10 bases x sum over the 5 levels of 2^i prefixes x 15 parents;
        # one call per edge per partition would be 320 x 5 x 15 = 24,000
        assert len(calls) == 4_650
