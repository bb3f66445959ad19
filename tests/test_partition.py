import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wheel_matrix
from planewheel import enumerate_k3
from planewheel.partition import (
    MODE_DOUBLE_STAR,
    MODE_SUBGRAPH,
    MODE_TREE,
    Partition,
    canonical_form,
    isomorphic,
    structural_audit,
    validate_double_stars,
    validate_plane_partition,
    validate_spanning_trees,
)
from planewheel.solver import SolveConfig, solve
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel, edge, wheel_tables


@pytest.fixture(scope="module")
def tree_partition(bw33):
    # a known-valid plane spanning tree partition from the enumerator
    return next(enumerate_k3.enumerate_all(3))


def recolor(p: Partition, mapping) -> Partition:
    return Partition(model=p.model, m=p.m, color={e: mapping[c] for e, c in p.color.items()})


class TestPartitionType:
    def test_totality_enforced(self, bw33):
        colors = {e: 0 for e in bw33.edges()}
        colors.pop((0, 1))
        with pytest.raises(ValueError):
            Partition(model=bw33, m=5, color=colors)

    def test_color_range_enforced(self, bw33):
        colors = {e: 0 for e in bw33.edges()}
        colors[(0, 1)] = 7
        with pytest.raises(ValueError):
            Partition(model=bw33, m=5, color=colors)

    def test_json_roundtrip(self, tree_partition):
        again = Partition.from_json(tree_partition.to_json())
        assert again.color == tree_partition.color
        assert again.m == tree_partition.m

    def test_classes_cover_all_edges(self, tree_partition):
        total = sum(len(c) for c in tree_partition.classes())
        assert total == len(tree_partition.model.edges())


class TestValidators:
    def test_valid_tree_partition(self, tree_partition):
        rep = validate_spanning_trees(tree_partition)
        assert rep.ok
        assert all(f["plane"] and f["acyclic"] for f in rep.class_flags)

    def test_valid_is_also_plane(self, tree_partition):
        assert validate_plane_partition(tree_partition).ok

    def test_crossing_pair_detected(self, bw33):
        # everything in one class: the class contains crossing edges
        colors = {e: 0 for e in bw33.edges()}
        colors[(0, 1)] = 1
        colors[(0, 2)] = 2
        colors[(0, 3)] = 3
        colors[(0, 4)] = 4
        p = Partition(model=bw33, m=5, color=colors)
        rep = validate_plane_partition(p)
        assert not rep.ok
        assert "crossing" in rep.violations[0]

    def test_star_is_not_valid_tree_class(self, bw33):
        # radial star is plane and spanning but the rest cannot all be trees
        colors = {e: (0 if e[0] == 0 else 1 + (e[0] + e[1]) % 4) for e in bw33.edges()}
        p = Partition(model=bw33, m=5, color=colors)
        assert not validate_spanning_trees(p).ok

    def test_double_star_validator(self, bw33):
        outcome = solve(bw33, SolveConfig(mode=MODE_TREE))
        rep = validate_double_stars(outcome.witness)
        # spanning-tree witness need not be a double star; flags must exist
        assert all("double_star" in f for f in rep.class_flags)


class TestAudits:
    def test_enumerated_partitions_audit_clean(self):
        for p in enumerate_k3.enumerate_all(3):
            assert structural_audit(p, MODE_TREE).ok

    def test_boundary_counts_on_witness(self, bw33):
        w = solve(bw33, SolveConfig(mode=MODE_TREE)).witness
        assert structural_audit(w, MODE_TREE).ok

    def test_subgraph_audit_on_bw35_witness(self, bw35):
        w = solve(bw35, SolveConfig(mode=MODE_SUBGRAPH)).witness
        assert structural_audit(w, MODE_SUBGRAPH).ok

    def test_audit_flags_corrupted_partition(self, tree_partition):
        # swap two classes on a pair of edges to break the tree structure
        p = tree_partition
        es = p.model.edges()
        e1 = next(e for e in es if p.color[e] == 0 and e[0] != 0)
        e2 = next(e for e in es if p.color[e] == 1 and e[0] != 0)
        colors = dict(p.color)
        colors[e1], colors[e2] = colors[e2], colors[e1]
        corrupted = Partition(model=p.model, m=p.m, color=colors)
        assert not (
            validate_spanning_trees(corrupted).ok
            and structural_audit(corrupted, MODE_TREE).ok
        )


class TestSymmetries:
    def test_group_sizes(self, bw33):
        # dihedral symmetry of the 3-fold bumpy wheel: 3 rotations x 2
        assert len(wheel_tables(bw33).symmetries) == 6

    def test_mixed_sizes_fewer_symmetries(self, gw_mixed):
        # sizes (2,3,3,4,3): no nontrivial rotation, no reflection
        assert len(wheel_tables(gw_mixed).symmetries) == 1
        # palindromic sizes gain exactly one reflection
        palindrome = build_generalized_wheel([1, 2, 3, 2, 1])
        assert len(wheel_tables(palindrome).symmetries) == 2

    def test_permutations_fix_center_and_preserve_groups(self, bw33):
        for perm in wheel_tables(bw33).symmetries:
            assert perm[0] == 0
            assert sorted(perm) == list(range(10))

    def test_identity_always_present(self, bw33):
        assert tuple(range(10)) in wheel_tables(bw33).symmetries


class TestIsomorphism:
    def test_recoloring_is_isomorphic(self, tree_partition):
        rng = random.Random(3)
        perm = list(range(tree_partition.m))
        rng.shuffle(perm)
        assert isomorphic(tree_partition, recolor(tree_partition, perm))

    def test_rotation_is_isomorphic(self, tree_partition):
        p = tree_partition
        perm = wheel_tables(p.model).symmetries[1]  # rotations come first
        rotated = Partition(
            model=p.model,
            m=p.m,
            color={e: p.color[edge(perm[e[0]], perm[e[1]])] for e in p.model.edges()},
        )
        assert isomorphic(p, rotated)

        def renumbered(q):
            remap = {}
            return [remap.setdefault(q.color[e], len(remap)) for e in q.model.edges()]

        assert renumbered(p) != renumbered(rotated) or p.color == rotated.color

    def test_enumerator_output_pairwise_distinct(self):
        forms = [canonical_form(p) for p in enumerate_k3.enumerate_all(3)]
        assert len(forms) == len(set(forms)) == 20

    def test_model_mismatch_rejected(self, tree_partition, bw35):
        other = solve(bw35, SolveConfig(mode=MODE_SUBGRAPH)).witness
        with pytest.raises(ValueError):
            isomorphic(tree_partition, other)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_property_canonical_form_invariant(seed):
    # canonical form is stable under any symmetry followed by any recoloring
    rng = random.Random(seed)
    parts = list(enumerate_k3.enumerate_all(3))
    p = rng.choice(parts)
    perm = rng.choice(wheel_tables(p.model).symmetries)
    cmap = list(range(p.m))
    rng.shuffle(cmap)
    q = Partition(
        model=p.model,
        m=p.m,
        color={e: cmap[p.color[edge(perm[e[0]], perm[e[1]])]] for e in p.model.edges()},
    )
    assert canonical_form(p) == canonical_form(q)


# The per-call symmetry computation and canonical form the per-model edge
# images replaced, as they were, for the rotations and reflections.
def percall_symmetries(model):
    h = model.hull_count
    group_sets = [frozenset(v - 1 for v in model.group_vertices(g)) for g in range(1, model.k + 1)]
    gs = set(group_sets)
    perms = []
    for sign in (1, -1):
        for t in range(h):
            images = [(sign * p + t) % h for p in range(h)]
            if all(frozenset(images[p] for p in s) in gs for s in group_sets):
                perms.append((0,) + tuple(images[v - 1] + 1 for v in range(1, h + 1)))
    return perms


def percall_canonical_form(p):
    best = None
    for perm in percall_symmetries(p.model):
        colors = [p.color[edge(perm[a], perm[b])] for a, b in p.model.edges()]
        remap = {}
        cand = bytes(remap.setdefault(c, len(remap)) for c in colors)
        if best is None or cand < best:
            best = cand
    return best


def test_symmetries_and_forms_match_percall_computation():
    for sizes in wheel_matrix(9) + [(1, 2, 3, 2, 1), (3,) * 5]:
        model = build_generalized_wheel(list(sizes))
        assert list(wheel_tables(model).symmetries) == percall_symmetries(model), sizes
    parts = list(enumerate_k3.enumerate_all(5))
    assert len(parts) == 320
    for p in parts:
        assert canonical_form(p) == percall_canonical_form(p)
