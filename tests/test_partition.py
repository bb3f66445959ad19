import dataclasses
import pickle
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
    structural_audit,
    validate_double_stars,
    validate_plane_partition,
    validate_spanning_trees,
)
from planewheel.solver import SolveConfig, solve
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel, edge, is_bumpy, wheel_tables


@pytest.fixture(scope="module")
def tree_partition(bw33):
    # a known-valid plane spanning tree partition from the enumerator
    return next(enumerate_k3.enumerate_all(3))


def recolor(p: Partition, mapping) -> Partition:
    return Partition(model=p.model, m=p.m, colors=tuple(mapping[c] for c in p.colors))


def with_color(model, e, c) -> tuple:
    """Colour 0 on every edge but e, which gets c."""
    colors = [0] * len(wheel_tables(model).edges)
    colors[wheel_tables(model).index[e]] = c
    return tuple(colors)


COVER = "color map must cover every edge exactly once"


class TestPartitionType:
    def test_totality_enforced(self, bw33):
        colors = list(with_color(bw33, (0, 1), 0))
        del colors[wheel_tables(bw33).index[(0, 1)]]
        with pytest.raises(ValueError, match=COVER):
            Partition(model=bw33, m=5, colors=tuple(colors))

    def test_color_range_enforced(self, bw33):
        with pytest.raises(ValueError):
            Partition(model=bw33, m=5, colors=with_color(bw33, (0, 1), 7))

    @pytest.mark.parametrize("bad", [1.0, "1", None, -1, 5, 256, 2**70])
    def test_color_must_be_an_int_in_range(self, bw33, bad):
        # 1.0 used to pass, and classes() and every validator then raised TypeError
        with pytest.raises(ValueError, match=r"color must be an int in range\(5\)"):
            Partition(model=bw33, m=5, colors=with_color(bw33, (3, 7), bad))

    def test_colors_from_256_are_checked_one_by_one(self, bw33):
        # bytes hold colours below 256 only; larger m takes the per-colour check
        colors = [300 if e[0] == 0 else 0 for e in wheel_tables(bw33).edges]
        p = Partition(model=bw33, m=301, colors=tuple(colors))
        assert [len(es) for es in p.classes()].count(9) == 1
        assert canonical_form(p) == percall_canonical_form(p)
        colors[wheel_tables(bw33).index[(1, 2)]] = 301
        with pytest.raises(ValueError, match=r"got 301"):
            Partition(model=bw33, m=301, colors=tuple(colors))

    @pytest.mark.parametrize("bad", [5.0, True, -3, 0])
    def test_class_count_must_be_a_positive_int(self, bw33, bad):
        # 5.0 used to construct, and classes() and every validator then raised
        # TypeError; True was read as 1; -3 failed with "range(-3)"
        with pytest.raises(ValueError, match=rf"m must be an int >= 1, got {bad!r}"):
            Partition(model=bw33, m=bad, colors=with_color(bw33, (0, 1), 0))

    def test_colors_follow_table_edge_order(self, tree_partition):
        p = tree_partition
        edges = wheel_tables(p.model).edges
        assert type(p.colors) is tuple and len(p.colors) == len(edges)

    def test_colors_must_be_a_tuple_with_one_entry_per_edge(self, tree_partition):
        p = tree_partition
        for bad in (list(p.colors), p.colors[:-1], p.colors + (0,)):
            with pytest.raises(ValueError, match=COVER):
                Partition(model=p.model, m=p.m, colors=bad)

    def test_classes_built_once(self, tree_partition):
        p = tree_partition
        assert p.classes() is p.classes()
        assert type(p.classes()) is tuple and all(type(es) is tuple for es in p.classes())
        edges = wheel_tables(p.model).edges
        assert [list(es) for es in p.classes()] == [
            [e for e, ce in zip(edges, p.colors) if ce == c] for c in range(p.m)
        ]

    def test_pickles_after_cached_views(self, tree_partition):
        p = tree_partition
        p.classes()
        again = pickle.loads(pickle.dumps(p))
        assert again == p and again.colors == p.colors and again.classes() == p.classes()

    @pytest.mark.parametrize("field,bad", [("colors", 1.5), ("colors", "2"), ("colors", True), ("m", "5"), ("m", 5.0)])
    def test_from_json_refuses_non_integers(self, tree_partition, field, bad):
        # 1.5 used to be truncated to 1, and "2" and true were read as colours
        obj = tree_partition.to_json()
        if field == "colors":
            obj["colors"][3] = bad
        else:
            obj["m"] = bad
        with pytest.raises(ValueError, match="must be JSON integers"):
            Partition.from_json(obj)

    def test_from_json_reads_m_up_to_the_edge_count(self, tree_partition):
        obj = tree_partition.to_json()
        n_edges = len(tree_partition.colors)
        obj["m"] = n_edges
        assert Partition.from_json(obj).m == n_edges
        obj["m"] = n_edges + 1
        with pytest.raises(ValueError, match=f"m must be at most the edge count {n_edges}, got {n_edges + 1}"):
            Partition.from_json(obj)

    def test_json_roundtrip(self, tree_partition):
        again = Partition.from_json(tree_partition.to_json())
        assert again.colors == tree_partition.colors
        assert again.m == tree_partition.m

    def test_classes_cover_all_edges(self, tree_partition):
        total = sum(len(c) for c in tree_partition.classes())
        assert total == len(wheel_tables(tree_partition.model).edges)


class TestValidators:
    def test_valid_tree_partition(self, tree_partition):
        rep = validate_spanning_trees(tree_partition)
        assert rep.ok
        assert all(f["plane"] and f["acyclic"] for f in rep.class_flags)

    def test_valid_is_also_plane(self, tree_partition):
        assert validate_plane_partition(tree_partition).ok

    def test_crossing_pair_detected(self, bw33):
        # everything in one class: the class contains crossing edges
        index = wheel_tables(bw33).index
        colors = [0] * len(index)
        for v in range(1, 5):
            colors[index[(0, v)]] = v
        p = Partition(model=bw33, m=5, colors=tuple(colors))
        rep = validate_plane_partition(p)
        assert not rep.ok
        assert "crossing" in rep.violations[0]

    def test_star_is_not_valid_tree_class(self, bw33):
        # radial star is plane and spanning but the rest cannot all be trees
        colors = tuple(0 if e[0] == 0 else 1 + (e[0] + e[1]) % 4 for e in wheel_tables(bw33).edges)
        p = Partition(model=bw33, m=5, colors=colors)
        assert not validate_spanning_trees(p).ok

    def test_split_class_and_oversized_class(self, bw33):
        # an enumerated partition with (0, 4) moved from class 0 to class 2:
        # class 0 falls apart into {0, 1, 2, 3} and {4, ..., 9}, class 2 gets 10 edges
        classes = [
            [(0, 1), (0, 2), (0, 3), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9)],
            [(0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (7, 8), (7, 9)],
            [(0, 4), (0, 8), (1, 9), (2, 9), (3, 8), (3, 9), (4, 5), (4, 6), (4, 7), (4, 8)],
            [(0, 7), (1, 8), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6), (3, 7), (8, 9)],
            [(0, 9), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (6, 7), (6, 8), (6, 9)],
        ]
        index = wheel_tables(bw33).index
        colors = [None] * len(index)
        for c, es in enumerate(classes):
            for e in es:
                colors[index[e]] = c
        p = Partition(model=bw33, m=5, colors=tuple(colors))
        rep = validate_spanning_trees(p)
        tree = {"plane": True, "size_2n_minus_1": True, "connected": True, "spanning": True, "acyclic": True}
        assert rep.class_flags == [
            dict(tree, size_2n_minus_1=False, connected=False, acyclic=False),
            tree,
            dict(tree, size_2n_minus_1=False, acyclic=False),
            tree,
            tree,
        ]
        assert rep.violations == [
            "class 0: 8 edges, expected 9",
            "class 0: not a spanning connected subgraph",
            "class 2: 10 edges, expected 9",
        ]

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
        es = wheel_tables(p.model).edges
        i1 = next(i for i, e in enumerate(es) if p.colors[i] == 0 and e[0] != 0)
        i2 = next(i for i, e in enumerate(es) if p.colors[i] == 1 and e[0] != 0)
        colors = list(p.colors)
        colors[i1], colors[i2] = colors[i2], colors[i1]
        corrupted = dataclasses.replace(p, colors=tuple(colors))
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
        assert canonical_form(tree_partition) == canonical_form(recolor(tree_partition, perm))

    def test_rotation_is_isomorphic(self, tree_partition):
        p = tree_partition
        t = wheel_tables(p.model)
        perm = t.symmetries[1]  # rotations come first
        rotated = Partition(
            model=p.model,
            m=p.m,
            colors=tuple(p.colors[t.index[edge(perm[a], perm[b])]] for a, b in t.edges),
        )
        assert canonical_form(p) == canonical_form(rotated)

        def renumbered(q):
            remap = {}
            return [remap.setdefault(c, len(remap)) for c in q.colors]

        assert renumbered(p) != renumbered(rotated) or p.colors == rotated.colors

    def test_enumerator_output_pairwise_distinct(self):
        forms = [canonical_form(p) for p in enumerate_k3.enumerate_all(3)]
        assert len(forms) == len(set(forms)) == 20


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_property_canonical_form_invariant(seed):
    # canonical form is stable under any symmetry followed by any recoloring
    rng = random.Random(seed)
    parts = list(enumerate_k3.enumerate_all(3))
    p = rng.choice(parts)
    t = wheel_tables(p.model)
    perm = rng.choice(t.symmetries)
    cmap = list(range(p.m))
    rng.shuffle(cmap)
    q = Partition(
        model=p.model,
        m=p.m,
        colors=tuple(cmap[p.colors[t.index[edge(perm[a], perm[b])]]] for a, b in t.edges),
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
    t = wheel_tables(p.model)
    best = None
    for perm in percall_symmetries(p.model):
        colors = [p.colors[t.index[edge(perm[a], perm[b])]] for a, b in t.edges]
        remap = {}
        cand = bytes(remap.setdefault(c, len(remap)) for c in colors)
        if best is None or cand < best:
            best = cand
    return best


def test_symmetries_and_forms_match_percall_computation():
    """The forms agree on every BW_{5,3} partition, on tree witnesses of the
    wheels with hull at most 9 that are not bumpy (at most two symmetries,
    colours first seen out of order) and on every BW_{3,3} tree colouring."""
    witnesses = []
    for sizes in wheel_matrix(9) + [(3,) * 5]:
        model = build_generalized_wheel(list(sizes))
        assert list(wheel_tables(model).symmetries) == percall_symmetries(model), sizes
        if not is_bumpy(model):
            witnesses.append(solve(model, SolveConfig(mode=MODE_TREE)).witness)
    assert len(witnesses) == 161 and all(witnesses)
    parts = list(enumerate_k3.enumerate_all(5))
    assert len(parts) == 320
    colourings = solve(build_bumpy_wheel(3, 3), SolveConfig(mode=MODE_TREE), all_solutions=True).solutions
    assert len(colourings) == 120
    for p in parts + witnesses + colourings:
        assert canonical_form(p) == percall_canonical_form(p)
