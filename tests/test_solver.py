import pytest

from conftest import wheel_matrix
from planewheel import enumerate_k3
from planewheel.partition import (
    MODE_DOUBLE_STAR,
    MODE_SUBGRAPH,
    MODE_TREE,
    canonical_form,
    structural_audit,
    validate_double_stars,
    validate_plane_partition,
    validate_spanning_trees,
)
from planewheel.solver import SolveConfig, decide_theorem, export_lp, max_crossing_family, solve
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel, crossing_graph


class TestConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(mode="nope")

    @pytest.mark.parametrize("limits", [{"node_limit": -5}, {"time_limit": -1.0}, {"time_limit": float("nan")}])
    def test_negative_or_nan_limit_rejected(self, limits):
        # node_limit=-5 used to stop the search with LIMIT after one node
        with pytest.raises(ValueError):
            SolveConfig(**limits)


class TestMaxCrossingFamily:
    @pytest.mark.parametrize("sizes", [(3, 3, 3), (5, 5, 5), (2, 3, 3, 4, 3)])
    def test_family_is_pairwise_crossing(self, sizes):
        m = build_generalized_wheel(list(sizes))
        fam = max_crossing_family(m)
        assert len(fam) >= m.n - 1
        cg = crossing_graph(m)
        for i, e in enumerate(fam):
            for f in fam[i + 1 :]:
                assert cg.crosses(e, f)

    @pytest.mark.parametrize("sizes,extra", [((1, 3, 1), (0, 3)), ((3, 5, 1), (0, 5))])
    def test_greedy_pass_grows_the_family(self, sizes, extra):
        # a radial edge crosses all n-1 chords, so symmetry breaking
        # preassigns n pairwise-crossing edges here, not n-1
        m = build_generalized_wheel(list(sizes))
        fam = max_crossing_family(m)
        assert fam == [(t, t + m.n) for t in range(1, m.n)] + [extra]
        cg = crossing_graph(m)
        assert all(cg.crosses(e, f) for i, e in enumerate(fam) for f in fam[i + 1 :])
        assert solve(m, SolveConfig(mode=MODE_DOUBLE_STAR)).stats["preassigned"] == m.n


class TestSolve:
    def test_bw33_tree_sat(self, bw33):
        out = solve(bw33, SolveConfig(mode=MODE_TREE))
        assert out.status == "SAT"
        assert validate_spanning_trees(out.witness).ok
        assert structural_audit(out.witness, MODE_TREE).ok

    def test_bw35_tree_unsat(self, bw35):
        out = solve(bw35, SolveConfig(mode=MODE_TREE))
        assert out.status == "UNSAT"
        assert out.witness is None

    def test_bw35_subgraph_sat(self, bw35):
        out = solve(bw35, SolveConfig(mode=MODE_SUBGRAPH))
        assert out.status == "SAT"
        assert validate_plane_partition(out.witness).ok

    def test_double_star_regular_wheel_sat(self):
        w = build_generalized_wheel([1] * 7)
        out = solve(w, SolveConfig(mode=MODE_DOUBLE_STAR))
        assert out.status == "SAT"
        assert validate_double_stars(out.witness).ok

    def test_double_star_bw33_unsat(self, bw33):
        assert solve(bw33, SolveConfig(mode=MODE_DOUBLE_STAR)).status == "UNSAT"

    def test_node_limit_reports_limit(self, bw35):
        out = solve(bw35, SolveConfig(mode=MODE_TREE, node_limit=10))
        assert out.status == "LIMIT"
        assert out.stats["nodes"] <= 11

    def test_time_limit_reports_limit(self):
        # the clock is read every 2**16 nodes, so the first reading stops it;
        # BW_{3,7} tree needs millions of nodes to finish
        out = solve(build_bumpy_wheel(3, 7), SolveConfig(mode=MODE_TREE, time_limit=1e-6))
        assert out.status == "LIMIT"
        assert out.stats["nodes"] == 65536

    # (status, nodes, fingerprint) as recorded for the benchmark's solve ladder
    # in perfbench/results/baseline.json: any change to the search tree shows here
    @pytest.mark.parametrize(
        "sizes,mode,all_solutions,expected",
        [
            ((3, 3, 3), MODE_TREE, False, ("SAT", 108, "860680bab3ad1da5")),
            ((3, 3, 3), MODE_DOUBLE_STAR, False, ("UNSAT", 318, "73b30a7f9e7406ae")),
            ((3, 3, 3), MODE_TREE, True, ("SAT", 7121, "9c05fc68cb6e34d0")),
            ((5, 5, 5), MODE_SUBGRAPH, False, ("SAT", 2487, "85780eaf58c6dc59")),
            ((5, 5, 5), MODE_TREE, False, ("UNSAT", 39773, "fe71649756df3c78")),
            ((2, 3, 3, 4, 3), MODE_TREE, False, ("SAT", 128972, "c17ac91ca12d7cba")),
        ],
        ids=["bw33-tree", "bw33-double-star", "bw33-tree-all", "bw35-subgraph", "bw35-tree", "gw23343-tree"],
    )
    def test_search_tree_pinned(self, sizes, mode, all_solutions, expected):
        out = solve(build_generalized_wheel(list(sizes)), SolveConfig(mode=mode), all_solutions=all_solutions)
        assert (out.status, out.stats["nodes"], out.stats["fingerprint"]) == expected

    def test_symmetry_breaking_preserves_status(self, bw33):
        with_sb = solve(bw33, SolveConfig(mode=MODE_TREE, symmetry_breaking=True))
        without = solve(bw33, SolveConfig(mode=MODE_TREE, symmetry_breaking=False))
        assert with_sb.status == without.status == "SAT"

    def test_symmetry_breaking_preserves_unsat(self, bw33):
        with_sb = solve(bw33, SolveConfig(mode=MODE_DOUBLE_STAR, symmetry_breaking=True))
        without = solve(bw33, SolveConfig(mode=MODE_DOUBLE_STAR, symmetry_breaking=False))
        assert with_sb.status == without.status == "UNSAT"

    def test_stats_present(self, bw33):
        out = solve(bw33, SolveConfig(mode=MODE_TREE))
        assert out.stats["nodes"] > 0
        assert len(out.stats["fingerprint"]) == 16
        assert out.stats["backend"] == "python"

    def test_deterministic(self, bw33):
        a = solve(bw33, SolveConfig(mode=MODE_TREE))
        b = solve(bw33, SolveConfig(mode=MODE_TREE))
        assert a.stats["fingerprint"] == b.stats["fingerprint"]
        assert a.stats["nodes"] == b.stats["nodes"]

    def test_all_solutions_small(self):
        w = build_generalized_wheel([1, 1, 1])
        out = solve(w, SolveConfig(mode=MODE_TREE), all_solutions=True)
        assert out.status == "SAT"
        assert out.solutions
        for p in out.solutions:
            assert validate_spanning_trees(p).ok

    def test_all_solutions_bw53_equals_enumerator(self):
        # every colouring the tree search finds on BW_{5,3}, up to rotation,
        # reflection and renaming of colours, is one the enumerator builds
        # and vice versa; each form comes 2k = 10 times (the search breaks
        # colour symmetry only)
        out = solve(build_bumpy_wheel(5, 3), SolveConfig(mode=MODE_TREE), all_solutions=True)
        assert (out.status, out.stats["nodes"], len(out.solutions)) == ("SAT", 240773, 3200)
        forms = {canonical_form(p) for p in enumerate_k3.enumerate_all(5)}
        assert len(forms) == 320
        assert {canonical_form(p) for p in out.solutions} == forms

    def test_preassignment_respected(self, bw33):
        e = (1, 6)
        out = solve(bw33, SolveConfig(mode=MODE_TREE), preassigned=[(e, 2)])
        assert out.status == "SAT"
        assert out.witness.color[e] == 2

    @pytest.mark.parametrize(
        "preassigned",
        [
            [((0, 1), -1)],  # was UNSAT at 0 nodes
            [((0, 1), 0), ((0, 1), 0)],  # was UNSAT at 1 node
            [((0, 1), 5)],  # was an IndexError: m = 5
            [((1, 0), 0)],  # was a KeyError: edges are keyed (a, b) with a < b
        ],
    )
    def test_bad_preassignment_rejected(self, bw33, preassigned):
        with pytest.raises(ValueError):
            solve(bw33, SolveConfig(mode=MODE_TREE), preassigned=preassigned)

    def test_to_json(self, bw33):
        out = solve(bw33, SolveConfig(mode=MODE_TREE))
        obj = out.to_json()
        assert obj["status"] == "SAT"
        assert "witness" in obj and "stats" in obj


class TestExportLp:
    def test_structure_counts(self, bw35):
        text = export_lp(bw35, 8)
        lines = text.splitlines()
        assert lines[0] == "Minimize"
        assert lines[-1] == "End"
        c1 = [l for l in lines if l.startswith(" c1_")]
        c2 = [l for l in lines if l.startswith(" c2_")]
        c3 = [l for l in lines if l.startswith(" c3_")]
        binaries = lines[lines.index("Binaries") + 1 : lines.index("End")]
        assert len(c1) == 120
        assert len(c3) == 8
        assert len(binaries) == 960
        assert len(c2) == 8 * len(crossing_graph(bw35).crossing_pairs())

    def test_byte_stable(self, bw35):
        assert export_lp(bw35, 8) == export_lp(bw35, 8)

    def test_optional_blocks(self, bw33):
        base = export_lp(bw33, 5, enforce_class_size=False)
        assert " c3_" not in base
        tri = export_lp(bw33, 5, enforce_triangle=True)
        assert " c4_" in tri


class TestDecideTheorem:
    def test_bumpy_tree_boundary(self):
        assert decide_theorem(build_bumpy_wheel(3, 3))["tree"] == "yes"
        assert decide_theorem(build_bumpy_wheel(5, 3))["tree"] == "yes"
        assert decide_theorem(build_bumpy_wheel(3, 5))["tree"] == "no"

    def test_bumpy_subgraph_boundary(self):
        assert decide_theorem(build_bumpy_wheel(3, 5))["subgraph"] == "yes"
        assert decide_theorem(build_bumpy_wheel(5, 5))["subgraph"] == "no"
        assert decide_theorem(build_bumpy_wheel(3, 7))["subgraph"] == "no"

    def test_double_star_verdicts(self):
        assert decide_theorem(build_bumpy_wheel(3, 3))["double_star"] == "no"
        assert decide_theorem(build_generalized_wheel([1] * 5))["double_star"] == "yes"

    def test_generalized_tree_verdict(self):
        # every 2-consecutive-group family of [5,7,5,7,5] has <= 12 < n-2 = 13
        v = decide_theorem(build_generalized_wheel([5, 7, 5, 7, 5]))
        assert v["tree"] == "no"
        # [2,3,3,4,5] misses the sufficient criterion (one family has exactly
        # n-2 vertices) even though exhaustive search shows UNSAT
        v = decide_theorem(build_generalized_wheel([2, 3, 3, 4, 5]))
        assert v["tree"] == "unknown"
        assert v["subgraph"] == "unknown"

    @pytest.mark.slow
    def test_double_star_verdict_matches_search_at_hull_13_and_15(self):
        # the verdict is exact; check it on every wheel with 14 or 16 points,
        # up to rotation and reflection of the group sizes
        wheels = {13: set(), 15: set()}
        for sizes in wheel_matrix(15):
            if sum(sizes) in wheels:
                turns = [sizes[i:] + sizes[:i] for i in range(len(sizes))]
                wheels[sum(sizes)].add(min(turns + [t[::-1] for t in turns]))
        assert (len(wheels[13]), len(wheels[15])) == (189, 611)
        for sizes in sorted(wheels[13] | wheels[15]):
            m = build_generalized_wheel(list(sizes))
            status = solve(m, SolveConfig(mode=MODE_DOUBLE_STAR)).status
            assert status in ("SAT", "UNSAT"), sizes
            assert (decide_theorem(m)["double_star"] == "no") == (status == "UNSAT"), sizes

    def test_verdicts_match_solver_on_small_bumpy(self):
        for k, ell in [(3, 1), (3, 3), (5, 1)]:
            m = build_bumpy_wheel(k, ell)
            v = decide_theorem(m)["tree"]
            got = solve(m, SolveConfig(mode=MODE_TREE)).status
            assert (v == "yes") == (got == "SAT")
