"""The compiled kernel and the pure Python reference must be observably
identical: same status, node count, max depth, search fingerprint, witness and
list of solutions, also when a node or time limit stops them.

The compiled twin is built from `kernel.c` with `ckernel.build` into a
temporary directory and loaded with ctypes, so the contract runs wherever a C
compiler is on PATH.  The package itself keeps running `search_py`."""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import planewheel
import planewheel._core as core
from conftest import wheel_matrix
from planewheel._core import BACKEND, backends, ckernel, search_py
from planewheel.doublestar import is_spine_matching, potential_matching
from planewheel.partition import MODE_DOUBLE_STAR, MODE_SUBGRAPH, MODE_TREE
from planewheel.solver import SolveConfig, solve
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel, wheel_tables

# The 45, 120 and 231 edges of BW_{3,3}, BW_{3,5} and BW_{3,7} (5, 8 and 11
# colours) take 1, 2 and 4 64-bit words per row in kernel.c, and 270, 1080 and
# 2772 bits (m + 1 per edge) in search_py's one conflict int
INSTANCES = [
    (build_bumpy_wheel(3, 3), MODE_TREE, {}),
    (build_bumpy_wheel(3, 3), MODE_DOUBLE_STAR, {}),
    (build_bumpy_wheel(3, 5), MODE_SUBGRAPH, {}),
    (build_bumpy_wheel(3, 5), MODE_TREE, {}),
    (build_generalized_wheel([1] * 7), MODE_DOUBLE_STAR, {}),
    (build_generalized_wheel([1, 2, 4]), MODE_TREE, {}),
    # preassigned=[] fixes no colour: the search without symmetry breaking
    (build_bumpy_wheel(3, 3), MODE_SUBGRAPH, {"preassigned": []}),
    (build_bumpy_wheel(3, 3), MODE_DOUBLE_STAR, {"preassigned": []}),
    (build_bumpy_wheel(3, 5), MODE_TREE, {"node_limit": 1000}),
    (build_bumpy_wheel(3, 7), MODE_TREE, {"time_limit": 1e-6}),
    # both limits on: the clock is read at 2^16 nodes and the node limit stops the search one node later
    (build_bumpy_wheel(3, 7), MODE_TREE, {"node_limit": 65537, "time_limit": 1e6}),
]


@pytest.fixture(scope="session")
def compiled_search(tmp_path_factory):
    """`search` of the compiled twin, built from `kernel.c` with every warning an error."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    lib = ckernel.build(tmp_path_factory.mktemp("kernel"))
    return ckernel.load(lib)


def run_with(fn, model, mode, cfg=None, **kwargs):
    """`solve` on `fn` as the kernel; `cfg` holds `SolveConfig` fields and,
    under "preassigned", `solve`'s preassigned argument."""
    cfg = dict(cfg or {})
    if "preassigned" in cfg:
        kwargs["preassigned"] = cfg.pop("preassigned")
    orig = core.search
    core.search = fn
    try:
        return solve(model, SolveConfig(mode=mode, **cfg), **kwargs)
    finally:
        core.search = orig


def test_default_backend_loaded():
    assert BACKEND == "python"
    assert backends() == {"python": search_py.search}


def test_import_leaves_ctypes_unloaded():
    src = Path(planewheel.__file__).parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import planewheel; print('ctypes' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_compiled_interface(compiled_search):
    assert inspect.signature(compiled_search) == inspect.signature(search_py.search)
    assert len(inspect.signature(compiled_search).parameters) == 11
    # bad input is refused before any pointer reaches C: one edge (0, 5) on 2
    # vertices, a crossing row with bit E set, a negative row, and a
    # preassigned colour outside 0..m-1
    with pytest.raises(ValueError):
        compiled_search(2, 1, [0], [5], [0], [0], [0], 0, 0, 0.0, False)
    with pytest.raises(ValueError):
        compiled_search(3, 1, [0, 1], [1, 2], [0, 1 << 2], [0, 1], [0], 0, 0, 0.0, False)
    with pytest.raises(ValueError):
        compiled_search(3, 1, [0, 1], [1, 2], [-1, 0], [0, 1], [0], 0, 0, 0.0, False)
    with pytest.raises(ValueError):
        compiled_search(3, 1, [0, 1], [1, 2], [0, 0], [0, 1], [1], 0, 0, 0.0, False)
    assert compiled_search(3, 1, [0, 1], [1, 2], [0, 0], [0, 1], [0], 0, 0, 0.0, False)["status"] == "SAT"


def test_missing_spine_refused(compiled_search):
    """Two internal vertices of one double-star class with no edge between
    them have no spine.  Paths 0-1-2 and 3-4-5 in one colour: the last edge
    makes 4 internal next to 1, and both kernels refuse it."""
    args = (6, 1, [0, 1, 3, 4], [1, 2, 4, 5], [0] * 4, [0, 1, 2, 3], [0], search_py.MODE_DOUBLE_STAR,
            0, 0.0, False)
    ref, out = search_py.search(*args), compiled_search(*args)
    assert ref["status"] == out["status"] == "UNSAT"
    assert ref["nodes"] == out["nodes"] == 3
    assert ref["fingerprint"] == out["fingerprint"]


@pytest.mark.parametrize("m,status,nodes", [(1, "UNSAT", 0), (2, "UNSAT", 1), (3, "SAT", 3)])
def test_guard_carry_refuses(compiled_search, m, status, nodes):
    """Three pairwise-crossing diagonals of a hexagon in subgraph mode, the
    first fixed to colour 0.  The last colour that fills an edge's group of m
    conflict bits carries into its guard bit in search_py: with m = 2,
    colouring the second edge blocks the third in the top colour; with m = 1
    the first edge already does."""
    args = (6, m, [0, 1, 2], [3, 4, 5], [0b110, 0b101, 0b011], [0, 1, 2], [0], search_py.MODE_SUBGRAPH,
            0, 0.0, False)
    ref, out = search_py.search(*args), compiled_search(*args)
    assert ref["status"] == out["status"] == status
    assert ref["nodes"] == out["nodes"] == nodes
    assert ref["fingerprint"] == out["fingerprint"]
    if m == 2:
        assert ref["fingerprint"] == 0xAF63BC4C8601B62C


@pytest.mark.parametrize("mode", [search_py.MODE_TREE, search_py.MODE_DOUBLE_STAR])
@pytest.mark.parametrize("breaking,count", [(True, 6), (False, 12)])
def test_two_spanning_trees_of_k4(compiled_search, mode, breaking, count):
    """K4 with m = 2 and no crossings has E = 6 = m(nv - 1), so every leaf is a
    partition into two spanning trees.  A star's complement is a triangle, so
    these are the 12 Hamiltonian paths, each paired with its complement path;
    paths are double stars too.  Fixing the first edge to colour 0 breaks the
    colour symmetry: it keeps one of each pair of colour-swapped colourings."""
    ea, eb = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]
    pre_colors = [0] if breaking else []
    args = (4, 2, ea, eb, [0] * 6, list(range(6)), pre_colors, mode, 0, 0.0, True)
    ref, out = search_py.search(*args), compiled_search(*args)
    assert ref["status"] == out["status"] == "SAT"
    assert ref["nodes"] == out["nodes"] == (27 if breaking else 54)
    assert ref["fingerprint"] == out["fingerprint"]
    assert ref["solutions"] == out["solutions"]
    assert len(ref["solutions"]) == count
    for colors in ref["solutions"]:
        for c in range(2):
            ends = [v for i, v in enumerate(ea + eb) if colors[i % 6] == c]
            assert sorted(ends.count(v) for v in range(4)) == [1, 1, 2, 2]


def assert_same(ref, out):
    assert out.status == ref.status
    for key in ("nodes", "max_depth", "fingerprint"):
        assert out.stats[key] == ref.stats[key]
    if ref.witness is None:
        assert out.witness is None
    else:
        assert out.witness.colors == ref.witness.colors


@pytest.mark.parametrize("model,mode,cfg", INSTANCES)
def test_backends_agree(compiled_search, model, mode, cfg):
    ref = run_with(search_py.search, model, mode, cfg)
    assert_same(ref, run_with(compiled_search, model, mode, cfg))
    if "node_limit" in cfg or "time_limit" in cfg:
        assert ref.status == "LIMIT"
    if "node_limit" in cfg:
        assert ref.stats["nodes"] == cfg["node_limit"]


@pytest.mark.parametrize("sizes,spine,status", [((1,) * 9, True, "SAT"), ((2, 2, 1, 1, 1), False, "UNSAT")])
def test_backends_agree_preassigned(compiled_search, sizes, spine, status):
    """A matching pinned to distinct classes, as `complete_double_stars`
    passes a certified spine matching to `solve`."""
    model = build_generalized_wheel(list(sizes))
    matching = potential_matching(model, 1)
    assert is_spine_matching(matching).ok == spine
    pre = [(e, c) for c, e in enumerate(sorted(matching.pairs))]
    ref = run_with(search_py.search, model, MODE_DOUBLE_STAR, preassigned=pre)
    assert_same(ref, run_with(compiled_search, model, MODE_DOUBLE_STAR, preassigned=pre))
    assert ref.status == status and ref.stats["preassigned"] == model.n


@pytest.mark.parametrize("all_solutions,nodes,count", [(False, 129, 1), (True, 216437, 2880)])
def test_backends_agree_partial_preassignment(compiled_search, all_solutions, nodes, count):
    """One edge of BW_{3,3} pinned to colour 2 with symmetry breaking on: the
    caller's preassignment replaces the crossing family, so the four other
    colours stay interchangeable and every depth past the first allows all 5."""
    model = build_bumpy_wheel(3, 3)
    pre = [((1, 6), 2)]
    ref = run_with(search_py.search, model, MODE_TREE, preassigned=pre, all_solutions=all_solutions)
    out = run_with(compiled_search, model, MODE_TREE, preassigned=pre, all_solutions=all_solutions)
    assert_same(ref, out)
    assert ref.status == "SAT" and ref.stats["nodes"] == nodes
    found = ref.solutions if all_solutions else [ref.witness]
    i = wheel_tables(model).index[(1, 6)]
    assert len(found) == count and all(p.colors[i] == 2 for p in found)
    if all_solutions:
        assert [p.colors for p in ref.solutions] == [p.colors for p in out.solutions]


def test_backends_agree_all_solutions(compiled_search):
    model = build_bumpy_wheel(3, 3)
    sols = [
        [p.colors for p in run_with(fn, model, MODE_TREE, all_solutions=True).solutions]
        for fn in (search_py.search, compiled_search)
    ]
    assert sols[0] == sols[1]


@pytest.mark.slow
def test_backends_agree_on_the_atlas(compiled_search):
    """Every generalized wheel with k in {3, 5} and hull at most 11, in all
    three modes with symmetry breaking on and off (`preassigned=[]`), stopped
    at 5,000 nodes; all solutions on the wheels with at most 28 edges."""
    wheels = [sizes for sizes in wheel_matrix(11) if len(sizes) in (3, 5)]
    assert len(wheels) == 391
    for sizes in wheels:
        model = build_generalized_wheel(list(sizes))
        all_solutions = model.num_points * (model.num_points - 1) // 2 <= 28
        for mode in (MODE_SUBGRAPH, MODE_TREE, MODE_DOUBLE_STAR):
            for preassigned in (None, []):
                cfg = {"node_limit": 5000, "preassigned": preassigned}
                ref, out = (run_with(fn, model, mode, cfg, all_solutions=all_solutions)
                            for fn in (search_py.search, compiled_search))
                assert_same(ref, out)
                if all_solutions:
                    assert [p.colors for p in ref.solutions] == [p.colors for p in out.solutions], (sizes, mode)
