"""The compiled kernel and the pure Python reference must be observably
identical: same status, node count, max depth, search fingerprint and witness.

The compiled twin is built from the checked-in `_search.c` into a temporary
directory and loaded from there, so the contract runs wherever a C compiler
and the Python headers are present, and the package keeps the backend it
selected at import."""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

import planewheel._core as core
from planewheel._core import BACKEND, backends, search_py
from planewheel.partition import MODE_DOUBLE_STAR, MODE_SUBGRAPH, MODE_TREE
from planewheel.solver import SolveConfig, solve
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel

KERNEL_C = Path(core.__file__).with_name("_search.c")

INSTANCES = [
    (build_bumpy_wheel(3, 3), MODE_TREE, {}),
    (build_bumpy_wheel(3, 3), MODE_DOUBLE_STAR, {}),
    (build_bumpy_wheel(3, 5), MODE_SUBGRAPH, {}),
    (build_bumpy_wheel(3, 5), MODE_TREE, {}),
    (build_generalized_wheel([1] * 7), MODE_DOUBLE_STAR, {}),
    (build_generalized_wheel([1, 2, 4]), MODE_TREE, {}),
    (build_bumpy_wheel(3, 3), MODE_SUBGRAPH, {"enforce_triangle": True}),
    (build_bumpy_wheel(3, 3), MODE_DOUBLE_STAR, {"symmetry_breaking": False}),
]


@pytest.fixture(scope="session")
def compiled_search(tmp_path_factory):
    """`search` of the compiled twin, built from `_search.c` with `cc`."""
    cc = shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").exists():
        pytest.skip("no C compiler or no Python headers")
    out = tmp_path_factory.mktemp("kernel") / ("_search" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-shared", "-fPIC", "-O2", "-w", f"-I{include}", str(KERNEL_C), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("planewheel._core._search", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.search


def run_with(fn, model, mode, cfg=None, **kwargs):
    orig = core.search
    core.search = fn
    try:
        return solve(model, SolveConfig(mode=mode, **(cfg or {})), **kwargs)
    finally:
        core.search = orig


def test_default_backend_loaded():
    assert BACKEND in ("python", "compiled")
    assert "python" in backends()


@pytest.mark.parametrize("model,mode,cfg", INSTANCES)
def test_backends_agree(compiled_search, model, mode, cfg):
    ref = run_with(search_py.search, model, mode, cfg)
    out = run_with(compiled_search, model, mode, cfg)
    assert out.status == ref.status
    for key in ("nodes", "max_depth", "fingerprint"):
        assert out.stats[key] == ref.stats[key]
    if ref.witness is None:
        assert out.witness is None
    else:
        assert out.witness.color == ref.witness.color


def test_backends_agree_all_solutions(compiled_search):
    model = build_bumpy_wheel(3, 3)
    sols = [
        [tuple(sorted(p.color.items())) for p in run_with(fn, model, MODE_TREE, all_solutions=True).solutions]
        for fn in (search_py.search, compiled_search)
    ]
    assert sols[0] == sols[1]
