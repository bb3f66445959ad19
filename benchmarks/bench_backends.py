"""Compare the compiled search kernel, `kernel.c`, against the pure Python
reference.

The compiled twin is built with `ckernel.build` (the `cc` on PATH) into a
temporary directory.  Both kernels must agree on status, node count and search
fingerprint; the point of the benchmark is the python/C wall-time ratio.  Each
kernel's wall time is its best of REPEATS solves, with the two kernels taking
turns to go first, so a burst of load on a shared machine moves it little.
Beside it stands the kernel's search rate: nodes over its best time inside the
kernel call (the solve's `wall_time` stat), as perfbench's `core.nodes_per_s`.

Usage: python benchmarks/bench_backends.py
"""

from __future__ import annotations

import tempfile
import time

import planewheel._core as core
from planewheel._core import ckernel, search_py
from planewheel.partition import MODE_DOUBLE_STAR, MODE_SUBGRAPH, MODE_TREE
from planewheel.solver import SolveConfig, solve
from planewheel.wheelgeom import build_bumpy_wheel, build_generalized_wheel

REPEATS = 5

INSTANCES = [
    ("BW_{3,3} tree", build_bumpy_wheel(3, 3), MODE_TREE),
    ("BW_{3,3} double-star", build_bumpy_wheel(3, 3), MODE_DOUBLE_STAR),
    ("BW_{3,5} subgraph", build_bumpy_wheel(3, 5), MODE_SUBGRAPH),
    ("BW_{3,5} tree", build_bumpy_wheel(3, 5), MODE_TREE),
    ("GW_{[2,3,3,4,3]} tree", build_generalized_wheel([2, 3, 3, 4, 3]), MODE_TREE),
    ("GW_{[2,3,3,4,5]} tree", build_generalized_wheel([2, 3, 3, 4, 5]), MODE_TREE),
]


def run_backend(fn, model, mode):
    orig = core.search
    core.search = fn
    try:
        t0 = time.perf_counter()
        out = solve(model, SolveConfig(mode=mode))
        wall = time.perf_counter() - t0
    finally:
        core.search = orig
    return out, wall


def main():
    with tempfile.TemporaryDirectory() as tmp:
        kernels = {"python": search_py.search, "C": ckernel.load(ckernel.build(tmp))}
        header = f"{'instance':<24}" + "".join(f"{n:>12}{'nodes/s':>12}" for n in kernels) + f"{'python/C':>10}"
        print(header)
        print("-" * len(header))
        for label, model, mode in INSTANCES:
            results = {}
            walls = dict.fromkeys(kernels, float("inf"))
            searches = dict.fromkeys(kernels, float("inf"))
            for rep in range(REPEATS):
                for name in reversed(kernels) if rep % 2 else kernels:
                    out, wall = run_backend(kernels[name], model, mode)
                    walls[name] = min(walls[name], wall)
                    searches[name] = min(searches[name], out.stats["wall_time"])
                    results[name] = (out.status, out.stats["nodes"], out.stats["fingerprint"])
            status, nodes, _ = results["python"]
            row = f"{label:<24}" + "".join(f"{walls[n]:>11.3f}s{nodes / searches[n]:>12,.0f}" for n in kernels)
            print(row + f"{walls['python'] / walls['C']:>9.1f}x   {status} nodes={nodes}")
            if results["python"] != results["C"]:
                raise SystemExit(f"backend disagreement on {label}: {results}")
    print("both kernels agree on status, nodes, and fingerprint")


if __name__ == "__main__":
    main()
