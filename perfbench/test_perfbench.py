"""Smoke tests of the benchmark harness, with tiny budgets: single passes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(1000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    dump = tracer.dump()
    spans = dump["spans"]
    assert {n: s["calls"] for n, s in spans.items()} == {"outer": 1, "inner": 3}
    assert {(e["parent"], e["name"]): e["calls"] for e in dump["edges"]} == {(None, "outer"): 1, ("outer", "inner"): 3}
    assert spans["outer"]["self_s"] + spans["inner"]["total_s"] == pytest.approx(spans["outer"]["total_s"], abs=1e-9)
    assert spans["inner"]["self_s"] == spans["inner"]["total_s"]


def test_generator_steps_are_spans():
    tracer = Tracer()
    gen = tracer.span_generator("gen", lambda n: (i for i in range(n)), "items")
    assert list(gen(4)) == [0, 1, 2, 3]
    dump = tracer.dump()
    assert dump["counts"] == {"items": 4}
    assert dump["spans"]["gen"]["calls"] == 5  # four items and the step that ends it


def test_install_wraps_every_caller():
    """Spans nest across modules, including names imported by name."""
    script = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing\n"
        "from planewheel import cli, solver, wheelgeom\n"
        "from planewheel.partition import MODE_DOUBLE_STAR\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "m = wheelgeom.build_bumpy_wheel(3, 3)\n"
        "solver.solve(m, solver.SolveConfig(mode=MODE_DOUBLE_STAR))\n"
        "cli.run(['enumerate', '--k', '3', '--emit', 'count'])\n"
        "print(json.dumps(t.dump()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "src"), HERE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(proc.stdout.strip().splitlines()[-1])
    edges = {(e["parent"], e["name"]) for e in dump["edges"]}
    assert ("solver.solve", "core.search") in edges
    assert ("solver.solve", "wheelgeom.crossing_graph") in edges
    assert ("solver.max_crossing_family", "wheelgeom.crossing_graph") in edges
    assert ("cli.run", "enumerate_k3.enumerate_all") in edges
    assert ("enumerate_k3.enumerate_all", "edgeorder.distance_children") in edges
    assert dump["counts"]["core.nodes"] == 318
    assert dump["counts"]["enumerate_k3.partitions"] == 20


def test_backend_disagreement_exits_nonzero(monkeypatch):
    from planewheel._core import search_py

    def off_by_one(*args):
        res = search_py.search(*args)
        return dict(res, nodes=res["nodes"] + 1)

    monkeypatch.setattr(workloads, "LADDER", workloads.LADDER[:2])
    reference = workloads.ladder_signatures(search_py.search)
    run.compare_backends(reference, "python", {"same": workloads.ladder_signatures(search_py.search)})
    with pytest.raises(SystemExit) as exc:
        run.compare_backends(reference, "python", {"broken": workloads.ladder_signatures(off_by_one)})
    assert exc.value.code not in (0, None)


def test_tail_is_above_the_median():
    assert run.tail([float(i) for i in range(7)]) == (6.0, "max of 7")
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label == "p90.0 of 100"


def _child(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_atlas_pass_reports_every_metric():
    """One untraced and one traced atlas pass, summarized as run.py does."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    plain = _child("pass", "atlas", "3", "0")
    assert plain["failures"] == [] and len(plain["latencies_s"]) == 491
    metrics, _ = run.end_to_end([plain], [_child("setup", "atlas")["setup_s"]])
    assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())

    traced = _child("pass", "atlas", "3", "1")
    assert traced["failures"] == []
    layers, largest = run.per_layer(traced["trace"], traced["wall_s"], plain["wall_s"], 0.0)
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert layers["core.calls"][0] == 491
    assert layers["wheelgeom.realize_calls"][0] == 391
    assert largest in traced["trace"]["spans"]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
