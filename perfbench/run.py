"""Layered cold-process benchmark for planewheel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see workloads.py):

  solve-ladder     seven exact searches, kernel-bound
  enumerate-audit  `planewheel enumerate --k 7 --emit count`, then validate,
                   audit and canonicalize all 320 BW_{5,3} partitions; no kernel call
  atlas            391 generalized wheels plus 100 random one-interior point sets
                   from the seed, each through the double-star toolchain

Every pass answers the workload's whole question set in a fresh interpreter,
so no per-model cache survives from one pass to the next.  Passes repeat until
S seconds have been spent answering; at least three passes are made.  Every
answer is checked, and a question that fails a check counts as failed.  A few
extra interpreters only set up, so set-up time is a median of several samples.

Every time is scaled to a nominal machine speed: each process also times a
fixed standard-library workload (child.reference_s) about once a second, and
its times are divided by its median reference time over REFERENCE_NOMINAL_S.
Unscaled pass times and each pass's slowness are in the report.

End-to-end metrics (`--trace 0`), medians over the passes:
  wall_s            time to answer the whole question set, after set-up
  setup_s           import planewheel, select the backend, build the models
  peak_rss_mb       peak resident memory of a pass's process
  question_p50_ms   median over questions of each question's median latency
  question_tail_ms  highest percentile with ten samples beyond it (the
                    maximum when there are 20 samples or fewer)

`--trace 1` makes the same untraced passes, then one traced pass, and reports
the per-layer metrics of tracing.py's spans.  `*_s` is self time (time in the
layer's own spans, not in spans they caused), except `solver.solve_s` and
`cli.run_s`, which are inclusive.

The lines before the last are a readable report with run metadata; the last
line is one JSON object with keys correct, attempted, failed and metrics.
On solve-ladder, every kernel backend must agree on status, nodes and search
fingerprint, or the command exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("solve-ladder", "enumerate-audit", "atlas")
SETUP_PROBES = 3
MIN_PASSES = 3  # so that each question's median can set one slow pass aside
TIME_LIMIT_S = 170  # every run ends within this, however large --seconds is
# Reported times are scaled to the nominal speed at which child.reference_s
# takes this long: about its median on the 2-core sandbox the baseline was
# measured on, where single samples ranged over 0.6 to 1.3 times it.  That machine's speed
# drifted by a quarter or more within minutes as other tenants came and went;
# dividing by the reference time measured in the same process removes most
# of that drift.
REFERENCE_NOMINAL_S = 0.111


class BenchError(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    # compiled bytecode is cached, as an installed package's is, but outside src/
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"))
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {' '.join(args)}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"child {' '.join(args)} printed no result:\n{proc.stderr[-2000:]}")


def build() -> None:
    """Build any compiled extension in place, as setup.py defines it.  With no
    compiler toolchain for it, the package runs its pure-Python kernel."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=850,
    )
    if proc.returncode != 0:
        print(f"build_ext failed, running what imports:\n{proc.stderr[-1000:]}", file=sys.stderr)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; with 20
    samples or fewer that percentile is not above the median, so the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return xs[-1], f"max of {n}"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def slowness(child: dict) -> float:
    """How much slower than nominal the machine ran during a child's work."""
    return statistics.median(child["reference_s"]) / REFERENCE_NOMINAL_S


def question_medians(passes: list[dict]) -> list[float]:
    """Each question's median scaled latency over the passes.  Every pass
    asks the same questions in the same order, so a burst of load on the
    machine during one pass moves these medians less than it moves that pass."""
    scaled = [[t / slowness(p) for t in p["latencies_s"]] for p in passes]
    return [statistics.median(col) for col in zip(*scaled)]


def scaled_trace(trace: dict, factor: float) -> dict:
    """The trace with every time divided by factor."""
    spans = {n: dict(sp, total_s=sp["total_s"] / factor, self_s=sp["self_s"] / factor) for n, sp in trace["spans"].items()}
    edges = [dict(e, total_s=e["total_s"] / factor) for e in trace["edges"]]
    return dict(trace, spans=spans, edges=edges)


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    latencies = question_medians(passes)
    tail_s, tail_label = tail(latencies)
    metrics = {
        "wall_s": (sum(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "question_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "question_tail_ms": (1000 * tail_s, "ms"),
    }
    notes = {
        "wall_s": f"sum of {len(latencies)} question medians over {len(passes)} passes",
        "setup_s": f"median of {len(setups)}",
        "question_p50_ms": f"of {len(latencies)} questions",
        "question_tail_ms": tail_label,
    }
    return metrics, notes


def per_layer(trace: dict, traced_wall: float, untraced_wall: float, cli_rate: float) -> tuple[dict, str]:
    spans, edges, counts = trace["spans"], trace["edges"], trace["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def edge_total(parent, name):
        return sum(e["total_s"] for e in edges if e["parent"] == parent and e["name"] == name)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def layer_of(prefix):
        return [n for n in spans if n.startswith(prefix)]

    core_s = total("core.search")
    nodes = counts.get("core.nodes", 0)
    parts = counts.get("enumerate_k3.partitions", 0)
    by_self = sorted(spans, key=lambda n: -spans[n]["self_s"])
    realize = "wheelgeom.realize_coordinates"
    metrics = {
        "core.search_s": (core_s, "s"),
        "core.calls": (calls("core.search"), "count"),
        "core.nodes": (nodes, "count"),
        "core.nodes_per_s": (ratio(nodes, core_s), "1/s"),
        "core.wall_share": (ratio(core_s, traced_wall), "fraction"),
        "solver.solve_s": (total("solver.solve"), "s"),
        "solver.overhead_s": (total("solver.solve") - edge_total("solver.solve", "core.search"), "s"),
        "solver.max_crossing_family_s": (self_s("solver.max_crossing_family"), "s"),
        "solver.decide_theorem_s": (self_s("solver.decide_theorem"), "s"),
        "wheelgeom.realize_s": (self_s(realize), "s"),
        "wheelgeom.realize_calls": (calls(realize), "count"),
        "wheelgeom.realize_self_rank": (by_self.index(realize) + 1 if realize in spans else 0, "rank"),
        "wheelgeom.crossing_graph_builds": (calls("wheelgeom.crossing_graph"), "count"),
        "wheelgeom.crossing_graph_s": (self_s("wheelgeom.crossing_graph"), "s"),
        "wheelgeom.geometric_pairs_s": (self_s("wheelgeom.geometric_crossing_pairs"), "s"),
        "wheelgeom.canonicalize_s": (self_s("wheelgeom.canonicalize"), "s"),
        "wheelgeom.far_arc_calls": (counts.get("wheelgeom.far_arc", 0), "count"),
        "wheelgeom.group_of_calls": (counts.get("wheelgeom.group_of", 0), "count"),
        "edgeorder.s": (self_s(*layer_of("edgeorder.")), "s"),
        "edgeorder.dist_calls": (counts.get("edgeorder.dist", 0), "count"),
        "edgeorder.distance_children_calls": (counts.get("edgeorder.distance_children", 0), "count"),
        "partition.validate_s": (self_s(*layer_of("partition.validate_")), "s"),
        "partition.audit_s": (self_s("partition.structural_audit"), "s"),
        "partition.audit_ms_per_partition": (
            ratio(total("partition.structural_audit"), calls("partition.structural_audit"), 1000),
            "ms",
        ),
        "partition.canonical_form_s": (self_s("partition.canonical_form"), "s"),
        "partition.partitions_built": (counts.get("partition.partitions_built", 0), "count"),
        "enumerate_k3.s": (self_s("enumerate_k3.enumerate_all"), "s"),
        "enumerate_k3.partitions": (parts, "count"),
        "enumerate_k3.us_per_partition": (ratio(total("enumerate_k3.enumerate_all"), parts, 1e6), "us"),
        "doublestar.bad_halfplanes_s": (self_s("doublestar.bad_halfplanes"), "s"),
        "doublestar.empty_triple_s": (self_s("doublestar.empty_triple"), "s"),
        "doublestar.criteria_s": (self_s(*layer_of("doublestar.criterion_"), "doublestar.tree_nonpartition_criterion"), "s"),
        "cli.run_s": (total("cli.run"), "s"),
        "cli.overhead_s": (total("cli.run") - edge_total("cli.run", "enumerate_k3.enumerate_all"), "s"),
        "cli.partitions_per_s": (cli_rate, "1/s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": (ratio(traced_wall - untraced_wall, untraced_wall), "fraction"),
        "trace.unattributed_s": (traced_wall - sum(e["total_s"] for e in edges if e["parent"] is None), "s"),
    }
    return metrics, by_self[0] if by_self else "none"


def predictions(workload: str, layers: dict, largest_self: str) -> list[tuple[str, bool]]:
    """The layer shares the benchmark was designed around; each is reported
    as held or failed, never enforced."""
    if workload == "solve-ladder":
        share = layers["core.wall_share"][0]
        return [(f"core.search_s is at least 90% of traced wall_s ({100 * share:.1f}%)", share >= 0.9)]
    if workload == "enumerate-audit":
        n = layers["core.calls"][0]
        return [(f"core.calls is 0 ({n})", n == 0)]
    realize = "wheelgeom.realize_coordinates"
    return [(f"wheelgeom.realize_s is the largest self time (largest: {largest_self})", largest_self == realize)]


def pass_signatures(passes: list[dict]) -> list[list]:
    """(label, status, nodes, fingerprint) per solve-ladder question; every
    pass must give the same ones."""
    sigs = [
        [[label, d["status"], d["nodes"], d["fingerprint"]] for label, d in sorted(p["info"].items(), key=lambda kv: kv[1]["index"])]
        for p in passes
    ]
    for other in sigs[1:]:
        if other != sigs[0]:
            raise BenchError(f"search counts differ between passes: {sigs[0]} != {other}")
    return sigs[0]


def compare_backends(measured: list[list], backend: str, others: dict[str, list[list]]) -> None:
    """Exit non-zero unless every other backend gives the measured status,
    nodes and fingerprint on every ladder question."""
    for name, sigs in others.items():
        for ref, got in zip(measured, sigs):
            if list(ref) != list(got):
                raise SystemExit(f"backend disagreement on {ref[0]}: {backend} {ref[1:]} != {name} {got[1:]}")


def cli_rate(passes: list[dict]) -> float:
    """Partitions per scaled second printed by the CLI question
    (enumerate-audit), median over the passes; 0 on workloads without it."""
    rates = [
        d["partitions"] * slowness(p) / p["latencies_s"][d["index"]]
        for p in passes
        for d in p["info"].values()
        if "partitions" in d
    ]
    return statistics.median(rates) if rates else 0.0


def measure(args) -> tuple[list[float], list[dict], dict | None, list | None]:
    build()
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [run_child(["setup", args.workload], deadline) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    answering = 0.0
    while len(passes) < MIN_PASSES or answering < args.seconds:
        p = run_child(["pass", args.workload, str(args.seed), "0"], deadline)
        passes.append(p)
        answering += p["wall_s"]
        if time.monotonic() + 3 * p["wall_s"] > deadline:
            break
    setups = [c["setup_s"] / slowness(c) for c in setups + passes]
    traced = run_child(["pass", args.workload, str(args.seed), "1"], deadline) if args.trace else None
    signatures = None
    if args.workload == "solve-ladder":
        signatures = pass_signatures(passes + ([traced] if traced else []))
        compare_backends(signatures, passes[0]["backend"], run_child(["agree"], deadline))
    return setups, passes, traced, signatures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "planewheel", "__init__.py")):
        print(f"error: no planewheel source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        setups, passes, traced, signatures = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checked = passes + ([traced] if traced else [])
    attempted = sum(len(p["latencies_s"]) for p in checked)
    failed = sum(len(p["failures"]) for p in checked)
    if traced:
        wall = sum(question_medians(passes))
        factor = slowness(traced)
        metrics, largest_self = per_layer(scaled_trace(traced["trace"], factor), traced["wall_s"] / factor, wall, cli_rate(passes))
        notes: dict = {}
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(traced["trace"], fh, indent=1)
    else:
        metrics, notes = end_to_end(passes, setups)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": passes[0]["backend"],
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "pass_wall_s (unscaled)": [round(p["wall_s"], 3) for p in passes],
        "pass_slowness": [round(slowness(p), 3) for p in checked],
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "run_s": round(time.monotonic() - started, 2),
    }
    if cli_rate(passes):
        report["partitions_per_s"] = round(cli_rate(passes), 1)
    if signatures:
        report["ladder"] = signatures
    for key, value in report.items():
        print(f"{key}: {value}")
    for p in checked:
        for i, label, msgs in p["failures"][:5]:
            print(f"FAILED question {i} {label}: {'; '.join(msgs)}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:36s} {shown} {unit:8s} {notes.get(name, '')}".rstrip())
    if traced:
        for claim, held in predictions(args.workload, metrics, largest_self):
            print(f"prediction {'held' if held else 'FAILED'}: {claim}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
