"""One measurement in a fresh interpreter; run.py starts it, one process each.

    python3 perfbench/child.py pass WORKLOAD SEED TRACE   set up, answer every question
    python3 perfbench/child.py setup WORKLOAD             set up only
    python3 perfbench/child.py agree                      ladder signatures of every
                                                          backend but the active one

Set-up is the time from the first line of this file to the end of
`workloads.setup`: importing planewheel (which selects the kernel backend) and
building every model the workload's questions take.  Seeded inputs are made
after set-up and before the questions, outside both timings.  The result is one JSON
line on standard output; the program's own output goes to standard error.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def _queens(n: int) -> int:
    cols, d1, d2 = [False] * n, [False] * (2 * n), [False] * (2 * n)

    def place(r):
        if r == n:
            return 1
        found = 0
        for x in range(n):
            if not cols[x] and not d1[r + x] and not d2[r - x + n]:
                cols[x] = d1[r + x] = d2[r - x + n] = True
                found += place(r + 1)
                cols[x] = d1[r + x] = d2[r - x + n] = False
        return found

    return place(0)


def reference_s() -> float:
    """Time of a fixed workload that uses the standard library only: a
    backtracking count, dict updates and Fraction arithmetic, the kinds of
    work planewheel does.  It tells how fast this machine runs right now;
    the garbage collector is off so the program's heap does not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(12):
            if _queens(7) != 40:
                raise AssertionError("reference workload miscounted")
            seen: dict = {}
            for i in range(20000):
                key = (i % 97, i % 89)
                seen[key] = seen.get(key, 0) + 1
            acc = Fraction(0)
            for i in range(1, 600):
                acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _setup(workload: str):
    import planewheel

    if not os.path.abspath(planewheel.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"planewheel imported from {planewheel.__file__}, not from {SRC}")
    import workloads

    models = workloads.setup(workload)
    return workloads, models, time.perf_counter() - T0, planewheel.BACKEND


def _answer_all(questions):
    """Answer every question, timing each.  The reference workload runs
    before the first question, after the last, and between questions once a
    second of answering has passed since it last ran; its time is not
    counted in any question's."""
    latencies, failures, info = [], [], {}
    reference = [reference_s()]
    since_reference = 0.0
    for i, (label, answer) in enumerate(questions):
        q0 = time.perf_counter()
        try:
            failed, details = answer()
        except Exception as exc:  # a question that raises is a failed question
            failed, details = [f"{type(exc).__name__}: {exc}"], {}
        latencies.append(time.perf_counter() - q0)
        if failed:
            failures.append([i, label, failed])
        if details:
            info[label] = {"index": i, **details}
        since_reference += latencies[-1]
        if since_reference >= 1.0:
            reference.append(reference_s())
            since_reference = 0.0
    reference.append(reference_s())
    return sum(latencies), latencies, failures, info, reference


def main(argv):
    mode = argv[0]
    if mode == "agree":
        from planewheel import _core

        import workloads

        return {
            name: workloads.ladder_signatures(fn)
            for name, fn in _core.backends().items()
            if fn is not _core.search
        }
    workloads, models, setup_s, backend = _setup(argv[1])
    if mode == "setup":
        return {"setup_s": setup_s, "reference_s": [reference_s()]}
    tracer = None
    if argv[3] == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wall_s, latencies, failures, info, reference = _answer_all(workloads.questions(argv[1], models, int(argv[2])))
    return {
        "backend": backend,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": reference,
        "latencies_s": latencies,
        "failures": failures,
        "info": info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.dump() if tracer else None,
    }


if __name__ == "__main__":
    out = sys.stdout
    sys.stdout = sys.stderr
    result = main(sys.argv[1:])
    out.write(json.dumps(result) + "\n")
