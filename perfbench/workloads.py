"""The benchmark's three workloads: their inputs, questions and correctness gates.

`setup(name)` builds every wheel model the workload's questions take.
`questions(name, models, seed)` makes the seeded inputs and returns the
question list as (label, answer) pairs.  Calling `answer()` answers one
question, checks the answer against its gates and returns (failures, info):
`failures` lists every gate that did not hold (empty when the answer is
correct) and `info` records counts worth keeping, such as node counts.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

from planewheel import _core
from planewheel import cli, doublestar, enumerate_k3
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
from planewheel.solver import SolveConfig, decide_theorem, solve
from planewheel.wheelgeom import (
    PointSet,
    build_generalized_wheel,
    canonicalize,
    crossing_graph,
    geometric_crossing_pairs,
    hull_and_interior,
    in_general_position,
    realize_coordinates,
)

# decide_theorem's verdict key for each mode
VERDICT_KEYS = {MODE_SUBGRAPH: "subgraph", MODE_TREE: "tree", MODE_DOUBLE_STAR: "double_star"}


def validate(p, mode):
    # looked up on every call, so a traced run sees its wrappers
    if mode == MODE_SUBGRAPH:
        return validate_plane_partition(p)
    if mode == MODE_TREE:
        return validate_spanning_trees(p)
    return validate_double_stars(p)


# (label, group sizes, mode, expected status, all solutions)
LADDER = (
    ("BW_{3,3} tree", (3, 3, 3), MODE_TREE, "SAT", False),
    ("BW_{3,3} double-star", (3, 3, 3), MODE_DOUBLE_STAR, "UNSAT", False),
    ("BW_{3,5} subgraph", (5, 5, 5), MODE_SUBGRAPH, "SAT", False),
    ("BW_{3,5} tree", (5, 5, 5), MODE_TREE, "UNSAT", False),
    ("GW_{[2,3,3,4,3]} tree", (2, 3, 3, 4, 3), MODE_TREE, "SAT", False),
    ("GW_{[2,3,3,4,5]} tree", (2, 3, 3, 4, 5), MODE_TREE, "UNSAT", False),
    ("BW_{3,3} tree all-solutions", (3, 3, 3), MODE_TREE, "SAT", True),
)

ENUM_K = 7  # the CLI question: `planewheel enumerate --k 7 --emit count`
AUDIT_K = 5  # every BW_{5,3} partition is validated, audited and canonicalized
ATLAS_POINT_SETS = 100


def compositions(total: int, parts: int):
    """Every ordered composition of total into the given number of positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def atlas_sizes() -> list[tuple[int, ...]]:
    """The 391 generalized wheels with k in {3, 5} and hull size at most 11."""
    return [s for k in (3, 5) for h in range(k, 12, 2) for s in compositions(h, k)]


def _circle_point(angle: float, scale: int):
    """A rational point exactly on the unit circle near the given angle."""
    t = Fraction(round(math.tan(math.remainder(angle, 2 * math.pi) / 2) * scale), scale)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def random_point_set(rng: random.Random) -> PointSet:
    """A general-position point set with exactly one interior point: an odd
    number of hull points on the unit circle plus one point near the center."""
    while True:
        nh = rng.choice((3, 5, 7, 9, 11))
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(nh))
        pts = [_circle_point(a, 10**4) for a in angles]
        pts.append((Fraction(rng.randint(-50, 50), 1000), Fraction(rng.randint(-50, 50), 1000)))
        ps = PointSet(points=tuple(pts), interior_index=nh)
        if len(set(pts)) == len(pts) and hull_and_interior(ps)[1] == [nh] and in_general_position(ps):
            return ps


def setup(name: str) -> dict:
    if name == "solve-ladder":
        return {sizes: build_generalized_wheel(sizes) for _, sizes, _, _, _ in LADDER}
    if name == "enumerate-audit":
        return {}  # the enumerator builds its own BW_{k,3} from k
    if name == "atlas":
        return {sizes: build_generalized_wheel(sizes) for sizes in atlas_sizes()}
    raise ValueError(f"unknown workload {name!r}")


def questions(name: str, models: dict, seed: int) -> list:
    if name == "solve-ladder":
        return [(q[0], lambda q=q: _ladder_question(models[q[1]], q)) for q in LADDER]
    if name == "enumerate-audit":
        parts = enumerate_k3.enumerate_all(AUDIT_K)
        forms: set[bytes] = set()
        n = enumerate_k3.predicted_count(AUDIT_K)
        out = [(f"cli enumerate --k {ENUM_K} --emit count", _cli_enumerate_question)]
        out += [(f"BW_{{{AUDIT_K},3}} partition {i}", lambda: _audit_question(parts, forms)) for i in range(n)]
        out.append((f"BW_{{{AUDIT_K},3}} forms distinct", lambda: _distinct_question(parts, forms, n)))
        return out
    if name == "atlas":
        rng = random.Random(seed)
        point_sets = [random_point_set(rng) for _ in range(ATLAS_POINT_SETS)]
        out = [(f"GW_{list(sizes)}", lambda m=m: _atlas_question(m)) for sizes, m in models.items()]
        out += [(f"point set {i}", lambda ps=ps: _point_set_question(ps)) for i, ps in enumerate(point_sets)]
        return out
    raise ValueError(f"unknown workload {name!r}")


# -- solve-ladder --------------------------------------------------------------


def _ladder_question(model, q):
    label, _, mode, expected, all_solutions = q
    out = solve(model, SolveConfig(mode=mode), all_solutions=all_solutions)
    info = {"status": out.status, "nodes": out.stats["nodes"], "fingerprint": out.stats["fingerprint"]}
    failures = []
    if out.status != expected:
        failures.append(f"{label}: expected {expected}, got {out.status}")
    verdict = decide_theorem(model)[VERDICT_KEYS[mode]]
    if verdict != "unknown" and verdict != ("yes" if out.status == "SAT" else "no"):
        failures.append(f"{label}: decide_theorem says {verdict!r}, solver {out.status}")
    if out.status == "SAT":
        rep = validate(out.witness, mode)
        if not rep.ok:
            failures.append(f"{label}: witness invalid: {rep.violations[:3]}")
        audit = structural_audit(out.witness, mode)
        if not audit.ok:
            failures.append(f"{label}: audit violations: {audit.violations[:3]}")
    if all_solutions:
        info["solutions"] = len(out.solutions or [])
        got = {canonical_form(p) for p in out.solutions or []}
        want = {canonical_form(p) for p in enumerate_k3.enumerate_all(3)}
        if got != want or len(want) != enumerate_k3.predicted_count(3):
            failures.append(f"{label}: {len(got)} canonical forms, enumerator has {len(want)}")
    return failures, info


def ladder_signatures(search_fn) -> list[tuple]:
    """(label, status, nodes, fingerprint) of every ladder question, solved
    with the given kernel in place of the active one."""
    models = setup("solve-ladder")
    original = _core.search
    _core.search = search_fn
    try:
        out = []
        for label, sizes, mode, _, all_solutions in LADDER:
            res = solve(models[sizes], SolveConfig(mode=mode), all_solutions=all_solutions)
            out.append((label, res.status, res.stats["nodes"], res.stats["fingerprint"]))
        return out
    finally:
        _core.search = original


# -- enumerate-audit -----------------------------------------------------------


def _cli_enumerate_question():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["enumerate", "--k", str(ENUM_K), "--emit", "count"])
    printed = buf.getvalue().strip()
    want = enumerate_k3.predicted_count(ENUM_K)
    failures = []
    if code != 0:
        failures.append(f"cli exit code {code}")
    if printed != "5120" or want != 5120:
        failures.append(f"cli printed {printed!r}, predicted_count({ENUM_K}) = {want}, expected 5120")
    return failures, {"partitions": int(printed) if printed.isdigit() else 0}


def _audit_question(parts, forms):
    p = next(parts)
    failures = []
    rep = validate_spanning_trees(p)
    if not rep.ok:
        failures.append(f"invalid partition: {rep.violations[:3]}")
    audit = structural_audit(p, MODE_TREE)
    if not audit.ok:
        failures.append(f"audit violations: {audit.violations[:3]}")
    forms.add(canonical_form(p))
    return failures, {}


def _distinct_question(parts, forms, n):
    failures = []
    if next(parts, None) is not None:
        failures.append(f"enumerator yields more than {n} partitions")
    if len(forms) != n:
        failures.append(f"{len(forms)} distinct canonical forms, expected {n}")
    return failures, {}


# -- atlas ---------------------------------------------------------------------


def _atlas_question(model):
    crit = doublestar.criterion_small_families(model)
    ps = realize_coordinates(model)
    triple = doublestar.empty_triple(doublestar.bad_halfplanes(model, ps))
    same_crossings = set(crossing_graph(model).crossing_pairs()) == geometric_crossing_pairs(ps)
    out = solve(model, SolveConfig(mode=MODE_DOUBLE_STAR))
    verdict = decide_theorem(model)["double_star"]

    failures = []
    if out.status == "LIMIT":
        failures.append("search limit reached")
    unsat = out.status == "UNSAT"
    if not crit == (triple is not None) == unsat:
        failures.append(f"criterion {crit}, empty triple {triple is not None}, solver {out.status}")
    if verdict != ("no" if unsat else "yes"):
        failures.append(f"decide_theorem says {verdict!r}, solver {out.status}")
    if not same_crossings:
        failures.append("combinatorial and geometric crossing pairs differ")
    if out.status == "SAT" and not validate_double_stars(out.witness).ok:
        failures.append("double-star witness invalid")
    return failures, {}


def _point_set_question(ps):
    model = canonicalize(ps)
    out = solve(model, SolveConfig(mode=MODE_DOUBLE_STAR))
    failures = []
    if out.status == "LIMIT":
        failures.append("search limit reached")
    if (out.status == "UNSAT") != doublestar.criterion_small_families(model):
        failures.append(f"criterion disagrees with solver ({out.status}) on {list(model.sizes)}")
    if out.status == "SAT" and not validate_double_stars(out.witness).ok:
        failures.append("double-star witness invalid")
    return failures, {}
