"""Exhaustive exact search for partitions into n plane subgraphs, spanning
trees, or double stars, plus the LP exporter and the closed-form theorem
verdicts.  UNSAT means the search space was exhausted under sound symmetry
breaking; the answer carries the node count, the maximum depth and a search
fingerprint, not a checkable certificate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import _core
from .partition import MODE_DOUBLE_STAR, MODE_SUBGRAPH, MODE_TREE, Partition
from .wheelgeom import EdgeId, WheelModel, crossing_graph, is_bumpy, wheel_tables

_MODE_IDS = {MODE_SUBGRAPH: 0, MODE_TREE: 1, MODE_DOUBLE_STAR: 2}


@dataclass
class SolveConfig:
    mode: str = MODE_TREE
    node_limit: int = 0  # 0 = unlimited
    time_limit: float = 0.0  # seconds, 0 = unlimited

    def __post_init__(self):
        if self.mode not in _MODE_IDS:
            raise ValueError(f"unknown mode {self.mode!r}")
        # `not x >= 0` also refuses NaN
        if not self.node_limit >= 0:
            raise ValueError(f"node_limit must be >= 0, got {self.node_limit}")
        if not self.time_limit >= 0:
            raise ValueError(f"time_limit must be >= 0, got {self.time_limit}")


@dataclass
class SolveOutcome:
    status: str  # SAT | UNSAT | LIMIT
    witness: Optional[Partition]
    stats: dict = field(default_factory=dict)
    solutions: Optional[list[Partition]] = None

    def to_json(self) -> dict:
        out = {"status": self.status, "stats": dict(self.stats)}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def max_crossing_family(model: WheelModel) -> list[EdgeId]:
    """A large pairwise-crossing edge set, deterministically.

    The n-1 chords {t, t+n} interleave pairwise on any wheel; a greedy pass
    over the remaining edges (by crossing degree, `degree_order`) tries to
    grow the family.
    """
    n = model.n
    family = [(t, t + n) for t in range(1, n)]
    cg = crossing_graph(model)
    tables = wheel_tables(model)
    rows = tables.crossings
    fam = sum(1 << cg.index[e] for e in family)
    for i in tables.degree_order:
        # a member's row lacks its own bit, so only new edges can pass
        if not fam & ~rows[i]:
            family.append(cg.edges[i])
            fam |= 1 << i
    return family


def solve(
    model: WheelModel,
    cfg: SolveConfig,
    all_solutions: bool = False,
    preassigned: Optional[list[tuple[EdgeId, int]]] = None,
) -> SolveOutcome:
    """`preassigned` fixes (edge, colour) pairs, branched on first.  Without it,
    the first m edges of `max_crossing_family` get the colours 0, 1, 2, ...
    (the kernel's one colour-symmetry break); `preassigned=[]` searches with
    no colour fixed.

    A partial `preassigned` list breaks colour symmetry only among the colours
    it names: the free colours stay interchangeable, so `all_solutions` returns
    every renaming of them.  BW_{3,3} tree with `[((1, 6), 2)]` gives 2,880
    colourings, 4! renamings of each of 120."""
    m = model.n
    cg = crossing_graph(model)
    edges = cg.edges
    index = cg.index

    t = wheel_tables(model)
    ea = [e[0] for e in edges]
    eb = [e[1] for e in edges]

    if preassigned is None:
        fam = max_crossing_family(model)[:m]
        preassigned = [(e, c) for c, e in enumerate(fam)]
    for e, c in preassigned:
        if e not in index:
            raise ValueError(f"preassigned edge {e} is not an edge (a, b) of the model with a < b")
        if c not in range(m):
            raise ValueError(f"preassigned color {c} of edge {e} is outside 0..{m - 1}")
    pre_idx = [index[e] for e, _ in preassigned]
    pre_colors = [c for _, c in preassigned]

    pre_set = set(pre_idx)
    if len(pre_set) < len(pre_idx):
        raise ValueError("preassigned repeats an edge")
    order = pre_idx + [i for i in t.degree_order if i not in pre_set]

    res = _core.search(
        model.num_points,
        m,
        ea,
        eb,
        t.crossings,
        order,
        pre_colors,
        _MODE_IDS[cfg.mode],
        cfg.node_limit,
        cfg.time_limit,
        all_solutions,
    )

    def to_partition(assignment) -> Partition:
        return Partition(model=model, m=m, colors=tuple(assignment))

    witness = to_partition(res["assignment"]) if res["assignment"] is not None else None
    solutions = None
    if all_solutions and res["solutions"] is not None:
        solutions = [to_partition(s) for s in res["solutions"]]
        if solutions and witness is None:
            witness = solutions[0]
    stats = {
        "nodes": res["nodes"],
        "max_depth": res["max_depth"],
        "fingerprint": f"{res['fingerprint']:016x}",
        "wall_time": res["elapsed"],
        "backend": _core.BACKEND,
        "preassigned": len(pre_idx),
    }
    return SolveOutcome(status=res["status"], witness=witness, stats=stats, solutions=solutions)


def export_lp(model: WheelModel, m: int, enforce_class_size: bool = True, enforce_triangle: bool = False) -> str:
    """CPLEX-LP encoding of the edge-coloring ILP: every edge gets one color,
    crossing edges differ per color, optional exact class sizes and
    monochromatic-triangle bound.  Output is deterministic byte for byte."""
    if m < 1:
        raise ValueError(f"the class count m must be >= 1, got {m}")
    cg = crossing_graph(model)
    edges = cg.edges
    nv = model.num_points

    def var(e: EdgeId, c: int) -> str:
        return f"x_e{e[0]}_{e[1]}_c{c}"

    lines = ["Minimize", " obj: 0", "Subject To"]
    for e in edges:
        terms = " + ".join(var(e, c) for c in range(m))
        lines.append(f" c1_{e[0]}_{e[1]}: {terms} = 1")
    for e, f in sorted(cg.crossing_pairs()):
        for c in range(m):
            lines.append(
                f" c2_{e[0]}_{e[1]}_{f[0]}_{f[1]}_c{c}: {var(e, c)} + {var(f, c)} <= 1"
            )
    if enforce_class_size:
        for c in range(m):
            terms = " + ".join(var(e, c) for e in edges)
            lines.append(f" c3_c{c}: {terms} = {nv - 1}")
    if enforce_triangle:
        for a in range(nv):
            for b in range(a + 1, nv):
                for d in range(b + 1, nv):
                    for c in range(m):
                        lines.append(
                            f" c4_{a}_{b}_{d}_c{c}: {var((a, b), c)} + {var((b, d), c)}"
                            f" + {var((a, d), c)} <= 2"
                        )
    lines.append("Binaries")
    for e in edges:
        for c in range(m):
            lines.append(f" {var(e, c)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def decide_theorem(model: WheelModel) -> dict:
    """Closed-form verdicts: exact for bumpy wheels (trees and subgraphs) and
    for double stars on any wheel; the generalized tree criterion is only
    sufficient, so its negative branch reports 'unknown'."""
    from .doublestar import criterion_small_families, tree_nonpartition_criterion

    verdict = {}
    if is_bumpy(model):
        ell = model.sizes[0]
        k = model.k
        verdict["tree"] = "yes" if ell <= 3 else "no"
        verdict["subgraph"] = "no" if (ell > 5 or (ell == 5 and k > 3)) else "yes"
    else:
        verdict["tree"] = "no" if tree_nonpartition_criterion(model) else "unknown"
        verdict["subgraph"] = "unknown"
    verdict["double_star"] = "no" if criterion_small_families(model) else "yes"
    return verdict
