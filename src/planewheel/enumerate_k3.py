"""Constructive enumeration of every plane-spanning-tree partition of
BW_{k,3}: three base cases with their free radial pairings, the unique
extension covering all long diagonals, and the one-bit-per-level full
extension down to the boundary.  Total count: 4^(k-1) + 4^(k-2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from . import edgeorder
from .partition import Partition
from .wheelgeom import EdgeId, WheelModel, build_bumpy_wheel, edge, wheel_tables

STAGE_BASE = "base"
STAGE_BASE_EXTENDED = "base_extended"

CASES = ("1", "2a", "2b")


def predicted_count(k: int) -> int:
    _check_k(k)
    return 4 ** (k - 1) + 4 ** (k - 2)


def predicted_base_count(k: int) -> int:
    _check_k(k)
    return 2 * 2 ** ((k - 1) // 2) + 2 ** ((k - 3) // 2)


def _check_k(k: int):
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")


@dataclass
class PartialPartition:
    model: WheelModel
    classes: list[set[EdgeId]]
    stage: str
    case: str
    covered: dict[EdgeId, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.covered:
            for i, es in enumerate(self.classes):
                for e in es:
                    if e in self.covered:
                        raise ValueError(f"edge {e} in two classes")
                    self.covered[e] = i


class _Labels:
    """Vertex labels of BW_{k,3}: group g holds L(g), C(g), R(g) clockwise."""

    def __init__(self, k: int):
        self.k = k
        self.h = 3 * k

    def _v(self, x: int) -> int:
        return (x - 1) % self.h + 1

    def L(self, g: int) -> int:
        return self._v(3 * ((g - 1) % self.k) + 1)

    def C(self, g: int) -> int:
        return self._v(3 * ((g - 1) % self.k) + 2)

    def R(self, g: int) -> int:
        return self._v(3 * ((g - 1) % self.k) + 3)

    def pair_edges(self, i: int, t: int) -> list[EdgeId]:
        """The t edges of distance d_t between opposite groups i and
        i+(k-1)/2, ordered by their left endpoint."""
        j = i + (self.k - 1) // 2
        lo = 3 * ((i - 1) % self.k) + 1
        hi = lo + 3 * (self.k - 1) // 2 + 2  # position of R(j) going clockwise
        return [edge(self._v(lo + a), self._v(hi - (t - 1 - a))) for a in range(t)]


def base_partitions(k: int) -> list[PartialPartition]:
    _check_k(k)
    model = build_bumpy_wheel(k, 3)
    lb = _Labels(k)
    half = (k - 1) // 2
    out = []
    for case in CASES:
        n_free = half - 1 if case == "1" else half
        for bits in product((0, 1), repeat=n_free):
            out.append(_build_base(model, lb, case, bits))
    return out


def _build_base(model: WheelModel, lb: _Labels, case: str, bits: tuple[int, ...]) -> PartialPartition:
    k = lb.k
    half = (k - 1) // 2
    mid = (k + 1) // 2

    classes: list[set[EdgeId]] = []

    t0 = {edge(0, t) for t in range(1, lb.L(mid) + 1)}
    t0.add(edge(lb.L(mid), lb.R(k)))
    classes.append(t0)

    t1 = {edge(0, lb.C(mid)), edge(lb.L(1), lb.C(mid))}
    if case == "1":
        t1.add(edge(lb.L(mid + 1), lb.L(1)))
        t1.add(edge(0, lb.R(mid)))
    else:
        t1.add(edge(0, lb.R(k)))
        if case == "2a":
            t1.add(edge(lb.R(mid), lb.R(k)))
        else:
            t1.add(edge(lb.C(mid), lb.C(k)))
    classes.append(t1)

    for g in range(mid + 1, k + 1):
        classes.append(
            {
                edge(0, lb.C(g)),
                edge(lb.L(g - half), lb.C(g)),
                edge(lb.C(g), lb.R(g + half)),
            }
        )

    # Class II trees come in pairs sharing two candidate radial endpoints;
    # one bit per shared pair decides the split.
    bit_iter = iter(bits)
    apex_r: dict[int, set[EdgeId]] = {}
    apex_l: dict[int, set[EdgeId]] = {}
    for g in range(1, half + 1):
        apex_r[g] = {edge(lb.L(g + mid), lb.R(g)), edge(lb.R(g), lb.R(g + half))}
    for g in range(2, half + 1):
        apex_l[g] = {edge(lb.L(g), lb.R(g + half)), edge(lb.L(g + mid), lb.L(g))}

    tlast = {edge(lb.L(1), lb.R(mid))}
    if case == "1":
        tlast.add(edge(lb.R(mid), lb.R(k)))
        tlast.add(edge(0, lb.R(k)))
        apex_r[1].add(edge(0, lb.L(mid + 1)))
    else:
        tlast.add(edge(lb.L(mid + 1), lb.L(1)))
        b = next(bit_iter)
        first, second = (lb.R(mid), lb.L(mid + 1)) if b == 0 else (lb.L(mid + 1), lb.R(mid))
        apex_r[1].add(edge(0, first))
        tlast.add(edge(0, second))
    for g in range(2, half + 1):
        b = next(bit_iter)
        first, second = (lb.R(g + half), lb.L(g + mid)) if b == 0 else (lb.L(g + mid), lb.R(g + half))
        apex_r[g].add(edge(0, first))
        apex_l[g].add(edge(0, second))

    for g in range(1, half + 1):
        classes.append(apex_r[g])
    for g in range(2, half + 1):
        classes.append(apex_l[g])
    classes.append(tlast)

    return PartialPartition(model=model, classes=classes, stage=STAGE_BASE, case=case)


def extend_base(pp: PartialPartition) -> PartialPartition:
    """Cover the remaining diagonals of distances d_1..d_3: per opposite pair
    each covered distance-d_(t-1) edge takes the unique uncovered distance-d_t
    edge sharing one of its endpoints; the base edge at each level forces the
    whole assignment."""
    if pp.stage != STAGE_BASE:
        raise ValueError(f"expected stage {STAGE_BASE!r}, got {pp.stage!r}")
    k = pp.model.k
    lb = _Labels(k)
    classes = [set(es) for es in pp.classes]
    covered = dict(pp.covered)
    for i in range(1, k + 1):
        for t in (2, 3):
            level = lb.pair_edges(i, t)
            already = [a for a, e in enumerate(level) if e in covered]
            if len(already) != 1:
                raise ValueError(f"pair {i} level {t}: expected one covered edge, got {already}")
            a_star = already[0]
            parents = lb.pair_edges(i, t - 1)
            for a, f in enumerate(parents):
                child = level[a] if a < a_star else level[a + 1]
                cls = covered[f]
                classes[cls].add(child)
                covered[child] = cls
    return PartialPartition(
        model=pp.model,
        classes=classes,
        stage=STAGE_BASE_EXTENDED,
        case=pp.case,
        covered=covered,
    )


def choice_length(k: int) -> int:
    return (k - 1) // 2 * 3 - 1


def extend_full(pp: PartialPartition, choices) -> Partition:
    """One global left/right bit per remaining distance level: every covered
    edge of distance d+1 extends by the child keeping its far-arc start
    (bit 0) or its far-arc end (bit 1)."""
    if pp.stage != STAGE_BASE_EXTENDED:
        raise ValueError(f"expected stage {STAGE_BASE_EXTENDED!r}, got {pp.stage!r}")
    model = pp.model
    k = model.k
    bits = tuple(int(b) for b in choices)
    if len(bits) != choice_length(k) or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need a bit string of length {choice_length(k)}")
    covered = dict(pp.covered)
    d_top = 3 * (k - 1) // 2  # d_3, the lowest distance covered so far
    tables = wheel_tables(model)
    by_dist: dict[int, list[EdgeId]] = {}
    for e in covered:
        if e[0] != 0:
            by_dist.setdefault(tables.dist[e], []).append(e)
    for idx, d in enumerate(range(d_top - 1, 0, -1)):
        bit = bits[idx]
        parents = by_dist[d + 1]
        level = []
        for e in parents:
            left, right = edgeorder.distance_children(model, e)
            child = left if bit == 0 else right
            if child in covered:
                raise ValueError(f"extension collision at {child}")
            covered[child] = covered[e]
            level.append(child)
        by_dist[d] = level
    if len(covered) != len(tables.edges):
        raise ValueError(f"extension left {len(tables.edges) - len(covered)} edges uncovered")
    return Partition(model=model, m=model.n, color=covered)


def enumerate_all(k: int, case: str = "all") -> Iterator[Partition]:
    _check_k(k)
    if case != "all" and case not in CASES:
        raise ValueError(f"case must be one of {CASES} or 'all'")
    nbits = choice_length(k)
    for base in base_partitions(k):
        if case != "all" and base.case != case:
            continue
        ext = extend_base(base)
        for bits in product((0, 1), repeat=nbits):
            yield extend_full(ext, bits)


def count(k: int, case: str = "all") -> int:
    return sum(1 for _ in enumerate_all(k, case))
