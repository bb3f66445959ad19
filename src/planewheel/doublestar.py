"""Double-star machinery: halving edges, bad halfplanes and their empty
triples, potential and spine matchings with the parallel / cross-blocker
obstructions, the consecutive-family criteria, and completion of a certified
spine matching to a full partition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .partition import MODE_DOUBLE_STAR, Partition
from .wheelgeom import (
    EdgeId,
    PointSet,
    WheelModel,
    _inside_convex,
    _orient_idx,
    edge,
    realize_coordinates,
    segments_cross,
    wheel_tables,
)


@dataclass(frozen=True)
class Matching:
    model: WheelModel
    pairs: tuple[EdgeId, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.pairs:
            if a in seen or b in seen:
                raise ValueError(f"vertex reused in matching: {(a, b)}")
            seen.update((a, b))
        if seen != set(range(self.model.num_points)):
            raise ValueError("matching must cover every vertex exactly once")

    def radial_pair(self) -> EdgeId:
        for p in self.pairs:
            if p[0] == 0:
                return p
        raise AssertionError("perfect matching on an even set must match the center")


@dataclass(frozen=True)
class BadHalfplane:
    """Closed far side of a non-radial halving edge, as A x + B y <= C with
    the center vertex strictly violating the inequality."""

    halving_edge: EdgeId
    line: tuple[Fraction, Fraction, Fraction]


def halving_edges(model: WheelModel) -> tuple[list[EdgeId], list[EdgeId]]:
    """Edges whose supporting line leaves n-1 points strictly on each side,
    split (radial, non-radial).  Radial: the antipode of a hull vertex falls
    in the gap behind the (k-1)/2 following groups, so the clockwise side
    holds the rest of its own group plus those groups."""
    n = model.n
    k = model.k
    radial = []
    for g in range(1, k + 1):
        ahead = sum(model.sizes[(g - 1 + t) % k] for t in range(1, (k - 1) // 2 + 1))
        vs = list(model.group_vertices(g))
        for r, v in enumerate(vs):
            if (len(vs) - 1 - r) + ahead == n - 1:
                radial.append(edge(0, v))
    non_radial = [e for e, d in wheel_tables(model).dist.items() if d == n]
    return radial, non_radial


def bad_halfplanes(model: WheelModel, ps: Optional[PointSet] = None) -> list[BadHalfplane]:
    _, non_radial = halving_edges(model)
    if not non_radial:
        return []
    ps = ps or realize_coordinates(model)
    out = []
    for h in non_radial:
        p, q = ps.points[h[0]], ps.points[h[1]]
        a = q[1] - p[1]
        b = p[0] - q[0]
        c = a * p[0] + b * p[1]
        # center at the origin must violate A x + B y <= C strictly
        if c >= 0:
            a, b, c = -a, -b, -c
        assert c < 0, "halving edge line passes through the center"
        out.append(BadHalfplane(halving_edge=h, line=(a, b, c)))
    return out


def _pair_empty(l1, l2) -> bool:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    if a1 * b2 - b1 * a2 != 0:
        return False
    if a1 * a2 + b1 * b2 > 0:
        return False
    # antiparallel: (a2,b2) = -t (a1,b1) with t > 0
    t = -(a2 / a1) if a1 != 0 else -(b2 / b1)
    return c2 + t * c1 < 0


def _triple_empty(l1, l2, l3) -> bool:
    for x, y in ((l1, l2), (l1, l3), (l2, l3)):
        if _pair_empty(x, y):
            return True
    n = [l1[:2], l2[:2], l3[:2]]
    c = [l1[2], l2[2], l3[2]]
    y = [
        n[1][0] * n[2][1] - n[1][1] * n[2][0],
        n[2][0] * n[0][1] - n[2][1] * n[0][0],
        n[0][0] * n[1][1] - n[0][1] * n[1][0],
    ]
    signs = {(v > 0) - (v < 0) for v in y if v != 0}
    if len(signs) != 1:
        return False
    s = signs.pop()
    return sum(s * yi * ci for yi, ci in zip(y, c)) < 0


def empty_triple(halfplanes: list[BadHalfplane]) -> Optional[tuple[BadHalfplane, BadHalfplane, BadHalfplane]]:
    """First triple of bad halfplanes with empty common intersection, if any.
    By Helly's theorem, the whole family has empty intersection iff some
    triple does."""
    for t in combinations(halfplanes, 3):
        if _triple_empty(t[0].line, t[1].line, t[2].line):
            return t
    return None


def potential_matching(model: WheelModel, v: int) -> Matching:
    """{v_0, v} plus the unique parallel-free matching on the remaining
    2n-2 convex-position points: antipodal pairing in circular order."""
    if not 1 <= v <= model.hull_count:
        raise ValueError(f"not a hull vertex: {v}")
    n = model.n
    h = model.hull_count
    others = [(v + t - 1) % h + 1 for t in range(1, h)]
    pairs = [edge(0, v)]
    for i in range(n - 1):
        pairs.append(edge(others[i], others[i + n - 1]))
    return Matching(model=model, pairs=tuple(pairs))


def _splits(ps: PointSet, e: EdgeId, f: EdgeId) -> bool:
    """The supporting line of e separates the endpoints of f, read from the
    order type.  Assumes general position."""
    return _orient_idx(ps, *e, f[0]) != _orient_idx(ps, *e, f[1])


def stabs(e: EdgeId, f: EdgeId, ps: PointSet) -> Optional[int]:
    """If the supporting lines meet at s with s inside f but outside e, e
    stabs f; returns e's endpoint closer to s.  That endpoint lies between s
    and the other one, so it is the one inside the triangle formed by the
    other endpoint and f.  Assumes general position."""
    if set(e) & set(f):
        raise ValueError("stabbing is defined for disjoint edges")
    if not _splits(ps, e, f) or _splits(ps, f, e):
        return None
    return e[0] if _inside_convex(ps, e[0], (e[1], *f)) else e[1]


def parallel(e: EdgeId, f: EdgeId, ps: PointSet) -> bool:
    """Supporting lines meet outside both segments (or not at all).  Assumes
    general position."""
    if set(e) & set(f):
        raise ValueError("parallelism is defined for disjoint edges")
    return not _splits(ps, e, f) and not _splits(ps, f, e)


def cross_blocker(e: EdgeId, f: EdgeId, g: EdgeId, ps: PointSet) -> bool:
    """e is radial, stabs both f and g, f and g cross, and the center lies
    outside the quadrilateral spanned by f and g."""
    if ps.interior_index is None or ps.interior_index not in e:
        return False
    if stabs(e, f, ps) is None or stabs(e, g, ps) is None:
        return False
    if not segments_cross(f, g, ps):
        return False
    # f, g cross, so their endpoints alternate around a convex quadrilateral
    return not _inside_convex(ps, ps.interior_index, (f[0], g[0], f[1], g[1]))


@dataclass(frozen=True)
class SpineCheck:
    ok: bool
    kind: Optional[str] = None  # "parallel" | "cross_blocker"
    edges: tuple[EdgeId, ...] = ()


def is_spine_matching(model: WheelModel, matching: Matching, ps: Optional[PointSet] = None) -> SpineCheck:
    """A matching can be the spine set of a double-star partition iff no two
    of its edges are parallel and no cross-blocker triple exists (stabbing
    chains would need a second interior point, impossible on wheels)."""
    ps = ps or realize_coordinates(model)
    pairs = list(matching.pairs)
    for e, f in combinations(pairs, 2):
        if parallel(e, f, ps):
            return SpineCheck(ok=False, kind="parallel", edges=(e, f))
    rad = matching.radial_pair()
    others = [p for p in pairs if p != rad]
    for f, g in combinations(others, 2):
        if cross_blocker(rad, f, g, ps):
            return SpineCheck(ok=False, kind="cross_blocker", edges=(rad, f, g))
    return SpineCheck(ok=True)


def _families(model: WheelModel) -> list[tuple[frozenset[int], int]]:
    k = model.k
    width = (k - 1) // 2
    out = []
    for start in range(1, k + 1):
        groups = frozenset((start - 1 + t) % k + 1 for t in range(width))
        size = sum(model.sizes[g - 1] for g in groups)
        out.append((groups, size))
    return out


def criterion_small_families(model: WheelModel) -> bool:
    """True (= not double-star partitionable) iff three families of (k-1)/2
    consecutive groups, each of at most n-2 vertices, jointly cover every
    group."""
    n = model.n
    fams = [(g, s) for g, s in _families(model) if s <= n - 2]
    all_groups = set(range(1, model.k + 1))
    for (g1, _), (g2, _), (g3, _) in combinations(fams, 3):
        if g1 | g2 | g3 == all_groups:
            return True
    return False


def criterion_large_families(model: WheelModel) -> bool:
    """True (= double-star partitionable) iff every family of (k-1)/2
    consecutive groups has more than n-2 vertices."""
    n = model.n
    return all(s > n - 2 for _, s in _families(model))


def tree_nonpartition_criterion(model: WheelModel) -> bool:
    """Sufficient condition for tree non-partitionability: every family of
    (k-1)/2 consecutive groups has fewer than n-2 vertices."""
    n = model.n
    return all(s < n - 2 for _, s in _families(model))


def complete_double_stars(model: WheelModel, matching: Matching) -> Optional[Partition]:
    """Extend a certified spine matching to a full double-star partition by
    exact search with the spines pinned to distinct classes."""
    check = is_spine_matching(model, matching)
    if not check.ok:
        raise ValueError(f"not a spine matching: {check.kind} at {check.edges}")
    from .solver import SolveConfig, solve

    cfg = SolveConfig(mode=MODE_DOUBLE_STAR)
    pre = [(e, c) for c, e in enumerate(sorted(matching.pairs))]
    outcome = solve(model, cfg, preassigned=pre)
    return outcome.witness if outcome.status == "SAT" else None


def spine_matching_of(p: Partition) -> Matching:
    """Extract a spine per class of a valid double-star partition so the
    spines form a perfect matching (lexicographically first assignment)."""
    classes = p.classes()
    cands: list[list[EdgeId]] = []
    for es in classes:
        deg: dict[int, int] = {}
        for a, b in es:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        internal = [v for v, d in deg.items() if d >= 2]
        if len(internal) > 2:
            raise ValueError("class is not a double star")
        if len(internal) == 2:
            cands.append([edge(*internal)])
        else:
            cands.append(sorted(es))
    cands.sort(key=len)

    used: set[int] = set()
    chosen: list[EdgeId] = []

    def rec(i: int) -> bool:
        if i == len(cands):
            return True
        for e in cands[i]:
            if e[0] not in used and e[1] not in used:
                used.update(e)
                chosen.append(e)
                if rec(i + 1):
                    return True
                chosen.pop()
                used.difference_update(e)
        return False

    if not rec(0):
        raise ValueError("no spine selection forms a perfect matching")
    return Matching(model=p.model, pairs=tuple(sorted(chosen)))
