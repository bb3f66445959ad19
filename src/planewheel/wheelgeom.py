"""Wheel point sets: combinatorial models, exact coordinates, crossing predicates.

Vertex convention: the center vertex is 0, the hull vertices are 1..2n-1 in
clockwise order.  Groups are numbered 1..k in clockwise order; group 1 starts
at vertex 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

Point = tuple[Fraction, Fraction]
EdgeId = tuple[int, int]


def edge(a: int, b: int) -> EdgeId:
    """Normalized unordered vertex pair."""
    if a == b:
        raise ValueError(f"degenerate edge ({a},{a})")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class WheelModel:
    """Combinatorial description of a generalized wheel: k groups of hull
    vertices in clockwise order around a center vertex."""

    k: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if any(type(v) is not int for v in (self.k, *self.sizes)):  # 3.5 fails only later, True counts as 1
            raise ValueError(f"k and sizes must be integers, got k={self.k!r}, sizes={self.sizes!r}")
        if self.k < 3 or self.k % 2 == 0:
            raise ValueError(f"group count must be odd and >= 3, got {self.k}")
        if len(self.sizes) != self.k:
            raise ValueError("sizes length must equal k")
        if any(s < 1 for s in self.sizes):
            raise ValueError("every group size must be >= 1")
        if sum(self.sizes) % 2 == 0:
            raise ValueError("total hull count must be odd")

    @property
    def hull_count(self) -> int:
        return sum(self.sizes)

    @property
    def num_points(self) -> int:
        return self.hull_count + 1

    @property
    def n(self) -> int:
        """Number of color classes in the partition question (2n points)."""
        return (self.hull_count + 1) // 2

    def group_of(self, v: int) -> int:
        t = wheel_tables(self)
        if not 1 <= v <= t.hull_count:
            raise ValueError(f"not a hull vertex: {v}")
        return t.group_of[v]

    def group_vertices(self, g: int) -> range:
        g = (g - 1) % self.k
        s = 1 + sum(self.sizes[:g])
        return range(s, s + self.sizes[g])

    def far_arc(self, e: EdgeId) -> list[int]:
        """Hull vertices strictly inside the arc on the far side of a
        non-radial edge (the side away from the center vertex).

        Between two groups the far side is the short way around the k-gon;
        within one group it is the in-group arc between the endpoints.
        """
        t = wheel_tables(self)
        start, length = t.far_arc[t.key(e, "far arc undefined for radial edges")]
        h = t.hull_count
        return [(start + i - 1) % h + 1 for i in range(length)]

    def to_json(self) -> dict:
        return {"k": self.k, "sizes": list(self.sizes)}

    @classmethod
    def from_json(cls, obj: dict) -> "WheelModel":
        k, sizes = obj["k"], tuple(obj["sizes"])
        for value in (k, *sizes):
            if type(value) is not int:  # JSON true, 3.9 and "3" are no counts
                raise ValueError(f"k and sizes must be JSON integers, got {value!r}")
        return cls(k=k, sizes=sizes)


def build_bumpy_wheel(k: int, ell: int) -> WheelModel:
    """Bumpy wheel BW_{k,l}: k groups of l vertices each, k and l odd."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    if ell < 1 or ell % 2 == 0:
        raise ValueError(f"l must be odd and >= 1, got {ell}")
    return WheelModel(k=k, sizes=(ell,) * k)


def build_generalized_wheel(sizes) -> WheelModel:
    return WheelModel(k=len(sizes), sizes=tuple(sizes))


def is_bumpy(model: WheelModel) -> bool:
    return len(set(model.sizes)) == 1


@dataclass(frozen=True)
class PointSet:
    """Exact rational coordinates; interior_index marks the unique interior
    point when known."""

    points: tuple[Point, ...]
    interior_index: int | None = None

    # homogeneous integer coordinates (X, Y, W), W > 0, for fast exact tests
    _homog: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        homog = []
        for x, y in self.points:
            w = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
            homog.append((x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w))
        object.__setattr__(self, "_homog", tuple(homog))

    @cached_property
    def _orientations(self) -> bytes:
        """The order type (chirotope): 1 + the orientation sign of every
        ordered index triple (i, j, l), at (i*m + j)*m + l; a triple with a
        repeated index reads 1 (collinear).  Built on first use from one
        integer determinant per unordered triple, which sets all six
        permutations: cyclic shifts keep the sign, swaps flip it."""
        m = len(self._homog)
        table = bytearray(b"\x01" * (m * m * m))
        for i, (xi, yi, wi) in enumerate(self._homog):
            # (rx[k], ry[k]) is W_i W_k (p_k - p_i), so d is W_i^2 W_j W_l det(p_j - p_i, p_l - p_i)
            rx = [xk * wi - xi * wk for xk, _, wk in self._homog]
            ry = [yk * wi - yi * wk for _, yk, wk in self._homog]
            for j in range(i + 1, m):
                dx, dy = rx[j], ry[j]
                for l in range(j + 1, m):
                    d = dx * ry[l] - dy * rx[l]
                    if d:
                        keep, flip = (2, 0) if d > 0 else (0, 2)
                        table[(i * m + j) * m + l] = table[(j * m + l) * m + i] = table[(l * m + i) * m + j] = keep
                        table[(j * m + i) * m + l] = table[(i * m + l) * m + j] = table[(l * m + j) * m + i] = flip
        return bytes(table)

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "points": [[f"{x.numerator}/{x.denominator}", f"{y.numerator}/{y.denominator}"] for x, y in self.points],
            "interior": self.interior_index,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        pts = tuple((Fraction(x), Fraction(y)) for x, y in obj["points"])
        return cls(points=pts, interior_index=obj.get("interior"))


def orientation(p: Point, q: Point, r: Point) -> int:
    """Exact sign of the turn p->q->r: +1 counterclockwise, -1 clockwise, 0
    collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def _orient_idx(ps: PointSet, i: int, j: int, l: int) -> int:
    """orientation() of three points given by index, read from the order type."""
    m = len(ps.points)
    return ps._orientations[(i * m + j) * m + l] - 1


def in_general_position(ps: PointSet) -> bool:
    """No three points collinear (and none repeated): the only zero signs in
    the order type are those of the m^3 - m(m-1)(m-2) repeated-index triples."""
    m = len(ps.points)
    return ps._orientations.count(1) == m * m * m - m * (m - 1) * (m - 2)


def segments_cross(e: EdgeId, f: EdgeId, ps: PointSet) -> bool:
    """True iff the open segments share a point (proper crossing).  Segments
    sharing an endpoint never cross.  Assumes general position."""
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    table, m = ps._orientations, len(ps.points)
    ab, cd = (a * m + b) * m, (c * m + d) * m
    return table[ab + c] != table[ab + d] and table[cd + a] != table[cd + b]


class WheelTables:
    """Every combinatorial fact about one wheel model, computed once from its
    group sizes with integer arithmetic.  Get one from `wheel_tables`; the
    tables are shared between callers and must not be modified.

    Non-radial edges are keyed by their normalized pair (a, b), 0 < a < b.
    The far arc of such an edge is the clockwise run of hull vertices
    strictly between its arc start s and its arc end t: between two groups
    the far side is the short way around the k-gon, within one group it is
    the in-group arc.

    `dist` carries each edge's kind: a radial edge (one meeting the center)
    has no entry, a boundary edge (joining hull neighbours) has distance 1,
    and the diagonals, distance 2 and up, are exactly the keys of `children`.
    """

    def __init__(self, model: WheelModel):
        k, h = model.k, sum(model.sizes)
        half = (k - 1) // 2
        group_of = [0]  # the center vertex belongs to no group
        for g, size in enumerate(model.sizes, 1):
            group_of += [g] * size
        self.hull_count = h
        self.group_of: tuple[int, ...] = tuple(group_of)
        self.edges: tuple[EdgeId, ...] = tuple((a, b) for a in range(h + 1) for b in range(a + 1, h + 1))
        self.index: dict[EdgeId, int] = {e: i for i, e in enumerate(self.edges)}
        self.far_arc: dict[EdgeId, tuple[int, int]] = {}  # (first vertex, length)
        self.dist: dict[EdgeId, int] = {}
        # the two distance-(d-1) edges sharing an endpoint with a diagonal:
        # one keeps the arc start, the other keeps the arc end
        self.children: dict[EdgeId, tuple[EdgeId, EdgeId]] = {}
        for e in self.edges:
            a, b = e
            if a == 0:
                continue
            ga, gb = group_of[a], group_of[b]
            s, t = (a, b) if ga == gb or (gb - ga) % k <= half else (b, a)
            d = (t - s) % h
            self.far_arc[e] = (s % h + 1, d - 1)
            self.dist[e] = d
            if d >= 2:
                self.children[e] = (edge(s, (t - 2) % h + 1), edge(s % h + 1, t))
        self.opposite_pairs: tuple[tuple[int, int], ...] = tuple(
            (i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1) if (j - i) % k in (half, half + 1)
        )

    def key(self, e: EdgeId, radial_msg: str) -> EdgeId:
        """The key of a non-radial edge given in either orientation; raises
        ValueError (with radial_msg for a radial edge) if e is none."""
        a, b = e
        h = self.hull_count
        if 0 < a < b <= h:
            return (a, b)
        if 0 < b < a <= h:
            return (b, a)
        if a == 0 or b == 0:
            raise ValueError(radial_msg)
        if a == b:
            raise ValueError(f"degenerate edge ({a},{a})")
        raise ValueError(f"not a hull vertex: {a if not 1 <= a <= h else b}")

    @cached_property
    def crossings(self) -> tuple[int, ...]:
        """The crossing graph, one bitset row per edge index: bit j of
        crossings[i] is set iff edges i and j cross.  A radial edge (0, v)
        crosses a non-radial edge iff v lies in its far arc; two non-radial
        edges cross iff their endpoints interleave on the hull."""
        h = self.hull_count
        # edge (c, d) has index at[c] + d, so radial (0, v) is v - 1
        at = [c * h - c * (c + 1) // 2 - 1 for c in range(h + 1)]
        rows = [0] * len(self.edges)
        # (c, d) crosses (a, b) iff a < c < b < d or c < a < d < b.  For fixed
        # b the first set grows, as a falls, by the run of edges (a, d > b).
        for b in range(2, h + 1):
            run, later = (1 << (h - b)) - 1, 0
            for a in range(b - 1, 0, -1):
                rows[at[a] + b] = later
                later |= run << (at[a] + b + 1)
        # For fixed a the second grows, as b rises, by column[b]: the edges
        # (c, b) with c < a.
        column = [0] * (h + 1)
        full = (1 << h) - 1
        for a in range(1, h + 1):
            earlier = 0
            for b in range(a + 1, h + 1):
                i = at[a] + b
                start, length = self.far_arc[a, b]
                arc = ((1 << length) - 1) << (start - 1)  # radial bits of the far arc, before wrapping
                rows[i] |= earlier | (arc | arc >> h) & full
                bit = 1 << i
                for j in range(start - 1, start - 1 + length):
                    rows[j % h] |= bit
                earlier |= column[b]
                column[b] |= bit
        return tuple(rows)

    @cached_property
    def degree_order(self) -> tuple[int, ...]:
        """Every edge index by crossing degree, descending, ties by edge: the
        search's static branching order and the greedy order of
        `max_crossing_family`."""
        rows = self.crossings
        return tuple(sorted(range(len(rows)), key=lambda i: (-rows[i].bit_count(), i)))

    @cached_property
    def symmetries(self) -> tuple[tuple[int, ...], ...]:
        """Vertex permutations (image tuples over 0..2n-1) induced by the
        rotations, then the reflections, of the circular group-size sequence
        that map groups onto groups.  The center is fixed."""
        h = self.hull_count
        groups: dict[int, set[int]] = {}
        for v in range(1, h + 1):
            groups.setdefault(self.group_of[v], set()).add(v - 1)
        group_sets = [frozenset(s) for s in groups.values()]
        gs = set(group_sets)
        perms = []
        for sign in (1, -1):
            for t in range(h):
                images = [(sign * p + t) % h for p in range(h)]
                if all(frozenset(images[p] for p in s) in gs for s in group_sets):
                    perms.append((0,) + tuple(images[v - 1] + 1 for v in range(1, h + 1)))
        return tuple(perms)

    @cached_property
    def edge_images(self) -> tuple[tuple[int, ...], ...]:
        """For each permutation of `symmetries`, in that order, the index of
        the image of every edge: edge_images[s][i] is the index of
        edge(perm[a], perm[b]) for the i-th edge (a, b)."""
        index = self.index
        return tuple(tuple(index[edge(perm[a], perm[b])] for a, b in self.edges) for perm in self.symmetries)


# The tables of the most recently used models: one model's tables are read
# millions of times in a row, while a sweep over hundreds of models must not
# keep the tables of each one alive.
TABLES_CACHE_SIZE = 2

_build_tables = lru_cache(maxsize=TABLES_CACHE_SIZE)(WheelTables)
_recent: tuple = (None, None)  # (model, tables) of the latest call


def wheel_tables(model: WheelModel) -> WheelTables:
    """The model's tables, built on first use and kept in a bounded cache
    keyed by the model; a repeat call with the same model object returns
    without hashing it."""
    global _recent
    recent = _recent
    if recent[0] is model:
        return recent[1]
    tables = _build_tables(model)
    _recent = (model, tables)
    return tables


class CrossingGraph:
    """Symmetric, irreflexive adjacency: which edges properly cross which.
    A view over the model's tables: `edges` and `index` are the tables' own
    tuple and dict."""

    def __init__(self, model: WheelModel):
        t = wheel_tables(model)
        self.model = model
        self.edges = t.edges
        self.index = t.index
        self._rows = t.crossings

    def crosses(self, e: EdgeId, f: EdgeId) -> bool:
        return self._rows[self.index[e]] >> self.index[f] & 1 == 1

    def crossing_pairs(self) -> set[tuple[EdgeId, EdgeId]]:
        return _pairs_of_rows(self.edges, self._rows)


def crossing_graph(model: WheelModel) -> CrossingGraph:
    return CrossingGraph(model)


def _pairs_of_rows(edges, rows) -> set[tuple[EdgeId, EdgeId]]:
    """The crossing pairs (e, f), e < f, of bitset rows over the given edges."""
    pairs = set()
    for i, row in enumerate(rows):
        later = row >> (i + 1)  # bit j - i - 1: edge j > i crosses edge i
        while later:
            low = later & -later
            pairs.add((edges[i], edges[i + low.bit_length()]))
            later ^= low
    return pairs


def geometric_crossings(ps: PointSet) -> tuple[int, ...]:
    """The exact crossing graph of the complete graph on ps, one bitset row
    per edge in lexicographic edge order: the layout of
    `WheelTables.crossings`.  Each 4-subset a < b < c < d is split into its
    three pairings ab|cd, ac|bd and ad|bc, and each is tested on its own with
    the `segments_cross` predicate, rewritten over the four signs abc, abd,
    acd and bcd; so the rows are the pairwise ones even on degenerate input."""
    table, m = ps._orientations, len(ps.points)
    # edge (a, b) has index at[a] + b, as in the tables
    at = [a * (m - 1) - a * (a + 1) // 2 - 1 for a in range(m)]
    bit = [1 << i for i in range(m * (m - 1) // 2)]
    rows = [0] * len(bit)
    for a in range(m):
        for b in range(a + 1, m):
            ab, iab = (a * m + b) * m, at[a] + b
            for c in range(b + 1, m):
                abc, ac, bc = table[ab + c], (a * m + c) * m, (b * m + c) * m
                iac, ibc = at[a] + c, at[b] + c
                for d in range(c + 1, m):
                    abd, acd, bcd = table[ab + d], table[ac + d], table[bc + d]
                    # entries are 1 + sign, so sign(x) == -sign(y) reads x + y == 2
                    if abc != abd and acd != bcd:
                        i = at[c] + d
                        rows[iab] |= bit[i]
                        rows[i] |= bit[iab]
                    if abc + acd != 2 and abd + bcd != 2:
                        i = at[b] + d
                        rows[iac] |= bit[i]
                        rows[i] |= bit[iac]
                    if abd != acd and abc != bcd:
                        i = at[a] + d
                        rows[i] |= bit[ibc]
                        rows[ibc] |= bit[i]
    return tuple(rows)


def geometric_crossing_pairs(ps: PointSet) -> set[tuple[EdgeId, EdgeId]]:
    """All properly crossing edge pairs of the complete graph on ps (exact),
    each as (e, f) with e < f: the pair view of `geometric_crossings`."""
    m = len(ps.points)
    return _pairs_of_rows([(a, b) for a in range(m) for b in range(a + 1, m)], geometric_crossings(ps))


def _rational_circle_point(angle: float, scale: int) -> Point:
    """Rational point exactly on the unit circle near the given angle, via the
    tangent half-angle parameterization."""
    # normalize into (-pi, pi); group layout keeps angles away from pi
    a = math.remainder(angle, 2 * math.pi)
    # t = p / q: ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) over integers
    p, q = round(math.tan(a / 2) * scale), scale
    den = q * q + p * p
    return (Fraction(q * q - p * p, den), Fraction(2 * p * q, den))


REALIZE_MAX_HALVINGS = 64


def realize_coordinates(model: WheelModel) -> PointSet:
    """Exact rational realization: center at the origin, group j near angle
    -2*pi*(j-1)/k (clockwise numbering), in-group spread delta halved until the
    realization is in general position and its exact crossing rows equal the
    model's.  That puts the center outside the hull of any (k+1)/2 consecutive
    groups, as every radial edge into them crosses the chord joining their ends."""
    k = model.k
    delta = math.pi / (4 * k * (max(model.sizes) + 1))
    for _ in range(REALIZE_MAX_HALVINGS):
        pts: list[Point] = [(Fraction(0), Fraction(0))]
        scale = max(10**6, int(1024 / delta))
        for g in range(1, k + 1):
            center = -2 * math.pi * (g - 1) / k
            s = model.sizes[g - 1]
            for r in range(s):
                ang = center - (r - (s - 1) / 2) * delta
                pts.append(_rational_circle_point(ang, scale))
        ps = PointSet(points=tuple(pts), interior_index=0)
        if _realization_ok(model, ps):
            return ps
        delta /= 2
    raise RuntimeError("realization did not stabilize; predicate bug suspected")


def _realization_ok(model: WheelModel, ps: PointSet) -> bool:
    """General position, and exact crossings (vertex i at point i) equal to the model's."""
    return in_general_position(ps) and geometric_crossings(ps) == wheel_tables(model).crossings


def _inside_convex(ps: PointSet, i: int, polygon) -> bool:
    """Point i lies strictly inside the convex polygon whose vertex indices
    are given in circular order, either way round."""
    signs = {_orient_idx(ps, polygon[j - 1], polygon[j], i) for j in range(len(polygon))}
    return len(signs) == 1 and 0 not in signs


def hull_and_interior(ps: PointSet) -> tuple[list[int], list[int]]:
    """Indices on the convex hull (clockwise order) and strictly interior."""
    order = sorted(range(len(ps)), key=ps.points.__getitem__)

    # Andrew monotone chain, exact
    def half(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and _orient_idx(ps, out[-2], out[-1], i) <= 0:
                out.pop()
            out.append(i)
        return out

    hull = half(order)[:-1] + half(reversed(order))[:-1]  # ccw
    on_hull = set(hull)
    return hull[::-1], [i for i in range(len(ps)) if i not in on_hull]


def _opposite_boundary_edge(ps: PointSet, hull: list[int], v0: int, v: int) -> EdgeId:
    """The unique boundary edge {u,w} of the hull with the interior point v0
    strictly inside the triangle (v, u, w), for a hull vertex v."""
    m = len(hull)
    for i in range(m):
        u, w = hull[i], hull[(i + 1) % m]
        if v in (u, w):
            continue
        if _inside_convex(ps, v0, (v, u, w)):
            return edge(u, w)
    raise AssertionError("no opposite boundary edge found; input degenerate?")


def canonicalize(ps: PointSet) -> WheelModel:
    """Collapse a one-interior-point set to the generalized wheel with the same
    crossing structure.  Groups are the classes of hull vertices sharing an
    opposite boundary edge, taken in clockwise order."""
    if len(ps) < 4:
        raise ValueError("need at least 4 points")
    if not in_general_position(ps):
        raise ValueError("points not in general position")
    hull, interior = hull_and_interior(ps)
    if len(interior) != 1:
        raise ValueError(f"expected exactly one interior point, found {len(interior)}")

    opp = {v: _opposite_boundary_edge(ps, hull, interior[0], v) for v in hull}
    m = len(hull)
    # group boundaries: positions where the opposite edge changes
    breaks = [i for i in range(m) if opp[hull[i]] != opp[hull[i - 1]]]
    if not breaks:
        raise ValueError("all hull vertices share one opposite edge; degenerate")
    # deterministic start: group boundary whose first vertex has smallest index
    start = min(breaks, key=lambda i: hull[i])
    order = [hull[(start + t) % m] for t in range(m)]
    sizes = []
    cur = 1
    for t in range(1, m):
        if opp[order[t]] == opp[order[t - 1]]:
            cur += 1
        else:
            sizes.append(cur)
            cur = 1
    sizes.append(cur)

    if len(sizes) % 2 == 0:
        raise ValueError("even group count; opposite-edge predicate bug")
    model = WheelModel(k=len(sizes), sizes=tuple(sizes))

    # hull vertex order[t] is model vertex t + 1
    relabel = {v: t for t, v in enumerate(order, 1)}
    tables = wheel_tables(model)
    kk = model.k

    # split property: each vertex's opposite edge leaves equally many groups
    # on both sides
    for v in hull:
        u, w = opp[v]
        # clockwise order: the earlier model vertex comes first within the pair
        if (relabel[w] - relabel[u]) % m != 1:
            u, w = w, u
        gu, gv, gw = (tables.group_of[relabel[x]] for x in (u, v, w))
        if (gu - gv) % kk != (gv - gw) % kk:
            raise ValueError("opposite edge does not split groups evenly; predicate bug")

    # crossing structure must be preserved under the order-preserving map
    renumbered = PointSet(points=tuple(ps.points[v] for v in [interior[0], *order]), interior_index=0)
    if not _realization_ok(model, renumbered):
        raise ValueError("crossing structure changed under canonicalization; predicate bug")
    return model
