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
from itertools import combinations, compress, count

Point = tuple[Fraction, Fraction]
EdgeId = tuple[int, int]

# edge kinds: radial edges meet the center; boundary edges join hull
# neighbours; diagonals are every other non-radial edge
RADIAL = "radial"
BOUNDARY = "boundary"
DIAGONAL = "diagonal"


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
    # group_start[g] = first hull vertex id of group g (1-indexed groups)
    group_start: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 3 or self.k % 2 == 0:
            raise ValueError(f"group count must be odd and >= 3, got {self.k}")
        if len(self.sizes) != self.k:
            raise ValueError("sizes length must equal k")
        if any(s < 1 for s in self.sizes):
            raise ValueError("every group size must be >= 1")
        if sum(self.sizes) % 2 == 0:
            raise ValueError("total hull count must be odd")
        starts = []
        v = 1
        for s in self.sizes:
            starts.append(v)
            v += s
        object.__setattr__(self, "group_start", tuple(starts))

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
        g = (g - 1) % self.k + 1
        s = self.group_start[g - 1]
        return range(s, s + self.sizes[g - 1])

    def edges(self) -> list[EdgeId]:
        """All edges of the complete graph, in lexicographic order."""
        return list(wheel_tables(self).edges)

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
        return cls(k=int(obj["k"]), sizes=tuple(int(s) for s in obj["sizes"]))


def build_bumpy_wheel(k: int, ell: int) -> WheelModel:
    """Bumpy wheel BW_{k,l}: k groups of l vertices each, k and l odd."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    if ell < 1 or ell % 2 == 0:
        raise ValueError(f"l must be odd and >= 1, got {ell}")
    return WheelModel(k=k, sizes=(ell,) * k)


def build_generalized_wheel(sizes) -> WheelModel:
    return WheelModel(k=len(sizes), sizes=tuple(int(s) for s in sizes))


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
    strictly between its arc endpoints (s, t): between two groups the far
    side is the short way around the k-gon, within one group it is the
    in-group arc.
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
        self.kind: dict[EdgeId, str] = {}
        self.far_arc: dict[EdgeId, tuple[int, int]] = {}  # (first vertex, length)
        self.arc_endpoints: dict[EdgeId, tuple[int, int]] = {}
        self.dist: dict[EdgeId, int] = {}
        # the two distance-(d-1) edges sharing an endpoint with a diagonal:
        # one keeps the arc start, the other keeps the arc end
        self.children: dict[EdgeId, tuple[EdgeId, EdgeId]] = {}
        for e in self.edges:
            a, b = e
            if a == 0:
                self.kind[e] = RADIAL
                continue
            ga, gb = group_of[a], group_of[b]
            s, t = (a, b) if ga == gb or (gb - ga) % k <= half else (b, a)
            d = (t - s) % h
            self.kind[e] = BOUNDARY if d == 1 else DIAGONAL
            self.far_arc[e] = (s % h + 1, d - 1)
            self.arc_endpoints[e] = (s, t)
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
    def crossings(self) -> tuple[bytes, ...]:
        """Crossing adjacency matrix by edge index: crossings[i][j] is 1 iff
        edges i and j cross.  A radial edge (0, v) crosses a non-radial edge
        iff v lies in its far arc; two non-radial edges cross iff their
        endpoints interleave on the hull.  Rows of bytes take an eighth of
        the memory of sets of indices and still answer a lookup in O(1)."""
        index, h = self.index, self.hull_count
        adj = [bytearray(len(self.edges)) for _ in self.edges]
        for e, (start, length) in self.far_arc.items():
            i = index[e]
            for step in range(length):
                j = index[(0, (start + step - 1) % h + 1)]
                adj[i][j] = adj[j][i] = 1
        for a, c, b, d in combinations(range(1, h + 1), 4):
            i = index[(a, b)]
            j = index[(c, d)]
            adj[i][j] = adj[j][i] = 1
        return tuple(bytes(row) for row in adj)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The crossings as compressed sparse rows (start, flat): the indices
        of the edges crossing edge i are flat[start[i]:start[i + 1]],
        ascending.  Two flat tuples rather than one tuple per edge: per-edge
        tuples raised the peak memory of a sweep over the 391 atlas wheels by
        about 1.6 MB."""
        start, flat = [0], []
        for row in self.crossings:
            flat.extend(compress(count(), row))
            start.append(len(flat))
        return tuple(start), tuple(flat)

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
    tuple and dict, shared and not to be modified."""

    def __init__(self, model: WheelModel):
        t = wheel_tables(model)
        self.model = model
        self.edges = t.edges
        self.index = t.index
        self._tables = t
        self._adj = t.crossings

    def crosses(self, e: EdgeId, f: EdgeId) -> bool:
        return self._adj[self.index[e]][self.index[f]] == 1

    def neighbor_indices(self, i: int) -> set[int]:
        start, flat = self._tables.adjacency
        return set(flat[start[i] : start[i + 1]])

    def degree(self, e: EdgeId) -> int:
        start, _ = self._tables.adjacency
        i = self.index[e]
        return start[i + 1] - start[i]

    def crossing_pairs(self) -> set[tuple[EdgeId, EdgeId]]:
        es = self.edges
        start, flat = self._tables.adjacency
        return {(es[i], es[flat[k]]) for i in range(len(es)) for k in range(start[i], start[i + 1]) if flat[k] > i}


def crossing_graph(model: WheelModel) -> CrossingGraph:
    return CrossingGraph(model)


def geometric_crossing_pairs(ps: PointSet) -> set[tuple[EdgeId, EdgeId]]:
    """All properly crossing edge pairs of the complete graph on ps (exact),
    each as (e, f) with e < f.  Each 4-subset a < b < c < d is split into its
    three pairings ab|cd, ac|bd and ad|bc, and each is tested on its own with
    the `segments_cross` predicate, rewritten over the four signs abc, abd,
    acd and bcd; so the set is the pairwise one even on degenerate input."""
    table, m = ps._orientations, len(ps.points)
    out = set()
    for a in range(m):
        for b in range(a + 1, m):
            ab = (a * m + b) * m
            for c in range(b + 1, m):
                abc, ac, bc = table[ab + c], (a * m + c) * m, (b * m + c) * m
                for d in range(c + 1, m):
                    abd, acd, bcd = table[ab + d], table[ac + d], table[bc + d]
                    # entries are 1 + sign, so sign(x) == -sign(y) reads x + y == 2
                    if abc != abd and acd != bcd:
                        out.add(((a, b), (c, d)))
                    if abc + acd != 2 and abd + bcd != 2:
                        out.add(((a, c), (b, d)))
                    if abd != acd and abc != bcd:
                        out.add(((a, d), (b, c)))
    return out


def _crossings_match(t: WheelTables, pairs: set[tuple[EdgeId, EdgeId]], relabel) -> bool:
    """True iff the edge pairs, with every vertex v renamed relabel[v] (a
    bijection), are exactly the crossing pairs of the model with tables t.
    Every edge pair is decided: pairs inside the crossings plus equal counts
    leave none out."""
    adj = t.crossings
    if 2 * len(pairs) != b"".join(adj).count(1):
        return False
    m = len(relabel)
    inverse = [0] * m
    for v, r in enumerate(relabel):
        inverse[r] = v
    renamed = [0] * (m * m)  # renamed[a*m + b]: index of edge(relabel[a], relabel[b])
    for i, (a, b) in enumerate(t.edges):
        a, b = inverse[a], inverse[b]
        renamed[a * m + b] = renamed[b * m + a] = i
    for (a, b), (c, d) in pairs:
        if not adj[renamed[a * m + b]][renamed[c * m + d]]:
            return False
    return True


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
    realization is in general position, reproduces the combinatorial crossing
    pairs exactly, and no (k+1)/2 consecutive groups see the center inside
    their hull."""
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
    if len(set(ps._homog)) != len(ps._homog):  # a repeated point; ints hash faster than Fractions
        return False
    if not in_general_position(ps):
        return False
    # center excluded from the hull of every (k+1)/2 consecutive groups
    k = model.k
    for start in range(1, k + 1):
        window = []
        for g in range(start, start + (k + 1) // 2):
            window.extend(model.group_vertices(g))
        if _inside_convex(ps, 0, window):
            return False
    # combinatorial and geometric crossings must agree on every edge pair
    return _crossings_match(wheel_tables(model), geometric_crossing_pairs(ps), range(len(ps)))


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


def opposite_boundary_edge(ps: PointSet, v: int) -> EdgeId:
    """The unique boundary edge {u,w} with the interior point strictly inside
    the triangle (v, u, w)."""
    hull, interior = hull_and_interior(ps)
    if len(interior) != 1:
        raise ValueError(f"expected exactly one interior point, found {len(interior)}")
    if v == interior[0]:
        raise ValueError("v must be a hull vertex")
    return _opposite_boundary_edge(ps, hull, interior[0], v)


def _opposite_boundary_edge(ps: PointSet, hull: list[int], v0: int, v: int) -> EdgeId:
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

    # split property: each vertex's opposite edge leaves equally many groups
    # on both sides
    group_of_point = {}
    g = 1
    cnt = 0
    for v in order:
        group_of_point[v] = g
        cnt += 1
        if cnt == sizes[g - 1]:
            g += 1
            cnt = 0
    kk = model.k
    pos_in_order = {v: t for t, v in enumerate(order)}
    for v in hull:
        u, w = opp[v]
        gu, gw = group_of_point[u], group_of_point[w]
        # clockwise order: earlier hull position comes first within the pair
        if (pos_in_order[w] - pos_in_order[u]) % m != 1:
            gu, gw = gw, gu
        gv = group_of_point[v]
        if (gu - gv) % kk != (gv - gw) % kk:
            raise ValueError("opposite edge does not split groups evenly; predicate bug")

    # crossing structure must be preserved under the order-preserving map
    relabel = [0] * len(ps)
    for t, v in enumerate(order):
        relabel[v] = t + 1
    if not _crossings_match(wheel_tables(model), geometric_crossing_pairs(ps), relabel):
        raise ValueError("crossing structure changed under canonicalization; predicate bug")
    return model
