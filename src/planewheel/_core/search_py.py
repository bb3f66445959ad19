"""Pure-Python backtracking kernel for the partition solver.

Its compiled twin, `kernel.c` (built and loaded by `ckernel`), searches the
identical tree: both must produce the same status, node count, max depth,
search fingerprint, witness and list of solutions for the same input.  The
twins share the branching order and every pruning condition, not the state
layout: this kernel holds all crossing conflicts in one edge-major Python int,
`kernel.c` holds one row of 64-bit words per colour.  Any change to the
branching order or to a pruning condition is made in both.

The per-node path reads each depth's edge, ends, conflict offset, spread row
and fingerprint term from one tuple built per call, and keeps one union-find
(parent, size) list per colour, plus one degree list per colour in
double-star mode.

Colour symmetry is broken only by `pre_colors`: a preassigned depth allows its
one colour, every other depth all m, so each depth's allowed colours are fixed
for the whole search.  `solve` preassigns a pairwise-crossing family of at
least m - 1 edges the colours 0, 1, 2, ..., which leaves no two colours
interchangeable.

The structural modes test only that each class stays acyclic (and, for
double stars, the spine rule).  They assume E = m(nv - 1), which `solve`
always passes: m = n colours on 2n points.  Then every leaf is a partition
into spanning trees: each class is a forest, so it has at most nv - 1 edges;
the m classes share all m(nv - 1) edges, so each has exactly nv - 1 and is a
spanning tree.

Modes: 0 = plane subgraph coloring, 1 = spanning trees, 2 = double stars.
"""

from __future__ import annotations

import time

MASK64 = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

MODE_SUBGRAPH = 0
MODE_TREE = 1
MODE_DOUBLE_STAR = 2

STATUS_SAT = "SAT"
STATUS_UNSAT = "UNSAT"
STATUS_LIMIT = "LIMIT"


def search(
    num_vertices,
    m,
    ea,
    eb,
    cross,
    order,
    pre_colors,
    mode,
    node_limit,
    time_limit,
    collect_all,
):
    """Colour the edges (ea[i], eb[i]) with m colours so that no two crossing
    edges share one.  cross holds the crossing graph as one bitset per edge
    (bit f of cross[e]: edge f crosses edge e); edges are branched on in
    `order`, and the first len(pre_colors) of them get pre_colors.  In
    double-star mode the spine of two internal vertices is looked up from
    ea/eb.  node_limit and time_limit are off at 0; the clock is read every
    2^16 nodes.  With collect_all every complete colouring is returned in
    "solutions"."""
    n_edges = len(ea)
    t0 = time.monotonic()

    # Conflicts, edge-major: edge f owns bits f*s .. f*s+m of `blocked`.  Bit
    # f*s+c is set iff f crosses an edge coloured c; bit f*s+m is a guard that
    # stays 0, so adding `ones` carries into it exactly at an edge with all m
    # colours blocked.  spread[e] is cross[e] with bit f moved to f*s, in
    # log2(E) steps: the step for width w splits the edges into runs of 2w,
    # whose bits already sit at offsets 0..2w-1 of blocks of 2w*s bits, and
    # moves the upper w of each run up by w*m.
    s = m + 1
    spread = list(cross) + [(1 << n_edges) - 1]  # the last row becomes `ones`
    for j in reversed(range((n_edges - 1).bit_length())):
        w = 1 << j
        block = 2 * w * s
        runs = -(-n_edges // (2 * w))
        upper = ((1 << block * runs) - 1) // ((1 << block) - 1) * (((1 << w) - 1) << w)
        spread = [x & ~upper | (x & upper) << w * m for x in spread]
    ones = spread.pop()
    guards = ones << m
    blocked = 0
    # per depth: the edge branched on, its ends, its conflict-group offset, its
    # spread row, its fingerprint term less the colour, and its allowed colours
    # (its preassigned colour, else all m)
    allowed = [1 << c for c in pre_colors] + [(1 << m) - 1] * (n_edges - len(pre_colors))
    rows = [(e, ea[e], eb[e], e * s, spread[e], e * 1000003 + 1, al) for e, al in zip(order, allowed)]

    colors = [-1] * n_edges
    # per-colour union-find (no path compression, union by size, rollbackable)
    parent = [list(range(num_vertices)) for _ in range(m)]
    usize = [[1] * num_vertices for _ in range(m)]
    # double-star mode: per-colour vertex degrees and internal vertices per class
    deg = [[0] * num_vertices for _ in range(m)]
    u1 = [-1] * m
    u2 = [-1] * m
    edge_of = [-1] * (num_vertices * num_vertices)  # vertex pair -> edge index, -1 if no edge
    for i in range(n_edges):
        edge_of[ea[i] * num_vertices + eb[i]] = edge_of[eb[i] * num_vertices + ea[i]] = i

    nodes = 0
    max_depth = 0
    fingerprint = FNV_OFFSET
    solutions = []
    witness = None
    status = STATUS_UNSAT
    structural = mode != MODE_SUBGRAPH
    double_star = mode == MODE_DOUBLE_STAR
    # the next node count at which a limit is tested: node_limit, or the next
    # multiple of 2^16 for the clock
    never = 1 << 63
    stop = node_limit or never
    tick = 0x10000 if time_limit else never
    check = min(stop, tick)

    # trail per depth: the untried candidate colours, and what the commit
    # there changed (union child and winner, and the class's internal
    # vertices and `blocked` before it)
    cands = [0] * n_edges
    t_child = [0] * n_edges
    t_winner = [0] * n_edges
    t_u1 = [-1] * n_edges
    t_u2 = [-1] * n_edges
    t_blocked = [0] * n_edges

    depth = 0
    cand = -1  # -1 on entering a depth, before its candidate colours are read
    aborted = False
    while True:
        if cand < 0:
            if depth == n_edges:
                if not collect_all:
                    witness = list(colors)
                    status = STATUS_SAT
                    break
                solutions.append(list(colors))
                cand = 0
            else:
                e, a, b, es, sp, fe, al = rows[depth]
                # allowed colours that no edge crossing e holds
                cand = al ^ blocked >> es & al
        if not cand:
            if depth == 0:
                break
            # undo the commit at depth - 1 and resume its candidates
            depth -= 1
            e, a, b, es, sp, fe, al = rows[depth]
            c = colors[e]
            blocked = t_blocked[depth]
            cand = cands[depth]
            if structural:
                if double_star:
                    u1[c] = t_u1[depth]
                    u2[c] = t_u2[depth]
                    dg = deg[c]
                    dg[a] -= 1
                    dg[b] -= 1
                child = t_child[depth]
                us = usize[c]
                us[t_winner[depth]] -= us[child]
                parent[c][child] = child
            colors[e] = -1
            continue
        low = cand & -cand
        cand ^= low
        c = low.bit_length() - 1
        if structural:
            # roots of a and b in colour c's union-find
            par = parent[c]
            ra = a
            while (r := par[ra]) != ra:
                ra = r
            rb = b
            while (r := par[rb]) != rb:
                rb = r
            if ra == rb:
                continue
            if double_star:
                dg = deg[c]
                da = dg[a]
                db = dg[b]
                ia = da == 1  # a becomes internal
                ib = db == 1
                x = u1[c]
                y = u2[c]
                ni = (x >= 0) + (y >= 0) + ia + ib
                if ni > 2:
                    continue
                if ni == 2:
                    # the two internal vertices, first of u1, u2, a, b, need
                    # their spine edge, in colour c
                    if x < 0:
                        x, y = a, b
                    elif y < 0:
                        y = a if ia else b
                    spine = edge_of[x * num_vertices + y]
                    if spine < 0 or (spine != e and colors[spine] >= 0 and colors[spine] != c):
                        continue
        # wipeout: some edge would have every colour blocked.  Before this commit
        # none has, and an edge coloured d is never blocked in d
        new_blocked = blocked | sp << c
        if (new_blocked + ones) & guards:
            continue
        # commit
        cands[depth] = cand
        t_blocked[depth] = blocked
        blocked = new_blocked
        colors[e] = c
        if structural:
            us = usize[c]
            if us[ra] < us[rb]:
                ra, rb = rb, ra
            par[rb] = ra
            us[ra] += us[rb]
            t_child[depth] = rb
            t_winner[depth] = ra
            if double_star:
                dg[a] = da + 1
                dg[b] = db + 1
                t_u1[depth] = u1[c]
                t_u2[depth] = u2[c]
                if da == 1:  # a becomes internal
                    if u1[c] < 0:
                        u1[c] = a
                    else:
                        u2[c] = a
                if db == 1:
                    if u1[c] < 0:
                        u1[c] = b
                    else:
                        u2[c] = b
        nodes += 1
        depth += 1
        if depth > max_depth:
            max_depth = depth
        fingerprint = ((fingerprint ^ (fe + c)) * FNV_PRIME) & MASK64
        if nodes >= check:
            if nodes >= stop or time.monotonic() - t0 > time_limit:
                aborted = True
                break
            tick += 0x10000
            check = min(stop, tick)
        cand = -1

    if aborted:
        status = STATUS_LIMIT
    elif collect_all and solutions:
        status = STATUS_SAT

    return {
        "status": status,
        "assignment": witness,
        "solutions": solutions if collect_all else None,
        "nodes": nodes,
        "max_depth": max_depth,
        "fingerprint": fingerprint,
        "elapsed": time.monotonic() - t0,
    }
