"""Pure-Python backtracking kernel for the partition solver.

Its compiled twin, `kernel.c` (built and loaded by `ckernel`), searches the
identical tree: both must produce the same status, node count, max depth,
search fingerprint, witness and list of solutions for the same input.  Both
keep crossing conflicts as per-colour bitsets, this kernel over Python ints and
`kernel.c` over 64-bit words, so any change to the branching order or to a
pruning condition is made in both.

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
    symmetry_breaking,
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
    pre_count = len(pre_colors)  # the first pre_count edges of `order` get pre_colors

    colors = [-1] * n_edges
    # bit f of blocked[c]: f crosses some edge coloured c
    blocked = [0] * m
    others = [[d for d in range(m) if d != c] for c in range(m)]
    # per-color union-find (no path compression, union by size, rollbackable)
    parent = [v for _ in range(m) for v in range(num_vertices)]
    usize = [1] * (m * num_vertices)
    deg = [0] * (m * num_vertices)
    touched = [0] * num_vertices  # colors with degree > 0 at this vertex
    avail = [0] * num_vertices  # unassigned incident edges
    u1 = [-1] * m  # internal vertices per class (double-star mode)
    u2 = [-1] * m
    edge_of = [-1] * (num_vertices * num_vertices)  # vertex pair -> edge index, -1 if no edge
    for i in range(n_edges):
        avail[ea[i]] += 1
        avail[eb[i]] += 1
        edge_of[ea[i] * num_vertices + eb[i]] = edge_of[eb[i] * num_vertices + ea[i]] = i

    max_used = -1
    nodes = 0
    max_depth = 0
    fingerprint = FNV_OFFSET
    solutions = []
    witness = None
    status = STATUS_UNSAT

    structural = mode != MODE_SUBGRAPH

    # trail entries per depth:
    # (e, c, union_child, union_winner, int_a, int_b, prev_max, prev_blocked)
    trail = [None] * (n_edges + 1)

    def try_assign(e, c, depth):
        """Colour e with c unless a constraint refuses it.  The caller has
        already checked that no edge coloured c crosses e."""
        nonlocal max_used, nodes, max_depth, fingerprint
        a = ea[e]
        b = eb[e]
        base = c * num_vertices
        ra = rb = -1
        if structural:
            # roots of a and b in colour c's union-find
            ra = a
            while parent[base + ra] != ra:
                ra = parent[base + ra]
            rb = b
            while parent[base + rb] != rb:
                rb = parent[base + rb]
            if ra == rb:
                return False
            # coverage: every remaining color must still be reachable at a, b
            da = deg[base + a]
            db = deg[base + b]
            if avail[a] - 1 < m - touched[a] - (1 if da == 0 else 0):
                return False
            if avail[b] - 1 < m - touched[b] - (1 if db == 0 else 0):
                return False
            if mode == MODE_DOUBLE_STAR:
                ia = da == 1  # a becomes internal
                ib = db == 1
                ni = (u1[c] >= 0) + (u2[c] >= 0) + ia + ib
                if ni > 2:
                    return False
                if ni == 2:
                    vs = [v for v in (u1[c], u2[c]) if v >= 0]
                    if ia:
                        vs.append(a)
                    if ib:
                        vs.append(b)
                    # the two internal vertices need their spine edge, in colour c
                    spine = edge_of[vs[0] * num_vertices + vs[1]]
                    if spine < 0 or (spine != e and colors[spine] >= 0 and colors[spine] != c):
                        return False
        # wipeout: an edge newly blocked in c has no colour left.  It is unassigned:
        # an edge coloured d is not in blocked[d], one coloured c cannot cross e
        prev_blocked = blocked[c]
        wiped = cross[e] & ~prev_blocked
        for d in others[c]:
            if not wiped:
                break
            wiped &= blocked[d]
        if wiped:
            return False
        # commit
        blocked[c] = prev_blocked | cross[e]
        colors[e] = c
        avail[a] -= 1
        avail[b] -= 1
        union_child = union_winner = -1
        int_a = int_b = -1
        if structural:
            if usize[base + ra] < usize[base + rb]:
                ra, rb = rb, ra
            parent[base + rb] = ra
            usize[base + ra] += usize[base + rb]
            union_child, union_winner = rb, ra
            deg[base + a] += 1
            if deg[base + a] == 1:
                touched[a] += 1
            deg[base + b] += 1
            if deg[base + b] == 1:
                touched[b] += 1
            if mode == MODE_DOUBLE_STAR:
                if deg[base + a] == 2:
                    int_a = a
                    if u1[c] < 0:
                        u1[c] = a
                    else:
                        u2[c] = a
                if deg[base + b] == 2:
                    int_b = b
                    if u1[c] < 0:
                        u1[c] = b
                    else:
                        u2[c] = b
        prev_max = max_used
        if c > max_used:
            max_used = c
        trail[depth] = (e, c, union_child, union_winner, int_a, int_b, prev_max, prev_blocked)
        nodes += 1
        if depth + 1 > max_depth:
            max_depth = depth + 1
        fingerprint = ((fingerprint ^ (e * 1000003 + c + 1)) * FNV_PRIME) & MASK64
        return True

    def unassign(depth):
        nonlocal max_used
        e, c, union_child, union_winner, int_a, int_b, prev_max, prev_blocked = trail[depth]
        a = ea[e]
        b = eb[e]
        base = c * num_vertices
        max_used = prev_max
        if structural:
            if mode == MODE_DOUBLE_STAR:
                for v in (int_b, int_a):
                    if v >= 0:
                        if u2[c] == v:
                            u2[c] = -1
                        else:
                            u1[c] = u2[c]
                            u2[c] = -1
            deg[base + b] -= 1
            if deg[base + b] == 0:
                touched[b] -= 1
            deg[base + a] -= 1
            if deg[base + a] == 0:
                touched[a] -= 1
            usize[base + union_winner] -= usize[base + union_child]
            parent[base + union_child] = union_child
        avail[a] += 1
        avail[b] += 1
        colors[e] = -1
        blocked[c] = prev_blocked

    depth = 0
    choice = [-1] * (n_edges + 1)
    aborted = False
    while True:
        if depth == n_edges:
            if collect_all:
                solutions.append(list(colors))
                depth -= 1
                unassign(depth)
                continue
            witness = list(colors)
            status = STATUS_SAT
            break
        e = order[depth]
        if depth < pre_count:
            lo = pre_colors[depth]
            hi = lo
        else:
            lo = 0
            hi = (max_used + 1 if max_used + 1 < m else m - 1) if symmetry_breaking else m - 1
        c = choice[depth] + 1
        if c < lo:
            c = lo
        advanced = False
        while c <= hi:
            if not blocked[c] >> e & 1 and try_assign(e, c, depth):
                choice[depth] = c
                depth += 1
                choice[depth] = -1
                advanced = True
                break
            c += 1
        if advanced:
            if node_limit and nodes >= node_limit:
                aborted = True
                break
            if time_limit and (nodes & 0xFFFF) == 0 and time.monotonic() - t0 > time_limit:
                aborted = True
                break
            continue
        if depth == 0:
            break
        depth -= 1
        unassign(depth)

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
