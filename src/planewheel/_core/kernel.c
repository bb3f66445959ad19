/* Compiled backtracking kernel, the twin of search_py.py.

   Both kernels search the identical tree: for the same input they report the
   same status, node count, max depth, search fingerprint, witness and list of
   solutions.  They share the branching order and every pruning condition,
   not the state layout: this kernel keeps one row of 64-bit words per colour,
   search_py one edge-major Python int with m + 1 bits per edge.  Any change to
   the branching order or to a pruning condition is made in both.

   No Python C-API: the inputs are flat arrays, the results go to
   out-buffers the caller owns, and each all-solutions leaf is passed to a
   callback.  ckernel.py builds this file and loads it with ctypes.

   Modes: 0 = plane subgraph colouring, 1 = spanning trees, 2 = double stars.

   Colour symmetry is broken only by pre_colors: a preassigned depth allows its
   one colour, every other depth all m.  solve() preassigns a pairwise-crossing
   family of at least m - 1 edges the colours 0, 1, 2, ..., which leaves no two
   colours interchangeable.

   The structural modes test only that each class stays acyclic (and, for
   double stars, the spine rule).  They assume E = m(nv - 1), which solve()
   always passes: m = n colours on 2n points.  Then every leaf is a partition
   into spanning trees: each class is a forest, so it has at most nv - 1 edges;
   the m classes share all m(nv - 1) edges, so each has exactly nv - 1 and is a
   spanning tree. */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { MODE_SUBGRAPH = 0, MODE_TREE = 1, MODE_DOUBLE_STAR = 2 };
enum { PW_UNSAT = 0, PW_SAT = 1, PW_LIMIT = 2, PW_NO_MEMORY = -1 };

#define FNV_OFFSET 0xCBF29CE484222325ULL
#define FNV_PRIME 0x100000001B3ULL
/* trail entry per depth: e, c, union_child, union_winner, int_a, int_b */
#define TRAIL 6

typedef void (*pw_leaf_fn)(const int *colors);

typedef struct {
    int nv, m, mode, structural;
    int words; /* 64-bit words per bitset row */
    const int *ea, *eb;
    const uint64_t *cross; /* bit f of row e: edge f crosses edge e */
    int *edge_of;          /* vertex pair -> edge index, -1 if no edge */
    int *colors;
    uint64_t *blocked; /* bit f of row c: f crosses some edge coloured c */
    uint64_t *saved;   /* per depth, blocked[c] before the commit coloured c */
    /* per-colour union-find (no path compression, union by size, rollbackable) */
    int *parent, *usize;
    /* double-star mode: per-colour vertex degrees and internal vertices per class */
    int *deg, *u1, *u2;
    int *trail;
} Kernel;

static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static int find(const int *parent, int base, int v) {
    while (parent[base + v] != v)
        v = parent[base + v];
    return v;
}

/* Colours e with c at the given depth unless a constraint refuses it. */
static int try_assign(Kernel *k, int e, int c, int depth) {
    int nv = k->nv, m = k->m;
    int a = k->ea[e], b = k->eb[e], base = c * nv;
    int ra = -1, rb = -1, w = k->words;
    uint64_t *blocked = k->blocked + (size_t)c * w;
    if (blocked[e / 64] >> (e % 64) & 1) /* an edge coloured c crosses e */
        return 0;
    if (k->structural) {
        ra = find(k->parent, base, a);
        rb = find(k->parent, base, b);
        if (ra == rb)
            return 0;
        if (k->mode == MODE_DOUBLE_STAR) {
            int vs[4], ni = 0, da = k->deg[base + a], db = k->deg[base + b];
            if (k->u1[c] >= 0)
                vs[ni++] = k->u1[c];
            if (k->u2[c] >= 0)
                vs[ni++] = k->u2[c];
            if (da == 1) /* a becomes internal */
                vs[ni++] = a;
            if (db == 1)
                vs[ni++] = b;
            if (ni > 2)
                return 0;
            if (ni == 2) { /* the two internal vertices need their spine edge, in colour c */
                int spine = k->edge_of[vs[0] * nv + vs[1]];
                if (spine < 0 || (spine != e && k->colors[spine] >= 0 && k->colors[spine] != c))
                    return 0;
            }
        }
    }
    /* wipeout: an edge newly blocked in c has no colour left.  It is unassigned:
       an edge coloured d is not in blocked[d], one coloured c cannot cross e */
    const uint64_t *row = k->cross + (size_t)e * w;
    for (int i = 0; i < w; i++) {
        uint64_t wiped = row[i] & ~blocked[i];
        for (int d = 0; d < m && wiped; d++)
            if (d != c)
                wiped &= k->blocked[(size_t)d * w + i];
        if (wiped)
            return 0;
    }
    /* commit */
    uint64_t *saved = k->saved + (size_t)depth * w;
    for (int i = 0; i < w; i++) {
        saved[i] = blocked[i];
        blocked[i] |= row[i];
    }
    k->colors[e] = c;
    int *t = k->trail + depth * TRAIL;
    t[0] = e;
    t[1] = c;
    t[2] = t[3] = t[4] = t[5] = -1;
    if (k->structural) {
        if (k->usize[base + ra] < k->usize[base + rb]) {
            int tmp = ra;
            ra = rb;
            rb = tmp;
        }
        k->parent[base + rb] = ra;
        k->usize[base + ra] += k->usize[base + rb];
        t[2] = rb;
        t[3] = ra;
        if (k->mode == MODE_DOUBLE_STAR) {
            if (++k->deg[base + a] == 2) {
                t[4] = a;
                if (k->u1[c] < 0)
                    k->u1[c] = a;
                else
                    k->u2[c] = a;
            }
            if (++k->deg[base + b] == 2) {
                t[5] = b;
                if (k->u1[c] < 0)
                    k->u1[c] = b;
                else
                    k->u2[c] = b;
            }
        }
    }
    return 1;
}

static void unassign(Kernel *k, int depth) {
    const int *t = k->trail + depth * TRAIL;
    int e = t[0], c = t[1];
    int a = k->ea[e], b = k->eb[e], base = c * k->nv;
    if (k->structural) {
        if (k->mode == MODE_DOUBLE_STAR) {
            for (int i = 5; i >= 4; i--) { /* int_b, then int_a */
                if (t[i] < 0)
                    continue;
                if (k->u2[c] != t[i])
                    k->u1[c] = k->u2[c];
                k->u2[c] = -1;
            }
            k->deg[base + b]--;
            k->deg[base + a]--;
        }
        k->usize[base + t[3]] -= k->usize[base + t[2]];
        k->parent[base + t[2]] = t[2];
    }
    k->colors[e] = -1;
    int w = k->words;
    memcpy(k->blocked + (size_t)c * w, k->saved + (size_t)depth * w, (size_t)w * sizeof(uint64_t));
}

/* Searches for a colouring of the n_edges edges (ea[i], eb[i]) with m colours.
   cross holds the crossing graph as one bitset row per edge of
   (n_edges + 63) / 64 words, lowest bits in the first word; edges are
   branched on in `order`, and the first pre_count of them get pre_colors.
   In MODE_DOUBLE_STAR the spine of two internal vertices is looked up from
   ea/eb.  node_limit and time_limit are off at 0; the clock is read every
   2^16 nodes.  With collect_all, each complete colouring is passed to
   on_leaf.

   Returns PW_SAT, PW_UNSAT or PW_LIMIT and fills the out-buffers: witness
   (n_edges ints, written on PW_SAT unless collect_all), nodes, max_depth,
   fingerprint and elapsed seconds.  Returns PW_NO_MEMORY if an allocation
   fails. */
int pw_search(int nv, int m, int n_edges, const int *ea, const int *eb,
              const uint64_t *cross, const int *order, int pre_count,
              const int *pre_colors, int mode, long long node_limit, double time_limit,
              int collect_all, pw_leaf_fn on_leaf, int *witness,
              long long *nodes_out, int *max_depth_out, uint64_t *fingerprint_out,
              double *elapsed_out) {
    double t0 = now();
    size_t ne = (size_t)n_edges + 1, nm = (size_t)m * (size_t)nv + 1;
    size_t nn = (size_t)nv * (size_t)nv + 1, words = ((size_t)n_edges + 63) / 64;
    Kernel k = {.nv = nv, .m = m, .mode = mode, .structural = mode != MODE_SUBGRAPH,
                .words = (int)words, .ea = ea, .eb = eb, .cross = cross};
    k.edge_of = malloc(nn * sizeof(int));
    k.colors = malloc(ne * sizeof(int));
    k.blocked = calloc((size_t)m * words + 1, sizeof(uint64_t));
    k.saved = malloc((ne * words + 1) * sizeof(uint64_t));
    k.parent = malloc(nm * sizeof(int));
    k.usize = malloc(nm * sizeof(int));
    k.deg = calloc(nm, sizeof(int));
    k.u1 = malloc(((size_t)m + 1) * sizeof(int));
    k.u2 = malloc(((size_t)m + 1) * sizeof(int));
    k.trail = malloc(ne * TRAIL * sizeof(int));
    int *choice = malloc(ne * sizeof(int));
    int status = PW_NO_MEMORY;
    long long nodes = 0, solutions = 0;
    int depth = 0, max_depth = 0, aborted = 0;
    uint64_t fingerprint = FNV_OFFSET;

    if (!k.edge_of || !k.colors || !k.blocked || !k.saved || !k.parent || !k.usize ||
        !k.deg || !k.u1 || !k.u2 || !k.trail || !choice)
        goto done;
    for (size_t i = 0; i < nn; i++)
        k.edge_of[i] = -1;
    for (int i = 0; i < n_edges; i++) {
        k.colors[i] = -1;
        k.edge_of[ea[i] * nv + eb[i]] = k.edge_of[eb[i] * nv + ea[i]] = i;
    }
    for (int c = 0; c < m; c++) {
        k.u1[c] = k.u2[c] = -1;
        for (int v = 0; v < nv; v++) {
            k.parent[c * nv + v] = v;
            k.usize[c * nv + v] = 1;
        }
    }
    status = PW_UNSAT;
    choice[0] = -1;
    for (;;) {
        if (depth == n_edges) {
            if (collect_all) {
                solutions++;
                on_leaf(k.colors);
                unassign(&k, --depth);
                continue;
            }
            for (int i = 0; i < n_edges; i++)
                witness[i] = k.colors[i];
            status = PW_SAT;
            break;
        }
        /* a preassigned depth allows its one colour, every other depth all m */
        int e = order[depth], lo = 0, hi = m - 1;
        if (depth < pre_count)
            lo = hi = pre_colors[depth];
        int c = choice[depth] + 1;
        if (c < lo)
            c = lo;
        while (c <= hi && !try_assign(&k, e, c, depth))
            c++;
        if (c <= hi) {
            nodes++;
            if (depth + 1 > max_depth)
                max_depth = depth + 1;
            fingerprint = (fingerprint ^ (uint64_t)((long long)e * 1000003 + c + 1)) * FNV_PRIME;
            choice[depth] = c;
            choice[++depth] = -1;
            if (node_limit && nodes >= node_limit) {
                aborted = 1;
                break;
            }
            if (time_limit != 0.0 && (nodes & 0xFFFF) == 0 && now() - t0 > time_limit) {
                aborted = 1;
                break;
            }
            continue;
        }
        if (depth == 0)
            break;
        unassign(&k, --depth);
    }
    if (aborted)
        status = PW_LIMIT;
    else if (collect_all && solutions)
        status = PW_SAT;

done:
    free(k.edge_of);
    free(k.colors);
    free(k.blocked);
    free(k.saved);
    free(k.parent);
    free(k.usize);
    free(k.deg);
    free(k.u1);
    free(k.u2);
    free(k.trail);
    free(choice);
    *nodes_out = nodes;
    *max_depth_out = max_depth;
    *fingerprint_out = fingerprint;
    *elapsed_out = now() - t0;
    return status;
}
