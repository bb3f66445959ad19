/* Compiled backtracking kernel, the twin of search_py.py.

   Both kernels search the identical tree: for the same input they report the
   same status, node count, max depth, search fingerprint, witness and list of
   solutions.  They need not agree line by line -- this kernel keeps crossing
   conflicts as counts (conflicts[f * m + c] edges coloured c cross edge f,
   forbidden[f] colours are blocked at f), search_py as per-colour bitsets --
   but any change to the branching order or to a pruning condition must be
   made in both.

   No Python C-API: the inputs are flat int arrays, the results go to
   out-buffers the caller owns, and each all-solutions leaf is passed to a
   callback.  ckernel.py builds this file and loads it with ctypes.

   Modes: 0 = plane subgraph colouring, 1 = spanning trees, 2 = double stars. */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <time.h>

enum { MODE_SUBGRAPH = 0, MODE_TREE = 1, MODE_DOUBLE_STAR = 2 };
enum { PW_UNSAT = 0, PW_SAT = 1, PW_LIMIT = 2, PW_NO_MEMORY = -1 };

#define FNV_OFFSET 0xCBF29CE484222325ULL
#define FNV_PRIME 0x100000001B3ULL
/* trail entry per depth: e, c, union_child, union_winner, int_a, int_b, prev_max */
#define TRAIL 7

typedef void (*pw_leaf_fn)(const int *colors);

typedef struct {
    int nv, m, mode, structural;
    const int *ea, *eb, *adj_start, *adj_flat;
    int *edge_of; /* vertex pair -> edge index, -1 if no edge */
    int *colors, *conflicts, *forbidden;
    /* per-colour union-find (no path compression, union by size, rollbackable) */
    int *parent, *usize, *deg;
    int *touched; /* colours with degree > 0 at a vertex */
    int *avail;   /* unassigned edges incident to a vertex */
    int *u1, *u2; /* internal vertices per class (double-star mode) */
    int *trail;
    int max_used;
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

/* Adds (add = 1) or removes (add = -1) the conflicts edge e coloured c puts on
   its crossing neighbours.  Returns 1 if adding leaves a neighbour with every
   colour blocked (a wipeout).  That neighbour is unassigned: an edge coloured
   d never conflicts with d, and one coloured c cannot cross e, or e would
   conflict with c. */
static int mark_conflicts(Kernel *k, int e, int c, int add) {
    int wipeout = 0;
    for (int j = k->adj_start[e]; j < k->adj_start[e + 1]; j++) {
        int f = k->adj_flat[j];
        int fc = f * k->m + c;
        k->conflicts[fc] += add;
        if (add > 0 && k->conflicts[fc] == 1) {
            k->forbidden[f]++;
            if (k->forbidden[f] == k->m)
                wipeout = 1;
        } else if (add < 0 && k->conflicts[fc] == 0) {
            k->forbidden[f]--;
        }
    }
    return wipeout;
}

/* Colours e with c at the given depth unless a constraint refuses it. */
static int try_assign(Kernel *k, int e, int c, int depth) {
    int nv = k->nv, m = k->m;
    int a = k->ea[e], b = k->eb[e], base = c * nv;
    int ra = -1, rb = -1;
    if (k->conflicts[e * m + c] > 0)
        return 0;
    if (k->structural) {
        ra = find(k->parent, base, a);
        rb = find(k->parent, base, b);
        if (ra == rb)
            return 0;
        /* coverage: every remaining colour must still be reachable at a, b */
        int da = k->deg[base + a], db = k->deg[base + b];
        if (k->avail[a] - 1 < m - k->touched[a] - (da == 0))
            return 0;
        if (k->avail[b] - 1 < m - k->touched[b] - (db == 0))
            return 0;
        if (k->mode == MODE_DOUBLE_STAR) {
            int vs[4], ni = 0;
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
    if (mark_conflicts(k, e, c, 1)) {
        mark_conflicts(k, e, c, -1);
        return 0;
    }
    /* commit */
    k->colors[e] = c;
    k->avail[a]--;
    k->avail[b]--;
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
        if (++k->deg[base + a] == 1)
            k->touched[a]++;
        if (++k->deg[base + b] == 1)
            k->touched[b]++;
        if (k->mode == MODE_DOUBLE_STAR) {
            if (k->deg[base + a] == 2) {
                t[4] = a;
                if (k->u1[c] < 0)
                    k->u1[c] = a;
                else
                    k->u2[c] = a;
            }
            if (k->deg[base + b] == 2) {
                t[5] = b;
                if (k->u1[c] < 0)
                    k->u1[c] = b;
                else
                    k->u2[c] = b;
            }
        }
    }
    t[6] = k->max_used;
    if (c > k->max_used)
        k->max_used = c;
    return 1;
}

static void unassign(Kernel *k, int depth) {
    const int *t = k->trail + depth * TRAIL;
    int e = t[0], c = t[1];
    int a = k->ea[e], b = k->eb[e], base = c * k->nv;
    k->max_used = t[6];
    if (k->structural) {
        if (k->mode == MODE_DOUBLE_STAR) {
            for (int i = 5; i >= 4; i--) { /* int_b, then int_a */
                if (t[i] < 0)
                    continue;
                if (k->u2[c] != t[i])
                    k->u1[c] = k->u2[c];
                k->u2[c] = -1;
            }
        }
        if (--k->deg[base + b] == 0)
            k->touched[b]--;
        if (--k->deg[base + a] == 0)
            k->touched[a]--;
        k->usize[base + t[3]] -= k->usize[base + t[2]];
        k->parent[base + t[2]] = t[2];
    }
    k->avail[a]++;
    k->avail[b]++;
    k->colors[e] = -1;
    mark_conflicts(k, e, c, -1);
}

/* Searches for a colouring of the n_edges edges (ea[i], eb[i]) with m colours.
   adj_start/adj_flat hold the crossing graph as compressed sparse rows; edges
   are branched on in `order`, and the first pre_count of them get pre_colors.
   In MODE_DOUBLE_STAR the spine of two internal vertices is looked up from
   ea/eb.  node_limit and time_limit are off at 0; the clock is read every
   2^16 nodes.  With collect_all, each complete colouring is passed to
   on_leaf.

   Returns PW_SAT, PW_UNSAT or PW_LIMIT and fills the out-buffers: witness
   (n_edges ints, written on PW_SAT unless collect_all), nodes, max_depth,
   fingerprint and elapsed seconds.  Returns PW_NO_MEMORY if an allocation
   fails. */
int pw_search(int nv, int m, int n_edges, const int *ea, const int *eb,
              const int *adj_start, const int *adj_flat, const int *order, int pre_count,
              const int *pre_colors, int mode, long long node_limit, double time_limit,
              int symmetry_breaking, int collect_all, pw_leaf_fn on_leaf, int *witness,
              long long *nodes_out, int *max_depth_out, uint64_t *fingerprint_out,
              double *elapsed_out) {
    double t0 = now();
    size_t ne = (size_t)n_edges + 1, nm = (size_t)m * (size_t)nv + 1;
    size_t nn = (size_t)nv * (size_t)nv + 1;
    Kernel k = {.nv = nv, .m = m, .mode = mode, .structural = mode != MODE_SUBGRAPH,
                .ea = ea, .eb = eb, .adj_start = adj_start, .adj_flat = adj_flat, .max_used = -1};
    k.edge_of = malloc(nn * sizeof(int));
    k.colors = malloc(ne * sizeof(int));
    k.conflicts = calloc(ne * (size_t)m, sizeof(int));
    k.forbidden = calloc(ne, sizeof(int));
    k.parent = malloc(nm * sizeof(int));
    k.usize = malloc(nm * sizeof(int));
    k.deg = calloc(nm, sizeof(int));
    k.touched = calloc((size_t)nv + 1, sizeof(int));
    k.avail = calloc((size_t)nv + 1, sizeof(int));
    k.u1 = malloc(((size_t)m + 1) * sizeof(int));
    k.u2 = malloc(((size_t)m + 1) * sizeof(int));
    k.trail = malloc(ne * TRAIL * sizeof(int));
    int *choice = malloc(ne * sizeof(int));
    int status = PW_NO_MEMORY;
    long long nodes = 0, solutions = 0;
    int depth = 0, max_depth = 0, aborted = 0;
    uint64_t fingerprint = FNV_OFFSET;

    if (!k.edge_of || !k.colors || !k.conflicts || !k.forbidden || !k.parent || !k.usize ||
        !k.deg || !k.touched || !k.avail || !k.u1 || !k.u2 || !k.trail || !choice)
        goto done;
    for (size_t i = 0; i < nn; i++)
        k.edge_of[i] = -1;
    for (int i = 0; i < n_edges; i++) {
        k.colors[i] = -1;
        k.avail[ea[i]]++;
        k.avail[eb[i]]++;
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
        int e = order[depth], lo, hi;
        if (depth < pre_count) {
            lo = hi = pre_colors[depth];
        } else {
            lo = 0;
            hi = m - 1;
            if (symmetry_breaking && k.max_used + 1 < m)
                hi = k.max_used + 1;
        }
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
    free(k.conflicts);
    free(k.forbidden);
    free(k.parent);
    free(k.usize);
    free(k.deg);
    free(k.touched);
    free(k.avail);
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
