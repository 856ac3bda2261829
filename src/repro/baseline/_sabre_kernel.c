/*
 * SABRE's SWAP decision loop, compiled (see repro/baseline/kernel.py).
 *
 * route() runs everything SabreRouter.run does after building the routing
 * DAG -- the ready-queue drain, the extended-set lookahead, scoring every
 * candidate SWAP, the tie-break, the SWAP itself and the decay -- and
 * returns the decisions as a list of events: an executed node index, or
 * -(edge + 1) for a SWAP on that edge id.  The caller replays the events
 * into gates.
 *
 * It reproduces the interpreted exact-integer path bit for bit:
 *
 *   - ``front`` is the caller's own set, mutated with PySet_Add and
 *     PySet_Discard in the interpreted loop's order and iterated with
 *     PyObject_GetIter, so the extended-set BFS seeds in the same order;
 *   - ties draw from the router's own ``integers`` method, one call per
 *     tied decision;
 *   - scores follow _DeltaScorer's arithmetic in doubles: base sums count
 *     duplicate pairs, deltas count unique (ordered) pairs, each base moves
 *     by the chosen SWAP's delta, and the score is
 *     max(decay) * ((base_f + d_f) / n_f + w * ((base_e + d_e) / n_e)).
 *     Distances are exact integers, so sums are exact in any order.
 *
 * Build with -ffp-contract=off (no fused multiply-add) and no fast-math.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>

#define TIE_EPS 1e-12

/* how a node drains */
enum { FREE = 0, GATE2 = 1, INVALID = 2 };

typedef struct {
    int *items;
    int len, cap;
} IntVec;

static int
vec_push(IntVec *v, int x)
{
    if (v->len == v->cap) {
        int cap = v->cap ? 2 * v->cap : 4;
        int *items = PyMem_Realloc(v->items, (size_t)cap * sizeof(int));
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        v->items = items;
        v->cap = cap;
    }
    v->items[v->len++] = x;
    return 0;
}

static void
vec_remove(IntVec *v, int x)
{
    for (int i = 0; i < v->len; i++) {
        if (v->items[i] == x) {
            v->items[i] = v->items[--v->len];
            return;
        }
    }
}

static int
cmp_int(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

static int
cmp_ll(const void *a, const void *b)
{
    long long x = *(const long long *)a, y = *(const long long *)b;
    return (x > y) - (x < y);
}

/* sort ascending and drop duplicates; returns the new length */
static int
sort_unique(int *items, int len)
{
    if (len < 2)
        return len;
    qsort(items, (size_t)len, sizeof(int), cmp_int);
    int out = 1;
    for (int i = 1; i < len; i++)
        if (items[i] != items[out - 1])
            items[out++] = items[i];
    return out;
}

typedef struct {
    PyObject *ops, *front, *integers, *events;
    int n_nodes, n_log, n_phys, n_edges;
    /* the DAG: successor lists in their given order, as CSR */
    int *succ_start, *succ, *in_degree;
    int *pair_p, *pair_q; /* a 2-qubit node's logical qubits, else -1 */
    char *kind;
    /* the device */
    double *dist;  /* n_phys x n_phys */
    char *coupled; /* n_phys x n_phys */
    int *edge_u, *edge_v;
    int *inc_start, *inc; /* each qubit's edge ids, ascending */
    int *l2p, *p2l;
    /* parameters */
    Py_ssize_t ext_limit, reset_interval;
    double weight, decay_factor;
    /* drain state */
    int executed, dirty;
    char *blocked;
    IntVec *blocked_by; /* blocked 2-qubit front gates per logical qubit */
    int *gen_a, *gen_b; /* generation buffers */
    /* front and extended set */
    int *front_nodes, *bfs_a, *bfs_b, *ext_nodes, *seen;
    int stamp;
    long long *keys;
    IntVec *part_f, *part_e; /* partners over unique ordered pairs */
    int *touched, n_touched, *touch_mark, touch_stamp;
    double base_f, base_e, n_f, n_e;
    /* scoring */
    int *cand, n_cand, *edge_mark, edge_stamp, *best;
    double *cand_df, *cand_de, *decay;
} Kernel;

static void
kernel_free(Kernel *K)
{
    if (K->blocked_by)
        for (int i = 0; i < K->n_log; i++)
            PyMem_Free(K->blocked_by[i].items);
    if (K->part_f)
        for (int i = 0; i < K->n_log; i++)
            PyMem_Free(K->part_f[i].items);
    if (K->part_e)
        for (int i = 0; i < K->n_log; i++)
            PyMem_Free(K->part_e[i].items);
    void *buffers[] = {
        K->succ_start, K->succ, K->in_degree, K->pair_p, K->pair_q, K->kind,
        K->dist, K->coupled, K->edge_u, K->edge_v, K->inc_start, K->inc,
        K->l2p, K->p2l, K->blocked, K->blocked_by, K->gen_a, K->gen_b,
        K->front_nodes, K->bfs_a, K->bfs_b, K->ext_nodes, K->seen, K->keys,
        K->part_f, K->part_e, K->touched, K->touch_mark, K->cand,
        K->edge_mark, K->best, K->cand_df, K->cand_de, K->decay,
    };
    for (size_t i = 0; i < sizeof(buffers) / sizeof(buffers[0]); i++)
        PyMem_Free(buffers[i]);
}

static void *
zeroed(size_t count, size_t size)
{
    void *p = PyMem_Calloc(count ? count : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* an int in [lo, hi) */
static int
as_index(PyObject *obj, long lo, long hi, int *out)
{
    long value = PyLong_AsLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < lo || value >= hi) {
        PyErr_Format(PyExc_ValueError, "index %ld outside [%ld, %ld)", value, lo, hi);
        return -1;
    }
    *out = (int)value;
    return 0;
}

/* ``len(seq)`` items of a list of ints, each in [lo, hi) */
static int
int_list(PyObject *seq, Py_ssize_t expect, long lo, long hi, int *out)
{
    if (!PyList_Check(seq) || PyList_GET_SIZE(seq) != expect) {
        PyErr_SetString(PyExc_TypeError, "expected a list of the right length");
        return -1;
    }
    for (Py_ssize_t i = 0; i < expect; i++)
        if (as_index(PyList_GET_ITEM(seq, i), lo, hi, &out[i]) < 0)
            return -1;
    return 0;
}

/* a list of ``rows`` lists of ints in [lo, hi), flattened to CSR */
static int
csr(PyObject *rows, Py_ssize_t n, long lo, long hi, int **start, int **items)
{
    if (!PyList_Check(rows) || PyList_GET_SIZE(rows) != n) {
        PyErr_SetString(PyExc_TypeError, "expected a list of lists");
        return -1;
    }
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PyList_GET_ITEM(rows, i);
        if (!PyList_Check(row)) {
            PyErr_SetString(PyExc_TypeError, "expected a list of lists");
            return -1;
        }
        total += PyList_GET_SIZE(row);
    }
    if (total >= INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many entries");
        return -1;
    }
    if (!(*start = zeroed((size_t)n + 1, sizeof(int))) ||
        !(*items = zeroed((size_t)total, sizeof(int))))
        return -1;
    int at = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PyList_GET_ITEM(rows, i);
        (*start)[i] = at;
        if (int_list(row, PyList_GET_SIZE(row), lo, hi, *items + at) < 0)
            return -1;
        at += (int)PyList_GET_SIZE(row);
    }
    (*start)[n] = at;
    return 0;
}

static int
bool_attr(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

static PyObject *str_qubits, *str_is_barrier, *str_is_measurement;

/* node kinds and pairs from the ops, as SabreRouter's drain reads them */
static int
read_ops(Kernel *K)
{
    for (int i = 0; i < K->n_nodes; i++) {
        PyObject *op = PyList_GET_ITEM(K->ops, i);
        PyObject *qubits = PyObject_GetAttr(op, str_qubits);
        if (qubits == NULL)
            return -1;
        Py_ssize_t n = PyObject_Length(qubits);
        int ok = n >= 0;
        K->pair_p[i] = K->pair_q[i] = -1;
        if (ok && n == 2) {
            PyObject *p = PySequence_GetItem(qubits, 0), *q = PySequence_GetItem(qubits, 1);
            ok = p && q && as_index(p, 0, K->n_log, &K->pair_p[i]) == 0 &&
                 as_index(q, 0, K->n_log, &K->pair_q[i]) == 0;
            Py_XDECREF(p);
            Py_XDECREF(q);
        }
        Py_DECREF(qubits);
        if (!ok)
            return -1;
        if (n == 2 && (K->l2p[K->pair_p[i]] < 0 || K->l2p[K->pair_q[i]] < 0)) {
            PyErr_SetString(PyExc_ValueError, "a 2-qubit operation uses an unmapped qubit");
            return -1;
        }
        K->kind[i] = FREE;
        if (n >= 2) {
            int barrier = bool_attr(op, str_is_barrier);
            int measurement = barrier == 0 ? bool_attr(op, str_is_measurement) : 0;
            if (barrier < 0 || measurement < 0)
                return -1;
            if (!barrier && !measurement)
                K->kind[i] = n == 2 ? GATE2 : INVALID;
        }
    }
    return 0;
}

static int
emit(Kernel *K, long value)
{
    PyObject *item = PyLong_FromLong(value);
    if (item == NULL)
        return -1;
    int status = PyList_Append(K->events, item);
    Py_DECREF(item);
    return status;
}

static int
front_update(Kernel *K, int node, int add)
{
    PyObject *key = PyLong_FromLong(node);
    if (key == NULL)
        return -1;
    int status = add ? PySet_Add(K->front, key) : PySet_Discard(K->front, key);
    Py_DECREF(key);
    return status < 0 ? -1 : 0;
}

/* Execute every executable gate of ``gen_a[:len]`` (ascending), generation
   by generation; blocked 2-qubit gates wait in their qubits' buckets. */
static int
drain(Kernel *K, int len)
{
    int *gen = K->gen_a, *ready = K->gen_b;
    while (len) {
        int n_ready = 0;
        for (int i = 0; i < len; i++) {
            int index = gen[i];
            if (K->kind[index] == GATE2) {
                int p = K->pair_p[index], q = K->pair_q[index];
                int a = K->l2p[p], b = K->l2p[q];
                if (!K->coupled[(size_t)a * K->n_phys + b]) {
                    if (!K->blocked[index]) {
                        K->blocked[index] = 1;
                        if (vec_push(&K->blocked_by[p], index) < 0 ||
                            vec_push(&K->blocked_by[q], index) < 0)
                            return -1;
                    }
                    continue;
                }
                if (K->blocked[index]) {
                    K->blocked[index] = 0;
                    vec_remove(&K->blocked_by[p], index);
                    vec_remove(&K->blocked_by[q], index);
                }
            }
            else if (K->kind[index] == INVALID) {
                PyErr_Format(PyExc_ValueError,
                             "baseline router only handles 1- and 2-qubit "
                             "operations; got %S",
                             PyList_GET_ITEM(K->ops, index));
                return -1;
            }
            if (emit(K, index) < 0 || front_update(K, index, 0) < 0)
                return -1;
            K->executed++;
            K->dirty = 1;
            for (int s = K->succ_start[index]; s < K->succ_start[index + 1]; s++) {
                int succ = K->succ[s];
                if (--K->in_degree[succ] == 0) {
                    if (front_update(K, succ, 1) < 0)
                        return -1;
                    ready[n_ready++] = succ;
                }
            }
        }
        qsort(ready, (size_t)n_ready, sizeof(int), cmp_int);
        int *swap = gen;
        gen = ready;
        ready = swap;
        len = n_ready;
    }
    return 0;
}

static void
touch(Kernel *K, int logical)
{
    if (K->touch_mark[logical] != K->touch_stamp) {
        K->touch_mark[logical] = K->touch_stamp;
        K->touched[K->n_touched++] = logical;
    }
}

/* partner lists of one group's unique ordered pairs ``keys[:len]`` */
static int
group_partners(Kernel *K, long long *keys, int len, IntVec *partners)
{
    qsort(keys, (size_t)len, sizeof(long long), cmp_ll);
    for (int i = 0; i < len; i++) {
        if (i && keys[i] == keys[i - 1])
            continue;
        int p = (int)(keys[i] / K->n_log), q = (int)(keys[i] % K->n_log);
        touch(K, p);
        touch(K, q);
        if (vec_push(&partners[p], q) < 0 || vec_push(&partners[q], p) < 0)
            return -1;
    }
    return 0;
}

/* the candidate SWAPs: edge ids touching a front qubit's position, ascending */
static void
candidates(Kernel *K)
{
    K->edge_stamp++;
    K->n_cand = 0;
    for (int t = 0; t < K->n_touched; t++) {
        int logical = K->touched[t];
        if (K->part_f[logical].len == 0)
            continue;
        int u = K->l2p[logical];
        for (int k = K->inc_start[u]; k < K->inc_start[u + 1]; k++) {
            int e = K->inc[k];
            if (K->edge_mark[e] != K->edge_stamp) {
                K->edge_mark[e] = K->edge_stamp;
                K->cand[K->n_cand++] = e;
            }
        }
    }
    qsort(K->cand, (size_t)K->n_cand, sizeof(int), cmp_int);
}

static double
distance(Kernel *K, int p, int q)
{
    return K->dist[(size_t)K->l2p[p] * K->n_phys + K->l2p[q]];
}

/* Adopt the drained front: its blocked pairs, the extended set, the partner
   lists, the base sums and the candidate SWAPs. */
static int
rebuild(Kernel *K)
{
    PyObject *it = PyObject_GetIter(K->front), *item;
    if (it == NULL)
        return -1;
    int n_front = 0;
    while ((item = PyIter_Next(it)) != NULL) {
        /* distinct node indices, so at most n_nodes of them */
        int status = as_index(item, 0, K->n_nodes, &K->front_nodes[n_front++]);
        Py_DECREF(item);
        if (status < 0) {
            Py_DECREF(it);
            return -1;
        }
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;

    /* after a drain the front holds exactly the blocked gates */
    for (int t = 0; t < K->n_touched; t++) {
        K->part_f[K->touched[t]].len = 0;
        K->part_e[K->touched[t]].len = 0;
    }
    K->n_touched = 0;
    K->touch_stamp++;
    double base_f = 0.0;
    for (int i = 0; i < n_front; i++) {
        int node = K->front_nodes[i];
        if (!K->blocked[node]) {
            PyErr_SetString(PyExc_RuntimeError, "front gate is not blocked");
            return -1;
        }
        int p = K->pair_p[node], q = K->pair_q[node];
        K->keys[i] = (long long)p * K->n_log + q;
        base_f += distance(K, p, q);
    }
    if (group_partners(K, K->keys, n_front, K->part_f) < 0)
        return -1;

    /* the extended set: breadth-first from the front in set order,
       truncated at ext_limit 2-qubit nodes */
    int ext_len = 0, cur_len = n_front;
    int *cur = K->front_nodes, *next = K->bfs_a;
    K->stamp++;
    while (cur_len && ext_len < K->ext_limit) {
        int next_len = 0;
        for (int i = 0; i < cur_len && ext_len < K->ext_limit; i++) {
            int index = cur[i];
            for (int s = K->succ_start[index]; s < K->succ_start[index + 1]; s++) {
                int succ = K->succ[s];
                if (K->seen[succ] == K->stamp)
                    continue;
                K->seen[succ] = K->stamp;
                if (K->pair_p[succ] >= 0) {
                    K->ext_nodes[ext_len++] = succ;
                    if (ext_len >= K->ext_limit)
                        break;
                }
                next[next_len++] = succ;
            }
        }
        cur = next;
        next = cur == K->bfs_a ? K->bfs_b : K->bfs_a;
        cur_len = next_len;
    }
    double base_e = 0.0;
    for (int i = 0; i < ext_len; i++) {
        int p = K->pair_p[K->ext_nodes[i]], q = K->pair_q[K->ext_nodes[i]];
        K->keys[i] = (long long)p * K->n_log + q;
        base_e += distance(K, p, q);
    }
    if (group_partners(K, K->keys, ext_len, K->part_e) < 0)
        return -1;

    K->base_f = base_f;
    K->base_e = base_e;
    K->n_f = n_front > 1 ? n_front : 1;
    K->n_e = ext_len > 1 ? ext_len : 1;
    if (n_front == 0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "router made no progress but no 2-qubit gate is blocked");
        return -1;
    }
    candidates(K);
    return 0;
}

/* D(u->v): the distance change of the pairs of u's occupant moving to v */
static void
directed(Kernel *K, int u, int v, double *df, double *de)
{
    int logical = K->p2l[u];
    if (logical < 0)
        return;
    const double *dist_u = K->dist + (size_t)u * K->n_phys;
    const double *dist_v = K->dist + (size_t)v * K->n_phys;
    IntVec *f = &K->part_f[logical], *e = &K->part_e[logical];
    for (int i = 0; i < f->len; i++) {
        int partner = K->l2p[f->items[i]];
        if (partner != v)
            *df += dist_v[partner] - dist_u[partner];
    }
    for (int i = 0; i < e->len; i++) {
        int partner = K->l2p[e->items[i]];
        if (partner != v)
            *de += dist_v[partner] - dist_u[partner];
    }
}

/* score every candidate and pick one as SabreRouter._pick_swap does */
static int
pick_swap(Kernel *K)
{
    double best_score = INFINITY;
    int n_best = 0;
    for (int i = 0; i < K->n_cand; i++) {
        int e = K->cand[i], a = K->edge_u[e], b = K->edge_v[e];
        double df = 0.0, de = 0.0;
        directed(K, a, b, &df, &de);
        directed(K, b, a, &df, &de);
        K->cand_df[i] = df;
        K->cand_de[i] = de;
        double decay = K->decay[a] > K->decay[b] ? K->decay[a] : K->decay[b];
        double score = decay * ((K->base_f + df) / K->n_f +
                                K->weight * ((K->base_e + de) / K->n_e));
        if (score - best_score > TIE_EPS)
            continue;
        if (score < best_score - TIE_EPS) {
            best_score = score;
            K->best[0] = i;
            n_best = 1;
        }
        else if (fabs(score - best_score) <= TIE_EPS) {
            K->best[n_best++] = i;
        }
    }
    if (n_best == 0) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    if (n_best == 1)
        return K->best[0];
    PyObject *drawn = PyObject_CallFunction(K->integers, "i", n_best);
    if (drawn == NULL)
        return -1;
    Py_ssize_t k = PyNumber_AsSsize_t(drawn, PyExc_IndexError);
    Py_DECREF(drawn);
    if (k == -1 && PyErr_Occurred())
        return -1;
    if (k < 0 || k >= n_best) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return K->best[k];
}

static int
route_loop(Kernel *K)
{
    /* the initial drain, over the front in ascending order */
    int len = 0;
    for (int i = 0; i < K->n_nodes; i++)
        if (K->in_degree[i] == 0)
            K->gen_a[len++] = i;
    K->dirty = 1; /* the first decision builds the front groups */
    if (drain(K, len) < 0)
        return -1;
    long long steps = 0;
    while (K->executed < K->n_nodes) {
        if (PyErr_CheckSignals() < 0)
            return -1;
        if (K->dirty) {
            if (rebuild(K) < 0)
                return -1;
            K->dirty = 0;
        }
        int chosen = pick_swap(K);
        if (chosen < 0)
            return -1;
        int edge = K->cand[chosen], a = K->edge_u[edge], b = K->edge_v[edge];
        if (emit(K, -(long)edge - 1) < 0)
            return -1;
        int la = K->p2l[a], lb = K->p2l[b];
        if (la >= 0)
            K->l2p[la] = b;
        if (lb >= 0)
            K->l2p[lb] = a;
        K->p2l[a] = lb;
        K->p2l[b] = la;
        K->base_f += K->cand_df[chosen];
        K->base_e += K->cand_de[chosen];
        K->decay[a] += K->decay_factor;
        K->decay[b] += K->decay_factor;
        steps++;
        if (K->reset_interval == 0) {
            PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
            return -1;
        }
        if (steps % K->reset_interval == 0)
            for (int q = 0; q < K->n_phys; q++)
                K->decay[q] = 1.0;

        /* only blocked gates on the two moved qubits can have become
           executable */
        len = 0;
        if (la >= 0)
            for (int i = 0; i < K->blocked_by[la].len; i++)
                K->gen_a[len++] = K->blocked_by[la].items[i];
        if (lb >= 0)
            for (int i = 0; i < K->blocked_by[lb].len; i++)
                K->gen_a[len++] = K->blocked_by[lb].items[i];
        if (drain(K, sort_unique(K->gen_a, len)) < 0)
            return -1;
        int front_a = la >= 0 && K->part_f[la].len > 0;
        int front_b = lb >= 0 && K->part_f[lb].len > 0;
        if (!K->dirty && front_a != front_b)
            /* nothing executed, but a front qubit moved off the front's
               positions: the candidate set moved */
            candidates(K);
    }
    return 0;
}

static int
kernel_init(Kernel *K, PyObject *successors, PyObject *in_degree, PyObject *l2p,
            PyObject *p2l, PyObject *distance, PyObject *edge_u, PyObject *edge_v,
            PyObject *edge_ids)
{
    if (!PyList_Check(K->ops) || !PySet_Check(K->front) ||
        !PyList_Check(l2p) || !PyList_Check(p2l) || !PyList_Check(edge_u)) {
        PyErr_SetString(PyExc_TypeError, "route() got an argument of the wrong type");
        return -1;
    }
    Py_ssize_t n_nodes = PyList_GET_SIZE(K->ops), n_log = PyList_GET_SIZE(l2p);
    Py_ssize_t n_phys = PyList_GET_SIZE(p2l), n_edges = PyList_GET_SIZE(edge_u);
    if (n_nodes >= INT_MAX / 2 || n_log >= INT_MAX / 2 || n_phys >= INT_MAX / 2 ||
        n_edges >= INT_MAX / 2) {
        PyErr_SetString(PyExc_OverflowError, "circuit or device too large");
        return -1;
    }
    K->n_nodes = (int)n_nodes;
    K->n_log = (int)n_log;
    K->n_phys = (int)n_phys;
    K->n_edges = (int)n_edges;
    size_t N = (size_t)n_nodes, L = (size_t)n_log, P = (size_t)n_phys,
           E = (size_t)n_edges;
    if (!(K->in_degree = zeroed(N, sizeof(int))) || !(K->pair_p = zeroed(N, sizeof(int))) ||
        !(K->pair_q = zeroed(N, sizeof(int))) || !(K->kind = zeroed(N, 1)) ||
        !(K->dist = zeroed(P * P, sizeof(double))) || !(K->coupled = zeroed(P * P, 1)) ||
        !(K->edge_u = zeroed(E, sizeof(int))) || !(K->edge_v = zeroed(E, sizeof(int))) ||
        !(K->l2p = zeroed(L, sizeof(int))) || !(K->p2l = zeroed(P, sizeof(int))) ||
        !(K->blocked = zeroed(N, 1)) || !(K->blocked_by = zeroed(L, sizeof(IntVec))) ||
        !(K->gen_a = zeroed(N, sizeof(int))) || !(K->gen_b = zeroed(N, sizeof(int))) ||
        !(K->front_nodes = zeroed(N, sizeof(int))) || !(K->bfs_a = zeroed(N, sizeof(int))) ||
        !(K->bfs_b = zeroed(N, sizeof(int))) || !(K->ext_nodes = zeroed(N, sizeof(int))) ||
        !(K->seen = zeroed(N, sizeof(int))) || !(K->keys = zeroed(N, sizeof(long long))) ||
        !(K->part_f = zeroed(L, sizeof(IntVec))) || !(K->part_e = zeroed(L, sizeof(IntVec))) ||
        !(K->touched = zeroed(L, sizeof(int))) || !(K->touch_mark = zeroed(L, sizeof(int))) ||
        !(K->cand = zeroed(E, sizeof(int))) || !(K->edge_mark = zeroed(E, sizeof(int))) ||
        !(K->best = zeroed(E, sizeof(int))) || !(K->cand_df = zeroed(E, sizeof(double))) ||
        !(K->cand_de = zeroed(E, sizeof(double))) || !(K->decay = zeroed(P, sizeof(double))))
        return -1;
    if (csr(successors, n_nodes, 0, n_nodes, &K->succ_start, &K->succ) < 0 ||
        int_list(in_degree, n_nodes, 0, INT_MAX, K->in_degree) < 0 ||
        int_list(l2p, n_log, -1, n_phys, K->l2p) < 0 ||
        int_list(p2l, n_phys, -1, n_log, K->p2l) < 0 ||
        int_list(edge_u, n_edges, 0, n_phys, K->edge_u) < 0 ||
        int_list(edge_v, n_edges, 0, n_phys, K->edge_v) < 0 ||
        csr(edge_ids, n_phys, 0, n_edges, &K->inc_start, &K->inc) < 0 ||
        read_ops(K) < 0)
        return -1;
    if (!PyList_Check(distance) || PyList_GET_SIZE(distance) != n_phys) {
        PyErr_SetString(PyExc_TypeError, "distance must be a list of rows");
        return -1;
    }
    for (Py_ssize_t a = 0; a < n_phys; a++) {
        PyObject *row = PyList_GET_ITEM(distance, a);
        if (!PyList_Check(row) || PyList_GET_SIZE(row) != n_phys) {
            PyErr_SetString(PyExc_TypeError, "distance must be a list of rows");
            return -1;
        }
        for (Py_ssize_t b = 0; b < n_phys; b++) {
            double d = PyFloat_AsDouble(PyList_GET_ITEM(row, b));
            if (d == -1.0 && PyErr_Occurred())
                return -1;
            K->dist[(size_t)a * P + b] = d;
        }
    }
    for (Py_ssize_t e = 0; e < n_edges; e++) {
        int a = K->edge_u[e], b = K->edge_v[e];
        K->coupled[(size_t)a * P + b] = K->coupled[(size_t)b * P + a] = 1;
    }
    for (size_t q = 0; q < P; q++)
        K->decay[q] = 1.0;
    return 0;
}

PyDoc_STRVAR(route_doc,
"route(ops, successors, in_degree, front, l2p, p2l, distance, edge_u, edge_v,\n"
"      edge_ids, extended_set_size, extended_set_weight, decay_factor,\n"
"      decay_reset_interval, integers) -> list[int]\n\n"
"Run SABRE's decision loop over a routing DAG; return the events: an\n"
"executed node index, or -(edge + 1) for a SWAP.  ``front`` is mutated;\n"
"every other argument is only read.");

static PyObject *
route(PyObject *Py_UNUSED(self), PyObject *args)
{
    Kernel K = {0};
    PyObject *successors, *in_degree, *l2p, *p2l, *distance, *edge_u, *edge_v, *edge_ids;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOnddnO:route", &K.ops, &successors, &in_degree,
                          &K.front, &l2p, &p2l, &distance, &edge_u, &edge_v, &edge_ids,
                          &K.ext_limit, &K.weight, &K.decay_factor, &K.reset_interval,
                          &K.integers))
        return NULL;
    K.events = PyList_New(0);
    if (K.events == NULL)
        return NULL;
    if (kernel_init(&K, successors, in_degree, l2p, p2l, distance, edge_u, edge_v,
                    edge_ids) < 0 ||
        route_loop(&K) < 0) {
        kernel_free(&K);
        Py_DECREF(K.events);
        return NULL;
    }
    kernel_free(&K);
    return K.events;
}

static PyMethodDef methods[] = {
    {"route", route, METH_VARARGS, route_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sabre_kernel",
    .m_doc = "SABRE's SWAP decision loop, compiled.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__sabre_kernel(void)
{
    if (!(str_qubits = PyUnicode_InternFromString("qubits")) ||
        !(str_is_barrier = PyUnicode_InternFromString("is_barrier")) ||
        !(str_is_measurement = PyUnicode_InternFromString("is_measurement")))
        return NULL;
    return PyModule_Create(&module);
}
