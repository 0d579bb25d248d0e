/* Compiled scheduler kernel: the simulator's columnar record walk in C.
 *
 * Accelerator phase 2 (DESIGN.md section 14).  One SchedKernel instance
 * walks a single `Simulator._execute` pass natively.  Its pure-Python
 * twin and reference, `PySchedKernel` in repro/sim/multicore.py, has the
 * same constructor, methods and exits; the two differ only in the walk:
 *
 *   - per-core int64 cursors directly over the trace's array('q') columns,
 *     adopted zero-copy through the buffer protocol (no list
 *     materialization);
 *   - the (t, core) min-clock binary heap with the identical tuple-order
 *     tiebreak.  One entry per core means the heap order is a *strict*
 *     total order, and every correct binary heap pops a strictly totally
 *     ordered content set in the same sequence, so the schedule is
 *     bit-identical to heapq's regardless of internal layout;
 *   - per-core compute/latency accumulators as C doubles.  CPython floats
 *     are C doubles and the per-record addition order is unchanged, so
 *     every accumulated value is bit-identical to PySchedKernel;
 *   - an open-addressing (core, line) -> CacheLine map mirroring the
 *     scheduler_fast_path() L1 buckets (the same Fibonacci-hash + linear
 *     probe machinery as the mesh kernel's overflow map), with *deferred*
 *     hit bookkeeping: utilization delta, last-access timestamp, the
 *     LRU-counter replay index, and the silent E -> M upgrade flag are
 *     buffered per entry and written back before any engine code can
 *     observe them.
 *
 * The kernel exits to Python only on cold events: an access() miss calls
 * the engine directly (the loop stays native around it), while
 * barrier/lock/unlock records return an exit tuple *before* the record is
 * processed and `Simulator._execute`, the trampoline shared with
 * PySchedKernel, performs the synchronization bookkeeping
 * (sync_boundary_hook, lock queues, deadlock accounting), re-entering
 * through continue_at()/advance()/wake().  Thousands of hit records
 * retire per FFI crossing.
 *
 * Exactness invariants (pinned by the fixture + differential suites):
 *
 *   - flush-before-engine-entry: every deferred hit (LRU counter,
 *     utilization, timestamp, E -> M upgrade) is written back to the
 *     CacheLine objects and the store's _use_counter before *every*
 *     access() call and every exit, so the engine's victim selection,
 *     min_last_access scans, purges and histograms read exactly the state
 *     PySchedKernel would have produced;
 *   - LRU-counter replay: the kernel never owns store._use_counter.  It
 *     counts hits per core since the last flush; at flush it reads the
 *     counter (the engine may have bumped it during misses), assigns each
 *     dirty line `base + (index of its last hit)` and writes back
 *     `base + hits`, replicating the per-hit `counter = _use_counter + 1`
 *     sequence without touching Python integers on the hot path;
 *   - entry pointers in the map are *borrowed*: the store's set dicts hold
 *     a strong reference for exactly as long as the line is resident, and
 *     every membership change while the kernel is attached flows through
 *     the SetAssocCache._observer hooks (insert, including its internal
 *     victim eviction; pop; clear) into note().
 *
 * Compiled into the same module as the mesh kernel (_kernel.c calls
 * repro_sched_register from its PyInit), behind the same build cache,
 * ABI gate and fallback rules.
 */

#include "_accel.h"

#include <structmember.h>

#include <stdint.h>
#include <string.h>

/* Mirrors of repro.common constants; cross-checked against the Python
 * definitions at load time by repro.accel (mismatch -> fallback).
 * K_LINE_BITS comes from _accel.h. */
#define K_OP_READ 0
#define K_OP_WRITE 1
#define K_OP_BARRIER 2
#define K_OP_LOCK 3
#define K_OP_UNLOCK 4
#define K_OP_WORK 5
#define K_SCHED_ABI_VERSION 1

#define MAP_EMPTY (-1)
#define MAP_TOMBSTONE (-2)

typedef struct {
    double t;
    long long core;
} HeapEntry;

typedef struct {
    long long key;      /* (line << core_bits) | core; MAP_EMPTY/MAP_TOMBSTONE */
    PyObject *entry;    /* borrowed CacheLine (the set dict owns the ref) */
    long long util_delta;
    long long hit_idx;  /* 1-based index of the last hit in this core's
                           per-flush hit sequence; 0 = clean */
    double last_access;
    int upgraded;       /* deferred silent E -> M */
} MapCell;

typedef struct {
    PyObject_HEAD
    long long num_cores;
    long long core_bits;
    double l1_hit_latency;

    /* Columnar trace views (buffer protocol; zero-copy). */
    Py_buffer *views;            /* 3 * num_cores buffers, in adoption order */
    Py_ssize_t num_views;
    const long long **ops;
    const long long **addrs;
    const long long **works;
    long long *lengths;

    long long *indices;
    double *clocks;
    double *compute;
    double *bd_l1_to_l2;
    double *bd_l2_waiting;
    double *bd_l2_sharers;
    double *bd_l2_offchip;
    long long *hits_r;
    long long *hits_w;
    long long *hit_seq;          /* hits per core since the last flush */
    long long *counter_base;     /* scratch: _use_counter base per core */

    HeapEntry *heap;
    Py_ssize_t heap_len;
    long long current;           /* core to keep running, -1 = pop next */
    double now;

    PyObject *access;            /* engine.access */
    PyObject **core_objs;        /* cached PyLong per core (strong) */

    /* Fast path (NULL/0 when the engine has none). */
    int has_fast;
    PyObject *stores_list;       /* strong ref to the descriptor's list */
    PyObject **stores;           /* borrowed items of stores_list */
    PyObject *exclusive_obj;     /* strong */
    PyObject *modified_obj;      /* strong */
    PyObject *str_use_counter;   /* interned "_use_counter" */
    Py_ssize_t off_state, off_last_use, off_last_access, off_utilization;
    Py_ssize_t off_r_latency, off_r_l1l2, off_r_l2w, off_r_l2s, off_r_l2o;
    Py_ssize_t off_r_hit;

    MapCell *map;
    Py_ssize_t map_cap;          /* power of two */
    Py_ssize_t map_len;          /* occupied cells */
    Py_ssize_t map_used;         /* occupied + tombstones */

    MapCell **dirty;
    Py_ssize_t dirty_len;
    Py_ssize_t dirty_cap;
} SchedObject;

/* ------------------------------------------------------------------ */
/* Open-addressing map: Fibonacci hash + linear probe (the mesh         */
/* kernel's overflow-map machinery, keyed by (line, core)).             */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t
map_hash(long long key, Py_ssize_t cap)
{
    return (Py_ssize_t)(((unsigned long long)key * 0x9E3779B97F4A7C15ULL) >> 33)
           & (cap - 1);
}

static inline MapCell *
map_find(SchedObject *k, long long key)
{
    Py_ssize_t mask = k->map_cap - 1;
    Py_ssize_t pos = map_hash(key, k->map_cap);
    for (;;) {
        MapCell *cell = &k->map[pos];
        if (cell->key == key) {
            return cell;
        }
        if (cell->key == MAP_EMPTY) {
            return NULL;
        }
        pos = (pos + 1) & mask;
    }
}

static int map_insert(SchedObject *k, long long key, PyObject *entry);

static int
map_rehash(SchedObject *k, Py_ssize_t cap)
{
    MapCell *old = k->map;
    Py_ssize_t old_cap = k->map_cap;
    MapCell *fresh = PyMem_Malloc((size_t)cap * sizeof(MapCell));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++) {
        fresh[i].key = MAP_EMPTY;
    }
    k->map = fresh;
    k->map_cap = cap;
    k->map_len = 0;
    k->map_used = 0;
    if (old != NULL) {
        for (Py_ssize_t i = 0; i < old_cap; i++) {
            if (old[i].key >= 0) {
                /* Rehash only happens with a clean map (inserts occur
                 * exclusively inside engine calls, after a flush), so the
                 * deferred fields are all zero and need no migration. */
                if (map_insert(k, old[i].key, old[i].entry) < 0) {
                    PyMem_Free(old);
                    return -1;
                }
            }
        }
        PyMem_Free(old);
    }
    return 0;
}

static int
map_insert(SchedObject *k, long long key, PyObject *entry)
{
    if ((k->map_used + 1) * 3 >= k->map_cap * 2) {
        Py_ssize_t cap = k->map_cap;
        /* Grow when genuinely loaded; same-size rehash clears tombstones. */
        if ((k->map_len + 1) * 3 >= k->map_cap * 2) {
            cap = k->map_cap * 2;
        }
        if (map_rehash(k, cap) < 0) {
            return -1;
        }
    }
    Py_ssize_t mask = k->map_cap - 1;
    Py_ssize_t pos = map_hash(key, k->map_cap);
    Py_ssize_t grave = -1;
    for (;;) {
        MapCell *cell = &k->map[pos];
        if (cell->key == key) {
            cell->entry = entry;
            cell->util_delta = 0;
            cell->hit_idx = 0;
            cell->last_access = 0.0;
            cell->upgraded = 0;
            return 0;
        }
        if (cell->key == MAP_TOMBSTONE) {
            if (grave < 0) {
                grave = pos;
            }
        }
        else if (cell->key == MAP_EMPTY) {
            if (grave >= 0) {
                cell = &k->map[grave];
            }
            else {
                k->map_used += 1;
            }
            cell->key = key;
            cell->entry = entry;
            cell->util_delta = 0;
            cell->hit_idx = 0;
            cell->last_access = 0.0;
            cell->upgraded = 0;
            k->map_len += 1;
            return 0;
        }
        pos = (pos + 1) & mask;
    }
}

static void
map_remove(SchedObject *k, long long key)
{
    MapCell *cell = map_find(k, key);
    if (cell != NULL) {
        cell->key = MAP_TOMBSTONE;
        cell->entry = NULL;
        cell->util_delta = 0;
        cell->hit_idx = 0;
        cell->upgraded = 0;
        k->map_len -= 1;
    }
}

/* ------------------------------------------------------------------ */
/* Min-clock heap                                                      */
/* ------------------------------------------------------------------ */

static inline int
heap_less(double t, long long core, const HeapEntry *e)
{
    return t < e->t || (t == e->t && core < e->core);
}

static void
heap_push(SchedObject *k, double t, long long core)
{
    Py_ssize_t pos = k->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (heap_less(t, core, &k->heap[parent])) {
            k->heap[pos] = k->heap[parent];
            pos = parent;
        }
        else {
            break;
        }
    }
    k->heap[pos].t = t;
    k->heap[pos].core = core;
}

static void
heap_siftdown_from_root(SchedObject *k, double t, long long core)
{
    Py_ssize_t pos = 0;
    Py_ssize_t len = k->heap_len;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= len) {
            break;
        }
        Py_ssize_t right = child + 1;
        if (right < len
            && heap_less(k->heap[right].t, k->heap[right].core, &k->heap[child])) {
            child = right;
        }
        if (heap_less(k->heap[child].t, k->heap[child].core, &(HeapEntry){t, core})) {
            k->heap[pos] = k->heap[child];
            pos = child;
        }
        else {
            break;
        }
    }
    k->heap[pos].t = t;
    k->heap[pos].core = core;
}

static void
heap_pop(SchedObject *k, double *t, long long *core)
{
    *t = k->heap[0].t;
    *core = k->heap[0].core;
    k->heap_len -= 1;
    if (k->heap_len > 0) {
        HeapEntry last = k->heap[k->heap_len];
        heap_siftdown_from_root(k, last.t, last.core);
    }
}

/* heappushpop where the root is known to precede the pushed item. */
static void
heap_replace_root(SchedObject *k, double t, long long core,
                  double *out_t, long long *out_core)
{
    *out_t = k->heap[0].t;
    *out_core = k->heap[0].core;
    heap_siftdown_from_root(k, t, core);
}

/* ------------------------------------------------------------------ */
/* Deferred-hit flush                                                  */
/* ------------------------------------------------------------------ */

static int
flush_dirty(SchedObject *k)
{
    if (k->dirty_len == 0) {
        return 0;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        if (k->hit_seq[c] == 0) {
            continue;
        }
        PyObject *store = k->stores[c];
        PyObject *cur = PyObject_GetAttr(store, k->str_use_counter);
        if (cur == NULL) {
            return -1;
        }
        long long base = PyLong_AsLongLong(cur);
        Py_DECREF(cur);
        if (base == -1 && PyErr_Occurred()) {
            return -1;
        }
        k->counter_base[c] = base;
        PyObject *nv = PyLong_FromLongLong(base + k->hit_seq[c]);
        if (nv == NULL) {
            return -1;
        }
        int rc = PyObject_SetAttr(store, k->str_use_counter, nv);
        Py_DECREF(nv);
        if (rc < 0) {
            return -1;
        }
    }
    long long core_mask = (1LL << k->core_bits) - 1;
    for (Py_ssize_t j = 0; j < k->dirty_len; j++) {
        MapCell *cell = k->dirty[j];
        if (cell->hit_idx == 0) {
            continue;  /* removed and re-marked clean since dirtying */
        }
        long long c = cell->key & core_mask;
        PyObject *e = cell->entry;
        PyObject **slot = SLOT(e, k->off_last_use);
        PyObject *nv = PyLong_FromLongLong(k->counter_base[c] + cell->hit_idx);
        if (nv == NULL) {
            return -1;
        }
        Py_XSETREF(*slot, nv);
        slot = SLOT(e, k->off_utilization);
        long long util = PyLong_AsLongLong(*slot);
        if (util == -1 && PyErr_Occurred()) {
            return -1;
        }
        nv = PyLong_FromLongLong(util + cell->util_delta);
        if (nv == NULL) {
            return -1;
        }
        Py_XSETREF(*slot, nv);
        slot = SLOT(e, k->off_last_access);
        nv = PyFloat_FromDouble(cell->last_access);
        if (nv == NULL) {
            return -1;
        }
        Py_XSETREF(*slot, nv);
        if (cell->upgraded) {
            slot = SLOT(e, k->off_state);
            Py_INCREF(k->modified_obj);
            Py_XSETREF(*slot, k->modified_obj);
        }
        cell->hit_idx = 0;
        cell->util_delta = 0;
        cell->upgraded = 0;
    }
    k->dirty_len = 0;
    memset(k->hit_seq, 0, (size_t)k->num_cores * sizeof(long long));
    return 0;
}

static int
dirty_push(SchedObject *k, MapCell *cell)
{
    if (k->dirty_len >= k->dirty_cap) {
        Py_ssize_t cap = k->dirty_cap ? k->dirty_cap * 2 : 64;
        MapCell **fresh = PyMem_Realloc(k->dirty, (size_t)cap * sizeof(MapCell *));
        if (fresh == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->dirty = fresh;
        k->dirty_cap = cap;
    }
    k->dirty[k->dirty_len++] = cell;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Engine access call                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
call_access(SchedObject *k, long long core, int is_write, long long address,
            double t)
{
    PyObject *addr_o = PyLong_FromLongLong(address);
    if (addr_o == NULL) {
        return NULL;
    }
    PyObject *t_o = PyFloat_FromDouble(t);
    if (t_o == NULL) {
        Py_DECREF(addr_o);
        return NULL;
    }
    PyObject *argv[4] = {
        k->core_objs[core], is_write ? Py_True : Py_False, addr_o, t_o,
    };
    PyObject *res = PyObject_Vectorcall(k->access, argv, 4, NULL);
    Py_DECREF(addr_o);
    Py_DECREF(t_o);
    return res;
}

/* ------------------------------------------------------------------ */
/* Construction                                                        */
/* ------------------------------------------------------------------ */

Py_ssize_t
repro_member_offset(PyObject *type, const char *name)
{
    PyObject *descr = repro_getattr(type, name);
    if (descr == NULL) {
        return -1;
    }
    if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
        Py_DECREF(descr);
        PyErr_Format(PyExc_TypeError, "%s is not a __slots__ member", name);
        return -1;
    }
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    Py_ssize_t off = member->offset;
    int kind = member->type;
    Py_DECREF(descr);
    if (kind != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%s is not an object slot", name);
        return -1;
    }
    return off;
}

static void
Sched_dealloc(SchedObject *k)
{
    if (k->views != NULL) {
        for (Py_ssize_t i = 0; i < k->num_views; i++) {
            PyBuffer_Release(&k->views[i]);
        }
        PyMem_Free(k->views);
    }
    PyMem_Free(k->ops);
    PyMem_Free(k->addrs);
    PyMem_Free(k->works);
    PyMem_Free(k->lengths);
    PyMem_Free(k->indices);
    PyMem_Free(k->clocks);
    PyMem_Free(k->compute);
    PyMem_Free(k->bd_l1_to_l2);
    PyMem_Free(k->bd_l2_waiting);
    PyMem_Free(k->bd_l2_sharers);
    PyMem_Free(k->bd_l2_offchip);
    PyMem_Free(k->hits_r);
    PyMem_Free(k->hits_w);
    PyMem_Free(k->hit_seq);
    PyMem_Free(k->counter_base);
    PyMem_Free(k->heap);
    PyMem_Free(k->map);
    PyMem_Free(k->dirty);
    PyMem_Free(k->stores);
    if (k->core_objs != NULL) {
        for (long long c = 0; c < k->num_cores; c++) {
            Py_XDECREF(k->core_objs[c]);
        }
        PyMem_Free(k->core_objs);
    }
    Py_XDECREF(k->access);
    Py_XDECREF(k->stores_list);
    Py_XDECREF(k->exclusive_obj);
    Py_XDECREF(k->modified_obj);
    Py_XDECREF(k->str_use_counter);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static int
adopt_columns(SchedObject *k, PyObject *cols, const long long **ptrs,
              long long *lengths, int check_lengths)
{
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *col = PySequence_GetItem(cols, (Py_ssize_t)c);
        if (col == NULL) {
            return -1;
        }
        Py_buffer *view = &k->views[k->num_views];
        int rc = PyObject_GetBuffer(col, view, PyBUF_SIMPLE);
        Py_DECREF(col);
        if (rc < 0) {
            return -1;
        }
        k->num_views += 1;
        if (view->len % (Py_ssize_t)sizeof(long long) != 0) {
            PyErr_SetString(PyExc_ValueError, "column is not int64-aligned");
            return -1;
        }
        long long n = (long long)(view->len / (Py_ssize_t)sizeof(long long));
        ptrs[c] = (const long long *)view->buf;
        if (check_lengths) {
            if (lengths[c] != n) {
                PyErr_SetString(PyExc_ValueError, "ragged trace columns");
                return -1;
            }
        }
        else {
            lengths[c] = n;
        }
    }
    return 0;
}

static PyObject *
Sched_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *ops_cols, *addr_cols, *work_cols, *start_clocks;
    double l1_hit_latency;
    PyObject *access, *result_type, *fast;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "SchedKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOOOdOOO", &ops_cols, &addr_cols, &work_cols,
                          &start_clocks, &l1_hit_latency, &access,
                          &result_type, &fast)) {
        return NULL;
    }
    SchedObject *k = (SchedObject *)type->tp_alloc(type, 0);
    if (k == NULL) {
        return NULL;
    }
    Py_ssize_t num_cores = PySequence_Size(ops_cols);
    if (num_cores <= 0) {
        if (num_cores == 0) {
            PyErr_SetString(PyExc_ValueError, "need at least one core");
        }
        Py_DECREF(k);
        return NULL;
    }
    k->num_cores = (long long)num_cores;
    k->core_bits = 1;
    while ((1LL << k->core_bits) < k->num_cores) {
        k->core_bits += 1;
    }
    k->l1_hit_latency = l1_hit_latency;
    k->current = -1;
    k->now = 0.0;

    k->views = PyMem_Calloc((size_t)(3 * num_cores), sizeof(Py_buffer));
    k->ops = PyMem_Calloc((size_t)num_cores, sizeof(long long *));
    k->addrs = PyMem_Calloc((size_t)num_cores, sizeof(long long *));
    k->works = PyMem_Calloc((size_t)num_cores, sizeof(long long *));
    k->lengths = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->indices = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->clocks = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->compute = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l1_to_l2 = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l2_waiting = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l2_sharers = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l2_offchip = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->hits_r = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->hits_w = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->hit_seq = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->counter_base = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->heap = PyMem_Calloc((size_t)num_cores, sizeof(HeapEntry));
    k->core_objs = PyMem_Calloc((size_t)num_cores, sizeof(PyObject *));
    if (k->views == NULL || k->ops == NULL || k->addrs == NULL
        || k->works == NULL || k->lengths == NULL || k->indices == NULL
        || k->clocks == NULL || k->compute == NULL || k->bd_l1_to_l2 == NULL
        || k->bd_l2_waiting == NULL || k->bd_l2_sharers == NULL
        || k->bd_l2_offchip == NULL || k->hits_r == NULL || k->hits_w == NULL
        || k->hit_seq == NULL || k->counter_base == NULL || k->heap == NULL
        || k->core_objs == NULL) {
        PyErr_NoMemory();
        Py_DECREF(k);
        return NULL;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        k->core_objs[c] = PyLong_FromLongLong(c);
        if (k->core_objs[c] == NULL) {
            Py_DECREF(k);
            return NULL;
        }
    }
    if (PySequence_Size(addr_cols) != num_cores
        || PySequence_Size(work_cols) != num_cores) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_ValueError, "column sets disagree on core count");
        }
        Py_DECREF(k);
        return NULL;
    }
    if (adopt_columns(k, ops_cols, k->ops, k->lengths, 0) < 0
        || adopt_columns(k, addr_cols, k->addrs, k->lengths, 1) < 0
        || adopt_columns(k, work_cols, k->works, k->lengths, 1) < 0) {
        Py_DECREF(k);
        return NULL;
    }
    if (PySequence_Size(start_clocks) != num_cores) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_ValueError, "start_clocks length mismatch");
        }
        Py_DECREF(k);
        return NULL;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *v = PySequence_GetItem(start_clocks, (Py_ssize_t)c);
        if (v == NULL) {
            Py_DECREF(k);
            return NULL;
        }
        double d = PyFloat_AsDouble(v);
        Py_DECREF(v);
        if (d == -1.0 && PyErr_Occurred()) {
            Py_DECREF(k);
            return NULL;
        }
        k->clocks[c] = d;
    }
    k->access = Py_NewRef(access);
    k->str_use_counter = PyUnicode_InternFromString("_use_counter");
    if (k->str_use_counter == NULL) {
        Py_DECREF(k);
        return NULL;
    }

    k->off_r_latency = repro_member_offset(result_type, "latency");
    k->off_r_l1l2 = repro_member_offset(result_type, "l1_to_l2");
    k->off_r_l2w = repro_member_offset(result_type, "l2_waiting");
    k->off_r_l2s = repro_member_offset(result_type, "l2_sharers");
    k->off_r_l2o = repro_member_offset(result_type, "l2_offchip");
    k->off_r_hit = repro_member_offset(result_type, "hit");
    if (k->off_r_latency < 0 || k->off_r_l1l2 < 0 || k->off_r_l2w < 0
        || k->off_r_l2s < 0 || k->off_r_l2o < 0 || k->off_r_hit < 0) {
        Py_DECREF(k);
        return NULL;
    }

    if (fast != Py_None) {
        if (!PyDict_Check(fast)) {
            PyErr_SetString(PyExc_TypeError, "fast-path descriptor must be a dict");
            Py_DECREF(k);
            return NULL;
        }
        PyObject *stores = PyDict_GetItemString(fast, "stores");
        PyObject *exclusive = PyDict_GetItemString(fast, "exclusive");
        PyObject *modified = PyDict_GetItemString(fast, "modified");
        PyObject *line_type = PyDict_GetItemString(fast, "line_type");
        if (stores == NULL || exclusive == NULL || modified == NULL
            || line_type == NULL || !PyList_Check(stores)
            || PyList_GET_SIZE(stores) != num_cores) {
            PyErr_SetString(PyExc_ValueError,
                            "fast-path descriptor missing C-adoption fields");
            Py_DECREF(k);
            return NULL;
        }
        k->off_state = repro_member_offset(line_type, "state");
        k->off_last_use = repro_member_offset(line_type, "last_use");
        k->off_last_access = repro_member_offset(line_type, "last_access");
        k->off_utilization = repro_member_offset(line_type, "utilization");
        if (k->off_state < 0 || k->off_last_use < 0 || k->off_last_access < 0
            || k->off_utilization < 0) {
            Py_DECREF(k);
            return NULL;
        }
        k->stores_list = Py_NewRef(stores);
        k->exclusive_obj = Py_NewRef(exclusive);
        k->modified_obj = Py_NewRef(modified);
        k->stores = PyMem_Calloc((size_t)num_cores, sizeof(PyObject *));
        if (k->stores == NULL) {
            PyErr_NoMemory();
            Py_DECREF(k);
            return NULL;
        }
        for (long long c = 0; c < k->num_cores; c++) {
            k->stores[c] = PyList_GET_ITEM(stores, (Py_ssize_t)c);
        }
        if (map_rehash(k, 256) < 0) {
            Py_DECREF(k);
            return NULL;
        }
        /* Adopt the current L1 membership (the warmup pass may have filled
         * the stores); afterwards every change arrives through note(). */
        for (long long c = 0; c < k->num_cores; c++) {
            PyObject *sets = repro_getattr(k->stores[c], "_sets");
            if (sets == NULL || !PyList_Check(sets)) {
                Py_XDECREF(sets);
                if (!PyErr_Occurred()) {
                    PyErr_SetString(PyExc_TypeError, "_sets must be a list");
                }
                Py_DECREF(k);
                return NULL;
            }
            for (Py_ssize_t s = 0; s < PyList_GET_SIZE(sets); s++) {
                PyObject *bucket = PyList_GET_ITEM(sets, s);
                if (!PyDict_Check(bucket)) {
                    Py_DECREF(sets);
                    PyErr_SetString(PyExc_TypeError, "set bucket must be a dict");
                    Py_DECREF(k);
                    return NULL;
                }
                Py_ssize_t pos = 0;
                PyObject *key, *value;
                while (PyDict_Next(bucket, &pos, &key, &value)) {
                    long long line = PyLong_AsLongLong(key);
                    if (line == -1 && PyErr_Occurred()) {
                        Py_DECREF(sets);
                        Py_DECREF(k);
                        return NULL;
                    }
                    if (map_insert(k, (line << k->core_bits) | c, value) < 0) {
                        Py_DECREF(sets);
                        Py_DECREF(k);
                        return NULL;
                    }
                }
            }
            Py_DECREF(sets);
        }
        k->has_fast = 1;
    }

    for (long long c = 0; c < k->num_cores; c++) {
        if (k->lengths[c] > 0) {
            heap_push(k, k->clocks[c], c);
        }
    }
    return (PyObject *)k;
}

/* ------------------------------------------------------------------ */
/* The record loop                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
Sched_run(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    long long core = k->current;
    double now = k->now;
    if (core < 0) {
        if (k->heap_len == 0) {
            if (flush_dirty(k) < 0) {
                return NULL;
            }
            Py_RETURN_NONE;
        }
        heap_pop(k, &now, &core);
    }
    for (;;) {
        const long long *ops = k->ops[core];
        const long long *addrs = k->addrs[core];
        const long long *works = k->works[core];
        long long n = k->lengths[core];
        long long i = k->indices[core];
        double acc = k->compute[core];
        for (;;) {
            long long op = ops[i];
            long long workv = works[i];
            double t;
            if (op <= K_OP_WRITE) {
                double work = (double)workv + k->l1_hit_latency;
                acc += work;
                t = now + work;
                long long address = addrs[i];
                i += 1;
                long long line = address >> K_LINE_BITS;
                MapCell *cell = NULL;
                if (k->has_fast) {
                    cell = map_find(k, (line << k->core_bits) | core);
                    if (cell != NULL && op == K_OP_WRITE) {
                        /* Silent-write predicate: read the state slot per
                         * probe (never cached: the engine rewrites it
                         * during misses).  Resident lines are S/E/M, so
                         * identity against the E and M members is exactly
                         * `state >= EXCLUSIVE`. */
                        PyObject *st = *SLOT(cell->entry, k->off_state);
                        if (st != k->exclusive_obj && st != k->modified_obj) {
                            cell = NULL;
                        }
                    }
                }
                if (cell != NULL) {
                    long long seq = k->hit_seq[core] + 1;
                    k->hit_seq[core] = seq;
                    if (cell->hit_idx == 0 && dirty_push(k, cell) < 0) {
                        return NULL;
                    }
                    cell->hit_idx = seq;
                    cell->util_delta += 1;
                    cell->last_access = t;
                    if (op == K_OP_WRITE) {
                        cell->upgraded = 1;
                        k->hits_w[core] += 1;
                    }
                    else {
                        k->hits_r[core] += 1;
                    }
                }
                else {
                    /* Cold: hand the reference engine the exact state
                     * PySchedKernel would (flush first), then absorb
                     * the miss result natively. */
                    k->indices[core] = i;
                    k->compute[core] = acc;
                    k->current = core;
                    k->now = now;
                    if (flush_dirty(k) < 0) {
                        return NULL;
                    }
                    PyObject *res =
                        call_access(k, core, op == K_OP_WRITE, address, t);
                    if (res == NULL) {
                        return NULL;
                    }
                    PyObject *hit = *SLOT(res, k->off_r_hit);
                    int truth = hit == NULL ? -1 : PyObject_IsTrue(hit);
                    if (truth < 0) {
                        if (!PyErr_Occurred()) {
                            PyErr_SetString(PyExc_AttributeError,
                                            "unset AccessResult.hit");
                        }
                        Py_DECREF(res);
                        return NULL;
                    }
                    if (!truth) {
                        double v;
                        if (slot_double(res, k->off_r_l1l2, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l1_to_l2[core] += v;
                        if (slot_double(res, k->off_r_l2w, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l2_waiting[core] += v;
                        if (slot_double(res, k->off_r_l2s, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l2_sharers[core] += v;
                        if (slot_double(res, k->off_r_l2o, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l2_offchip[core] += v;
                        if (slot_double(res, k->off_r_latency, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        t += v;
                    }
                    Py_DECREF(res);
                }
            }
            else if (op == K_OP_WORK) {
                t = now + (double)workv;
                i += 1;
                acc += (double)workv;
            }
            else {
                /* Synchronization record: exit to the Python trampoline
                 * *before* processing it (cursor still points at it). */
                k->indices[core] = i;
                k->compute[core] = acc;
                k->current = core;
                k->now = now;
                if (flush_dirty(k) < 0) {
                    return NULL;
                }
                return Py_BuildValue("(LLdLd)", op, core, now, i, acc);
            }

            if (i < n) {
                if (k->heap_len > 0) {
                    const HeapEntry *root = &k->heap[0];
                    if (t < root->t || (t == root->t && core < root->core)) {
                        now = t;  /* still the min-clock core */
                        continue;
                    }
                    k->indices[core] = i;
                    k->clocks[core] = t;
                    k->compute[core] = acc;
                    heap_replace_root(k, t, core, &now, &core);
                }
                else {
                    now = t;  /* only runnable core left */
                    continue;
                }
            }
            else {
                k->indices[core] = i;
                k->clocks[core] = t;
                k->compute[core] = acc;
                if (k->heap_len > 0) {
                    heap_pop(k, &now, &core);
                }
                else {
                    k->current = -1;
                    if (flush_dirty(k) < 0) {
                        return NULL;
                    }
                    Py_RETURN_NONE;
                }
            }
            break;  /* switched cores: reload column pointers */
        }
    }
}

/* ------------------------------------------------------------------ */
/* Trampoline re-entry points                                          */
/* ------------------------------------------------------------------ */

static int
parse_core(SchedObject *k, PyObject *arg, long long *out)
{
    long long core = PyLong_AsLongLong(arg);
    if (core == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (core < 0 || core >= k->num_cores) {
        PyErr_SetString(PyExc_IndexError, "core out of range");
        return -1;
    }
    *out = core;
    return 0;
}

static PyObject *
Sched_advance(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "advance(core, i, acc)");
        return NULL;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    long long i = PyLong_AsLongLong(args[1]);
    if (i == -1 && PyErr_Occurred()) {
        return NULL;
    }
    double acc = PyFloat_AsDouble(args[2]);
    if (acc == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    k->indices[core] = i;
    k->compute[core] = acc;
    k->current = -1;
    Py_RETURN_NONE;
}

static PyObject *
Sched_continue_at(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "continue_at(core, i, acc, t)");
        return NULL;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    long long i = PyLong_AsLongLong(args[1]);
    if (i == -1 && PyErr_Occurred()) {
        return NULL;
    }
    double acc = PyFloat_AsDouble(args[2]);
    if (acc == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    double t = PyFloat_AsDouble(args[3]);
    if (t == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    k->indices[core] = i;
    k->compute[core] = acc;
    /* The walk's post-record step, as in run() and
     * PySchedKernel.continue_at: keep running, yield to the heap root,
     * or retire. */
    if (i < k->lengths[core]) {
        if (k->heap_len > 0) {
            const HeapEntry *root = &k->heap[0];
            if (t < root->t || (t == root->t && core < root->core)) {
                k->current = core;
                k->now = t;
            }
            else {
                k->clocks[core] = t;
                double nnow;
                long long ncore;
                heap_replace_root(k, t, core, &nnow, &ncore);
                k->current = ncore;
                k->now = nnow;
            }
        }
        else {
            k->current = core;
            k->now = t;
        }
    }
    else {
        k->clocks[core] = t;
        if (k->heap_len > 0) {
            double nnow;
            long long ncore;
            heap_pop(k, &nnow, &ncore);
            k->current = ncore;
            k->now = nnow;
        }
        else {
            k->current = -1;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Sched_wake(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "wake(core, t)");
        return NULL;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    double t = PyFloat_AsDouble(args[1]);
    if (t == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    k->clocks[core] = t;
    if (k->indices[core] < k->lengths[core]) {
        heap_push(k, t, core);
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

/* note(core, event, line, entry): SetAssocCache._observer hook.
 * event 0 = insert (entry resident, bookkeeping done), 1 = remove,
 * 2 = clear the whole store. */
static PyObject *
Sched_note(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "note(core, event, line, entry)");
        return NULL;
    }
    if (!k->has_fast) {
        Py_RETURN_NONE;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    long long event = PyLong_AsLongLong(args[1]);
    if (event == -1 && PyErr_Occurred()) {
        return NULL;
    }
    long long line = PyLong_AsLongLong(args[2]);
    if (line == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (event == 0) {
        if (map_insert(k, (line << k->core_bits) | core, args[3]) < 0) {
            return NULL;
        }
    }
    else if (event == 1) {
        map_remove(k, (line << k->core_bits) | core);
    }
    else if (event == 2) {
        long long core_mask = (1LL << k->core_bits) - 1;
        for (Py_ssize_t pos = 0; pos < k->map_cap; pos++) {
            MapCell *cell = &k->map[pos];
            if (cell->key >= 0 && (cell->key & core_mask) == core) {
                cell->key = MAP_TOMBSTONE;
                cell->entry = NULL;
                cell->util_delta = 0;
                cell->hit_idx = 0;
                cell->upgraded = 0;
                k->map_len -= 1;
            }
        }
    }
    else {
        PyErr_SetString(PyExc_ValueError, "unknown observer event");
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Sched_clocks(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New((Py_ssize_t)k->num_cores);
    if (out == NULL) {
        return NULL;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *v = PyFloat_FromDouble(k->clocks[c]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, (Py_ssize_t)c, v);
    }
    return out;
}

static PyObject *
Sched_finish(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    if (flush_dirty(k) < 0) {
        return NULL;
    }
    PyObject *hits_r = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *hits_w = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *rows = PyList_New((Py_ssize_t)k->num_cores);
    if (hits_r == NULL || hits_w == NULL || rows == NULL) {
        goto fail;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *r = PyLong_FromLongLong(k->hits_r[c]);
        if (r == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(hits_r, (Py_ssize_t)c, r);
        PyObject *w = PyLong_FromLongLong(k->hits_w[c]);
        if (w == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(hits_w, (Py_ssize_t)c, w);
        PyObject *row = Py_BuildValue(
            "(ddddd)", k->compute[c], k->bd_l1_to_l2[c], k->bd_l2_waiting[c],
            k->bd_l2_sharers[c], k->bd_l2_offchip[c]);
        if (row == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(rows, (Py_ssize_t)c, row);
    }
    PyObject *out = PyTuple_Pack(3, hits_r, hits_w, rows);
    Py_DECREF(hits_r);
    Py_DECREF(hits_w);
    Py_DECREF(rows);
    return out;
fail:
    Py_XDECREF(hits_r);
    Py_XDECREF(hits_w);
    Py_XDECREF(rows);
    return NULL;
}

static PyMethodDef Sched_methods[] = {
    {"run", (PyCFunction)Sched_run, METH_NOARGS,
     "Run until a sync record, an error, or completion; returns None when "
     "every core is drained, else (op, core, now, i, acc)."},
    {"advance", (PyCFunction)(void (*)(void))Sched_advance, METH_FASTCALL,
     "advance(core, i, acc): store cursor state and park the core."},
    {"continue_at", (PyCFunction)(void (*)(void))Sched_continue_at,
     METH_FASTCALL,
     "continue_at(core, i, acc, t): store cursor state and reschedule "
     "through the post-record tail."},
    {"wake", (PyCFunction)(void (*)(void))Sched_wake, METH_FASTCALL,
     "wake(core, t) -> bool: set the core's clock; re-queue it when records "
     "remain (returns whether it was queued)."},
    {"note", (PyCFunction)(void (*)(void))Sched_note, METH_FASTCALL,
     "note(core, event, line, entry): L1 store membership observer."},
    {"clocks", (PyCFunction)Sched_clocks, METH_NOARGS,
     "Final per-core clocks as a list of floats."},
    {"finish", (PyCFunction)Sched_finish, METH_NOARGS,
     "Flush deferred state; return (hits_r, hits_w, per-core breakdown "
     "rows (compute, l1_to_l2, l2_waiting, l2_sharers, l2_offchip))."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SchedType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.SchedKernel",
    .tp_basicsize = sizeof(SchedObject),
    .tp_dealloc = (destructor)Sched_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Native min-clock scheduler over one columnar trace execution",
    .tp_methods = Sched_methods,
    .tp_new = Sched_new,
};

int
repro_sched_register(PyObject *mod)
{
    if (PyType_Ready(&SchedType) < 0) {
        return -1;
    }
    if (PyModule_AddObjectRef(mod, "SchedKernel", (PyObject *)&SchedType) < 0
        || PyModule_AddIntConstant(mod, "OP_READ", K_OP_READ) < 0
        || PyModule_AddIntConstant(mod, "OP_WRITE", K_OP_WRITE) < 0
        || PyModule_AddIntConstant(mod, "OP_BARRIER", K_OP_BARRIER) < 0
        || PyModule_AddIntConstant(mod, "OP_LOCK", K_OP_LOCK) < 0
        || PyModule_AddIntConstant(mod, "OP_UNLOCK", K_OP_UNLOCK) < 0
        || PyModule_AddIntConstant(mod, "OP_WORK", K_OP_WORK) < 0
        || PyModule_AddIntConstant(mod, "LINE_BITS", K_LINE_BITS) < 0
        || PyModule_AddIntConstant(mod, "SCHED_ABI_VERSION",
                                   K_SCHED_ABI_VERSION) < 0) {
        return -1;
    }
    return 0;
}
