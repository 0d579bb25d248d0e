/* Declarations shared by the translation units of _repro_mesh_kernel.
 *
 * _kernel.c (the mesh kernel and the module init), _sched.c (the
 * scheduler kernel), _home.c (the engine kernel, HomeKernel) and its three
 * family subtypes - _directory.c (DirectoryKernel), _dls.c (DLSKernel) and
 * _neat.c (NeatKernel) - compile into one shared object; this header is
 * the only interface between them.
 * A function one unit shares with another is declared here, hidden from
 * the module's exports; every other function is static.  The build cache
 * fingerprints this header like the .c files.
 */

#ifndef REPRO_ACCEL_H
#define REPRO_ACCEL_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <string.h>

#if defined(__GNUC__)
#define REPRO_SHARED __attribute__((visibility("hidden")))
#else
#define REPRO_SHARED
#endif

/* Mirrors of Python constants, cross-checked at load by repro.accel:
 * repro.common.addr's LINE_BITS and WORD_BITS, the MsgType values the
 * engine kernels send and the miss-history flags of repro.protocol.base. */
#define K_LINE_BITS 6
#define K_WORD_BITS 3
#define K_MSG_READ_REQ 0
#define K_MSG_WRITE_REQ 1
#define K_MSG_UPGRADE_REQ 2
#define K_MSG_LINE_REPLY 3
#define K_MSG_WORD_REPLY 4
#define K_MSG_WORD_WRITE_ACK 5
#define K_MSG_INV_REQ 6
#define K_MSG_INV_ACK 8
#define K_MSG_WB_REQ 9
#define K_MSG_WB_DATA 10
#define K_MSG_EVICT_NOTIFY 11
#define K_MSG_EVICT_DIRTY 12
#define K_MSG_MEM_READ_REQ 13
#define K_MSG_MEM_READ_REPLY 14
#define K_MSG_MEM_WRITE 15
#define K_EVER_CACHED 1
#define K_LAST_REMOVAL_INVAL 2
#define K_EVER_REMOTE 4

/* Mirrors of repro.network.mesh's epoch width (the mesh kernel's
 * accounting unit; the scheduler kernel publishes its horizon in epochs),
 * cross-checked at load like the constants above. */
#define K_EPOCH_CYCLES 32
#define K_EPOCH_SHIFT 5

/* _kernel.c: the mesh kernel's path reservation, for the engine kernel.
 * repro_mesh_check is true for a compiled MeshKernel instance;
 * repro_mesh_traverse reserves the registered path `handle` from t_head
 * exactly like MeshKernel.traverse and stores the tail arrival in *out
 * (0), or sets a Python exception (-1). */
REPRO_SHARED int repro_mesh_check(PyObject *obj);
REPRO_SHARED int repro_mesh_traverse(PyObject *mesh, Py_ssize_t handle,
                                     double t_head, long long flits,
                                     double *out);

/* _sched.c: the byte offset of the __slots__ member `name` of `type`
 * (an object slot), or -1 with a Python exception set. */
REPRO_SHARED Py_ssize_t repro_member_offset(PyObject *type, const char *name);

/* Type registration, called from the module init in _kernel.c. */
REPRO_SHARED int repro_sched_register(PyObject *mod);
REPRO_SHARED int repro_home_register(PyObject *mod);
REPRO_SHARED int repro_directory_register(PyObject *mod);
REPRO_SHARED int repro_dls_register(PyObject *mod);
REPRO_SHARED int repro_neat_register(PyObject *mod);
PyMODINIT_FUNC PyInit__repro_mesh_kernel(void);

/* ------------------------------------------------------------------ */
/* Helpers of the engine kernels, which work on slotted Python objects */
/* through their __slots__ offsets.                                    */
/* ------------------------------------------------------------------ */

#define SLOT(obj, off) ((PyObject **)((char *)(obj) + (off)))

static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = *SLOT(obj, off);
    if (v == NULL) {
        PyErr_Format(PyExc_AttributeError, "unset %s slot",
                     Py_TYPE(obj)->tp_name);
    }
    return v;  /* borrowed */
}

static inline void
slot_put(PyObject *obj, Py_ssize_t off, PyObject *value)  /* steals */
{
    PyObject **slot = SLOT(obj, off);
    PyObject *old = *slot;
    *slot = value;
    Py_XDECREF(old);
}

static inline int
slot_double(PyObject *obj, Py_ssize_t off, double *out)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        return -1;
    }
    if (PyFloat_CheckExact(v)) {
        *out = PyFloat_AS_DOUBLE(v);
        return 0;
    }
    double d = PyFloat_AsDouble(v);
    if (d == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    *out = d;
    return 0;
}

static inline int
slot_set_double(PyObject *obj, Py_ssize_t off, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v == NULL) {
        return -1;
    }
    slot_put(obj, off, v);
    return 0;
}

static inline int
slot_long(PyObject *obj, Py_ssize_t off, long long *out)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        return -1;
    }
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred()) {
        return -1;
    }
    *out = x;
    return 0;
}

static inline int
slot_set_long(PyObject *obj, Py_ssize_t off, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL) {
        return -1;
    }
    slot_put(obj, off, v);
    return 0;
}

static inline void
slot_set_bool(PyObject *obj, Py_ssize_t off, int value)
{
    slot_put(obj, off, Py_NewRef(value ? Py_True : Py_False));
}

/* counter += delta on an int slot. */
static inline int
slot_add(PyObject *obj, Py_ssize_t off, long long delta)
{
    long long x;
    if (slot_long(obj, off, &x) < 0) {
        return -1;
    }
    return slot_set_long(obj, off, x + delta);
}

static inline int
slot_bump(PyObject *obj, Py_ssize_t off)
{
    return slot_add(obj, off, 1);
}

/* Truthiness of a slot holding a bool (or anything). */
static inline int
slot_true(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        return -1;
    }
    if (v == Py_True) {
        return 1;
    }
    if (v == Py_False) {
        return 0;
    }
    return PyObject_IsTrue(v);
}

/* Python's list(seq) into slot `off` of obj. */
static inline int
slot_copy_list(PyObject *obj, Py_ssize_t off, PyObject *seq)
{
    PyObject *copy = PySequence_List(seq);
    if (copy == NULL) {
        return -1;
    }
    slot_put(obj, off, copy);
    return 0;
}

static inline int
check_type(PyObject *obj, PyObject *type, const char *what)
{
    if ((PyObject *)Py_TYPE(obj) != type) {
        PyErr_Format(PyExc_TypeError, "kernel: expected %s, got %s",
                     what, Py_TYPE(obj)->tp_name);
        return -1;
    }
    return 0;
}

static inline int
arg_long(PyObject *obj, long long *out)
{
    long long x = PyLong_AsLongLong(obj);
    if (x == -1 && PyErr_Occurred()) {
        return -1;
    }
    *out = x;
    return 0;
}

/* A line or word number: non-negative, as every address yields. */
static inline int
arg_index(PyObject *obj, long long *out)
{
    if (arg_long(obj, out) < 0) {
        return -1;
    }
    if (*out < 0) {
        PyErr_SetString(PyExc_ValueError, "kernel: negative line or word");
        return -1;
    }
    return 0;
}

static inline int
arg_double(PyObject *obj, double *out)
{
    if (PyFloat_CheckExact(obj)) {
        *out = PyFloat_AS_DOUBLE(obj);
        return 0;
    }
    double d = PyFloat_AsDouble(obj);
    if (d == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    *out = d;
    return 0;
}

/* getattr(obj, name) through the interned name: a fresh string per call
 * would enter CPython's type-attribute cache (keyed by the name object)
 * as a new entry each time, and that cache keeps the strings alive. */
static inline PyObject *
repro_getattr(PyObject *obj, const char *name)
{
    PyObject *key = PyUnicode_InternFromString(name);
    if (key == NULL) {
        return NULL;
    }
    PyObject *out = PyObject_GetAttr(obj, key);
    Py_DECREF(key);
    return out;
}

/* obj.a, or obj.a.b when b is not NULL (new reference). */
static inline PyObject *
attr_chain(PyObject *obj, const char *a, const char *b)
{
    PyObject *mid = repro_getattr(obj, a);
    if (mid == NULL || b == NULL) {
        return mid;
    }
    PyObject *out = repro_getattr(mid, b);
    Py_DECREF(mid);
    return out;
}

static inline int
attr_long(PyObject *obj, const char *a, const char *b, long long *out)
{
    PyObject *v = attr_chain(obj, a, b);
    if (v == NULL) {
        return -1;
    }
    int rc = arg_long(v, out);
    Py_DECREF(v);
    return rc;
}

/* type(obj), as a new reference the kernel holds. */
static inline PyObject *
type_of(PyObject *obj)
{
    return Py_NewRef((PyObject *)Py_TYPE(obj));
}

/* A fresh instance of a slotted class, its slots unset (the caller sets
 * every slot its __init__ would). */
static inline PyObject *
new_slotted(PyObject *type)
{
    PyTypeObject *t = (PyTypeObject *)type;
    return t->tp_alloc(t, 0);
}

/* getattr(import_module(module), name), new reference. */
static inline PyObject *
imported(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL) {
        return NULL;
    }
    PyObject *out = repro_getattr(mod, name);
    Py_DECREF(mod);
    return out;
}

/* The __slots__ offsets of `names` (NULL-terminated) of `type`, into
 * `outs` in order; -1 with a Python exception set. */
static inline int
slot_offsets(PyObject *type, const char *const *names, Py_ssize_t *const *outs)
{
    for (; *names != NULL; names++, outs++) {
        **outs = repro_member_offset(type, *names);
        if (**outs < 0) {
            return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The engine kernel (_home.c): every engine builds exactly one.  Each  */
/* family subtype's object starts with this struct and takes the home  */
/* steps and the L1-side helpers below on itself.                      */
/* ------------------------------------------------------------------ */

/* MissType members, by name. */
enum { MISS_COLD, MISS_CAPACITY, MISS_UPGRADE, MISS_SHARING, MISS_WORD,
       NUM_MISS };
#define NUM_BUCKETS 5

typedef struct HomeObject HomeObject;

struct HomeObject {
    PyObject_HEAD
    /* The engine, weakly: it owns this kernel, and a strong reference back
     * would make every engine garbage only the cyclic collector frees.
     * `engine` is set from it at the entry of every method and is valid
     * for that call (KERNEL_METHOD holds a reference). */
    PyObject *engine_ref;
    PyObject *engine;
    /* Strong references (GC-tracked). */
    PyObject *l2;            /* list of L2Slice, by tile */
    PyObject *paths;         /* MeshNetwork route memo (list of handles) */
    PyObject *resolve;       /* MeshNetwork.resolve_path (bound) */
    PyObject *mesh;          /* the compiled MeshKernel */
    PyObject *pages;         /* RNucaPageTable._pages */
    PyObject *page_table;    /* classify_data is looked up on it */
    PyObject *controllers;   /* list of MemoryController, by line % n */
    PyObject *home_of_line;  /* engine._home_of_line */
    PyObject *dram_image;    /* engine._dram_image */
    PyObject *line_size;     /* MemoryController.bytes_transferred step */
    PyObject *line_type;     /* L2Line */
    PyObject *result_type;   /* AccessResult */
    PyObject *slice_type;    /* L2Slice */
    PyObject *store_type;    /* SetAssocCache, of the L2 and the L1s */
    PyObject *energy_type;   /* EnergyCounters */
    PyObject *ctrl_type;     /* MemoryController */
    PyObject *simulation_error;
    /* DirectoryEntry, which a fill installs: set by the directory subtype,
     * NULL (install nothing) at a directoryless home. */
    PyObject *entry_type;
    /* The L1 side, which the family subtypes share. */
    PyObject *l1d;           /* list of L1Cache, by core */
    PyObject *history;       /* list of {line: flags}, by core */
    PyObject *golden;        /* GoldenMemory, or NULL */
    PyObject *hit_result;    /* engine._hit_result */
    PyObject *zero;          /* 0.0 */
    PyObject *l1_type, *cline_type, *stats_type, *hist_type;
    PyObject *st_shared, *st_excl, *st_mod;
    PyObject *miss[NUM_MISS];
    PyObject *bucket_keys[NUM_BUCKETS];  /* UTILIZATION_BUCKETS */
    /* Geometry (constant per engine). */
    long long num_tiles;
    long long num_ctrls;
    long long *ctrl_tiles;   /* tile of controllers[i] */
    long long *flits;        /* flits per message type */
    Py_ssize_t num_msgs;
    long long set_mask;
    Py_ssize_t assoc;
    long long l1_mask;
    Py_ssize_t l1_assoc;
    double l2_latency;
    long long words_per_line;
    int page_shift;          /* >= 0: page = line >> page_shift */
    long long page_size;     /* else page = (line << LINE_BITS) / page_size */
    double dram_latency;     /* MemoryController.access's latency and */
    double dram_service;     /* line_size / bandwidth, per line */
    int verify;
    /* The engine's class overrides _evict_l2_line (victim replication):
     * an L2 eviction calls it instead of taking the base steps here. */
    int evict_hook;
    /* The subtype's purge of the L1 copies of an evicted L2 line (the
     * directory kernel's purge_copies), or NULL: nothing to purge. */
    int (*purge)(HomeObject *k, long long home, PyObject *vline_obj,
                 PyObject *ventry, double t);
    Py_ssize_t miss_index[NUM_MISS];
    /* __slots__ offsets. */
    Py_ssize_t off_energy, off_miss_stats, off_inval_hist, off_evict_hist;
    Py_ssize_t off_slice_store, off_slice_hits, off_slice_misses;
    Py_ssize_t off_slice_wreads, off_slice_wwrites, off_slice_lreads;
    Py_ssize_t off_store_sets, off_store_use, off_store_observer;
    Py_ssize_t off_e_tag, off_e_wreads, off_e_wwrites, off_e_lwrites;
    Py_ssize_t off_e_lreads, off_e_l1d_reads, off_e_l1d_writes;
    Py_ssize_t off_e_l1d_tag, off_e_l1d_fills;
    Py_ssize_t off_busy, off_last_use, off_last_access, off_dirty;
    Py_ssize_t off_dirty_words, off_l2_data, off_locality, off_replica;
    Py_ssize_t off_r_latency, off_r_l1l2, off_r_wait, off_r_sharers;
    Py_ssize_t off_r_offchip, off_r_hit, off_r_miss_type, off_r_remote;
    Py_ssize_t off_directory, off_d_sharers, off_d_owner, off_d_overflowed;
    Py_ssize_t off_m_next_free, off_m_requests, off_m_bytes, off_m_queue;
    Py_ssize_t off_l1_store, off_l1_hits, off_l1_misses;
    Py_ssize_t off_c_state, off_c_last_use, off_c_last_access, off_c_util;
    Py_ssize_t off_c_data;
    Py_ssize_t off_ms_hits, off_ms_counts, off_h_counts;
};

REPRO_SHARED extern PyTypeObject HomeType;

/* A kernel's class name, without the module's. */
static inline const char *
kernel_name(void *k)
{
    const char *name = Py_TYPE((PyObject *)k)->tp_name;
    const char *dot = strrchr(name, '.');
    return dot == NULL ? name : dot + 1;
}

/* The engine behind a kernel's weak reference, as a new reference; NULL
 * with ReferenceError set once it is gone. */
static inline PyObject *
kernel_engine(HomeObject *k)
{
    if (k->engine_ref == NULL) {
        PyErr_Format(PyExc_RuntimeError, "%s was cleared", kernel_name(k));
        return NULL;
    }
#if PY_VERSION_HEX >= 0x030D0000
    PyObject *engine;
    if (PyWeakref_GetRef(k->engine_ref, &engine) < 0) {
        return NULL;
    }
#else
    PyObject *engine = PyWeakref_GetObject(k->engine_ref);
    if (engine == NULL) {
        return NULL;
    }
    engine = engine == Py_None ? NULL : Py_NewRef(engine);
#endif
    if (engine == NULL) {
        PyErr_Format(PyExc_ReferenceError, "the engine of this %s is gone",
                     kernel_name(k));
    }
    return engine;
}

/* A METH_FASTCALL method `prefix##_##name` of a kernel whose struct
 * `type` starts with a HomeObject: checks the argument count, holds the
 * engine for the call and runs the body `name##_impl`.  The engine an
 * outer call holds is restored at exit, because a family hook the call
 * runs may re-enter the same kernel. */
#define KERNEL_METHOD(type, prefix, name, n, sig)                           \
    static PyObject *name##_impl(type *k, PyObject *const *args);           \
    static PyObject *                                                       \
    prefix##_##name(type *k, PyObject *const *args, Py_ssize_t nargs)       \
    {                                                                       \
        if (nargs != (n)) {                                                 \
            PyErr_SetString(PyExc_TypeError, sig);                          \
            return NULL;                                                    \
        }                                                                   \
        HomeObject *hk = (HomeObject *)k;                                   \
        PyObject *engine = kernel_engine(hk);                               \
        if (engine == NULL) {                                               \
            return NULL;                                                    \
        }                                                                   \
        PyObject *saved = hk->engine;                                       \
        hk->engine = engine;                                                \
        PyObject *out = name##_impl(k, args);                               \
        hk->engine = saved;                                                 \
        Py_DECREF(engine);                                                  \
        return out;                                                         \
    }                                                                       \
    static PyObject *name##_impl(type *k, PyObject *const *args)

#define KERNEL_FASTCALL(prefix, name, doc) \
    {#name, (PyCFunction)(void (*)(void))prefix##_##name, METH_FASTCALL, doc}

/* A family subtype's constructor: the home part, built by HomeType's, then
 * `init` (if any) on the same engine, after checking it is an instance of
 * `family`, a class of `module`. */
REPRO_SHARED PyObject *home_subtype_new(PyTypeObject *type, PyObject *args,
                                        PyObject *kwds, const char *module,
                                        const char *family,
                                        int (*init)(HomeObject *k,
                                                    PyObject *engine));

/* The access arguments core, is_write, address and now, decoded: line,
 * word, and core checked as a tile. */
REPRO_SHARED int home_access_args(HomeObject *k, PyObject *const *args,
                                  long long *core, int *is_write,
                                  long long *line, long long *word,
                                  double *now);

/* The home steps and the helpers they share with the family subtypes,
 * each on a kernel held by its method's entry.  Message types are MsgType
 * values.  Each returns 0 (or a new reference) on success, -1 (NULL) with
 * a Python exception set; a lookup that finds nothing returns NULL with
 * no exception. */
REPRO_SHARED int home_check_tile(HomeObject *k, long long tile);
/* The engine's current `off` object (energy, miss stats, a histogram:
 * reset_stats replaces them), type-checked; borrowed. */
REPRO_SHARED PyObject *home_engine_part(HomeObject *k, Py_ssize_t off,
                                        PyObject *type, const char *what);
REPRO_SHARED int home_energy_bump(HomeObject *k, Py_ssize_t off);
/* Reserve message `msg` on the route src -> dst (registered through
 * MeshNetwork.resolve_path on a route-memo miss) from t; the tail arrival
 * in *out. */
REPRO_SHARED int home_leg(HomeObject *k, long long src, long long dst,
                          long long msg, double t, double *out);
/* The set dict of `line` in a SetAssocCache (borrowed). */
REPRO_SHARED PyObject *home_store_bucket(HomeObject *k, PyObject *store,
                                         long long mask, long long line);
/* The L2 line `line` at `tile` (borrowed), or NULL. */
REPRO_SHARED PyObject *home_lookup(HomeObject *k, long long tile,
                                   long long line, PyObject *line_obj);
/* The LRU way of a set: the first entry, in dict order, with the smallest
 * last_use - what min(bucket, key=...) returns (both borrowed). */
REPRO_SHARED int home_lru(PyObject *bucket, PyObject *type, const char *what,
                          Py_ssize_t off_last_use, PyObject **key,
                          PyObject **entry);
/* store._use_counter += 1; entry.last_use = store._use_counter. */
REPRO_SHARED int home_touch(HomeObject *k, PyObject *store, PyObject *entry,
                            Py_ssize_t off_last_use);
REPRO_SHARED int home_place(HomeObject *k, long long line, int by_word,
                            long long word, PyObject *core_obj, long long core,
                            long long *home, long long *flush);
REPRO_SHARED PyObject *home_deliver(HomeObject *k, long long core,
                                    PyObject *line_obj, long long line,
                                    long long home, long long flush,
                                    long long req_msg, PyObject *now_obj,
                                    double now, PyObject *result,
                                    PyObject **slice_out, double *t_out);
/* round_trip on a placed miss, home_deliver then the reply leg: the line
 * (new reference), its slice (borrowed), the service time and the reply's
 * arrival. */
REPRO_SHARED PyObject *home_round_trip(HomeObject *k, long long core,
                                       PyObject *line_obj, long long line,
                                       long long home, long long flush,
                                       long long req_msg, long long reply_msg,
                                       PyObject *now_obj, double now,
                                       PyObject *result, PyObject **slice_out,
                                       double *t_out, double *reply_out);
REPRO_SHARED int home_serve_word(HomeObject *k, PyObject *core_obj,
                                 int is_write, PyObject *line_obj,
                                 long long word, PyObject *word_obj,
                                 PyObject *l2line, PyObject *slice_);
REPRO_SHARED int home_settle(HomeObject *k, PyObject *slice_,
                             PyObject *l2line, PyObject *t_obj, int owned);

/* The L1 side: L1Cache and SetAssocCache steps (membership changes go
 * through the store's _observer, as SetAssocCache.insert/pop do), the
 * AccessResult, miss statistics, histories, histograms and golden checks. */
/* The L1Cache of `core` and its store (both borrowed). */
REPRO_SHARED PyObject *home_l1_of(HomeObject *k, long long core,
                                  PyObject **store);
/* The L1 entry of (core, line), borrowed; NULL without an exception when
 * absent. */
REPRO_SHARED PyObject *home_l1_lookup(HomeObject *k, long long core,
                                      long long line, PyObject *line_obj);
/* The entry a verify-mode step reads as l1.lookup(line).data (borrowed):
 * NULL with Python's AttributeError when the line is absent. */
REPRO_SHARED PyObject *home_l1_resident(HomeObject *k, long long core,
                                        long long line, PyObject *line_obj);
/* L1 SetAssocCache.pop: the removed entry (new reference), or NULL - with
 * no exception set when the line was absent. */
REPRO_SHARED PyObject *home_l1_pop(HomeObject *k, long long core,
                                   long long line, PyObject *line_obj);
/* L1Cache.fill of `line` in `state` at reply_t with a copy of `data` (the
 * L2 line's, in verify mode; else NULL): evicts the LRU way of a full set
 * into *ev_line / *ev_entry (new references, else NULL). */
REPRO_SHARED int home_l1_fill(HomeObject *k, long long core, long long line,
                              PyObject *line_obj, PyObject *state,
                              double reply_t, PyObject *data,
                              PyObject **ev_line, PyObject **ev_entry);
/* The use of a resident copy at t_obj: LRU touch, utilization + 1,
 * last_access = t_obj (L1Cache.hit without the hit count). */
REPRO_SHARED int home_l1_use(HomeObject *k, PyObject *store, PyObject *entry,
                             PyObject *t_obj);
/* L1Cache.hit, then MissStats.record_hit. */
REPRO_SHARED int home_l1_hit(HomeObject *k, PyObject *l1, PyObject *store,
                             PyObject *entry, PyObject *now_obj);
/* A fresh AccessResult, its slots as __init__ sets them (new reference). */
REPRO_SHARED PyObject *home_new_result(HomeObject *k);
/* result.latency = reply_t - now and result.l1_to_l2 = latency -
 * l2_waiting - l2_sharers - l2_offchip (sharers_lat the l2_sharers). */
REPRO_SHARED int home_finish_result(HomeObject *k, PyObject *result,
                                    double now, double reply_t,
                                    double sharers_lat);
/* MissStats.record_miss on the engine's current miss stats. */
REPRO_SHARED int home_miss_record(HomeObject *k, int miss);
/* The history dict of `core` (borrowed) and its flags for line_obj. */
REPRO_SHARED PyObject *home_history(HomeObject *k, long long core,
                                    PyObject *line_obj, long long *flags);
/* history[core][line] = (history[core].get(line, 0) | set) & ~clear. */
REPRO_SHARED int home_history_update(HomeObject *k, long long core,
                                     PyObject *line_obj, long long set,
                                     long long clear);
/* UtilizationHistogram.record on the engine's current histogram `off`. */
REPRO_SHARED int home_hist_record(HomeObject *k, Py_ssize_t off,
                                  long long util);
/* Verify mode: golden.check_read(line, word, entry.data[word],
 * f"{what} core {core}"). */
REPRO_SHARED int home_golden_check(HomeObject *k, PyObject *entry,
                                   PyObject *line_obj, long long word,
                                   const char *what, long long core);

/* _classify_miss of repro.protocol.base. */
static inline int
home_classify_miss(long long flags, int upgrade, int remote)
{
    if (upgrade) {
        return MISS_UPGRADE;
    }
    if (remote && (flags & K_EVER_REMOTE)) {
        return MISS_WORD;
    }
    if (!(flags & K_EVER_CACHED)) {
        return MISS_COLD;
    }
    return flags & K_LAST_REMOVAL_INVAL ? MISS_SHARING : MISS_CAPACITY;
}

#endif
