/* Compiled home kernel: the family-agnostic home side of every miss.
 *
 * One HomeKernel serves one protocol engine (DESIGN.md section 15).  Its
 * pure-Python twin and reference, PyHomeKernel in repro/protocol/home.py,
 * has the same constructor, methods and attributes; an engine builds this
 * one exactly when its mesh kernel is the compiled MeshKernel, because the
 * legs are reserved by direct C calls into that kernel (_accel.h).
 *
 * The kernel keeps no state of its own, and holds its engine weakly (the
 * engine owns the kernel).  It works on the engine's Python
 * objects through their __slots__ offsets, the way SchedKernel works on
 * CacheLine (DESIGN.md section 14): the page table's `_pages` dict, the L2
 * slices (`store`, hit/miss/word counters), their SetAssocCache stores
 * (`_sets`, `_use_counter`, `_observer`), the L2Line entries (`busy_until`,
 * `last_use`, `last_access`, `dirty`, `dirty_words`), the AccessResult
 * latency slots and the engine's `energy` counters - re-read from the
 * engine on every update, because reset_stats replaces the object at the
 * warmup boundary.  It calls back into Python only for page-table side
 * effects (RNucaPageTable.classify_data), page flushes
 * (_flush_private_page), the off-chip fill's family hook
 * (_evict_l2_line), the fill itself (L2Slice.fill),
 * the DRAM controller (MemoryController.access), route registration
 * (MeshNetwork.resolve_path) and the verify-mode golden steps
 * (_verify_word).  Every callback is looked up on the live object, so a
 * method wrapped after the engine was built is the one called.
 *
 * Exactness (pinned by the home-kernel contract property and the RunStats
 * fixtures under both implementations):
 *
 *   - the R-NUCA hash ((line * 2654435761) >> 16) % num_cores and the DLS
 *     word home (line * words_per_line + word) % num_cores are computed in
 *     unsigned __int128: the product passes 64 bits once the line number
 *     passes 6,949,403,087, inside the 48-bit address space;
 *   - every float step keeps the Python order and operands: busy - t1,
 *     busy + l2_latency, t1 + l2_latency, t - l2_latency + 1.0, the strict
 *     `>` tests; the module is compiled -O2 without fast-math;
 *   - the LRU victim is the first entry, in dict order, with the smallest
 *     last_use - what min(bucket, key=...) returns;
 *   - each step runs where its Python step runs, and the two fused entry
 *     points (word_round_trip, serve_word_settle) fuse only steps with no
 *     Python between them.
 */

#include "_accel.h"

#include <structmember.h>

#include <limits.h>
#include <stdint.h>

/* Mirrors of Python constants; cross-checked at load by repro.accel. */
#define K_RNUCA_HASH_MULTIPLIER 2654435761ULL
#define K_RNUCA_HASH_SHIFT 16
#define K_PAGE_PRIVATE 0
#define K_PAGE_SHARED 1
#define K_MSG_MEM_READ_REQ 13
#define K_MSG_MEM_READ_REPLY 14

/* Interned callback names (set once in repro_home_register). */
static PyObject *str_flush_private_page;
static PyObject *str_evict_l2_line;
static PyObject *str_verify_word;
static PyObject *str_access;
static PyObject *str_fill;
static PyObject *str_pop;

typedef struct {
    PyObject_HEAD
    /* The engine, weakly: it owns this kernel, and a strong reference back
     * would make every engine garbage only the cyclic collector frees.
     * `engine` is set from it at the entry of every method and is valid
     * for that call (the entry holds a reference). */
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
    PyObject *line_size;     /* int argument of MemoryController.access */
    PyObject *line_type;     /* L2Line */
    PyObject *result_type;   /* AccessResult */
    PyObject *slice_type;    /* L2Slice */
    PyObject *store_type;    /* SetAssocCache */
    PyObject *energy_type;   /* EnergyCounters */
    PyObject *entry_type;    /* DirectoryEntry a fill installs, or NULL */
    /* Geometry (constant per engine). */
    long long num_tiles;
    long long num_ctrls;
    long long *ctrl_tiles;   /* tile of controllers[i] */
    long long *flits;        /* flits per message type */
    Py_ssize_t num_msgs;
    long long set_mask;
    Py_ssize_t assoc;
    double l2_latency;
    long long words_per_line;
    int page_shift;          /* >= 0: page = line >> page_shift */
    long long page_size;     /* else page = (line << LINE_BITS) / page_size */
    int verify;
    /* __slots__ offsets. */
    Py_ssize_t off_energy;
    Py_ssize_t off_slice_store, off_slice_hits, off_slice_misses;
    Py_ssize_t off_slice_wreads, off_slice_wwrites;
    Py_ssize_t off_store_sets, off_store_use, off_store_observer;
    Py_ssize_t off_e_tag, off_e_wreads, off_e_wwrites, off_e_lwrites;
    Py_ssize_t off_busy, off_last_use, off_last_access, off_dirty;
    Py_ssize_t off_dirty_words;
    Py_ssize_t off_r_wait, off_r_offchip;
    Py_ssize_t off_directory, off_d_sharers, off_d_owner, off_d_overflowed;
} HomeObject;

/* engine.energy, type-checked (borrowed). */
static PyObject *
energy_of(HomeObject *k)
{
    PyObject *energy = slot_get(k->engine, k->off_energy);
    if (energy == NULL || check_type(energy, k->energy_type,
                                     "EnergyCounters") < 0) {
        return NULL;
    }
    return energy;
}

static int
energy_bump(HomeObject *k, Py_ssize_t off)
{
    PyObject *energy = energy_of(k);
    return energy == NULL ? -1 : slot_bump(energy, off);
}

/* ------------------------------------------------------------------ */
/* Argument helpers                                                    */
/* ------------------------------------------------------------------ */

/* A line or word number: non-negative, as every address yields. */
static int
arg_index(PyObject *obj, long long *out)
{
    if (arg_long(obj, out) < 0) {
        return -1;
    }
    if (*out < 0) {
        PyErr_SetString(PyExc_ValueError, "home kernel: negative line or word");
        return -1;
    }
    return 0;
}

static int
check_tile(HomeObject *k, long long tile)
{
    if (tile < 0 || tile >= k->num_tiles) {
        PyErr_Format(PyExc_IndexError, "home kernel: tile %lld out of range",
                     tile);
        return -1;
    }
    return 0;
}

static int
msg_flits(HomeObject *k, PyObject *msg, long long *out)
{
    long long m;
    if (arg_long(msg, &m) < 0) {
        return -1;
    }
    if (m < 0 || m >= k->num_msgs) {
        PyErr_SetString(PyExc_IndexError, "home kernel: bad message type");
        return -1;
    }
    *out = k->flits[m];
    return 0;
}

/* Resolve the engine for one method call: sets k->engine and returns a
 * new reference the caller releases at exit. */
static PyObject *
engine_enter(HomeObject *k)
{
    if (k->engine_ref == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "home kernel was cleared");
        return NULL;
    }
    k->engine = repro_weak_engine(k->engine_ref, "home kernel");
    return k->engine;
}

/* ------------------------------------------------------------------ */
/* Placement                                                           */
/* ------------------------------------------------------------------ */

static long long
shared_home(HomeObject *k, long long line)
{
    unsigned __int128 h = (unsigned __int128)(unsigned long long)line
                          * K_RNUCA_HASH_MULTIPLIER;
    return (long long)((h >> K_RNUCA_HASH_SHIFT)
                       % (unsigned long long)k->num_tiles);
}

static long long
shared_word_home(HomeObject *k, long long line, long long word)
{
    unsigned __int128 w = (unsigned __int128)(unsigned long long)line
                          * (unsigned long long)k->words_per_line
                          + (unsigned long long)word;
    return (long long)(w % (unsigned long long)k->num_tiles);
}

/* The home of (line, word) for `core`: DLS's data_word_home when by_word,
 * else the line-hashed data_home.  *flush is the old private owner
 * on a private -> shared transition, else -1.  The page table's dict
 * answers every access whose classification has no side effect; any
 * other goes through classify_data. */
static int
place(HomeObject *k, long long line, int by_word, long long word,
      PyObject *core_obj, long long core, long long *home, long long *flush)
{
    long long page;
    if (k->page_shift >= 0) {
        page = line >> k->page_shift;
    }
    else {
        page = (long long)(((unsigned __int128)(unsigned long long)line
                            << K_LINE_BITS)
                           / (unsigned long long)k->page_size);
    }
    PyObject *page_obj = PyLong_FromLongLong(page);
    if (page_obj == NULL) {
        return -1;
    }
    PyObject *entry = PyDict_GetItemWithError(k->pages, page_obj);
    if (entry == NULL && PyErr_Occurred()) {
        Py_DECREF(page_obj);
        return -1;
    }
    if (entry != NULL && PyTuple_CheckExact(entry)
        && PyTuple_GET_SIZE(entry) == 2) {
        long long kind, owner;
        if (arg_long(PyTuple_GET_ITEM(entry, 0), &kind) < 0
            || arg_long(PyTuple_GET_ITEM(entry, 1), &owner) < 0) {
            Py_DECREF(page_obj);
            return -1;
        }
        if (kind == K_PAGE_SHARED) {
            Py_DECREF(page_obj);
            *home = by_word ? shared_word_home(k, line, word)
                            : shared_home(k, line);
            *flush = -1;
            return 0;
        }
        if (owner == core) {
            Py_DECREF(page_obj);
            *home = owner;
            *flush = -1;
            return 0;
        }
    }
    PyObject *classify = repro_getattr(k->page_table, "classify_data");
    if (classify == NULL) {
        Py_DECREF(page_obj);
        return -1;
    }
    PyObject *args[2] = {page_obj, core_obj};
    PyObject *res = PyObject_Vectorcall(classify, args, 2, NULL);
    Py_DECREF(classify);
    Py_DECREF(page_obj);
    if (res == NULL) {
        return -1;
    }
    if (!PyTuple_Check(res) || PyTuple_GET_SIZE(res) != 3) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_TypeError,
                        "classify_data must return (kind, owner, previous)");
        return -1;
    }
    long long kind, owner;
    if (arg_long(PyTuple_GET_ITEM(res, 0), &kind) < 0
        || arg_long(PyTuple_GET_ITEM(res, 1), &owner) < 0) {
        Py_DECREF(res);
        return -1;
    }
    if (kind == K_PAGE_PRIVATE) {
        *home = owner;
        *flush = -1;
    }
    else {
        PyObject *prev = PyTuple_GET_ITEM(res, 2);
        *home = by_word ? shared_word_home(k, line, word) : shared_home(k, line);
        *flush = -1;
        if (prev != Py_None && arg_long(prev, flush) < 0) {
            Py_DECREF(res);
            return -1;
        }
    }
    Py_DECREF(res);
    return 0;
}

/* A new tuple of `n` new references; NULL items fail it (and are
 * released with it). */
static PyObject *
pack(Py_ssize_t n, PyObject *a, PyObject *b, PyObject *c, PyObject *d)
{
    PyObject *items[4] = {a, b, c, d};
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (out == NULL || items[i] == NULL) {
            for (Py_ssize_t j = i; j < n; j++) {
                Py_XDECREF(items[j]);
            }
            Py_XDECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, items[i]);
    }
    return out;
}

static PyObject *
home_pair(long long home, long long flush)
{
    return pack(2, PyLong_FromLongLong(home),
                flush < 0 ? Py_NewRef(Py_None) : PyLong_FromLongLong(flush),
                NULL, NULL);
}

/* ------------------------------------------------------------------ */
/* Legs                                                                */
/* ------------------------------------------------------------------ */

/* The route handle src -> dst from the route memo, registering it through
 * MeshNetwork.resolve_path on a memo miss; -1 with an exception set. */
static Py_ssize_t
route(HomeObject *k, long long src, long long dst)
{
    if (check_tile(k, src) < 0 || check_tile(k, dst) < 0) {
        return -1;
    }
    Py_ssize_t key = (Py_ssize_t)(src * k->num_tiles + dst);
    if (key >= PyList_GET_SIZE(k->paths)) {
        PyErr_SetString(PyExc_IndexError, "home kernel: route memo too short");
        return -1;
    }
    PyObject *handle = PyList_GET_ITEM(k->paths, key);
    if (handle != Py_None) {
        return PyLong_AsSsize_t(handle);
    }
    PyObject *res = PyObject_CallFunction(k->resolve, "LL", src, dst);
    if (res == NULL) {
        return -1;
    }
    Py_ssize_t h = PyLong_AsSsize_t(res);
    Py_DECREF(res);
    return h;
}

static int
leg(HomeObject *k, long long src, long long dst, long long flits,
    double t, double *out)
{
    Py_ssize_t h = route(k, src, dst);
    if (h == -1 && PyErr_Occurred()) {
        return -1;
    }
    return repro_mesh_traverse(k->mesh, h, t, flits, out);
}

/* The L2 slice of `home` (borrowed). */
static PyObject *
slice_at(HomeObject *k, long long home)
{
    if (check_tile(k, home) < 0) {
        return NULL;
    }
    return PyList_GET_ITEM(k->l2, (Py_ssize_t)home);
}

/* The set dict of `line` in `slice_`'s store (borrowed). */
static PyObject *
bucket_of(HomeObject *k, PyObject *slice_, long long line, PyObject **store)
{
    if (check_type(slice_, k->slice_type, "L2Slice") < 0) {
        return NULL;
    }
    PyObject *st = slot_get(slice_, k->off_slice_store);
    if (st == NULL || check_type(st, k->store_type, "SetAssocCache") < 0) {
        return NULL;
    }
    PyObject *sets = slot_get(st, k->off_store_sets);
    if (sets == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(sets)) {
        PyErr_SetString(PyExc_TypeError, "home kernel: _sets is not a list");
        return NULL;
    }
    Py_ssize_t index = (Py_ssize_t)(line & k->set_mask);
    if (index >= PyList_GET_SIZE(sets)) {
        PyErr_SetString(PyExc_IndexError, "home kernel: set index out of range");
        return NULL;
    }
    PyObject *bucket = PyList_GET_ITEM(sets, index);
    if (!PyDict_CheckExact(bucket)) {
        PyErr_SetString(PyExc_TypeError, "home kernel: set is not a dict");
        return NULL;
    }
    if (store != NULL) {
        *store = st;
    }
    return bucket;
}

static int
set_result(HomeObject *k, PyObject *result, Py_ssize_t off, double value)
{
    if (check_type(result, k->result_type, "AccessResult") < 0) {
        return -1;
    }
    return slot_set_double(result, off, value);
}

/* Both legs of a miss on a resident line: chain_request_reply, with the
 * request and reply legs' flit counts. */
static int
chain(HomeObject *k, long long core, long long home, PyObject *l2line,
      PyObject *slice_, long long f1, long long f2, double now,
      PyObject *result, double *t_out, double *reply_out)
{
    if (check_type(l2line, k->line_type, "L2Line") < 0
        || check_type(slice_, k->slice_type, "L2Slice") < 0) {
        return -1;
    }
    Py_ssize_t h1 = route(k, core, home);
    if (h1 == -1 && PyErr_Occurred()) {
        return -1;
    }
    Py_ssize_t h2 = route(k, home, core);
    if (h2 == -1 && PyErr_Occurred()) {
        return -1;
    }
    double busy, t1, reply_t;
    if (slot_double(l2line, k->off_busy, &busy) < 0
        || repro_mesh_traverse(k->mesh, h1, now, f1, &t1) < 0) {
        return -1;
    }
    double start = busy > t1 ? busy : t1;
    if (repro_mesh_traverse(k->mesh, h2, start + k->l2_latency, f2,
                            &reply_t) < 0) {
        return -1;
    }
    double t;
    if (busy > t1) {
        if (set_result(k, result, k->off_r_wait, busy - t1) < 0) {
            return -1;
        }
        t = busy + k->l2_latency;
    }
    else {
        t = t1 + k->l2_latency;
    }
    if (energy_bump(k, k->off_e_tag) < 0
        || slot_bump(slice_, k->off_slice_hits) < 0) {
        return -1;
    }
    *t_out = t;
    *reply_out = reply_t;
    return 0;
}

/* A fresh DirectoryEntry (the `entry_type` slots sharers, owner and
 * overflowed as its __init__ sets them) attached to a filled line. */
static int
install_entry(HomeObject *k, PyObject *l2line)
{
    PyTypeObject *type = (PyTypeObject *)k->entry_type;
    PyObject *entry = type->tp_alloc(type, 0);
    if (entry == NULL) {
        return -1;
    }
    PyObject *sharers = PySet_New(NULL);
    PyObject *owner = PyLong_FromLong(-1);
    if (sharers == NULL || owner == NULL) {
        Py_XDECREF(sharers);
        Py_XDECREF(owner);
        Py_DECREF(entry);
        return -1;
    }
    slot_put(entry, k->off_d_sharers, sharers);
    slot_put(entry, k->off_d_owner, owner);
    slot_put(entry, k->off_d_overflowed, Py_NewRef(Py_False));
    slot_put(l2line, k->off_directory, entry);
    return 0;
}

/* The off-chip fill of `line` at `home` from t: LRU victim (evicted
 * through the family's _evict_l2_line), MEM_READ_REQ, the controller,
 * MEM_READ_REPLY, L2Slice.fill and, for a family that tracks sharers, a
 * fresh directory entry.  Returns the new L2Line (new reference) and its
 * arrival time. */
static PyObject *
fill(HomeObject *k, long long home, PyObject *home_obj, long long line,
     PyObject *line_obj, double t, double *reply_out)
{
    PyObject *slice_ = slice_at(k, home);
    if (slice_ == NULL) {
        return NULL;
    }
    PyObject *store;
    PyObject *bucket = bucket_of(k, slice_, line, &store);
    if (bucket == NULL) {
        return NULL;
    }
    Py_INCREF(slice_);
    Py_INCREF(store);
    Py_INCREF(bucket);
    PyObject *l2line = NULL;
    PyObject *t_obj = NULL;

    if (PyDict_GET_SIZE(bucket) >= k->assoc) {
        /* LRU victim: the first entry with the smallest last_use. */
        Py_ssize_t pos = 0;
        PyObject *key, *value, *vkey = NULL, *ventry = NULL;
        long long best = LLONG_MAX;
        while (PyDict_Next(bucket, &pos, &key, &value)) {
            long long use;
            if (check_type(value, k->line_type, "L2Line") < 0
                || slot_long(value, k->off_last_use, &use) < 0) {
                goto done;
            }
            if (vkey == NULL || use < best) {
                best = use;
                vkey = key;
                ventry = value;
            }
        }
        Py_INCREF(vkey);
        Py_INCREF(ventry);
        t_obj = PyFloat_FromDouble(t);
        PyObject *res = NULL;
        if (t_obj != NULL) {
            PyObject *args[5] = {k->engine, home_obj, vkey, ventry, t_obj};
            res = PyObject_VectorcallMethod(
                str_evict_l2_line, args, 5 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                NULL);
        }
        Py_DECREF(ventry);
        if (res == NULL) {
            Py_DECREF(vkey);
            goto done;
        }
        Py_DECREF(res);
        /* slice_.remove(vline): the store's pop, straight on the set
         * dict unless a membership observer is attached. */
        PyObject *observer = slot_get(store, k->off_store_observer);
        if (observer == NULL) {
            Py_DECREF(vkey);
            goto done;
        }
        if (observer == Py_None) {
            int present = PyDict_Contains(bucket, vkey);
            if (present < 0
                || (present && PyDict_DelItem(bucket, vkey) < 0)) {
                Py_DECREF(vkey);
                goto done;
            }
        }
        else {
            PyObject *popped = PyObject_CallMethodObjArgs(store, str_pop,
                                                          vkey, NULL);
            if (popped == NULL) {
                Py_DECREF(vkey);
                goto done;
            }
            Py_DECREF(popped);
        }
        Py_DECREF(vkey);
    }

    {
        Py_ssize_t index = (Py_ssize_t)(line % k->num_ctrls);
        PyObject *ctrl = PyList_GET_ITEM(k->controllers, index);
        long long tile = k->ctrl_tiles[index];
        double req_t, finish, reply_t;
        if (leg(k, home, tile, k->flits[K_MSG_MEM_READ_REQ], t, &req_t) < 0) {
            goto done;
        }
        PyObject *req_obj = PyFloat_FromDouble(req_t);
        if (req_obj == NULL) {
            goto done;
        }
        PyObject *done_pair = PyObject_CallMethodObjArgs(
            ctrl, str_access, req_obj, k->line_size, NULL);
        Py_DECREF(req_obj);
        if (done_pair == NULL) {
            goto done;
        }
        if (!PyTuple_Check(done_pair) || PyTuple_GET_SIZE(done_pair) < 1) {
            Py_DECREF(done_pair);
            PyErr_SetString(PyExc_TypeError,
                            "MemoryController.access must return a tuple");
            goto done;
        }
        int bad = arg_double(PyTuple_GET_ITEM(done_pair, 0), &finish);
        Py_DECREF(done_pair);
        if (bad < 0
            || leg(k, tile, home, k->flits[K_MSG_MEM_READ_REPLY], finish,
                   &reply_t) < 0) {
            goto done;
        }

        PyObject *data;
        if (k->verify) {
            PyObject *image = PyDict_GetItemWithError(k->dram_image, line_obj);
            if (image != NULL) {
                data = PySequence_List(image);
            }
            else if (PyErr_Occurred()) {
                goto done;
            }
            else {
                data = PyList_New((Py_ssize_t)k->words_per_line);
                if (data != NULL) {
                    for (long long w = 0; w < k->words_per_line; w++) {
                        PyList_SET_ITEM(data, (Py_ssize_t)w, PyLong_FromLong(0));
                    }
                }
            }
            if (data == NULL) {
                goto done;
            }
        }
        else {
            data = Py_NewRef(Py_None);
        }
        PyObject *reply_obj = PyFloat_FromDouble(reply_t);
        if (reply_obj == NULL) {
            Py_DECREF(data);
            goto done;
        }
        PyObject *evicted = PyObject_CallMethodObjArgs(
            slice_, str_fill, line_obj, reply_obj, data, NULL);
        Py_DECREF(reply_obj);
        Py_DECREF(data);
        if (evicted == NULL) {
            goto done;
        }
        int displaced = evicted != Py_None;
        Py_DECREF(evicted);
        if (displaced) {
            PyObject *errors = PyImport_ImportModule("repro.common.errors");
            if (errors != NULL) {
                PyObject *exc = repro_getattr(errors,
                                                       "SimulationError");
                Py_DECREF(errors);
                if (exc != NULL) {
                    PyErr_SetString(exc, "L2 fill evicted after explicit "
                                         "victim handling");
                    Py_DECREF(exc);
                }
            }
            goto done;
        }
        l2line = PyDict_GetItemWithError(bucket, line_obj);
        if (l2line == NULL) {
            if (!PyErr_Occurred()) {
                PyErr_SetString(PyExc_RuntimeError,
                                "home kernel: filled line not in its set");
            }
            goto done;
        }
        Py_INCREF(l2line);
        if ((k->entry_type != NULL
             && (check_type(l2line, k->line_type, "L2Line") < 0
                 || install_entry(k, l2line) < 0))
            || energy_bump(k, k->off_e_lwrites) < 0
            || PyDict_SetItem(k->home_of_line, line_obj, home_obj) < 0) {
            Py_CLEAR(l2line);
            goto done;
        }
        *reply_out = reply_t;
    }

done:
    Py_XDECREF(t_obj);
    Py_DECREF(bucket);
    Py_DECREF(store);
    Py_DECREF(slice_);
    return l2line;
}

/* The general request leg: deliver_request.  Returns the line (new
 * reference) and stores its slice (borrowed) and the service time. */
static PyObject *
deliver(HomeObject *k, long long core, PyObject *line_obj, long long line,
        long long home, long long flush, long long flits, PyObject *now_obj,
        double now, PyObject *result, PyObject **slice_out, double *t_out)
{
    if (check_tile(k, home) < 0) {
        return NULL;
    }
    if (flush >= 0) {
        PyObject *owner = PyLong_FromLongLong(flush);
        if (owner == NULL) {
            return NULL;
        }
        PyObject *args[4] = {k->engine, line_obj, owner, now_obj};
        PyObject *res = PyObject_VectorcallMethod(
            str_flush_private_page, args, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET,
            NULL);
        Py_DECREF(owner);
        if (res == NULL) {
            return NULL;
        }
        Py_DECREF(res);
    }
    double t;
    if (leg(k, core, home, flits, now, &t) < 0) {
        return NULL;
    }
    PyObject *slice_ = slice_at(k, home);
    if (slice_ == NULL) {
        return NULL;
    }
    PyObject *bucket = bucket_of(k, slice_, line, NULL);
    if (bucket == NULL) {
        return NULL;
    }
    PyObject *l2line = PyDict_GetItemWithError(bucket, line_obj);
    if (l2line == NULL && PyErr_Occurred()) {
        return NULL;
    }
    if (l2line != NULL) {
        double busy;
        if (check_type(l2line, k->line_type, "L2Line") < 0
            || slot_double(l2line, k->off_busy, &busy) < 0) {
            return NULL;
        }
        if (busy > t) {
            if (set_result(k, result, k->off_r_wait, busy - t) < 0) {
                return NULL;
            }
            t = busy;
        }
    }
    t += k->l2_latency;
    if (energy_bump(k, k->off_e_tag) < 0) {
        return NULL;
    }
    if (l2line == NULL) {
        if (slot_bump(slice_, k->off_slice_misses) < 0) {
            return NULL;
        }
        PyObject *home_obj = PyLong_FromLongLong(home);
        if (home_obj == NULL) {
            return NULL;
        }
        double reply_t;
        l2line = fill(k, home, home_obj, line, line_obj, t, &reply_t);
        Py_DECREF(home_obj);
        if (l2line == NULL) {
            return NULL;
        }
        if (set_result(k, result, k->off_r_offchip, reply_t - t) < 0) {
            Py_DECREF(l2line);
            return NULL;
        }
        t = reply_t;
    }
    else {
        if (slot_bump(slice_, k->off_slice_hits) < 0) {
            return NULL;
        }
        Py_INCREF(l2line);
    }
    *slice_out = slice_;
    *t_out = t;
    return l2line;
}

/* round_trip on a placed miss; returns (slice_, l2line, t, reply_t). */
static PyObject *
round_trip(HomeObject *k, long long core, PyObject *line_obj, long long line,
           long long home, long long flush, PyObject *req_msg,
           PyObject *reply_msg, PyObject *now_obj, double now,
           PyObject *result)
{
    PyObject *slice_, *l2line;
    double t, reply_t;
    long long f1, f2;
    if (msg_flits(k, req_msg, &f1) < 0 || msg_flits(k, reply_msg, &f2) < 0) {
        return NULL;
    }
    if (flush < 0) {
        slice_ = slice_at(k, home);
        if (slice_ == NULL) {
            return NULL;
        }
        PyObject *bucket = bucket_of(k, slice_, line, NULL);
        if (bucket == NULL) {
            return NULL;
        }
        l2line = PyDict_GetItemWithError(bucket, line_obj);
        if (l2line == NULL && PyErr_Occurred()) {
            return NULL;
        }
        if (l2line != NULL) {
            Py_INCREF(l2line);
            if (chain(k, core, home, l2line, slice_, f1, f2, now, result, &t,
                      &reply_t) < 0) {
                Py_DECREF(l2line);
                return NULL;
            }
            goto pack;
        }
    }
    l2line = deliver(k, core, line_obj, line, home, flush, f1, now_obj, now,
                     result, &slice_, &t);
    if (l2line == NULL) {
        return NULL;
    }
    if (leg(k, home, core, f2, t, &reply_t) < 0) {
        Py_DECREF(l2line);
        return NULL;
    }
pack:;
    return pack(4, Py_NewRef(slice_), l2line, PyFloat_FromDouble(t),
                PyFloat_FromDouble(reply_t));
}

/* The word access at the home; `word_obj` is the word as a Python int for
 * the verify-mode callback, or NULL to build it from `word`. */
static int
serve_word(HomeObject *k, PyObject *core_obj, int is_write,
           PyObject *line_obj, long long word, PyObject *word_obj,
           PyObject *l2line, PyObject *slice_)
{
    if (check_type(l2line, k->line_type, "L2Line") < 0
        || check_type(slice_, k->slice_type, "L2Slice") < 0) {
        return -1;
    }
    if (is_write) {
        long long mask;
        if (word < 0 || word > 62) {
            PyErr_SetString(PyExc_ValueError, "home kernel: word out of range");
            return -1;
        }
        if (slot_bump(slice_, k->off_slice_wwrites) < 0
            || energy_bump(k, k->off_e_wwrites) < 0
            || slot_long(l2line, k->off_dirty_words, &mask) < 0) {
            return -1;
        }
        slot_put(l2line, k->off_dirty, Py_NewRef(Py_True));
        if (slot_set_long(l2line, k->off_dirty_words, mask | (1LL << word)) < 0) {
            return -1;
        }
    }
    else if (slot_bump(slice_, k->off_slice_wreads) < 0
             || energy_bump(k, k->off_e_wreads) < 0) {
        return -1;
    }
    if (k->verify) {
        PyObject *w = word_obj != NULL ? Py_NewRef(word_obj)
                                       : PyLong_FromLongLong(word);
        if (w == NULL) {
            return -1;
        }
        PyObject *args[6] = {k->engine, core_obj, is_write ? Py_True : Py_False,
                             line_obj, w, l2line};
        PyObject *res = PyObject_VectorcallMethod(
            str_verify_word, args, 6 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        Py_DECREF(w);
        if (res == NULL) {
            return -1;
        }
        Py_DECREF(res);
    }
    return 0;
}

static int
settle(HomeObject *k, PyObject *slice_, PyObject *l2line, PyObject *t_obj,
       int owned)
{
    double t;
    if (arg_double(t_obj, &t) < 0
        || check_type(l2line, k->line_type, "L2Line") < 0
        || check_type(slice_, k->slice_type, "L2Slice") < 0) {
        return -1;
    }
    if (owned) {
        slot_put(l2line, k->off_busy, Py_NewRef(t_obj));
    }
    else {
        double busy = t - k->l2_latency + 1.0, current;
        if (slot_double(l2line, k->off_busy, &current) < 0) {
            return -1;
        }
        if (busy > current && slot_set_double(l2line, k->off_busy, busy) < 0) {
            return -1;
        }
    }
    PyObject *store = slot_get(slice_, k->off_slice_store);
    long long counter;
    if (store == NULL || check_type(store, k->store_type, "SetAssocCache") < 0
        || slot_long(store, k->off_store_use, &counter) < 0) {
        return -1;
    }
    PyObject *value = PyLong_FromLongLong(counter + 1);
    if (value == NULL) {
        return -1;
    }
    slot_put(store, k->off_store_use, Py_NewRef(value));
    slot_put(l2line, k->off_last_use, value);
    slot_put(l2line, k->off_last_access, Py_NewRef(t_obj));
    return 0;
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

/* A METH_FASTCALL method taking `n` arguments: checks the count, holds
 * the engine for the call, and runs the body `name##_impl`. */
#define METHOD(name, n, sig)                                            \
    static PyObject *name##_impl(HomeObject *k, PyObject *const *args); \
    static PyObject *                                                   \
    Home_##name(HomeObject *k, PyObject *const *args, Py_ssize_t nargs) \
    {                                                                   \
        if (nargs != (n)) {                                             \
            PyErr_SetString(PyExc_TypeError, sig);                      \
            return NULL;                                                \
        }                                                               \
        PyObject *engine = engine_enter(k);                             \
        if (engine == NULL) {                                           \
            return NULL;                                                \
        }                                                               \
        PyObject *out = name##_impl(k, args);                           \
        Py_DECREF(engine);                                              \
        return out;                                                     \
    }                                                                   \
    static PyObject *name##_impl(HomeObject *k, PyObject *const *args)

METHOD(data_home, 2, "data_home(line, core)")
{
    long long line, core, home, flush;
    if (arg_index(args[0], &line) < 0 || arg_long(args[1], &core) < 0
        || place(k, line, 0, 0, args[1], core, &home, &flush) < 0) {
        return NULL;
    }
    return home_pair(home, flush);
}

METHOD(data_word_home, 3, "data_word_home(line, word, core)")
{
    long long line, word, core, home, flush;
    if (arg_index(args[0], &line) < 0 || arg_index(args[1], &word) < 0
        || arg_long(args[2], &core) < 0
        || place(k, line, 1, word, args[2], core, &home, &flush) < 0) {
        return NULL;
    }
    return home_pair(home, flush);
}

static int
arg_flush(PyObject *obj, long long *out)
{
    if (obj == Py_None) {
        *out = -1;
        return 0;
    }
    if (arg_long(obj, out) < 0) {
        return -1;
    }
    if (*out < 0) {
        PyErr_SetString(PyExc_ValueError, "home kernel: negative flush owner");
        return -1;
    }
    return 0;
}

METHOD(round_trip, 8,
       "round_trip(core, line, home, flush_owner, req_msg, reply_msg, now, "
       "result)")
{
    long long core, line, home, flush;
    double now;
    if (arg_long(args[0], &core) < 0 || arg_index(args[1], &line) < 0
        || arg_long(args[2], &home) < 0 || arg_flush(args[3], &flush) < 0
        || arg_double(args[6], &now) < 0) {
        return NULL;
    }
    return round_trip(k, core, args[1], line, home, flush, args[4], args[5],
                      args[6], now, args[7]);
}

METHOD(word_round_trip, 7,
       "word_round_trip(core, line, word, req_msg, reply_msg, now, result)")
{
    long long core, line, word, home, flush;
    double now;
    if (arg_long(args[0], &core) < 0 || arg_index(args[1], &line) < 0
        || arg_index(args[2], &word) < 0 || arg_double(args[5], &now) < 0
        || place(k, line, 1, word, args[0], core, &home, &flush) < 0) {
        return NULL;
    }
    return round_trip(k, core, args[1], line, home, flush, args[3], args[4],
                      args[5], now, args[6]);
}

METHOD(deliver_request, 7,
       "deliver_request(core, line, home, flush_owner, req_msg, now, result)")
{
    long long core, line, home, flush, flits;
    double now, t;
    if (arg_long(args[0], &core) < 0 || arg_index(args[1], &line) < 0
        || arg_long(args[2], &home) < 0 || arg_flush(args[3], &flush) < 0
        || msg_flits(k, args[4], &flits) < 0
        || arg_double(args[5], &now) < 0) {
        return NULL;
    }
    PyObject *slice_;
    PyObject *l2line = deliver(k, core, args[1], line, home, flush, flits,
                               args[5], now, args[6], &slice_, &t);
    if (l2line == NULL) {
        return NULL;
    }
    return pack(3, Py_NewRef(slice_), l2line, PyFloat_FromDouble(t), NULL);
}

METHOD(reply, 4, "reply(home, core, reply_msg, t)")
{
    long long home, core, flits;
    double t, out;
    if (arg_long(args[0], &home) < 0 || arg_long(args[1], &core) < 0
        || msg_flits(k, args[2], &flits) < 0 || arg_double(args[3], &t) < 0
        || leg(k, home, core, flits, t, &out) < 0) {
        return NULL;
    }
    return PyFloat_FromDouble(out);
}

METHOD(chain_request_reply, 8,
       "chain_request_reply(core, home, l2line, slice_, req_msg, reply_msg, "
       "now, result)")
{
    long long core, home, f1, f2;
    double now, t, reply_t;
    if (arg_long(args[0], &core) < 0 || arg_long(args[1], &home) < 0
        || msg_flits(k, args[4], &f1) < 0 || msg_flits(k, args[5], &f2) < 0
        || arg_double(args[6], &now) < 0
        || chain(k, core, home, args[2], args[3], f1, f2, now, args[7], &t,
                 &reply_t) < 0) {
        return NULL;
    }
    return pack(2, PyFloat_FromDouble(t), PyFloat_FromDouble(reply_t), NULL,
                NULL);
}

/* serve_word's arguments is_write and word. */
static int
arg_word_access(PyObject *const *args, int *is_write, long long *word)
{
    *is_write = PyObject_IsTrue(args[1]);
    if (*is_write < 0) {
        return -1;
    }
    *word = 0;
    return *is_write ? arg_long(args[3], word) : 0;
}

METHOD(serve_word, 6,
       "serve_word(core, is_write, line, word, l2line, slice_)")
{
    int is_write;
    long long word;
    if (arg_word_access(args, &is_write, &word) < 0
        || serve_word(k, args[0], is_write, args[2], word, args[3], args[4],
                      args[5]) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(settle, 4, "settle(slice_, l2line, t, owned)")
{
    int owned = PyObject_IsTrue(args[3]);
    if (owned < 0 || settle(k, args[0], args[1], args[2], owned) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(serve_word_settle, 8,
       "serve_word_settle(core, is_write, line, word, l2line, slice_, t, "
       "owned)")
{
    int is_write, owned;
    long long word;
    if (arg_word_access(args, &is_write, &word) < 0
        || serve_word(k, args[0], is_write, args[2], word, args[3], args[4],
                      args[5]) < 0
        || (owned = PyObject_IsTrue(args[7])) < 0
        || settle(k, args[5], args[4], args[6], owned) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Construction and GC                                                 */
/* ------------------------------------------------------------------ */

static PyObject *
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

static int
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

static int
Home_init_state(HomeObject *k, PyObject *engine, PyObject *line_type,
                PyObject *result_type, PyObject *entry_type)
{
    k->engine_ref = PyWeakref_NewRef(engine, NULL);
    if (k->engine_ref == NULL) {
        return -1;
    }
    k->line_type = Py_NewRef(line_type);
    k->result_type = Py_NewRef(result_type);
    if (entry_type != Py_None) {
        if (!PyType_Check(entry_type)) {
            PyErr_SetString(PyExc_TypeError,
                            "HomeKernel: entry_type must be a class or None");
            return -1;
        }
        k->entry_type = Py_NewRef(entry_type);
        static const char *const entry_names[] = {
            "sharers", "owner", "overflowed", NULL};
        Py_ssize_t *const entry_outs[] = {
            &k->off_d_sharers, &k->off_d_owner, &k->off_d_overflowed};
        if (slot_offsets(entry_type, entry_names, entry_outs) < 0
            || (k->off_directory = repro_member_offset(line_type,
                                                       "directory")) < 0) {
            return -1;
        }
    }
    long long verify;
    if ((k->l2 = repro_getattr(engine, "l2")) == NULL
        || (k->paths = attr_chain(engine, "network", "paths")) == NULL
        || (k->resolve = attr_chain(engine, "network", "resolve_path")) == NULL
        || (k->mesh = attr_chain(engine, "network", "kernel")) == NULL
        || (k->page_table = attr_chain(engine, "placement", "page_table")) == NULL
        || (k->pages = repro_getattr(k->page_table, "_pages")) == NULL
        || (k->home_of_line = repro_getattr(engine, "_home_of_line")) == NULL
        || (k->dram_image = repro_getattr(engine, "_dram_image")) == NULL
        || (k->line_size = attr_chain(engine, "arch", "line_size")) == NULL
        || attr_long(engine, "arch", "num_cores", &k->num_tiles) < 0
        || attr_long(engine, "arch", "words_per_line", &k->words_per_line) < 0
        || attr_long(engine, "arch", "page_size", &k->page_size) < 0
        || attr_long(engine, "verify", NULL, &verify) < 0) {
        return -1;
    }
    k->verify = verify != 0;
    if (!repro_mesh_check(k->mesh)) {
        PyErr_SetString(PyExc_TypeError,
                        "HomeKernel needs the compiled MeshKernel");
        return -1;
    }
    if (!PyList_CheckExact(k->l2) || PyList_GET_SIZE(k->l2) != k->num_tiles
        || k->num_tiles <= 0
        || !PyList_CheckExact(k->paths)
        || PyList_GET_SIZE(k->paths) != k->num_tiles * k->num_tiles
        || !PyDict_CheckExact(k->pages) || !PyDict_CheckExact(k->home_of_line)
        || !PyDict_CheckExact(k->dram_image)) {
        PyErr_SetString(PyExc_TypeError, "HomeKernel: unexpected engine layout");
        return -1;
    }
    if (k->page_size <= 0) {
        PyErr_SetString(PyExc_ValueError, "HomeKernel: page_size must be positive");
        return -1;
    }
    k->page_shift = -1;
    if ((k->page_size & (k->page_size - 1)) == 0
        && k->page_size >= (1LL << K_LINE_BITS)) {
        int shift = 0;
        while ((1LL << shift) < k->page_size) {
            shift++;
        }
        k->page_shift = shift - K_LINE_BITS;
    }
    long long latency;
    if (attr_long(engine, "_l2_latency", NULL, &latency) < 0) {
        return -1;
    }
    k->l2_latency = (double)latency;

    /* Flit table, by message type value. */
    PyObject *flits = repro_getattr(engine, "_net_flits");
    if (flits == NULL) {
        return -1;
    }
    PyObject *seq = PySequence_Fast(flits, "_net_flits must be a sequence");
    Py_DECREF(flits);
    if (seq == NULL) {
        return -1;
    }
    k->num_msgs = PySequence_Fast_GET_SIZE(seq);
    k->flits = PyMem_Calloc((size_t)(k->num_msgs + 1), sizeof(long long));
    if (k->flits == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < k->num_msgs; i++) {
        if (arg_long(PySequence_Fast_GET_ITEM(seq, i), &k->flits[i]) < 0) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    if (k->num_msgs <= K_MSG_MEM_READ_REPLY) {
        PyErr_SetString(PyExc_ValueError, "HomeKernel: flit table too short");
        return -1;
    }

    /* Controllers by line % n (MemorySubsystem.controller_for_line). */
    PyObject *tiles = attr_chain(engine, "arch", "memory_controller_tiles");
    PyObject *ctrls = attr_chain(engine, "memsys", "controllers");
    if (tiles == NULL || ctrls == NULL) {
        Py_XDECREF(tiles);
        Py_XDECREF(ctrls);
        return -1;
    }
    PyObject *tseq = PySequence_Fast(tiles, "controller tiles");
    Py_DECREF(tiles);
    if (tseq == NULL) {
        Py_DECREF(ctrls);
        return -1;
    }
    k->num_ctrls = PySequence_Fast_GET_SIZE(tseq);
    k->ctrl_tiles = PyMem_Calloc((size_t)(k->num_ctrls + 1), sizeof(long long));
    k->controllers = PyList_New(k->num_ctrls);
    if (k->ctrl_tiles == NULL || k->controllers == NULL || k->num_ctrls <= 0) {
        Py_DECREF(tseq);
        Py_DECREF(ctrls);
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_ValueError, "HomeKernel: no controllers");
        }
        return -1;
    }
    for (Py_ssize_t i = 0; i < k->num_ctrls; i++) {
        PyObject *tile = PySequence_Fast_GET_ITEM(tseq, i);
        PyObject *ctrl = PyObject_GetItem(ctrls, tile);
        if (ctrl == NULL || arg_long(tile, &k->ctrl_tiles[i]) < 0) {
            Py_XDECREF(ctrl);
            Py_DECREF(tseq);
            Py_DECREF(ctrls);
            return -1;
        }
        PyList_SET_ITEM(k->controllers, i, ctrl);
    }
    Py_DECREF(tseq);
    Py_DECREF(ctrls);

    /* Slot offsets: engine, energy, slices, stores, lines, results. */
    PyObject *energy = repro_getattr(engine, "energy");
    if (energy == NULL) {
        return -1;
    }
    k->energy_type = Py_NewRef((PyObject *)Py_TYPE(energy));
    Py_DECREF(energy);
    PyObject *slice0 = PyList_GET_ITEM(k->l2, 0);
    k->slice_type = Py_NewRef((PyObject *)Py_TYPE(slice0));
    PyObject *store0 = repro_getattr(slice0, "store");
    if (store0 == NULL) {
        return -1;
    }
    k->store_type = Py_NewRef((PyObject *)Py_TYPE(store0));
    long long mask, assoc;
    int rc = attr_long(store0, "_set_mask", NULL, &mask) < 0
             || attr_long(store0, "associativity", NULL, &assoc) < 0;
    Py_DECREF(store0);
    if (rc) {
        return -1;
    }
    k->set_mask = mask;
    k->assoc = (Py_ssize_t)assoc;
    for (Py_ssize_t i = 0; i < k->num_tiles; i++) {
        long long m, a;
        PyObject *s = PyList_GET_ITEM(k->l2, i);
        if ((PyObject *)Py_TYPE(s) != k->slice_type
            || attr_long(s, "store", "_set_mask", &m) < 0
            || attr_long(s, "store", "associativity", &a) < 0
            || m != mask || a != assoc) {
            if (!PyErr_Occurred()) {
                PyErr_SetString(PyExc_ValueError,
                                "HomeKernel: L2 slices differ in geometry");
            }
            return -1;
        }
    }
    static const char *const engine_names[] = {"energy", NULL};
    Py_ssize_t *const engine_outs[] = {&k->off_energy};
    static const char *const energy_names[] = {
        "l2_tag_accesses", "l2_word_reads", "l2_word_writes",
        "l2_line_writes", NULL};
    Py_ssize_t *const energy_outs[] = {&k->off_e_tag, &k->off_e_wreads,
                                       &k->off_e_wwrites, &k->off_e_lwrites};
    static const char *const slice_names[] = {
        "store", "hits", "misses", "word_reads", "word_writes", NULL};
    Py_ssize_t *const slice_outs[] = {
        &k->off_slice_store, &k->off_slice_hits, &k->off_slice_misses,
        &k->off_slice_wreads, &k->off_slice_wwrites};
    static const char *const store_names[] = {
        "_sets", "_use_counter", "_observer", NULL};
    Py_ssize_t *const store_outs[] = {
        &k->off_store_sets, &k->off_store_use, &k->off_store_observer};
    static const char *const line_names[] = {
        "busy_until", "last_use", "last_access", "dirty", "dirty_words",
        NULL};
    Py_ssize_t *const line_outs[] = {
        &k->off_busy, &k->off_last_use, &k->off_last_access, &k->off_dirty,
        &k->off_dirty_words};
    static const char *const result_names[] = {
        "l2_waiting", "l2_offchip", NULL};
    Py_ssize_t *const result_outs[] = {&k->off_r_wait, &k->off_r_offchip};
    if (slot_offsets((PyObject *)Py_TYPE(engine), engine_names, engine_outs) < 0
        || slot_offsets(k->energy_type, energy_names, energy_outs) < 0
        || slot_offsets(k->slice_type, slice_names, slice_outs) < 0
        || slot_offsets(k->store_type, store_names, store_outs) < 0
        || slot_offsets(line_type, line_names, line_outs) < 0
        || slot_offsets(result_type, result_names, result_outs) < 0) {
        return -1;
    }
    return 0;
}

static PyObject *
Home_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "line_type", "result_type",
                             "entry_type", NULL};
    PyObject *engine, *line_type, *result_type, *entry_type;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO!O!O", kwlist, &engine,
                                     &PyType_Type, &line_type, &PyType_Type,
                                     &result_type, &entry_type)) {
        return NULL;
    }
    HomeObject *k = (HomeObject *)type->tp_alloc(type, 0);
    if (k == NULL) {
        return NULL;
    }
    if (Home_init_state(k, engine, line_type, result_type, entry_type) < 0) {
        Py_DECREF(k);
        return NULL;
    }
    return (PyObject *)k;
}

static int
Home_traverse(HomeObject *k, visitproc visit, void *arg)
{
    Py_VISIT(k->engine_ref);
    Py_VISIT(k->l2);
    Py_VISIT(k->paths);
    Py_VISIT(k->resolve);
    Py_VISIT(k->mesh);
    Py_VISIT(k->pages);
    Py_VISIT(k->page_table);
    Py_VISIT(k->controllers);
    Py_VISIT(k->home_of_line);
    Py_VISIT(k->dram_image);
    Py_VISIT(k->line_size);
    Py_VISIT(k->line_type);
    Py_VISIT(k->result_type);
    Py_VISIT(k->slice_type);
    Py_VISIT(k->store_type);
    Py_VISIT(k->energy_type);
    Py_VISIT(k->entry_type);
    return 0;
}

static int
Home_clear(HomeObject *k)
{
    Py_CLEAR(k->engine_ref);
    k->engine = NULL;
    Py_CLEAR(k->l2);
    Py_CLEAR(k->paths);
    Py_CLEAR(k->resolve);
    Py_CLEAR(k->mesh);
    Py_CLEAR(k->pages);
    Py_CLEAR(k->page_table);
    Py_CLEAR(k->controllers);
    Py_CLEAR(k->home_of_line);
    Py_CLEAR(k->dram_image);
    Py_CLEAR(k->line_size);
    Py_CLEAR(k->line_type);
    Py_CLEAR(k->result_type);
    Py_CLEAR(k->slice_type);
    Py_CLEAR(k->store_type);
    Py_CLEAR(k->energy_type);
    Py_CLEAR(k->entry_type);
    return 0;
}

static void
Home_dealloc(HomeObject *k)
{
    PyObject_GC_UnTrack(k);
    Home_clear(k);
    PyMem_Free(k->ctrl_tiles);
    PyMem_Free(k->flits);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

#define FASTCALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))Home_##name, METH_FASTCALL, doc}

static PyMethodDef Home_methods[] = {
    FASTCALL(data_home, "data_home(line, core) -> (home, flush_owner)"),
    FASTCALL(data_word_home,
             "data_word_home(line, word, core) -> (home, flush_owner)"),
    FASTCALL(round_trip,
             "round_trip(core, line, home, flush_owner, req_msg, reply_msg, "
             "now, result) -> (slice_, l2line, t, reply_t)"),
    FASTCALL(word_round_trip,
             "word_round_trip(core, line, word, req_msg, reply_msg, now, "
             "result) -> (slice_, l2line, t, reply_t)"),
    FASTCALL(deliver_request,
             "deliver_request(core, line, home, flush_owner, req_msg, now, "
             "result) -> (slice_, l2line, t)"),
    FASTCALL(reply, "reply(home, core, reply_msg, t) -> reply_t"),
    FASTCALL(chain_request_reply,
             "chain_request_reply(core, home, l2line, slice_, req_msg, "
             "reply_msg, now, result) -> (t, reply_t)"),
    FASTCALL(serve_word,
             "serve_word(core, is_write, line, word, l2line, slice_)"),
    FASTCALL(settle, "settle(slice_, l2line, t, owned)"),
    FASTCALL(serve_word_settle,
             "serve_word_settle(core, is_write, line, word, l2line, slice_, "
             "t, owned)"),
    {NULL, NULL, 0, NULL},
};

static PyTypeObject HomeType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.HomeKernel",
    .tp_basicsize = sizeof(HomeObject),
    .tp_dealloc = (destructor)Home_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The home side of every miss of one protocol engine",
    .tp_traverse = (traverseproc)Home_traverse,
    .tp_clear = (inquiry)Home_clear,
    .tp_methods = Home_methods,
    .tp_new = Home_new,
};

/* ------------------------------------------------------------------ */
/* The steps as C entry points, for the directory kernel (_accel.h)    */
/* ------------------------------------------------------------------ */

int
repro_home_check(PyObject *obj)
{
    return Py_IS_TYPE(obj, &HomeType);
}

/* The kernel, bound to the caller's engine for one step. */
static HomeObject *
bind(PyObject *home, PyObject *engine)
{
    HomeObject *k = (HomeObject *)home;
    if (k->engine_ref == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "home kernel was cleared");
        return NULL;
    }
    k->engine = engine;
    return k;
}

static int
flits_of(HomeObject *k, long long msg, long long *out)
{
    if (msg < 0 || msg >= k->num_msgs) {
        PyErr_SetString(PyExc_IndexError, "home kernel: bad message type");
        return -1;
    }
    *out = k->flits[msg];
    return 0;
}

int
repro_home_data_home(PyObject *home, PyObject *engine, long long line,
                     PyObject *core_obj, long long core, long long *home_tile,
                     long long *flush)
{
    HomeObject *k = bind(home, engine);
    return k == NULL ? -1
                     : place(k, line, 0, 0, core_obj, core, home_tile, flush);
}

PyObject *
repro_home_deliver_request(PyObject *home, PyObject *engine, long long core,
                           PyObject *line_obj, long long line,
                           long long home_tile, long long flush,
                           long long req_msg, PyObject *now_obj, double now,
                           PyObject *result, PyObject **slice_out,
                           double *t_out)
{
    HomeObject *k = bind(home, engine);
    long long flits;
    if (k == NULL || flits_of(k, req_msg, &flits) < 0) {
        return NULL;
    }
    return deliver(k, core, line_obj, line, home_tile, flush, flits, now_obj,
                   now, result, slice_out, t_out);
}

int
repro_home_chain_request_reply(PyObject *home, PyObject *engine,
                               long long core, long long home_tile,
                               PyObject *l2line, PyObject *slice_,
                               long long req_msg, long long reply_msg,
                               double now, PyObject *result, double *t_out,
                               double *reply_out)
{
    HomeObject *k = bind(home, engine);
    long long f1, f2;
    if (k == NULL || flits_of(k, req_msg, &f1) < 0
        || flits_of(k, reply_msg, &f2) < 0) {
        return -1;
    }
    return chain(k, core, home_tile, l2line, slice_, f1, f2, now, result,
                 t_out, reply_out);
}

int
repro_home_reply(PyObject *home, PyObject *engine, long long home_tile,
                 long long core, long long reply_msg, double t, double *out)
{
    HomeObject *k = bind(home, engine);
    long long flits;
    if (k == NULL || flits_of(k, reply_msg, &flits) < 0) {
        return -1;
    }
    return leg(k, home_tile, core, flits, t, out);
}

int
repro_home_serve_word(PyObject *home, PyObject *engine, PyObject *core_obj,
                      int is_write, PyObject *line_obj, long long word,
                      PyObject *l2line, PyObject *slice_)
{
    HomeObject *k = bind(home, engine);
    return k == NULL ? -1
                     : serve_word(k, core_obj, is_write, line_obj, word, NULL,
                                  l2line, slice_);
}

int
repro_home_settle(PyObject *home, PyObject *engine, PyObject *slice_,
                  PyObject *l2line, PyObject *t_obj, int owned)
{
    HomeObject *k = bind(home, engine);
    return k == NULL ? -1 : settle(k, slice_, l2line, t_obj, owned);
}

int
repro_home_register(PyObject *mod)
{
    if (PyType_Ready(&HomeType) < 0) {
        return -1;
    }
    struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&str_flush_private_page, "_flush_private_page"},
        {&str_evict_l2_line, "_evict_l2_line"},
        {&str_verify_word, "_verify_word"},
        {&str_access, "access"},
        {&str_fill, "fill"},
        {&str_pop, "pop"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if (*names[i].slot == NULL) {
            *names[i].slot = PyUnicode_InternFromString(names[i].name);
            if (*names[i].slot == NULL) {
                return -1;
            }
        }
    }
    PyObject *multiplier = PyLong_FromUnsignedLongLong(K_RNUCA_HASH_MULTIPLIER);
    if (multiplier == NULL) {
        return -1;
    }
    int rc = PyModule_AddObjectRef(mod, "RNUCA_HASH_MULTIPLIER", multiplier);
    Py_DECREF(multiplier);
    if (rc < 0
        || PyModule_AddObjectRef(mod, "HomeKernel", (PyObject *)&HomeType) < 0
        || PyModule_AddIntConstant(mod, "RNUCA_HASH_SHIFT",
                                   K_RNUCA_HASH_SHIFT) < 0
        || PyModule_AddIntConstant(mod, "PAGE_PRIVATE", K_PAGE_PRIVATE) < 0
        || PyModule_AddIntConstant(mod, "PAGE_SHARED", K_PAGE_SHARED) < 0
        || PyModule_AddIntConstant(mod, "MSG_MEM_READ_REQ",
                                   K_MSG_MEM_READ_REQ) < 0
        || PyModule_AddIntConstant(mod, "MSG_MEM_READ_REPLY",
                                   K_MSG_MEM_READ_REPLY) < 0) {
        return -1;
    }
    return 0;
}
