/* Compiled engine kernel: the family-agnostic home side of every miss.
 *
 * Every protocol engine builds exactly one kernel (DESIGN.md section 15):
 * a HomeKernel, or its family's subtype - DirectoryKernel (_directory.c)
 * for baseline and adaptive, its VictimKernel and PhaseKernel subtypes,
 * DLSKernel (_dls.c) and NeatKernel (_neat.c) - whose object starts with
 * this one's HomeObject (_accel.h) and which takes the home steps below
 * on itself.  The pure-Python twin
 * and reference, PyHomeKernel in repro/protocol/home.py, has the same
 * constructor, methods and attributes; an engine builds this one exactly
 * when its mesh kernel is the compiled MeshKernel, because the legs are
 * reserved by direct C calls into that kernel (_accel.h).
 *
 * The kernel keeps no state of its own, and holds its engine weakly (the
 * engine owns the kernel).  It works on the engine's Python
 * objects through their __slots__ offsets, the way SchedKernel works on
 * CacheLine (DESIGN.md section 14): the page table's `_pages` dict, the L2
 * slices (`store`, hit/miss/word counters), their SetAssocCache stores
 * (`_sets`, `_use_counter`, `_observer`), the L2Line entries, the
 * MemoryControllers, the AccessResult slots and the engine's `energy`
 * counters - re-read from the engine on every update, because reset_stats
 * replaces the object at the warmup boundary.  The off-chip fill and the
 * L2 eviction with its write-back are native: the fill builds its L2Line
 * and puts it in its set, and both update their controller in place.  The
 * L1-side helpers the family subtypes share (the L1 lookup, fill and
 * removal, the AccessResult, miss statistics, histories, histograms and
 * golden checks) are here too, on the same engine objects.
 *
 * It calls back into Python only for page-table side effects
 * (RNucaPageTable.classify_data), page flushes (the engine's
 * _flush_private_page, which takes each resident line's eviction through
 * this kernel's evict_l2_line), route registration
 * (MeshNetwork.resolve_path), store observers and the verify-mode golden
 * steps (_verify_word, _verify_write_back, GoldenMemory.check_read).
 * Every callback but the route registration, bound once per kernel, is
 * looked up on the live object, so a method wrapped after the engine was
 * built is the one called.  A fill installs a fresh DirectoryEntry exactly
 * when the kernel is a directory subtype, and a subtype takes its own
 * steps of an L2 eviction through the `evict` pointer (the directory
 * kernel's purge of the line's L1 copies, victim replication's replica
 * drop).
 *
 * Exactness (pinned by the kernel contract properties and the RunStats
 * fixtures under both implementations):
 *
 *   - the R-NUCA hash ((line * 2654435761) >> 16) % num_cores and the DLS
 *     word home (line * words_per_line + word) % num_cores are computed in
 *     unsigned __int128: the product passes 64 bits once the line number
 *     passes 6,949,403,087, inside the 48-bit address space;
 *   - every float step keeps the Python order and operands: busy - t,
 *     t + l2_latency, t - l2_latency + 1.0, the controller's begin +
 *     latency + service, the strict `>` tests; the module is compiled -O2
 *     without fast-math;
 *   - the LRU victim is the first entry, in dict order, with the smallest
 *     last_use - what min(bucket, key=...) returns;
 *   - each step runs where its Python step runs.
 */

#include "_accel.h"

#include <limits.h>
#include <stdint.h>

/* Mirrors of Python constants; cross-checked at load by repro.accel. */
#define K_RNUCA_HASH_MULTIPLIER 2654435761ULL
#define K_RNUCA_HASH_SHIFT 16
#define K_PAGE_PRIVATE 0
#define K_PAGE_SHARED 1

/* Interned callback names (set once in repro_home_register). */
static PyObject *str_flush_private_page;
static PyObject *str_verify_word;
static PyObject *str_verify_write_back;
static PyObject *str_check_read;

PyObject *
home_engine_part(HomeObject *k, Py_ssize_t off, PyObject *type,
                 const char *what)
{
    PyObject *part = slot_get(k->engine, off);
    if (part == NULL || check_type(part, type, what) < 0) {
        return NULL;
    }
    return part;
}

int
home_energy_bump(HomeObject *k, Py_ssize_t off)
{
    PyObject *energy = home_engine_part(k, k->off_energy, k->energy_type,
                                        "EnergyCounters");
    return energy == NULL ? -1 : slot_bump(energy, off);
}

int
home_check_tile(HomeObject *k, long long tile)
{
    if (tile < 0 || tile >= k->num_tiles) {
        PyErr_Format(PyExc_IndexError, "%s: tile %lld out of range",
                     kernel_name(k), tile);
        return -1;
    }
    return 0;
}

static int
flits_of(HomeObject *k, long long msg, long long *out)
{
    if (msg < 0 || msg >= k->num_msgs) {
        PyErr_Format(PyExc_IndexError, "%s: bad message type", kernel_name(k));
        return -1;
    }
    *out = k->flits[msg];
    return 0;
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
int
home_place(HomeObject *k, long long line, int by_word, long long word,
           PyObject *core_obj, long long core, long long *home,
           long long *flush)
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
home_route(HomeObject *k, long long src, long long dst)
{
    if (home_check_tile(k, src) < 0 || home_check_tile(k, dst) < 0) {
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

int
home_leg(HomeObject *k, long long src, long long dst, long long msg,
         double t, double *out)
{
    Py_ssize_t handle = home_route(k, src, dst);
    long long flits;
    if ((handle == -1 && PyErr_Occurred()) || flits_of(k, msg, &flits) < 0) {
        return -1;
    }
    return repro_mesh_traverse(k->mesh, handle, t, flits, out);
}

PyObject *
home_store_bucket(HomeObject *k, PyObject *store, long long mask,
                  long long line)
{
    if (check_type(store, k->store_type, "SetAssocCache") < 0) {
        return NULL;
    }
    PyObject *sets = slot_get(store, k->off_store_sets);
    if (sets == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(sets)) {
        PyErr_SetString(PyExc_TypeError, "kernel: _sets is not a list");
        return NULL;
    }
    Py_ssize_t index = (Py_ssize_t)(line & mask);
    if (index >= PyList_GET_SIZE(sets)) {
        PyErr_SetString(PyExc_IndexError, "kernel: set index out of range");
        return NULL;
    }
    PyObject *bucket = PyList_GET_ITEM(sets, index);
    if (!PyDict_CheckExact(bucket)) {
        PyErr_SetString(PyExc_TypeError, "kernel: set is not a dict");
        return NULL;
    }
    return bucket;
}

/* The set dict of `line` in `slice_`'s store (borrowed). */
static PyObject *
bucket_of(HomeObject *k, PyObject *slice_, long long line, PyObject **store)
{
    if (check_type(slice_, k->slice_type, "L2Slice") < 0) {
        return NULL;
    }
    PyObject *st = slot_get(slice_, k->off_slice_store);
    if (st == NULL) {
        return NULL;
    }
    if (store != NULL) {
        *store = st;
    }
    return home_store_bucket(k, st, k->set_mask, line);
}

PyObject *
home_l2_bucket(HomeObject *k, long long tile, long long line,
               PyObject **store)
{
    if (home_check_tile(k, tile) < 0) {
        return NULL;
    }
    return bucket_of(k, PyList_GET_ITEM(k->l2, (Py_ssize_t)tile), line,
                     store);
}

PyObject *
home_lookup(HomeObject *k, long long tile, long long line, PyObject *line_obj)
{
    PyObject *bucket = home_l2_bucket(k, tile, line, NULL);
    if (bucket == NULL) {
        return NULL;
    }
    PyObject *l2line = PyDict_GetItemWithError(bucket, line_obj);
    if (l2line != NULL && check_type(l2line, k->line_type, "L2Line") < 0) {
        return NULL;
    }
    return l2line;
}

int
home_lru(PyObject *bucket, PyObject *type, const char *what,
         Py_ssize_t off_last_use, PyObject **key, PyObject **entry)
{
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    long long best = LLONG_MAX;
    *key = *entry = NULL;
    while (PyDict_Next(bucket, &pos, &k, &v)) {
        long long use;
        if (check_type(v, type, what) < 0
            || slot_long(v, off_last_use, &use) < 0) {
            return -1;
        }
        if (*key == NULL || use < best) {
            best = use;
            *key = k;
            *entry = v;
        }
    }
    return 0;
}

int
home_touch(HomeObject *k, PyObject *store, PyObject *entry,
           Py_ssize_t off_last_use)
{
    long long counter;
    if (slot_long(store, k->off_store_use, &counter) < 0) {
        return -1;
    }
    PyObject *value = PyLong_FromLongLong(counter + 1);
    if (value == NULL) {
        return -1;
    }
    slot_put(store, k->off_store_use, Py_NewRef(value));
    slot_put(entry, off_last_use, value);
    return 0;
}

static int
set_result(HomeObject *k, PyObject *result, Py_ssize_t off, double value)
{
    if (check_type(result, k->result_type, "AccessResult") < 0) {
        return -1;
    }
    return slot_set_double(result, off, value);
}

/* ------------------------------------------------------------------ */
/* The L1 side, shared by the family subtypes                          */
/* ------------------------------------------------------------------ */

/* SetAssocCache's membership hook: obs(kind, line, entry) if attached. */
static int
observe(HomeObject *k, PyObject *store, long kind, PyObject *line_obj,
        PyObject *entry)
{
    PyObject *obs = slot_get(store, k->off_store_observer);
    if (obs == NULL) {
        return -1;
    }
    if (obs == Py_None) {
        return 0;
    }
    Py_INCREF(obs);
    PyObject *kind_obj = PyLong_FromLong(kind);
    PyObject *res = NULL;
    if (kind_obj != NULL) {
        PyObject *args[3] = {kind_obj, line_obj, entry};
        res = PyObject_Vectorcall(obs, args, 3, NULL);
        Py_DECREF(kind_obj);
    }
    Py_DECREF(obs);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

PyObject *
home_l1_of(HomeObject *k, long long core, PyObject **store)
{
    if (home_check_tile(k, core) < 0) {
        return NULL;
    }
    PyObject *l1 = PyList_GET_ITEM(k->l1d, (Py_ssize_t)core);
    if (check_type(l1, k->l1_type, "L1Cache") < 0) {
        return NULL;
    }
    *store = slot_get(l1, k->off_l1_store);
    return *store == NULL ? NULL : l1;
}

PyObject *
home_l1_lookup(HomeObject *k, long long core, long long line,
               PyObject *line_obj)
{
    PyObject *store;
    if (home_l1_of(k, core, &store) == NULL) {
        return NULL;
    }
    PyObject *bucket = home_store_bucket(k, store, k->l1_mask, line);
    if (bucket == NULL) {
        return NULL;
    }
    PyObject *entry = PyDict_GetItemWithError(bucket, line_obj);
    if (entry != NULL && check_type(entry, k->cline_type, "CacheLine") < 0) {
        return NULL;
    }
    return entry;
}

PyObject *
home_l1_resident(HomeObject *k, long long core, long long line,
                 PyObject *line_obj)
{
    PyObject *entry = home_l1_lookup(k, core, line, line_obj);
    if (entry == NULL && !PyErr_Occurred()) {
        PyErr_SetString(PyExc_AttributeError,
                        "'NoneType' object has no attribute 'data'");
    }
    return entry;
}

/* SetAssocCache.pop of line_obj from `bucket` of `store`: the removed
 * entry (new reference), or NULL - with no exception set when absent. */
static PyObject *
store_pop(HomeObject *k, PyObject *store, PyObject *bucket, PyObject *line_obj)
{
    PyObject *entry = PyDict_GetItemWithError(bucket, line_obj);
    if (entry == NULL) {
        return NULL;
    }
    Py_INCREF(entry);
    Py_INCREF(store);
    if (PyDict_DelItem(bucket, line_obj) < 0
        || observe(k, store, 1, line_obj, Py_None) < 0) {
        Py_DECREF(store);
        Py_DECREF(entry);
        return NULL;
    }
    Py_DECREF(store);
    return entry;
}

PyObject *
home_l1_pop(HomeObject *k, long long core, long long line, PyObject *line_obj)
{
    PyObject *store;
    if (home_l1_of(k, core, &store) == NULL) {
        return NULL;
    }
    PyObject *bucket = home_store_bucket(k, store, k->l1_mask, line);
    if (bucket == NULL) {
        return NULL;
    }
    PyObject *entry = PyDict_GetItemWithError(bucket, line_obj);
    if (entry == NULL || check_type(entry, k->cline_type, "CacheLine") < 0) {
        return NULL;
    }
    return store_pop(k, store, bucket, line_obj);
}

int
home_l2_remove(HomeObject *k, long long tile, long long line,
               PyObject *line_obj)
{
    PyObject *store;
    PyObject *bucket = home_l2_bucket(k, tile, line, &store);
    if (bucket == NULL) {
        return -1;
    }
    PyObject *gone = store_pop(k, store, bucket, line_obj);
    if (gone == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    Py_DECREF(gone);
    return 0;
}

int
home_store_insert(HomeObject *k, PyObject *store, PyObject *bucket,
                  Py_ssize_t assoc, PyObject *type, const char *what,
                  Py_ssize_t off_last_use, PyObject *line_obj,
                  PyObject *entry, PyObject **ev_line, PyObject **ev_entry)
{
    *ev_line = *ev_entry = NULL;
    int present = PyDict_Contains(bucket, line_obj);
    if (present < 0) {
        return -1;
    }
    if (!present && PyDict_GET_SIZE(bucket) >= assoc) {
        PyObject *vkey, *vval;
        if (home_lru(bucket, type, what, off_last_use, &vkey, &vval) < 0) {
            return -1;
        }
        *ev_line = Py_NewRef(vkey);
        *ev_entry = Py_NewRef(vval);
        if (PyDict_DelItem(bucket, vkey) < 0) {
            goto fail;
        }
    }
    if (home_touch(k, store, entry, off_last_use) < 0
        || PyDict_SetItem(bucket, line_obj, entry) < 0) {
        goto fail;
    }
    if ((*ev_line != NULL && observe(k, store, 1, *ev_line, Py_None) < 0)
        || observe(k, store, 0, line_obj, entry) < 0) {
        goto fail;
    }
    return 0;
fail:
    Py_CLEAR(*ev_line);
    Py_CLEAR(*ev_entry);
    return -1;
}

int
home_l1_fill(HomeObject *k, long long core, long long line,
             PyObject *line_obj, PyObject *state, double reply_t,
             PyObject *data, PyObject **ev_line, PyObject **ev_entry)
{
    *ev_line = *ev_entry = NULL;
    PyObject *store;
    if (home_l1_of(k, core, &store) == NULL) {
        return -1;
    }
    /* A new CacheLine, used once, stamped reply_t. */
    PyObject *entry = new_slotted(k->cline_type);
    if (entry == NULL) {
        return -1;
    }
    slot_put(entry, k->off_c_state, Py_NewRef(state));
    slot_put(entry, k->off_c_last_use, PyLong_FromLong(0));
    slot_put(entry, k->off_c_util, PyLong_FromLong(1));
    slot_put(entry, k->off_c_data, Py_NewRef(Py_None));
    Py_INCREF(store);
    int rc = -1;
    PyObject *bucket;
    if (slot_set_double(entry, k->off_c_last_access, reply_t) < 0
        || (data != NULL && slot_copy_list(entry, k->off_c_data, data) < 0)
        || (bucket = home_store_bucket(k, store, k->l1_mask, line)) == NULL
        || home_store_insert(k, store, bucket, k->l1_assoc, k->cline_type,
                             "CacheLine", k->off_c_last_use, line_obj, entry,
                             ev_line, ev_entry) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_DECREF(store);
    Py_DECREF(entry);
    return rc;
}

int
home_l1_use(HomeObject *k, PyObject *store, PyObject *entry, PyObject *t_obj)
{
    long long util;
    if (home_touch(k, store, entry, k->off_c_last_use) < 0
        || slot_long(entry, k->off_c_util, &util) < 0
        || slot_set_long(entry, k->off_c_util, util + 1) < 0) {
        return -1;
    }
    slot_put(entry, k->off_c_last_access, Py_NewRef(t_obj));
    return 0;
}

int
home_l1_hit(HomeObject *k, PyObject *l1, PyObject *store, PyObject *entry,
            PyObject *now_obj)
{
    PyObject *stats;
    if (slot_bump(l1, k->off_l1_hits) < 0
        || home_l1_use(k, store, entry, now_obj) < 0
        || (stats = home_engine_part(k, k->off_miss_stats, k->stats_type,
                                     "MissStats")) == NULL) {
        return -1;
    }
    return slot_bump(stats, k->off_ms_hits);
}

PyObject *
home_new_result(HomeObject *k)
{
    PyObject *result = new_slotted(k->result_type);
    if (result == NULL) {
        return NULL;
    }
    Py_ssize_t floats[] = {k->off_r_latency, k->off_r_l1l2, k->off_r_wait,
                           k->off_r_sharers, k->off_r_offchip};
    for (size_t i = 0; i < sizeof(floats) / sizeof(floats[0]); i++) {
        slot_put(result, floats[i], Py_NewRef(k->zero));
    }
    slot_set_bool(result, k->off_r_hit, 0);
    slot_put(result, k->off_r_miss_type, Py_NewRef(Py_None));
    slot_set_bool(result, k->off_r_remote, 0);
    return result;
}

int
home_finish_result(HomeObject *k, PyObject *result, double now,
                   double reply_t, double sharers_lat)
{
    double latency = reply_t - now, wait, offchip;
    if (slot_double(result, k->off_r_wait, &wait) < 0
        || slot_double(result, k->off_r_offchip, &offchip) < 0
        || slot_set_double(result, k->off_r_latency, latency) < 0) {
        return -1;
    }
    return slot_set_double(result, k->off_r_l1l2,
                           latency - wait - sharers_lat - offchip);
}

int
home_miss_record(HomeObject *k, int miss)
{
    PyObject *stats = home_engine_part(k, k->off_miss_stats, k->stats_type,
                                       "MissStats");
    if (stats == NULL) {
        return -1;
    }
    PyObject *counts = slot_get(stats, k->off_ms_counts);
    if (counts == NULL) {
        return -1;
    }
    if (!PyList_CheckExact(counts)
        || k->miss_index[miss] >= PyList_GET_SIZE(counts)) {
        PyErr_Format(PyExc_TypeError, "%s: bad miss counts", kernel_name(k));
        return -1;
    }
    long long c;
    if (arg_long(PyList_GET_ITEM(counts, k->miss_index[miss]), &c) < 0) {
        return -1;
    }
    PyObject *out = PyLong_FromLongLong(c + 1);
    if (out == NULL) {
        return -1;
    }
    return PyList_SetItem(counts, k->miss_index[miss], out);
}

PyObject *
home_history(HomeObject *k, long long core, PyObject *line_obj,
             long long *flags)
{
    PyObject *hist = PyList_GET_ITEM(k->history, (Py_ssize_t)core);
    if (!PyDict_CheckExact(hist)) {
        PyErr_Format(PyExc_TypeError, "%s: history is not a dict",
                     kernel_name(k));
        return NULL;
    }
    PyObject *v = PyDict_GetItemWithError(hist, line_obj);
    *flags = 0;
    if ((v == NULL && PyErr_Occurred())
        || (v != NULL && arg_long(v, flags) < 0)) {
        return NULL;
    }
    return hist;
}

int
home_history_update(HomeObject *k, long long core, PyObject *line_obj,
                    long long set, long long clear)
{
    long long flags;
    PyObject *hist = home_history(k, core, line_obj, &flags);
    if (hist == NULL) {
        return -1;
    }
    PyObject *out = PyLong_FromLongLong((flags | set) & ~clear);
    if (out == NULL) {
        return -1;
    }
    int rc = PyDict_SetItem(hist, line_obj, out);
    Py_DECREF(out);
    return rc;
}

int
home_hist_record(HomeObject *k, Py_ssize_t off, long long util)
{
    PyObject *hist = home_engine_part(k, off, k->hist_type,
                                      "UtilizationHistogram");
    if (hist == NULL) {
        return -1;
    }
    PyObject *counts = slot_get(hist, k->off_h_counts);
    if (counts == NULL) {
        return -1;
    }
    if (!PyDict_CheckExact(counts)) {
        PyErr_Format(PyExc_TypeError, "%s: counts is not a dict",
                     kernel_name(k));
        return -1;
    }
    int b = util <= 1 ? 0 : util <= 3 ? 1 : util <= 5 ? 2 : util <= 7 ? 3 : 4;
    PyObject *key = k->bucket_keys[b];
    PyObject *v = PyDict_GetItemWithError(counts, key);
    long long c;
    if (v == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_SetObject(PyExc_KeyError, key);
        }
        return -1;
    }
    if (arg_long(v, &c) < 0) {
        return -1;
    }
    PyObject *out = PyLong_FromLongLong(c + 1);
    if (out == NULL) {
        return -1;
    }
    int rc = PyDict_SetItem(counts, key, out);
    Py_DECREF(out);
    return rc;
}

int
home_golden_check(HomeObject *k, PyObject *entry, PyObject *line_obj,
                  long long word, const char *what, long long core)
{
    PyObject *data = slot_get(entry, k->off_c_data);
    if (data == NULL) {
        return -1;
    }
    PyObject *value = PySequence_GetItem(data, (Py_ssize_t)word);
    PyObject *word_obj = PyLong_FromLongLong(word);
    PyObject *label = PyUnicode_FromFormat("%s core %lld", what, core);
    PyObject *res = NULL;
    if (value != NULL && word_obj != NULL && label != NULL) {
        res = PyObject_CallMethodObjArgs(k->golden, str_check_read, line_obj,
                                         word_obj, value, label, NULL);
    }
    Py_XDECREF(value);
    Py_XDECREF(word_obj);
    Py_XDECREF(label);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Off-chip: the controller, the L2 eviction and the fill              */
/* ------------------------------------------------------------------ */

/* MemoryController.access(start, line_size) on controller `index`; the
 * finish time in *finish (or NULL to drop it, as a write-back does). */
static int
ctrl_access(HomeObject *k, Py_ssize_t index, double start, double *finish)
{
    PyObject *ctrl = PyList_GET_ITEM(k->controllers, index);
    double next_free, queue_total;
    if (check_type(ctrl, k->ctrl_type, "MemoryController") < 0
        || slot_double(ctrl, k->off_m_next_free, &next_free) < 0
        || slot_double(ctrl, k->off_m_queue, &queue_total) < 0) {
        return -1;
    }
    double begin = next_free > start ? next_free : start;
    double queue_delay = begin - start;
    PyObject *bytes = slot_get(ctrl, k->off_m_bytes);
    if (bytes == NULL || slot_set_double(ctrl, k->off_m_next_free,
                                         begin + k->dram_service) < 0
        || slot_bump(ctrl, k->off_m_requests) < 0) {
        return -1;
    }
    PyObject *total = PyNumber_Add(bytes, k->line_size);
    if (total == NULL) {
        return -1;
    }
    slot_put(ctrl, k->off_m_bytes, total);
    if (slot_set_double(ctrl, k->off_m_queue, queue_total + queue_delay) < 0) {
        return -1;
    }
    if (finish != NULL) {
        *finish = begin + k->dram_latency + k->dram_service;
    }
    return 0;
}

/* The home kernel's L2 eviction of (vline, ventry) at `home` at t: the
 * write-back of a dirty line (MEM_WRITE, the controller; verify mode's
 * _verify_write_back), then the line leaves _home_of_line. */
int
home_evict_l2_line(HomeObject *k, long long home, PyObject *home_obj,
                   PyObject *vline_obj, PyObject *ventry, double t)
{
    int dirty = slot_true(ventry, k->off_dirty);
    if (dirty < 0) {
        return -1;
    }
    if (dirty) {
        long long vline;
        double arrival;
        if (arg_long(vline_obj, &vline) < 0) {
            return -1;
        }
        Py_ssize_t index = (Py_ssize_t)(vline % k->num_ctrls);
        if (home_energy_bump(k, k->off_e_lreads) < 0
            || home_leg(k, home, k->ctrl_tiles[index], K_MSG_MEM_WRITE, t,
                        &arrival) < 0
            || ctrl_access(k, index, t, NULL) < 0) {
            return -1;
        }
        if (k->verify) {
            PyObject *args[4] = {k->engine, home_obj, vline_obj, ventry};
            PyObject *res = PyObject_VectorcallMethod(
                str_verify_write_back, args,
                4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            if (res == NULL) {
                return -1;
            }
            Py_DECREF(res);
        }
    }
    int present = PyDict_Contains(k->home_of_line, vline_obj);
    if (present < 0
        || (present && PyDict_DelItem(k->home_of_line, vline_obj) < 0)) {
        return -1;
    }
    return 0;
}

/* A fresh DirectoryEntry (the `entry_type` slots sharers, owner and
 * overflowed as its __init__ sets them) attached to a filled line. */
static int
install_entry(HomeObject *k, PyObject *l2line)
{
    PyObject *entry = new_slotted(k->entry_type);
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
    slot_set_bool(entry, k->off_d_overflowed, 0);
    slot_put(l2line, k->off_directory, entry);
    return 0;
}

PyObject *
home_new_l2line(HomeObject *k, double last_access, PyObject *data)
{
    PyObject *l2line = new_slotted(k->line_type);
    if (l2line == NULL) {
        return NULL;
    }
    slot_put(l2line, k->off_last_use, PyLong_FromLong(0));
    slot_set_bool(l2line, k->off_dirty, 0);
    slot_put(l2line, k->off_dirty_words, PyLong_FromLong(0));
    slot_put(l2line, k->off_l2_data, Py_NewRef(data));
    slot_put(l2line, k->off_directory, Py_NewRef(Py_None));
    slot_put(l2line, k->off_locality, Py_NewRef(Py_None));
    slot_put(l2line, k->off_busy, Py_NewRef(k->zero));
    slot_set_bool(l2line, k->off_replica, 0);
    if (slot_set_double(l2line, k->off_last_access, last_access) < 0) {
        Py_DECREF(l2line);
        return NULL;
    }
    return l2line;
}

/* The verify-mode data of a filled line: the DRAM image's copy, else a
 * line of zeros (new reference). */
static PyObject *
fill_data(HomeObject *k, PyObject *line_obj)
{
    PyObject *image = PyDict_GetItemWithError(k->dram_image, line_obj);
    if (image != NULL) {
        return PySequence_List(image);
    }
    if (PyErr_Occurred()) {
        return NULL;
    }
    PyObject *data = PyList_New((Py_ssize_t)k->words_per_line);
    if (data != NULL) {
        for (long long w = 0; w < k->words_per_line; w++) {
            PyList_SET_ITEM(data, (Py_ssize_t)w, PyLong_FromLong(0));
        }
    }
    return data;
}

/* The off-chip fill of `line` at `home` from t: the LRU victim of a full
 * set (the kernel's eviction, then out of its set), MEM_READ_REQ, the
 * controller,
 * MEM_READ_REPLY, then the new line into its set and, in the directory
 * subtype, a fresh directory entry on it.  Returns the new L2Line (new
 * reference) and its arrival time. */
static PyObject *
fill(HomeObject *k, long long home, PyObject *home_obj, long long line,
     PyObject *line_obj, double t, double *reply_out)
{
    PyObject *slice_ = PyList_GET_ITEM(k->l2, (Py_ssize_t)home);
    PyObject *store;
    PyObject *bucket = bucket_of(k, slice_, line, &store);
    if (bucket == NULL) {
        return NULL;
    }
    Py_INCREF(store);
    Py_INCREF(bucket);
    PyObject *l2line = NULL;

    if (PyDict_GET_SIZE(bucket) >= k->assoc) {
        PyObject *vkey, *ventry;
        if (home_lru(bucket, k->line_type, "L2Line", k->off_last_use, &vkey,
                     &ventry) < 0) {
            goto done;
        }
        Py_INCREF(vkey);
        Py_INCREF(ventry);
        int bad = k->evict(k, home, home_obj, vkey, ventry, t) < 0;
        Py_DECREF(ventry);
        /* slice_.remove(vline): the store's pop. */
        if (!bad) {
            PyObject *gone = store_pop(k, store, bucket, vkey);
            bad = gone == NULL && PyErr_Occurred();
            Py_XDECREF(gone);
        }
        Py_DECREF(vkey);
        if (bad) {
            goto done;
        }
    }

    Py_ssize_t index = (Py_ssize_t)(line % k->num_ctrls);
    long long tile = k->ctrl_tiles[index];
    double req_t, finish, reply_t;
    if (home_leg(k, home, tile, K_MSG_MEM_READ_REQ, t, &req_t) < 0
        || ctrl_access(k, index, req_t, &finish) < 0
        || home_leg(k, tile, home, K_MSG_MEM_READ_REPLY, finish,
                    &reply_t) < 0) {
        goto done;
    }
    PyObject *data = k->verify ? fill_data(k, line_obj) : Py_NewRef(Py_None);
    if (data == NULL) {
        goto done;
    }
    l2line = home_new_l2line(k, reply_t, data);
    Py_DECREF(data);
    if (l2line == NULL) {
        goto done;
    }
    /* SetAssocCache.insert into a set the victim left room in. */
    int present = PyDict_Contains(bucket, line_obj);
    if (present < 0) {
        Py_CLEAR(l2line);
        goto done;
    }
    if (!present && PyDict_GET_SIZE(bucket) >= k->assoc) {
        PyErr_SetString(k->simulation_error,
                        "L2 fill evicted after explicit victim handling");
        Py_CLEAR(l2line);
        goto done;
    }
    if (home_touch(k, store, l2line, k->off_last_use) < 0
        || PyDict_SetItem(bucket, line_obj, l2line) < 0
        || observe(k, store, 0, line_obj, l2line) < 0
        || (k->entry_type != NULL && install_entry(k, l2line) < 0)
        || home_energy_bump(k, k->off_e_lwrites) < 0
        || PyDict_SetItem(k->home_of_line, line_obj, home_obj) < 0) {
        Py_CLEAR(l2line);
        goto done;
    }
    *reply_out = reply_t;

done:
    Py_DECREF(bucket);
    Py_DECREF(store);
    return l2line;
}

/* The request leg: deliver_request.  Returns the line (new
 * reference) and stores its slice (borrowed) and the service time. */
PyObject *
home_deliver(HomeObject *k, long long core, PyObject *line_obj,
             long long line, long long home, long long flush,
             long long req_msg, double now, PyObject *result,
             PyObject **slice_out, double *t_out)
{
    if (home_check_tile(k, home) < 0) {
        return NULL;
    }
    if (flush >= 0) {
        PyObject *owner = PyLong_FromLongLong(flush);
        PyObject *now_obj = PyFloat_FromDouble(now);
        PyObject *res = NULL;
        if (owner != NULL && now_obj != NULL) {
            PyObject *args[4] = {k->engine, line_obj, owner, now_obj};
            res = PyObject_VectorcallMethod(
                str_flush_private_page, args,
                4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        }
        Py_XDECREF(owner);
        Py_XDECREF(now_obj);
        if (res == NULL) {
            return NULL;
        }
        Py_DECREF(res);
    }
    double t;
    if (home_leg(k, core, home, req_msg, now, &t) < 0) {
        return NULL;
    }
    PyObject *l2line = home_lookup(k, home, line, line_obj);
    if (l2line == NULL && PyErr_Occurred()) {
        return NULL;
    }
    PyObject *slice_ = PyList_GET_ITEM(k->l2, (Py_ssize_t)home);
    if (l2line != NULL) {
        double busy;
        if (slot_double(l2line, k->off_busy, &busy) < 0) {
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
    if (home_energy_bump(k, k->off_e_tag) < 0) {
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

PyObject *
home_round_trip(HomeObject *k, long long core, PyObject *line_obj,
                long long line, long long home, long long flush,
                long long req_msg, long long reply_msg, double now,
                PyObject *result, PyObject **slice_out, double *t_out,
                double *reply_out)
{
    PyObject *l2line = home_deliver(k, core, line_obj, line, home, flush,
                                    req_msg, now, result, slice_out, t_out);
    if (l2line != NULL
        && home_leg(k, home, core, reply_msg, *t_out, reply_out) < 0) {
        Py_CLEAR(l2line);
    }
    return l2line;
}

/* The word access at the home; `word_obj` is the word as a Python int for
 * the verify-mode callback, or NULL to build it from `word`. */
int
home_serve_word(HomeObject *k, PyObject *core_obj, int is_write,
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
            || home_energy_bump(k, k->off_e_wwrites) < 0
            || slot_long(l2line, k->off_dirty_words, &mask) < 0) {
            return -1;
        }
        slot_set_bool(l2line, k->off_dirty, 1);
        if (slot_set_long(l2line, k->off_dirty_words, mask | (1LL << word)) < 0) {
            return -1;
        }
    }
    else if (slot_bump(slice_, k->off_slice_wreads) < 0
             || home_energy_bump(k, k->off_e_wreads) < 0) {
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

int
home_settle(HomeObject *k, PyObject *slice_, PyObject *l2line,
            PyObject *t_obj, int owned)
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
    if (store == NULL || check_type(store, k->store_type, "SetAssocCache") < 0
        || home_touch(k, store, l2line, k->off_last_use) < 0) {
        return -1;
    }
    slot_put(l2line, k->off_last_access, Py_NewRef(t_obj));
    return 0;
}


/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

#define METHOD(name, n, sig) KERNEL_METHOD(HomeObject, Home, name, n, sig)

METHOD(data_home, 2, "data_home(line, core)")
{
    long long line, core, home, flush;
    if (arg_index(args[0], &line) < 0 || arg_long(args[1], &core) < 0
        || home_place(k, line, 0, 0, args[1], core, &home, &flush) < 0) {
        return NULL;
    }
    return home_pair(home, flush);
}

METHOD(data_word_home, 3, "data_word_home(line, word, core)")
{
    long long line, word, core, home, flush;
    if (arg_index(args[0], &line) < 0 || arg_index(args[1], &word) < 0
        || arg_long(args[2], &core) < 0
        || home_place(k, line, 1, word, args[2], core, &home, &flush) < 0) {
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
    long long core, line, home, flush, req_msg, reply_msg;
    double now, t, reply_t;
    if (arg_long(args[0], &core) < 0 || arg_index(args[1], &line) < 0
        || arg_long(args[2], &home) < 0 || arg_flush(args[3], &flush) < 0
        || arg_long(args[4], &req_msg) < 0 || arg_long(args[5], &reply_msg) < 0
        || arg_double(args[6], &now) < 0 || home_check_tile(k, home) < 0) {
        return NULL;
    }
    PyObject *slice_;
    PyObject *l2line = home_round_trip(k, core, args[1], line, home, flush,
                                       req_msg, reply_msg, now, args[7],
                                       &slice_, &t, &reply_t);
    if (l2line == NULL) {
        return NULL;
    }
    return pack(4, Py_NewRef(slice_), l2line, PyFloat_FromDouble(t),
                PyFloat_FromDouble(reply_t));
}

METHOD(deliver_request, 7,
       "deliver_request(core, line, home, flush_owner, req_msg, now, result)")
{
    long long core, line, home, flush, req_msg;
    double now, t;
    if (arg_long(args[0], &core) < 0 || arg_index(args[1], &line) < 0
        || arg_long(args[2], &home) < 0 || arg_flush(args[3], &flush) < 0
        || arg_long(args[4], &req_msg) < 0 || arg_double(args[5], &now) < 0) {
        return NULL;
    }
    PyObject *slice_;
    PyObject *l2line = home_deliver(k, core, args[1], line, home, flush,
                                    req_msg, now, args[6], &slice_, &t);
    if (l2line == NULL) {
        return NULL;
    }
    return pack(3, Py_NewRef(slice_), l2line, PyFloat_FromDouble(t), NULL);
}

METHOD(evict_l2_line, 4, "evict_l2_line(home, vline, ventry, t)")
{
    long long home, vline;
    double t;
    if (arg_long(args[0], &home) < 0 || arg_long(args[1], &vline) < 0
        || arg_double(args[3], &t) < 0 || home_check_tile(k, home) < 0
        || check_type(args[2], k->line_type, "L2Line") < 0
        || k->evict(k, home, args[0], args[1], args[2], t) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(reply, 4, "reply(home, core, reply_msg, t)")
{
    long long home, core, reply_msg;
    double t, out;
    if (arg_long(args[0], &home) < 0 || arg_long(args[1], &core) < 0
        || arg_long(args[2], &reply_msg) < 0 || arg_double(args[3], &t) < 0
        || home_leg(k, home, core, reply_msg, t, &out) < 0) {
        return NULL;
    }
    return PyFloat_FromDouble(out);
}

METHOD(serve_word, 6,
       "serve_word(core, is_write, line, word, l2line, slice_)")
{
    long long word = 0;
    int is_write = PyObject_IsTrue(args[1]);
    if (is_write < 0 || (is_write && arg_long(args[3], &word) < 0)
        || home_serve_word(k, args[0], is_write, args[2], word, args[3],
                           args[4], args[5]) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(settle, 4, "settle(slice_, l2line, t, owned)")
{
    int owned = PyObject_IsTrue(args[3]);
    if (owned < 0 || home_settle(k, args[0], args[1], args[2], owned) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Construction and GC                                                 */
/* ------------------------------------------------------------------ */

/* One store geometry (set mask, associativity) over a list of caches of
 * one `type` (L1Cache or L2Slice). */
static int
home_geometry(PyObject *caches, PyObject *type, long long *mask,
              Py_ssize_t *assoc)
{
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(caches); i++) {
        long long m, a;
        PyObject *cache = PyList_GET_ITEM(caches, i);
        if (check_type(cache, type, ((PyTypeObject *)type)->tp_name) < 0
            || attr_long(cache, "store", "_set_mask", &m) < 0
            || attr_long(cache, "store", "associativity", &a) < 0) {
            return -1;
        }
        if (i == 0) {
            *mask = m;
            *assoc = (Py_ssize_t)a;
        }
        else if (m != *mask || a != *assoc) {
            PyErr_Format(PyExc_ValueError, "kernel: %s caches differ in "
                         "geometry", ((PyTypeObject *)type)->tp_name);
            return -1;
        }
    }
    return 0;
}

static int
attr_double(PyObject *obj, const char *a, const char *b, double *out)
{
    PyObject *v = attr_chain(obj, a, b);
    if (v == NULL) {
        return -1;
    }
    int rc = arg_double(v, out);
    Py_DECREF(v);
    return rc;
}

/* The flit table and the controllers (MemorySubsystem.controller_for_line
 * is line % n over the controller tiles, in order). */
static int
init_tables(HomeObject *k, PyObject *engine)
{
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
    if (k->num_msgs <= K_MSG_MEM_WRITE) {
        PyErr_SetString(PyExc_ValueError, "HomeKernel: flit table too short");
        return -1;
    }

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
    k->ctrl_type = type_of(PyList_GET_ITEM(k->controllers, 0));
    double bandwidth;
    long long line_size;
    if (attr_double(engine, "arch", "dram_latency_cycles", &k->dram_latency) < 0
        || attr_double(engine, "arch", "dram_bandwidth_bytes_per_cycle",
                       &bandwidth) < 0
        || arg_long(k->line_size, &line_size) < 0) {
        return -1;
    }
    k->dram_service = (double)line_size / bandwidth;
    return 0;
}

/* Enum members, bucket keys and the error class. */
static int
init_names(HomeObject *k)
{
    PyObject *mesi = imported("repro.common.types", "MESIState");
    PyObject *misses = imported("repro.common.types", "MissType");
    PyObject *buckets = imported("repro.common.statsutil",
                                 "UTILIZATION_BUCKETS");
    int rc = -1;
    if (mesi == NULL || misses == NULL || buckets == NULL
        || (k->st_shared = repro_getattr(mesi, "SHARED")) == NULL
        || (k->st_excl = repro_getattr(mesi, "EXCLUSIVE")) == NULL
        || (k->st_mod = repro_getattr(mesi, "MODIFIED")) == NULL
        || (k->simulation_error = imported("repro.common.errors",
                                           "SimulationError")) == NULL
        || (k->cline_type = imported("repro.mem.cache", "CacheLine")) == NULL) {
        goto done;
    }
    static const char *const miss_names[NUM_MISS] = {
        "COLD", "CAPACITY", "UPGRADE", "SHARING", "WORD"};
    for (int i = 0; i < NUM_MISS; i++) {
        long long index;
        if ((k->miss[i] = repro_getattr(misses, miss_names[i])) == NULL
            || arg_long(k->miss[i], &index) < 0) {
            goto done;
        }
        k->miss_index[i] = (Py_ssize_t)index;
    }
    if (!PyTuple_Check(buckets) || PyTuple_GET_SIZE(buckets) != NUM_BUCKETS) {
        PyErr_SetString(PyExc_TypeError,
                        "HomeKernel: unexpected utilization buckets");
        goto done;
    }
    for (int i = 0; i < NUM_BUCKETS; i++) {
        k->bucket_keys[i] = Py_NewRef(PyTuple_GET_ITEM(buckets, i));
    }
    rc = 0;
done:
    Py_XDECREF(mesi);
    Py_XDECREF(misses);
    Py_XDECREF(buckets);
    return rc;
}

static int
init_offsets(HomeObject *k, PyObject *engine)
{
    static const char *const engine_names[] = {
        "energy", "miss_stats", "inval_histogram", "evict_histogram", NULL};
    Py_ssize_t *const engine_outs[] = {&k->off_energy, &k->off_miss_stats,
                                       &k->off_inval_hist, &k->off_evict_hist};
    static const char *const energy_names[] = {
        "l2_tag_accesses", "l2_word_reads", "l2_word_writes",
        "l2_line_writes", "l2_line_reads", "l1d_reads", "l1d_writes",
        "l1d_tag_accesses", "l1d_line_fills", NULL};
    Py_ssize_t *const energy_outs[] = {
        &k->off_e_tag, &k->off_e_wreads, &k->off_e_wwrites, &k->off_e_lwrites,
        &k->off_e_lreads, &k->off_e_l1d_reads, &k->off_e_l1d_writes,
        &k->off_e_l1d_tag, &k->off_e_l1d_fills};
    static const char *const slice_names[] = {
        "store", "hits", "misses", "word_reads", "word_writes", "line_reads",
        NULL};
    Py_ssize_t *const slice_outs[] = {
        &k->off_slice_store, &k->off_slice_hits, &k->off_slice_misses,
        &k->off_slice_wreads, &k->off_slice_wwrites, &k->off_slice_lreads};
    static const char *const store_names[] = {
        "_sets", "_use_counter", "_observer", NULL};
    Py_ssize_t *const store_outs[] = {
        &k->off_store_sets, &k->off_store_use, &k->off_store_observer};
    static const char *const line_names[] = {
        "busy_until", "last_use", "last_access", "dirty", "dirty_words",
        "directory", "data", "locality", "is_replica", NULL};
    Py_ssize_t *const line_outs[] = {
        &k->off_busy, &k->off_last_use, &k->off_last_access, &k->off_dirty,
        &k->off_dirty_words, &k->off_directory, &k->off_l2_data,
        &k->off_locality, &k->off_replica};
    static const char *const result_names[] = {
        "latency", "l1_to_l2", "l2_waiting", "l2_sharers", "l2_offchip",
        "hit", "miss_type", "remote", NULL};
    Py_ssize_t *const result_outs[] = {
        &k->off_r_latency, &k->off_r_l1l2, &k->off_r_wait, &k->off_r_sharers,
        &k->off_r_offchip, &k->off_r_hit, &k->off_r_miss_type,
        &k->off_r_remote};
    static const char *const ctrl_names[] = {
        "_next_free", "requests", "bytes_transferred", "total_queue_delay",
        NULL};
    Py_ssize_t *const ctrl_outs[] = {&k->off_m_next_free, &k->off_m_requests,
                                     &k->off_m_bytes, &k->off_m_queue};
    static const char *const l1_names[] = {"store", "hits", "misses", NULL};
    Py_ssize_t *const l1_outs[] = {&k->off_l1_store, &k->off_l1_hits,
                                   &k->off_l1_misses};
    static const char *const cline_names[] = {
        "state", "last_use", "last_access", "utilization", "data", NULL};
    Py_ssize_t *const cline_outs[] = {&k->off_c_state, &k->off_c_last_use,
                                      &k->off_c_last_access, &k->off_c_util,
                                      &k->off_c_data};
    static const char *const stats_names[] = {"hits", "_miss_counts", NULL};
    Py_ssize_t *const stats_outs[] = {&k->off_ms_hits, &k->off_ms_counts};
    static const char *const hist_names[] = {"counts", NULL};
    Py_ssize_t *const hist_outs[] = {&k->off_h_counts};
    return slot_offsets((PyObject *)Py_TYPE(engine), engine_names,
                        engine_outs) < 0
                   || slot_offsets(k->energy_type, energy_names,
                                   energy_outs) < 0
                   || slot_offsets(k->slice_type, slice_names, slice_outs) < 0
                   || slot_offsets(k->store_type, store_names, store_outs) < 0
                   || slot_offsets(k->line_type, line_names, line_outs) < 0
                   || slot_offsets(k->result_type, result_names,
                                   result_outs) < 0
                   || slot_offsets(k->ctrl_type, ctrl_names, ctrl_outs) < 0
                   || slot_offsets(k->l1_type, l1_names, l1_outs) < 0
                   || slot_offsets(k->cline_type, cline_names, cline_outs) < 0
                   || slot_offsets(k->stats_type, stats_names, stats_outs) < 0
                   || slot_offsets(k->hist_type, hist_names, hist_outs) < 0
               ? -1
               : 0;
}

/* The engine's parts a kernel holds (`name` of the engine, or of its
 * `chain` attribute), with the type each must have. */
static int
Home_init_state(HomeObject *k, PyObject *engine, PyObject *line_type,
                PyObject *result_type)
{
    k->engine_ref = PyWeakref_NewRef(engine, NULL);
    if (k->engine_ref == NULL) {
        return -1;
    }
    k->line_type = Py_NewRef(line_type);
    k->result_type = Py_NewRef(result_type);
    k->evict = home_evict_l2_line;
    long long verify;
    PyObject *golden = NULL, *part = NULL;
    int rc = -1;
    if ((k->l2 = repro_getattr(engine, "l2")) == NULL
        || (k->paths = attr_chain(engine, "network", "paths")) == NULL
        || (k->resolve = attr_chain(engine, "network", "resolve_path")) == NULL
        || (k->mesh = attr_chain(engine, "network", "kernel")) == NULL
        || (k->page_table = attr_chain(engine, "placement", "page_table")) == NULL
        || (k->pages = repro_getattr(k->page_table, "_pages")) == NULL
        || (k->home_of_line = repro_getattr(engine, "_home_of_line")) == NULL
        || (k->dram_image = repro_getattr(engine, "_dram_image")) == NULL
        || (k->line_size = attr_chain(engine, "arch", "line_size")) == NULL
        || (k->l1d = repro_getattr(engine, "l1d")) == NULL
        || (k->history = repro_getattr(engine, "_history")) == NULL
        || (k->hit_result = repro_getattr(engine, "_hit_result")) == NULL
        || (golden = repro_getattr(engine, "golden")) == NULL
        || attr_long(engine, "arch", "num_cores", &k->num_tiles) < 0
        || attr_long(engine, "arch", "words_per_line", &k->words_per_line) < 0
        || attr_long(engine, "arch", "page_size", &k->page_size) < 0
        || attr_long(engine, "verify", NULL, &verify) < 0) {
        goto done;
    }
    k->verify = verify != 0;
    if (golden != Py_None) {
        k->golden = Py_NewRef(golden);
    }
    if (!repro_mesh_check(k->mesh)) {
        PyErr_Format(PyExc_TypeError, "%s needs the compiled MeshKernel",
                     kernel_name(k));
        goto done;
    }
    long long wpl = k->words_per_line;
    if (!PyList_CheckExact(k->l2) || PyList_GET_SIZE(k->l2) != k->num_tiles
        || k->num_tiles <= 0
        || !PyList_CheckExact(k->l1d) || PyList_GET_SIZE(k->l1d) != k->num_tiles
        || !PyList_CheckExact(k->history)
        || PyList_GET_SIZE(k->history) != k->num_tiles
        || !PyList_CheckExact(k->paths)
        || PyList_GET_SIZE(k->paths) != k->num_tiles * k->num_tiles
        || !PyDict_CheckExact(k->pages) || !PyDict_CheckExact(k->home_of_line)
        || !PyDict_CheckExact(k->dram_image)
        || wpl <= 0 || (wpl & (wpl - 1)) != 0) {
        PyErr_Format(PyExc_TypeError, "%s: unexpected engine layout",
                     kernel_name(k));
        goto done;
    }
    if (k->verify && k->golden == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s: verify mode without a golden memory", kernel_name(k));
        goto done;
    }
    if (k->page_size <= 0) {
        PyErr_SetString(PyExc_ValueError, "HomeKernel: page_size must be positive");
        goto done;
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
        goto done;
    }
    k->l2_latency = (double)latency;

    /* Types: the engine's own objects, and the classes it fills. */
    if ((part = repro_getattr(engine, "energy")) == NULL) {
        goto done;
    }
    k->energy_type = type_of(part);
    Py_CLEAR(part);
    if ((part = repro_getattr(engine, "miss_stats")) == NULL) {
        goto done;
    }
    k->stats_type = type_of(part);
    Py_CLEAR(part);
    if ((part = repro_getattr(engine, "inval_histogram")) == NULL) {
        goto done;
    }
    k->hist_type = type_of(part);
    Py_CLEAR(part);
    PyObject *slice0 = PyList_GET_ITEM(k->l2, 0);
    k->slice_type = type_of(slice0);
    k->l1_type = type_of(PyList_GET_ITEM(k->l1d, 0));
    if ((part = repro_getattr(slice0, "store")) == NULL) {
        goto done;
    }
    k->store_type = type_of(part);
    Py_CLEAR(part);
    if ((k->zero = PyFloat_FromDouble(0.0)) == NULL
        || init_tables(k, engine) < 0 || init_names(k) < 0
        || init_offsets(k, engine) < 0
        || home_geometry(k->l2, k->slice_type, &k->set_mask, &k->assoc) < 0
        || home_geometry(k->l1d, k->l1_type, &k->l1_mask, &k->l1_assoc) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(golden);
    Py_XDECREF(part);
    return rc;
}

static PyObject *
Home_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "line_type", "result_type", NULL};
    PyObject *engine, *line_type, *result_type;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO!O!", kwlist, &engine,
                                     &PyType_Type, &line_type, &PyType_Type,
                                     &result_type)) {
        return NULL;
    }
    HomeObject *k = (HomeObject *)type->tp_alloc(type, 0);
    if (k == NULL) {
        return NULL;
    }
    if (Home_init_state(k, engine, line_type, result_type) < 0) {
        Py_DECREF(k);
        return NULL;
    }
    return (PyObject *)k;
}

PyObject *
home_subtype_new(PyTypeObject *type, PyObject *args, PyObject *kwds,
                 const char *module, const char *family,
                 int (*init)(HomeObject *k, PyObject *engine))
{
    PyObject *k = Home_new(type, args, kwds);
    if (k == NULL) {
        return NULL;
    }
    PyObject *engine = kernel_engine((HomeObject *)k);
    PyObject *cls = engine == NULL ? NULL : imported(module, family);
    int rc = -1;
    if (cls != NULL) {
        int mine = PyObject_IsInstance(engine, cls);
        if (mine == 0) {
            PyErr_Format(PyExc_TypeError, "%s serves a %s, not a %s",
                         kernel_name(k), family, Py_TYPE(engine)->tp_name);
        }
        else if (mine > 0) {
            rc = init == NULL ? 0 : init((HomeObject *)k, engine);
        }
    }
    Py_XDECREF(cls);
    Py_XDECREF(engine);
    if (rc < 0) {
        Py_CLEAR(k);
    }
    return k;
}

int
home_access_args(HomeObject *k, PyObject *const *args, long long *core,
                 int *is_write, long long *line, long long *word, double *now)
{
    long long address;
    *is_write = PyObject_IsTrue(args[1]);
    if (*is_write < 0 || arg_long(args[0], core) < 0
        || arg_long(args[2], &address) < 0 || arg_double(args[3], now) < 0) {
        return -1;
    }
    if (address < 0) {
        PyErr_Format(PyExc_ValueError, "%s: negative address", kernel_name(k));
        return -1;
    }
    *line = address >> K_LINE_BITS;
    *word = (address >> K_WORD_BITS) & (k->words_per_line - 1);
    return home_check_tile(k, *core);
}

#define HOME_OBJECTS(X)                                                     \
    X(engine_ref) X(l2) X(paths) X(resolve) X(mesh) X(pages) X(page_table) \
    X(controllers) X(home_of_line) X(dram_image) X(line_size) X(line_type) \
    X(result_type) X(slice_type) X(store_type) X(energy_type) X(ctrl_type) \
    X(simulation_error) X(entry_type) X(l1d) X(history) X(golden)          \
    X(hit_result) X(zero) X(l1_type) X(cline_type) X(stats_type)           \
    X(hist_type) X(st_shared) X(st_excl) X(st_mod)

static int
Home_traverse(HomeObject *k, visitproc visit, void *arg)
{
#define VISIT(name) Py_VISIT(k->name);
    HOME_OBJECTS(VISIT)
#undef VISIT
    for (int i = 0; i < NUM_MISS; i++) {
        Py_VISIT(k->miss[i]);
    }
    for (int i = 0; i < NUM_BUCKETS; i++) {
        Py_VISIT(k->bucket_keys[i]);
    }
    return 0;
}

static int
Home_clear(HomeObject *k)
{
    k->engine = NULL;
#define CLEAR(name) Py_CLEAR(k->name);
    HOME_OBJECTS(CLEAR)
#undef CLEAR
    for (int i = 0; i < NUM_MISS; i++) {
        Py_CLEAR(k->miss[i]);
    }
    for (int i = 0; i < NUM_BUCKETS; i++) {
        Py_CLEAR(k->bucket_keys[i]);
    }
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

#define FASTCALL(name, doc) KERNEL_FASTCALL(Home, name, doc)

static PyMethodDef Home_methods[] = {
    FASTCALL(data_home, "data_home(line, core) -> (home, flush_owner)"),
    FASTCALL(data_word_home,
             "data_word_home(line, word, core) -> (home, flush_owner)"),
    FASTCALL(round_trip,
             "round_trip(core, line, home, flush_owner, req_msg, reply_msg, "
             "now, result) -> (slice_, l2line, t, reply_t)"),
    FASTCALL(deliver_request,
             "deliver_request(core, line, home, flush_owner, req_msg, now, "
             "result) -> (slice_, l2line, t)"),
    FASTCALL(evict_l2_line, "evict_l2_line(home, vline, ventry, t)"),
    FASTCALL(reply, "reply(home, core, reply_msg, t) -> reply_t"),
    FASTCALL(serve_word,
             "serve_word(core, is_write, line, word, l2line, slice_)"),
    FASTCALL(settle, "settle(slice_, l2line, t, owned)"),
    {NULL, NULL, 0, NULL},
};

PyTypeObject HomeType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.HomeKernel",
    .tp_basicsize = sizeof(HomeObject),
    .tp_dealloc = (destructor)Home_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The one kernel of a protocol engine: the home side of its "
              "misses",
    .tp_traverse = (traverseproc)Home_traverse,
    .tp_clear = (inquiry)Home_clear,
    .tp_methods = Home_methods,
    .tp_new = Home_new,
};

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
        {&str_verify_word, "_verify_word"},
        {&str_verify_write_back, "_verify_write_back"},
        {&str_check_read, "check_read"},
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
        || PyModule_AddIntConstant(mod, "WORD_BITS", K_WORD_BITS) < 0
        || PyModule_AddIntConstant(mod, "EVER_CACHED", K_EVER_CACHED) < 0
        || PyModule_AddIntConstant(mod, "LAST_REMOVAL_INVAL",
                                   K_LAST_REMOVAL_INVAL) < 0
        || PyModule_AddIntConstant(mod, "EVER_REMOTE", K_EVER_REMOTE) < 0) {
        return -1;
    }
    static const struct {
        const char *name;
        int value;
    } msgs[] = {
        {"MSG_READ_REQ", K_MSG_READ_REQ},
        {"MSG_WRITE_REQ", K_MSG_WRITE_REQ},
        {"MSG_UPGRADE_REQ", K_MSG_UPGRADE_REQ},
        {"MSG_LINE_REPLY", K_MSG_LINE_REPLY},
        {"MSG_WORD_REPLY", K_MSG_WORD_REPLY},
        {"MSG_WORD_WRITE_ACK", K_MSG_WORD_WRITE_ACK},
        {"MSG_INV_REQ", K_MSG_INV_REQ},
        {"MSG_INV_ACK", K_MSG_INV_ACK},
        {"MSG_WB_REQ", K_MSG_WB_REQ},
        {"MSG_WB_DATA", K_MSG_WB_DATA},
        {"MSG_EVICT_NOTIFY", K_MSG_EVICT_NOTIFY},
        {"MSG_EVICT_DIRTY", K_MSG_EVICT_DIRTY},
        {"MSG_MEM_READ_REQ", K_MSG_MEM_READ_REQ},
        {"MSG_MEM_READ_REPLY", K_MSG_MEM_READ_REPLY},
        {"MSG_MEM_WRITE", K_MSG_MEM_WRITE},
    };
    for (size_t i = 0; i < sizeof(msgs) / sizeof(msgs[0]); i++) {
        if (PyModule_AddIntConstant(mod, msgs[i].name, msgs[i].value) < 0) {
            return -1;
        }
    }
    return 0;
}
