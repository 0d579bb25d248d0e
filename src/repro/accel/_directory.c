/* Compiled directory kernel: every L1 miss of one directory-family engine.
 *
 * DirectoryKernel is the engine kernel of the directory families
 * (baseline, adaptive, victim, phase; DESIGN.md section 15): a subtype of
 * HomeKernel (_home.c) whose object starts with the home kernel's
 * HomeObject (_accel.h), so each engine builds exactly one kernel.  Its
 * pure-Python twin and reference, PyDirectoryKernel in
 * repro/protocol/directory.py, is a subclass of PyHomeKernel with the same
 * constructor and methods; an engine builds this one exactly when its mesh
 * kernel is the compiled MeshKernel.  The directory steps take the home
 * steps (home_place, home_deliver, home_leg, home_serve_word, home_settle)
 * and the shared L1-side helpers (home_l1_*, the result, miss, history and
 * histogram steps) on the kernel itself, and the rounds' messages are
 * reserved through the same mesh kernel (home_leg).
 * Its purge_copies is the home kernel's purge step for an evicted L2
 * line.
 *
 * A kernel services a whole miss: the requester classification (Limited_k
 * or Complete, RAT levels or the Timestamp check, one-way), the
 * ACKwise/full-map sharer updates, the invalidation and synchronous
 * write-back rounds, the private line grant with its L1 fill, the L1
 * eviction notice and the miss-type, history, histogram and energy
 * bookkeeping.  It keeps no state and no mirror: it works on the engine's
 * Python objects through their __slots__ offsets - the L1 stores and their
 * CacheLine entries, the L2 slices and L2Line entries, DirectoryEntry,
 * the {core: CoreLocality} dicts, the classifier and sharer-policy
 * counters, the histograms, miss stats and energy counters, each re-read
 * from the engine per update because reset_stats replaces them.  Every L1
 * membership change goes through the store's _observer, as
 * SetAssocCache.insert/pop do.  The classifier and the sharer policy stay
 * the Python reference of their steps; this kernel reads their
 * configuration once and takes the same steps.  Its fills install a fresh
 * DirectoryEntry (the HomeObject's entry_type, set here).
 *
 * It calls back into Python only for the family hooks an engine class
 * defines (repro.protocol.directory.FAMILY_HOOKS, read once), the
 * verify-mode golden steps (_verified_l1_write, GoldenMemory.check_read,
 * DirectoryEntry.check_invariants on a violation), the store observers
 * and MeshNetwork.broadcast, on the live network, so a wrapped method is
 * the one called.
 *
 * Exactness (pinned by the directory-kernel contract property and the
 * RunStats fixtures under both implementations):
 *
 *   - the invalidation round reserves its INVs, then its acks, in the
 *     iteration order of the sharers set itself;
 *   - Limited_k reuses the first inactive entry in dict order: the vote
 *     is taken before the delete, then the newcomer is appended;
 *   - t += sharers_lat with sharers_lat = done - t (not t = done), and
 *     l1_to_l2 = latency - l2_waiting - l2_sharers - l2_offchip, left to
 *     right; the Timestamp test is a strict >; -O2 without fast-math;
 *   - state, mode and miss_type slots hold the enum members, compared by
 *     identity where Python uses `is`;
 *   - LRU victims are the first entry in dict order with the smallest
 *     last_use, as min(bucket, key=...) returns (home_lru).
 */

#include "_accel.h"

#include <stdio.h>

/* FAMILY_HOOKS positions. */
enum { HOOK_CLASSIFY, HOOK_GRANT, HOOK_EVICT, HOOK_PURGE, NUM_HOOKS };
/* Classifier storage organizations. */
enum { CLS_NONE, CLS_LIMITED, CLS_COMPLETE };

static PyObject *str_hook[NUM_HOOKS];
static PyObject *str_verified_l1_write;
static PyObject *str_check_invariants;
static PyObject *str_broadcast;

typedef struct {
    /* The home kernel this one extends: the engine, its L2, mesh, flit
     * table, the L1 side and the L2Line, DirectoryEntry and AccessResult
     * offsets. */
    HomeObject base;
    /* Strong references (GC-tracked). */
    PyObject *network;        /* MeshNetwork (broadcast) */
    PyObject *classifier;     /* LocalityClassifier, or NULL */
    PyObject *policy;         /* SharerTrackingPolicy */
    PyObject *loc_type;
    PyObject *mode_private, *mode_remote;
    PyObject *inv_broadcast;   /* MsgType.INV_BROADCAST */
    PyObject *coherence_error;
    /* Configuration (constant per engine). */
    int hooks[NUM_HOOKS];
    int cls_kind;
    long long pct, limit_k, max_rat;
    int one_way, use_timestamp, vote_init;
    long long *rat_levels;
    Py_ssize_t n_rat;
    int ackwise;
    long long pointers;
    /* __slots__ offsets. */
    Py_ssize_t off_lc_core, off_lc_mode, off_lc_util, off_lc_rat;
    Py_ssize_t off_lc_active;
    Py_ssize_t off_e_l1d_line_reads;
    Py_ssize_t off_e_dir_lookups, off_e_dir_updates;
    Py_ssize_t off_cl_promotions, off_cl_demotions, off_cl_remote;
    Py_ssize_t off_cl_votes, off_cl_replacements, off_cl_failures;
    Py_ssize_t off_p_bcast, off_p_unicast;
} DirObject;

/* ------------------------------------------------------------------ */
/* Small helpers                                                       */
/* ------------------------------------------------------------------ */

/* `line` as Python's f"{line:#x}", into buf (returned). */
static const char *
hex_line(char *buf, size_t size, long long line)
{
    snprintf(buf, size, "0x%llx", (unsigned long long)line);
    return buf;
}

/* The DirectoryEntry of an L2 line (borrowed). */
static PyObject *
dirent_of(DirObject *k, PyObject *l2line)
{
    if (check_type(l2line, k->base.line_type, "L2Line") < 0) {
        return NULL;
    }
    PyObject *dirent = slot_get(l2line, k->base.off_directory);
    if (dirent == NULL) {
        return NULL;
    }
    if (dirent == Py_None) {
        PyErr_SetString(PyExc_AttributeError,
                        "'NoneType' object has no attribute 'sharers'");
        return NULL;
    }
    if (check_type(dirent, k->base.entry_type, "DirectoryEntry") < 0) {
        return NULL;
    }
    return dirent;
}

/* The sharers set of a directory entry (borrowed). */
static PyObject *
sharers_of(DirObject *k, PyObject *dirent)
{
    PyObject *sharers = slot_get(dirent, k->base.off_d_sharers);
    if (sharers != NULL && !PySet_CheckExact(sharers)) {
        PyErr_SetString(PyExc_TypeError, "directory kernel: sharers is not a set");
        return NULL;
    }
    return sharers;
}

/* ------------------------------------------------------------------ */
/* The L1 side the classifier reads                                    */
/* ------------------------------------------------------------------ */

/* Minimum last_access over a full L1 set; *full = 0 (None in Python) when
 * the set has an invalid way. */
static int
l1_min_last_access(DirObject *k, PyObject *store, long long line, int *full,
                   double *out)
{
    PyObject *bucket = home_store_bucket(&k->base, store, k->base.l1_mask,
                                         line);
    if (bucket == NULL) {
        return -1;
    }
    *full = PyDict_GET_SIZE(bucket) >= k->base.l1_assoc;
    if (!*full) {
        return 0;
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    int first = 1;
    double best = 0.0;
    while (PyDict_Next(bucket, &pos, &key, &value)) {
        double v;
        if (check_type(value, k->base.cline_type, "CacheLine") < 0
            || slot_double(value, k->base.off_c_last_access, &v) < 0) {
            return -1;
        }
        if (first || v < best) {
            best = v;
            first = 0;
        }
    }
    *out = best;
    return 0;
}

/* ------------------------------------------------------------------ */
/* The sharer policy (SharerTrackingPolicy / AckwisePolicy steps)      */
/* ------------------------------------------------------------------ */

static int
set_owner(DirObject *k, PyObject *dirent, PyObject *core_obj)
{
    PyObject *sharers = sharers_of(k, dirent);
    if (sharers == NULL) {
        return -1;
    }
    slot_put(dirent, k->base.off_d_owner, Py_NewRef(core_obj));
    return PySet_Add(sharers, core_obj);
}

static int
add_sharer(DirObject *k, PyObject *dirent, PyObject *core_obj)
{
    PyObject *sharers = sharers_of(k, dirent);
    if (sharers == NULL || PySet_Add(sharers, core_obj) < 0) {
        return -1;
    }
    if (k->ackwise) {
        int over = slot_true(dirent, k->base.off_d_overflowed);
        if (over < 0) {
            return -1;
        }
        if (!over && PySet_GET_SIZE(sharers) > k->pointers) {
            slot_set_bool(dirent, k->base.off_d_overflowed, 1);
        }
    }
    return 0;
}

static int
remove_sharer(DirObject *k, PyObject *dirent, PyObject *core_obj,
              long long core)
{
    PyObject *sharers = sharers_of(k, dirent);
    long long owner;
    if (sharers == NULL || PySet_Discard(sharers, core_obj) < 0
        || slot_long(dirent, k->base.off_d_owner, &owner) < 0) {
        return -1;
    }
    if (owner == core && slot_set_long(dirent, k->base.off_d_owner, -1) < 0) {
        return -1;
    }
    if (k->ackwise) {
        int over = slot_true(dirent, k->base.off_d_overflowed);
        if (over < 0) {
            return -1;
        }
        if (over && PySet_GET_SIZE(sharers) == 0) {
            slot_set_bool(dirent, k->base.off_d_overflowed, 0);
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The locality classifier (LocalityClassifier and its two storages)   */
/* ------------------------------------------------------------------ */

static int
classifier_bump(DirObject *k, Py_ssize_t off)
{
    return slot_bump(k->classifier, off);
}

static PyObject *
new_locality(DirObject *k, PyObject *core_obj, PyObject *mode)
{
    PyObject *entry = new_slotted(k->loc_type);
    PyObject *zero_a = PyLong_FromLong(0), *zero_b = PyLong_FromLong(0);
    if (entry == NULL || zero_a == NULL || zero_b == NULL) {
        Py_XDECREF(entry);
        Py_XDECREF(zero_a);
        Py_XDECREF(zero_b);
        return NULL;
    }
    slot_put(entry, k->off_lc_core, Py_NewRef(core_obj));
    slot_put(entry, k->off_lc_mode, Py_NewRef(mode));
    slot_put(entry, k->off_lc_util, zero_a);
    slot_put(entry, k->off_lc_rat, zero_b);
    slot_set_bool(entry, k->off_lc_active, 1);
    return entry;
}

static PyObject *
checked_locality(DirObject *k, PyObject *entry)
{
    return check_type(entry, k->loc_type, "CoreLocality") < 0 ? NULL : entry;
}

/* majority_vote over a {core: CoreLocality} dict: REMOTE only on a strict
 * majority (ties and empty dicts favour PRIVATE); borrowed member. */
static PyObject *
majority(DirObject *k, PyObject *entries)
{
    Py_ssize_t pos = 0, tracked = 0, remote = 0;
    PyObject *key, *value;
    while (PyDict_Next(entries, &pos, &key, &value)) {
        PyObject *mode;
        if (checked_locality(k, value) == NULL
            || (mode = slot_get(value, k->off_lc_mode)) == NULL) {
            return NULL;
        }
        tracked++;
        if (mode == k->mode_remote) {
            remote++;
        }
    }
    return 2 * remote > tracked ? k->mode_remote : k->mode_private;
}

/* The {core: CoreLocality} dict of a line, created if absent (borrowed). */
static PyObject *
locality_dict(DirObject *k, PyObject *l2line)
{
    PyObject *entries = slot_get(l2line, k->base.off_locality);
    if (entries == NULL) {
        return NULL;
    }
    if (entries == Py_None) {
        entries = PyDict_New();
        if (entries == NULL) {
            return NULL;
        }
        slot_put(l2line, k->base.off_locality, entries);
    }
    if (!PyDict_CheckExact(entries)) {
        PyErr_SetString(PyExc_TypeError,
                        "directory kernel: locality is not a dict");
        return NULL;
    }
    return entries;
}

/* locality_entry(l2line, core, allocate=True): *out is the tracked entry
 * (borrowed from the line's dict), or NULL when the core cannot be
 * tracked (Limited_k, no free or inactive slot). */
static int
locality_entry(DirObject *k, PyObject *l2line, PyObject *core_obj,
               PyObject **out)
{
    *out = NULL;
    PyObject *entries = locality_dict(k, l2line);
    if (entries == NULL) {
        return -1;
    }
    PyObject *entry = PyDict_GetItemWithError(entries, core_obj);
    if (entry != NULL) {
        *out = checked_locality(k, entry);
        return *out == NULL ? -1 : 0;
    }
    if (PyErr_Occurred()) {
        return -1;
    }
    PyObject *mode = k->mode_private;
    if (k->cls_kind == CLS_LIMITED) {
        if (PyDict_GET_SIZE(entries) >= k->limit_k) {
            /* The first inactive entry, in dict order. */
            Py_ssize_t pos = 0;
            PyObject *key, *value, *replacement = NULL;
            while (PyDict_Next(entries, &pos, &key, &value)) {
                if (checked_locality(k, value) == NULL) {
                    return -1;
                }
                int active = slot_true(value, k->off_lc_active);
                if (active < 0) {
                    return -1;
                }
                if (!active) {
                    replacement = value;
                    break;
                }
            }
            if (replacement == NULL) {
                return classifier_bump(k, k->off_cl_failures);
            }
            /* The newcomer starts in the majority mode of the entries
             * tracked before the replacement. */
            if ((mode = majority(k, entries)) == NULL) {
                return -1;
            }
            PyObject *old = slot_get(replacement, k->off_lc_core);
            if (old == NULL) {
                return -1;
            }
            Py_INCREF(old);
            int rc = PyDict_DelItem(entries, old);
            Py_DECREF(old);
            if (rc < 0 || classifier_bump(k, k->off_cl_replacements) < 0) {
                return -1;
            }
        }
    }
    else if (k->vote_init && PyDict_GET_SIZE(entries) > 0) {
        if ((mode = majority(k, entries)) == NULL
            || classifier_bump(k, k->off_cl_votes) < 0) {
            return -1;
        }
    }
    entry = new_locality(k, core_obj, mode);
    if (entry == NULL) {
        return -1;
    }
    int rc = PyDict_SetItem(entries, core_obj, entry);
    Py_DECREF(entry);  /* the dict holds it */
    if (rc < 0) {
        return -1;
    }
    *out = entry;
    return 0;
}

/* on_remote_access: *promoted when the core becomes a private sharer. */
static int
on_remote_access(DirObject *k, PyObject *l2line, PyObject *centry, int full,
                 double l1_min, int *promoted)
{
    *promoted = 0;
    if (classifier_bump(k, k->off_cl_remote) < 0) {
        return -1;
    }
    if (centry == NULL || k->one_way) {
        return 0;
    }
    slot_set_bool(centry, k->off_lc_active, 1);
    long long util, threshold;
    if (slot_long(centry, k->off_lc_util, &util) < 0) {
        return -1;
    }
    if (k->use_timestamp) {
        int passed = !full;
        if (full) {
            double last;
            if (slot_double(l2line, k->base.off_last_access, &last) < 0) {
                return -1;
            }
            passed = last > l1_min;
        }
        util = passed ? util + 1 : 1;
        threshold = k->pct;
    }
    else {
        long long level;
        if (slot_long(centry, k->off_lc_rat, &level) < 0) {
            return -1;
        }
        if (level < 0 || level >= k->n_rat) {
            PyErr_SetString(PyExc_IndexError, "tuple index out of range");
            return -1;
        }
        util += 1;
        threshold = k->rat_levels[level];
    }
    if (slot_set_long(centry, k->off_lc_util, util) < 0) {
        return -1;
    }
    *promoted = util >= threshold || (!full && util >= k->pct);
    if (*promoted) {
        slot_put(centry, k->off_lc_mode, Py_NewRef(k->mode_private));
        return classifier_bump(k, k->off_cl_promotions);
    }
    return 0;
}

/* on_write: every other remote sharer loses its remote utilization and
 * becomes inactive. */
static int
on_write(DirObject *k, PyObject *l2line, long long writer)
{
    PyObject *entries = slot_get(l2line, k->base.off_locality);
    if (entries == NULL) {
        return -1;
    }
    if (entries == Py_None) {
        return 0;
    }
    if (!PyDict_CheckExact(entries)) {
        PyErr_SetString(PyExc_TypeError,
                        "directory kernel: locality is not a dict");
        return -1;
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(entries, &pos, &key, &value)) {
        long long core;
        PyObject *mode;
        if (checked_locality(k, value) == NULL
            || slot_long(value, k->off_lc_core, &core) < 0
            || (mode = slot_get(value, k->off_lc_mode)) == NULL) {
            return -1;
        }
        if (core != writer && mode == k->mode_remote) {
            if (slot_set_long(value, k->off_lc_util, 0) < 0) {
                return -1;
            }
            slot_set_bool(value, k->off_lc_active, 0);
        }
    }
    return 0;
}

/* on_removal: classify `core` as its L1 copy leaves (eviction or not). */
static int
on_removal(DirObject *k, PyObject *l2line, PyObject *core_obj,
           long long private_util, int eviction)
{
    PyObject *entry;
    if (locality_entry(k, l2line, core_obj, &entry) < 0) {
        return -1;
    }
    if (entry == NULL) {
        return 0;  /* Limited_k with no slot: the classification is lost */
    }
    long long util = 0, level;
    if (!k->one_way && slot_long(entry, k->off_lc_util, &util) < 0) {
        return -1;
    }
    PyObject *mode = slot_get(entry, k->off_lc_mode);
    if (mode == NULL) {
        return -1;
    }
    PyObject *new_mode = private_util + util >= k->pct ? k->mode_private
                                                       : k->mode_remote;
    if (k->one_way && mode == k->mode_remote) {
        new_mode = k->mode_remote;
    }
    if (!k->use_timestamp && !k->one_way) {
        if (new_mode == k->mode_private) {
            if (slot_set_long(entry, k->off_lc_rat, 0) < 0) {
                return -1;
            }
        }
        else if (eviction) {
            if (slot_long(entry, k->off_lc_rat, &level) < 0
                || (level < k->max_rat
                    && slot_set_long(entry, k->off_lc_rat, level + 1) < 0)) {
                return -1;
            }
        }
    }
    if (new_mode == k->mode_remote && mode == k->mode_private
        && classifier_bump(k, k->off_cl_demotions) < 0) {
        return -1;
    }
    slot_put(entry, k->off_lc_mode, Py_NewRef(new_mode));
    if (slot_set_long(entry, k->off_lc_util, 0) < 0) {
        return -1;
    }
    slot_set_bool(entry, k->off_lc_active, 0);
    return 0;
}

static int
note_private_grant(DirObject *k, PyObject *l2line, PyObject *core_obj)
{
    PyObject *entry;
    if (locality_entry(k, l2line, core_obj, &entry) < 0) {
        return -1;
    }
    if (entry == NULL) {
        return 0;
    }
    PyObject *mode = slot_get(entry, k->off_lc_mode);
    if (mode == NULL) {
        return -1;
    }
    if (k->one_way && mode == k->mode_remote) {
        return 0;
    }
    slot_put(entry, k->off_lc_mode, Py_NewRef(k->mode_private));
    slot_set_bool(entry, k->off_lc_active, 1);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Family hooks and the steps they reach back to                        */
/* ------------------------------------------------------------------ */

static PyObject *
call_hook(DirObject *k, int hook, PyObject *const *args, size_t nargs)
{
    PyObject *full[9];
    full[0] = k->base.engine;
    for (size_t i = 0; i < nargs; i++) {
        full[i + 1] = args[i];
    }
    return PyObject_VectorcallMethod(str_hook[hook], full,
                                     (nargs + 1)
                                         | PY_VECTORCALL_ARGUMENTS_OFFSET,
                                     NULL);
}

/* purge_target_copy: kill core's copy of line; the ack message type. */
static int
base_purge_target_copy(DirObject *k, long long core, PyObject *core_obj,
                       long long line, PyObject *line_obj, PyObject *l2line,
                       int merge, long long *ack)
{
    PyObject *removed = home_l1_pop(&k->base, core, line, line_obj);
    if (removed == NULL) {
        if (!PyErr_Occurred()) {
            char hex[32];
            PyErr_Format(k->coherence_error,
                         "directory lists core %lld for line %s but L1 empty",
                         core, hex_line(hex, sizeof hex, line));
        }
        return -1;
    }
    long long putil;
    PyObject *state;
    int rc = -1;
    if (slot_long(removed, k->base.off_c_util, &putil) < 0
        || home_hist_record(&k->base, k->base.off_inval_hist, putil) < 0
        || home_history_update(&k->base, core, line_obj,
                               K_LAST_REMOVAL_INVAL, 0) < 0
        || (merge && k->classifier != NULL
            && on_removal(k, l2line, core_obj, putil, 0) < 0)
        || (state = slot_get(removed, k->base.off_c_state)) == NULL) {
        goto done;
    }
    if (state != k->base.st_mod) {
        *ack = K_MSG_INV_ACK;
        rc = 0;
        goto done;
    }
    if (home_energy_bump(&k->base, k->off_e_l1d_line_reads) < 0) {
        goto done;
    }
    slot_set_bool(l2line, k->base.off_dirty, 1);
    if (merge && home_energy_bump(&k->base, k->base.off_e_lwrites) < 0) {
        goto done;
    }
    if (k->base.verify) {
        PyObject *data = slot_get(removed, k->base.off_c_data);
        if (data == NULL
            || slot_copy_list(l2line, k->base.off_l2_data, data) < 0) {
            goto done;
        }
    }
    *ack = K_MSG_WB_DATA;
    rc = 0;
done:
    Py_DECREF(removed);
    return rc;
}

/* handle_l1_eviction: the eviction notice of (core, vline) at time t. */
static int
base_handle_l1_eviction(DirObject *k, long long core, PyObject *core_obj,
                        PyObject *vline_obj, PyObject *ventry, double t)
{
    long long vline, vhome, util;
    if (arg_long(vline_obj, &vline) < 0
        || check_type(ventry, k->base.cline_type, "CacheLine") < 0) {
        return -1;
    }
    PyObject *vhome_obj = PyDict_GetItemWithError(k->base.home_of_line,
                                                  vline_obj);
    if (vhome_obj == NULL) {
        if (!PyErr_Occurred()) {
            char hex[32];
            PyErr_Format(k->base.simulation_error,
                         "evicting line %s with unknown home",
                         hex_line(hex, sizeof hex, vline));
        }
        return -1;
    }
    PyObject *state;
    if (arg_long(vhome_obj, &vhome) < 0
        || slot_long(ventry, k->base.off_c_util, &util) < 0
        || home_hist_record(&k->base, k->base.off_evict_hist, util) < 0
        || home_history_update(&k->base, core, vline_obj, K_EVER_CACHED,
                          K_LAST_REMOVAL_INVAL) < 0
        || (state = slot_get(ventry, k->base.off_c_state)) == NULL) {
        return -1;
    }
    int dirty = state == k->base.st_mod;
    double arrival;
    if (home_leg(&k->base, core, vhome,
                dirty ? K_MSG_EVICT_DIRTY : K_MSG_EVICT_NOTIFY, t,
                &arrival) < 0) {
        return -1;
    }
    PyObject *vl2 = home_lookup(&k->base, vhome, vline, vline_obj);
    if (vl2 == NULL) {
        if (!PyErr_Occurred()) {
            char hex[32];
            PyErr_Format(k->coherence_error,
                         "inclusion violation: L1 evicts %s absent from L2",
                         hex_line(hex, sizeof hex, vline));
        }
        return -1;
    }
    Py_INCREF(vl2);
    int rc = -1;
    PyObject *dirent;
    if (dirty) {
        if (home_energy_bump(&k->base, k->off_e_l1d_line_reads) < 0
            || home_energy_bump(&k->base, k->base.off_e_lwrites) < 0) {
            goto done;
        }
        slot_set_bool(vl2, k->base.off_dirty, 1);
        if (k->base.verify) {
            PyObject *data = slot_get(ventry, k->base.off_c_data);
            if (data == NULL
                || slot_copy_list(vl2, k->base.off_l2_data, data) < 0) {
                goto done;
            }
        }
    }
    if ((k->classifier != NULL && on_removal(k, vl2, core_obj, util, 1) < 0)
        || (dirent = dirent_of(k, vl2)) == NULL
        || remove_sharer(k, dirent, core_obj, core) < 0
        || home_energy_bump(&k->base, k->off_e_dir_updates) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_DECREF(vl2);
    return rc;
}

/* ------------------------------------------------------------------ */
/* The steps a family may take over: its hook, else the base step       */
/* ------------------------------------------------------------------ */

static int
purge_target_copy(DirObject *k, long long core, PyObject *core_obj,
                  long long line, PyObject *line_obj, PyObject *l2line,
                  int merge, long long *ack)
{
    if (!k->hooks[HOOK_PURGE]) {
        return base_purge_target_copy(k, core, core_obj, line, line_obj,
                                      l2line, merge, ack);
    }
    PyObject *args[4] = {core_obj, line_obj, l2line,
                         merge ? Py_True : Py_False};
    PyObject *res = call_hook(k, HOOK_PURGE, args, 4);
    if (res == NULL) {
        return -1;
    }
    int rc = arg_long(res, ack);
    Py_DECREF(res);
    return rc;
}

static int
handle_l1_eviction(DirObject *k, long long core, PyObject *core_obj,
                   PyObject *vline_obj, PyObject *ventry, double t)
{
    if (!k->hooks[HOOK_EVICT]) {
        return base_handle_l1_eviction(k, core, core_obj, vline_obj, ventry,
                                       t);
    }
    PyObject *t_obj = PyFloat_FromDouble(t);
    if (t_obj == NULL) {
        return -1;
    }
    PyObject *args[4] = {core_obj, vline_obj, ventry, t_obj};
    PyObject *res = call_hook(k, HOOK_EVICT, args, 4);
    Py_DECREF(t_obj);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

/* remove_own_copy: fold back the requester's own S copy. */
static int
remove_own_copy(DirObject *k, long long core, PyObject *core_obj,
                long long line, PyObject *line_obj, PyObject *l2line)
{
    PyObject *removed = home_l1_pop(&k->base, core, line, line_obj);
    if (removed == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    long long util;
    PyObject *dirent;
    int rc = -1;
    if (slot_long(removed, k->base.off_c_util, &util) < 0
        || home_hist_record(&k->base, k->base.off_inval_hist, util) < 0
        || home_history_update(&k->base, core, line_obj,
                               K_LAST_REMOVAL_INVAL, 0) < 0
        || (k->classifier != NULL
            && on_removal(k, l2line, core_obj, util, 0) < 0)
        || (dirent = dirent_of(k, l2line)) == NULL
        || remove_sharer(k, dirent, core_obj, core) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_DECREF(removed);
    return rc;
}

/* classify_requester: *remote for word service, *upgrade folded. */
static int
base_classify_requester(DirObject *k, PyObject *l1, PyObject *l2line,
                        long long core, PyObject *core_obj, long long line,
                        PyObject *line_obj, int *remote, int *upgrade)
{
    *remote = 0;
    if (k->classifier == NULL) {
        return 0;
    }
    if (check_type(l1, k->base.l1_type, "L1Cache") < 0
        || check_type(l2line, k->base.line_type, "L2Line") < 0) {
        return -1;
    }
    PyObject *centry, *mode;
    if (locality_entry(k, l2line, core_obj, &centry) < 0) {
        return -1;
    }
    if (centry != NULL) {
        mode = slot_get(centry, k->off_lc_mode);
        if (mode == NULL) {
            return -1;
        }
    }
    else {
        /* Untracked and untrackable: the majority vote decides. */
        PyObject *entries = locality_dict(k, l2line);
        if (entries == NULL || classifier_bump(k, k->off_cl_votes) < 0
            || (mode = majority(k, entries)) == NULL) {
            return -1;
        }
    }
    if (mode != k->mode_remote) {
        return 0;
    }
    Py_XINCREF(centry);
    int rc = -1;
    if (*upgrade) {
        if (remove_own_copy(k, core, core_obj, line, line_obj, l2line) < 0) {
            goto done;
        }
        *upgrade = 0;
    }
    PyObject *store = slot_get(l1, k->base.off_l1_store);
    int full, promoted;
    double l1_min = 0.0;
    if (store == NULL || l1_min_last_access(k, store, line, &full, &l1_min) < 0
        || on_remote_access(k, l2line, centry, full, l1_min, &promoted) < 0) {
        goto done;
    }
    *remote = !promoted;
    rc = 0;
done:
    Py_XDECREF(centry);
    return rc;
}

/* Verify mode: engine._verified_l1_write(core, entry, line, word). */
static int
verified_write(DirObject *k, PyObject *core_obj, PyObject *entry,
               PyObject *line_obj, long long word)
{
    PyObject *word_obj = PyLong_FromLongLong(word);
    if (word_obj == NULL) {
        return -1;
    }
    PyObject *args[5] = {k->base.engine, core_obj, entry, line_obj, word_obj};
    PyObject *res = PyObject_VectorcallMethod(
        str_verified_l1_write, args, 5 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_DECREF(word_obj);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

/* grant_private: the directory and L1 side of a private grant. */
static int
base_grant_private(DirObject *k, long long core, PyObject *core_obj,
                   int is_write, long long line, PyObject *line_obj,
                   long long word, PyObject *l2line, PyObject *slice_,
                   int upgrade, double reply_t)
{
    PyObject *dirent = dirent_of(k, l2line);
    if (dirent == NULL
        || check_type(slice_, k->base.slice_type, "L2Slice") < 0) {
        return -1;
    }
    Py_INCREF(dirent);
    PyObject *entry = NULL, *ev_line = NULL, *ev_entry = NULL;
    int rc = -1;
    long long owner;
    if (k->classifier != NULL && note_private_grant(k, l2line, core_obj) < 0) {
        goto done;
    }
    if (is_write) {
        if (set_owner(k, dirent, core_obj) < 0) {
            goto done;
        }
    }
    else {
        PyObject *sharers;
        if (add_sharer(k, dirent, core_obj) < 0
            || (sharers = sharers_of(k, dirent)) == NULL
            || (PySet_GET_SIZE(sharers) == 1
                && set_owner(k, dirent, core_obj) < 0)) {
            goto done;
        }
    }
    if (!upgrade
        && (slot_bump(slice_, k->base.off_slice_lreads) < 0
            || home_energy_bump(&k->base, k->base.off_e_lreads) < 0)) {
        goto done;
    }
    if (upgrade) {
        PyObject *store, *t_obj;
        entry = home_l1_lookup(&k->base, core, line, line_obj);
        if (entry == NULL) {
            if (!PyErr_Occurred()) {
                char hex[32];
                PyErr_Format(k->base.simulation_error,
                             "upgrade for core %lld but no L1 copy of %s",
                             core, hex_line(hex, sizeof hex, line));
            }
            goto done;
        }
        Py_INCREF(entry);
        slot_put(entry, k->base.off_c_state, Py_NewRef(k->base.st_mod));
        if (home_l1_of(&k->base, core, &store) == NULL
            || (t_obj = PyFloat_FromDouble(reply_t)) == NULL) {
            goto done;
        }
        int bad = home_l1_use(&k->base, store, entry, t_obj) < 0;
        Py_DECREF(t_obj);
        if (bad || home_energy_bump(&k->base, k->base.off_e_l1d_writes) < 0
            || (k->base.verify
                && verified_write(k, core_obj, entry, line_obj, word) < 0)) {
            goto done;
        }
        rc = 0;
        goto done;
    }
    PyObject *state, *data = NULL;
    if (is_write) {
        state = k->base.st_mod;
    }
    else {
        if (slot_long(dirent, k->base.off_d_owner, &owner) < 0) {
            goto done;
        }
        state = owner == core ? k->base.st_excl : k->base.st_shared;
    }
    if ((k->base.verify
         && (data = slot_get(l2line, k->base.off_l2_data)) == NULL)
        || home_l1_fill(&k->base, core, line, line_obj, state, reply_t, data,
                        &ev_line, &ev_entry) < 0
        || home_energy_bump(&k->base, k->base.off_e_l1d_fills) < 0) {
        goto done;
    }
    if (ev_line != NULL
        && handle_l1_eviction(k, core, core_obj, ev_line, ev_entry,
                              reply_t) < 0) {
        goto done;
    }
    if (home_energy_bump(&k->base, is_write ? k->base.off_e_l1d_writes
                                            : k->base.off_e_l1d_reads) < 0) {
        goto done;
    }
    if (k->base.verify) {
        /* The entry as l1.lookup(line) finds it after the eviction. */
        PyObject *now_entry = home_l1_resident(&k->base, core, line, line_obj);
        if (now_entry == NULL
            || (is_write
                    ? verified_write(k, core_obj, now_entry, line_obj, word)
                    : home_golden_check(&k->base, now_entry, line_obj, word,
                                        "fill read", core))) {
            goto done;
        }
    }
    rc = 0;
done:
    Py_XDECREF(entry);
    Py_XDECREF(ev_line);
    Py_XDECREF(ev_entry);
    Py_DECREF(dirent);
    return rc;
}

static int
classify_requester(DirObject *k, PyObject *l1, PyObject *l2line,
                   long long core, PyObject *core_obj, long long line,
                   PyObject *line_obj, int is_write, int *remote,
                   int *upgrade)
{
    if (!k->hooks[HOOK_CLASSIFY]) {
        return base_classify_requester(k, l1, l2line, core, core_obj, line,
                                       line_obj, remote, upgrade);
    }
    PyObject *args[6] = {l1, l2line, core_obj, line_obj,
                         is_write ? Py_True : Py_False,
                         *upgrade ? Py_True : Py_False};
    PyObject *res = call_hook(k, HOOK_CLASSIFY, args, 6);
    if (res == NULL) {
        return -1;
    }
    if (!PyTuple_Check(res) || PyTuple_GET_SIZE(res) != 2) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_TypeError,
                        "_classify_requester must return a pair");
        return -1;
    }
    *remote = PyObject_IsTrue(PyTuple_GET_ITEM(res, 0));
    *upgrade = PyObject_IsTrue(PyTuple_GET_ITEM(res, 1));
    Py_DECREF(res);
    return *remote < 0 || *upgrade < 0 ? -1 : 0;
}

static int
grant_private(DirObject *k, long long core, PyObject *core_obj, int is_write,
              long long line, PyObject *line_obj, long long word,
              PyObject *l2line, PyObject *slice_, int upgrade, double reply_t)
{
    if (!k->hooks[HOOK_GRANT]) {
        return base_grant_private(k, core, core_obj, is_write, line, line_obj,
                                  word, l2line, slice_, upgrade, reply_t);
    }
    PyObject *word_obj = PyLong_FromLongLong(word);
    PyObject *t_obj = PyFloat_FromDouble(reply_t);
    PyObject *res = NULL;
    if (word_obj != NULL && t_obj != NULL) {
        PyObject *args[8] = {core_obj, is_write ? Py_True : Py_False,
                             line_obj, word_obj, l2line, slice_,
                             upgrade ? Py_True : Py_False, t_obj};
        res = call_hook(k, HOOK_GRANT, args, 8);
    }
    Py_XDECREF(word_obj);
    Py_XDECREF(t_obj);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

/* ------------------------------------------------------------------ */
/* The invalidation and write-back rounds                              */
/* ------------------------------------------------------------------ */

/* _invalidate_sharers: invalidate every sharer but `requester` (the
 * caller checked there is one); *lat is the L2-to-sharers latency. */
static int
invalidate_sharers(DirObject *k, long long line, PyObject *line_obj,
                   PyObject *l2line, PyObject *dirent, long long home,
                   long long requester, double t, double *lat)
{
    PyObject *sharers = sharers_of(k, dirent);
    if (sharers == NULL) {
        return -1;
    }
    /* The targets, in the iteration order of the set itself. */
    Py_ssize_t cap = PySet_GET_SIZE(sharers), n = 0;
    long long *targets = PyMem_Malloc((size_t)(cap + 1) * 2 * sizeof(long long));
    if (targets == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    double *arrivals = (double *)(targets + cap + 1);
    PyObject *arrival_map = NULL;
    int rc = -1;
    PyObject *it = PyObject_GetIter(sharers), *c;
    if (it == NULL) {
        goto done;
    }
    while ((c = PyIter_Next(it)) != NULL) {
        long long core;
        int bad = arg_long(c, &core);
        Py_DECREF(c);
        if (bad < 0) {
            Py_DECREF(it);
            goto done;
        }
        if (core != requester && n < cap) {
            targets[n++] = core;
        }
    }
    Py_DECREF(it);
    if (PyErr_Occurred()) {
        goto done;
    }
    int broadcast = 0;
    if (k->ackwise
        && (broadcast = slot_true(dirent, k->base.off_d_overflowed)) < 0) {
        goto done;
    }
    if (broadcast) {
        PyObject *home_obj = PyLong_FromLongLong(home);
        PyObject *t_obj = PyFloat_FromDouble(t);
        if (home_obj != NULL && t_obj != NULL) {
            arrival_map = PyObject_CallMethodObjArgs(
                k->network, str_broadcast, home_obj, k->inv_broadcast, t_obj,
                NULL);
        }
        Py_XDECREF(home_obj);
        Py_XDECREF(t_obj);
        if (arrival_map == NULL
            || slot_bump(k->policy, k->off_p_bcast) < 0) {
            goto done;
        }
    }
    else {
        /* All INVs depart together at t, reserved in target order. */
        for (Py_ssize_t i = 0; i < n; i++) {
            if (home_leg(&k->base, home, targets[i], K_MSG_INV_REQ, t,
                         &arrivals[i]) < 0) {
                goto done;
            }
        }
        if (slot_add(k->policy, k->off_p_unicast, n) < 0) {
            goto done;
        }
    }
    double done_t = t;
    for (Py_ssize_t i = 0; i < n; i++) {
        long long ack;
        double ack_t;
        PyObject *core_obj = PyLong_FromLongLong(targets[i]);
        if (core_obj == NULL) {
            goto done;
        }
        int bad = purge_target_copy(k, targets[i], core_obj, line, line_obj,
                                    l2line, 1, &ack);
        if (!bad && arrival_map != NULL) {
            PyObject *at = PyObject_GetItem(arrival_map, core_obj);
            bad = at == NULL || arg_double(at, &arrivals[i]) < 0;
            Py_XDECREF(at);
        }
        if (!bad) {
            bad = home_leg(&k->base, targets[i], home, ack, arrivals[i],
                           &ack_t) < 0
                  || remove_sharer(k, dirent, core_obj, targets[i]) < 0;
        }
        Py_DECREF(core_obj);
        if (bad) {
            goto done;
        }
        if (ack_t > done_t) {
            done_t = ack_t;
        }
    }
    *lat = done_t - t;
    rc = 0;
done:
    Py_XDECREF(arrival_map);
    PyMem_Free(targets);
    return rc;
}

/* sync_writeback: downgrade the exclusive owner; *lat as above. */
static int
sync_writeback(DirObject *k, long long line, PyObject *line_obj,
               PyObject *l2line, PyObject *dirent, long long home, double t,
               double *lat)
{
    long long owner;
    if (slot_long(dirent, k->base.off_d_owner, &owner) < 0) {
        return -1;
    }
    PyObject *entry = home_l1_lookup(&k->base, owner, line, line_obj);
    if (entry == NULL) {
        if (!PyErr_Occurred()) {
            char hex[32];
            PyErr_Format(k->coherence_error,
                         "owner %lld of line %s has no L1 copy", owner,
                         hex_line(hex, sizeof hex, line));
        }
        return -1;
    }
    PyObject *state = slot_get(entry, k->base.off_c_state);
    if (state == NULL) {
        return -1;
    }
    int dirty = state == k->base.st_mod;
    Py_INCREF(entry);
    int rc = -1;
    /* The WB_REQ, then the ack, departing at the request's arrival. */
    double t1, ack_t;
    if (home_leg(&k->base, home, owner, K_MSG_WB_REQ, t, &t1) < 0
        || home_leg(&k->base, owner, home,
                    dirty ? K_MSG_WB_DATA : K_MSG_INV_ACK, t1, &ack_t) < 0) {
        goto done;
    }
    if (dirty) {
        if (home_energy_bump(&k->base, k->off_e_l1d_line_reads) < 0
            || home_energy_bump(&k->base, k->base.off_e_lwrites) < 0) {
            goto done;
        }
        slot_set_bool(l2line, k->base.off_dirty, 1);
        if (k->base.verify) {
            PyObject *data = slot_get(entry, k->base.off_c_data);
            if (data == NULL
                || slot_copy_list(l2line, k->base.off_l2_data, data) < 0) {
                goto done;
            }
        }
    }
    slot_put(entry, k->base.off_c_state, Py_NewRef(k->base.st_shared));
    if (slot_set_long(dirent, k->base.off_d_owner, -1) < 0) {
        goto done;
    }
    *lat = ack_t - t;
    rc = 0;
done:
    Py_DECREF(entry);
    return rc;
}

/* purge_copies: the inclusive L2 eviction of vline at home kills every
 * L1 copy; the data flows straight to memory with the dying line. */
static int
purge_copies(HomeObject *h, long long home, PyObject *vline_obj,
             PyObject *ventry, double t)
{
    DirObject *k = (DirObject *)h;
    long long vline;
    PyObject *dirent = dirent_of(k, ventry);
    if (dirent == NULL || arg_long(vline_obj, &vline) < 0) {
        return -1;
    }
    PyObject *sharers = sharers_of(k, dirent);
    if (sharers == NULL) {
        return -1;
    }
    PyObject *cores = PySequence_List(sharers);
    if (cores == NULL) {
        return -1;
    }
    Py_INCREF(dirent);
    int rc = -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cores); i++) {
        PyObject *core_obj = PyList_GET_ITEM(cores, i);
        long long core, ack;
        double arrival;
        if (arg_long(core_obj, &core) < 0
            || home_leg(&k->base, home, core, K_MSG_INV_REQ, t, &arrival) < 0
            || purge_target_copy(k, core, core_obj, vline, vline_obj, ventry,
                                 0, &ack) < 0
            || home_leg(&k->base, core, home, ack, t, &arrival) < 0
            || remove_sharer(k, dirent, core_obj, core) < 0) {
            goto done;
        }
    }
    rc = 0;
done:
    Py_DECREF(dirent);
    Py_DECREF(cores);
    return rc;
}

/* ------------------------------------------------------------------ */
/* One access                                                          */
/* ------------------------------------------------------------------ */

/* A miss, step for step in the order of PyDirectoryKernel.access. */
static PyObject *
service_miss(DirObject *k, PyObject *l1, PyObject *core_obj, long long core,
             int is_write, PyObject *line_obj, long long line, long long word,
             PyObject *now_obj, double now, int upgrade)
{
    PyObject *result = NULL, *slice_ = NULL, *l2line = NULL, *dirent = NULL;
    PyObject *out = NULL, *t_obj = NULL;
    double t = 0.0, reply_t = 0.0, sharers_lat = 0.0;
    long long home, flush;
    if (slot_bump(l1, k->base.off_l1_misses) < 0
        || home_energy_bump(&k->base, k->base.off_e_l1d_tag) < 0
        || (result = home_new_result(&k->base)) == NULL) {
        goto done;
    }
    long long req_msg = is_write ? (upgrade ? K_MSG_UPGRADE_REQ
                                            : K_MSG_WRITE_REQ)
                                 : K_MSG_READ_REQ;
    if (home_place(&k->base, line, 0, 0, core_obj, core, &home, &flush) < 0
        || home_check_tile(&k->base, home) < 0) {
        goto done;
    }
    PyObject *s;
    l2line = home_deliver(&k->base, core, line_obj, line, home, flush, req_msg,
                          now_obj, now, result, &s, &t);
    if (l2line == NULL) {
        goto done;
    }
    slice_ = Py_NewRef(s);
    if (home_energy_bump(&k->base, k->off_e_dir_lookups) < 0) {
        goto done;
    }
    int remote;
    if (classify_requester(k, l1, l2line, core, core_obj, line, line_obj,
                           is_write, &remote, &upgrade) < 0) {
        goto done;
    }
    long long reply_msg;
    if (is_write && (remote || upgrade)) {
        reply_msg = K_MSG_WORD_WRITE_ACK;
    }
    else {
        reply_msg = remote ? K_MSG_WORD_REPLY : K_MSG_LINE_REPLY;
    }

    /* Miss classification uses the pre-service history (Section 4.4). */
    long long flags;
    PyObject *hist = home_history(&k->base, core, line_obj, &flags);
    if (hist == NULL) {
        goto done;
    }
    int miss = home_classify_miss(flags, upgrade, remote);
    slot_put(result, k->base.off_r_miss_type, Py_NewRef(k->base.miss[miss]));
    slot_set_bool(result, k->base.off_r_remote, remote);
    if (home_miss_record(&k->base, miss) < 0) {
        goto done;
    }

    /* Coherence actions at the home. */
    if ((dirent = dirent_of(k, l2line)) == NULL) {
        goto done;
    }
    Py_INCREF(dirent);
    if (is_write) {
        PyObject *sharers = sharers_of(k, dirent);
        if (sharers == NULL) {
            goto done;
        }
        Py_ssize_t n = PySet_GET_SIZE(sharers);
        int round = n > 0;
        if (n == 1) {
            int mine = PySet_Contains(sharers, core_obj);
            if (mine < 0) {
                goto done;
            }
            round = !mine;
        }
        if (round) {
            if (invalidate_sharers(k, line, line_obj, l2line, dirent, home,
                                   core, t, &sharers_lat) < 0) {
                goto done;
            }
            t += sharers_lat;
            if (slot_set_double(result, k->base.off_r_sharers,
                                sharers_lat) < 0) {
                goto done;
            }
        }
        if (k->classifier != NULL && on_write(k, l2line, core) < 0) {
            goto done;
        }
    }
    else {
        long long owner;
        if (slot_long(dirent, k->base.off_d_owner, &owner) < 0) {
            goto done;
        }
        if (owner >= 0 && owner != core) {
            if (sync_writeback(k, line, line_obj, l2line, dirent, home, t,
                               &sharers_lat) < 0) {
                goto done;
            }
            t += sharers_lat;
            if (slot_set_double(result, k->base.off_r_sharers,
                                sharers_lat) < 0) {
                goto done;
            }
        }
    }

    /* Service: the reply leg, then a word access at the home or a private
     * line grant. */
    if (home_leg(&k->base, home, core, reply_msg, t, &reply_t) < 0) {
        goto done;
    }
    if (remote) {
        if (home_serve_word(&k->base, core_obj, is_write, line_obj, word,
                            NULL, l2line, slice_) < 0) {
            goto done;
        }
        flags |= K_EVER_REMOTE;
    }
    else {
        if (grant_private(k, core, core_obj, is_write, line, line_obj, word,
                          l2line, slice_, upgrade, reply_t) < 0) {
            goto done;
        }
        flags |= K_EVER_CACHED;
    }
    PyObject *flags_obj = PyLong_FromLongLong(flags);
    if (flags_obj == NULL) {
        goto done;
    }
    int bad = PyDict_SetItem(hist, line_obj, flags_obj);
    Py_DECREF(flags_obj);
    if (bad < 0) {
        goto done;
    }

    /* Settle: writes and line grants own the line until t; remote word
     * reads occupy it for a cycle. */
    if ((t_obj = PyFloat_FromDouble(t)) == NULL
        || home_settle(&k->base, slice_, l2line, t_obj,
                       is_write || !remote) < 0
        || home_energy_bump(&k->base, k->off_e_dir_updates) < 0) {
        goto done;
    }

    if (home_finish_result(&k->base, result, now, reply_t, sharers_lat) < 0) {
        goto done;
    }
    if (k->base.verify) {
        /* check_invariants: an owner is the only sharer. */
        long long owner;
        PyObject *sharers = sharers_of(k, dirent);
        if (sharers == NULL
            || slot_long(dirent, k->base.off_d_owner, &owner) < 0) {
            goto done;
        }
        if (owner >= 0) {
            PyObject *owner_obj = PyLong_FromLongLong(owner);
            int only = owner_obj == NULL ? -1
                       : PySet_GET_SIZE(sharers) != 1 ? 0
                       : PySet_Contains(sharers, owner_obj);
            Py_XDECREF(owner_obj);
            if (only < 0) {
                goto done;
            }
            if (!only) {
                PyObject *res = PyObject_CallMethodNoArgs(dirent,
                                                          str_check_invariants);
                if (res == NULL) {
                    goto done;
                }
                Py_DECREF(res);
            }
        }
    }
    out = Py_NewRef(result);
done:
    Py_XDECREF(t_obj);
    Py_XDECREF(dirent);
    Py_XDECREF(l2line);
    Py_XDECREF(slice_);
    Py_XDECREF(result);
    return out;
}

/* True when a CacheLine state allows a silent write (>= EXCLUSIVE). */
static int
writable(DirObject *k, PyObject *state)
{
    if (state == k->base.st_excl || state == k->base.st_mod) {
        return 1;
    }
    if (state == k->base.st_shared) {
        return 0;
    }
    return PyObject_RichCompareBool(state, k->base.st_excl, Py_GE);
}

static PyObject *
dir_access(DirObject *k, PyObject *const *args)
{
    long long core, line, word;
    int is_write;
    double now;
    PyObject *store, *l1;
    if (home_access_args(&k->base, args, &core, &is_write, &line, &word,
                         &now) < 0
        || (l1 = home_l1_of(&k->base, core, &store)) == NULL) {
        return NULL;
    }
    PyObject *core_obj = args[0], *now_obj = args[3];
    PyObject *line_obj = PyLong_FromLongLong(line);
    if (line_obj == NULL) {
        return NULL;
    }
    PyObject *out = NULL;
    PyObject *entry = home_l1_lookup(&k->base, core, line, line_obj);
    if (entry == NULL && PyErr_Occurred()) {
        goto done;
    }
    int hit = 0;
    if (entry != NULL) {
        PyObject *state = slot_get(entry, k->base.off_c_state);
        if (state == NULL || (hit = is_write ? writable(k, state) : 1) < 0) {
            goto done;
        }
    }
    if (!hit) {
        out = service_miss(k, l1, core_obj, core, is_write, line_obj, line,
                           word, now_obj, now, entry != NULL);
        goto done;
    }
    /* L1 hit (E -> M is silent): L1Cache.hit, then the counters. */
    Py_INCREF(entry);
    int bad = home_l1_hit(&k->base, l1, store, entry, now_obj) < 0;
    if (!bad && is_write) {
        slot_put(entry, k->base.off_c_state, Py_NewRef(k->base.st_mod));
        bad = home_energy_bump(&k->base, k->base.off_e_l1d_writes) < 0
              || (k->base.verify
                  && verified_write(k, core_obj, entry, line_obj, word) < 0);
    }
    else if (!bad) {
        bad = home_energy_bump(&k->base, k->base.off_e_l1d_reads) < 0
              || (k->base.verify
                  && home_golden_check(&k->base, entry, line_obj, word,
                                       "L1 hit", core) < 0);
    }
    Py_DECREF(entry);
    if (!bad) {
        out = Py_NewRef(k->base.hit_result);
    }
done:
    Py_DECREF(line_obj);
    return out;
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

#define METHOD(name, n, sig) KERNEL_METHOD(DirObject, Dir, name, n, sig)

METHOD(access, 4, "access(core, is_write, address, now)")
{
    return dir_access(k, args);
}

METHOD(classify_requester, 6,
       "classify_requester(l1, l2line, core, line, is_write, upgrade)")
{
    long long core, line;
    int is_write = PyObject_IsTrue(args[4]), upgrade = PyObject_IsTrue(args[5]);
    int remote;
    if (is_write < 0 || upgrade < 0 || arg_long(args[2], &core) < 0
        || arg_index(args[3], &line) < 0
        || home_check_tile(&k->base, core) < 0) {
        return NULL;
    }
    if (base_classify_requester(k, args[0], args[1], core, args[2], line,
                                args[3], &remote, &upgrade) < 0) {
        return NULL;
    }
    return PyTuple_Pack(2, remote ? Py_True : Py_False,
                        upgrade ? Py_True : Py_False);
}

METHOD(grant_private, 8,
       "grant_private(core, is_write, line, word, l2line, slice_, upgrade, "
       "reply_t)")
{
    long long core, line, word;
    double reply_t;
    int is_write = PyObject_IsTrue(args[1]), upgrade = PyObject_IsTrue(args[6]);
    if (is_write < 0 || upgrade < 0 || arg_long(args[0], &core) < 0
        || arg_long(args[2], &line) < 0 || arg_long(args[3], &word) < 0
        || arg_double(args[7], &reply_t) < 0
        || home_check_tile(&k->base, core) < 0) {
        return NULL;
    }
    if (base_grant_private(k, core, args[0], is_write, line, args[2], word,
                           args[4], args[5], upgrade, reply_t) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(handle_l1_eviction, 4, "handle_l1_eviction(core, vline, ventry, t)")
{
    long long core;
    double t;
    if (arg_long(args[0], &core) < 0 || arg_double(args[3], &t) < 0
        || home_check_tile(&k->base, core) < 0) {
        return NULL;
    }
    if (base_handle_l1_eviction(k, core, args[0], args[1], args[2], t) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(purge_target_copy, 4,
       "purge_target_copy(core, line, l2line, merge_into_l2)")
{
    long long core, line, ack;
    int merge = PyObject_IsTrue(args[3]);
    if (merge < 0 || arg_long(args[0], &core) < 0
        || arg_index(args[1], &line) < 0
        || home_check_tile(&k->base, core) < 0
        || check_type(args[2], k->base.line_type, "L2Line") < 0) {
        return NULL;
    }
    if (base_purge_target_copy(k, core, args[0], line, args[1], args[2],
                               merge, &ack) < 0) {
        return NULL;
    }
    return PyLong_FromLongLong(ack);
}

METHOD(remove_own_copy, 3, "remove_own_copy(core, line, l2line)")
{
    long long core, line;
    if (arg_long(args[0], &core) < 0 || arg_index(args[1], &line) < 0
        || home_check_tile(&k->base, core) < 0
        || check_type(args[2], k->base.line_type, "L2Line") < 0
        || remove_own_copy(k, core, args[0], line, args[1], args[2]) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

METHOD(purge_copies, 4, "purge_copies(home, vline, ventry, t)")
{
    long long home;
    double t;
    if (arg_long(args[0], &home) < 0 || arg_double(args[3], &t) < 0
        || home_check_tile(&k->base, home) < 0
        || purge_copies(&k->base, home, args[1], args[2], t) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Construction and GC                                                 */
/* ------------------------------------------------------------------ */

static int
attr_true(PyObject *obj, const char *name, int *out)
{
    PyObject *v = repro_getattr(obj, name);
    if (v == NULL) {
        return -1;
    }
    *out = PyObject_IsTrue(v);
    Py_DECREF(v);
    return *out < 0 ? -1 : 0;
}

/* The classifier's configuration, read once. */
static int
init_classifier(DirObject *k, PyObject *classifier)
{
    PyObject *limited = imported("repro.coherence.classifier.limited",
                                 "LimitedClassifier");
    PyObject *complete = imported("repro.coherence.classifier.complete",
                                  "CompleteClassifier");
    int rc = -1;
    if (limited == NULL || complete == NULL) {
        goto done;
    }
    PyObject *type = (PyObject *)Py_TYPE(classifier);
    if (type == limited) {
        k->cls_kind = CLS_LIMITED;
        if (attr_long(classifier, "k", NULL, &k->limit_k) < 0) {
            goto done;
        }
        static const char *const names[] = {"replacements",
                                            "allocation_failures", NULL};
        Py_ssize_t *const outs[] = {&k->off_cl_replacements,
                                    &k->off_cl_failures};
        if (slot_offsets(type, names, outs) < 0) {
            goto done;
        }
    }
    else if (type == complete) {
        k->cls_kind = CLS_COMPLETE;
        PyObject *proto = repro_getattr(classifier, "proto");
        if (proto == NULL) {
            goto done;
        }
        int bad = attr_true(proto, "complete_vote_init", &k->vote_init);
        Py_DECREF(proto);
        if (bad < 0) {
            goto done;
        }
    }
    else {
        PyErr_Format(PyExc_TypeError,
                     "DirectoryKernel: unsupported classifier %s",
                     Py_TYPE(classifier)->tp_name);
        goto done;
    }
    static const char *const names[] = {"promotions", "demotions",
                                        "remote_accesses", "vote_decisions",
                                        NULL};
    Py_ssize_t *const outs[] = {&k->off_cl_promotions, &k->off_cl_demotions,
                                &k->off_cl_remote, &k->off_cl_votes};
    PyObject *levels = NULL, *seq = NULL;
    if (slot_offsets(type, names, outs) < 0
        || attr_long(classifier, "pct", NULL, &k->pct) < 0
        || attr_true(classifier, "one_way", &k->one_way) < 0
        || attr_true(classifier, "use_timestamp", &k->use_timestamp) < 0
        || attr_long(classifier, "_max_rat_level", NULL, &k->max_rat) < 0
        || (levels = repro_getattr(classifier, "_rat_levels")) == NULL
        || (seq = PySequence_Fast(levels, "_rat_levels")) == NULL) {
        Py_XDECREF(levels);
        goto done;
    }
    Py_DECREF(levels);
    k->n_rat = PySequence_Fast_GET_SIZE(seq);
    k->rat_levels = PyMem_Calloc((size_t)k->n_rat + 1, sizeof(long long));
    if (k->rat_levels == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < k->n_rat; i++) {
        if (arg_long(PySequence_Fast_GET_ITEM(seq, i), &k->rat_levels[i]) < 0) {
            Py_DECREF(seq);
            goto done;
        }
    }
    Py_DECREF(seq);
    k->classifier = Py_NewRef(classifier);
    rc = 0;
done:
    Py_XDECREF(limited);
    Py_XDECREF(complete);
    return rc;
}

/* The sharer policy: ACKwise (with its pointer count) or full map. */
static int
init_policy(DirObject *k, PyObject *policy)
{
    PyObject *ackwise = imported("repro.coherence.directory", "AckwisePolicy");
    PyObject *fullmap = imported("repro.coherence.directory", "FullMapPolicy");
    PyObject *base = imported("repro.coherence.directory",
                              "SharerTrackingPolicy");
    int rc = -1;
    if (ackwise == NULL || fullmap == NULL || base == NULL) {
        goto done;
    }
    PyObject *type = (PyObject *)Py_TYPE(policy);
    if (type == ackwise) {
        k->ackwise = 1;
        if (attr_long(policy, "pointers", NULL, &k->pointers) < 0) {
            goto done;
        }
    }
    else if (type != fullmap && type != base) {
        PyErr_Format(PyExc_TypeError,
                     "DirectoryKernel: unsupported sharer policy %s",
                     Py_TYPE(policy)->tp_name);
        goto done;
    }
    static const char *const names[] = {"broadcast_invalidations",
                                        "unicast_invalidations", NULL};
    Py_ssize_t *const outs[] = {&k->off_p_bcast, &k->off_p_unicast};
    if (slot_offsets(type, names, outs) < 0) {
        goto done;
    }
    k->policy = Py_NewRef(policy);
    rc = 0;
done:
    Py_XDECREF(ackwise);
    Py_XDECREF(fullmap);
    Py_XDECREF(base);
    return rc;
}

/* Enum members, the error class and the family hooks. */
static int
init_names(DirObject *k, PyObject *engine)
{
    PyObject *modes = imported("repro.common.types", "SharerMode");
    PyObject *msgs = imported("repro.network.messages", "MsgType");
    PyObject *hooks = imported("repro.protocol.directory", "FAMILY_HOOKS");
    int rc = -1;
    if (modes == NULL || msgs == NULL || hooks == NULL
        || (k->mode_private = repro_getattr(modes, "PRIVATE")) == NULL
        || (k->mode_remote = repro_getattr(modes, "REMOTE")) == NULL
        || (k->inv_broadcast = repro_getattr(msgs, "INV_BROADCAST")) == NULL
        || (k->coherence_error = imported("repro.common.errors",
                                          "CoherenceError")) == NULL) {
        goto done;
    }
    if (!PyTuple_Check(hooks) || PyTuple_GET_SIZE(hooks) != NUM_HOOKS) {
        PyErr_SetString(PyExc_TypeError,
                        "DirectoryKernel: unexpected hook names");
        goto done;
    }
    for (int i = 0; i < NUM_HOOKS; i++) {
        PyObject *name = PyTuple_GET_ITEM(hooks, i);
        if (PyUnicode_Compare(name, str_hook[i]) != 0) {
            if (!PyErr_Occurred()) {
                PyErr_SetString(PyExc_ValueError,
                                "DirectoryKernel: FAMILY_HOOKS out of order");
            }
            goto done;
        }
        k->hooks[i] = PyObject_HasAttr((PyObject *)Py_TYPE(engine), name);
    }
    rc = 0;
done:
    Py_XDECREF(modes);
    Py_XDECREF(msgs);
    Py_XDECREF(hooks);
    return rc;
}

static int
init_offsets(DirObject *k)
{
    HomeObject *h = &k->base;
    static const char *const dirent_names[] = {"sharers", "owner",
                                               "overflowed", NULL};
    Py_ssize_t *const dirent_outs[] = {&h->off_d_sharers, &h->off_d_owner,
                                       &h->off_d_overflowed};
    static const char *const loc_names[] = {
        "core", "mode", "remote_util", "rat_level", "active", NULL};
    Py_ssize_t *const loc_outs[] = {&k->off_lc_core, &k->off_lc_mode,
                                    &k->off_lc_util, &k->off_lc_rat,
                                    &k->off_lc_active};
    static const char *const energy_names[] = {
        "l1d_line_reads", "directory_lookups", "directory_updates", NULL};
    Py_ssize_t *const energy_outs[] = {&k->off_e_l1d_line_reads,
                                       &k->off_e_dir_lookups,
                                       &k->off_e_dir_updates};
    return slot_offsets(h->entry_type, dirent_names, dirent_outs) < 0
                   || slot_offsets(k->loc_type, loc_names, loc_outs) < 0
                   || slot_offsets(h->energy_type, energy_names,
                                   energy_outs) < 0
               ? -1
               : 0;
}

/* The directory part of a kernel whose home part HomeType's constructor
 * has set up on the same engine. */
static int
Dir_init_state(HomeObject *h, PyObject *engine)
{
    DirObject *k = (DirObject *)h;
    PyObject *classifier = NULL, *policy = NULL;
    int rc = -1;
    if ((policy = repro_getattr(engine, "sharer_policy")) == NULL
        || init_policy(k, policy) < 0
        || (k->network = repro_getattr(engine, "network")) == NULL
        || (classifier = repro_getattr(engine, "classifier")) == NULL
        || (classifier != Py_None && init_classifier(k, classifier) < 0)
        || init_names(k, engine) < 0
        || (h->entry_type = imported("repro.coherence.directory",
                                     "DirectoryEntry")) == NULL
        || (k->loc_type = imported("repro.coherence.classifier.base",
                                   "CoreLocality")) == NULL
        || init_offsets(k) < 0) {
        goto done;
    }
    h->purge = purge_copies;
    rc = 0;
done:
    Py_XDECREF(classifier);
    Py_XDECREF(policy);
    return rc;
}

static PyObject *
Dir_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return home_subtype_new(type, args, kwds, "repro.protocol.directory",
                            "DirectoryEngine", Dir_init_state);
}

#define DIR_OBJECTS(X)                                                      \
    X(network) X(classifier) X(policy) X(loc_type) X(mode_private)         \
    X(mode_remote) X(inv_broadcast) X(coherence_error)

static int
Dir_traverse(DirObject *k, visitproc visit, void *arg)
{
#define VISIT(name) Py_VISIT(k->name);
    DIR_OBJECTS(VISIT)
#undef VISIT
    return HomeType.tp_traverse((PyObject *)k, visit, arg);
}

/* The references this subtype adds to its home part. */
static void
dir_clear_own(DirObject *k)
{
#define CLEAR(name) Py_CLEAR(k->name);
    DIR_OBJECTS(CLEAR)
#undef CLEAR
}

static int
Dir_clear(DirObject *k)
{
    dir_clear_own(k);
    return HomeType.tp_clear((PyObject *)k);
}

static void
Dir_dealloc(DirObject *k)
{
    PyObject_GC_UnTrack(k);
    dir_clear_own(k);
    PyMem_Free(k->rat_levels);
    HomeType.tp_dealloc((PyObject *)k);
}

#define FASTCALL(name, doc) KERNEL_FASTCALL(Dir, name, doc)

static PyMethodDef Dir_methods[] = {
    FASTCALL(access, "access(core, is_write, address, now) -> AccessResult"),
    FASTCALL(classify_requester,
             "classify_requester(l1, l2line, core, line, is_write, upgrade) "
             "-> (serviced_remote, upgrade)"),
    FASTCALL(grant_private,
             "grant_private(core, is_write, line, word, l2line, slice_, "
             "upgrade, reply_t)"),
    FASTCALL(handle_l1_eviction, "handle_l1_eviction(core, vline, ventry, t)"),
    FASTCALL(purge_target_copy,
             "purge_target_copy(core, line, l2line, merge_into_l2) -> ack"),
    FASTCALL(remove_own_copy, "remove_own_copy(core, line, l2line)"),
    FASTCALL(purge_copies, "purge_copies(home, vline, ventry, t)"),
    {NULL, NULL, 0, NULL},
};

static PyTypeObject DirType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.DirectoryKernel",
    .tp_basicsize = sizeof(DirObject),
    .tp_dealloc = (destructor)Dir_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The kernel of a directory-family engine: every L1 miss",
    .tp_traverse = (traverseproc)Dir_traverse,
    .tp_clear = (inquiry)Dir_clear,
    .tp_methods = Dir_methods,
    .tp_base = &HomeType,
    .tp_new = Dir_new,
};

int
repro_directory_register(PyObject *mod)
{
    if (PyType_Ready(&DirType) < 0) {
        return -1;
    }
    struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&str_hook[HOOK_CLASSIFY], "_classify_requester"},
        {&str_hook[HOOK_GRANT], "_grant_private"},
        {&str_hook[HOOK_EVICT], "_handle_l1_eviction"},
        {&str_hook[HOOK_PURGE], "_purge_target_copy"},
        {&str_verified_l1_write, "_verified_l1_write"},
        {&str_check_invariants, "check_invariants"},
        {&str_broadcast, "broadcast"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if (*names[i].slot == NULL) {
            *names[i].slot = PyUnicode_InternFromString(names[i].name);
            if (*names[i].slot == NULL) {
                return -1;
            }
        }
    }
    return PyModule_AddObjectRef(mod, "DirectoryKernel", (PyObject *)&DirType);
}
