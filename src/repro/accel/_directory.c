/* Compiled directory kernel: every L1 miss of one directory-family engine.
 *
 * DirectoryKernel is the engine kernel of the directory families
 * (baseline, adaptive; DESIGN.md section 15): a subtype of HomeKernel
 * (_home.c) whose object starts with the home kernel's HomeObject
 * (_accel.h), so each engine builds exactly one kernel.  Its pure-Python
 * twin and reference, PyDirectoryKernel in repro/protocol/directory.py, is
 * a subclass of PyHomeKernel with the same constructor and methods; an
 * engine builds this one exactly when its mesh kernel is the compiled
 * MeshKernel.  The victim and phase families run its two subtypes below,
 * VictimKernel and PhaseKernel (twins PyVictimKernel in
 * repro/protocol/victim.py and PyPhaseKernel in repro/protocol/phase.py),
 * whose objects start with this one's DirObject.  The directory steps
 * take the home steps (home_place, home_deliver, home_leg,
 * home_serve_word, home_settle)
 * and the shared L1-side helpers (home_l1_*, the result, miss, history and
 * histogram steps) on the kernel itself, and the rounds' messages are
 * reserved through the same mesh kernel (home_leg).  Its L2 eviction
 * (the home kernel's evict_l2_line) purges the line's L1 copies first.
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
 * A family subtype takes over steps of the miss through the function
 * pointers on DirObject - the requester's classification, the private
 * grant, the L1 eviction notice and the purge of one target's copy - and,
 * for the L2 eviction, the HomeObject's `evict`.  DirectoryKernel's
 * constructor sets them to the base steps here, and a subtype's
 * constructor overrides them:
 *
 *   - VictimKernel (victim replication): a read miss on a line the local
 *     slice holds as a replica is served from it (its own access method);
 *     an L1 victim becomes a local replica, making room by dropping the
 *     LRU replica or evicting an idle home line (clean before dirty), or
 *     takes the base notice when its home is local or no way can be
 *     freed; a replica answers an invalidation like an L1 copy; the
 *     requester's own replica dies on a private grant; a replica chosen as
 *     an L2 victim is dropped.  The five replica counters are the
 *     engine's slots.
 *   - PhaseKernel (phase priority): the classification is the line's
 *     phase - lazy decay by release epochs, promotion on a cross-core
 *     read or a shared write, and word service while write-shared, with
 *     the fold-back of the requester's stale S copy.  The phases are the
 *     engine's {line: [phase, core, epoch]} dict, the epoch and the three
 *     counters its slots.
 *
 * It calls back into Python only for the verify-mode golden steps
 * (_verified_l1_write, GoldenMemory.check_read,
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
 *     last_use, as min(bucket, key=...) returns (home_lru); so are the
 *     replica and the idle home line that make room for a new replica;
 *   - every CoherenceError and SimulationError carries the Python
 *     step's message.
 */

#include "_accel.h"

#include <stdio.h>

/* Classifier storage organizations. */
enum { CLS_NONE, CLS_LIMITED, CLS_COMPLETE };

static PyObject *str_verified_l1_write;
static PyObject *str_check_invariants;
static PyObject *str_broadcast;

typedef struct DirObject DirObject;

struct DirObject {
    /* The home kernel this one extends: the engine, its L2, mesh, flit
     * table, the L1 side and the L2Line, DirectoryEntry and AccessResult
     * offsets. */
    HomeObject base;
    /* The steps a family subtype may take over: the base steps below,
     * unless the subtype's constructor overrides them. */
    int (*classify)(DirObject *k, PyObject *l1, PyObject *l2line,
                    long long core, PyObject *core_obj, long long line,
                    PyObject *line_obj, int is_write, int *remote,
                    int *upgrade);
    int (*grant)(DirObject *k, long long core, PyObject *core_obj,
                 int is_write, long long line, PyObject *line_obj,
                 long long word, PyObject *l2line, PyObject *slice_,
                 int upgrade, double reply_t);
    int (*l1_evict)(DirObject *k, long long core, PyObject *core_obj,
                    PyObject *vline_obj, PyObject *ventry, double t);
    int (*purge_target)(DirObject *k, long long core, PyObject *core_obj,
                        long long line, PyObject *line_obj,
                        PyObject *l2line, int merge, long long *ack);
    /* Strong references (GC-tracked). */
    PyObject *network;        /* MeshNetwork (broadcast) */
    PyObject *classifier;     /* LocalityClassifier, or NULL */
    PyObject *policy;         /* SharerTrackingPolicy */
    PyObject *loc_type;
    PyObject *mode_private, *mode_remote;
    PyObject *inv_broadcast;   /* MsgType.INV_BROADCAST */
    PyObject *coherence_error;
    /* Configuration (constant per engine). */
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
};

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
/* The base steps a family subtype may take over                       */
/* ------------------------------------------------------------------ */

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
                        PyObject *line_obj, int is_write, int *remote,
                        int *upgrade)
{
    (void)is_write;
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
        && k->l1_evict(k, core, core_obj, ev_line, ev_entry, reply_t) < 0) {
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
        int bad = k->purge_target(k, targets[i], core_obj, line, line_obj,
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

/* The purge of an L2 eviction: the inclusive eviction of vline at home
 * kills every L1 copy; the data flows straight to memory with the dying
 * line. */
static int
purge_copies(DirObject *k, long long home, PyObject *vline_obj,
             PyObject *ventry, double t)
{
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
            || k->purge_target(k, core, core_obj, vline, vline_obj, ventry, 0,
                               &ack) < 0
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

/* evict_l2_line: the purge of the line's L1 copies, then the home
 * kernel's eviction. */
static int
dir_evict(HomeObject *h, long long home, PyObject *home_obj,
          PyObject *vline_obj, PyObject *ventry, double t)
{
    if (purge_copies((DirObject *)h, home, vline_obj, ventry, t) < 0) {
        return -1;
    }
    return home_evict_l2_line(h, home, home_obj, vline_obj, ventry, t);
}

/* ------------------------------------------------------------------ */
/* One access                                                          */
/* ------------------------------------------------------------------ */

/* A miss, step for step in the order of PyDirectoryKernel.access. */
static PyObject *
service_miss(DirObject *k, PyObject *l1, PyObject *core_obj, long long core,
             int is_write, PyObject *line_obj, long long line, long long word,
             double now, int upgrade)
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
                          now, result, &s, &t);
    if (l2line == NULL) {
        goto done;
    }
    slice_ = Py_NewRef(s);
    if (home_energy_bump(&k->base, k->off_e_dir_lookups) < 0) {
        goto done;
    }
    int remote;
    if (k->classify(k, l1, l2line, core, core_obj, line, line_obj, is_write,
                    &remote, &upgrade) < 0) {
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
        if (k->grant(k, core, core_obj, is_write, line, line_obj, word,
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

/* The decoded arguments of access(core, is_write, address, now) and the
 * requester's L1 entry of the line (NULL on a miss without a copy). */
typedef struct {
    PyObject *core_obj, *now_obj;
    PyObject *line_obj;            /* new reference */
    PyObject *l1, *store, *entry;  /* borrowed */
    long long core, line, word;
    int is_write;
    double now;
} Access;

static int
access_args(DirObject *k, PyObject *const *args, Access *a)
{
    if (home_access_args(&k->base, args, &a->core, &a->is_write, &a->line,
                         &a->word, &a->now) < 0
        || (a->l1 = home_l1_of(&k->base, a->core, &a->store)) == NULL
        || (a->line_obj = PyLong_FromLongLong(a->line)) == NULL) {
        return -1;
    }
    a->core_obj = args[0];
    a->now_obj = args[3];
    a->entry = home_l1_lookup(&k->base, a->core, a->line, a->line_obj);
    if (a->entry == NULL && PyErr_Occurred()) {
        Py_CLEAR(a->line_obj);
        return -1;
    }
    return 0;
}

/* One access, step for step in the order of PyDirectoryKernel.access: the
 * L1 hit, else service_miss. */
static PyObject *
dir_serve(DirObject *k, Access *a)
{
    PyObject *entry = a->entry;
    int hit = 0;
    if (entry != NULL) {
        PyObject *state = slot_get(entry, k->base.off_c_state);
        if (state == NULL
            || (hit = a->is_write ? writable(k, state) : 1) < 0) {
            return NULL;
        }
    }
    if (!hit) {
        return service_miss(k, a->l1, a->core_obj, a->core, a->is_write,
                            a->line_obj, a->line, a->word, a->now,
                            entry != NULL);
    }
    /* L1 hit (E -> M is silent): L1Cache.hit, then the counters. */
    Py_INCREF(entry);
    int bad = home_l1_hit(&k->base, a->l1, a->store, entry, a->now_obj) < 0;
    if (!bad && a->is_write) {
        slot_put(entry, k->base.off_c_state, Py_NewRef(k->base.st_mod));
        bad = home_energy_bump(&k->base, k->base.off_e_l1d_writes) < 0
              || (k->base.verify
                  && verified_write(k, a->core_obj, entry, a->line_obj,
                                    a->word) < 0);
    }
    else if (!bad) {
        bad = home_energy_bump(&k->base, k->base.off_e_l1d_reads) < 0
              || (k->base.verify
                  && home_golden_check(&k->base, entry, a->line_obj, a->word,
                                       "L1 hit", a->core) < 0);
    }
    Py_DECREF(entry);
    return bad ? NULL : Py_NewRef(k->base.hit_result);
}

/* ------------------------------------------------------------------ */
/* Victim replication: VictimKernel's steps                            */
/* ------------------------------------------------------------------ */

typedef struct {
    DirObject dir;
    /* VictimReplicationEngine __slots__ offsets of the replica counters. */
    Py_ssize_t off_created, off_hits, off_invals, off_evictions;
    Py_ssize_t off_failures;
} VictimObject;

static int
victim_bump(VictimObject *v, Py_ssize_t off)
{
    return slot_bump(v->dir.base.engine, off);
}

/* The entry is a replica (1), a home line (0), or -1 on an error. */
static int
is_replica(HomeObject *h, PyObject *l2line)
{
    return slot_true(l2line, h->off_replica);
}

/* *replica = the replica of line in core's slice (borrowed), or NULL when
 * the slice holds no entry of the line or holds it as a home line. */
static int
local_replica(HomeObject *h, long long core, long long line,
              PyObject *line_obj, PyObject **replica)
{
    PyObject *entry = home_lookup(h, core, line, line_obj);
    int r = entry == NULL ? (PyErr_Occurred() ? -1 : 0)
                          : is_replica(h, entry);
    *replica = r > 0 ? entry : NULL;
    return r < 0 ? -1 : 0;
}

/* _drop_replica: discard core's replica of line, releasing its sharer
 * slot at the home. */
static int
drop_replica(VictimObject *v, long long core, PyObject *core_obj,
             PyObject *line_obj, double t)
{
    DirObject *k = &v->dir;
    HomeObject *h = &k->base;
    long long line, home;
    char hex[32];
    if (arg_long(line_obj, &line) < 0) {
        return -1;
    }
    PyObject *home_obj = PyDict_GetItemWithError(h->home_of_line, line_obj);
    if (home_obj == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(k->coherence_error,
                         "replica of line %s with unknown home",
                         hex_line(hex, sizeof hex, line));
        }
        return -1;
    }
    if (arg_long(home_obj, &home) < 0
        || home_l2_remove(h, core, line, line_obj) < 0) {
        return -1;
    }
    double arrival;
    if (home_leg(h, core, home, K_MSG_EVICT_NOTIFY, t, &arrival) < 0) {
        return -1;
    }
    PyObject *homeline = home_lookup(h, home, line, line_obj);
    if (homeline == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(k->coherence_error,
                         "replica of %s outlived its home line",
                         hex_line(hex, sizeof hex, line));
        }
        return -1;
    }
    PyObject *dirent = dirent_of(k, homeline);
    if (dirent == NULL || remove_sharer(k, dirent, core_obj, core) < 0
        || home_energy_bump(h, k->off_e_dir_updates) < 0
        || victim_bump(v, v->off_evictions) < 0) {
        return -1;
    }
    return 0;
}

/* _make_room_for_replica: *room when core's slice has a way for a replica
 * of vline - a free way, else the LRU replica's (dropped), else the LRU
 * idle home line's, clean before dirty (evicted).  A home line with
 * sharers is never displaced. */
static int
make_room(VictimObject *v, long long core, PyObject *core_obj,
          long long vline, double t, int *room)
{
    HomeObject *h = &v->dir.base;
    PyObject *store;
    PyObject *bucket = home_l2_bucket(h, core, vline, &store);
    *room = 1;
    if (bucket == NULL) {
        return -1;
    }
    if (PyDict_GET_SIZE(bucket) < h->assoc) {
        return 0;
    }
    /* The replicas first; only without one are the home lines read. */
    Py_ssize_t pos = 0;
    PyObject *key, *entry, *chosen = NULL, *clean = NULL, *any = NULL;
    long long use, best = 0, best_clean = 0, best_any = 0;
    while (PyDict_Next(bucket, &pos, &key, &entry)) {
        int r;
        if (check_type(entry, h->line_type, "L2Line") < 0
            || (r = is_replica(h, entry)) < 0) {
            return -1;
        }
        if (r) {
            if (slot_long(entry, h->off_last_use, &use) < 0) {
                return -1;
            }
            if (chosen == NULL || use < best) {
                chosen = key;
                best = use;
            }
        }
    }
    if (chosen != NULL) {
        Py_INCREF(chosen);
        int rc = drop_replica(v, core, core_obj, chosen, t);
        Py_DECREF(chosen);
        return rc;
    }
    pos = 0;
    PyObject *clean_entry = NULL, *any_entry = NULL;
    while (PyDict_Next(bucket, &pos, &key, &entry)) {
        PyObject *dirent, *sharers;
        int dirty;
        if ((dirent = dirent_of(&v->dir, entry)) == NULL
            || (sharers = sharers_of(&v->dir, dirent)) == NULL) {
            return -1;
        }
        if (PySet_GET_SIZE(sharers) != 0) {
            continue;
        }
        if ((dirty = slot_true(entry, h->off_dirty)) < 0
            || slot_long(entry, h->off_last_use, &use) < 0) {
            return -1;
        }
        if (any == NULL || use < best_any) {
            any = key;
            any_entry = entry;
            best_any = use;
        }
        if (!dirty && (clean == NULL || use < best_clean)) {
            clean = key;
            clean_entry = entry;
            best_clean = use;
        }
    }
    if (any == NULL) {
        *room = 0;
        return 0;
    }
    if (clean != NULL) {
        any = clean;
        any_entry = clean_entry;
    }
    long long line;
    if (arg_long(any, &line) < 0) {
        return -1;
    }
    Py_INCREF(any);
    Py_INCREF(any_entry);
    int rc = h->evict(h, core, core_obj, any, any_entry, t);
    Py_DECREF(any_entry);
    if (rc == 0) {
        rc = home_l2_remove(h, core, line, any);
    }
    Py_DECREF(any);
    return rc;
}

/* _handle_l1_eviction: keep the victim as a local replica, or take the
 * base notice when its home is local or no way can be freed. */
static int
victim_l1_evict(DirObject *k, long long core, PyObject *core_obj,
                PyObject *vline_obj, PyObject *ventry, double t)
{
    VictimObject *v = (VictimObject *)k;
    HomeObject *h = &k->base;
    long long vline, vhome, util;
    char hex[32];
    if (arg_long(vline_obj, &vline) < 0) {
        return -1;
    }
    PyObject *vhome_obj = PyDict_GetItemWithError(h->home_of_line, vline_obj);
    if (vhome_obj == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(k->coherence_error,
                         "evicting line %s with unknown home",
                         hex_line(hex, sizeof hex, vline));
        }
        return -1;
    }
    if (arg_long(vhome_obj, &vhome) < 0) {
        return -1;
    }
    if (vhome == core) {
        /* The home slice is local: a replica would duplicate it. */
        return base_handle_l1_eviction(k, core, core_obj, vline_obj, ventry,
                                       t);
    }
    int room;
    if (make_room(v, core, core_obj, vline, t, &room) < 0) {
        return -1;
    }
    if (!room) {
        return victim_bump(v, v->off_failures) < 0
                   ? -1
                   : base_handle_l1_eviction(k, core, core_obj, vline_obj,
                                             ventry, t);
    }
    PyObject *state;
    if (check_type(ventry, h->cline_type, "CacheLine") < 0
        || slot_long(ventry, h->off_c_util, &util) < 0
        || home_hist_record(h, h->off_evict_hist, util) < 0
        || home_history_update(h, core, vline_obj, K_EVER_CACHED,
                               K_LAST_REMOVAL_INVAL) < 0) {
        return -1;
    }
    PyObject *vl2 = home_lookup(h, vhome, vline, vline_obj);
    if (vl2 == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(k->coherence_error,
                         "inclusion violation: L1 evicts %s absent from L2",
                         hex_line(hex, sizeof hex, vline));
        }
        return -1;
    }
    Py_INCREF(vl2);
    PyObject *replica = NULL, *data = NULL, *ev_line = NULL, *ev_entry = NULL;
    int rc = -1;
    if ((state = slot_get(ventry, h->off_c_state)) == NULL) {
        goto done;
    }
    if (state == h->st_mod || state == h->st_excl) {
        /* A dirty victim writes its data home (the replica stays clean);
         * either way the home loses its exclusive owner, which stays a
         * sharer.  A SHARED victim replicates silently. */
        int dirty = state == h->st_mod;
        double arrival;
        PyObject *dirent;
        if (home_leg(h, core, vhome,
                     dirty ? K_MSG_EVICT_DIRTY : K_MSG_EVICT_NOTIFY, t,
                     &arrival) < 0) {
            goto done;
        }
        if (dirty) {
            if (home_energy_bump(h, k->off_e_l1d_line_reads) < 0
                || home_energy_bump(h, h->off_e_lwrites) < 0) {
                goto done;
            }
            slot_set_bool(vl2, h->off_dirty, 1);
            if (h->verify) {
                PyObject *vdata = slot_get(ventry, h->off_c_data);
                if (vdata == NULL
                    || slot_copy_list(vl2, h->off_l2_data, vdata) < 0) {
                    goto done;
                }
            }
        }
        if ((dirent = dirent_of(k, vl2)) == NULL
            || slot_set_long(dirent, h->off_d_owner, -1) < 0) {
            goto done;
        }
    }
    data = Py_NewRef(Py_None);
    if (h->verify) {
        PyObject *vdata = slot_get(ventry, h->off_c_data);
        if (vdata == NULL) {
            goto done;
        }
        if (vdata != Py_None) {
            Py_SETREF(data, PySequence_List(vdata));
            if (data == NULL) {
                goto done;
            }
        }
    }
    PyObject *store, *bucket;
    if ((replica = home_new_l2line(h, t, data)) == NULL
        || (bucket = home_l2_bucket(h, core, vline, &store)) == NULL) {
        goto done;
    }
    slot_set_bool(replica, h->off_replica, 1);
    if (home_store_insert(h, store, bucket, h->assoc, h->line_type, "L2Line",
                          h->off_last_use, vline_obj, replica, &ev_line,
                          &ev_entry) < 0) {
        goto done;
    }
    if (ev_line != NULL) {  /* cannot happen: room was made above */
        PyErr_SetString(k->coherence_error,
                        "replica insert displaced a line after making room");
        goto done;
    }
    if (home_energy_bump(h, h->off_e_lwrites) < 0
        || victim_bump(v, v->off_created) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(ev_line);
    Py_XDECREF(ev_entry);
    Py_XDECREF(replica);
    Py_XDECREF(data);
    Py_DECREF(vl2);
    return rc;
}

/* _purge_target_copy: a replica answers an invalidation like an L1 copy,
 * with a plain ack (replicas are clean). */
static int
victim_purge_target(DirObject *k, long long core, PyObject *core_obj,
                    long long line, PyObject *line_obj, PyObject *l2line,
                    int merge, long long *ack)
{
    HomeObject *h = &k->base;
    PyObject *l1entry = home_l1_lookup(h, core, line, line_obj);
    if (l1entry != NULL) {
        return base_purge_target_copy(k, core, core_obj, line, line_obj,
                                      l2line, merge, ack);
    }
    if (PyErr_Occurred()) {
        return -1;
    }
    PyObject *replica;
    if (local_replica(h, core, line, line_obj, &replica) < 0) {
        return -1;
    }
    if (replica == NULL) {
        char hex[32];
        PyErr_Format(k->coherence_error,
                     "directory lists core %lld for line %s but it holds "
                     "neither an L1 copy nor a replica",
                     core, hex_line(hex, sizeof hex, line));
        return -1;
    }
    if (home_l2_remove(h, core, line, line_obj) < 0
        || victim_bump((VictimObject *)k, ((VictimObject *)k)->off_invals) < 0
        || home_history_update(h, core, line_obj, K_LAST_REMOVAL_INVAL,
                               0) < 0) {
        return -1;
    }
    *ack = K_MSG_INV_ACK;
    return 0;
}

/* _grant_private: the requester's own replica dies, then the base grant. */
static int
victim_grant(DirObject *k, long long core, PyObject *core_obj, int is_write,
             long long line, PyObject *line_obj, long long word,
             PyObject *l2line, PyObject *slice_, int upgrade, double reply_t)
{
    HomeObject *h = &k->base;
    PyObject *own;
    if (local_replica(h, core, line, line_obj, &own) < 0
        || (own != NULL
            && (home_l2_remove(h, core, line, line_obj) < 0
                || victim_bump((VictimObject *)k,
                               ((VictimObject *)k)->off_evictions) < 0))) {
        return -1;
    }
    return base_grant_private(k, core, core_obj, is_write, line, line_obj,
                              word, l2line, slice_, upgrade, reply_t);
}

/* evict_l2_line: a replica chosen as an L2 victim is dropped; a home
 * line takes the directory kernel's eviction. */
static int
victim_evict(HomeObject *h, long long home, PyObject *home_obj,
             PyObject *vline_obj, PyObject *ventry, double t)
{
    int r = is_replica(h, ventry);
    if (r < 0) {
        return -1;
    }
    if (r) {
        return drop_replica((VictimObject *)h, home, home_obj, vline_obj, t);
    }
    return dir_evict(h, home, home_obj, vline_obj, ventry, t);
}

/* A read miss served by the local replica, in the order of
 * PyVictimKernel._replica_hit: no network traffic; the replica moves
 * back into the L1. */
static PyObject *
replica_hit(VictimObject *v, Access *a, PyObject *replica)
{
    DirObject *k = &v->dir;
    HomeObject *h = &k->base;
    PyObject *local = PyList_GET_ITEM(h->l2, (Py_ssize_t)a->core);
    PyObject *result = NULL, *out = NULL, *t_obj = NULL, *data = NULL;
    PyObject *ev_line = NULL, *ev_entry = NULL, *store, *hist;
    double t = a->now + h->l2_latency;
    long long flags;
    Py_INCREF(replica);
    if (victim_bump(v, v->off_hits) < 0
        || slot_bump(local, h->off_slice_hits) < 0
        || slot_bump(local, h->off_slice_lreads) < 0
        || home_energy_bump(h, h->off_e_tag) < 0
        || home_energy_bump(h, h->off_e_lreads) < 0
        || (t_obj = PyFloat_FromDouble(t)) == NULL
        || (store = slot_get(local, h->off_slice_store)) == NULL
        || home_touch(h, store, replica, h->off_last_use) < 0) {
        goto done;
    }
    slot_put(replica, h->off_last_access, Py_NewRef(t_obj));
    if ((result = home_new_result(h)) == NULL
        || (hist = home_history(h, a->core, a->line_obj, &flags)) == NULL) {
        goto done;
    }
    int miss = home_classify_miss(flags, 0, 0);
    slot_put(result, h->off_r_miss_type, Py_NewRef(h->miss[miss]));
    PyObject *flags_obj;
    if (home_miss_record(h, miss) < 0
        || (flags_obj = PyLong_FromLongLong(flags | K_EVER_CACHED)) == NULL) {
        goto done;
    }
    int bad = PyDict_SetItem(hist, a->line_obj, flags_obj);
    Py_DECREF(flags_obj);
    if (bad < 0) {
        goto done;
    }
    if (h->verify) {
        PyObject *rdata = slot_get(replica, h->off_l2_data);
        if (rdata == NULL) {
            goto done;
        }
        data = rdata == Py_None ? NULL : Py_NewRef(rdata);
    }
    if (home_l2_remove(h, a->core, a->line, a->line_obj) < 0
        || home_l1_fill(h, a->core, a->line, a->line_obj, h->st_shared, t,
                        data, &ev_line, &ev_entry) < 0
        || home_energy_bump(h, h->off_e_l1d_fills) < 0
        || (ev_line != NULL
            && k->l1_evict(k, a->core, a->core_obj, ev_line, ev_entry, t) < 0)
        || home_energy_bump(h, h->off_e_l1d_reads) < 0) {
        goto done;
    }
    if (h->verify) {
        PyObject *now_entry = home_l1_resident(h, a->core, a->line,
                                               a->line_obj);
        if (now_entry == NULL
            || home_golden_check(h, now_entry, a->line_obj, a->word,
                                 "replica hit", a->core) < 0) {
            goto done;
        }
    }
    if (home_finish_result(h, result, a->now, t, 0.0) < 0) {
        goto done;
    }
    out = Py_NewRef(result);
done:
    Py_XDECREF(ev_line);
    Py_XDECREF(ev_entry);
    Py_XDECREF(data);
    Py_XDECREF(t_obj);
    Py_XDECREF(result);
    Py_DECREF(replica);
    return out;
}

/* ------------------------------------------------------------------ */
/* Phase priority: PhaseKernel's classification                        */
/* ------------------------------------------------------------------ */

/* Line phases, ordered so decay is a subtraction (repro.protocol.phase). */
enum { PHASE_PRIVATE, PHASE_READ_SHARED, PHASE_WRITE_SHARED };

typedef struct {
    DirObject dir;
    /* engine._line_phase: {line: [phase, core, epoch]} */
    PyObject *line_phase;
    /* PhaseEngine __slots__ offsets. */
    Py_ssize_t off_epoch, off_promotions, off_demotions, off_word_accesses;
} PhaseObject;

/* info[i] = value (a new reference, consumed; NULL fails). */
static int
phase_put(PyObject *info, Py_ssize_t i, PyObject *value)
{
    return value == NULL ? -1 : PyList_SetItem(info, i, value);
}

/* The phase policy: decay, then promote, the line's phase for this miss;
 * service at the home exactly while it is write-shared, folding back the
 * requester's stale S copy first. */
static int
phase_classify(DirObject *k, PyObject *l1, PyObject *l2line, long long core,
               PyObject *core_obj, long long line, PyObject *line_obj,
               int is_write, int *remote, int *upgrade)
{
    PhaseObject *p = (PhaseObject *)k;
    PyObject *engine = k->base.engine;
    long long epoch, phase, last, changed;
    (void)l1;
    *remote = 0;
    PyObject *info = PyDict_GetItemWithError(p->line_phase, line_obj);
    if (info == NULL && PyErr_Occurred()) {
        return -1;
    }
    PyObject *epoch_obj = slot_get(engine, p->off_epoch);
    if (epoch_obj == NULL || arg_long(epoch_obj, &epoch) < 0) {
        return -1;
    }
    if (info == NULL) {
        info = PyList_New(3);
        if (info == NULL) {
            return -1;
        }
        PyList_SET_ITEM(info, 0, PyLong_FromLong(PHASE_PRIVATE));
        PyList_SET_ITEM(info, 1, Py_NewRef(core_obj));
        PyList_SET_ITEM(info, 2, Py_NewRef(epoch_obj));
        int rc = PyList_GET_ITEM(info, 0) == NULL
                     ? -1
                     : PyDict_SetItem(p->line_phase, line_obj, info);
        Py_DECREF(info);  /* the dict holds it */
        if (rc < 0) {
            return -1;
        }
        phase = PHASE_PRIVATE;
        last = core;
    }
    else {
        if (!PyList_CheckExact(info) || PyList_GET_SIZE(info) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "PhaseKernel: a line phase is not a "
                            "[phase, core, epoch] list");
            return -1;
        }
        if (arg_long(PyList_GET_ITEM(info, 0), &phase) < 0
            || arg_long(PyList_GET_ITEM(info, 1), &last) < 0
            || arg_long(PyList_GET_ITEM(info, 2), &changed) < 0) {
            return -1;
        }
        if (phase != PHASE_PRIVATE && epoch > changed) {
            /* Lazy decay: one level per full epoch without a change. */
            long long decayed = phase - (epoch - changed);
            phase = decayed > PHASE_PRIVATE ? decayed : PHASE_PRIVATE;
            if (phase_put(info, 0, PyLong_FromLongLong(phase)) < 0
                || phase_put(info, 2, Py_NewRef(epoch_obj)) < 0
                || slot_bump(engine, p->off_demotions) < 0) {
                return -1;
            }
        }
    }
    long long promoted = -1;
    if (is_write) {
        PyObject *dirent = dirent_of(k, l2line), *sharers;
        if (dirent == NULL || (sharers = sharers_of(k, dirent)) == NULL) {
            return -1;
        }
        int shared = last != core;
        Py_ssize_t n = PySet_GET_SIZE(sharers);
        if (!shared && n > 0) {
            int mine = n == 1 ? PySet_Contains(sharers, core_obj) : 0;
            if (mine < 0) {
                return -1;
            }
            shared = !mine;
        }
        if (shared && phase != PHASE_WRITE_SHARED) {
            promoted = PHASE_WRITE_SHARED;
        }
    }
    else if (last != core && phase == PHASE_PRIVATE) {
        promoted = PHASE_READ_SHARED;
    }
    if (promoted >= 0) {
        phase = promoted;
        if (phase_put(info, 0, PyLong_FromLongLong(phase)) < 0
            || phase_put(info, 2, Py_NewRef(epoch_obj)) < 0
            || slot_bump(engine, p->off_promotions) < 0) {
            return -1;
        }
    }
    if (phase_put(info, 1, Py_NewRef(core_obj)) < 0) {
        return -1;
    }
    if (phase != PHASE_WRITE_SHARED) {
        return 0;
    }
    if (slot_bump(engine, p->off_word_accesses) < 0) {
        return -1;
    }
    if (*upgrade) {
        if (remove_own_copy(k, core, core_obj, line, line_obj, l2line) < 0) {
            return -1;
        }
        *upgrade = 0;
    }
    *remote = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

#define METHOD(name, n, sig) KERNEL_METHOD(DirObject, Dir, name, n, sig)

METHOD(access, 4, "access(core, is_write, address, now)")
{
    Access a;
    if (access_args(k, args, &a) < 0) {
        return NULL;
    }
    PyObject *out = dir_serve(k, &a);
    Py_DECREF(a.line_obj);
    return out;
}

/* VictimKernel.access: a read miss on a line the local slice holds as a
 * replica is served from it; every other access is the directory
 * kernel's. */
KERNEL_METHOD(VictimObject, Victim, access, 4,
              "access(core, is_write, address, now)")
{
    Access a;
    if (access_args(&k->dir, args, &a) < 0) {
        return NULL;
    }
    PyObject *out = NULL;
    if (!a.is_write && a.entry == NULL) {
        PyObject *replica;
        if (local_replica(&k->dir.base, a.core, a.line, a.line_obj,
                          &replica) < 0) {
            goto done;
        }
        if (replica != NULL) {
            out = replica_hit(k, &a, replica);
            goto done;
        }
    }
    out = dir_serve(&k->dir, &a);
done:
    Py_DECREF(a.line_obj);
    return out;
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

/* Enum members and the error class. */
static int
init_names(DirObject *k)
{
    PyObject *modes = imported("repro.common.types", "SharerMode");
    PyObject *msgs = imported("repro.network.messages", "MsgType");
    int rc = -1;
    if (modes != NULL && msgs != NULL
        && (k->mode_private = repro_getattr(modes, "PRIVATE")) != NULL
        && (k->mode_remote = repro_getattr(modes, "REMOTE")) != NULL
        && (k->inv_broadcast = repro_getattr(msgs, "INV_BROADCAST")) != NULL
        && (k->coherence_error = imported("repro.common.errors",
                                          "CoherenceError")) != NULL) {
        rc = 0;
    }
    Py_XDECREF(modes);
    Py_XDECREF(msgs);
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
        || init_names(k) < 0
        || (h->entry_type = imported("repro.coherence.directory",
                                     "DirectoryEntry")) == NULL
        || (k->loc_type = imported("repro.coherence.classifier.base",
                                   "CoreLocality")) == NULL
        || init_offsets(k) < 0) {
        goto done;
    }
    h->evict = dir_evict;
    k->classify = base_classify_requester;
    k->grant = base_grant_private;
    k->l1_evict = base_handle_l1_eviction;
    k->purge_target = base_purge_target_copy;
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

/* ------------------------------------------------------------------ */
/* The family subtypes: VictimKernel and PhaseKernel                   */
/* ------------------------------------------------------------------ */

/* The victim part of a kernel whose directory part is set up on the same
 * engine: the replica counters' offsets and the four steps it takes. */
static int
Victim_init_state(HomeObject *h, PyObject *engine)
{
    VictimObject *v = (VictimObject *)h;
    if (Dir_init_state(h, engine) < 0) {
        return -1;
    }
    static const char *const names[] = {
        "replicas_created", "replica_hits", "replica_invalidations",
        "replica_evictions", "replication_failures", NULL};
    Py_ssize_t *const outs[] = {&v->off_created, &v->off_hits,
                                &v->off_invals, &v->off_evictions,
                                &v->off_failures};
    if (slot_offsets((PyObject *)Py_TYPE(engine), names, outs) < 0) {
        return -1;
    }
    h->evict = victim_evict;
    v->dir.grant = victim_grant;
    v->dir.l1_evict = victim_l1_evict;
    v->dir.purge_target = victim_purge_target;
    return 0;
}

static PyObject *
Victim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return home_subtype_new(type, args, kwds, "repro.protocol.victim",
                            "VictimReplicationEngine", Victim_init_state);
}

static PyMethodDef Victim_methods[] = {
    KERNEL_FASTCALL(Victim, access,
                    "access(core, is_write, address, now) -> AccessResult"),
    {NULL, NULL, 0, NULL},
};

static PyTypeObject VictimType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.VictimKernel",
    .tp_basicsize = sizeof(VictimObject),
    /* GC support, traversal and deallocation are the directory kernel's. */
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The kernel of a victim-replication engine: every L1 miss "
              "and replica",
    .tp_methods = Victim_methods,
    .tp_base = &DirType,
    .tp_new = Victim_new,
};

/* The phase part: the engine's phase dict, the epoch's and the counters'
 * offsets, and the classification it takes. */
static int
Phase_init_state(HomeObject *h, PyObject *engine)
{
    PhaseObject *p = (PhaseObject *)h;
    if (Dir_init_state(h, engine) < 0
        || (p->line_phase = repro_getattr(engine, "_line_phase")) == NULL) {
        return -1;
    }
    if (!PyDict_CheckExact(p->line_phase)) {
        PyErr_SetString(PyExc_TypeError,
                        "PhaseKernel: _line_phase is not a dict");
        return -1;
    }
    static const char *const names[] = {
        "_epoch", "phase_promotions", "phase_demotions",
        "phase_word_accesses", NULL};
    Py_ssize_t *const outs[] = {&p->off_epoch, &p->off_promotions,
                                &p->off_demotions, &p->off_word_accesses};
    if (slot_offsets((PyObject *)Py_TYPE(engine), names, outs) < 0) {
        return -1;
    }
    p->dir.classify = phase_classify;
    return 0;
}

static PyObject *
Phase_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return home_subtype_new(type, args, kwds, "repro.protocol.phase",
                            "PhaseEngine", Phase_init_state);
}

static int
Phase_traverse(PhaseObject *p, visitproc visit, void *arg)
{
    Py_VISIT(p->line_phase);
    return DirType.tp_traverse((PyObject *)p, visit, arg);
}

static int
Phase_clear(PhaseObject *p)
{
    Py_CLEAR(p->line_phase);
    return DirType.tp_clear((PyObject *)p);
}

static void
Phase_dealloc(PhaseObject *p)
{
    PyObject_GC_UnTrack(p);
    Py_CLEAR(p->line_phase);
    DirType.tp_dealloc((PyObject *)p);
}

static PyTypeObject PhaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.PhaseKernel",
    .tp_basicsize = sizeof(PhaseObject),
    .tp_dealloc = (destructor)Phase_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The kernel of a phase-priority engine: every L1 miss",
    .tp_traverse = (traverseproc)Phase_traverse,
    .tp_clear = (inquiry)Phase_clear,
    .tp_base = &DirType,
    .tp_new = Phase_new,
};

int
repro_directory_register(PyObject *mod)
{
    if (PyType_Ready(&DirType) < 0 || PyType_Ready(&VictimType) < 0
        || PyType_Ready(&PhaseType) < 0) {
        return -1;
    }
    struct {
        PyObject **slot;
        const char *name;
    } names[] = {
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
    return PyModule_AddObjectRef(mod, "DirectoryKernel", (PyObject *)&DirType)
                   < 0
                   || PyModule_AddObjectRef(mod, "VictimKernel",
                                            (PyObject *)&VictimType) < 0
                   || PyModule_AddObjectRef(mod, "PhaseKernel",
                                            (PyObject *)&PhaseType) < 0
               ? -1
               : 0;
}
