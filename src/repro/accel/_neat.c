/* Compiled Neat kernel: every access of one Neat engine.
 *
 * NeatKernel is the engine kernel of the self-invalidation /
 * self-downgrade family (DESIGN.md section 15): a subtype of HomeKernel
 * (_home.c) whose object starts with the home kernel's HomeObject
 * (_accel.h), so each engine builds exactly one kernel.  Its pure-Python
 * twin and reference, PyNeatKernel in repro/protocol/neat.py, is a
 * subclass of PyHomeKernel with the same constructor and methods; an
 * engine builds this one exactly when its mesh kernel is the compiled
 * MeshKernel.
 *
 * One access is one call, in both neat_downgrade modes: the
 * version-checked read hit and the self-invalidation of a stale copy
 * (with its histogram and history flag), the eager write-through with the
 * in-place refresh of a fresh copy, the read fill with its L1 install and
 * silent eviction, and in release mode the buffered write and the line
 * flush.  release_flush is the scheduler's release-boundary callback
 * (NeatEngine.sync_boundary_hook).  The kernel keeps no state: the line
 * versions, the per-core copy versions and buffered-word masks are the
 * engine's dicts, and its counters the engine's slots.  The L1 and home
 * steps are the home kernel's (home_l1_*, home_place, home_round_trip,
 * home_deliver, home_serve_word, home_settle).  It calls back into Python
 * only for the verify-mode golden steps: GoldenMemory.check_read and
 * write_word, and the engine's _issue_write_token.
 */

#include "_accel.h"

static PyObject *str_write_word;
static PyObject *str_issue_write_token;

typedef struct {
    HomeObject base;
    /* The engine's Neat state (strong references, GC-tracked). */
    PyObject *line_version;   /* {line: version} */
    PyObject *copy_version;   /* list of {line: version-at-fetch}, by core */
    PyObject *pending;        /* list of {line: buffered-word mask}, by core */
    int release;              /* neat_downgrade == "release" */
    /* NeatEngine __slots__ offsets. */
    Py_ssize_t off_self_inval, off_write_throughs, off_flush_result;
    Py_ssize_t off_write_token;
} NeatObject;

/* ------------------------------------------------------------------ */
/* The version and buffered-word dicts                                 */
/* ------------------------------------------------------------------ */

/* The dict of `core` in a per-core list (borrowed). */
static PyObject *
core_dict(PyObject *list, long long core)
{
    PyObject *d = PyList_GET_ITEM(list, (Py_ssize_t)core);
    if (!PyDict_CheckExact(d)) {
        PyErr_SetString(PyExc_TypeError,
                        "NeatKernel: per-core state is not a dict");
        return NULL;
    }
    return d;
}

/* d.get(key) as an int; *present is 0 (and *out 0) when absent. */
static int
dict_get(PyObject *d, PyObject *key, long long *out, int *present)
{
    PyObject *v = PyDict_GetItemWithError(d, key);
    *out = 0;
    *present = v != NULL;
    if (v == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    return arg_long(v, out);
}

static int
dict_set(PyObject *d, PyObject *key, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL) {
        return -1;
    }
    int rc = PyDict_SetItem(d, key, v);
    Py_DECREF(v);
    return rc;
}

/* d.pop(key, None). */
static int
dict_discard(PyObject *d, PyObject *key)
{
    int present = PyDict_Contains(d, key);
    return present < 0 || (present && PyDict_DelItem(d, key) < 0) ? -1 : 0;
}

/* _line_version.get(line, 0). */
static int
line_version(NeatObject *k, PyObject *line_obj, long long *out)
{
    int present;
    return dict_get(k->line_version, line_obj, out, &present);
}

/* versions.get(line) == _line_version.get(line, 0): core's copy is fresh. */
static int
copy_fresh(NeatObject *k, PyObject *versions, PyObject *line_obj, int *fresh)
{
    long long mine, current;
    int present;
    if (dict_get(versions, line_obj, &mine, &present) < 0
        || line_version(k, line_obj, &current) < 0) {
        return -1;
    }
    *fresh = present && mine == current;
    return 0;
}

/* pending[core][line] |= 1 << word. */
static int
buffer_word(NeatObject *k, long long core, PyObject *line_obj, long long word)
{
    PyObject *pending = core_dict(k->pending, core);
    long long mask;
    int present;
    if (pending == NULL || dict_get(pending, line_obj, &mask, &present) < 0) {
        return -1;
    }
    return dict_set(pending, line_obj, mask | (1LL << word));
}

/* obj.<off>[word] = value (a new reference, consumed; NULL fails). */
static int
set_word(PyObject *obj, Py_ssize_t off, long long word, PyObject *value)
{
    PyObject *data = value == NULL ? NULL : slot_get(obj, off);
    int rc = data == NULL ? -1
             : PySequence_SetItem(data, (Py_ssize_t)word, value);
    Py_XDECREF(value);
    return rc;
}

/* Verify mode: entry.data[word] = engine._issue_write_token(core). */
static int
mint_into(NeatObject *k, PyObject *core_obj, PyObject *entry, long long word)
{
    PyObject *args[2] = {k->base.engine, core_obj};
    PyObject *token = PyObject_VectorcallMethod(
        str_issue_write_token, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    return set_word(entry, k->base.off_c_data, word, token);
}

/* ------------------------------------------------------------------ */
/* Release-boundary self-downgrade: the line flush                     */
/* ------------------------------------------------------------------ */

/* _flush_line: one line's buffered words as a single WB_DATA to the home,
 * one version bump, fire-and-forget.  `entry` is the writer's copy, or
 * NULL to look it up. */
static int
flush_line(NeatObject *k, long long core, PyObject *core_obj, long long line,
           PyObject *line_obj, double t, PyObject *entry)
{
    HomeObject *h = &k->base;
    PyObject *pending = core_dict(k->pending, core);
    PyObject *versions = core_dict(k->copy_version, core);
    if (pending == NULL || versions == NULL) {
        return -1;
    }
    long long mask, home, flush;
    int present;
    if (dict_get(pending, line_obj, &mask, &present) < 0) {
        return -1;
    }
    if (!present) {
        PyErr_SetObject(PyExc_KeyError, line_obj);
        return -1;
    }
    if (PyDict_DelItem(pending, line_obj) < 0) {
        return -1;
    }
    /* The flush's serialization and off-chip latency are recorded into a
     * scratch result and dropped: a flush is off the critical path. */
    PyObject *result = slot_get(h->engine, k->off_flush_result);
    if (result == NULL
        || check_type(result, h->result_type, "AccessResult") < 0) {
        return -1;
    }
    slot_put(result, h->off_r_wait, Py_NewRef(h->zero));
    slot_put(result, h->off_r_offchip, Py_NewRef(h->zero));
    PyObject *slice_;
    double t_at_home;
    if (home_place(h, line, 0, 0, core_obj, core, &home, &flush) < 0) {
        return -1;
    }
    PyObject *l2line = home_deliver(h, core, line_obj, line, home, flush,
                                    K_MSG_WB_DATA, t, result, &slice_,
                                    &t_at_home);
    if (l2line == NULL) {
        return -1;
    }
    int rc = -1;
    PyObject *t_home = NULL;
    if (entry == NULL) {
        entry = home_l1_lookup(h, core, line, line_obj);
        if (entry == NULL && PyErr_Occurred()) {
            goto done;
        }
    }
    Py_XINCREF(entry);
    PyObject *data = NULL;
    if (h->verify && entry != NULL
        && (data = slot_get(entry, h->off_c_data)) == NULL) {
        goto done;
    }
    unsigned long long bits = (unsigned long long)mask;
    for (long long word = 0; bits; bits >>= 1, word++) {
        if (!(bits & 1)) {
            continue;
        }
        long long words;
        if (word > 62) {
            PyErr_SetString(PyExc_ValueError, "NeatKernel: word out of range");
            goto done;
        }
        if (slot_bump(slice_, h->off_slice_wwrites) < 0
            || home_energy_bump(h, h->off_e_wwrites) < 0
            || slot_long(l2line, h->off_dirty_words, &words) < 0) {
            goto done;
        }
        slot_set_bool(l2line, h->off_dirty, 1);
        if (slot_set_long(l2line, h->off_dirty_words,
                          words | (1LL << word)) < 0) {
            goto done;
        }
        if (data != NULL && data != Py_None) {
            /* Home and golden update at the same simulation point. */
            PyObject *value = PySequence_GetItem(data, (Py_ssize_t)word);
            PyObject *word_obj = PyLong_FromLongLong(word);
            PyObject *res = NULL;
            if (value != NULL && word_obj != NULL
                && set_word(l2line, h->off_l2_data, word,
                            Py_NewRef(value)) == 0) {
                res = PyObject_CallMethodObjArgs(h->golden, str_write_word,
                                                 line_obj, word_obj, value,
                                                 NULL);
            }
            Py_XDECREF(value);
            Py_XDECREF(word_obj);
            if (res == NULL) {
                goto done;
            }
            Py_DECREF(res);
        }
    }
    long long old, mine;
    int held;
    if (slot_bump(k->base.engine, k->off_write_throughs) < 0
        || line_version(k, line_obj, &old) < 0
        || dict_set(k->line_version, line_obj, old + 1) < 0) {
        goto done;
    }
    /* A copy fresh up to this flush is exactly the flushed image; a copy
     * that went stale before it stays stale. */
    if (entry != NULL) {
        if (dict_get(versions, line_obj, &mine, &held) < 0
            || (held && mine == old
                && dict_set(versions, line_obj, old + 1) < 0)) {
            goto done;
        }
    }
    if ((t_home = PyFloat_FromDouble(t_at_home)) == NULL
        || home_settle(h, slice_, l2line, t_home, 1) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(t_home);
    Py_XDECREF(entry);
    Py_DECREF(l2line);
    return rc;
}

/* pending[core].get(line): buffered words to flush first. */
static int
has_pending(NeatObject *k, long long core, PyObject *line_obj, int *out)
{
    PyObject *pending = core_dict(k->pending, core);
    long long mask;
    int present;
    if (pending == NULL || dict_get(pending, line_obj, &mask, &present) < 0) {
        return -1;
    }
    *out = mask != 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Copies: self-invalidation, the silent eviction, the install         */
/* ------------------------------------------------------------------ */

/* _self_invalidate: discard core's stale copy, flushing its buffered
 * words home first. */
static int
self_invalidate(NeatObject *k, long long core, PyObject *core_obj,
                long long line, PyObject *line_obj, double t)
{
    HomeObject *h = &k->base;
    int buffered;
    if (has_pending(k, core, line_obj, &buffered) < 0
        || (buffered
            && flush_line(k, core, core_obj, line, line_obj, t, NULL) < 0)) {
        return -1;
    }
    PyObject *removed = home_l1_pop(h, core, line, line_obj);
    if (removed == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_AttributeError,
                            "'NoneType' object has no attribute 'utilization'");
        }
        return -1;
    }
    long long util;
    PyObject *versions = core_dict(k->copy_version, core);
    int rc = versions == NULL || dict_discard(versions, line_obj) < 0
             || slot_bump(k->base.engine, k->off_self_inval) < 0
             || slot_long(removed, h->off_c_util, &util) < 0
             || home_hist_record(h, h->off_inval_hist, util) < 0
             || home_history_update(h, core, line_obj, K_LAST_REMOVAL_INVAL,
                                    0) < 0
         ? -1 : 0;
    Py_DECREF(removed);
    return rc;
}

/* _handle_l1_eviction: silent (copies are clean and untracked); buffered
 * words of the victim are flushed first. */
static int
handle_l1_eviction(NeatObject *k, long long core, PyObject *core_obj,
                   PyObject *vline_obj, PyObject *ventry, double t)
{
    HomeObject *h = &k->base;
    long long vline, util;
    int buffered;
    if (arg_long(vline_obj, &vline) < 0
        || has_pending(k, core, vline_obj, &buffered) < 0) {
        return -1;
    }
    if (buffered
        && flush_line(k, core, core_obj, vline, vline_obj, t, ventry) < 0) {
        return -1;
    }
    PyObject *versions = core_dict(k->copy_version, core);
    return slot_long(ventry, h->off_c_util, &util) < 0
                   || home_hist_record(h, h->off_evict_hist, util) < 0
                   || home_history_update(h, core, vline_obj, K_EVER_CACHED,
                                          K_LAST_REMOVAL_INVAL) < 0
                   || versions == NULL || dict_discard(versions, vline_obj) < 0
               ? -1 : 0;
}

/* _install_line: the fetched line, clean SHARED, into core's L1. */
static int
install_line(NeatObject *k, long long core, PyObject *core_obj,
             long long line, PyObject *line_obj, PyObject *l2line,
             PyObject *slice_, double reply_t)
{
    HomeObject *h = &k->base;
    PyObject *data = NULL, *ev_line = NULL, *ev_entry = NULL;
    if (slot_bump(slice_, h->off_slice_lreads) < 0
        || home_energy_bump(h, h->off_e_lreads) < 0
        || (h->verify && (data = slot_get(l2line, h->off_l2_data)) == NULL)
        || home_l1_fill(h, core, line, line_obj, h->st_shared, reply_t, data,
                        &ev_line, &ev_entry) < 0) {
        return -1;
    }
    int rc = home_energy_bump(h, h->off_e_l1d_fills) < 0
             || (ev_line != NULL
                 && handle_l1_eviction(k, core, core_obj, ev_line, ev_entry,
                                       reply_t) < 0)
         ? -1 : 0;
    Py_XDECREF(ev_line);
    Py_XDECREF(ev_entry);
    return rc;
}

/* ------------------------------------------------------------------ */
/* One access                                                          */
/* ------------------------------------------------------------------ */

/* The read fill of a miss or a write-allocate: data_home, the READ_REQ /
 * LINE_REPLY round trip and the install, with the copy stamped at the
 * line's version; the line (new reference), slice (borrowed) and times. */
static PyObject *
fetch(NeatObject *k, long long core, PyObject *core_obj, long long line,
      PyObject *line_obj, long long req_msg, long long reply_msg,
      double now, PyObject *result, PyObject **slice_,
      double *t, double *reply_t)
{
    HomeObject *h = &k->base;
    long long home, flush;
    if (home_place(h, line, 0, 0, core_obj, core, &home, &flush) < 0
        || home_check_tile(h, home) < 0) {
        return NULL;
    }
    return home_round_trip(h, core, line_obj, line, home, flush, req_msg,
                           reply_msg, now, result, slice_, t, reply_t);
}

/* _service_at_home: an eager write-through or a read fill. */
static PyObject *
service_at_home(NeatObject *k, PyObject *l1, long long core,
                PyObject *core_obj, int is_write, long long line,
                PyObject *line_obj, long long word, double now)
{
    HomeObject *h = &k->base;
    PyObject *result = NULL, *l2line = NULL, *out = NULL, *t_obj = NULL;
    PyObject *slice_, *versions, *hist;
    double t, reply_t;
    long long flags;
    int miss;
    if (slot_bump(l1, h->off_l1_misses) < 0
        || home_energy_bump(h, h->off_e_l1d_tag) < 0
        || (result = home_new_result(h)) == NULL) {
        goto done;
    }
    /* A write carries its word and is acknowledged (eager self-downgrade);
     * a read fetches the line. */
    l2line = fetch(k, core, core_obj, line, line_obj,
                   is_write ? K_MSG_WRITE_REQ : K_MSG_READ_REQ,
                   is_write ? K_MSG_WORD_WRITE_ACK : K_MSG_LINE_REPLY,
                   now, result, &slice_, &t, &reply_t);
    if (l2line == NULL
        || (hist = home_history(h, core, line_obj, &flags)) == NULL
        || (versions = core_dict(k->copy_version, core)) == NULL) {
        goto done;
    }
    if (is_write) {
        /* Classified against the copy held right now: a fresh copy makes
         * an upgrade, a stale one a sharing miss, none a remote access. */
        long long old;
        int fresh = 0;
        PyObject *entry = home_l1_lookup(h, core, line, line_obj);
        if ((entry == NULL && PyErr_Occurred())
            || line_version(k, line_obj, &old) < 0) {
            goto done;
        }
        Py_XINCREF(entry);
        if (entry != NULL) {
            long long mine;
            int present;
            if (dict_get(versions, line_obj, &mine, &present) < 0) {
                Py_DECREF(entry);
                goto done;
            }
            fresh = present && mine == old;
            miss = fresh ? MISS_UPGRADE : MISS_SHARING;
        }
        else {
            miss = home_classify_miss(flags, 0, 1);
        }
        slot_put(result, h->off_r_miss_type, Py_NewRef(h->miss[miss]));
        PyObject *store;
        int bad = home_serve_word(h, core_obj, 1, line_obj, word, NULL, l2line,
                                  slice_) < 0
                  || slot_bump(k->base.engine, k->off_write_throughs) < 0
                  || dict_set(k->line_version, line_obj, old + 1) < 0;
        if (!bad && fresh) {
            /* Refreshed in place so the writer's own reads keep hitting. */
            PyObject *token;
            bad = home_l1_of(h, core, &store) == NULL
                  || (t_obj = PyFloat_FromDouble(reply_t)) == NULL
                  || home_l1_use(h, store, entry, t_obj) < 0
                  || home_energy_bump(h, h->off_e_l1d_writes) < 0
                  || (h->verify
                      && ((token = slot_get(h->engine,
                                            k->off_write_token)) == NULL
                          || set_word(entry, h->off_c_data, word,
                                      Py_NewRef(token)) < 0))
                  || dict_set(versions, line_obj, old + 1) < 0;
        }
        else if (!bad && entry != NULL) {
            /* A stale copy is discarded: refreshing one word of it would
             * revalidate its other, stale words. */
            bad = self_invalidate(k, core, core_obj, line, line_obj,
                                  reply_t) < 0;
        }
        Py_XDECREF(entry);
        slot_set_bool(result, h->off_r_remote, 1);
        /* The history is re-read: _self_invalidate may have set a flag. */
        if (bad
            || home_history_update(h, core, line_obj, K_EVER_REMOTE, 0) < 0) {
            goto done;
        }
    }
    else {
        long long version;
        if (install_line(k, core, core_obj, line, line_obj, l2line, slice_,
                         reply_t) < 0
            || line_version(k, line_obj, &version) < 0
            || dict_set(versions, line_obj, version) < 0
            || home_energy_bump(h, h->off_e_l1d_reads) < 0) {
            goto done;
        }
        PyObject *entry;
        if (h->verify
            && ((entry = home_l1_resident(h, core, line, line_obj)) == NULL
                || home_golden_check(h, entry, line_obj, word,
                                     "Neat fill read", core) < 0)) {
            goto done;
        }
        miss = home_classify_miss(flags, 0, 0);
        slot_put(result, h->off_r_miss_type, Py_NewRef(h->miss[miss]));
        PyObject *v = PyLong_FromLongLong(flags | K_EVER_CACHED);
        if (v == NULL) {
            goto done;
        }
        int bad = PyDict_SetItem(hist, line_obj, v);
        Py_DECREF(v);
        if (bad < 0) {
            goto done;
        }
    }
    Py_CLEAR(t_obj);
    /* Reads take no home-side ownership: they pipeline through the bank. */
    if (home_miss_record(h, miss) < 0
        || (t_obj = PyFloat_FromDouble(t)) == NULL
        || home_settle(h, slice_, l2line, t_obj, is_write) < 0
        || home_finish_result(h, result, now, reply_t, 0.0) < 0) {
        goto done;
    }
    out = Py_NewRef(result);
done:
    Py_XDECREF(t_obj);
    Py_XDECREF(l2line);
    Py_XDECREF(result);
    return out;
}

/* _buffered_write: a release-mode store lands in the writer's copy - an
 * L1 hit on a fresh copy, else a write-allocate fetch. */
static PyObject *
buffered_write(NeatObject *k, PyObject *l1, PyObject *store, long long core,
               PyObject *core_obj, long long line, PyObject *line_obj,
               long long word, PyObject *now_obj, double now, PyObject *entry)
{
    HomeObject *h = &k->base;
    PyObject *versions = core_dict(k->copy_version, core);
    int fresh = 0;
    if (versions == NULL
        || (entry != NULL && copy_fresh(k, versions, line_obj, &fresh) < 0)) {
        return NULL;
    }
    if (fresh) {
        if (home_l1_hit(h, l1, store, entry, now_obj) < 0
            || home_energy_bump(h, h->off_e_l1d_writes) < 0
            || buffer_word(k, core, line_obj, word) < 0
            /* The token goes into the local copy only; the golden image is
             * written at the flush, atomically with the home update. */
            || (h->verify && mint_into(k, core_obj, entry, word) < 0)) {
            return NULL;
        }
        return Py_NewRef(h->hit_result);
    }
    PyObject *result = home_new_result(h), *l2line = NULL, *out = NULL;
    PyObject *t_obj = NULL, *slice_;
    long long flags, version;
    double t, reply_t;
    int miss;
    if (result == NULL || home_history(h, core, line_obj, &flags) == NULL) {
        goto done;
    }
    if (entry != NULL) {
        miss = MISS_SHARING;  /* another core's flush killed the copy */
        if (self_invalidate(k, core, core_obj, line, line_obj, now) < 0) {
            goto done;
        }
    }
    else {
        miss = home_classify_miss(flags, 0, 0);
    }
    slot_put(result, h->off_r_miss_type, Py_NewRef(h->miss[miss]));
    if (slot_bump(l1, h->off_l1_misses) < 0
        || home_energy_bump(h, h->off_e_l1d_tag) < 0
        || (l2line = fetch(k, core, core_obj, line, line_obj, K_MSG_READ_REQ,
                           K_MSG_LINE_REPLY, now, result, &slice_,
                           &t, &reply_t)) == NULL
        || install_line(k, core, core_obj, line, line_obj, l2line, slice_,
                        reply_t) < 0
        || line_version(k, line_obj, &version) < 0
        || dict_set(versions, line_obj, version) < 0
        || home_energy_bump(h, h->off_e_l1d_writes) < 0
        || buffer_word(k, core, line_obj, word) < 0) {
        goto done;
    }
    PyObject *copy;
    if (h->verify
        && ((copy = home_l1_resident(h, core, line, line_obj)) == NULL
            || mint_into(k, core_obj, copy, word) < 0)) {
        goto done;
    }
    /* The flags read before the self-invalidation: the write-allocate
     * keeps none of its flags. */
    long long current;
    PyObject *hist = home_history(h, core, line_obj, &current);
    PyObject *v = hist == NULL ? NULL
                  : PyLong_FromLongLong(flags | K_EVER_CACHED);
    if (v == NULL) {
        goto done;
    }
    int bad = PyDict_SetItem(hist, line_obj, v);
    Py_DECREF(v);
    /* The fetch is a read at the home: no ownership, bank-pipelined. */
    if (bad < 0 || home_miss_record(h, miss) < 0
        || (t_obj = PyFloat_FromDouble(t)) == NULL
        || home_settle(h, slice_, l2line, t_obj, 0) < 0
        || home_finish_result(h, result, now, reply_t, 0.0) < 0) {
        goto done;
    }
    out = Py_NewRef(result);
done:
    Py_XDECREF(t_obj);
    Py_XDECREF(l2line);
    Py_XDECREF(result);
    return out;
}

static PyObject *
neat_access(NeatObject *k, PyObject *const *args)
{
    HomeObject *h = &k->base;
    long long core, line, word;
    int is_write;
    double now;
    PyObject *store, *l1;
    if (home_access_args(h, args, &core, &is_write, &line, &word, &now) < 0
        || (l1 = home_l1_of(h, core, &store)) == NULL) {
        return NULL;
    }
    PyObject *core_obj = args[0], *now_obj = args[3];
    PyObject *line_obj = PyLong_FromLongLong(line);
    if (line_obj == NULL) {
        return NULL;
    }
    PyObject *out = NULL;
    PyObject *entry = home_l1_lookup(h, core, line, line_obj);
    if (entry == NULL && PyErr_Occurred()) {
        goto done;
    }
    Py_XINCREF(entry);
    if (is_write && k->release) {
        out = buffered_write(k, l1, store, core, core_obj, line, line_obj,
                             word, now_obj, now, entry);
        goto done;
    }
    if (entry != NULL && !is_write) {
        PyObject *versions = core_dict(k->copy_version, core);
        int fresh;
        if (versions == NULL || copy_fresh(k, versions, line_obj, &fresh) < 0) {
            goto done;
        }
        if (fresh) {
            /* Valid read hit: the copy is as fresh as the home. */
            if (home_l1_hit(h, l1, store, entry, now_obj) < 0
                || home_energy_bump(h, h->off_e_l1d_reads) < 0) {
                goto done;
            }
            if (h->verify) {
                /* A word this core buffered but has not flushed is ahead of
                 * the golden image by design. */
                PyObject *pending = core_dict(k->pending, core);
                long long mask;
                int present;
                if (pending == NULL
                    || dict_get(pending, line_obj, &mask, &present) < 0
                    || (!((mask >> word) & 1)
                        && home_golden_check(h, entry, line_obj, word,
                                             "Neat hit", core) < 0)) {
                    goto done;
                }
            }
            out = Py_NewRef(h->hit_result);
            goto done;
        }
        /* Stale copy: self-invalidate and reload from the home. */
        if (self_invalidate(k, core, core_obj, line, line_obj, now) < 0) {
            goto done;
        }
    }
    out = service_at_home(k, l1, core, core_obj, is_write, line, line_obj,
                          word, now);
done:
    Py_XDECREF(entry);
    Py_DECREF(line_obj);
    return out;
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

#define METHOD(name, n, sig) KERNEL_METHOD(NeatObject, Neat, name, n, sig)

METHOD(access, 4, "access(core, is_write, address, now)")
{
    return neat_access(k, args);
}

/* _release_flush: flush every line with buffered words, in dict order. */
METHOD(release_flush, 2, "release_flush(core, t)")
{
    long long core;
    double t;
    if (arg_long(args[0], &core) < 0 || arg_double(args[1], &t) < 0
        || home_check_tile(&k->base, core) < 0) {
        return NULL;
    }
    PyObject *pending = core_dict(k->pending, core);
    PyObject *lines = pending == NULL ? NULL : PyDict_Keys(pending);
    if (lines == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(lines); i++) {
        PyObject *line_obj = PyList_GET_ITEM(lines, i);
        long long line;
        if (arg_index(line_obj, &line) < 0
            || flush_line(k, core, args[0], line, line_obj, t, NULL) < 0) {
            Py_DECREF(lines);
            return NULL;
        }
    }
    Py_DECREF(lines);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Construction and GC                                                 */
/* ------------------------------------------------------------------ */

static int
Neat_init_state(HomeObject *h, PyObject *engine)
{
    NeatObject *k = (NeatObject *)h;
    long long tiles = h->num_tiles;
    if ((k->line_version = repro_getattr(engine, "_line_version")) == NULL
        || (k->copy_version = repro_getattr(engine, "_copy_version")) == NULL
        || (k->pending = repro_getattr(engine, "_pending")) == NULL) {
        return -1;
    }
    PyObject *release = repro_getattr(engine, "_release_batching");
    if (release == NULL) {
        return -1;
    }
    k->release = PyObject_IsTrue(release);
    Py_DECREF(release);
    if (k->release < 0) {
        return -1;
    }
    if (!PyDict_CheckExact(k->line_version)
        || !PyList_CheckExact(k->copy_version)
        || PyList_GET_SIZE(k->copy_version) != tiles
        || !PyList_CheckExact(k->pending)
        || PyList_GET_SIZE(k->pending) != tiles) {
        PyErr_SetString(PyExc_TypeError,
                        "NeatKernel: unexpected engine layout");
        return -1;
    }
    static const char *const names[] = {
        "self_invalidations", "write_throughs", "_flush_result",
        "_write_token", NULL};
    Py_ssize_t *const outs[] = {&k->off_self_inval, &k->off_write_throughs,
                                &k->off_flush_result, &k->off_write_token};
    return slot_offsets((PyObject *)Py_TYPE(engine), names, outs);
}

static PyObject *
Neat_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return home_subtype_new(type, args, kwds, "repro.protocol.neat",
                            "NeatEngine", Neat_init_state);
}

static int
Neat_traverse(NeatObject *k, visitproc visit, void *arg)
{
    Py_VISIT(k->line_version);
    Py_VISIT(k->copy_version);
    Py_VISIT(k->pending);
    return HomeType.tp_traverse((PyObject *)k, visit, arg);
}

static int
Neat_clear(NeatObject *k)
{
    Py_CLEAR(k->line_version);
    Py_CLEAR(k->copy_version);
    Py_CLEAR(k->pending);
    return HomeType.tp_clear((PyObject *)k);
}

static void
Neat_dealloc(NeatObject *k)
{
    PyObject_GC_UnTrack(k);
    Py_CLEAR(k->line_version);
    Py_CLEAR(k->copy_version);
    Py_CLEAR(k->pending);
    HomeType.tp_dealloc((PyObject *)k);
}

static PyMethodDef Neat_methods[] = {
    KERNEL_FASTCALL(Neat, access,
                    "access(core, is_write, address, now) -> AccessResult"),
    KERNEL_FASTCALL(Neat, release_flush, "release_flush(core, t)"),
    {NULL, NULL, 0, NULL},
};

static PyTypeObject NeatType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.NeatKernel",
    .tp_basicsize = sizeof(NeatObject),
    .tp_dealloc = (destructor)Neat_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The kernel of a Neat engine: every access and release flush",
    .tp_traverse = (traverseproc)Neat_traverse,
    .tp_clear = (inquiry)Neat_clear,
    .tp_methods = Neat_methods,
    .tp_base = &HomeType,
    .tp_new = Neat_new,
};

int
repro_neat_register(PyObject *mod)
{
    if (PyType_Ready(&NeatType) < 0) {
        return -1;
    }
    if ((str_write_word == NULL
         && (str_write_word = PyUnicode_InternFromString("write_word")) == NULL)
        || (str_issue_write_token == NULL
            && (str_issue_write_token
                = PyUnicode_InternFromString("_issue_write_token")) == NULL)) {
        return -1;
    }
    return PyModule_AddObjectRef(mod, "NeatKernel", (PyObject *)&NeatType);
}
