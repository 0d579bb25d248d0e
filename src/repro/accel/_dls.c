/* Compiled DLS kernel: every access of one DLS engine.
 *
 * DLSKernel is the engine kernel of the directoryless shared-LLC family
 * (DESIGN.md section 15): a subtype of HomeKernel (_home.c) whose object
 * is the home kernel's HomeObject (_accel.h), so each engine builds
 * exactly one kernel.  Its pure-Python twin and reference, PyDLSKernel in
 * repro/protocol/dls.py, is a subclass of PyHomeKernel with the same
 * constructor and methods; an engine builds this one exactly when its
 * mesh kernel is the compiled MeshKernel.
 *
 * One access is one call: the L1-D tag charge, the word's home
 * (home_place by word), the round trip (home_round_trip), the cold or
 * word miss from the _EVER_REMOTE history flag with its MissStats count,
 * the word service and settle, and the latency split.  DLS caches
 * nothing privately, so an access touches no L1.  The kernel adds no
 * state and no field to its home part: a DLS L2 eviction is the home
 * kernel's native one, and verify mode's dirty-word merge is the engine's
 * _verify_write_back.
 */

#include "_accel.h"

static PyObject *
dls_access(HomeObject *k, PyObject *const *args)
{
    long long core, line, word, home, flush;
    int is_write;
    double now, t, reply_t;
    if (home_access_args(k, args, &core, &is_write, &line, &word, &now) < 0
        || home_energy_bump(k, k->off_e_l1d_tag) < 0) {
        return NULL;
    }
    PyObject *line_obj = PyLong_FromLongLong(line);
    PyObject *result = line_obj == NULL ? NULL : home_new_result(k);
    PyObject *l2line = NULL, *t_obj = NULL, *out = NULL, *slice_;
    if (result == NULL) {
        goto done;
    }
    slot_set_bool(result, k->off_r_remote, 1);
    /* Writes carry the data word; the reply type depends only on is_write. */
    long long req_msg = is_write ? K_MSG_WRITE_REQ : K_MSG_READ_REQ;
    long long reply_msg = is_write ? K_MSG_WORD_WRITE_ACK : K_MSG_WORD_REPLY;
    if (home_place(k, line, 1, word, args[0], core, &home, &flush) < 0
        || home_check_tile(k, home) < 0
        || (l2line = home_round_trip(k, core, line_obj, line, home, flush,
                                     req_msg, reply_msg, now, result, &slice_,
                                     &t, &reply_t)) == NULL) {
        goto done;
    }
    /* Every access is a miss: first touch is cold, then word. */
    long long flags;
    PyObject *hist = home_history(k, core, line_obj, &flags);
    if (hist == NULL) {
        goto done;
    }
    int miss = flags & K_EVER_REMOTE ? MISS_WORD : MISS_COLD;
    slot_put(result, k->off_r_miss_type, Py_NewRef(k->miss[miss]));
    if (home_miss_record(k, miss) < 0
        || home_history_update(k, core, line_obj, K_EVER_REMOTE, 0) < 0
        /* Word service, then settle: writes serialize, reads pipeline. */
        || home_serve_word(k, args[0], is_write, line_obj, word, NULL, l2line,
                           slice_) < 0
        || (t_obj = PyFloat_FromDouble(t)) == NULL
        || home_settle(k, slice_, l2line, t_obj, is_write) < 0
        || home_finish_result(k, result, now, reply_t, 0.0) < 0) {
        goto done;
    }
    out = Py_NewRef(result);
done:
    Py_XDECREF(t_obj);
    Py_XDECREF(l2line);
    Py_XDECREF(result);
    Py_XDECREF(line_obj);
    return out;
}

KERNEL_METHOD(HomeObject, DLS, access, 4,
              "access(core, is_write, address, now)")
{
    return dls_access(k, args);
}

static PyObject *
DLS_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return home_subtype_new(type, args, kwds, "repro.protocol.dls",
                            "DLSEngine", NULL);
}

static PyMethodDef DLS_methods[] = {
    KERNEL_FASTCALL(DLS, access,
                    "access(core, is_write, address, now) -> AccessResult"),
    {NULL, NULL, 0, NULL},
};

static PyTypeObject DLSType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.DLSKernel",
    .tp_basicsize = sizeof(HomeObject),
    /* GC support, traversal and deallocation are the home kernel's. */
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The kernel of a DLS engine: every access",
    .tp_methods = DLS_methods,
    .tp_base = &HomeType,
    .tp_new = DLS_new,
};

int
repro_dls_register(PyObject *mod)
{
    if (PyType_Ready(&DLSType) < 0) {
        return -1;
    }
    return PyModule_AddObjectRef(mod, "DLSKernel", (PyObject *)&DLSType);
}
