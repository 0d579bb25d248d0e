/* Declarations shared by the translation units of _repro_mesh_kernel.
 *
 * _kernel.c (the mesh kernel and the module init), _sched.c (the
 * scheduler kernel), _home.c (the home kernel) and _directory.c (the
 * directory kernel) compile into one shared object; this header is the
 * only interface between them.  The build cache fingerprints it like the
 * .c files.
 */

#ifndef REPRO_ACCEL_H
#define REPRO_ACCEL_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Mirror of repro.common.addr.LINE_BITS (cross-checked at load). */
#define K_LINE_BITS 6

/* _kernel.c: the mesh kernel's path reservation, for the home kernel.
 * repro_mesh_check is true for a compiled MeshKernel instance;
 * repro_mesh_traverse reserves the registered path `handle` from t_head
 * exactly like MeshKernel.traverse and stores the tail arrival in *out
 * (0), or sets a Python exception (-1). */
int repro_mesh_check(PyObject *obj);
int repro_mesh_traverse(PyObject *mesh, Py_ssize_t handle, double t_head,
                        long long flits, double *out);

/* _sched.c: the byte offset of the __slots__ member `name` of `type`
 * (an object slot), or -1 with a Python exception set. */
Py_ssize_t repro_member_offset(PyObject *type, const char *name);

/* _home.c: the home kernel's steps, for the directory kernel
 * (_directory.c).  `home` is a compiled HomeKernel (repro_home_check) and
 * `engine` the engine both kernels serve, held by the caller for the
 * call.  Each step is the HomeKernel method of the same name; message
 * types are MsgType values.  Each returns 0 (a new reference) on success,
 * -1 (NULL) with a Python exception set. */
int repro_home_check(PyObject *obj);
int repro_home_data_home(PyObject *home, PyObject *engine, long long line,
                         PyObject *core_obj, long long core,
                         long long *home_tile, long long *flush);
PyObject *repro_home_deliver_request(PyObject *home, PyObject *engine,
                                     long long core, PyObject *line_obj,
                                     long long line, long long home_tile,
                                     long long flush, long long req_msg,
                                     PyObject *now_obj, double now,
                                     PyObject *result, PyObject **slice_out,
                                     double *t_out);
int repro_home_chain_request_reply(PyObject *home, PyObject *engine,
                                   long long core, long long home_tile,
                                   PyObject *l2line, PyObject *slice_,
                                   long long req_msg, long long reply_msg,
                                   double now, PyObject *result,
                                   double *t_out, double *reply_out);
int repro_home_reply(PyObject *home, PyObject *engine, long long home_tile,
                     long long core, long long reply_msg, double t,
                     double *out);
int repro_home_serve_word(PyObject *home, PyObject *engine,
                          PyObject *core_obj, int is_write,
                          PyObject *line_obj, long long word,
                          PyObject *l2line, PyObject *slice_);
int repro_home_settle(PyObject *home, PyObject *engine, PyObject *slice_,
                      PyObject *l2line, PyObject *t_obj, int owned);

/* Type registration, called from the module init in _kernel.c. */
int repro_sched_register(PyObject *mod);
int repro_home_register(PyObject *mod);
int repro_directory_register(PyObject *mod);

/* ------------------------------------------------------------------ */
/* Helpers of the home and directory kernels, which work on slotted    */
/* Python objects through their __slots__ offsets.                     */
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

/* counter += 1 on an int slot. */
static inline int
slot_bump(PyObject *obj, Py_ssize_t off)
{
    long long x;
    if (slot_long(obj, off, &x) < 0) {
        return -1;
    }
    return slot_set_long(obj, off, x + 1);
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

/* The engine behind a kernel's weak reference, as a new reference; NULL
 * with ReferenceError set once it is gone. */
static inline PyObject *
repro_weak_engine(PyObject *ref, const char *kernel)
{
#if PY_VERSION_HEX >= 0x030D0000
    PyObject *engine;
    if (PyWeakref_GetRef(ref, &engine) < 0) {
        return NULL;
    }
#else
    PyObject *engine = PyWeakref_GetObject(ref);
    if (engine == NULL) {
        return NULL;
    }
    engine = engine == Py_None ? NULL : Py_NewRef(engine);
#endif
    if (engine == NULL) {
        PyErr_Format(PyExc_ReferenceError, "the engine of this %s is gone",
                     kernel);
    }
    return engine;
}

#endif
