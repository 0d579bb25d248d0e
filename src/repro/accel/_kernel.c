/* Compiled mesh kernel: the epoch ring buffer behind MeshNetwork.
 *
 * This is a CPython extension module (built at import by repro.accel.build;
 * see DESIGN.md section 12) that owns the reservation state of one
 * MeshNetwork - the WINDOW_EPOCHS x num_links slot table, the overflow hash
 * map, the path arena, the horizon - and its traffic, slot-recycle and
 * retired-flit counters, and reserves whole registered paths per call.  Its
 * pure-Python twin, with the same constructor, methods and attributes, is
 * repro.network.mesh's PyMeshKernel.
 *
 * The horizon is an epoch below which nothing will be reserved again
 * (DESIGN.md section 8).  It starts at 0 and only rises: the scheduler
 * kernel publishes it before every engine call (raise_horizon).  A slot
 * recycle archives the retired occupancy in the overflow map only at or
 * above the horizon; below it the flits are added to retired_flits.  A
 * traverse or traverse_link whose head epoch lies below the horizon raises
 * SimulationError before it reserves or counts anything.
 *
 * Exactness contract (pinned by the kernel contract property and the
 * contention properties in tests/properties/test_mesh_contention.py): every
 * arithmetic step mirrors the pure-Python walk in repro/network/mesh.py.
 *
 *   - The head time accumulates `t += hop` per link as an IEEE-754 double,
 *     NOT one `hops * hop` add at the end: float addition of the hop
 *     latency is not associative for fractional times and the property
 *     tests pin bit-identity to the per-link walk.  CPython floats ARE
 *     C doubles, so per-link accumulation here is bit-identical there.
 *   - `(long long)t` truncates toward zero exactly like Python's `int(t)`
 *     for the non-negative simulation times.
 *   - occ_load/occ_store reproduce _occ_load/_occ_store including the
 *     recycle counter, the retired-occupancy flush into overflow (or into
 *     retired_flits below the horizon) and the probe skip for a slot tag
 *     older than the epoch, so slots + overflow partition the
 *     epoch->occupancy map at and above the horizon identically, and
 *     slots + overflow + retired_flits conserve every reserved flit.
 *   - The head-epoch check against the horizon comes after the zero-hop
 *     return and before any counter moves, in both kernels.
 *   - A zero-hop (same-tile) route returns t_head and counts nothing.
 *
 * The Python fast pass in PyMeshKernel.traverse is an *optimization* of
 * the reference per-link walk (same reservations, same departures, same
 * recycle counts - the stale-slot claim is exactly occ_store on an epoch
 * the overflow dict provably has no entry for); this kernel implements the
 * reference walk directly, which is branch-simpler and equally exact.
 *
 * The engine kernel (_home.c, and its directory subtype in _directory.c)
 * reserves its legs through this kernel's own path walk,
 * repro_mesh_traverse (declared in _accel.h): a miss crosses the FFI
 * boundary once for both the home-side work and its traffic.
 *
 * The `slots` attribute is a flat int64 memoryview of the slot table
 * (through the buffer protocol), so MeshNetwork introspection -
 * reserved_flits, occupancy_map - reads the *same memory* the kernel
 * mutates; there is no shadow copy to drift.
 */

#include "_accel.h"

#include <structmember.h>

#include <stdint.h>
#include <string.h>

/* Mirror of the module constants in repro/network/mesh.py.  The loader
 * cross-checks these module attributes against the Python values and
 * refuses the kernel on mismatch, so the two can never drift silently. */
#define K_WINDOW_EPOCHS 128
#define K_WINDOW_MASK (K_WINDOW_EPOCHS - 1)
#define K_SLOT_SHIFT 6
#define K_SLOT_OCC_MASK ((1 << K_SLOT_SHIFT) - 1)
#define K_ABI_VERSION 9

typedef struct {
    PyObject_HEAD
    long long num_links;
    long long link_bits;
    long long hop_int;    /* integral hop latency for the shadow clock */
    double hop;           /* the same value as a double for head times */
    long long recycles;   /* counters: plain attributes for Python */
    long long messages_sent;
    long long flits_sent;
    long long link_flit_traversals;
    long long retired_flits;  /* retired below the horizon, not archived */
    long long horizon;    /* no reservation starts below this epoch */
    long long *slots;     /* K_WINDOW_EPOCHS * num_links packed cells */
    Py_ssize_t slot_count;
    /* Overflow map: open addressing, linear probing, no deletions (the
     * Python dict never deletes entries either).
     * Empty cells carry key -1; real keys (epoch << link_bits) | link are
     * always non-negative. */
    long long *okeys;
    long long *ovals;
    Py_ssize_t ocap;      /* power of two */
    Py_ssize_t olen;
    /* Path arena: registered routes as [hops, link0, link1, ...] runs of
     * int32; a handle is the offset of the hops header. */
    int32_t *arena;
    Py_ssize_t arena_len;
    Py_ssize_t arena_cap;
} KernelObject;

/* ------------------------------------------------------------------ */
/* Overflow hash map                                                   */
/* ------------------------------------------------------------------ */

static int
ov_alloc(KernelObject *k, Py_ssize_t cap)
{
    long long *keys = PyMem_Malloc((size_t)cap * sizeof(long long));
    long long *vals = PyMem_Malloc((size_t)cap * sizeof(long long));
    if (keys == NULL || vals == NULL) {
        PyMem_Free(keys);
        PyMem_Free(vals);
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++) {
        keys[i] = -1;
    }
    k->okeys = keys;
    k->ovals = vals;
    k->ocap = cap;
    k->olen = 0;
    return 0;
}

static inline Py_ssize_t
ov_probe(const KernelObject *k, long long key)
{
    Py_ssize_t mask = k->ocap - 1;
    Py_ssize_t i = (Py_ssize_t)(((unsigned long long)key
                                 * 0x9E3779B97F4A7C15ULL) >> 33) & mask;
    while (k->okeys[i] != -1 && k->okeys[i] != key) {
        i = (i + 1) & mask;
    }
    return i;
}

static inline long long
ov_lookup(const KernelObject *k, long long key)
{
    Py_ssize_t i = ov_probe(k, key);
    return (k->okeys[i] == key) ? k->ovals[i] : 0;
}

static int
ov_insert(KernelObject *k, long long key, long long value)
{
    Py_ssize_t i = ov_probe(k, key);
    if (k->okeys[i] == key) {
        k->ovals[i] = value;
        return 0;
    }
    if ((k->olen + 1) * 3 >= k->ocap * 2) {
        long long *old_keys = k->okeys;
        long long *old_vals = k->ovals;
        Py_ssize_t old_cap = k->ocap;
        if (ov_alloc(k, old_cap * 2) < 0) {
            k->okeys = old_keys;
            k->ovals = old_vals;
            k->ocap = old_cap;
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t j = 0; j < old_cap; j++) {
            if (old_keys[j] != -1) {
                Py_ssize_t slot = ov_probe(k, old_keys[j]);
                k->okeys[slot] = old_keys[j];
                k->ovals[slot] = old_vals[j];
                k->olen++;
            }
        }
        PyMem_Free(old_keys);
        PyMem_Free(old_vals);
        i = ov_probe(k, key);
    }
    k->okeys[i] = key;
    k->ovals[i] = value;
    k->olen++;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Epoch accounting (mirrors _occ_load/_occ_store/_traverse_congested) */
/* ------------------------------------------------------------------ */

static inline long long
occ_load(const KernelObject *k, long long link, long long epoch)
{
    long long value = k->slots[(epoch & K_WINDOW_MASK) * k->num_links + link];
    long long tag = value >> K_SLOT_SHIFT;
    if (tag == epoch) {
        return value & K_SLOT_OCC_MASK;
    }
    if (tag < epoch) {
        /* Slot tags only grow, so overflow holds no entry for an epoch
         * newer than its slot's tag: nothing to probe. */
        return 0;
    }
    return ov_lookup(k, (epoch << k->link_bits) | link);
}

static int
occ_store(KernelObject *k, long long link, long long epoch, long long occupancy)
{
    Py_ssize_t slot = (Py_ssize_t)((epoch & K_WINDOW_MASK) * k->num_links + link);
    long long value = k->slots[slot];
    long long tag = value >> K_SLOT_SHIFT;
    if (tag == epoch) {
        k->slots[slot] = (epoch << K_SLOT_SHIFT) | occupancy;
    }
    else if (tag < epoch) {
        /* Recycle the slot for the newer epoch.  The retired occupancy
         * stays exactly readable through the overflow map at or above the
         * horizon; below it nothing will read it again, so it is only
         * counted. */
        k->recycles++;
        long long old = value & K_SLOT_OCC_MASK;
        if (old) {
            if (tag < k->horizon) {
                k->retired_flits += old;
            }
            else if (ov_insert(k, (tag << k->link_bits) | link, old) < 0) {
                return -1;
            }
        }
        k->slots[slot] = (epoch << K_SLOT_SHIFT) | occupancy;
    }
    else {
        /* The slot belongs to a newer epoch: this epoch lives in overflow. */
        if (ov_insert(k, (epoch << k->link_bits) | link, occupancy) < 0) {
            return -1;
        }
    }
    return 0;
}

/* The loud refusal (sets SimulationError): a reservation whose head epoch
 * lies below the horizon could meet occupancy that was retired, not
 * archived. */
static void
refuse_below_horizon(const KernelObject *k, long long epoch)
{
    PyObject *error = imported("repro.common.errors", "SimulationError");
    if (error != NULL) {
        PyErr_Format(error,
                     "mesh reservation at epoch %lld is below the horizon %lld",
                     epoch, k->horizon);
        Py_DECREF(error);
    }
}

static double
traverse_congested(KernelObject *k, long long link, long long epoch,
                   double t_head, long long flits, int *err)
{
    long long first = epoch;
    while (occ_load(k, link, epoch) >= K_EPOCH_CYCLES) {
        epoch++;
    }
    double depart = (epoch == first) ? t_head
                                     : (double)(epoch * K_EPOCH_CYCLES);
    long long remaining = flits;
    while (remaining > 0) {
        long long used = occ_load(k, link, epoch);
        long long take = K_EPOCH_CYCLES - used;
        if (take > remaining) {
            take = remaining;
        }
        if (occ_store(k, link, epoch, used + take) < 0) {
            *err = 1;
            return 0.0;
        }
        remaining -= take;
        epoch++;
    }
    return depart;
}

/* Reserve one link at t_head; return the head DEPART time (the broadcast
 * tree adds the hop latency itself, mirroring _traverse_link).  On failure
 * *err is set and so is a Python exception. */
static double
traverse_one(KernelObject *k, long long link, double t_head, long long flits,
             int *err)
{
    long long epoch = ((long long)t_head) >> K_EPOCH_SHIFT;
    if (epoch < k->horizon) {
        refuse_below_horizon(k, epoch);
        *err = 1;
        return 0.0;
    }
    long long occ = occ_load(k, link, epoch);
    if (occ + flits <= K_EPOCH_CYCLES) {
        if (occ_store(k, link, epoch, occ + flits) < 0) {
            *err = 1;
            return 0.0;
        }
        return t_head;
    }
    return traverse_congested(k, link, epoch, t_head, flits, err);
}

/* Reserve a whole registered path and count it; return the TAIL arrival
 * time.  The zero-hop route (a same-tile message) is free and uncounted.
 * Head times only grow along the path, so the head epoch is the message's
 * smallest: one compare against the horizon covers every link.  On failure
 * *err is set and so is a Python exception. */
static double
traverse_links(KernelObject *k, const int32_t *links, long long hops,
               double t_head, long long flits, int *err)
{
    if (hops == 0) {
        return t_head;
    }
    long long t_int = (long long)t_head;
    if ((t_int >> K_EPOCH_SHIFT) < k->horizon) {
        refuse_below_horizon(k, t_int >> K_EPOCH_SHIFT);
        *err = 1;
        return 0.0;
    }
    k->messages_sent++;
    k->flits_sent += flits;
    k->link_flit_traversals += flits * hops;
    double hop = k->hop;
    long long hop_int = k->hop_int;
    for (long long i = 0; i < hops; i++) {
        long long link = links[i];
        long long epoch = t_int >> K_EPOCH_SHIFT;
        long long occ = occ_load(k, link, epoch);
        if (occ + flits <= K_EPOCH_CYCLES) {
            if (occ_store(k, link, epoch, occ + flits) < 0) {
                *err = 1;
                return 0.0;
            }
            t_head += hop;
            t_int += hop_int;
        }
        else {
            t_head = traverse_congested(k, link, epoch, t_head, flits, err)
                     + hop;
            if (*err) {
                return 0.0;
            }
            t_int = (long long)t_head;
        }
    }
    return t_head + (double)(flits - 1);
}

static inline const int32_t *
path_at(KernelObject *k, Py_ssize_t handle, long long *hops)
{
    if (handle < 0 || handle >= k->arena_len) {
        PyErr_SetString(PyExc_ValueError, "bad path handle");
        return NULL;
    }
    const int32_t *p = k->arena + handle;
    *hops = p[0];
    return p + 1;
}

/* ------------------------------------------------------------------ */
/* Type methods                                                        */
/* ------------------------------------------------------------------ */

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"num_links", "link_bits", "hop", NULL};
    long long num_links, link_bits;
    double hop;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LLd", kwlist, &num_links,
                                     &link_bits, &hop)) {
        return NULL;
    }
    if (num_links <= 0 || link_bits < 0 || link_bits > 40) {
        PyErr_SetString(PyExc_ValueError, "bad mesh geometry");
        return NULL;
    }
    if (hop <= 0 || hop != (double)(long long)hop) {
        /* The shadow integer clock (t_int += hop) requires an integral
         * hop latency - exactly as the pure-Python walk does. */
        PyErr_SetString(PyExc_ValueError, "hop latency must be integral");
        return NULL;
    }
    KernelObject *self = (KernelObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->num_links = num_links;
    self->link_bits = link_bits;
    self->hop = hop;
    self->hop_int = (long long)hop;
    /* tp_alloc zero-fills: the counters start at 0, the arena empty. */
    self->slot_count = (Py_ssize_t)(K_WINDOW_EPOCHS * num_links);
    self->slots = PyMem_Calloc((size_t)self->slot_count, sizeof(long long));
    if (self->slots == NULL || ov_alloc(self, 256) < 0) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

static void
Kernel_dealloc(KernelObject *self)
{
    PyMem_Free(self->slots);
    PyMem_Free(self->okeys);
    PyMem_Free(self->ovals);
    PyMem_Free(self->arena);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Kernel_register_path(KernelObject *self, PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "links must be a sequence");
    if (seq == NULL) {
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t need = self->arena_len + n + 1;
    if (need > self->arena_cap) {
        Py_ssize_t cap = self->arena_cap ? self->arena_cap : 256;
        while (cap < need) {
            cap *= 2;
        }
        int32_t *arena = PyMem_Realloc(self->arena,
                                       (size_t)cap * sizeof(int32_t));
        if (arena == NULL) {
            Py_DECREF(seq);
            return PyErr_NoMemory();
        }
        self->arena = arena;
        self->arena_cap = cap;
    }
    int32_t *out = self->arena + self->arena_len;
    out[0] = (int32_t)n;
    for (Py_ssize_t i = 0; i < n; i++) {
        long long link = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (link == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (link < 0 || link >= self->num_links) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "link id out of range");
            return NULL;
        }
        out[1 + i] = (int32_t)link;
    }
    Py_DECREF(seq);
    Py_ssize_t handle = self->arena_len;
    self->arena_len = need;
    return PyLong_FromSsize_t(handle);
}

static PyObject *
Kernel_traverse(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "traverse(handle, t_head, flits)");
        return NULL;
    }
    Py_ssize_t handle = PyLong_AsSsize_t(args[0]);
    double t_head = PyFloat_AsDouble(args[1]);
    long long flits = PyLong_AsLongLong(args[2]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    long long hops;
    const int32_t *links = path_at(self, handle, &hops);
    if (links == NULL) {
        return NULL;
    }
    int err = 0;
    double out = traverse_links(self, links, hops, t_head, flits, &err);
    if (err) {
        return NULL;
    }
    return PyFloat_FromDouble(out);
}

static PyObject *
Kernel_traverse_link(KernelObject *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "traverse_link(link, t_head, flits)");
        return NULL;
    }
    long long link = PyLong_AsLongLong(args[0]);
    double t_head = PyFloat_AsDouble(args[1]);
    long long flits = PyLong_AsLongLong(args[2]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (link < 0 || link >= self->num_links) {
        PyErr_SetString(PyExc_ValueError, "link id out of range");
        return NULL;
    }
    int err = 0;
    double out = traverse_one(self, link, t_head, flits, &err);
    if (err) {
        return NULL;
    }
    return PyFloat_FromDouble(out);
}

static PyObject *
Kernel_raise_horizon(KernelObject *self, PyObject *arg)
{
    long long epoch = PyLong_AsLongLong(arg);
    if (epoch == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (epoch > self->horizon) {
        self->horizon = epoch;
    }
    Py_RETURN_NONE;
}

static PyObject *
Kernel_overflow_len(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->olen);
}

static PyObject *
Kernel_overflow_items(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->olen);
    if (out == NULL) {
        return NULL;
    }
    Py_ssize_t pos = 0;
    for (Py_ssize_t i = 0; i < self->ocap; i++) {
        if (self->okeys[i] == -1) {
            continue;
        }
        PyObject *item = Py_BuildValue("(LL)", self->okeys[i],
                                       self->ovals[i]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, pos++, item);
    }
    return out;
}

static PyObject *
Kernel_get_slots(KernelObject *self, void *Py_UNUSED(closure))
{
    PyObject *raw = PyMemoryView_FromObject((PyObject *)self);
    if (raw == NULL) {
        return NULL;
    }
    PyObject *view = PyObject_CallMethod(raw, "cast", "s", "q");
    Py_DECREF(raw);
    return view;
}

static int
Kernel_getbuffer(KernelObject *self, Py_buffer *view, int flags)
{
    return PyBuffer_FillInfo(view, (PyObject *)self, self->slots,
                             self->slot_count * (Py_ssize_t)sizeof(long long),
                             0, flags);
}

static PyMethodDef Kernel_methods[] = {
    {"register_path", (PyCFunction)Kernel_register_path, METH_O,
     "register_path(links) -> handle"},
    {"traverse", (PyCFunction)(void (*)(void))Kernel_traverse,
     METH_FASTCALL, "traverse(handle, t_head, flits) -> tail arrival"},
    {"traverse_link", (PyCFunction)(void (*)(void))Kernel_traverse_link,
     METH_FASTCALL, "traverse_link(link, t_head, flits) -> head depart"},
    {"raise_horizon", (PyCFunction)Kernel_raise_horizon, METH_O,
     "raise_horizon(epoch): no reservation will start below epoch (a lower "
     "value is ignored)"},
    {"overflow_len", (PyCFunction)Kernel_overflow_len, METH_NOARGS, NULL},
    {"overflow_items", (PyCFunction)Kernel_overflow_items, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

#define K_MEMBER(name, flags) \
    {#name, T_LONGLONG, offsetof(KernelObject, name), flags, NULL}

static PyMemberDef Kernel_members[] = {
    K_MEMBER(recycles, 0),
    K_MEMBER(messages_sent, 0),
    K_MEMBER(flits_sent, 0),
    K_MEMBER(link_flit_traversals, 0),
    K_MEMBER(retired_flits, 0),
    K_MEMBER(link_bits, READONLY),
    K_MEMBER(horizon, READONLY),
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef Kernel_getset[] = {
    {"slots", (getter)Kernel_get_slots, NULL,
     "flat int64 view of the slot table", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyBufferProcs Kernel_as_buffer = {
    (getbufferproc)Kernel_getbuffer,
    NULL,
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.MeshKernel",
    .tp_basicsize = sizeof(KernelObject),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Epoch ring-buffer bandwidth accounting for one MeshNetwork",
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_getset = Kernel_getset,
    .tp_as_buffer = &Kernel_as_buffer,
    .tp_new = Kernel_new,
};

/* ------------------------------------------------------------------ */
/* The entries of the engine and scheduler kernels (via _accel.h)      */
/* ------------------------------------------------------------------ */

int
repro_mesh_check(PyObject *obj)
{
    return PyObject_TypeCheck(obj, &KernelType);
}

int
repro_mesh_traverse(PyObject *mesh, Py_ssize_t handle, double t_head,
                    long long flits, double *out)
{
    KernelObject *k = (KernelObject *)mesh;
    long long hops;
    const int32_t *links = path_at(k, handle, &hops);
    if (links == NULL) {
        return -1;
    }
    int err = 0;
    double tail = traverse_links(k, links, hops, t_head, flits, &err);
    if (err) {
        return -1;
    }
    *out = tail;
    return 0;
}

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_repro_mesh_kernel",
    .m_doc = "Compiled mesh traversal kernel (see repro.accel)",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__repro_mesh_kernel(void)
{
    if (PyType_Ready(&KernelType) < 0) {
        return NULL;
    }
    PyObject *mod = PyModule_Create(&kernel_module);
    if (mod == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(mod, "MeshKernel", (PyObject *)&KernelType) < 0
        || PyModule_AddIntConstant(mod, "EPOCH_CYCLES", K_EPOCH_CYCLES) < 0
        || PyModule_AddIntConstant(mod, "EPOCH_SHIFT", K_EPOCH_SHIFT) < 0
        || PyModule_AddIntConstant(mod, "WINDOW_EPOCHS", K_WINDOW_EPOCHS) < 0
        || PyModule_AddIntConstant(mod, "SLOT_SHIFT", K_SLOT_SHIFT) < 0
        || PyModule_AddIntConstant(mod, "ABI_VERSION", K_ABI_VERSION) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    /* The scheduler kernel and the engine kernel with its family
     * subtypes, compiled from the sibling _sched.c, _home.c, _directory.c,
     * _dls.c and _neat.c into this same module (the subtypes register
     * after their base). */
    if (repro_sched_register(mod) < 0 || repro_home_register(mod) < 0
        || repro_directory_register(mod) < 0 || repro_dls_register(mod) < 0
        || repro_neat_register(mod) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
