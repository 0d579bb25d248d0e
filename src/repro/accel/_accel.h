/* Declarations shared by the translation units of _repro_mesh_kernel.
 *
 * _kernel.c (the mesh kernel and the module init), _sched.c (the
 * scheduler kernel) and _home.c (the home kernel) compile into one shared
 * object; this header is the only interface between them.  The build
 * cache fingerprints it like the .c files.
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

/* Type registration, called from the module init in _kernel.c. */
int repro_sched_register(PyObject *mod);
int repro_home_register(PyObject *mod);

#endif
