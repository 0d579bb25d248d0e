"""Each compiled kernel and its pure-Python twin expose the same methods.

Six kernel pairs back the simulator (DESIGN.md sections 12, 14 and 15):
the mesh kernel, the scheduler kernel, the home kernel and its three
family subtypes (directory, DLS and Neat).  Their contract properties
drive both sides through the methods the engines call, so a compiled
method that outlives its twin, or a twin method the compiled kernel
lacks, would go unnoticed there.  This test compares the public callable
names of one compiled instance and one twin instance per pair.

Instances, not classes: the twins hold ``data_home`` and
``data_word_home`` as slots bound to the placement's methods, which a
class does not show.
"""

from __future__ import annotations

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import ArchConfig, baseline_protocol, dls_protocol, neat_protocol
from repro.mem.l2 import L2Line
from repro.network.mesh import PyMeshKernel
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.directory import DirectoryEngine, PyDirectoryKernel
from repro.protocol.dls import DLSEngine, PyDLSKernel
from repro.protocol.home import PyHomeKernel
from repro.protocol.neat import NeatEngine, PyNeatKernel
from repro.sim.multicore import PySchedKernel
from repro.workloads.base import TraceBuilder

ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)


@pytest.fixture(autouse=True)
def compiled_kernels(monkeypatch):
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    if build.find_compiler() is None or accel.home_kernel_class() is None:
        pytest.skip("compiled kernels unavailable")
    yield
    accel.reset()


def _public_callables(obj) -> set[str]:
    return {name for name in dir(obj)
            if not name.startswith("_") and callable(getattr(obj, name))}


def _mesh_pair():
    args = (48, 6, 2)
    return accel.mesh_kernel_class()(*args), PyMeshKernel(*args)


def _sched_pair():
    engine = DirectoryEngine(ARCH, baseline_protocol())
    builder = TraceBuilder("surface", ARCH.num_cores)
    builder.thread(0).read_words(0x1000, 1)
    trace = builder.build()
    args = (trace.ops, trace.addresses, trace.works, [0.0] * ARCH.num_cores,
            float(ARCH.l1d.latency), engine.access, AccessResult,
            engine.scheduler_fast_path(), engine.network.kernel)
    return accel.sched_kernel_class()(*args), PySchedKernel(*args)


def _engine_pair(engine_class, protocol, twin_class):
    def pair():
        engine = engine_class(ARCH, protocol())
        return engine.home_kernel, twin_class(engine, L2Line, AccessResult)
    return pair


PAIRS = {
    "mesh": _mesh_pair,
    "sched": _sched_pair,
    "home": _engine_pair(ProtocolEngineBase, baseline_protocol, PyHomeKernel),
    "directory": _engine_pair(DirectoryEngine, baseline_protocol, PyDirectoryKernel),
    "dls": _engine_pair(DLSEngine, dls_protocol, PyDLSKernel),
    "neat": _engine_pair(NeatEngine, neat_protocol, PyNeatKernel),
}


@pytest.mark.parametrize("kernel", sorted(PAIRS))
def test_compiled_kernel_and_twin_expose_the_same_methods(kernel):
    compiled, twin = PAIRS[kernel]()
    assert type(compiled).__module__ == "_repro_mesh_kernel", type(compiled)
    assert type(twin).__module__.startswith("repro."), type(twin)
    methods = _public_callables(compiled)
    assert methods, kernel
    assert methods == _public_callables(twin), (
        f"only compiled: {sorted(methods - _public_callables(twin))}; "
        f"only twin: {sorted(_public_callables(twin) - methods)}"
    )
