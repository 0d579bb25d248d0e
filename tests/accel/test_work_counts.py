"""A work-count guard: Python calls per DLS and Neat access.

Every DLS and Neat access is one ``engine.access`` frame around one call
into the engine's compiled kernel (DESIGN.md section 15).  This test
counts, with ``sys.setprofile``, the Python frames that one tiny radix
run at 16 cores opens inside ``engine.access`` - the access frame itself
and everything it calls - and divides by the number of accesses.  Counts
of Python frames do not drift with the host's speed, so the bound can be
tight.

Measured (CPython 3.11, compiled kernels): 1.66 calls per access for DLS,
Neat eager and Neat release alike.  The one access frame is 1.0; the
rest are the rare steps that stay Python - a private -> shared page flush
(an L2 lookup per line of the page and ``_evict_l2_line`` per resident
line), a route's first registration (``MeshNetwork.resolve_path``) and a
page's classification (``RNucaPageTable.classify_data``).  When each
access was serviced in Python, the counts were 3.28 (DLS) and 9.5
(Neat); the pure-Python twins read more still.  The bound, 2.0, leaves
about 20% headroom over the measured count and fails on one more Python
frame per access, or on a kernel that silently falls back to its twin.
"""

from __future__ import annotations

import sys

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import ArchConfig, dls_protocol, neat_protocol
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

#: Python calls per access, the access frame included (see the module
#: docstring for the measured value).
CALLS_PER_ACCESS_BOUND = 2.0

FAMILIES = {
    "dls": dls_protocol,
    "neat-eager": neat_protocol,
    "neat-release": lambda: neat_protocol("release"),
}


@pytest.fixture(autouse=True)
def compiled_kernels(monkeypatch):
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    if build.find_compiler() is None or accel.home_kernel_class() is None:
        pytest.skip("compiled kernels unavailable: the bound is the compiled kernels'")
    yield
    accel.reset()


def _calls_per_access(sim: Simulator, trace) -> tuple[float, int]:
    """Python frames opened inside ``engine.access`` during one run, per
    access, and the number of accesses."""
    code = type(sim.last_engine).access.__code__
    state = {"depth": 0, "inside": 0, "accesses": 0}

    def profile(frame, event, _arg):
        if event == "call":
            if frame.f_code is code:
                state["accesses"] += 1
                state["depth"] += 1
            if state["depth"]:
                state["inside"] += 1
        elif event == "return" and frame.f_code is code:
            state["depth"] -= 1

    sys.setprofile(profile)
    try:
        sim.run(trace)
    finally:
        sys.setprofile(None)
    return state["inside"] / state["accesses"], state["accesses"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_python_calls_per_access_stay_bounded(family):
    arch = ArchConfig(num_cores=16)
    trace = load_workload("radix", arch, scale="tiny")
    sim = Simulator(arch, FAMILIES[family](), warmup=True)
    sim.run(trace)  # imports and lazily built tables settle first
    per_access, accesses = _calls_per_access(sim, trace)
    assert accesses > 1000
    assert per_access <= CALLS_PER_ACCESS_BOUND, (
        f"{family}: {per_access:.3f} Python calls per access over {accesses} accesses "
        f"(bound {CALLS_PER_ACCESS_BOUND})"
    )
