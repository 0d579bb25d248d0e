"""A work-count guard: Python calls per access of the compiled families.

Every DLS and Neat access, and every miss of the directory families, is
one ``engine.access`` frame around one call into the engine's compiled
kernel (DESIGN.md section 15).  This test counts, with ``sys.setprofile``,
the Python frames that one tiny radix run at 16 cores opens inside
``engine.access`` - the access frame itself and everything it calls - and
divides by the number of accesses.  Counts of Python frames do not drift
with the host's speed, so the bounds can be tight.

Measured (CPython 3.11, compiled kernels): 1.61 calls per access for DLS,
Neat eager and Neat release alike; 3.54 for baseline, 3.27 for
adaptive-4, 2.68 for phase and 3.57 for victim.  The one access frame is
1.0; the rest are the rare steps that stay Python - a private -> shared
page flush (``_flush_private_page``: an L2 lookup per line of the page;
each resident line's eviction is one kernel call), a route's first
registration (``MeshNetwork.resolve_path``), a page's classification
(``RNucaPageTable.classify_data``) and, in the directory families, an
ACKwise broadcast invalidation (``MeshNetwork.broadcast``).  DLS and
Neat enter ``engine.access`` on every access, hits included; the
directory families enter it only on misses, because the scheduler kernel
retires their L1 hits natively.  So the same rare steps are shared by
about a quarter as many accesses, and weigh more per access.  When each
access was serviced in Python, the counts were 3.28 (DLS), 9.5 (Neat),
4.81 (phase, whose policy was a Python hook) and 14.5 (victim, whose
replica steps were Python hooks); the pure-Python twins read more still.

Each family's bound leaves about half a frame per access of headroom
over its measured count (0.39 for DLS and Neat), so it fails on one more
Python frame per access - a Python hook on every miss - or on a kernel
that silently falls back to its twin.
"""

from __future__ import annotations

import sys

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import (
    ArchConfig,
    adaptive_protocol,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    victim_replication_protocol,
)
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

#: Family -> (protocol factory, bound on Python calls per access, the
#: access frame included; see the module docstring for the measured
#: values).
FAMILIES = {
    "dls": (dls_protocol, 2.0),
    "neat-eager": (neat_protocol, 2.0),
    "neat-release": (lambda: neat_protocol("release"), 2.0),
    "baseline": (baseline_protocol, 4.0),
    "adaptive-4": (lambda: adaptive_protocol(4), 3.8),
    "phase": (phase_protocol, 3.2),
    "victim": (victim_replication_protocol, 4.1),
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
    factory, bound = FAMILIES[family]
    sim = Simulator(arch, factory(), warmup=True)
    sim.run(trace)  # imports and lazily built tables settle first
    per_access, accesses = _calls_per_access(sim, trace)
    assert accesses > 1000
    assert per_access <= bound, (
        f"{family}: {per_access:.3f} Python calls per access over {accesses} accesses "
        f"(bound {bound})"
    )
