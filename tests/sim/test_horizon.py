"""The scheduler's horizon bounds the mesh kernel's epoch history.

Before every engine call, each scheduler kernel raises the mesh kernel's
horizon to the epoch of ``min(now, floor)``: ``now`` is the running
core's clock, the heap minimum, and ``floor`` the smallest final clock of
a core that has run out of records (DESIGN.md sections 8 and 14).  A slot
recycled below the horizon counts its occupancy in ``retired_flits``
instead of archiving it, and a reservation below the horizon raises
``SimulationError``.  These tests pin, through ``Simulator``:

* **twins agree** - for every family, the compiled kernels and the
  pure-Python twins end a run with the same horizon, retired flits and
  overflow entries (and the same ``RunStats``);
* **bounded history** - k repeats of one barrier-separated phase keep the
  overflow map under a fixed bound as k grows, where without the horizon
  it grew linearly with k;
* **the floor** - a core that finishes early, with no closing barrier,
  holds the horizon down: the measured pass restarts it from its warmup
  final clock, and Neat release flushes its buffered stores there.  The
  same run records the bound's limit: while the finished core pins the
  horizon, most of the history is archived.
"""

from __future__ import annotations

import pytest

from repro.accel.build import NO_ACCEL_ENV
from repro.common.params import (
    ArchConfig,
    CacheGeometry,
    adaptive_protocol,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    victim_replication_protocol,
)
from repro.sim.multicore import Simulator
from repro.workloads.base import TraceBuilder
from repro.workloads.registry import load_workload

BASE = 1 << 30
LINE = 64

ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)
#: Small caches: most accesses miss, so every phase reserves mesh links.
SMALL_CACHES = ArchConfig(
    num_cores=16,
    num_memory_controllers=4,
    l1d=CacheGeometry(1, 2, 1),
    l2=CacheGeometry(4, 4, 7),
)

FAMILIES = {
    "adaptive-4": lambda: adaptive_protocol(4),
    "baseline": baseline_protocol,
    "victim": victim_replication_protocol,
    "dls": dls_protocol,
    "neat": neat_protocol,
    "neat-release": lambda: neat_protocol(downgrade="release"),
    "phase": phase_protocol,
}

#: Overflow entries allowed at the end of a phased run, whatever k is.
#: Measured: 0 for baseline and DLS at every k in 2..16 under both
#: implementations.  Without the horizon, baseline ended with 1,770
#: entries at k = 2 and 48,809 at k = 16, and DLS with 312 and 26,723.
OVERFLOW_BOUND = 256


def _run(arch, proto, trace, warmup=True):
    sim = Simulator(arch, proto, warmup=warmup)
    stats = sim.run(trace)
    return stats, sim.last_engine.network


def _history(network) -> tuple[int, int, int]:
    kernel = network.kernel
    return kernel.horizon, kernel.retired_flits, kernel.overflow_len()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_twins_end_with_the_same_history(family, monkeypatch):
    trace = load_workload("radix", ARCH, scale="tiny")
    runs = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setenv(NO_ACCEL_ENV, "1")
        else:
            monkeypatch.delenv(NO_ACCEL_ENV, raising=False)
        stats, network = _run(ARCH, FAMILIES[family](), trace)
        runs.append((stats.to_dict(), _history(network)))
    assert runs[0] == runs[1]
    _stats, (horizon, retired, _overflow) = runs[0]
    assert horizon > 0 and retired > 0


def _phased(k: int):
    """k repeats of one phase: every core reads and writes lines that
    other cores share, then all meet at a barrier."""
    tb = TraceBuilder("phases", 16)
    for _ in range(k):
        for tid in range(16):
            tp = tb.thread(tid)
            for i in range(24):
                tp.work(5)
                tp.read(BASE + ((tid * 5 + i) % 64) * LINE)
                if i % 4 == 0:
                    tp.write(BASE + ((tid + i) % 64) * LINE)
        tb.barrier_all()
    return tb.build()


@pytest.mark.parametrize("family", ["baseline", "dls"])
def test_phased_history_stays_bounded(family, implementation):
    retired = []
    for k in (2, 4, 8):
        _stats, network = _run(SMALL_CACHES, FAMILIES[family](), _phased(k))
        assert network.kernel.overflow_len() <= OVERFLOW_BOUND, k
        retired.append(network.retired_flits)
    # The history is retired, and more of it the longer the run.
    assert 0 < retired[0] < retired[1] < retired[2]


def _early_finisher():
    """Core 0 reads a line the others go on writing, writes a line of its
    own and finishes; cores 1-15 run for many windows more, with no
    closing barrier."""
    tb = TraceBuilder("early-finisher", 16)
    shared = BASE
    first = tb.thread(0)
    first.read(shared)
    first.write(BASE + 64 * LINE)
    for tid in range(1, 16):
        tp = tb.thread(tid)
        for i in range(60):
            tp.work(100)
            tp.write(shared)
            tp.read(BASE + (tid * 128 + i) * LINE)
    return tb.build()


#: Overflow entries at the end of the early-finisher run, measured under
#: both implementations: the limit of the bound.  Core 0's final clock
#: pins the horizon for the rest of each pass, so most of the history is
#: archived; with every epoch archived the run ends with 14,220 (baseline)
#: and 1,112 (Neat release) entries.
EARLY_FINISHER_OVERFLOW = {"baseline": 10_924, "neat-release": 1_053}


@pytest.mark.parametrize("family", ["baseline", "neat-release"])
def test_finished_core_holds_the_horizon_down(family, implementation):
    """Without the floor the warmup would raise the horizon far past core
    0's final clock.  The measured pass restarts core 0 there, and its
    read of the line the others wrote misses; Neat release also flushes
    core 0's buffered store at that clock when the trace ends."""
    stats, network = _run(SMALL_CACHES, FAMILIES[family](), _early_finisher())
    assert stats.completion_time > 0
    assert network.kernel.horizon > 0
    assert network.kernel.overflow_len() == EARLY_FINISHER_OVERFLOW[family]
