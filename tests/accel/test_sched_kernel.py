"""Scheduler-kernel equivalence and seam tests (DESIGN.md section 14).

``Simulator._execute`` is one trampoline over either record walk: the
compiled ``SchedKernel``, which owns the walk, the min-clock heap and the
L1-hit fast path natively, or its pure-Python twin ``PySchedKernel``, the
reference.  Both exit at the same synchronization records with the same
state, so their contract is **bit-identical** ``RunStats`` - these tests
pin it where the compiled kernel's deferred state is most at risk:

* sync-heavy traces (tsp locks, radix barriers) under both
  implementations,
* protocol families without a scheduler fast path (dls), where every
  access exits to Python yet the cursor/heap walk stays native,
* verify mode, whose final-state sweep reads the caches the kernel's
  flush must have reconciled,
* the build fault gate (``accel.build_fail`` takes both kernels down
  together - there is one selection, not one per kernel),
* observer detach: caches never retain a membership hook after a run,
* the kernel contract itself: on random lock/barrier programs both kernels
  return the same ``run()`` exits, clocks and ``finish()`` rows.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import build
from repro.common import addr as addrmod
from repro.common.params import (
    ArchConfig,
    CacheGeometry,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
)
from repro.faults import FAULTS, FaultRule, FaultSchedule
from repro.mem.cache import SetAssocCache
from repro.sim.multicore import PySchedKernel, Simulator
from repro.workloads.base import TraceBuilder
from repro.workloads.registry import load_workload

pytestmark = pytest.mark.skipif(
    build.find_compiler() is None, reason="no C compiler on this host"
)

ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)


@pytest.fixture(autouse=True)
def clean_selection(monkeypatch):
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    yield
    FAULTS.deactivate()
    accel.reset()


def _run(trace, proto, monkeypatch, *, fallback, verify=False):
    if fallback:
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
    else:
        monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    return Simulator(ARCH, proto, warmup=True, verify=verify).run(trace)


def _both(trace, proto, monkeypatch, **kwargs):
    """The compiled run and the pure-Python run, as ``RunStats`` dicts."""
    return [
        _run(trace, proto, monkeypatch, fallback=fallback, **kwargs).to_dict()
        for fallback in (False, True)
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["tsp", "radix"])
    def test_sync_heavy_identical_across_combos(self, workload, monkeypatch):
        """tsp is lock-heavy, radix barrier-heavy: every Python exit path
        (advance, continue_at, wake) is on the line here."""
        trace = load_workload(workload, ARCH, scale="tiny")
        compiled, fallback = _both(trace, baseline_protocol(), monkeypatch)
        assert compiled == fallback

    def test_no_fast_path_family_identical(self, monkeypatch):
        """dls publishes no scheduler fast path: the kernel still walks the
        trace natively but calls ``access`` for every memory record."""
        trace = load_workload("radix", ARCH, scale="tiny")
        compiled, fallback = _both(trace, dls_protocol(), monkeypatch)
        assert compiled == fallback

    def test_verify_mode_identical(self, monkeypatch):
        """Verify mode sweeps final cache state - anything the kernel
        deferred (LRU, utilization, E->M upgrades) must have been flushed."""
        trace = load_workload("tsp", ARCH, scale="tiny")
        compiled, fallback = _both(trace, neat_protocol(), monkeypatch, verify=True)
        assert compiled == fallback


class TestSeams:
    def test_build_fault_forces_both_fallbacks(self):
        """An injected build failure (chaos cell ``build-fail``) takes the
        mesh and the scheduler kernel down together."""
        FAULTS.activate(FaultSchedule(seed=0, rules=(
            FaultRule("accel.build_fail", times=0),
        )))
        accel.reset()
        assert accel.mesh_kernel_class() is None
        assert accel.sched_kernel_class() is None
        for kernel in accel.status()["kernels"].values():
            assert kernel["implementation"] == "fallback"
            assert "fault injected" in kernel["reason"]

    def test_observers_detached_after_run(self, monkeypatch):
        """The kernel attaches per-store membership hooks for the duration
        of one execution only; a leaked hook would corrupt the next run's
        native map.  Track every cache built during the run."""
        live: list[SetAssocCache] = []
        orig_init = SetAssocCache.__init__

        def tracking_init(self, geometry):
            orig_init(self, geometry)
            live.append(self)

        monkeypatch.setattr(SetAssocCache, "__init__", tracking_init)
        trace = load_workload("tsp", ARCH, scale="tiny")
        Simulator(ARCH, baseline_protocol(), warmup=True).run(trace)
        assert accel.active_impl() == "accel"
        assert live, "no caches observed"
        assert all(cache._observer is None for cache in live)

    def test_fast_hit_counters_survive_kernel_path(self, monkeypatch):
        """The deferred hit counters must land in telemetry-visible form:
        the kernel path reports the same fast-path hit totals as Python."""
        trace = load_workload("tsp", ARCH, scale="tiny")
        sim_on = Simulator(ARCH, baseline_protocol(), warmup=True)
        sim_on.run(trace)
        on = (sim_on._fast_read_hits, sim_on._fast_write_hits)
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
        sim_off = Simulator(ARCH, baseline_protocol(), warmup=True)
        sim_off.run(trace)
        assert on == (sim_off._fast_read_hits, sim_off._fast_write_hits)
        assert on[0] > 0


# ---------------------------------------------------------------------------
# The kernel contract: the one trampoline relies on both kernels exiting at
# the same records with the same state.
# ---------------------------------------------------------------------------

CONTRACT_ARCH = ArchConfig(
    num_cores=4, num_memory_controllers=2, l1d=CacheGeometry(1, 2, 1)
)
LINES = 16
#: Lines sit 4 apart, so the 16 of them share two of the 2-way L1's eight
#: sets: evictions (the compiled kernel's observer path) are frequent.
LINE_STRIDE = 4 * addrmod.LINE_SIZE

_access = st.tuples(
    st.sampled_from(("read", "write")),
    st.integers(0, LINES - 1),
    st.integers(0, addrmod.WORDS_PER_LINE - 1),
)
_work = st.tuples(st.just("work"), st.integers(1, 300))
_plain = st.one_of(_access, _work)
_locked = st.tuples(st.just("locked"), st.integers(1, 2), st.lists(_plain, max_size=3))
_segment = st.lists(st.one_of(_plain, _locked), max_size=6)
#: Up to three segments of four per-core step lists, with ``barrier_all``
#: between segments but not after the last, so a core may end on UNLOCK.
programs = st.lists(st.tuples(*[_segment] * CONTRACT_ARCH.num_cores), min_size=1, max_size=3)


def _emit(thread, step, base: int) -> None:
    kind = step[0]
    if kind == "work":
        thread.work(step[1])
    elif kind == "locked":
        thread.lock(step[1])
        for inner in step[2]:
            _emit(thread, inner, base)
        thread.unlock(step[1])
    else:
        address = base + step[1] * LINE_STRIDE + step[2] * addrmod.WORD_SIZE
        (thread.write if kind == "write" else thread.read)(address)


def _build(program):
    builder = TraceBuilder("contract", CONTRACT_ARCH.num_cores)
    base = builder.address_space.alloc("lines", LINES * LINE_STRIDE)
    for number, segment in enumerate(program):
        if number:
            builder.barrier_all()
        for tid, steps in enumerate(segment):
            for step in steps:
                _emit(builder.thread(tid), step, base)
    return builder.build()


def _recording(kernel_cls, log: list):
    """``kernel_cls`` with every ``run()`` return and the ``clocks()`` and
    ``finish()`` results appended to ``log``."""

    class Recorded:
        def __init__(self, *args) -> None:
            self._kernel = kernel_cls(*args)

        def run(self):
            exit_ = self._kernel.run()
            log.append(("run", exit_))
            return exit_

        def clocks(self):
            clocks = self._kernel.clocks()
            log.append(("clocks", clocks))
            return clocks

        def finish(self):
            out = self._kernel.finish()
            log.append(("finish", out))
            return out

        def __getattr__(self, name: str):
            return getattr(self._kernel, name)

    return Recorded


class TestKernelContract:
    @pytest.mark.parametrize(
        "proto",
        [baseline_protocol(), neat_protocol(downgrade="release"), dls_protocol()],
        ids=["baseline", "neat-release", "dls"],
    )
    @settings(max_examples=60, deadline=None)
    @given(program=programs)
    def test_python_twin_exits_like_compiled(self, proto, program):
        """baseline has the inline hit path, Neat release mode the sync
        hook, dls neither: each kernel's record log and the RunStats must
        agree exactly."""
        compiled = accel.sched_kernel_class()
        assert compiled is not None
        trace = _build(program)
        runs = []
        for kernel_cls in (compiled, PySchedKernel):
            log: list = []
            with mock.patch.object(
                accel, "sched_kernel_class", lambda: _recording(kernel_cls, log)
            ):
                stats = Simulator(CONTRACT_ARCH, proto, warmup=True).run(trace)
            runs.append((log, stats.to_dict()))
        assert runs[0] == runs[1]
