"""Simulator tests: scheduling, barriers, locks, warmup, engine lifetime,
stats plumbing."""

import gc
import weakref

import pytest

from repro.common.errors import SimulationError, TraceError
from repro.common.params import ArchConfig, CacheGeometry, ProtocolConfig, baseline_protocol
from repro.sim import multicore
from repro.sim.multicore import Simulator
from repro.workloads.base import Trace, TraceBuilder

BASE = 1 << 30
LINE = 64


def arch16():
    return ArchConfig(
        num_cores=16,
        num_memory_controllers=4,
        l1d=CacheGeometry(1, 2, 1),
        l2=CacheGeometry(4, 4, 7),
    )


def build_trace(body, name="test", cores=16):
    tb = TraceBuilder(name, cores)
    body(tb)
    return tb.build()


class TestBasicExecution:
    def test_empty_trace(self):
        trace = build_trace(lambda tb: None)
        stats = Simulator(arch16(), baseline_protocol()).run(trace)
        assert stats.completion_time == 0.0

    def test_compute_only(self):
        def body(tb):
            for tid in range(16):
                tb.thread(tid).work(100)
        stats = Simulator(arch16(), baseline_protocol()).run(build_trace(body))
        assert stats.completion_time == pytest.approx(100.0)
        assert stats.instructions == 16 * 100

    def test_memory_access_adds_latency(self):
        def body(tb):
            tb.thread(0).read(BASE)
        stats = Simulator(arch16(), baseline_protocol()).run(build_trace(body))
        assert stats.completion_time > 1.0  # miss to DRAM
        assert stats.miss.misses == 1
        assert stats.dram_requests == 1

    def test_wrong_core_count_rejected(self):
        trace = build_trace(lambda tb: None, cores=4)
        with pytest.raises(SimulationError):
            Simulator(arch16(), baseline_protocol()).run(trace)

    def test_determinism(self):
        def body(tb):
            for tid in range(16):
                tp = tb.thread(tid)
                for i in range(20):
                    tp.work(3)
                    tp.read(BASE + ((tid * 7 + i) % 40) * LINE)
            tb.barrier_all()
        sim = Simulator(arch16(), ProtocolConfig(pct=4))
        a = sim.run(build_trace(body))
        b = sim.run(build_trace(body))
        assert a.completion_time == b.completion_time
        assert a.energy.total == b.energy.total


class TestBarriers:
    def test_barrier_aligns_cores(self):
        def body(tb):
            for tid in range(16):
                tb.thread(tid).work(10 * tid)  # staggered arrivals
            tb.barrier_all()
            for tid in range(16):
                tb.thread(tid).work(5)
        arch = arch16()
        stats = Simulator(arch, baseline_protocol()).run(build_trace(body))
        # Everyone resumes at max(arrival) + barrier latency, then +5.
        assert stats.completion_time == pytest.approx(150 + arch.barrier_latency + 5)

    def test_sync_time_charged_to_waiters(self):
        def body(tb):
            tb.thread(0).work(1000)
            tb.barrier_all()
        stats = Simulator(arch16(), baseline_protocol()).run(build_trace(body))
        assert stats.latency.sync > 0

    def test_mismatched_barriers_rejected_at_build(self):
        tb = TraceBuilder("bad", 2)
        tb.thread(0)._barrier(0)  # only thread 0 hits the barrier
        with pytest.raises(TraceError):
            tb.build()


class TestLocks:
    def test_lock_serializes_critical_sections(self):
        def body(tb):
            for tid in range(16):
                tp = tb.thread(tid)
                tp.lock(1)
                tp.work(50)
                tp.unlock(1)
        arch = arch16()
        stats = Simulator(arch, baseline_protocol()).run(build_trace(body))
        # 16 critical sections of 50 cycles must serialize.
        assert stats.completion_time >= 16 * 50

    def test_unlock_without_lock_rejected_at_build(self):
        tb = TraceBuilder("bad", 2)
        tb.thread(0).unlock(3)
        with pytest.raises(TraceError):
            tb.build()

    def test_fifo_grant_order(self):
        # Thread 0 holds the lock long; 1 and 2 queue behind in arrival order.
        def body(tb):
            t0, t1, t2 = tb.thread(0), tb.thread(1), tb.thread(2)
            t0.lock(0)
            t0.work(500)
            t0.unlock(0)
            t1.work(10)
            t1.lock(0)
            t1.unlock(0)
            t2.work(20)
            t2.lock(0)
            t2.unlock(0)
        trace = build_trace(body, cores=4)
        stats = Simulator(ArchConfig(num_cores=4, num_memory_controllers=2),
                          baseline_protocol()).run(trace)
        assert stats.completion_time > 500


class TestWarmup:
    def _trace(self):
        def body(tb):
            for tid in range(16):
                tp = tb.thread(tid)
                for i in range(30):
                    tp.work(2)
                    tp.read(BASE + ((tid + i) % 64) * LINE)
            tb.barrier_all()
        return build_trace(body)

    def test_warmup_lowers_measured_miss_rate(self):
        cold = Simulator(arch16(), baseline_protocol(), warmup=False).run(self._trace())
        warm = Simulator(arch16(), baseline_protocol(), warmup=True).run(self._trace())
        assert warm.miss.miss_rate <= cold.miss.miss_rate
        assert warm.completion_time <= cold.completion_time

    def test_warmup_measures_one_pass(self):
        warm = Simulator(arch16(), baseline_protocol(), warmup=True).run(self._trace())
        cold = Simulator(arch16(), baseline_protocol(), warmup=False).run(self._trace())
        # Both report a single pass's accesses.
        assert warm.miss.accesses == cold.miss.accesses


class TestEngineLifetime:
    def test_rerun_releases_the_previous_engine_first(self, monkeypatch):
        """A re-run drops the last run's engine before it builds the next,
        so one Simulator never holds two engines at its peak.  Engines
        die by reference counting: with the cyclic collector off, the
        first engine must already be gone when ``make_engine`` runs."""
        def body(tb):
            for tid in range(16):
                tb.thread(tid).read(BASE + tid * LINE)
        trace = build_trace(body)
        sim = Simulator(arch16(), baseline_protocol(), warmup=True)
        sim.run(trace)
        first = weakref.ref(sim.last_engine)
        dead_at_build = []
        build = multicore.make_engine

        def checked_build(*args, **kwargs):
            dead_at_build.append(first() is None)
            return build(*args, **kwargs)

        monkeypatch.setattr(multicore, "make_engine", checked_build)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run(trace)
        finally:
            if was_enabled:
                gc.enable()
        assert dead_at_build == [True]
        assert sim.last_engine is not None


class TestStatsPlumbing:
    def test_breakdown_components_populated(self):
        def body(tb):
            for tid in range(16):
                tp = tb.thread(tid)
                tp.work(10)
                tp.write(BASE)  # everyone fights over one line
            tb.barrier_all()
        stats = Simulator(arch16(), baseline_protocol()).run(build_trace(body))
        assert stats.latency.compute > 0
        assert stats.latency.l1_to_l2 > 0
        assert stats.latency.l2_waiting > 0  # serialized on the same line
        assert stats.latency.l2_sharers > 0  # invalidations
        assert stats.energy.total > 0
        assert stats.network_flits > 0

    def test_energy_breakdown_components(self):
        def body(tb):
            for tid in range(16):
                tb.thread(tid).read(BASE + tid * 8 * LINE)
        stats = Simulator(arch16(), baseline_protocol()).run(build_trace(body))
        e = stats.energy
        assert e.l1i > 0  # instruction energy
        assert e.l1d > 0
        assert e.l2 > 0
        assert e.link > 0 and e.router > 0
        assert e.total == pytest.approx(
            e.l1i + e.l1d + e.l2 + e.directory + e.router + e.link
        )
