"""Scheduler-kernel equivalence and seam tests (DESIGN.md section 14).

The compiled ``SchedKernel`` owns the record walk, the min-clock heap and
the L1-hit fast path natively, exiting to Python only on cold events
(misses, barriers, locks).  Its single contract is **bit-identical**
``RunStats`` against the pure-Python loop - these tests pin that contract
where the kernel's deferred state is most at risk:

* sync-heavy traces (tsp locks, radix barriers) under both
  implementations,
* protocol families without a scheduler fast path (dls), where every
  access exits to Python yet the cursor/heap walk stays native,
* verify mode, whose final-state sweep reads the caches the kernel's
  flush must have reconciled,
* the build fault gate (``accel.build_fail`` takes both kernels down
  together - there is one selection, not one per kernel),
* observer detach: caches never retain a membership hook after a run.
"""

from __future__ import annotations

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import (
    ArchConfig,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
)
from repro.faults import FAULTS, FaultRule, FaultSchedule
from repro.mem.cache import SetAssocCache
from repro.sim.multicore import Simulator
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
