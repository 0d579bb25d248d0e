"""End-to-end simulation properties: determinism, conservation laws and
cross-protocol invariants checked over randomly generated workloads."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import (
    ArchConfig,
    CacheGeometry,
    ProtocolConfig,
    baseline_protocol,
    victim_replication_protocol,
)
from repro.common.types import MissType
from repro.sim.multicore import Simulator
from repro.workloads.base import TraceBuilder

ARCH = ArchConfig(
    num_cores=16,
    num_memory_controllers=4,
    l1i=CacheGeometry(1, 2, 1),
    l1d=CacheGeometry(1, 2, 1),
    l2=CacheGeometry(4, 4, 7),
)

PROTOCOLS = [
    baseline_protocol(),
    ProtocolConfig(pct=2),
    ProtocolConfig(pct=4),
    ProtocolConfig(pct=4, classifier="complete"),
    ProtocolConfig(pct=4, one_way=True),
    ProtocolConfig(pct=4, remote_policy="timestamp"),
    victim_replication_protocol(),
]


@st.composite
def random_traces(draw):
    """Small multithreaded traces with shared and private regions."""
    builder = TraceBuilder("prop", ARCH.num_cores)
    shared = builder.address_space.alloc("shared", 64 * 64)
    privates = [
        builder.address_space.alloc(f"priv{tid}", 4096) for tid in range(ARCH.num_cores)
    ]
    active = draw(st.integers(min_value=1, max_value=4))
    for tid in range(active):
        thread = builder.thread(tid)
        n = draw(st.integers(min_value=1, max_value=25))
        for _ in range(n):
            is_shared = draw(st.booleans())
            is_write = draw(st.booleans())
            if is_shared:
                address = shared + draw(st.integers(min_value=0, max_value=63)) * 64
            else:
                address = privates[tid] + draw(st.integers(min_value=0, max_value=63)) * 64
            if is_write:
                thread.write(address)
            else:
                thread.read(address)
    builder.barrier_all()
    return builder.build()


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces(), proto=st.sampled_from(PROTOCOLS))
    def test_identical_runs_produce_identical_stats(self, trace, proto):
        first = Simulator(ARCH, proto).run(trace)
        second = Simulator(ARCH, proto).run(trace)
        assert first.completion_time == second.completion_time
        assert first.energy.total == second.energy.total
        assert first.network_flits == second.network_flits
        assert first.miss.breakdown() == second.miss.breakdown()


class TestConservation:
    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces(), proto=st.sampled_from(PROTOCOLS))
    def test_accesses_equal_hits_plus_misses(self, trace, proto):
        stats = Simulator(ARCH, proto).run(trace)
        assert stats.miss.accesses == trace.memory_accesses
        assert stats.miss.hits + stats.miss.misses == stats.miss.accesses

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces(), proto=st.sampled_from(PROTOCOLS))
    def test_first_touch_of_every_line_is_a_cold_miss(self, trace, proto):
        stats = Simulator(ARCH, proto).run(trace)
        # Every (core, line) first touch is cold; a line touched by k cores
        # can produce at most k cold misses and at least 1.
        footprint = trace.footprint_lines()
        assert stats.miss.count(MissType.COLD) >= footprint

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces(), proto=st.sampled_from(PROTOCOLS))
    def test_completion_bounded_below_by_critical_path(self, trace, proto):
        stats = Simulator(ARCH, proto).run(trace)
        # Each record costs at least its work cycles on its own core.
        per_core_work = max(
            sum(work + 1 for _op, _a, work in trace.records(tid))
            for tid in range(trace.num_cores)
        )
        assert stats.completion_time >= per_core_work - 1

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_verify_mode_passes_for_all_protocols(self, trace):
        # Functional correctness: golden-memory checks must stay silent.
        for proto in PROTOCOLS:
            Simulator(ARCH, proto, verify=True).run(trace)


class TestCrossProtocol:
    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_adaptive_never_loses_accesses(self, trace):
        base = Simulator(ARCH, baseline_protocol()).run(trace)
        adapt = Simulator(ARCH, ProtocolConfig(pct=4)).run(trace)
        assert base.miss.accesses == adapt.miss.accesses

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_baseline_never_serves_word_misses(self, trace):
        base = Simulator(ARCH, baseline_protocol()).run(trace)
        assert base.miss.count(MissType.WORD) == 0
        assert base.remote_accesses == 0

    @settings(max_examples=15, deadline=None)
    @given(trace=random_traces())
    def test_warmup_reduces_or_keeps_cold_misses(self, trace):
        cold = Simulator(ARCH, baseline_protocol(), warmup=False).run(trace)
        warm = Simulator(ARCH, baseline_protocol(), warmup=True).run(trace)
        assert warm.miss.count(MissType.COLD) <= cold.miss.count(MissType.COLD)
