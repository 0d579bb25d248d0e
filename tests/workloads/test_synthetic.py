"""Tests for the synthetic access-pattern generators."""

from __future__ import annotations

import pytest

from repro.common.errors import TraceError
from repro.common.params import ArchConfig, CacheGeometry, ProtocolConfig, baseline_protocol
from repro.sim.multicore import Simulator
from repro.workloads.synthetic import (
    SYNTHETIC_PATTERNS,
    hotspot,
    migratory,
    producer_consumer,
    streaming,
    uniform_random,
)

ARCH = ArchConfig(
    num_cores=16,
    num_memory_controllers=4,
    l1i=CacheGeometry(1, 2, 1),
    l1d=CacheGeometry(2, 2, 1),
    l2=CacheGeometry(16, 4, 7),
)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_PATTERNS))
    def test_same_seed_same_trace(self, name):
        generator = SYNTHETIC_PATTERNS[name]
        a = generator(16, seed=7)
        b = generator(16, seed=7)
        assert (a.ops, a.addresses, a.works) == (b.ops, b.addresses, b.works)

    def test_different_seed_different_trace(self):
        a = uniform_random(16, seed=1)
        b = uniform_random(16, seed=2)
        assert a.addresses != b.addresses


class TestShapes:
    def test_uniform_access_count(self):
        trace = uniform_random(16, lines=64, accesses_per_core=100)
        assert trace.memory_accesses == 16 * 100

    def test_uniform_write_fraction_zero_means_read_only(self):
        from repro.common.types import Op

        trace = uniform_random(16, write_fraction=0.0, accesses_per_core=50)
        writes = sum(
            1 for tid in range(16) for op, _a, _w in trace.records(tid) if op == Op.WRITE
        )
        assert writes == 0

    def test_hotspot_touches_hot_more_than_cold(self):
        trace = hotspot(16, hot_lines=4, cold_lines=1024, accesses_per_core=500,
                        hot_fraction=0.9)
        # 4 hot lines absorb ~90% of accesses: footprint stays large but
        # the per-line access histogram is extremely skewed.
        counts: dict[int, int] = {}
        for tid in range(trace.num_cores):
            for _op, address, _w in trace.records(tid):
                counts[address // 64] = counts.get(address // 64, 0) + 1
        top4 = sum(sorted(counts.values(), reverse=True)[:4])
        assert top4 > 0.8 * sum(counts.values())

    def test_streaming_footprint_matches_lines(self):
        trace = streaming(16, lines=256, rounds=1)
        assert trace.footprint_lines() == 256

    def test_producer_consumer_pairs_disjoint_buffers(self):
        from repro.common.types import Op

        trace = producer_consumer(16, buffer_lines=8, handoffs=2)
        pair_lines = []
        for pair in range(8):
            lines = set()
            for tid in (2 * pair, 2 * pair + 1):
                for op, address, _w in trace.records(tid):
                    if op in (Op.READ, Op.WRITE):
                        lines.add(address // 64)
            pair_lines.append(lines)
        for i in range(8):
            for j in range(i + 1, 8):
                assert not (pair_lines[i] & pair_lines[j])

    def test_migratory_lock_protected(self):
        from repro.common.types import Op

        trace = migratory(16, rounds=2)
        for tid in range(trace.num_cores):
            ops = [op for op, _a, _w in trace.records(tid)]
            assert ops.count(Op.LOCK) == ops.count(Op.UNLOCK) == 2


class TestValidation:
    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(TraceError, match="must be positive"):
            uniform_random(16, lines=0)

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(TraceError, match="write_fraction"):
            uniform_random(16, write_fraction=1.5)

    def test_odd_core_count_rejected_for_pairs(self):
        with pytest.raises(TraceError, match="even core count"):
            producer_consumer(9)


class TestSimulation:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_PATTERNS))
    def test_patterns_simulate_with_verification(self, name):
        generator = SYNTHETIC_PATTERNS[name]
        trace = generator(16, seed=3)
        # Keep runs fast: shrink the knobs where the pattern allows.
        if name == "streaming":
            trace = generator(16, lines=256, rounds=1, seed=3)
        elif name == "uniform":
            trace = generator(16, lines=128, accesses_per_core=200, seed=3)
        elif name == "hotspot":
            trace = generator(16, accesses_per_core=200, seed=3)
        for proto in (baseline_protocol(), ProtocolConfig(pct=4)):
            Simulator(ARCH, proto, verify=True).run(trace)

    def test_streaming_rewards_the_adaptive_protocol(self):
        trace = streaming(16, lines=1024, rounds=2)
        base = Simulator(ARCH, baseline_protocol(), warmup=True).run(trace)
        adapt = Simulator(ARCH, ProtocolConfig(pct=4), warmup=True).run(trace)
        assert adapt.energy.total < base.energy.total

    def test_migratory_converts_sharing_to_word_misses(self):
        from repro.common.types import MissType

        trace = migratory(16, rounds=6, uses_per_visit=2)  # below PCT=4
        base = Simulator(ARCH, baseline_protocol(), warmup=True).run(trace)
        adapt = Simulator(ARCH, ProtocolConfig(pct=4), warmup=True).run(trace)
        assert adapt.miss.count(MissType.WORD) > 0
        assert adapt.miss.count(MissType.SHARING) < base.miss.count(MissType.SHARING)
