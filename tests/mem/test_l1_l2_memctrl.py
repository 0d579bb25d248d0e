"""L1 cache, L2 slice and memory-controller tests."""

import pytest

from repro.common.params import ArchConfig, CacheGeometry
from repro.common.types import MESIState
from repro.mem.golden import GoldenMemory
from repro.mem.l1 import L1Cache
from repro.mem.l2 import L2Slice
from repro.mem.memctrl import MemoryController, MemorySubsystem
from repro.common.errors import CoherenceError


class TestL1Cache:
    @pytest.fixture
    def l1(self):
        return L1Cache(CacheGeometry(1, 2, 1))

    def test_fill_initializes_utilization_to_one(self, l1):
        l1.fill(0, MESIState.SHARED, now=5.0)
        entry = l1.lookup(0)
        assert entry.utilization == 1
        assert entry.last_access == 5.0

    def test_hit_increments_utilization(self, l1):
        l1.fill(0, MESIState.SHARED, now=1.0)
        entry = l1.lookup(0)
        l1.hit(entry, now=2.0)
        l1.hit(entry, now=3.0)
        assert entry.utilization == 3
        assert entry.last_access == 3.0
        assert l1.hits == 2

    def test_fill_returns_victim_with_utilization(self, l1):
        l1.fill(0, MESIState.SHARED, now=1.0)
        l1.fill(8, MESIState.SHARED, now=2.0)
        evicted = l1.fill(16, MESIState.SHARED, now=3.0)
        assert evicted is not None
        line, entry = evicted
        assert line == 0
        assert entry.utilization == 1

    def test_invalid_way_hint(self, l1):
        # An invalid way in the set reads as None (the Timestamp check
        # passes trivially); a full set reports its oldest access.
        assert l1.min_set_last_access(0) is None
        l1.fill(0, MESIState.SHARED, 0.0)
        assert l1.min_set_last_access(0) is None
        l1.fill(8, MESIState.SHARED, 0.0)
        assert l1.min_set_last_access(0) == 0.0

    def test_remove(self, l1):
        l1.fill(0, MESIState.MODIFIED, 0.0)
        entry = l1.remove(0)
        assert entry.state is MESIState.MODIFIED
        assert l1.lookup(0) is None

    def test_keep_data(self):
        l1 = L1Cache(CacheGeometry(1, 2, 1), keep_data=True)
        l1.fill(0, MESIState.SHARED, 0.0, data=[1, 2, 3, 4, 5, 6, 7, 8])
        assert l1.lookup(0).data == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_miss_rate(self, l1):
        l1.misses = 3
        l1.fill(0, MESIState.SHARED, 0.0)
        l1.hit(l1.lookup(0), 1.0)
        assert l1.miss_rate() == pytest.approx(3 / 4)


class TestL2Slice:
    @pytest.fixture
    def l2(self):
        return L2Slice(CacheGeometry(4, 4, 7))

    def test_fill_and_lookup(self, l2):
        assert l2.fill(100, now=1.0) is None
        entry = l2.lookup(100)
        assert entry is not None
        assert entry.last_access == 1.0
        assert not entry.dirty

    def test_touch_updates_timestamp(self, l2):
        l2.fill(100, now=1.0)
        entry = l2.lookup(100)
        l2.touch(entry, now=9.0)
        assert entry.last_access == 9.0

    def test_busy_until_default(self, l2):
        l2.fill(0, now=0.0)
        assert l2.lookup(0).busy_until == 0.0

    def test_victim_preview(self, l2):
        geometry = l2.geometry
        set_span = geometry.num_sets
        for i in range(geometry.associativity):
            l2.fill(i * set_span, now=float(i))
        assert l2.victim(geometry.associativity * set_span) is not None


class TestMemoryController:
    @pytest.fixture
    def arch(self):
        return ArchConfig(num_cores=16, num_memory_controllers=4)

    def test_uncontended_access(self, arch):
        ctrl = MemoryController(arch, tile=0)
        finish, queue = ctrl.access(0.0, 64)
        assert queue == 0.0
        # 100-cycle latency + 64B / 5 B-per-cycle transfer.
        assert finish == pytest.approx(100 + 64 / 5.0)

    def test_bandwidth_queueing(self, arch):
        ctrl = MemoryController(arch, tile=0)
        ctrl.access(0.0, 64)
        _, queue = ctrl.access(0.0, 64)
        assert queue == pytest.approx(64 / 5.0)

    def test_queue_drains(self, arch):
        ctrl = MemoryController(arch, tile=0)
        ctrl.access(0.0, 64)
        _, queue = ctrl.access(1000.0, 64)
        assert queue == 0.0

    def test_stats(self, arch):
        ctrl = MemoryController(arch, tile=0)
        ctrl.access(0.0, 64)
        ctrl.access(0.0, 64)
        assert ctrl.requests == 2
        assert ctrl.bytes_transferred == 128
        assert ctrl.total_queue_delay > 0.0

    def test_subsystem_mapping(self, arch):
        mem = MemorySubsystem(arch)
        assert len(mem.controllers) == 4
        ctrl = mem.controller_for_line(12345)
        assert ctrl is mem.controllers[arch.controller_for_line(12345)]


class TestGoldenMemory:
    def test_untouched_reads_zero(self):
        golden = GoldenMemory()
        assert golden.read_word(10, 3) == 0
        assert golden.line_snapshot(10) == [0] * 8

    def test_write_then_read(self):
        golden = GoldenMemory()
        golden.write_word(10, 3, 42)
        assert golden.read_word(10, 3) == 42
        assert golden.line_snapshot(10)[3] == 42

    def test_check_read_passes(self):
        golden = GoldenMemory()
        golden.write_word(1, 0, 7)
        golden.check_read(1, 0, 7, "test")

    def test_check_read_raises_on_mismatch(self):
        golden = GoldenMemory()
        golden.write_word(1, 0, 7)
        with pytest.raises(CoherenceError):
            golden.check_read(1, 0, 8, "test")

    def test_check_line_raises_on_divergence(self):
        golden = GoldenMemory()
        golden.write_word(1, 0, 7)
        with pytest.raises(CoherenceError):
            golden.check_line(1, [0] * 8, "test")
        golden.check_line(1, [7, 0, 0, 0, 0, 0, 0, 0], "test")
