"""Workload framework and registry tests."""

import pytest

from repro.common.errors import ConfigError, TraceError
from repro.common.params import ArchConfig
from repro.common.types import Op
from repro.workloads.base import AddressSpace, TraceBuilder
from repro.workloads.registry import WORKLOAD_NAMES, WORKLOADS, get_workload, load_workload


@pytest.fixture(scope="module")
def arch():
    return ArchConfig(num_cores=16, num_memory_controllers=4)


class TestAddressSpace:
    def test_allocations_page_aligned_and_disjoint(self):
        space = AddressSpace()
        a = space.alloc("a", 100)
        b = space.alloc("b", 100)
        assert a % space.page_size == 0
        assert b % space.page_size == 0
        assert b >= a + 100

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc("a", 10)
        with pytest.raises(TraceError):
            space.alloc("a", 10)

    def test_nonpositive_rejected(self):
        with pytest.raises(TraceError):
            AddressSpace().alloc("a", 0)


class TestTraceBuilder:
    def test_pending_work_flushes_as_work_record(self):
        tb = TraceBuilder("t", 1)
        tb.thread(0).work(7)
        trace = tb.build()
        assert list(trace.records(0)) == [(Op.WORK, 0, 7)]

    def test_work_attaches_to_next_access(self):
        tb = TraceBuilder("t", 1)
        tp = tb.thread(0)
        tp.work(5)
        tp.read(64)
        trace = tb.build()
        assert list(trace.records(0)) == [(Op.READ, 64, 5)]

    def test_read_write_words(self):
        tb = TraceBuilder("t", 1)
        tp = tb.thread(0)
        tp.read_words(0, 3)
        tp.write_words(64, 2, stride_words=8)
        trace = tb.build()
        ops = list(trace.records(0))
        assert [op for op, _, _ in ops] == [Op.READ] * 3 + [Op.WRITE] * 2
        assert ops[1][1] == 8  # consecutive words
        assert ops[4][1] == 64 + 64  # stride of one line

    def test_instruction_count(self):
        tb = TraceBuilder("t", 2)
        tb.thread(0).work(10)
        tb.thread(0).read(0)
        tb.thread(1).work(4)
        trace = tb.build()
        # 10 work + 1 read instruction + 4 work.
        assert trace.instructions == 15

    def test_footprint_lines(self):
        tb = TraceBuilder("t", 1)
        tp = tb.thread(0)
        tp.read(0)
        tp.read(8)  # same line
        tp.read(64)
        assert tb.build().footprint_lines() == 2


class TestRegistry:
    def test_exactly_21_benchmarks(self):
        assert len(WORKLOAD_NAMES) == 21
        assert len(WORKLOADS) == 21

    def test_paper_suite_composition(self):
        suites = {}
        for spec in WORKLOADS.values():
            suites.setdefault(spec.suite, []).append(spec.name)
        assert len(suites["splash2"]) == 6
        assert len(suites["parsec"]) == 6
        assert len(suites["mibench"]) == 4
        assert len(suites["uhpc"]) == 2
        assert len(suites["others"]) == 3

    def test_table2_sizes_recorded(self):
        assert WORKLOADS["radix"].table2_size == "1M integers, radix 1024"
        assert WORKLOADS["concomp"].table2_size == "2^18-node graph"
        assert WORKLOADS["tsp"].table2_size == "16 cities"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            get_workload("doom3")

    def test_unknown_scale_rejected(self, arch):
        with pytest.raises(ConfigError):
            load_workload("radix", arch, scale="enormous")

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_workload_builds_at_tiny_scale(self, arch, name):
        trace = load_workload(name, arch, scale="tiny")
        assert trace.num_cores == 16
        assert trace.memory_accesses > 0
        assert trace.instructions > trace.memory_accesses  # work interleaved

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_traces_are_deterministic(self, arch, name):
        a = load_workload(name, arch, scale="tiny")
        b = load_workload(name, arch, scale="tiny")
        assert (a.ops, a.addresses, a.works) == (b.ops, b.addresses, b.works)

    def test_scales_grow(self, arch):
        tiny = load_workload("canneal", arch, scale="tiny")
        small = load_workload("canneal", arch, scale="small")
        assert small.memory_accesses > tiny.memory_accesses

    def test_overrides_forwarded(self, arch):
        base = load_workload("canneal", arch, scale="tiny")
        bigger = load_workload("canneal", arch, scale="tiny", moves_per_thread=48)
        assert bigger.memory_accesses > base.memory_accesses
