"""Trace file I/O tests: round-trips, malformed input, format dispatch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.common.types import Op
from repro.experiments.harness import bench_arch
from repro.workloads.base import Trace, TraceBuilder
from repro.workloads.registry import load_workload
from repro.workloads.tracefile import (
    load_trace,
    load_trace_binary,
    load_trace_text,
    save_trace,
    save_trace_binary,
    save_trace_text,
    trace_equal,
    trace_summary,
)


def small_trace() -> Trace:
    builder = TraceBuilder("unit", num_cores=2)
    shared = builder.address_space.alloc("shared", 4096)
    t0, t1 = builder.thread(0), builder.thread(1)
    t0.work(3)
    t0.read(shared)
    t0.write(shared + 64)
    t1.read(shared + 128)
    builder.barrier_all()
    t0.lock(7)
    t0.write(shared)
    t0.unlock(7)
    t1.work(5)
    return builder.build()


class TestTextRoundTrip:
    def test_round_trip_preserves_every_record(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "unit.trace"
        save_trace_text(trace, path)
        assert trace_equal(trace, load_trace_text(path))

    def test_header_contains_name_and_cores(self, tmp_path):
        path = tmp_path / "unit.trace"
        save_trace_text(small_trace(), path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("#trace unit cores=2")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "hand.trace"
        path.write_text(
            "#trace hand cores=1 version=1\n"
            "\n"
            "# a comment\n"
            "T0 R 0x1000  # inline comment\n"
            "T0 W 4160 2\n"
        )
        trace = load_trace_text(path)
        assert list(trace.records(0)) == [(int(Op.READ), 0x1000, 0), (int(Op.WRITE), 4160, 2)]

    def test_interleaved_thread_records_keep_order(self, tmp_path):
        path = tmp_path / "interleave.trace"
        path.write_text(
            "#trace x cores=2 version=1\n"
            "T1 R 0x40\n"
            "T0 R 0x80\n"
            "T1 W 0xc0\n"
        )
        trace = load_trace_text(path)
        assert [a for _, a, _ in trace.records(1)] == [0x40, 0xC0]

    def test_work_records_round_trip(self, tmp_path):
        path = tmp_path / "unit.trace"
        save_trace_text(small_trace(), path)
        text = path.read_text()
        assert "T1 K 5" in text


class TestTextErrors:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("T0 R 0x40\n")
        with pytest.raises(TraceError, match="before #trace header"):
            load_trace_text(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError, match="no #trace header"):
            load_trace_text(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.trace"
        path.write_text("#trace a cores=1\n#trace b cores=1\n")
        with pytest.raises(TraceError, match="duplicate"):
            load_trace_text(path)

    def test_unknown_opcode_rejected(self, tmp_path):
        path = tmp_path / "op.trace"
        path.write_text("#trace a cores=1\nT0 Z 0x40\n")
        with pytest.raises(TraceError, match="unknown opcode"):
            load_trace_text(path)

    def test_thread_id_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "tid.trace"
        path.write_text("#trace a cores=2\nT5 R 0x40\n")
        with pytest.raises(TraceError, match="out of range"):
            load_trace_text(path)

    def test_bad_address_rejected(self, tmp_path):
        path = tmp_path / "addr.trace"
        path.write_text("#trace a cores=1\nT0 R banana\n")
        with pytest.raises(TraceError, match="invalid address"):
            load_trace_text(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "ver.trace"
        path.write_text("#trace a cores=1 version=99\n")
        with pytest.raises(TraceError, match="unsupported trace version"):
            load_trace_text(path)

    def test_unbalanced_locks_rejected_via_trace_validation(self, tmp_path):
        path = tmp_path / "lock.trace"
        path.write_text("#trace a cores=1\nT0 U 7\n")
        with pytest.raises(TraceError, match="unlock of free lock"):
            load_trace_text(path)

    def test_mismatched_barriers_rejected_via_trace_validation(self, tmp_path):
        path = tmp_path / "barrier.trace"
        path.write_text("#trace a cores=2\nT0 B 0\n")
        with pytest.raises(TraceError, match="barrier sequence"):
            load_trace_text(path)


class TestBinaryRoundTrip:
    def test_round_trip_preserves_every_record(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "unit.traceb"
        save_trace_binary(trace, path)
        assert trace_equal(trace, load_trace_binary(path))

    def test_v2_layout_is_fixed_width_columns(self, tmp_path):
        """Pin the v2 layout: header + name + per-stream (count + 3 columns).

        v2 trades the v1 format's 13-byte packed records for fixed 8-byte
        column cells (24 B/record) so the loader can bulk-copy the blocks
        straight into the IR without any per-record parsing.
        """
        trace = load_workload("tsp", bench_arch(), scale="tiny")
        bpath = tmp_path / "t.traceb"
        save_trace_binary(trace, bpath)
        expected = 10 + len(trace.name) + trace.num_cores * 8 + 24 * trace.total_records
        assert bpath.stat().st_size == expected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.traceb"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(TraceError, match="bad magic"):
            load_trace_binary(path)

    def test_truncated_file_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trunc.traceb"
        save_trace_binary(trace, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(TraceError, match="truncated"):
            load_trace_binary(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trail.traceb"
        save_trace_binary(trace, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TraceError, match="trailing bytes"):
            load_trace_binary(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "tiny.traceb"
        path.write_bytes(b"RP")
        with pytest.raises(TraceError, match="truncated header"):
            load_trace_binary(path)


class TestDispatch:
    def test_save_load_by_extension(self, tmp_path):
        trace = small_trace()
        for name in ("t.trace", "t.traceb"):
            path = tmp_path / name
            save_trace(trace, path)
            assert trace_equal(trace, load_trace(path))

    def test_load_detects_binary_regardless_of_extension(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "oddly-named.txt"
        save_trace_binary(trace, path)
        assert trace_equal(trace, load_trace(path))


class TestTraceSummaryAndEquality:
    def test_summary_counts(self):
        summary = trace_summary(small_trace())
        assert summary["cores"] == 2
        assert summary["reads"] == 2
        assert summary["writes"] == 2
        assert summary["barriers_per_thread"] == 1
        assert summary["lock_acquisitions"] == 1
        assert summary["footprint_lines"] == 3

    def test_equality_detects_name_change(self):
        a, b = small_trace(), small_trace()
        b.name = "other"
        assert not trace_equal(a, b)

    def test_equality_detects_record_change(self):
        a, b = small_trace(), small_trace()
        b.addresses[0][0] = 0x9999  # columns are the trace's actual storage
        assert not trace_equal(a, b)

    def test_equality_detects_length_change(self):
        a, b = small_trace(), small_trace()
        b.ops[1].pop(), b.addresses[1].pop(), b.works[1].pop()
        assert not trace_equal(a, b)


class TestGeneratedWorkloadRoundTrip:
    def test_real_workload_round_trips_both_formats(self, tmp_path):
        trace = load_workload("matmul", bench_arch(), scale="tiny")
        for name in ("w.trace", "w.traceb"):
            path = tmp_path / name
            save_trace(trace, path)
            assert trace_equal(trace, load_trace(path))

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.common.params import baseline_protocol
        from repro.sim.multicore import Simulator

        arch = bench_arch()
        trace = load_workload("dfs", arch, scale="tiny")
        path = tmp_path / "dfs.traceb"
        save_trace(trace, path)
        reloaded = load_trace(path)
        sim = Simulator(arch, baseline_protocol())
        original = sim.run(trace)
        again = sim.run(reloaded)
        assert original.completion_time == again.completion_time
        assert original.energy.total == again.energy.total
        assert original.network_flits == again.network_flits


@st.composite
def random_traces(draw):
    num_cores = draw(st.integers(min_value=1, max_value=4))
    streams = []
    for _tid in range(num_cores):
        n = draw(st.integers(min_value=0, max_value=20))
        stream = []
        for _ in range(n):
            op = draw(st.sampled_from([int(Op.READ), int(Op.WRITE), int(Op.WORK)]))
            address = 0 if op == int(Op.WORK) else draw(
                st.integers(min_value=0, max_value=(1 << 48) - 1)
            )
            work = draw(st.integers(min_value=0, max_value=1000))
            stream.append((op, address, work))
        streams.append(stream)
    return Trace("prop", num_cores, streams)


class TestPropertyRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(trace=random_traces())
    def test_binary_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("prop") / "p.traceb"
        save_trace_binary(trace, path)
        assert trace_equal(trace, load_trace_binary(path))

    @settings(max_examples=30, deadline=None)
    @given(trace=random_traces())
    def test_text_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("prop") / "p.trace"
        save_trace_text(trace, path)
        assert trace_equal(trace, load_trace_text(path))
