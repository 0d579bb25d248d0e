"""Tests for the ``repro-trace`` command-line tool."""

from __future__ import annotations

import pytest

from repro.common.types import Op
from repro.experiments.tracecli import main
from repro.workloads.tracefile import MNEMONICS, load_trace, save_trace_text, trace_equal


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "hand.trace"
    path.write_text(
        "#trace hand cores=2 version=1\n"
        "T0 R 0x40000000\n"
        "T0 W 0x40000040 3\n"
        "T1 R 0x40000000\n"
        "T1 K 10\n"
    )
    return path


class TestGenerate:
    def test_generates_binary_trace(self, tmp_path, capsys):
        out = tmp_path / "dfs.traceb"
        assert main(["generate", "dfs", str(out), "--scale", "tiny"]) == 0
        assert out.exists()
        trace = load_trace(out)
        assert trace.name == "dfs"
        assert "records" in capsys.readouterr().out

    def test_unknown_workload_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "not-a-workload", str(tmp_path / "x.traceb")])


class TestStatsAndDump:
    def test_stats_reports_counts(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "'hand'" in out
        assert "reads" in out and "writes" in out

    def test_dump_shows_records_and_truncates(self, trace_file, capsys):
        assert main(["dump", str(trace_file), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "thread 0" in out and "more" in out

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_dump_writes_each_record_as_the_text_format_does(self, op, tmp_path, capsys):
        source = tmp_path / "ops.trace"
        source.write_text(
            "#trace ops cores=2 version=1\n"
            "T0 R 0x40000000\nT0 W 0x40000040\nT0 L 0x1\nT0 U 0x1\nT0 B 0x0\nT0 K 10\n"
            "T1 B 0x0\n"
        )
        written = tmp_path / "written.trace"
        save_trace_text(load_trace(source), written)
        line = next(
            line for line in written.read_text().splitlines()
            if line.startswith(f"T0 {MNEMONICS[op]} ")
        )
        assert main(["dump", str(source)]) == 0
        assert "  " + line.removeprefix("T0 ") in capsys.readouterr().out.splitlines()

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.trace")]) == 1
        assert "error:" in capsys.readouterr().err


class TestConvert:
    def test_text_to_binary_and_back(self, trace_file, tmp_path, capsys):
        binary = tmp_path / "hand.traceb"
        text2 = tmp_path / "hand2.trace"
        assert main(["convert", str(trace_file), str(binary)]) == 0
        assert main(["convert", str(binary), str(text2)]) == 0
        assert trace_equal(load_trace(trace_file), load_trace(text2))

    def test_malformed_source_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace\n")
        assert main(["convert", str(bad), str(tmp_path / "out.traceb")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_runs_generated_trace_under_both_protocols(self, tmp_path, capsys):
        from repro.experiments.harness import bench_arch
        from repro.workloads.registry import load_workload

        trace = load_workload("matmul", bench_arch(), scale="tiny")
        path = tmp_path / "m.trace"
        save_trace_text(trace, path)
        assert main(["run", str(path), "--no-warmup"]) == 0
        baseline_out = capsys.readouterr().out
        assert "baseline" in baseline_out
        assert main(["run", str(path), "--pct", "4", "--no-warmup"]) == 0
        assert "adaptive pct=4" in capsys.readouterr().out

    def test_core_count_mismatch_reports_error(self, trace_file, capsys):
        # The hand trace has 2 cores; the default arch wants 64.
        assert main(["run", str(trace_file), "--no-warmup"]) == 1
        assert "error:" in capsys.readouterr().err
