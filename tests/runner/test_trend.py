"""``repro trend``: cross-revision bench / result-cache diffing."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ReproError
from repro.runner.cli import main as cli_main
from repro.runner.trend import (
    compare,
    format_rows,
    load_source,
    run_trend,
    worst_regression,
)


def bench_report(simulate: int, build: int = 1_000_000, family: str = "pct") -> dict:
    return {
        "schema": 2,
        "metric": "records/second",
        "points": [
            {
                "workload": "tsp",
                "family": family,
                "pct": 4,
                "cores": 16,
                "scale": "tiny",
                "records": 1000,
                "build_records_per_second": build,
                "simulate_records_per_second": simulate,
            }
        ],
    }


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def cache_log(path, completion: float, key: str = "k1"):
    record = {
        "schema": 3,
        "key": key,
        "job": {
            "workload": "tsp",
            "scale": "tiny",
            "proto": {"protocol": "baseline"},
            "arch": {"num_cores": 16},
        },
        "stats": {
            "completion_time": completion,
            "energy": {"l1d": 1.0, "l2": 2.0, "router": 0.5, "link": 0.5},
        },
    }
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


class TestBenchTrend:
    def test_improvement_passes_gate(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000))
        write_json(new, bench_report(210_000))
        rows, code = run_trend(str(old), str(new), assert_within=0.30)
        assert code == 0
        sim = [r for r in rows if r["metric"] == "simulate_records_per_second"]
        assert sim and sim[0]["ratio"] == pytest.approx(2.1)

    def test_regression_beyond_threshold_fails(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000))
        write_json(new, bench_report(60_000))  # -40% < gate of -30%
        rows, code = run_trend(str(old), str(new), assert_within=0.30)
        assert code == 1

    def test_regression_within_threshold_passes(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000))
        write_json(new, bench_report(80_000))  # -20% > gate of -30%
        _rows, code = run_trend(str(old), str(new), assert_within=0.30)
        assert code == 0

    def test_bench_gate_ignores_build_throughput(self, tmp_path):
        # Only simulate throughput gates bench comparisons (CI contract).
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000, build=2_000_000))
        write_json(new, bench_report(100_000, build=500_000))
        _rows, code = run_trend(str(old), str(new), assert_within=0.30)
        assert code == 0

    def test_points_match_on_family(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000, family="dls"))
        write_json(new, bench_report(50_000, family="neat"))
        rows, _ = run_trend(str(old), str(new))
        assert rows == []  # different families never compare

    def test_cli_exit_code_and_table(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000))
        write_json(new, bench_report(50_000))
        code = cli_main(["trend", str(old), str(new), "--assert-within", "0.3"])
        assert code == 1
        out = capsys.readouterr()
        assert "simulate_records_per_second" in out.out
        assert "REGRESSION" in out.err


class TestImplementationGuard:
    """Bench reports stamp per-kernel implementations (schema 4: mesh AND
    sched); trend refuses to compare accel against fallback on any shared
    kernel (the diff would measure the kernel)."""

    def stamped4(self, simulate: int, mesh: str, sched: str) -> dict:
        report = bench_report(simulate)
        report["schema"] = 4
        report["implementations"] = {"mesh": mesh, "sched": sched}
        report["accel"] = {"compiled": mesh == "accel", "compiler": None, "reason": None}
        return report

    def stamped(self, simulate: int, impl: str) -> dict:
        return self.stamped4(simulate, impl, impl)

    def test_mismatched_implementations_rejected(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, self.stamped(100_000, "accel"))
        write_json(new, self.stamped(100_000, "fallback"))
        with pytest.raises(ReproError, match="different kernel implementations"):
            run_trend(str(old), str(new), assert_within=0.30)

    def test_sched_mismatch_rejected(self, tmp_path):
        # Same mesh stamp on both sides: only the sched provenance differs,
        # and the schema-4 guard must still catch it.
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, self.stamped4(100_000, "accel", "accel"))
        write_json(new, self.stamped4(100_000, "accel", "fallback"))
        with pytest.raises(ReproError, match="sched: 'accel' vs 'fallback'"):
            run_trend(str(old), str(new), assert_within=0.30)

    def test_allow_impl_mismatch_overrides(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, self.stamped(100_000, "accel"))
        write_json(new, self.stamped(100_000, "fallback"))
        rows, code = run_trend(
            str(old), str(new), assert_within=0.30, allow_impl_mismatch=True
        )
        assert code == 0 and rows

    def test_matching_implementations_compare(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, self.stamped(100_000, "fallback"))
        write_json(new, self.stamped(100_000, "fallback"))
        _rows, code = run_trend(str(old), str(new), assert_within=0.30)
        assert code == 0

    def test_unstamped_legacy_reports_compare(self, tmp_path):
        # Pre-PR-8 reports carry no provenance: let them through.
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, bench_report(100_000))
        write_json(new, self.stamped(100_000, "accel"))
        _rows, code = run_trend(str(old), str(new), assert_within=0.30)
        assert code == 0

    def test_cli_flag_overrides(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_json(old, self.stamped(100_000, "accel"))
        write_json(new, self.stamped(100_000, "fallback"))
        assert cli_main(["trend", str(old), str(new)]) == 1
        assert "different kernel implementations" in capsys.readouterr().err
        assert (
            cli_main(["trend", str(old), str(new), "--allow-impl-mismatch"]) == 0
        )


class TestCacheTrend:
    def test_matching_keys_compare_completion_time(self, tmp_path):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        cache_log(old, 1000.0)
        cache_log(new, 1000.0)
        rows, code = run_trend(str(old), str(new), assert_within=0.05)
        assert code == 0
        ct = [r for r in rows if r["metric"] == "completion_time"]
        assert ct and ct[0]["ratio"] == 1.0
        assert any(r["metric"] == "energy_total" for r in rows)

    def test_completion_time_drift_fails_gate(self, tmp_path):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        cache_log(old, 1000.0)
        cache_log(new, 1200.0)  # +20% simulated time = semantic drift
        _rows, code = run_trend(str(old), str(new), assert_within=0.05)
        assert code == 1

    def test_disjoint_keys_do_not_compare(self, tmp_path):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        cache_log(old, 1000.0, key="a")
        cache_log(new, 2000.0, key="b")
        rows, code = run_trend(str(old), str(new), assert_within=0.01)
        assert rows == [] and code == 0


class TestSourceDetection:
    def test_kind_mismatch_rejected(self, tmp_path):
        bench, cache = tmp_path / "b.json", tmp_path / "c.jsonl"
        write_json(bench, bench_report(1))
        cache_log(cache, 1.0)
        with pytest.raises(ReproError, match="cannot compare"):
            run_trend(str(bench), str(cache))

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_source(tmp_path / "nope.json")

    def test_cache_directory_resolves_results_jsonl(self, tmp_path):
        d = tmp_path / ".repro-cache"
        d.mkdir()
        cache_log(d / "results.jsonl", 5.0)
        kind, points = load_source(d)
        assert kind == "cache" and len(points) == 1

    def test_real_bench_pr3_trajectory_file_loads(self):
        # The committed trajectory files (baseline/columnar sides) parse.
        import pathlib

        kind, points = load_source(pathlib.Path(__file__).parents[2] / "BENCH_pr3.json")
        assert kind == "bench"
        assert all("simulate_records_per_second" in m for m in points.values())


class TestHelpers:
    def test_worst_regression_picks_largest(self):
        rows = compare(
            {("a",): {"simulate_records_per_second": 100}},
            {("a",): {"simulate_records_per_second": 40}},
        )
        worst = worst_regression(rows)
        assert worst["regression"] == pytest.approx(0.6)
        assert "simulate" in format_rows(rows)
