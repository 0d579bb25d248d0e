"""``repro trend``: cross-revision result-cache diffing."""

from __future__ import annotations

import json
import pathlib

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

    def test_improvement_passes_gate(self, tmp_path):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        cache_log(old, 1000.0)
        cache_log(new, 500.0)
        rows, code = run_trend(str(old), str(new), assert_within=0.05)
        assert code == 0
        ct = [r for r in rows if r["metric"] == "completion_time"]
        assert ct[0]["ratio"] == pytest.approx(0.5)

    def test_regression_within_threshold_passes(self, tmp_path):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        cache_log(old, 1000.0)
        cache_log(new, 1040.0)  # +4% inside a 5% gate
        _rows, code = run_trend(str(old), str(new), assert_within=0.05)
        assert code == 0

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

    def test_cli_exit_code_and_table(self, tmp_path, capsys):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        cache_log(old, 1000.0)
        cache_log(new, 1100.0)  # +10%
        assert cli_main(["trend", str(old), str(new), "--assert-within", "0.2"]) == 0
        out = capsys.readouterr()
        assert "completion_time" in out.out
        assert "worst regression: tsp baseline 16c/tiny completion_time +10.0%" in out.err
        assert cli_main(["trend", str(old), str(new), "--assert-within", "0.05"]) == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestSourceDetection:
    def test_bench_report_rejected(self, tmp_path, capsys):
        # A committed trajectory file is a throughput report, not a cache
        # log: the error names what trend expects instead.
        bench = pathlib.Path(__file__).parents[2] / "BENCH_pr3.json"
        cache = tmp_path / "results.jsonl"
        cache_log(cache, 1.0)
        assert cli_main(["trend", str(bench), str(cache)]) == 1
        err = capsys.readouterr().err
        assert "BENCH_pr3.json is not a result-cache log" in err
        assert "results.jsonl" in err

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_source(tmp_path / "nope.json")

    def test_cache_directory_resolves_results_jsonl(self, tmp_path):
        d = tmp_path / ".repro-cache"
        d.mkdir()
        cache_log(d / "results.jsonl", 5.0)
        assert len(load_source(d)) == 1


class TestHelpers:
    def test_worst_regression_picks_largest(self):
        rows = compare(
            {"k": {"label": "a", "completion_time": 100.0, "energy_total": 10.0}},
            {"k": {"label": "a", "completion_time": 160.0, "energy_total": 11.0}},
        )
        worst = worst_regression(rows)
        assert worst["metric"] == "completion_time"
        assert worst["regression"] == pytest.approx(0.6)
        assert "completion_time" in format_rows(rows)
