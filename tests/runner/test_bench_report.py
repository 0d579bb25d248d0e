"""``repro bench`` report provenance and ``--baseline`` diffing."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError
from repro.runner.bench import format_baseline_diff, format_report, load_baseline
from repro.runner.cli import main as cli_main


def report(impl: str, simulate: int, *, extra_point: bool = False) -> dict:
    points = [
        {
            "workload": "tsp",
            "family": "pct",
            "pct": 4,
            "cores": 16,
            "scale": "tiny",
            "records": 1000,
            "build_records_per_second": 1_000_000,
            "simulate_records_per_second": simulate,
        }
    ]
    if extra_point:
        points.append(dict(points[0], workload="radix"))
    return {
        "schema": 4,
        "metric": "records/second",
        "implementations": {"mesh": impl, "sched": impl},
        "accel": {
            "compiled": impl == "accel",
            "compiler": "cc (test)" if impl == "accel" else None,
            "reason": None if impl == "accel" else "forced off",
        },
        "points": points,
    }


class TestReportStamp:
    def test_format_report_leads_with_implementation(self):
        text = format_report(report("accel", 100_000))
        assert text.splitlines()[0] == "mesh implementation: accel (cc (test))"
        text = format_report(report("fallback", 100_000))
        assert text.splitlines()[0] == "mesh implementation: fallback (forced off)"

    def test_legacy_report_formats_without_stamp(self):
        legacy = report("accel", 100_000)
        del legacy["implementations"]
        assert format_report(legacy).startswith("workload")

    def test_live_bench_report_carries_provenance(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main(
            ["bench", "--workloads", "tsp", "--pct", "1", "--cores", "16",
             "--scale", "tiny", "--repeats", "1", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 4
        assert "implementation" not in payload  # the schema-3 stamp is gone
        assert set(payload["implementations"]) == {"mesh", "sched"}
        assert all(
            impl in ("accel", "fallback")
            for impl in payload["implementations"].values()
        )
        assert set(payload["accel"]) == {"compiled", "compiler", "reason", "kernels"}
        assert set(payload["accel"]["kernels"]) == {"mesh", "sched"}
        stdout = capsys.readouterr().out
        assert "mesh implementation:" in stdout
        assert "sched implementation:" in stdout


class TestAccelInfo:
    def test_text_output_names_both_kernels(self, capsys):
        assert cli_main(["accel-info"]) == 0
        out = capsys.readouterr().out
        assert "mesh:" in out
        assert "sched:" in out
        assert "cache dir:" in out

    def test_json_output_is_the_status_payload(self, capsys):
        assert cli_main(["accel-info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implementation"] in ("accel", "fallback")
        assert {"compiled", "cache_dir", "reason", "source"} <= set(payload)
        assert set(payload["kernels"]) == {"mesh", "sched"}

    def test_require_compiled_fails_under_no_accel(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_ACCEL", "1")
        assert cli_main(["accel-info", "--require-compiled"]) == 1
        err = capsys.readouterr().err
        assert "compiled kernels required but not active" in err
        assert "REPRO_NO_ACCEL is set" in err

    def test_require_compiled_unknown_kernel_rejected(self, capsys):
        # The flag takes no kernel list: both kernels are one decision.
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["accel-info", "--require-compiled", "gpu"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: gpu" in capsys.readouterr().err


class TestBaselineDiff:
    def test_speedup_ratios_per_point(self):
        text = format_baseline_diff(
            report("accel", 100_000), report("accel", 250_000)
        )
        assert "2.50x" in text
        assert "WARNING" not in text

    def test_implementation_mismatch_warns(self):
        text = format_baseline_diff(
            report("fallback", 100_000), report("accel", 200_000)
        )
        assert "WARNING: implementations differ" in text

    def test_asymmetric_points_are_marked(self):
        base = report("accel", 100_000)
        fresh = report("accel", 100_000, extra_point=True)
        text = format_baseline_diff(base, fresh)
        assert "(not in baseline)" in text
        text = format_baseline_diff(fresh, base)
        assert "(baseline only, not re-run)" in text

    def test_load_baseline_rejects_non_bench(self, tmp_path):
        bad = tmp_path / "not_bench.json"
        bad.write_text(json.dumps({"rows": []}), encoding="utf-8")
        with pytest.raises(ConfigError, match="not a bench report"):
            load_baseline(str(bad))
        with pytest.raises(ConfigError, match="cannot read"):
            load_baseline(str(tmp_path / "missing.json"))

    def test_cli_baseline_prints_diff(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(report("fallback", 50)), encoding="utf-8")
        code = cli_main(
            ["bench", "--workloads", "tsp", "--pct", "4", "--cores", "16",
             "--scale", "tiny", "--repeats", "1", "--baseline", str(baseline)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline implementation: mesh=fallback" in out
        assert "fresh sim rec/s" in out

    def test_cli_bad_baseline_fails_before_benching(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = cli_main(
            ["bench", "--workloads", "tsp", "--cores", "16", "--scale", "tiny",
             "--baseline", str(missing)]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err
