"""CLI surface of the telemetry layer: ``--telemetry``, ``events``,
``serve-stats``, and the stderr logging overhaul (``-q``/``-v``)."""

from __future__ import annotations

import json
import os
import socket

from repro.obs import TELEMETRY, TELEMETRY_ENV
from repro.runner.cli import main as cli_main

SWEEP = ["sweep", "--workloads", "tsp", "--pct", "1", "--cores", "16",
         "--scale", "tiny", "--no-cache", "--quiet"]


class TestSweepTelemetry:
    def test_stdout_byte_stable_with_telemetry(self, tmp_path, capsys):
        assert cli_main(SWEEP) == 0
        plain = capsys.readouterr().out
        sink = tmp_path / "events.jsonl"
        assert cli_main(SWEEP + ["--telemetry", str(sink)]) == 0
        observed = capsys.readouterr().out
        assert observed == plain  # the deliverable is untouched
        assert sink.exists() and sink.stat().st_size > 0

    def test_sink_scope_is_the_sweep(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        assert cli_main(SWEEP + ["--telemetry", str(sink)]) == 0
        # The in-process singleton and the env export are both restored.
        assert not TELEMETRY.enabled
        assert TELEMETRY_ENV not in os.environ

    def test_bad_sink_fails_before_sweeping(self, tmp_path, capsys):
        assert cli_main(SWEEP + ["--telemetry", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "telemetry sink" in captured.err
        assert captured.out == ""  # failed loudly before any simulation

    def test_events_renders_the_sink(self, tmp_path, capsys):
        sink = tmp_path / "events.jsonl"
        assert cli_main(SWEEP + ["--telemetry", str(sink)]) == 0
        capsys.readouterr()
        assert cli_main(["events", str(sink), "--limit", "100"]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "sim.run" in out
        assert "sim.l1d.accesses" in out
        # The link history each run archived and retired below the horizon.
        assert "mesh.overflow_entries" in out
        assert "mesh.retired_flits" in out


class TestEventsVerb:
    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert cli_main(["events", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_limit_caps_counter_rows(self, tmp_path, capsys):
        sink = tmp_path / "events.jsonl"
        records = [
            {"v": 1, "kind": "counter", "name": f"c{i:02d}", "pid": 1, "value": i}
            for i in range(30)
        ]
        sink.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert cli_main(["events", str(sink), "--limit", "5"]) == 0
        assert "5 of 30" in capsys.readouterr().out


class TestServeStatsVerb:
    def test_unreachable_host_exits_nonzero(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = cli_main(
            ["serve-stats", f"127.0.0.1:{free_port}", "--timeout", "2"]
        )
        assert code == 1
        assert "unreachable" in capsys.readouterr().err


class TestLoggingFlags:
    def test_quiet_suppresses_diagnostics(self, capsys):
        assert cli_main(["-q"] + SWEEP) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "tsp" in captured.out  # the table still lands on stdout

    def test_default_diagnostics_unchanged(self, capsys):
        assert cli_main(SWEEP) == 0
        err = capsys.readouterr().err
        assert "sweep: " in err
        assert "1 simulated" in err
        assert "error:" not in err

    def test_errors_carry_prefix_even_when_quiet(self, capsys):
        assert cli_main(["-q", "sweep", "--workloads", "nope", "--no-cache"]) == 1
        assert "error: unknown workloads" in capsys.readouterr().err

    def test_repeated_invocations_do_not_duplicate_handlers(self, capsys):
        for _ in range(3):
            assert cli_main(SWEEP) == 0
        err = capsys.readouterr().err
        assert err.count("1 simulated") == 3
