"""The chaos harness: matrix hygiene, the judge, and the CLI verb.

The expensive cells (process pools, subprocess daemons) run in CI's
``chaos-smoke`` job and in the watchdog/backend suites; here the harness
itself is under test - that it compares honestly, classifies correctly,
and refuses misconfiguration - using the cheap local-backend cells.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.faults import FAULTS, FaultRule
from repro.faults.chaos import (
    CHAOS_BACKENDS,
    DEFAULT_MATRIX,
    FAULT_CATALOG,
    chaos_jobs,
    run_chaos,
)


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


class TestMatrixHygiene:
    def test_catalog_rules_are_validated_fault_rules(self):
        for name, rules in FAULT_CATALOG.items():
            assert isinstance(rules, tuple), name
            for rule in rules:
                assert isinstance(rule, FaultRule)

    def test_default_matrix_names_are_known(self):
        for fault, backend in DEFAULT_MATRIX:
            assert fault in FAULT_CATALOG
            assert backend in CHAOS_BACKENDS

    def test_default_matrix_covers_the_ci_fault_set(self):
        # The chaos-smoke CI job leans on these being in the default
        # matrix; removing one silently shrinks coverage.
        faults = {fault for fault, _backend in DEFAULT_MATRIX}
        assert {"crash", "hang", "frame-drop", "torn-write", "build-fail"} <= faults

    def test_chaos_jobs_are_small_and_deterministic(self):
        jobs = chaos_jobs()
        assert 2 <= len(jobs) <= 8
        assert [j.key for j in jobs] == [j.key for j in chaos_jobs()]

    def test_unknown_fault_refused(self):
        with pytest.raises(ConfigError, match="unknown fault"):
            run_chaos(faults=["crahs"])

    def test_unknown_backend_refused(self):
        with pytest.raises(ConfigError, match="unknown chaos backend"):
            run_chaos(backends=["thread"])

    def test_empty_matrix_refused(self):
        with pytest.raises(ConfigError, match="empty"):
            run_chaos(faults=["stall"], backends=["local"])


class TestJudge:
    def test_local_cells_hold_the_invariant(self):
        report = run_chaos(matrix=[
            ("none", "local"),
            ("torn-write", "local"),
            ("disk-full", "local"),
        ])
        assert report.ok
        by_fault = {cell.fault: cell for cell in report.cells}
        assert by_fault["none"].outcome == "identical"
        assert by_fault["torn-write"].outcome == "identical"
        assert by_fault["torn-write"].skipped_lines == 1  # accounting surfaced
        assert by_fault["disk-full"].outcome == "typed-error"
        assert "ENOSPC" in by_fault["disk-full"].detail or "No space" in \
            by_fault["disk-full"].detail or "no space" in by_fault["disk-full"].detail
        assert "zero silent divergence" in report.table()
        assert not FAULTS.active  # every cell deactivated behind itself

    def test_divergence_is_actually_detected(self, monkeypatch):
        """The judge must not be a rubber stamp: poison the reference and a
        perfectly clean run must be flagged as diverged."""
        import repro.faults.chaos as chaos_mod

        monkeypatch.setattr(
            chaos_mod, "reference_results",
            lambda jobs: {job.key: "not-the-real-stats" for job in jobs},
        )
        report = run_chaos(matrix=[("none", "local")])
        assert not report.ok
        assert report.cells[0].outcome == "diverged"
        assert "INVARIANT VIOLATION" in report.table()

    def test_report_round_trips_to_dict(self):
        report = run_chaos(matrix=[("none", "local")])
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["cells"][0]["fault"] == "none"
        assert payload["cells"][0]["backend"] == "local"
        assert payload["cells"][0]["outcome"] == "identical"


class TestChaosCli:
    def test_verb_exits_zero_on_clean_cells(self, capsys):
        from repro.runner.cli import main

        rc = main(["chaos", "--faults", "none", "torn-write",
                   "--backends", "local"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "zero silent divergence" in out

    def test_verb_writes_json_report(self, tmp_path, capsys):
        import json

        from repro.runner.cli import main

        path = tmp_path / "chaos.json"
        rc = main(["chaos", "--faults", "none", "--backends", "local",
                   "--json", str(path)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert len(payload["cells"]) == 1


class TestChaosCliOutput:
    """What ``repro chaos`` prints, with the harness stubbed out: the
    verdict table always reaches stdout (CI's ``chaos-smoke`` greps it
    after writing ``--json chaos.json``), except that ``--json -`` keeps
    stdout pure JSON."""

    @pytest.fixture(autouse=True)
    def stub_harness(self, monkeypatch):
        from repro.faults import chaos
        from repro.faults.chaos import CellResult, ChaosReport

        report = ChaosReport(seed=7, cells=[CellResult("none", "local", "identical")])
        monkeypatch.setattr(chaos, "run_chaos", lambda **_kwargs: report)

    def test_json_file_also_prints_the_verdict(self, tmp_path, capsys):
        import json

        from repro.runner.cli import main

        path = tmp_path / "chaos.json"
        assert main(["chaos", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK: zero silent divergence" in out
        assert json.loads(path.read_text())["cells"][0]["outcome"] == "identical"

    def test_json_to_stdout_prints_only_json(self, capsys):
        import json

        from repro.runner.cli import main

        assert main(["chaos", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"seed": 7, "ok": True, "cells": [payload["cells"][0]]}
        assert payload["cells"][0]["fault"] == "none"
