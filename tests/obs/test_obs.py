"""Unit suite for the telemetry core and renderer (``repro.obs``).

Covers the contracts DESIGN.md section 10 pins: span nesting and
exception-path closure, counter increments of arbitrary magnitude,
disabled-path no-ops, loud failure on a bad sink at enable time versus
silent self-disable on a sink that dies mid-run, and a renderer that
survives torn writes and foreign schema versions.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.common.errors import ConfigError, ReproError
from repro.obs import (
    EVENT_SCHEMA,
    TELEMETRY_ENV,
    Telemetry,
    enable_from_env,
    load_events,
    render_events,
    render_file,
)


def _records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture
def tel(tmp_path):
    telemetry = Telemetry()
    telemetry.enable(tmp_path / "events.jsonl")
    yield telemetry
    telemetry.disable()


class TestLifecycle:
    def test_enable_emits_meta_record(self, tel):
        (record,) = _records(tel.path)
        assert record["kind"] == "meta"
        assert record["name"] == "telemetry.enabled"
        assert record["v"] == EVENT_SCHEMA
        assert record["pid"] == os.getpid()

    def test_enable_invalid_sink_raises_config_error(self, tmp_path):
        telemetry = Telemetry()
        with pytest.raises(ConfigError):
            telemetry.enable(tmp_path)  # a directory cannot be a sink
        assert not telemetry.enabled

    def test_enable_parent_is_file_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        telemetry = Telemetry()
        with pytest.raises(ConfigError):
            telemetry.enable(blocker / "events.jsonl")

    def test_disable_is_idempotent(self, tel):
        tel.disable()
        tel.disable()
        assert not tel.enabled

    def test_sink_failure_disables_without_raising(self, tel, caplog, monkeypatch):
        # The CLI may have installed a non-propagating "repro" logger in
        # this process; caplog captures at the root, so re-open the path.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        os.close(tel._fd)  # simulate the sink dying mid-run
        tel._fd = -1
        with caplog.at_level("WARNING", logger="repro.obs"):
            tel.count("after.failure", 1)
        assert not tel.enabled
        assert any("telemetry sink failed" in r.message for r in caplog.records)
        tel.count("still.fine", 1)  # emitting after self-disable is a no-op

    def test_enable_from_env(self, tmp_path):
        telemetry = Telemetry()
        sink = tmp_path / "env.jsonl"
        assert enable_from_env(telemetry, {TELEMETRY_ENV: str(sink)})
        assert telemetry.enabled and telemetry.path == sink
        telemetry.disable()

    def test_enable_from_env_absent_or_bad(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        telemetry = Telemetry()
        assert not enable_from_env(telemetry, {})
        with caplog.at_level("WARNING", logger="repro.obs"):
            assert not enable_from_env(telemetry, {TELEMETRY_ENV: str(tmp_path)})
        assert not telemetry.enabled


class TestDisabledPath:
    def test_everything_is_a_noop(self, tmp_path):
        telemetry = Telemetry()
        assert telemetry.begin("x") == 0
        telemetry.end(0)
        telemetry.count("c", 7)
        telemetry.event("e", k="v")
        with telemetry.span("s") as sid:
            assert sid == 0

    def test_disabled_span_context_is_shared(self):
        telemetry = Telemetry()
        assert telemetry.span("a") is telemetry.span("b")


class TestSpans:
    def test_nesting_parent_and_depth(self, tel):
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        spans = [r for r in _records(tel.path) if r["kind"] == "span"]
        inner, outer = spans  # inner closes (and is emitted) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["parent"] == 0
        assert inner["dur"] >= 0 and inner["start"] >= 0

    def test_exception_closes_span_with_error_attr(self, tel):
        with pytest.raises(RuntimeError):
            with tel.span("doomed"):
                raise RuntimeError("boom")
        (span,) = [r for r in _records(tel.path) if r["kind"] == "span"]
        assert span["attrs"]["error"] == "RuntimeError"

    def test_end_of_outer_closes_abandoned_inner(self, tel):
        outer = tel.begin("outer")
        tel.begin("leaked")  # never explicitly ended
        tel.end(outer)
        spans = [r["name"] for r in _records(tel.path) if r["kind"] == "span"]
        assert spans == ["leaked", "outer"]

    def test_end_unknown_id_is_noop(self, tel):
        tel.end(424242)
        assert [r for r in _records(tel.path) if r["kind"] == "span"] == []

    def test_recorded_span_carries_children_and_counters(self, tel):
        with tel.span("job"):
            tel.record_span("run", 1.0, 4.0, [("warm", 1.0, 2.0), ("sim", 2.0, 4.0)],
                            {"hits": 7}, cores=16)
        (run,) = [r for r in _records(tel.path) if r["name"] == "run"]
        assert [child[1] for child in run["children"]] == ["warm", "sim"]
        records = load_events(tel.path)
        spans = {r["name"]: r for r in records if r["kind"] == "span"}
        assert spans["run"]["parent"] == spans["job"]["id"]
        assert spans["run"]["dur"] == 3.0 and spans["run"]["attrs"] == {"cores": 16}
        for name, dur in (("warm", 1.0), ("sim", 2.0)):
            assert spans[name]["parent"] == spans["run"]["id"]
            assert spans[name]["depth"] == 2 and spans[name]["dur"] == dur
        assert [(r["name"], r["value"]) for r in records if r["kind"] == "counter"] == [("hits", 7)]
        out = render_events(records)
        assert "      warm" in out and "hits" in out

    def test_span_attrs_survive(self, tel):
        with tel.span("job", workload="tsp", pct=4):
            pass
        (span,) = [r for r in _records(tel.path) if r["kind"] == "span"]
        assert span["attrs"] == {"workload": "tsp", "pct": 4}


class TestCounters:
    def test_large_values_are_exact(self, tel):
        # Counters are increments summed at read time: there is no fixed
        # accumulator width to overflow, and a 2**63-scale value must
        # round-trip bit-exactly through JSON.
        big = 2**63 - 1
        tel.count("huge", big)
        tel.count("huge", 1)
        totals = {
            r["name"]: r["value"] for r in _records(tel.path) if r["kind"] == "counter"
        }
        assert totals["huge"] == 1  # last increment record
        agg = render_events(load_events(tel.path))
        assert str(big + 1) in agg  # read-time sum: 2**63, exactly

    def test_labels_fold_into_name(self, tel):
        tel.count("remote.completed", 3, host="h1")
        tel.count("remote.completed", 2, host="h1")
        tel.count("remote.completed", 5, host="h2")
        out = render_events(load_events(tel.path))
        assert "remote.completed{host=h1}" in out
        assert "remote.completed{host=h2}" in out


class TestRenderer:
    def test_malformed_and_foreign_lines_skipped(self, tel):
        tel.count("kept", 1)
        with open(tel.path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "kind": "counter", "na')  # torn write
            fh.write("\n")
            fh.write(json.dumps({"v": 999, "kind": "counter", "name": "foreign"}))
            fh.write("\nnot json at all\n")
            fh.write(json.dumps({"v": 1, "kind": "counter"}))  # no name
            fh.write("\n")
        records = load_events(tel.path)
        names = [r["name"] for r in records if r["kind"] == "counter"]
        assert names == ["kept"]

    def test_malformed_nested_fields_skip_the_span(self, tel):
        tel.emit("span", "bad", id=1, parent=0, depth=0, start=0.0, dur=1.0,
                 children=[["not", "a", "child"]])
        tel.count("kept", 1)
        assert [r["name"] for r in load_events(tel.path)] == ["telemetry.enabled", "kept"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            render_file(tmp_path / "absent.jsonl")

    def test_tree_and_sections(self, tel):
        with tel.span("runner.batch"):
            with tel.span("job.execute"):
                pass
        tel.count("sim.l1d.hits", 10)
        tel.event("runner.job_done", key="abc123")
        out = render_events(load_events(tel.path))
        assert "span tree" in out
        assert "runner.batch" in out and "    job.execute" in out
        assert "sim.l1d.hits" in out
        assert "runner.job_done x1" in out
        assert "key=abc123" in out

    def test_orphan_span_roots_itself(self, tel):
        # A span whose parent record never made it (process died with the
        # parent still open) must still appear in the tree.
        tel.emit("span", "orphan", id=77, parent=55, depth=1, start=0.0, dur=0.5)
        out = render_events(load_events(tel.path))
        assert "orphan" in out
