"""Telemetry-neutrality property: observing a run must not change it.

The contract (DESIGN.md section 10): with telemetry enabled, every
simulation produces ``RunStats`` **bit-identical** to the uninstrumented
run, across all six protocol families.  The instrumentation emits per
*run* - counters are snapshots of statistics the simulator already keeps -
so neutrality holds by construction; this suite pins it empirically so a
future per-record emission sneaking into a hot loop fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import TELEMETRY, load_events
from repro.runner.backends.local import execute_job
from repro.runner.sweep import grid_from_args

FAMILIES = ("pct", "baseline", "victim", "dls", "neat", "phase")


def _jobs(families=FAMILIES):
    return grid_from_args(
        workloads=("tsp",),
        families=tuple(families),
        pcts=(4,),
        num_cores=16,
        scale="tiny",
        warmup=True,
        seed=0,
    ).jobs()


@pytest.mark.parametrize("family", FAMILIES)
def test_runstats_bit_identical_with_telemetry(family, tmp_path):
    (job,) = _jobs((family,))
    baseline = execute_job(job).to_dict()
    sink = tmp_path / "events.jsonl"
    TELEMETRY.enable(sink)
    try:
        observed = execute_job(job).to_dict()
    finally:
        TELEMETRY.disable()
    # Byte-level identity of the canonical serialization, not approximate
    # equality: telemetry may not perturb a single field.
    assert json.dumps(observed, sort_keys=True) == json.dumps(baseline, sort_keys=True)


def test_instrumented_run_emits_spans_and_counters(tmp_path):
    (job,) = _jobs(("pct",))
    sink = tmp_path / "events.jsonl"
    TELEMETRY.enable(sink)
    try:
        execute_job(job)
    finally:
        TELEMETRY.disable()
    records = load_events(sink)
    spans = {r["name"] for r in records if r["kind"] == "span"}
    counters = {r["name"] for r in records if r["kind"] == "counter"}
    assert "sim.run" in spans
    assert {"sim.phase.warmup", "sim.phase.simulate"} <= spans
    assert {"sim.l1d.accesses", "sim.l1d.hits", "mesh.flits",
            "mesh.slot_recycles", "sim.fastpath.read_hits"} <= counters
    # The run writes one line: its phases and counters ride in it.
    lines = [json.loads(line) for line in sink.read_text().splitlines() if line.strip()]
    assert [r["name"] for r in lines if r["name"].startswith("sim.")] == ["sim.run"]


def test_disabled_run_touches_no_sink(tmp_path):
    # The global singleton is disabled in the test environment; a plain run
    # must not create or write any telemetry artifact.
    assert not TELEMETRY.enabled
    (job,) = _jobs(("baseline",))
    execute_job(job)
    assert list(tmp_path.iterdir()) == []
