"""Output checks: tracing neutrality, digest mismatches, committed refs."""

import json

import points
import run
import sample
import tracing
from repro import accel
from repro.common.types import Op


def sync_records(trace) -> int:
    return sum(col.count(int(op)) for col in trace.ops for op in (Op.BARRIER, Op.LOCK, Op.UNLOCK))


def test_tracing_keeps_digests_and_restores_every_method():
    pts = [p for p in sample.sim_setup("miss-heavy", 0, "tiny")
           if p.family in ("adaptive-4", "dls", "neat")]
    plain = {p.pid: sample.digest(p.sim.run(p.trace)) for p in pts}
    targets = sample.sim_targets()
    originals = [(owner, attr, vars(owner)[attr]) for _label, owner, attr in targets]
    real_getter = accel.sched_kernel_class
    tracer = tracing.Tracer()
    tracer.install(targets)
    kernel_exits = sample.KernelExits(real_getter)
    tracer.patch(accel, "sched_kernel_class", kernel_exits)
    try:
        traced = {p.pid: sample.digest(p.sim.run(p.trace)) for p in pts}
        layers = tracer.times()
    finally:
        tracer.restore()
    assert traced == plain
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert accel.sched_kernel_class is real_getter
    assert layers["sim"]["calls"] == len(pts)
    for layer in ("protocol", "rnuca", "network", "mem", "energy"):
        assert layers[layer]["calls"] > 0, layer
    # The compiled scheduler exits once per sync record, in warmup and in
    # the measured pass; the pure-Python loop has no kernel to exit.
    compiled = real_getter() is not None
    expected = sum(2 * sync_records(p.trace) for p in pts) if compiled else 0
    assert kernel_exits.exits == expected
    assert not compiled or expected > 0


def test_digest_check_fails_on_a_perturbed_runstats():
    p = sample.sim_setup("hit-heavy", 0, "tiny")[0]
    stats = p.sim.run(p.trace)
    good = sample.Ledger()
    good.add(p.pid, stats, p.trace, "pass 1")
    refs = {"points": {p.pid: good.entries[p.pid]["digest"]}}
    report: list[str] = []
    assert run.check_results("hit-heavy", [good.report()], refs, report)[0] == 0

    stats.completion_time += 1.0
    bad = sample.Ledger()
    bad.add(p.pid, stats, p.trace, "pass 1")
    failed, _ = run.check_results("hit-heavy", [bad.report()], refs, report)
    assert failed == 1
    assert report[-1].startswith("  reference mismatch: " + p.pid)

    # The same result differing between two samples is nondeterminism.
    failed, _ = run.check_results("hit-heavy", [good.report(), bad.report()], None, report)
    assert failed == 1
    # ... and between two passes of one sample.
    good.add(p.pid, stats, p.trace, "pass 2")
    assert good.mismatches == [f"{p.pid}: pass 2 differs from its first result"]


def test_committed_references_cover_every_point_and_job():
    sim_points = {points.point_id(*pt) for spec in points.WORKLOADS.values()
                  for pt in spec.get("points", ())}
    files = sorted(run.REFS_DIR.glob("seed-*.json"))
    assert files
    for path in files:
        refs = json.loads(path.read_text())
        assert set(refs["points"]) == sim_points, path
        assert len(refs["fig11"]) == 21 * 14, path
        assert set(refs["fig11_series"]) == {str(p) for p in sample.PCT_SWEEP_WIDE}, path
