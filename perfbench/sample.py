"""One benchmark sample, run in a fresh process by ``run.py``.

    python3 perfbench/sample.py '{"mode": "sample", "workload": "miss-heavy",
                                  "seed": 0, "budget_s": 6.0, "size": "full",
                                  "out_dir": ".bench_build/perfbench"}'

Modes:

* ``warm``    import the program and load the kernels, building them into
              the cache if needed; report the environment.
* ``setup``   set the workload up and stop (one more set-up time).
* ``sample``  set up, then run the timed region with tracing off.
* ``traced``  set up, then run the same work with the benchmark's span
              wrappers and the program's ``repro.obs`` sink on.
* ``digests`` set up and run the workload once, reporting result digests.

The last line of standard output is one JSON object.  Set-up time is the
process's CPU time from interpreter start to the first timed region, so it
covers imports, kernel load, trace builds and simulator or runner
construction.  Every simulated result is reduced to a digest of its
canonical ``RunStats.to_dict()`` JSON plus exact work counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import points  # noqa: E402
import tracing  # noqa: E402
from repro import (  # noqa: E402
    Simulator,
    accel,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    victim_replication_protocol,
)
from repro.common import rng  # noqa: E402
from repro.experiments.figures import figure11_geomean_sweep  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    PCT_SWEEP_WIDE,
    ExperimentRunner,
    bench_arch,
    protocol_for_pct,
)
from repro.obs import TELEMETRY, TELEMETRY_ENV, load_events  # noqa: E402
from repro.runner import ParallelRunner, ResultStore, canonical_json  # noqa: E402
from repro.runner.backends import ProcessBackend  # noqa: E402
from repro.workloads import registry  # noqa: E402

PROTOCOLS = {
    "adaptive-4": lambda: protocol_for_pct(4),
    "baseline": baseline_protocol,
    "victim": victim_replication_protocol,
    "dls": dls_protocol,
    "neat": neat_protocol,
    "phase": phase_protocol,
}

#: ``--size tiny`` shrinks every workload to seconds (the benchmark's own
#: end-to-end tests); results at that size have no committed references.
TINY_CORES = 16
TINY_FIG11 = (("tsp", "radix"), (1, 4))

#: Minimum wall seconds of back-to-back warm Figure-11 re-runs per sample.
WARM_MIN_S = 3.0


def digest(stats) -> str:
    """Short sha256 of the canonical ``RunStats.to_dict()`` JSON."""
    return hashlib.sha256(canonical_json(stats.to_dict()).encode()).hexdigest()[:16]


def counts(stats, trace) -> dict:
    """Exact work counts of one result (records cover warmup + measure)."""
    return {
        "records": 2 * trace.total_records,
        "l1_accesses": stats.miss.accesses,
        "l1_hits": stats.miss.hits,
        "flits": stats.network_flits,
        "dram_requests": stats.dram_requests,
    }


class KernelExits:
    """Stands in for ``accel.sched_kernel_class`` during the traced run and
    counts the records the compiled scheduler hands back to the Python
    trampoline (every ``run()`` return but the final ``None``).  The
    pure-Python loop has no kernel, so it counts nothing."""

    def __init__(self, real_getter) -> None:
        self.real_getter = real_getter
        self.exits = 0

    def __call__(self):
        cls = self.real_getter()
        if cls is None:
            return None
        counter = self

        class Counted:
            def __init__(self, *args) -> None:
                self._kernel = cls(*args)

            def run(self):
                exit_ = self._kernel.run()
                counter.exits += exit_ is not None
                return exit_

            def __getattr__(self, name: str):
                return getattr(self._kernel, name)

        return Counted


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def environment() -> dict:
    """nproc, Python, compiler and kernel stamps for the result record."""
    status = accel.status()
    artifact = status.get("artifact")
    stamp = None
    if artifact and Path(artifact).exists():
        stamp = hashlib.sha256(Path(artifact).read_bytes()).hexdigest()[:16]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": status.get("compiler"),
        "kernels": {name: k["implementation"] for name, k in status["kernels"].items()},
        "kernel_sha256": stamp,
    }


def refuse_mismatched_impl(expected: str) -> str | None:
    """The refusal message when the active kernels are not ``expected``."""
    active = {name: k["implementation"] for name, k in accel.status()["kernels"].items()}
    if any(impl != expected for impl in active.values()):
        return f"workload needs {expected} kernels, active: {active}"
    return None


class Ledger:
    """Digests and counts of every result; repeats must match the first."""

    def __init__(self) -> None:
        self.entries: dict[str, dict] = {}
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0

    def add(self, key: str, stats, trace, where: str) -> None:
        self.attempted += 1
        entry = {"digest": digest(stats), "counts": counts(stats, trace)}
        first = self.entries.setdefault(key, entry)
        if first != entry:
            self.mismatches.append(f"{key}: {where} differs from its first result")

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.errors.append(message)

    def report(self) -> dict:
        return {
            "results": self.entries,
            "mismatches": self.mismatches,
            "errors": self.errors,
            "attempted": self.attempted,
        }


def obs_totals(sink: Path) -> dict:
    """Counter sums and span records of a ``repro.obs`` sink."""
    counters: dict[str, int] = {}
    spans: dict[str, list[dict]] = {}
    for record in load_events(sink):
        if record["kind"] == "counter":
            counters[record["name"]] = counters.get(record["name"], 0) + record.get("value", 0)
        elif record["kind"] == "span":
            spans.setdefault(record["name"], []).append(record)
    return {"counters": counters, "spans": spans}


# ----------------------------------------------------------------------
# Simulator workloads: hit-heavy, miss-heavy, fallback
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Point:
    pid: str
    family: str
    sim: Simulator
    trace: object


def sim_points(workload: str, size: str) -> list[tuple[str, str, str]]:
    pts = points.WORKLOADS[workload]["points"]
    if size == "tiny":
        return [(name, "tiny", family) for name, _scale, family in pts]
    return list(pts)


def sim_setup(workload: str, seed: int, size: str, tracer=None) -> list[Point]:
    """Build the workload's traces (under the seed) and its simulators."""
    arch = bench_arch(TINY_CORES if size == "tiny" else 64)
    build = registry.load_workload
    if tracer is not None:
        build = tracer.wrap("workloads.build", build)
    traces: dict = {}
    out = []
    for name, scale, family in sim_points(workload, size):
        trace = traces.get((name, scale))
        if trace is None:
            with rng.seed_scope(seed):
                trace = build(name, arch, scale=scale)
            traces[(name, scale)] = trace
        out.append(Point(points.point_id(name, scale, family), family,
                         Simulator(arch, PROTOCOLS[family](), warmup=True), trace))
    return out


def unique_traces(pts: list[Point]) -> list:
    return list({id(p.trace): p.trace for p in pts}.values())


def run_passes(pts: list[Point], budget_s: float, min_passes: int, ledger: Ledger,
               after_point=None, after_pass=None) -> list[dict]:
    """Whole passes over every point until ``budget_s`` wall seconds have
    passed (at least ``min_passes``); each pass records CPU inside
    ``Simulator.run`` and its own CPU time."""
    passes: list[dict] = []
    region0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - region0 < budget_s:
        run_cpu = 0.0
        results = {}
        failed = False
        cpu0 = time.process_time()
        for p in pts:
            c0 = time.process_time()
            try:
                stats = p.sim.run(p.trace)
            except Exception as exc:  # a failed operation: reported, not fatal
                ledger.fail(f"{p.pid}: {type(exc).__name__}: {exc}")
                failed = True
                continue
            run_cpu += time.process_time() - c0
            results[p.pid] = stats
            if after_point is not None:
                after_point(p, stats)
        passes.append({"run_cpu": run_cpu, "cpu": time.process_time() - cpu0})
        for p in pts:
            if p.pid in results:
                ledger.add(p.pid, results[p.pid], p.trace, f"pass {len(passes)}")
        if after_pass is not None:
            after_pass()
        if failed:
            break
    return passes


def sim_sample(spec: dict) -> dict:
    pts = sim_setup(spec["workload"], spec["seed"], spec["size"])
    setup_cpu = time.process_time()
    ledger = Ledger()
    passes = run_passes(pts, spec["budget_s"], 2, ledger)
    return {
        "setup_cpu": setup_cpu,
        "passes": passes,
        "records_per_pass": sum(2 * p.trace.total_records for p in pts),
        **ledger.report(),
    }


def sim_targets() -> list[tuple[str, object, str]]:
    """(span label, owner, attribute) of every wrapped sim-side method."""
    from repro.coherence.classifier.base import LocalityClassifier
    from repro.coherence.classifier.complete import CompleteClassifier
    from repro.coherence.classifier.limited import LimitedClassifier
    from repro.coherence.directory import (
        AckwisePolicy,
        FullMapPolicy,
        NullSharerPolicy,
        SharerTrackingPolicy,
    )
    from repro.energy.model import EnergyModel
    from repro.mem.l2 import L2Slice
    from repro.mem.memctrl import MemoryController, MemorySubsystem
    from repro.network.mesh import MeshNetwork
    from repro.protocol.directory import DirectoryEngine
    from repro.protocol.dls import DLSEngine
    from repro.protocol.neat import NeatEngine
    from repro.rnuca import RNucaPageTable, RNucaPlacement

    layers = {
        "coherence": (LocalityClassifier, LimitedClassifier, CompleteClassifier,
                      SharerTrackingPolicy, FullMapPolicy, NullSharerPolicy, AckwisePolicy),
        "rnuca": (RNucaPlacement, RNucaPageTable),
        "mem": (L2Slice, MemoryController, MemorySubsystem),
    }
    targets = [("sim.run", Simulator, "run"), ("energy.breakdown", EnergyModel, "breakdown")]
    # Victim and phase inherit DirectoryEngine.access.
    targets += [("protocol.access", cls, "access") for cls in (DirectoryEngine, DLSEngine, NeatEngine)]
    for layer, classes in layers.items():
        for cls in classes:
            targets += [(f"{layer}.{m}", cls, m) for m in tracing.public_methods(cls)]
    traversals = {"resolve_path", "traverse_path", "traverse_chain", "traverse_many",
                  "unicast", "broadcast"}
    targets += [(f"network.{m}", MeshNetwork, m)
                for m in tracing.public_methods(MeshNetwork, traversals)]
    return targets


SIM_LAYERS = ("sim", "protocol", "coherence", "rnuca", "network", "mem", "energy")
RUNSTATS_COUNTS = ("promotions", "demotions", "remote_accesses", "network_flits",
                   "l2_misses", "dram_requests")


def sim_traced(spec: dict) -> dict:
    tracer = tracing.Tracer()
    pts = sim_setup(spec["workload"], spec["seed"], spec["size"], tracer)
    builds = tracer.times().get("workloads", {"calls": 0, "s": 0.0})
    tracer.clear()
    wrapper_s = tracing.measure_wrapper_s()
    rows: list[dict] = [{}]
    family_s: dict[str, list[float]] = {}
    sums = dict.fromkeys(RUNSTATS_COUNTS, 0)
    kernel_exits = KernelExits(accel.sched_kernel_class)

    def fold(p: Point, stats) -> None:
        row = rows[-1]
        for layer, agg in tracer.times(wrapper_s=wrapper_s).items():
            mine = row.setdefault(layer, dict.fromkeys(("calls", "s", "self_s"), 0))
            for key in mine:
                mine[key] += agg[key]
            if layer == "protocol":
                fam = family_s.setdefault(p.family, [0.0, 0])
                fam[0] += agg["s"]
                fam[1] += agg["calls"]
        tracer.clear()
        for key in RUNSTATS_COUNTS:
            sums[key] += getattr(stats, key)

    ledger = Ledger()
    sink = Path(spec["out_dir"]) / f"obs-{os.getpid()}.jsonl"
    sink.unlink(missing_ok=True)
    tracer.install(sim_targets())
    tracer.patch(accel, "sched_kernel_class", kernel_exits)
    TELEMETRY.enable(sink)
    try:
        passes = run_passes(pts, spec["budget_s"], 1, ledger, fold, lambda: rows.append({}))
    finally:
        TELEMETRY.disable()
        tracer.restore()
    obs = obs_totals(sink)
    sink.unlink(missing_ok=True)
    rows = [row for row in rows if row]
    n = len(rows)
    calls = [{layer: agg["calls"] for layer, agg in row.items()} for row in rows]
    for i, row in enumerate(calls[1:], start=2):
        if row != calls[0]:
            ledger.mismatches.append(f"traced call counts of pass {i} differ from pass 1")
    total = {layer: {key: sum(row.get(layer, {}).get(key, 0) for row in rows) / n
                     for key in ("calls", "s", "self_s")} for layer in SIM_LAYERS}
    records = sum(2 * p.trace.total_records for p in pts)
    entries = total["protocol"]["calls"]
    m = {
        "workloads.build_calls": builds["calls"],
        "workloads.records": sum(t.total_records for t in unique_traces(pts)),
        "workloads.build_s": builds["s"],
        "sim.runs": total["sim"]["calls"],
        "sim.records": records,
        "sim.run_s": total["sim"]["s"],
        "sim.self_s": total["sim"]["self_s"],
        "sim.engine_entries": entries,
        "sim.sync_exits": kernel_exits.exits / n,
        "sim.inline_frac": 1.0 - entries / records,
        "protocol.access_calls": entries,
        "protocol.access_s": total["protocol"]["s"],
        "protocol.self_s": total["protocol"]["self_s"],
        "coherence.promotions": sums["promotions"] / n,
        "coherence.demotions": sums["demotions"] / n,
        "coherence.remote_accesses": sums["remote_accesses"] / n,
        "network.messages": obs["counters"].get("mesh.messages", 0) / n,
        "network.flits": sums["network_flits"] / n,
        "network.slot_recycles": obs["counters"].get("mesh.slot_recycles", 0) / n,
        "mem.l2_misses": sums["l2_misses"] / n,
        "mem.dram_requests": sums["dram_requests"] / n,
        "energy.s": total["energy"]["s"],
        "tracing.wrapper_ns": wrapper_s * 1e9,
    }
    for layer in ("coherence", "rnuca", "network", "mem"):
        m[f"{layer}.calls"] = total[layer]["calls"]
        m[f"{layer}.s"] = total[layer]["s"]
    for family in points.FAMILIES:
        s, fam_calls = family_s.get(family, (0.0, 0))
        m[f"protocol.access_us.{family.split('-')[0]}"] = 1e6 * s / fam_calls if fam_calls else 0.0
    return {"layer_metrics": m, "passes": passes, **ledger.report()}


# ----------------------------------------------------------------------
# fig11-sweep: ExperimentRunner + ProcessBackend + ResultStore
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SeededRunner(ExperimentRunner):
    """An ``ExperimentRunner`` whose jobs carry the benchmark's trace seed."""

    seed: int = 0

    def job(self, workload, proto, arch=None):
        return dataclasses.replace(super().job(workload, proto, arch), seed=self.seed)


def sweep_grid(size: str) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    if size == "tiny":
        return (*TINY_FIG11, TINY_CORES)
    return registry.WORKLOAD_NAMES, PCT_SWEEP_WIDE, 64


def make_runner(spec: dict, store_dir: Path) -> SeededRunner:
    workloads, _pcts, cores = sweep_grid(spec["size"])
    return SeededRunner(
        arch=bench_arch(cores),
        scale=points.FIG11_SCALE,
        workloads=workloads,
        workers=points.FIG11_WORKERS,
        store=ResultStore(store_dir),
        backend=ProcessBackend(workers=points.FIG11_WORKERS),
        seed=spec["seed"],
    )


def run_figure(runner: SeededRunner, pcts, tracer=None):
    """Figure 11 as a user gets it: grid, figure, rendered text, pool closed."""
    figure_fn = figure11_geomean_sweep
    if tracer is not None:
        figure_fn = tracer.wrap("experiments.figure", figure_fn)
    with runner:
        figure = figure_fn(runner, pcts)
        _ = figure.text
    return figure


def job_results(runner: SeededRunner, pcts) -> list[tuple[str, object, str]]:
    """(job id, RunStats, workload) of every grid point, from the memo."""
    return [
        (points.fig11_job_id(w, p), runner.run(w, protocol_for_pct(p)), w)
        for w in runner.workloads
        for p in pcts
    ]


def series_of(figure) -> dict:
    return {str(pct): list(pair) for pct, pair in figure.data["series"].items()}


def sweep_cold(spec: dict, runner: SeededRunner, ledger: Ledger, tracer=None) -> dict:
    """From an empty store to the rendered figure; wall and CPU of the
    parent and of the pool workers (reaped when the runner closes)."""
    _workloads, pcts, _cores = sweep_grid(spec["size"])
    kids0, cpu0, wall0 = children_cpu(), time.process_time(), time.perf_counter()
    try:
        figure = run_figure(runner, pcts, tracer)
    except Exception as exc:  # the whole grid failed: every job counts
        for _ in range(len(runner.workloads) * len(pcts)):
            ledger.fail(f"cold sweep: {type(exc).__name__}: {exc}")
        return {}
    wall = time.perf_counter() - wall0
    parent_cpu = time.process_time() - cpu0
    worker_cpu = children_cpu() - kids0
    traces = {w: runner.trace(w) for w in runner.workloads}
    results = job_results(runner, pcts)
    for jid, stats, w in results:
        ledger.add(jid, stats, traces[w], "cold run")
    return {
        "wall": wall,
        "parent_cpu": parent_cpu,
        "worker_cpu": worker_cpu,
        "records": sum(2 * traces[w].total_records for _jid, _stats, w in results),
        "series": series_of(figure),
        "traces": traces,
        "stats": {jid: stats for jid, stats, _w in results},
        "counts": {
            "jobs": len(results),
            "simulations": runner.simulations,
            "store_puts": runner.store.stores,
            "store_gets": runner.store.hits + runner.store.misses,
        },
    }


def sweep_warm(spec: dict, store_dir: Path, cold: dict, ledger: Ledger, budget_s: float,
               min_runs: int, tracer=None, after_run=None) -> tuple[list[float], int]:
    """Back-to-back warm re-runs: fresh store load, lookups, no simulation.
    Returns CPU seconds per re-run and the store reads of one re-run."""
    _workloads, pcts, _cores = sweep_grid(spec["size"])
    cpus: list[float] = []
    gets = set()
    region0 = time.perf_counter()
    while len(cpus) < min_runs or time.perf_counter() - region0 < budget_s:
        cpu0 = time.process_time()
        runner = make_runner(spec, store_dir)
        figure = run_figure(runner, pcts, tracer)
        cpus.append(time.process_time() - cpu0)
        if after_run is not None:
            after_run(runner)
        where = f"warm re-run {len(cpus)}"
        if runner.simulations:
            ledger.mismatches.append(f"{where} simulated {runner.simulations} jobs")
        if series_of(figure) != cold["series"]:
            ledger.mismatches.append(f"{where}: Figure 11 series differs from the cold run")
        for jid, stats, w in job_results(runner, pcts):
            ledger.add(jid, stats, cold["traces"][w], where)
        gets.add(runner.store.hits + runner.store.misses)
    if len(gets) != 1:
        ledger.mismatches.append(f"warm re-runs made different store reads: {sorted(gets)}")
    return cpus, max(gets)


def sweep_counts(cold: dict, ledger: Ledger, warm_gets: int) -> dict:
    totals = {key: sum(ledger.entries[jid]["counts"][key] for jid in cold["stats"])
              for key in points.COUNT_KEYS}
    return {**cold["counts"], "store_gets_per_warm_run": warm_gets, **totals}


def sweep_sample(spec: dict) -> dict:
    store_dir = Path(spec["out_dir"]) / f"store-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)
    ledger = Ledger()
    try:
        runner = make_runner(spec, store_dir)
        setup_cpu = time.process_time()
        cold = sweep_cold(spec, runner, ledger)
        if not cold:
            return {"setup_cpu": setup_cpu, **ledger.report()}
        warm_budget = max(WARM_MIN_S, spec["budget_s"] - cold["wall"])
        warm_cpus, warm_gets = sweep_warm(spec, store_dir, cold, ledger, warm_budget, 3)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return {
        "setup_cpu": setup_cpu,
        "cold": {k: cold[k] for k in ("wall", "parent_cpu", "worker_cpu", "records")},
        "warm_cpu": warm_cpus,
        "series": cold["series"],
        "counts": sweep_counts(cold, ledger, warm_gets),
        **ledger.report(),
    }


def sweep_targets(tracer: tracing.Tracer, runner_cpu: list, runner_jobs: list) -> None:
    """Parent-side wrappers: runner (with CPU), backend waits, store."""
    tracer.install([("store.get", ResultStore, "get"), ("store.put", ResultStore, "put"),
                    ("store.load", ResultStore, "__init__")])
    traced_run = tracer.wrap("runner.run", ParallelRunner.__dict__["run"])

    def run_with_cpu(self, jobs):
        jobs = list(jobs)
        runner_jobs.append(len(jobs))
        cpu0 = time.process_time()
        try:
            return traced_run(self, jobs)
        finally:
            runner_cpu.append(time.process_time() - cpu0)

    tracer.patch(ParallelRunner, "run", run_with_cpu)
    original = ProcessBackend.__dict__["run_batch"]
    end = object()

    def run_batch(self, tasks):
        # One span per result the parent waits for.
        inner = original(self, tasks)
        wait = tracer.wrap("backends.wait", lambda: next(inner, end))
        while (item := wait()) is not end:
            yield item

    tracer.patch(ProcessBackend, "run_batch", run_batch)


def sweep_traced(spec: dict) -> dict:
    out_dir = Path(spec["out_dir"])
    store_dir = out_dir / f"store-{os.getpid()}"
    sink = out_dir / f"obs-{os.getpid()}.jsonl"
    shutil.rmtree(store_dir, ignore_errors=True)
    sink.unlink(missing_ok=True)
    tracer = tracing.Tracer()
    ledger = Ledger()
    runner_cpu: list[float] = []
    runner_jobs: list[int] = []
    warm_rows: list[dict] = []
    facts: dict = {}

    def after_run(warm_runner) -> None:
        warm_rows.append(tracer.times(group=str, wrapper_s=wrapper_s))
        tracer.clear()
        store = warm_runner.store
        facts.update(entries=len(store), bytes=store.path.stat().st_size,
                     hit_frac=store.hits / max(1, store.hits + store.misses),
                     skipped_lines=store.skipped_lines)

    wrapper_s = tracing.measure_wrapper_s()
    try:
        sweep_targets(tracer, runner_cpu, runner_jobs)
        os.environ[TELEMETRY_ENV] = str(sink)
        TELEMETRY.enable(sink)
        try:
            runner = make_runner(spec, store_dir)
            cold = sweep_cold(spec, runner, ledger, tracer)
        finally:
            TELEMETRY.disable()
            del os.environ[TELEMETRY_ENV]
        if not cold:
            return ledger.report()
        cold_spans = tracer.times(group=str, wrapper_s=wrapper_s)
        tracer.clear()
        warm_cpus, _gets = sweep_warm(spec, store_dir, cold, ledger, 0.0, 3, tracer, after_run)
    finally:
        tracer.restore()
        shutil.rmtree(store_dir, ignore_errors=True)
    obs = obs_totals(sink)
    sink.unlink(missing_ok=True)
    parent = os.getpid()
    executed = [s for s in obs["spans"].get("job.execute", []) if s["pid"] != parent]
    sim_spans = obs["spans"].get("sim.run", [])
    builds = [s for s in obs["spans"].get("trace.build", []) if s["pid"] == parent]
    job_exec = sum(s["dur"] for s in executed)
    stats = cold["stats"].values()

    def cold_s(name: str, key: str = "s") -> float:
        return cold_spans.get(name, {}).get(key, 0)

    def warm_mean(name: str, key: str = "s") -> float:
        return sum(row.get(name, {}).get(key, 0) for row in warm_rows) / len(warm_rows)

    m = {
        "workloads.build_calls": len(builds),
        "workloads.records": sum(t.total_records for t in cold["traces"].values()),
        "workloads.build_s": sum(s["dur"] for s in builds),
        "sim.runs": len(sim_spans),
        "sim.records": sum(2 * s.get("attrs", {}).get("records", 0) for s in sim_spans),
        "sim.run_s": sum(s["dur"] for s in sim_spans),
        "coherence.promotions": sum(s.promotions for s in stats),
        "coherence.demotions": sum(s.demotions for s in stats),
        "coherence.remote_accesses": sum(s.remote_accesses for s in stats),
        "network.messages": obs["counters"].get("mesh.messages", 0),
        "network.flits": sum(s.network_flits for s in stats),
        "network.slot_recycles": obs["counters"].get("mesh.slot_recycles", 0),
        "mem.l2_misses": sum(s.l2_misses for s in stats),
        "mem.dram_requests": sum(s.dram_requests for s in stats),
        "runner.jobs": runner_jobs[0],
        "runner.simulations": cold["counts"]["simulations"],
        "runner.run_s": cold_s("runner.run"),
        "runner.parent_cpu_s": runner_cpu[0],
        "runner.wait_s": cold_s("backends.wait"),
        "backends.tasks": len(executed),
        "backends.worker_cpu_s": cold["worker_cpu"],
        "backends.job_exec_s": job_exec,
        "backends.overhead_s": cold["worker_cpu"] - job_exec,
        "backends.strikes": runner.backend.strikes,
        "store.load_s": warm_mean("store.load"),
        "store.entries": facts["entries"],
        "store.bytes": facts["bytes"],
        "store.get_calls": warm_mean("store.get", "calls"),
        "store.get_s": warm_mean("store.get"),
        "store.hit_frac": facts["hit_frac"],
        "store.put_calls": cold_s("store.put", "calls"),
        "store.put_s": cold_s("store.put"),
        "store.skipped_lines": facts["skipped_lines"],
        "experiments.figure_s": warm_mean("experiments.figure"),
        "experiments.assembly_s": warm_mean("experiments.figure") - warm_mean("runner.run"),
        "tracing.wrapper_ns": wrapper_s * 1e9,
    }
    return {
        "layer_metrics": m,
        "cold": {k: cold[k] for k in ("wall", "parent_cpu", "worker_cpu", "records")},
        "warm_cpu": warm_cpus,
        **ledger.report(),
    }


def digests_only(spec: dict, kind: str) -> dict:
    """One run of every point (or the cold sweep): results only."""
    ledger = Ledger()
    if kind == "sim":
        run_passes(sim_setup(spec["workload"], spec["seed"], spec["size"]), 0.0, 1, ledger)
        return ledger.report()
    store_dir = Path(spec["out_dir"]) / f"store-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        cold = sweep_cold(spec, make_runner(spec, store_dir), ledger)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return {"series": cold.get("series"), **ledger.report()}


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    mode = spec["mode"]
    if mode == "warm":
        print(json.dumps({"env": environment()}))
        return 0
    workload = points.WORKLOADS[spec["workload"]]
    refusal = refuse_mismatched_impl(spec.get("impl", workload["impl"]))
    if refusal:
        print(json.dumps({"refused": refusal}))
        return 3
    sim = workload["kind"] == "sim"
    if mode == "setup":
        if sim:
            sim_setup(spec["workload"], spec["seed"], spec["size"])
        else:
            make_runner(spec, Path(spec["out_dir"]) / f"store-{os.getpid()}")
        out = {"setup_cpu": time.process_time()}
    elif mode == "sample":
        out = sim_sample(spec) if sim else sweep_sample(spec)
    elif mode == "traced":
        out = sim_traced(spec) if sim else sweep_traced(spec)
    elif mode == "digests":
        out = digests_only(spec, workload["kind"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = peak_rss_mb()
    out["env"] = environment()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
