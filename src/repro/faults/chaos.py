"""The ``repro chaos`` harness: differential sweeps under fault schedules.

Each **cell** of the chaos matrix is one ``(fault, backend)`` pair: a small
sweep grid executed through that backend while a single-fault
:class:`~repro.faults.core.FaultSchedule` is live - in this process for
parent-side failpoints (the store, telemetry), via :data:`FAULTS_ENV` for
spawn pool workers, and via per-subprocess environments for ``repro serve``
daemons (only the *first* daemon of a remote cell carries the schedule, so
multi-host failover has a clean host to fail over to).

Every cell is judged against a fault-free serial reference by the **single
fault invariant** (DESIGN.md section 13): the run must either

* complete with **bit-identical** ``RunStats`` for every job (canonical
  JSON comparison - the exact representation the cache persists), or
* die with a **typed error** (:class:`~repro.common.errors.ReproError`
  subclass or ``OSError``).

Anything else - differing stats, missing jobs, an untyped exception - is a
**silent divergence** and fails the harness.  ``repro chaos`` exits
non-zero if any cell diverges, which is what the CI ``chaos-smoke`` job
asserts.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.common.errors import ConfigError, ReproError, RunnerError
from repro.faults.core import FAULTS, FAULTS_ENV, FaultRule, FaultSchedule
from repro.obs import TELEMETRY
from repro.runner.backends import LocalBackend, ProcessBackend, RemoteBackend
from repro.runner.job import Job
from repro.runner.parallel import ParallelRunner
from repro.runner.store import ResultStore
from repro.runner.sweep import grid_from_args

#: Named single-fault scenarios.  Scopes matter: ``worker`` rules leave the
#: parent's serial-fallback path clean (that is the recovery the watchdog
#: cells prove), ``daemon`` rules fire only inside ``repro serve``.
FAULT_CATALOG: dict[str, tuple[FaultRule, ...]] = {
    "none": (),
    "torn-write": (FaultRule("store.append.torn", hit=1),),
    "corrupt-write": (FaultRule("store.append.corrupt", hit=1),),
    "disk-full": (FaultRule("store.append.disk_full", hit=1),),
    "crash": (FaultRule("worker.crash", scope="worker", hit=1),),
    "hang": (
        FaultRule("worker.hang", scope="worker", hit=1, args={"hang_s": 60.0}),
    ),
    "frame-drop": (FaultRule("daemon.frame_drop", scope="daemon", hit=1),),
    "conn-reset": (FaultRule("daemon.conn_reset", scope="daemon", hit=1),),
    "daemon-kill": (FaultRule("daemon.kill", scope="daemon", hit=1),),
    "stall": (
        FaultRule("daemon.stall", scope="daemon", hit=1, args={"stall_s": 60.0}),
    ),
    # times=0: every process that builds the accelerator fails the build,
    # so spawn workers (fresh imports) all land on the pure-Python fallback.
    "build-fail": (FaultRule("accel.build_fail", times=0),),
    "sink-dead": (FaultRule("obs.sink_dead", hit=1),),
}

CHAOS_BACKENDS = ("local", "process", "remote")

#: The default single-fault matrix: every fault against the backend whose
#: hardening it exercises.  ``none`` cells prove the harness itself holds
#: bit-identity; remote cells run two daemons with the schedule on daemon 0
#: only, so recovery (not just loud death) is on the table.
DEFAULT_MATRIX: tuple[tuple[str, str], ...] = (
    ("none", "local"),
    ("none", "process"),
    ("none", "remote"),
    ("torn-write", "local"),
    ("corrupt-write", "local"),
    ("disk-full", "local"),
    ("crash", "process"),
    ("hang", "process"),
    ("build-fail", "process"),
    ("sink-dead", "process"),
    ("crash", "remote"),
    ("frame-drop", "remote"),
    ("conn-reset", "remote"),
    ("daemon-kill", "remote"),
    ("stall", "remote"),
)

#: Chaos workloads: two cheap benchmarks x PCT {1, 4} at tiny scale - four
#: jobs, ~50 ms serially, so the wall clock of a cell is dominated by the
#: recovery machinery under test, not the simulations.
DEFAULT_WORKLOADS = ("radix", "tsp")
DEFAULT_PCTS = (1, 4)

_READY_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def chaos_jobs(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    pcts: Sequence[int] = DEFAULT_PCTS,
    seed: int = 0,
) -> list[Job]:
    """The small differential grid every cell executes."""
    grid = grid_from_args(
        workloads=tuple(workloads),
        families=("pct",),
        pcts=tuple(pcts),
        num_cores=16,
        scale="tiny",
        warmup=False,
        seed=seed,
        num_seeds=1,
        verify=False,
    )
    return list(grid.jobs())


def _canon(stats: dict) -> str:
    """Canonical bytes-on-disk form of one result (the comparison unit)."""
    return json.dumps(stats, sort_keys=True, separators=(",", ":"))


def reference_results(jobs: Sequence[Job]) -> dict[str, str]:
    """Fault-free serial reference: ``job.key -> canonical stats JSON``."""
    if FAULTS.active:
        raise RunnerError("refusing to compute the chaos reference with a "
                          "fault schedule active")
    with ParallelRunner(store=None, backend=LocalBackend()) as runner:
        results = runner.run(list(jobs))
    return {job.key: _canon(stats.to_dict()) for job, stats in zip(jobs, results)}


@dataclass
class CellResult:
    """Outcome of one ``(fault, backend)`` cell."""

    fault: str
    backend: str
    #: "identical" | "typed-error" | "diverged" | "untyped-error"
    outcome: str
    detail: str = ""
    seconds: float = 0.0
    #: Torn/foreign-schema lines the cell's cache reported on reload
    #: (store-fault cells prove the accounting here).
    skipped_lines: int = 0

    @property
    def ok(self) -> bool:
        """The single-fault invariant: identical or loudly, typed, dead."""
        return self.outcome in ("identical", "typed-error")

    def to_dict(self) -> dict:
        return {
            "fault": self.fault,
            "backend": self.backend,
            "outcome": self.outcome,
            "ok": self.ok,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
            "skipped_lines": self.skipped_lines,
        }


@dataclass
class ChaosReport:
    seed: int
    cells: list[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def table(self) -> str:
        header = f"{'fault':<14} {'backend':<8} {'outcome':<14} {'s':>6}  detail"
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            mark = "" if cell.ok else "  <-- INVARIANT VIOLATION"
            detail = cell.detail
            if cell.skipped_lines:
                detail = (detail + "; " if detail else "") + (
                    f"{cell.skipped_lines} skipped cache line(s)"
                )
            lines.append(
                f"{cell.fault:<14} {cell.backend:<8} {cell.outcome:<14} "
                f"{cell.seconds:>6.1f}  {detail}{mark}"
            )
        verdict = "OK: zero silent divergence" if self.ok else "FAIL: silent divergence"
        lines.append(f"{len(self.cells)} cells, seed {self.seed} - {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _spawn_daemon(env: dict, timeout: float = 30.0):
    """Start one ``repro serve`` subprocess; returns ``(proc, host, port)``."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(env)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.runner.cli", "serve",
         "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + timeout
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait(timeout=5)
            raise RunnerError(
                f"chaos daemon failed to start (exit {proc.returncode})"
            )
        match = _READY_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
        if time.monotonic() > deadline:
            proc.kill()
            raise RunnerError("chaos daemon never announced readiness")


def _stop_daemon(proc) -> None:
    try:
        proc.terminate()  # SIGTERM: the daemon drains gracefully
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    except OSError:
        pass
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def _run_cell(
    fault: str,
    backend_name: str,
    jobs: Sequence[Job],
    reference: dict[str, str],
    cell_dir: Path,
    seed: int,
    job_timeout: float,
    frame_timeout: float,
) -> CellResult:
    """Execute one matrix cell and judge it against the reference."""
    schedule = FaultSchedule(seed=seed, rules=FAULT_CATALOG[fault])
    cache_dir = cell_dir / "cache"
    daemons = []
    env_was_set = FAULTS_ENV in os.environ
    env_prior = os.environ.get(FAULTS_ENV)
    telemetry_enabled = False
    start = time.perf_counter()
    outcome, detail, results = "identical", "", None
    try:
        if backend_name == "remote":
            # Two daemons; the schedule rides the first one's environment
            # only, so the second is the clean host failover can reach.
            for index in range(2):
                env = dict(os.environ)
                env.pop(FAULTS_ENV, None)
                if index == 0 and schedule.rules:
                    env[FAULTS_ENV] = schedule.to_env()
                daemons.append(_spawn_daemon(env))
            backend = RemoteBackend(
                hosts=tuple((host, port) for _proc, host, port in daemons),
                window=2,
                connect_retries=3,
                retry_delay=0.1,
                retry_max_delay=1.0,
                frame_timeout=frame_timeout,
            )
        else:
            # Parent-side (and, via the environment, spawn-worker-side)
            # activation; role stays "parent" so worker-scoped rules
            # cannot fire in this process.
            if schedule.rules:
                os.environ[FAULTS_ENV] = schedule.to_env()
                FAULTS.activate(schedule)
            if backend_name == "process":
                backend = ProcessBackend(workers=2, job_timeout=job_timeout)
            else:
                backend = LocalBackend()
        if fault == "sink-dead":
            TELEMETRY.enable(str(cell_dir / "telemetry.jsonl"))
            telemetry_enabled = True
        store = ResultStore(str(cache_dir))
        with ParallelRunner(store=store, backend=backend) as runner:
            results = runner.run(list(jobs))
    except (ReproError, OSError) as exc:
        outcome = "typed-error"
        detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - untyped escape IS the finding
        outcome = "untyped-error"
        detail = f"{type(exc).__name__}: {exc}"
    finally:
        FAULTS.deactivate()
        if env_was_set:
            os.environ[FAULTS_ENV] = env_prior
        else:
            os.environ.pop(FAULTS_ENV, None)
        if telemetry_enabled:
            TELEMETRY.disable()
        for proc, _host, _port in daemons:
            _stop_daemon(proc)

    if results is not None:
        mismatched = []
        for job, stats in zip(jobs, results):
            if _canon(stats.to_dict()) != reference[job.key]:
                mismatched.append(job.describe())
        if mismatched:
            outcome = "diverged"
            detail = f"stats differ from serial reference: {mismatched}"
        else:
            detail = f"{len(jobs)} jobs bit-identical"

    skipped = 0
    if cache_dir.exists():
        # A fresh store replays the log at construction, so its skip
        # counters reflect exactly what the cell's faults left behind.
        skipped = ResultStore(str(cache_dir)).skipped_lines
    if len(detail) > 160:
        detail = detail[:157] + "..."
    return CellResult(
        fault=fault,
        backend=backend_name,
        outcome=outcome,
        detail=detail,
        seconds=time.perf_counter() - start,
        skipped_lines=skipped,
    )


# ----------------------------------------------------------------------
def run_chaos(
    seed: int = 0,
    faults: Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
    matrix: Sequence[tuple[str, str]] | None = None,
    job_timeout: float = 1.5,
    frame_timeout: float = 1.5,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    progress: Callable[[str, str], None] | None = None,
) -> ChaosReport:
    """Run the chaos matrix; the report carries one judged cell per pair.

    ``faults``/``backends`` filter the matrix (unknown names raise
    :class:`~repro.common.errors.ConfigError` - a typo'd chaos run must
    not silently test nothing).
    """
    for name in faults or ():
        if name not in FAULT_CATALOG:
            raise ConfigError(
                f"unknown fault {name!r} (known: {', '.join(sorted(FAULT_CATALOG))})"
            )
    for name in backends or ():
        if name not in CHAOS_BACKENDS:
            raise ConfigError(
                f"unknown chaos backend {name!r} (known: {CHAOS_BACKENDS})"
            )
    cells = [
        (fault, backend)
        for fault, backend in (matrix if matrix is not None else DEFAULT_MATRIX)
        if (faults is None or fault in faults)
        and (backends is None or backend in backends)
    ]
    if not cells:
        raise ConfigError("chaos matrix is empty after filtering")

    jobs = chaos_jobs(workloads=workloads)
    reference = reference_results(jobs)
    report = ChaosReport(seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = Path(tmp)
        for index, (fault, backend) in enumerate(cells):
            if progress is not None:
                progress(fault, backend)
            cell_dir = root / f"cell-{index:02d}-{fault}-{backend}"
            cell_dir.mkdir()
            report.cells.append(
                _run_cell(
                    fault, backend, jobs, reference, cell_dir,
                    seed, job_timeout, frame_timeout,
                )
            )
    return report
