"""Experiment harness: shared configuration and cached simulation runs.

The harness is the engine behind every figure reproduction.  It provides

* the evaluation convention, defined once in :mod:`repro.common.params` and
  re-exported here: ``bench_arch()`` (Table 1 with capacity-scaled caches,
  DESIGN.md section 2), ``adaptive_protocol()``, ``protocol_for_pct()``
  (PCT=1 *is* the baseline) and the Figure 11 grid ``PCT_SWEEP_WIDE``;
* ``ExperimentRunner`` - a thin figure-facing façade over the sweep engine
  in ``repro.runner``: every simulation point becomes a content-addressed
  :class:`~repro.runner.job.Job`, executed through a
  :class:`~repro.runner.parallel.ParallelRunner` (parallel when
  ``workers > 1``, optionally persistent via a
  :class:`~repro.runner.store.ResultStore`) and memoized in-process so the
  many figures that share sweep points (8, 9, 10, 11 all reuse the PCT
  sweep) never re-simulate.  Figure generators batch their whole grid up
  front via :meth:`ExperimentRunner.prefetch`, so a cold run scales with
  cores and a warm-cache run performs zero simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.common.params import (
    FIGURE11_PCTS as PCT_SWEEP_WIDE,
    ArchConfig,
    ProtocolConfig,
    adaptive_protocol,
    baseline_protocol,
    bench_arch,
    protocol_for_pct,
)
from repro.runner.backends import ExecutionBackend
from repro.runner.backends.local import build_trace
from repro.runner.job import Job
from repro.runner.parallel import ParallelRunner, format_progress
from repro.runner.store import ResultStore
from repro.sim.stats import RunStats
from repro.workloads.base import Trace
from repro.workloads.registry import WORKLOAD_NAMES

#: PCT sweep of Figures 8-10 (per-benchmark stacks).
PCT_SWEEP_DETAIL: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
#: Miss-breakdown sweep of Figure 10.
PCT_SWEEP_MISS: tuple[int, ...] = (1, 2, 3, 4, 6, 8)


@dataclass
class ExperimentRunner:
    """Memoizing simulation runner shared by all figure reproductions."""

    arch: ArchConfig = field(default_factory=bench_arch)
    scale: str = "small"
    workloads: tuple[str, ...] = WORKLOAD_NAMES
    verbose: bool = False
    #: Warmup-then-measure (standard methodology): the first execution warms
    #: caches/classifier, only the second is measured.
    warmup: bool = True
    #: Worker processes for batched execution (1 = in-process, no pool).
    workers: int = 1
    #: Optional on-disk result cache shared across sessions.
    store: ResultStore | None = None
    #: Optional execution backend (e.g. a ``RemoteBackend`` sharding figure
    #: grids across ``repro serve`` daemons).  ``None`` = derive from
    #: ``workers`` as the runner always has.
    backend: ExecutionBackend | None = None

    def __post_init__(self) -> None:
        self._results: dict[str, RunStats] = {}
        self._runner = ParallelRunner(
            store=self.store,
            workers=self.workers,
            progress=self._progress if self.verbose else None,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    def _progress(self, done: int, total: int, job: Job, source: str) -> None:
        print(format_progress(done, total, job, source))

    def job(self, workload: str, proto: ProtocolConfig, arch: ArchConfig | None = None) -> Job:
        """The content-addressed job for one simulation point of this runner."""
        return Job(
            workload=workload,
            proto=proto,
            arch=self.arch if arch is None else arch,
            scale=self.scale,
            warmup=self.warmup,
        )

    def trace(self, workload: str) -> Trace:
        """The (memoized) trace a job of this runner would simulate."""
        return build_trace(self.job(workload, baseline_protocol()))

    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[Job]) -> list[RunStats]:
        """Execute a batch of jobs; session-memoized, order-preserving."""
        todo = [job for job in jobs if job.key not in self._results]
        if todo:
            for job, stats in zip(todo, self._runner.run(todo)):
                self._results[job.key] = stats
        return [self._results[job.key] for job in jobs]

    def prefetch(self, points: Iterable[tuple[str, ProtocolConfig]]) -> None:
        """Batch-execute (workload, protocol) points ahead of per-point reads.

        Figure generators call this with their whole grid so pending points
        run in parallel and the following ``run`` calls are memo lookups.
        """
        self.run_jobs([self.job(workload, proto) for workload, proto in points])

    def run(self, workload: str, proto: ProtocolConfig) -> RunStats:
        return self.run_jobs([self.job(workload, proto)])[0]

    # ------------------------------------------------------------------
    def pct_sweep(self, workload: str, pcts: tuple[int, ...]) -> dict[int, RunStats]:
        stats = self.run_jobs([self.job(workload, protocol_for_pct(p)) for p in pcts])
        return dict(zip(pcts, stats))

    def baseline(self, workload: str) -> RunStats:
        return self.run(workload, baseline_protocol())

    @property
    def points(self) -> int:
        """Distinct points this session has results for, each either
        loaded from the result store or simulated."""
        return len(self._results)

    @property
    def simulations(self) -> int:
        """Simulations actually executed (memo/store hits excluded)."""
        return self._runner.simulations

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the execution backend (pool / connections); idempotent.

        The in-session result memo survives, so a closed runner can keep
        serving memoized points - only fresh simulations respawn resources.
        """
        self._runner.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "PCT_SWEEP_DETAIL", "PCT_SWEEP_MISS", "PCT_SWEEP_WIDE", "ExperimentRunner",
    "adaptive_protocol", "bench_arch", "protocol_for_pct",
]
