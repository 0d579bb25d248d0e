"""Multiprocessing pool backend: spawn-safe workers on the local machine.

Worker processes are **spawn-safe**: the pool is created from the ``spawn``
context (the fork-unsafe-by-default world of macOS/Windows and of threaded
parents) and workers receive only serialized ``(payload, trace | None)``
tasks.  Each worker rebuilds ``ArchConfig``/``ProtocolConfig``/``Simulator``
from the payload, adopts the shipped columnar trace into its per-process
memo (or regenerates it under ``rng.seed_scope(job.seed)`` when none was
shipped), and derives every random stream from the job itself - never from
inherited process state (see DESIGN.md, "Runner and result cache").

Results cross the process boundary as ``RunStats.to_dict()`` payloads - the
exact representation the cache persists - so pooled execution is bit-identical
to the serial reference by construction.

**Hung-worker watchdog** (``job_timeout``): ``multiprocessing.Pool`` has no
defense against a worker that wedges (or one that ``os._exit``\\ s, whose
task the repopulated pool silently never finishes) - ``imap_unordered``
would wait forever.  With ``job_timeout`` set, the batch runs through
individually tracked ``apply_async`` handles instead: when no result lands
for ``job_timeout`` seconds while work is outstanding, the pool is
**terminated** (killing hung workers with it) and the stranded tasks are
re-dispatched on a fresh pool.  Jobs are deterministic and results are
deduplicated by content key, so a re-run is bit-identical - the cost of a
false strike is wall-clock, never wrong data.  After ``max_strikes``
terminations the backend stops trusting pools and finishes the batch
serially in the parent, which always makes progress.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.common.errors import ConfigError, RunnerError
from repro.faults import FAULTS
from repro.obs import TELEMETRY
from repro.runner.backends.local import Task, run_task

log = logging.getLogger("repro.runner.process")


def _worker_init() -> None:
    """Pool initializer: mark this process as a pool worker.

    Spawn workers re-activate any inherited ``REPRO_FAULTS`` schedule at
    import with the default role; this pins the role fault rules scope on
    (``scope="worker"``) before the first task runs.
    """
    FAULTS.role = "worker"


@dataclass
class ProcessBackend:
    """Shards task batches over a lazily created ``multiprocessing`` pool."""

    workers: int = 2
    #: Per-job wall-clock budget (seconds).  ``None`` disables the watchdog
    #: and keeps the historical lazy ``imap_unordered`` path.  The clock
    #: measures *batch progress*: it restarts whenever any result lands, so
    #: it bounds the slowest single job, not the whole batch.  Size it well
    #: above the longest legitimate job.
    job_timeout: float | None = None
    #: Pool terminations tolerated before the batch falls back to serial
    #: in-parent execution for its remainder.
    max_strikes: int = 2

    wants_traces = True
    #: ``multiprocessing`` start method: "spawn" works everywhere and proves
    #: workers carry no inherited state.
    START_METHOD = "spawn"
    #: Per-batch progress label: "parallel" for pooled batches, "serial" when
    #: a single-task batch runs inline in the parent (no pool spin-up).
    source: str = field(default="parallel", init=False)

    #: Watchdog strikes accumulated over the backend's lifetime.  Persisted
    #: across batches deliberately: an environment that hangs pools once
    #: tends to do it again, and serial execution always finishes.
    strikes: int = field(default=0, init=False)

    #: Worker pool, created lazily on the first multi-task batch and kept for
    #: the backend's lifetime: a figure gallery submits one batch per figure,
    #: and reusing the pool preserves both the spawn startup cost and each
    #: worker's trace memo across batches.  Terminated by :meth:`close` (or
    #: the pool's own GC finalizer; workers are daemonic either way).
    _pool: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ConfigError(f"job_timeout must be > 0, got {self.job_timeout}")
        if self.max_strikes < 1:
            raise ConfigError(f"max_strikes must be >= 1, got {self.max_strikes}")

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context(self.START_METHOD)
            self._pool = context.Pool(
                processes=self.workers, initializer=_worker_init
            )
        return self._pool

    def run_batch(self, tasks: Iterable[Task]) -> Iterator[tuple[str, dict]]:
        """Execute a batch over the pool; yields results as workers finish.

        Tasks are consumed lazily, so parent-side trace compilation overlaps
        with worker execution.  A batch of exactly one task runs inline in
        the parent (reported as ``source="serial"``): spinning up a pool for
        it would cost more than the simulation.  With ``job_timeout`` set,
        every batch goes through the watchdog path instead (tasks are
        materialized up front - the watchdog must be able to re-dispatch
        them, and even a single task must not hang the parent inline).
        """
        if self.job_timeout is not None:
            yield from self._run_watched(list(tasks))
            return
        it = iter(tasks)
        first = next(it, None)
        if first is None:
            return
        second = next(it, None)
        if second is None:
            self.source = "serial"
            yield run_task(first)
            return
        self.source = "parallel"

        def chain() -> Iterator[Task]:
            yield first
            yield second
            yield from it

        pool = self._ensure_pool()
        try:
            yield from pool.imap_unordered(run_task, chain())
        except RunnerError:
            raise
        except Exception as exc:  # worker crash: surface which engine failed
            self.close()
            raise RunnerError(f"worker pool failed: {exc}") from exc

    # ------------------------------------------------------------------
    def _run_watched(self, pending: list[Task]) -> Iterator[tuple[str, dict]]:
        """The watchdog path: tracked handles, strike on stall, re-dispatch."""
        poll = min(0.05, self.job_timeout / 10)
        while pending:
            if self.strikes >= self.max_strikes:
                log.warning(
                    "worker pool struck out (%d terminations): finishing "
                    "%d job(s) serially in the parent",
                    self.strikes, len(pending),
                )
                if TELEMETRY.enabled:
                    TELEMETRY.event(
                        "process.serial_fallback",
                        strikes=self.strikes, jobs=len(pending),
                    )
                self.source = "serial"
                for task in pending:
                    yield run_task(task)
                return
            self.source = "parallel"
            pool = self._ensure_pool()
            handles = [pool.apply_async(run_task, (task,)) for task in pending]
            finished = [False] * len(handles)
            done = 0
            last_progress = time.monotonic()
            struck = False
            while done < len(handles):
                progressed = False
                for index, handle in enumerate(handles):
                    if finished[index] or not handle.ready():
                        continue
                    finished[index] = True
                    done += 1
                    progressed = True
                    try:
                        result = handle.get()
                    except RunnerError:
                        raise
                    except Exception as exc:  # deterministic job failure
                        self.close()
                        raise RunnerError(f"worker pool failed: {exc}") from exc
                    yield result
                if progressed:
                    last_progress = time.monotonic()
                    continue
                if time.monotonic() - last_progress >= self.job_timeout:
                    struck = True
                    break
                time.sleep(poll)
            if not struck:
                return
            self.strikes += 1
            pending = [task for index, task in enumerate(pending) if not finished[index]]
            log.warning(
                "worker watchdog: no result for %.1fs with %d job(s) "
                "outstanding; terminating the pool and re-dispatching "
                "(strike %d/%d)",
                self.job_timeout, len(pending), self.strikes, self.max_strikes,
            )
            if TELEMETRY.enabled:
                TELEMETRY.event(
                    "process.watchdog_strike",
                    strike=self.strikes, stranded=len(pending),
                    timeout_s=self.job_timeout,
                )
            self.close()  # terminate() kills hung/crashed workers with the pool

    def submit(
        self,
        task: Task,
        callback: Callable[[tuple[str, dict]], None],
        error_callback: Callable[[BaseException], None],
    ) -> None:
        """Dispatch one task asynchronously (callbacks fire on a pool thread).

        This is the hook the ``repro serve`` daemon uses to front the pool
        from its asyncio event loop: each incoming job frame becomes one
        ``submit`` whose callback resolves an asyncio future.
        """
        self._ensure_pool().apply_async(
            run_task, (task,), callback=callback, error_callback=error_callback
        )

    def close(self) -> None:
        """Terminate the worker pool (idempotent; a new one spawns on demand)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
