"""In-process execution: the serial reference backend and the task kernel.

This module owns the two building blocks every other backend reuses:

* the **per-process trace memo** (:func:`build_trace`) - traces are
  regenerated deterministically from the job alone (``rng.seed_scope``
  around the workload registry), memoized by ``Job.trace_key`` so a PCT
  sweep builds each trace once per process;
* the **uniform task kernel** (:func:`run_task`) - the one entry point
  through which every backend executes a job.  A task is always a
  ``(payload, trace | None)`` tuple: the serialized job dict plus an
  optionally pre-compiled columnar trace.

``LocalBackend`` is the trivial :class:`~repro.runner.backends.ExecutionBackend`:
it runs each task in the calling process, in order.  It is both the
``workers <= 1`` fast path and the bit-identity reference the conformance
suite holds every other backend to.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Iterator

from repro.common import rng
from repro.faults import FAULTS
from repro.obs import TELEMETRY
from repro.runner.job import Job
from repro.sim.multicore import Simulator
from repro.sim.stats import RunStats
from repro.workloads.base import Trace
from repro.workloads.registry import load_workload

#: A dispatchable unit of work: (serialized job, optional compiled trace).
Task = tuple[dict, "Trace | None"]

#: Per-process trace memo, keyed by ``Job.trace_key``.  In the parent it backs
#: serial execution; in pool workers it persists across jobs for the lifetime
#: of the worker process.  Bounded LRU: sweeps visit one trace's jobs in
#: bursts, so a small window captures nearly all reuse while keeping ablations
#: that span many arch variants (each variant = a distinct trace) from
#: pinning every trace ever built for the process lifetime.
_TRACE_CACHE: dict[str, Trace] = {}
_TRACE_CACHE_MAX = 32


def _memoize_trace(trace_key: str, trace: Trace) -> None:
    """Install ``trace`` in the per-process memo (bounded LRU)."""
    while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
        _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    _TRACE_CACHE[trace_key] = trace


def build_trace(job: Job) -> Trace:
    """Regenerate ``job``'s trace deterministically (no process state).

    The trace depends only on (workload, scale, seed, arch); ``seed_scope``
    pins the salt for the duration of the build so concurrent sweeps with
    different seeds cannot interleave incorrectly.
    """
    cached = _TRACE_CACHE.get(job.trace_key)
    if cached is None:
        # span() is a no-op context when telemetry is disabled; a trace
        # build costs seconds, so the check is free at this altitude.
        with TELEMETRY.span(
            "trace.build", workload=job.workload, scale=job.scale, seed=job.seed
        ):
            with rng.seed_scope(job.seed):
                cached = load_workload(job.workload, job.arch, scale=job.scale)
        _memoize_trace(job.trace_key, cached)
    else:
        # Move to the back so hot traces survive eviction (dict = LRU order).
        _TRACE_CACHE.pop(job.trace_key)
        _TRACE_CACHE[job.trace_key] = cached
    return cached


def execute_job(job: Job) -> RunStats:
    """Run one simulation point from scratch: trace + simulator from configs."""
    simulator = Simulator(
        job.arch, job.proto, energy=job.energy, warmup=job.warmup, verify=job.verify
    )
    return simulator.run(build_trace(job))


def run_task(task: Task) -> tuple[str, dict]:
    """Execute one ``(payload, trace | None)`` task: (key, serialized stats) out.

    When a compiled trace rides along (pickled as raw ``array('q')`` buffers,
    a few contiguous blobs per trace rather than a tuple graph) it is adopted
    into the process trace memo, so workers never regenerate a trace the
    parent already built.  ``trace=None`` triggers deterministic regeneration
    from the payload alone - the remote backend relies on this to keep job
    frames trace-free.
    """
    payload, trace = task
    if FAULTS.active:
        # Failpoints for the chaos tier: a worker that dies or wedges
        # mid-job.  Scoped rules (scope="worker") leave the serial parent
        # untouched, which is what lets the watchdog's serial fallback
        # actually finish the batch.
        rule = FAULTS.trigger("worker.crash")
        if rule is not None:
            os._exit(int(rule.arg("exit_code", 3)))
        rule = FAULTS.trigger("worker.hang")
        if rule is not None:
            time.sleep(float(rule.arg("hang_s", 3600.0)))
    job = Job.from_dict(payload)
    if trace is not None and job.trace_key not in _TRACE_CACHE:
        _memoize_trace(job.trace_key, trace)
    # The per-job execution span: emitted by whichever process runs the
    # task (pool workers inherit REPRO_TELEMETRY through spawn), so the
    # sink shows where each job actually executed.
    with TELEMETRY.span(
        "job.execute", key=job.key[:12], workload=job.workload,
        protocol=job.proto.protocol,
    ):
        return job.key, execute_job(job).to_dict()


class LocalBackend:
    """Serial in-process execution - the reference every backend must match."""

    #: The runner pre-compiles traces for backends that can use them
    #: in-process (here: same memo, so adoption is free).
    wants_traces = True
    #: Progress-line label for results produced by this backend.
    source = "serial"

    def run_batch(self, tasks: Iterable[Task]) -> Iterator[tuple[str, dict]]:
        """Execute tasks one by one in submission order."""
        for task in tasks:
            yield run_task(task)

    def close(self) -> None:
        """Nothing to release - the memo is process-global by design."""
