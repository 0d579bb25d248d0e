"""Pluggable execution backends behind the ``ExecutionBackend`` protocol.

The :class:`~repro.runner.parallel.ParallelRunner` is an orchestration shell
(dedup -> cache lookup -> backend dispatch -> store persistence -> input-order
reassembly); *how* pending jobs execute is a backend's business:

* :class:`LocalBackend` - serial, in the calling process (the bit-identity
  reference);
* :class:`ProcessBackend` - spawn-safe ``multiprocessing`` pool with
  zero-copy columnar trace shipping;
* :class:`RemoteBackend` - shards jobs across ``repro serve`` daemons over
  newline-delimited-JSON TCP frames with per-host in-flight windows and
  requeue-on-disconnect.

Every backend consumes ``(payload, trace | None)`` tasks and yields
``(job key, RunStats.to_dict())`` pairs - the exact representation the cache
persists - so results are bit-identical across backends by construction
(pinned by ``tests/runner/test_backends.py``).

The remote backend's module (asyncio, ssl, sockets) loads on first use:
its names resolve through the module ``__getattr__``, and
``make_backend("remote")`` imports it, so ``import repro`` pays nothing
for a backend most processes never start.
"""

from __future__ import annotations

import importlib
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.common.errors import ConfigError
from repro.runner.backends.local import LocalBackend, Task, build_trace, execute_job, run_task
from repro.runner.backends.process import ProcessBackend

#: Names served from ``repro.runner.backends.remote`` on first access.
_REMOTE_NAMES = frozenset({
    "DEFAULT_PORT",
    "DEFAULT_WINDOW",
    "STATS_SCHEMA",
    "Daemon",
    "RemoteBackend",
    "fetch_stats",
    "parse_hosts",
    "serve_forever",
})


def __getattr__(name: str):
    if name in _REMOTE_NAMES:
        remote = importlib.import_module("repro.runner.backends.remote")
        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: CLI-selectable backend names ("auto" resolves from workers/hosts).
BACKEND_NAMES = ("auto", "local", "process", "remote")


@runtime_checkable
class ExecutionBackend(Protocol):
    """The seam between sweep orchestration and job execution.

    ``wants_traces`` tells the runner whether to pre-compile each job's
    columnar trace parent-side (in-process backends adopt it; the remote
    backend regenerates traces on the daemon instead).  ``source`` labels
    this backend's results on progress lines.
    """

    wants_traces: bool
    source: str

    def run_batch(self, tasks: Iterable[Task]) -> Iterator[tuple[str, dict]]:
        """Execute a batch; yield ``(job key, stats dict)`` as results land."""
        ...

    def close(self) -> None:
        """Release executor resources (idempotent)."""
        ...


def make_backend(
    spec: str = "auto",
    *,
    workers: int = 1,
    hosts: str | Iterable[tuple[str, int]] | None = None,
    window: int | None = None,
    job_timeout: float | None = None,
    frame_timeout: float | None = None,
):
    """Resolve a CLI-style backend spec into an :class:`ExecutionBackend`.

    ``auto`` keeps the historical behavior: hosts given -> remote, else a
    process pool when ``workers > 1``, else serial in-process execution.

    ``job_timeout`` arms the process pool's hung-worker watchdog;
    ``frame_timeout`` arms the remote backend's stalled-host detection.
    Each applies only to its backend; the serial reference has no workers
    to watchdog, so both are ignored for ``local``.
    """
    if spec not in BACKEND_NAMES:
        raise ConfigError(f"unknown backend {spec!r} (choose from {BACKEND_NAMES})")
    if spec == "auto":
        spec = "remote" if hosts else ("process" if workers > 1 else "local")
    if spec != "remote" and hosts:
        raise ConfigError(f"--hosts only applies to the remote backend, not {spec!r}")
    if spec == "local":
        return LocalBackend()
    if spec == "process":
        return ProcessBackend(workers=max(1, workers), job_timeout=job_timeout)
    if not hosts:
        raise ConfigError("remote backend needs --hosts host:port[,host:port...]")
    remote = importlib.import_module("repro.runner.backends.remote")
    return remote.RemoteBackend(
        hosts=remote.parse_hosts(hosts),
        window=remote.DEFAULT_WINDOW if window is None else window,
        frame_timeout=frame_timeout,
    )


__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_PORT",
    "DEFAULT_WINDOW",
    "STATS_SCHEMA",
    "Daemon",
    "ExecutionBackend",
    "LocalBackend",
    "ProcessBackend",
    "RemoteBackend",
    "Task",
    "build_trace",
    "execute_job",
    "fetch_stats",
    "make_backend",
    "parse_hosts",
    "run_task",
    "serve_forever",
]
