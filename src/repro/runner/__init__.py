"""Sweep execution engine: parallel, distributed, resumable, content-addressed.

The runner turns experiment execution into a first-class service:

* :class:`~repro.runner.job.Job` - canonical, hashable description of one
  simulation point (arch + protocol + energy + workload + scale + seed +
  warmup) with deterministic content hashing;
* :class:`~repro.runner.store.ResultStore` - on-disk JSONL cache mapping job
  hash to fully serialized :class:`~repro.sim.stats.RunStats`, safe for
  concurrent appenders (single ``O_APPEND`` write per record) and mergeable
  across hosts;
* :class:`~repro.runner.parallel.ParallelRunner` - orchestration shell
  (dedup -> cache -> backend dispatch -> persistence -> input-order
  reassembly) over pluggable :mod:`~repro.runner.backends`: serial
  in-process, spawn-safe ``multiprocessing``, or remote ``repro serve``
  daemons sharded over TCP;
* :class:`~repro.runner.sweep.SweepGrid` - cartesian workload x protocol x
  PCT grid expansion behind the ``repro sweep`` CLI verb.
"""

from repro.runner.backends import (
    ExecutionBackend,
    LocalBackend,
    ProcessBackend,
    make_backend,
)
from repro.runner.backends.local import build_trace, execute_job
from repro.runner.job import JOB_SCHEMA, Job, canonical_json
from repro.runner.parallel import ParallelRunner
from repro.runner.store import DEFAULT_CACHE_DIR, ResultStore
from repro.runner.sweep import (
    FIGURE11_PCTS,
    SweepGrid,
    seed_spread_rows,
    seed_spread_table,
    sweep_rows,
    sweep_table,
)



def __getattr__(name: str):
    # The remote backend loads on first use (see repro.runner.backends).
    if name == "RemoteBackend":
        from repro.runner import backends

        return backends.RemoteBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExecutionBackend",
    "FIGURE11_PCTS",
    "JOB_SCHEMA",
    "Job",
    "LocalBackend",
    "ParallelRunner",
    "ProcessBackend",
    "RemoteBackend",
    "ResultStore",
    "SweepGrid",
    "build_trace",
    "canonical_json",
    "execute_job",
    "make_backend",
    "seed_spread_rows",
    "seed_spread_table",
    "sweep_rows",
    "sweep_table",
]
