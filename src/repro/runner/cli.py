"""Unified command-line entry point: ``repro``.

Examples::

    repro sweep                                  # Figure-11 grid, all workloads
    repro sweep --workloads radix tsp --pct 1 4 8 --workers 8
    repro sweep --protocols pct victim --json results.json
    repro serve --port 8642 --workers 8          # execution daemon for remote sweeps
    repro sweep --backend remote --hosts h1:8642,h2:8642
    repro cache info                             # result-cache contents
    repro cache merge /mnt/hostb/.repro-cache    # fold a remote host's cache in
    repro cache clear                            # drop cached results
    repro figures --figure 11                    # delegate to repro-experiments
    repro trace stats out.traceb                 # delegate to repro-trace

``sweep`` expands a workload x protocol x PCT grid into jobs, executes them
through the runner (in-process, worker pool, or sharded across ``repro
serve`` daemons) with the on-disk result cache, and prints a table (or
writes JSON).  A warm cache re-runs the whole grid with zero simulations.

**Output discipline**: stdout carries only the machine-readable deliverable
(tables, JSON, cache reports) and stays byte-stable for scripts; every
diagnostic (progress lines, timing, errors) goes through the ``repro``
logger to stderr.  ``-q``/``-v`` before the verb move the log level
(WARNING / DEBUG); the default INFO renders bare messages, so default
stderr output is unchanged from the historical ``print`` diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from repro import obs
from repro.common.errors import ReproError
from repro.runner.backends import BACKEND_NAMES, make_backend
from repro.runner.backends.remote import DEFAULT_PORT, DEFAULT_WINDOW, fetch_stats
from repro.runner.parallel import ParallelRunner, format_progress
from repro.runner.store import DEFAULT_CACHE_DIR, ResultStore
from repro.runner.sweep import (
    FIGURE11_PCTS,
    PROTOCOL_FAMILIES,
    grid_from_args,
    seed_spread_rows,
    seed_spread_table,
    sweep_rows,
    sweep_table,
)
from repro.workloads.registry import WORKLOAD_NAMES

log = logging.getLogger("repro")


class _DynamicStderrHandler(logging.Handler):
    """Logs to *the current* ``sys.stderr`` at emit time.

    ``logging.StreamHandler`` binds the stream once at construction; tests
    (and anything else that swaps ``sys.stderr``) need each record to land
    on the stream active when it is emitted.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            print(self.format(record), file=sys.stderr)
        except Exception:
            self.handleError(record)


_LOG_HANDLER: logging.Handler | None = None


def setup_logging(verbosity: int = 0) -> None:
    """Configure the ``repro`` logger tree (idempotent; level adjustable).

    ``verbosity`` < 0 -> WARNING (``-q``), 0 -> INFO, > 0 -> DEBUG
    (``-v``).  INFO records render as bare messages - byte-identical to the
    ``print(..., file=sys.stderr)`` diagnostics they replace - while other
    levels carry their level name as a prefix.
    """
    global _LOG_HANDLER
    if _LOG_HANDLER is None:
        _LOG_HANDLER = _DynamicStderrHandler()

        class _BareInfo(logging.Formatter):
            def format(self, record: logging.LogRecord) -> str:
                if record.levelno == logging.INFO:
                    return record.getMessage()
                return f"{record.levelname.lower()}: {record.getMessage()}"

        _LOG_HANDLER.setFormatter(_BareInfo())
        log.addHandler(_LOG_HANDLER)
        log.propagate = False
    if verbosity < 0:
        log.setLevel(logging.WARNING)
    elif verbosity > 0:
        log.setLevel(logging.DEBUG)
    else:
        log.setLevel(logging.INFO)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sweep execution engine for the locality-aware coherence "
        "protocol reproduction.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more diagnostics on stderr (DEBUG level)")
    parser.add_argument("-q", "--quiet", dest="log_quiet", action="store_true",
                        help="only warnings and errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a workload x protocol x PCT grid")
    sweep.add_argument("--workloads", nargs="+", metavar="NAME", default=None,
                       help="benchmarks to sweep (default: all 21)")
    sweep.add_argument("--pct", nargs="+", type=int, default=list(FIGURE11_PCTS),
                       help="PCT values (default: the Figure-11 grid)")
    sweep.add_argument("--protocols", nargs="+", choices=PROTOCOL_FAMILIES,
                       default=["pct"],
                       help="protocol families (default: pct = the paper's "
                       "sweep convention, PCT=1 is the baseline)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default: 1 = in-process)")
    sweep.add_argument("--backend", choices=BACKEND_NAMES, default="auto",
                       help="execution backend (default: auto = remote when "
                       "--hosts is given, else a process pool when "
                       "--workers > 1, else in-process)")
    sweep.add_argument("--hosts", default=None, metavar="H:P[,H:P...]",
                       help="comma-separated repro-serve daemons to shard "
                       "cache-miss jobs across (implies --backend remote)")
    sweep.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                       help="max in-flight jobs per remote host "
                       f"(default: {DEFAULT_WINDOW})")
    sweep.add_argument("--job-timeout", type=float, default=None, metavar="S",
                       help="process backend: per-job progress budget in "
                       "seconds; a pool that stalls past it is terminated "
                       "and its jobs re-dispatched (after repeated strikes, "
                       "finished serially). Default: no watchdog")
    sweep.add_argument("--frame-timeout", type=float, default=None, metavar="S",
                       help="remote backend: per-reply budget in seconds; a "
                       "host that stalls past it is treated as disconnected "
                       "(jobs requeue to other hosts). Default: wait forever")
    sweep.add_argument("--scale", default="small", choices=("tiny", "small", "full"))
    sweep.add_argument("--cores", type=int, default=64)
    sweep.add_argument("--seed", type=int, default=0,
                       help="trace-variant seed (default 0 = canonical traces)")
    sweep.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="run N trace realizations per grid point "
                       "(Job.seed = seed..seed+N-1) and report the "
                       "completion-time/energy spread per point")
    sweep.add_argument("--no-warmup", action="store_true")
    sweep.add_argument("--verify", action="store_true",
                       help="run with golden-memory functional verification: "
                       "a coherence violation aborts the sweep, and only "
                       "cache entries that were themselves produced under "
                       "verification are reused")
    sweep.add_argument("--cache", default=DEFAULT_CACHE_DIR, metavar="DIR",
                       help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})")
    sweep.add_argument("--no-cache", action="store_true",
                       help="run without reading or writing the result cache")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write rows as JSON to PATH ('-' = stdout) instead "
                       "of a table")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    sweep.add_argument("--telemetry", metavar="FILE", default=None,
                       help="append structured telemetry events (JSONL) to "
                       "FILE; worker processes inherit the sink via "
                       f"{obs.TELEMETRY_ENV}; render with 'repro events'")

    cache = sub.add_parser(
        "cache", help="inspect, compact, merge or clear the result cache"
    )
    cache.add_argument("action", choices=("info", "compact", "merge", "clear"))
    cache.add_argument("source", nargs="?", default=None, metavar="OTHER-DIR",
                       help="for merge: cache directory (e.g. a remote "
                       "host's) to fold into --cache with last-entry-per-key "
                       "semantics")
    cache.add_argument("--cache", default=DEFAULT_CACHE_DIR, metavar="DIR")

    serve = sub.add_parser(
        "serve",
        help="run an execution daemon that serves sweep jobs over TCP",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; use 0.0.0.0 "
                       "to serve other machines)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default: {DEFAULT_PORT}; 0 = "
                       "kernel-assigned, printed on the readiness line)")
    serve.add_argument("--workers", type=int, default=1,
                       help="local worker processes behind this daemon")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="also persist served results in a server-side "
                       "result cache (mergeable into a client's via "
                       "'repro cache merge')")
    serve.add_argument("--job-timeout", type=float, default=None, metavar="S",
                       help="per-job budget in seconds: a pool worker that "
                       "wedges past it is killed (the client gets an error "
                       "frame instead of silence). Default: no watchdog")

    chaos = sub.add_parser(
        "chaos",
        help="differential fault-injection sweep: run a small grid under a "
        "single-fault schedule matrix and compare every surviving result "
        "bit-for-bit against a fault-free serial reference",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault schedule seed (default 0)")
    chaos.add_argument("--faults", nargs="+", metavar="NAME", default=None,
                       help="restrict the matrix to these faults "
                       "(default: the full single-fault matrix)")
    chaos.add_argument("--backends", nargs="+", metavar="NAME", default=None,
                       choices=("local", "process", "remote"),
                       help="restrict the matrix to these backends")
    chaos.add_argument("--job-timeout", type=float, default=1.5, metavar="S",
                       help="process-pool watchdog budget per cell "
                       "(default 1.5s; chaos jobs run in ~25ms)")
    chaos.add_argument("--frame-timeout", type=float, default=1.5, metavar="S",
                       help="remote stalled-host budget per cell (default 1.5s)")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="write the cell report as JSON to PATH "
                       "('-' = stdout) instead of a table")

    accel_info = sub.add_parser(
        "accel-info",
        help="show the compiled kernel status (mesh + sched): "
        "implementation, build cache, compiler, or why the pure-Python "
        "fallback is active (REPRO_NO_ACCEL=1 forces it)",
    )
    accel_info.add_argument("--json", action="store_true",
                            help="emit the status as one JSON object")
    accel_info.add_argument("--require-compiled", action="store_true",
                            help="exit 1 unless the compiled kernels are "
                            "active (CI guard against silently testing "
                            "only the fallback)")

    events = sub.add_parser(
        "events",
        help="render a telemetry event file: span tree and top counters",
    )
    events.add_argument("file", help="JSONL sink written by --telemetry / "
                        f"{obs.TELEMETRY_ENV}")
    events.add_argument("--limit", type=int, default=20,
                        help="rows per section (default 20)")

    stats = sub.add_parser(
        "serve-stats",
        help="query live repro-serve daemons for their stats frame",
    )
    stats.add_argument("hosts", metavar="H:P[,H:P...]",
                       help="daemons to query (same syntax as sweep --hosts)")
    stats.add_argument("--json", action="store_true",
                       help="emit one JSON object per host instead of a table")
    stats.add_argument("--timeout", type=float, default=10.0,
                       help="per-host connect/read timeout in seconds")

    exhaustive = sub.add_parser(
        "check-exhaustive",
        help="enumerate ALL interleavings of tiny two-core traces and "
        "verify every protocol family on each (model-checking tier)",
    )
    exhaustive.add_argument(
        "--ops", type=int, default=6,
        help="per-core op budget; templates needing more are skipped "
        "(default 6 = everything, 4 = the CI smoke budget)")
    exhaustive.add_argument(
        "--max-violations", type=int, default=10,
        help="stop after this many distinct violations (default 10)")
    exhaustive.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full report (including minimized traces) to PATH")

    trend = sub.add_parser(
        "trend",
        help="diff two result-cache logs across revisions",
    )
    trend.add_argument("old", help="older results.jsonl cache log (or its "
                       "directory)")
    trend.add_argument("new", help="newer results.jsonl cache log")
    trend.add_argument("--metric", default=None,
                       help="restrict the comparison (and the regression "
                       "gate) to one metric")
    trend.add_argument("--assert-within", type=float, default=None,
                       metavar="FRACTION",
                       help="exit 1 when any compared metric drifted up by "
                       "more than FRACTION (e.g. 0.05 = fail on a >5%% rise "
                       "in completion time or energy)")

    # Delegating verbs: argument parsing happens in the delegate (main()
    # forwards everything after the verb verbatim; argparse's REMAINDER
    # cannot, since it refuses leading optionals like ``figures --figure 11``).
    sub.add_parser(
        "figures", help="reproduce paper figures (delegates to repro-experiments)",
        add_help=False,
    )
    sub.add_parser(
        "trace", help="trace-file tools (delegates to repro-trace)", add_help=False
    )
    return parser


# ----------------------------------------------------------------------
def _cmd_sweep(args) -> int:
    """Telemetry-scoping wrapper: the sink is open exactly for the sweep.

    ``--telemetry`` enables the process-wide singleton and exports the sink
    path so spawn-children (pool workers) inherit it; both are restored on
    every exit path so an in-process caller (tests, notebooks) is not left
    with a dangling sink.
    """
    if not args.telemetry:
        return _run_sweep(args)
    prior = os.environ.get(obs.TELEMETRY_ENV)
    obs.TELEMETRY.enable(args.telemetry)
    os.environ[obs.TELEMETRY_ENV] = args.telemetry
    try:
        return _run_sweep(args)
    finally:
        obs.TELEMETRY.disable()
        if prior is None:
            os.environ.pop(obs.TELEMETRY_ENV, None)
        else:
            os.environ[obs.TELEMETRY_ENV] = prior


def _run_sweep(args) -> int:
    workloads = tuple(args.workloads) if args.workloads else WORKLOAD_NAMES
    grid = grid_from_args(
        workloads=workloads,
        families=tuple(args.protocols),
        pcts=tuple(args.pct),
        num_cores=args.cores,
        scale=args.scale,
        warmup=not args.no_warmup,
        seed=args.seed,
        num_seeds=args.seeds,
        verify=args.verify,
    )
    store = None if args.no_cache else ResultStore(args.cache)

    def progress(done: int, total: int, job, source: str) -> None:
        if not args.quiet:
            log.info(format_progress(done, total, job, source))

    backend = make_backend(
        args.backend, workers=args.workers, hosts=args.hosts, window=args.window,
        job_timeout=args.job_timeout, frame_timeout=args.frame_timeout,
    )
    jobs = grid.jobs()
    log.info(
        "sweep: %s, workers=%s%s",
        grid.describe(), args.workers,
        f", hosts={args.hosts}" if args.hosts else "",
    )
    start = time.time()
    # The context manager closes the backend (pool / connections) on every
    # path, including a sweep that raises mid-batch.
    with ParallelRunner(
        store=store, workers=args.workers, progress=progress, backend=backend
    ) as runner:
        results = runner.run(jobs)
    elapsed = time.time() - start

    rows = sweep_rows(jobs, results)
    spread = seed_spread_rows(rows) if args.seeds > 1 else None
    if args.json is not None:
        payload = rows if spread is None else {"rows": rows, "spread": spread}
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            log.info("wrote %s: %d rows", args.json, len(rows))
    else:
        print(sweep_table(rows))
        if spread is not None:
            print()
            print(seed_spread_table(spread))
    cache_note = ""
    if store is not None:
        cache_note = f", cache: {store.hits} hits / {store.misses} misses"
    log.info(
        "[%d jobs in %.1fs, %d simulated%s]",
        len(rows), elapsed, runner.simulations, cache_note,
    )
    return 0


def _cmd_cache(args) -> int:
    if args.action != "merge" and args.source is not None:
        log.error("cache %s takes no source directory", args.action)
        return 2
    store = ResultStore(args.cache)
    if args.action == "merge":
        if args.source is None:
            log.error("cache merge needs a source cache directory")
            return 2
        if not ResultStore(args.source).path.exists():
            # An empty source is indistinguishable from a typo'd path; a
            # silent "0 entries folded" success would hide the mistake.
            log.error("no result cache at %s", args.source)
            return 1
        merged, skipped = store.merge(args.source)
        print(
            f"merged {args.source} into {store.path}: "
            f"{merged} entries folded, {skipped} already identical"
        )
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached results from {store.path}")
        return 0
    if args.action == "compact":
        kept, dropped = store.compact()
        print(f"compacted {store.path}: kept {kept} entries, dropped {dropped} superseded lines")
        return 0
    print(store.describe())
    by_workload: dict[str, int] = {}
    for job in store.jobs():
        by_workload[job["workload"]] = by_workload.get(job["workload"], 0) + 1
    for name in sorted(by_workload):
        print(f"  {name:<15} {by_workload[name]} results")
    return 0


def _cmd_accel_info(args) -> int:
    from repro import accel

    status = accel.status()
    if obs.TELEMETRY.enabled:
        # Mirror the status into the telemetry stream so a sweep's event
        # file records which implementation its numbers came from.
        obs.TELEMETRY.event("accel.info", **status)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        for name in sorted(status["kernels"]):
            kstat = status["kernels"][name]
            line = f"{name}: {kstat['implementation']}"
            if kstat["reason"]:
                line += f" ({kstat['reason']})"
            print(line)
        if status["compiler"]:
            print(f"compiler:       {status['compiler']}")
        print(f"cache dir:      {status['cache_dir']}")
        if status["artifact"]:
            print(f"artifact:       {status['artifact']}")
        print(f"source:         {status['source']}")
    if args.require_compiled and status["implementation"] != "accel":
        log.error("compiled kernels required but not active: %s",
                  status["reason"] or "unknown reason")
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.runner.backends.remote import serve_forever

    store = ResultStore(args.cache) if args.cache else None
    return serve_forever(
        args.host, args.port, workers=args.workers, store=store,
        job_timeout=args.job_timeout,
    )


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import run_chaos

    def progress(fault: str, backend: str) -> None:
        log.info("chaos: %s x %s ...", fault, backend)

    report = run_chaos(
        seed=args.seed,
        faults=args.faults,
        backends=args.backends,
        job_timeout=args.job_timeout,
        frame_timeout=args.frame_timeout,
        progress=progress,
    )
    if args.json is not None:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            log.info("wrote %s: %d cells", args.json, len(report.cells))
    else:
        print(report.table())
    return 0 if report.ok else 1


def _cmd_trend(args) -> int:
    from repro.runner.trend import format_rows, run_trend, worst_regression

    rows, code = run_trend(
        args.old, args.new, assert_within=args.assert_within, metric=args.metric
    )
    print(format_rows(rows))
    if args.assert_within is not None:
        worst = worst_regression(rows, args.metric)
        if worst is not None:
            log.info(
                "worst regression: %s %s %+.1f%% (gate: %.0f%%)",
                worst["key"], worst["metric"],
                worst["regression"] * 100, args.assert_within * 100,
            )
        if code:
            log.info("trend: REGRESSION beyond threshold")
    return code


def _cmd_events(args) -> int:
    print(obs.render_file(args.file, limit=args.limit))
    return 0


def _cmd_check_exhaustive(args) -> int:
    from repro.verify import run_exhaustive

    if args.ops < 1:
        log.error("--ops must be >= 1, got %d", args.ops)
        return 1

    def progress(template: str, runs: int) -> None:
        log.info("enumerating %-22s (%d verified runs)", template, runs)

    report = run_exhaustive(
        ops=args.ops, progress=progress, max_violations=args.max_violations
    )
    print(report.summary())
    for violation in report.violations:
        print()
        print(violation.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        log.info("report written to %s", args.json)
    return 0 if report.ok else 1


def _cmd_serve_stats(args) -> int:
    from repro.runner.backends.remote import parse_hosts

    failures = 0
    for host, port in parse_hosts(args.hosts):
        try:
            stats = fetch_stats(host, port, timeout=args.timeout)
        except (ReproError, OSError) as exc:
            log.error("%s:%d unreachable: %s", host, port, exc)
            failures += 1
            continue
        if args.json:
            print(json.dumps({"host": host, "port": port, **stats}, sort_keys=True))
        else:
            print(
                f"{host}:{port}  up {stats['uptime_s']:.0f}s  "
                f"workers={stats['workers']}  served={stats['served']}  "
                f"errors={stats['errors']}  active={stats['active_jobs']}  "
                f"connections={stats['connections']}/{stats['total_connections']}  "
                f"caching={'yes' if stats['caching'] else 'no'}"
            )
    return 1 if failures else 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "accel-info": _cmd_accel_info,
    "trend": _cmd_trend,
    "events": _cmd_events,
    "serve-stats": _cmd_serve_stats,
    "check-exhaustive": _cmd_check_exhaustive,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "figures":
        from repro.experiments.cli import main as figures_main

        return figures_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.experiments.tracecli import main as trace_main

        return trace_main(argv[1:])
    args = build_parser().parse_args(argv)
    setup_logging(-1 if args.log_quiet else args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
