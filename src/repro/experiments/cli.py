"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments --figure 11                 # geomean PCT sweep
    repro-experiments --figure 8 --scale full     # energy stacks, full scale
    repro-experiments --all                       # every experiment of the registry
    repro-experiments --report                    # check the claims, write EXPERIMENTS.md
    repro-experiments --figure storage            # Section 3.6 arithmetic
    repro-experiments --list                      # available figures/workloads
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.common.errors import ReproError
from repro.experiments import report
from repro.experiments.harness import ExperimentRunner, bench_arch
from repro.runner.backends import BACKEND_NAMES, make_backend
from repro.runner.backends.remote import DEFAULT_WINDOW
from repro.runner.store import DEFAULT_CACHE_DIR, ResultStore
from repro.workloads.registry import WORKLOAD_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation figures of the Locality-Aware "
        "Adaptive Cache Coherence Protocol (ISCA 2013).",
    )
    parser.add_argument("--figure", action="append",
                        choices=[entry.id for entry in report.REGISTRY],
                        help="figure id to reproduce (repeatable)")
    parser.add_argument("--all", action="store_true",
                        help="reproduce every experiment of the registry")
    parser.add_argument("--report", action="store_true",
                        help="run every experiment at the paper configuration, "
                        "write EXPERIMENTS.md and exit 1 if a paper claim fails")
    parser.add_argument("--list", action="store_true",
                        help="list available figures and workloads")
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "full"),
                        help="workload problem-size scale (default: small)")
    parser.add_argument("--cores", type=int, default=64,
                        help="number of cores (default: 64)")
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="restrict to a subset of benchmarks")
    parser.add_argument("--no-warmup", action="store_true",
                        help="measure the cold run instead of warmup+measure")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for simulation batches "
                        "(default: 1 = in-process)")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default="auto",
                        help="execution backend for simulation batches "
                        "(default: auto = remote when --hosts is given, "
                        "else process pool when --workers > 1)")
    parser.add_argument("--hosts", default=None, metavar="H:P[,H:P...]",
                        help="comma-separated repro-serve daemons to shard "
                        "figure grids across (implies --backend remote)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="max in-flight jobs per remote host "
                        f"(default: {DEFAULT_WINDOW})")
    parser.add_argument("--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
                        metavar="DIR",
                        help="persist/reuse results in an on-disk cache "
                        f"(default dir when bare: {DEFAULT_CACHE_DIR}); a warm "
                        "cache reproduces every figure with zero simulations")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    entries = {entry.id: entry for entry in report.REGISTRY}
    if args.list:
        print("figures  :", ", ".join(entries))
        print("workloads:", ", ".join(WORKLOAD_NAMES))
        return 0
    paper = (args.scale, args.cores, args.workloads, args.no_warmup) == (
        report.PAPER_SCALE, report.PAPER_CORES, None, False)
    if args.report and not paper:
        parser.error("--report checks the paper configuration and takes no --scale, "
                     "--cores, --workloads or --no-warmup")
    wanted = list(entries) if args.all or args.report else (args.figure or [])
    if not wanted:
        parser.print_help()
        return 1

    workloads = tuple(args.workloads) if args.workloads else WORKLOAD_NAMES
    unknown = set(workloads) - set(WORKLOAD_NAMES)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    try:
        backend = make_backend(
            args.backend, workers=args.workers, hosts=args.hosts, window=args.window
        )
    except ReproError as exc:  # e.g. a malformed --hosts spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The context manager closes the pool/backend even when a figure raises
    # mid-batch (previously a failed sweep leaked the worker pool).
    with ExperimentRunner(
        arch=bench_arch(args.cores),
        scale=args.scale,
        workloads=workloads,
        warmup=not args.no_warmup,
        workers=args.workers,
        store=ResultStore(args.cache) if args.cache else None,
        backend=backend,
    ) as runner:
        results = []
        for figure_id in wanted:
            start = time.time()
            result = entries[figure_id].generate(runner)
            results.append((entries[figure_id], result))
            print(result.text)
            # Every point came from the result store or a simulation, so
            # the store's share needs no counter of its own.
            points, simulated = runner.points, runner.simulations
            print(f"[{result.figure} in {time.time() - start:.1f}s, {points} points, "
                  f"{points - simulated} from the result store, {simulated} simulated]\n")
    return report.write_report(results) if args.report else 0


if __name__ == "__main__":
    raise SystemExit(main())
