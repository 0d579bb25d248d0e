"""Command-line trace tools: ``repro-trace``.

Lets a downstream user move traces in and out of the simulator without
writing Python::

    repro-trace generate tsp out.traceb --scale small   # workload -> file
    repro-trace stats out.traceb                        # summarize a file
    repro-trace dump out.traceb --limit 20              # first records/thread
    repro-trace convert out.traceb out.trace            # binary <-> text
    repro-trace run out.traceb --pct 4                  # simulate a file
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from repro.common.errors import ReproError
from repro.common.params import bench_arch, protocol_for_pct
from repro.sim.multicore import Simulator
from repro.workloads.registry import WORKLOAD_NAMES, load_workload
from repro.workloads.tracefile import MNEMONICS, load_trace, save_trace, trace_summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Trace-file tools for the repro simulator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="render a built-in workload to a trace file")
    generate.add_argument("workload", choices=WORKLOAD_NAMES)
    generate.add_argument("output", help="output path (.traceb = binary, else text)")
    generate.add_argument("--scale", default="small", choices=("tiny", "small", "full"))
    generate.add_argument("--cores", type=int, default=64)

    stats = sub.add_parser("stats", help="summarize a trace file")
    stats.add_argument("path")

    dump = sub.add_parser("dump", help="print the first records of each thread")
    dump.add_argument("path")
    dump.add_argument("--limit", type=int, default=10, help="records per thread (default 10)")

    convert = sub.add_parser("convert", help="convert between text and binary formats")
    convert.add_argument("source")
    convert.add_argument("destination")

    run = sub.add_parser("run", help="simulate a trace file and print a summary")
    run.add_argument("path")
    run.add_argument("--pct", type=int, default=0,
                     help="Private Caching Threshold (0 = baseline protocol)")
    run.add_argument("--cores", type=int, default=64)
    run.add_argument("--no-warmup", action="store_true")
    return parser


def _cmd_generate(args) -> int:
    trace = load_workload(args.workload, bench_arch(args.cores), scale=args.scale)
    save_trace(trace, args.output)
    print(f"wrote {args.output}: {trace.total_records:,} records, "
          f"{trace.memory_accesses:,} memory accesses")
    return 0


def _cmd_stats(args) -> int:
    trace = load_trace(args.path)
    print(f"trace {trace.name!r}")
    for key, value in trace_summary(trace).items():
        print(f"  {key:<20} {value:,}")
    return 0


def _cmd_dump(args) -> int:
    trace = load_trace(args.path)
    limit = max(args.limit, 0)
    for tid in range(trace.num_cores):
        length = trace.stream_length(tid)
        if not (length and limit):
            continue
        print(f"thread {tid} ({length:,} records):")
        # Only the printed records are read from the columns.
        for op, address, work in islice(trace.records(tid), limit):
            mnemonic = MNEMONICS[op]
            operand = f"{work}" if mnemonic == "K" else f"{address:#x}"
            suffix = f" work={work}" if mnemonic != "K" and work else ""
            print(f"  {mnemonic} {operand}{suffix}")
        if length > limit:
            print(f"  ... {length - limit:,} more")
    return 0


def _cmd_convert(args) -> int:
    save_trace(load_trace(args.source), args.destination)
    print(f"converted {args.source} -> {args.destination}")
    return 0


def _cmd_run(args) -> int:
    trace = load_trace(args.path)
    arch = bench_arch(args.cores)
    proto = protocol_for_pct(args.pct)
    stats = Simulator(arch, proto, warmup=not args.no_warmup).run(trace)
    label = "baseline" if args.pct <= 1 else f"adaptive pct={args.pct}"
    print(f"simulated {trace.name!r} under {label}:")
    print(f"  completion time : {stats.completion_time:14,.0f} cycles")
    print(f"  dynamic energy  : {stats.energy.total / 1e3:14,.1f} nJ")
    print(f"  L1-D miss rate  : {100 * stats.miss.miss_rate:14.2f} %")
    print(f"  network flits   : {stats.network_flits:14,}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "dump": _cmd_dump,
    "convert": _cmd_convert,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
