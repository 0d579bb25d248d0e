"""Steadiness report: run each workload N times, one seed per run.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload miss-heavy --save a.json
    python3 perfbench/steady.py --runs 5 --workload miss-heavy --against a.json

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread IQR/median
and max/min over the runs, beside the metric's bound in BENCHMARK.json.
A spread above a third of its bound is flagged ``WIDE``.  ``--against``
also compares each median with a saved set and flags a move in the worse
direction larger than the bound ``DRIFT``.  The bounds in BENCHMARK.json
were set from these reports (see README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import points
import run


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload: str, values: dict[str, list[float]], bounds: dict, saved: dict | None) -> None:
    print(f"== {workload} ({len(next(iter(values.values())))} runs)")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'max/min':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]["bound"]
        flags = ["WIDE"] if spread > bound / 3 else []
        line = (f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
                f"{max(vals) / min(vals):>8.3f} {bound:>6.2f}")
        if saved is not None:
            old = statistics.median(saved[workload][name])
            worse = (old - med) / old if bounds[name]["better"] == "higher" else (med - old) / old
            line += f"  worse by {worse:+.2%}"
            flags += ["DRIFT"] if worse > bound else []
        print(line + ("  " + " ".join(flags) if flags else ""))


def main(argv: list[str] | None = None) -> int:
    bench = run.contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(points.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw values to this JSON file")
    parser.add_argument("--against", help="compare medians with a file written by --save")
    args = parser.parse_args(argv)
    bounds = {row["name"]: row for row in bench["end_to_end"]}
    saved = json.loads(open(args.against).read()) if args.against else None
    collected: dict[str, dict[str, list[float]]] = {}
    for workload in args.workload or [row["name"] for row in bench["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, value in one_run(workload, seed, args.seconds).items():
                values[name].append(value)
        collected[workload] = values
        report(workload, values, bounds, saved)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(collected, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
