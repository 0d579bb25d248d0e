"""The repo's benchmark: one workload (or all four), timed in fresh processes.

    python3 perfbench/run.py --workload miss-heavy --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace
1`` makes the traced run and prints every per-layer metric.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every simulated
result was produced, repeated exactly, and matched the committed reference
digests of the seed (a seed without references runs unchecked and says so).

Samples run one after another in fresh processes (``sample.py``); nothing
else this command starts runs beside them.  The kernel build cache and
the bytecode caches are warmed first, so no compile lands in a sample.
Everything it writes goes under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
REFS_DIR = HERE / "refs"

#: A workload's run gives up after this many seconds (it must end within 180).
DEADLINE_S = 170.0

#: The paper's Figure 11 geomeans at PCT=4 (fidelity, reported only).
PAPER_PCT4 = {"completion": 0.85, "energy": 0.75}


class RunFailed(Exception):
    """A sample process died, timed out or refused its environment."""


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(impl: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_NO_ACCEL", "REPRO_TELEMETRY", "REPRO_FAULTS"))}
    env["REPRO_ACCEL_CACHE"] = str(OUT_DIR / "accel")
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    env["PYTHONHASHSEED"] = "0"
    if impl == "fallback":
        env["REPRO_NO_ACCEL"] = "1"
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one ``sample.py`` process to completion and return its result.
    The kernels it runs on are ``spec["impl"]``, else the workload's own.
    A timeout kills the child's whole process group."""
    impl = spec.get("impl") or points.WORKLOADS[spec["workload"]]["impl"]
    spec = {"out_dir": str(OUT_DIR), "impl": impl, **spec}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(impl), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{spec['mode']} process for {spec.get('workload')} timed out") from None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result:
        detail = result.get("refused") or err.strip()[-2000:] or f"exit {proc.returncode}"
        raise RunFailed(f"{spec['mode']} process for {spec.get('workload')} failed: {detail}")
    return result


# ----------------------------------------------------------------------
def load_refs(seed: int, size: str) -> dict | None:
    path = REFS_DIR / f"seed-{seed}.json"
    if size != "full" or not path.exists():
        return None
    return json.loads(path.read_text())


def check_results(workload: str, samples: list[dict], refs: dict | None,
                  report: list[str]) -> tuple[int, dict]:
    """Failures across samples (repeats, references); returns the failure
    count and the results of the first sample."""
    failed = 0
    for s in samples:
        failed += len(s["errors"]) + len(s["mismatches"])
        report += [f"  error: {e}" for e in s["errors"]]
        report += [f"  nondeterministic: {m}" for m in s["mismatches"]]
    first = samples[0]["results"]
    for i, s in enumerate(samples[1:], start=2):
        for key, entry in s["results"].items():
            if first.get(key, entry) != entry:
                failed += 1
                report.append(f"  nondeterministic: {key} differs between samples 1 and {i}")
        if s.get("counts", samples[0].get("counts")) != samples[0].get("counts"):
            failed += 1
            report.append(f"  nondeterministic: sweep counts differ between samples 1 and {i}")
    if refs is None:
        return failed, first
    section = refs["fig11"] if points.WORKLOADS[workload]["kind"] == "sweep" else refs["points"]
    bad = [key for key, entry in first.items() if section.get(key) != entry["digest"]]
    for key in bad:
        report.append(f"  reference mismatch: {key} {first[key]['digest']} != {section.get(key)}")
    failed += len(bad) * len(samples)
    if points.WORKLOADS[workload]["kind"] == "sweep":
        for s in samples:
            if "series" in s and s["series"] != refs["fig11_series"]:
                failed += 1
                report.append("  reference mismatch: Figure 11 series")
    return failed, first


def sim_metrics(samples: list[dict], setups: list[float]) -> dict:
    rates, pass_cpu = [], []
    for s in samples:
        passes = s["passes"]
        rates.append(s["records_per_pass"] * len(passes) / sum(p["run_cpu"] for p in passes))
        pass_cpu.append(statistics.fmean(p["cpu"] for p in passes))
    # A simulator workload has no runner or store: both sweep metrics share
    # one definition there, CPU seconds per pass over every point, and
    # restate sim_rec_per_s as a time (README.md).
    per_pass = statistics.median(pass_cpu)
    return {
        "sim_rec_per_s": statistics.median(rates),
        "sweep_cold_s": per_pass,
        "sweep_cold_cpu_s": per_pass,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def sweep_metrics(samples: list[dict], setups: list[float]) -> dict:
    colds = [s["cold"] for s in samples]
    return {
        "sim_rec_per_s": statistics.median(c["records"] / c["worker_cpu"] for c in colds),
        "sweep_cold_s": statistics.median(c["wall"] for c in colds),
        "sweep_cold_cpu_s": statistics.median(c["parent_cpu"] + c["worker_cpu"] for c in colds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def aggregate_counts(workload: str, results: dict, samples: list[dict]) -> dict:
    if points.WORKLOADS[workload]["kind"] == "sweep":
        return samples[0]["counts"]
    per_pass = {key: sum(e["counts"][key] for e in results.values()) for key in points.COUNT_KEYS}
    return {"points": len(results), **per_pass}


# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 deadline: float) -> dict:
    spec = points.WORKLOADS[workload]
    base = {"workload": workload, "seed": seed, "size": size}
    report: list[str] = []
    refs = load_refs(seed, size)
    warm = spawn({"mode": "warm", "impl": "accel"}, deadline)
    sim = spec["kind"] == "sim"
    # A traced run is one untraced sample plus one traced sample.
    n = 1 if trace else spec["samples"]
    budget = seconds / (2 if trace else n)
    # Set-up-only processes follow each sample in turn, so the set-up median
    # samples the host across the whole run, not in one burst at its end.
    extra = 0 if trace else max(0, points.SETUPS_PER_RUN - n)
    samples: list[dict] = []
    setups: list[float] = []
    for i in range(n):
        samples.append(spawn({**base, "mode": "sample", "budget_s": budget}, deadline))
        for _ in range(extra // n + (i < extra % n)):
            setups.append(spawn({**base, "mode": "setup"}, deadline)["setup_cpu"])
    traced = None
    if trace:
        traced = spawn({**base, "mode": "traced", "budget_s": budget}, deadline)
        samples.append(traced)
    failed, results = check_results(workload, samples, refs, report)
    attempted = sum(s["attempted"] for s in samples)
    if refs is None and size == "full":
        report.append(f"  seed {seed}: no committed reference digests - results checked "
                      "for repeatability only (unchecked)")
        if spec["impl"] == "fallback":
            shared = spawn({**base, "mode": "digests", "impl": "accel"}, deadline)
            attempted += shared["attempted"]
            for key, entry in shared["results"].items():
                if results.get(key, {}).get("digest") != entry["digest"]:
                    failed += 1
                    report.append(f"  compiled/fallback mismatch: {key}")
    elif refs is not None:
        report.append(f"  seed {seed}: {len(results)} results checked against "
                      f"{(REFS_DIR / f'seed-{seed}.json').relative_to(ROOT)}")
    out = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": samples[0]["env"],
        "warm_env": warm["env"],
        "counts": aggregate_counts(workload, results, samples),
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }
    if trace:
        out["metrics"] = traced_metrics(workload, samples[0], traced)
        return out
    setups += [s["setup_cpu"] for s in samples]
    out["metrics"] =(sim_metrics(samples, setups) if sim
                      else sweep_metrics(samples, setups))
    out["samples"] = len(samples)
    out["setups"] = len(setups)
    if not sim:
        # Too bursty on a shared host to gate; a per-layer number (README.md).
        out["not_gated"] = {"sweep_warm_s": statistics.median(
            statistics.fmean(s["warm_cpu"]) for s in samples)}
    if not sim and samples[0].get("series"):
        pct4 = samples[0]["series"]["4"]
        out["fidelity"] = {"completion": pct4[0], "energy": pct4[1]}
    return out


def traced_metrics(workload: str, untraced: dict, traced: dict) -> dict:
    names = [row["name"] for row in contract()["per_layer"]]
    unknown = set(traced["layer_metrics"]) - set(names)
    if unknown:
        raise RunFailed(f"traced run reported metrics BENCHMARK.json lacks: {sorted(unknown)}")
    # Layers a workload never enters (the runner on hit-heavy, say) read 0.
    m = dict.fromkeys(names, 0.0)
    m.update(traced["layer_metrics"])
    if points.WORKLOADS[workload]["kind"] == "sim":
        per_pass = [statistics.fmean(p["run_cpu"] for p in s["passes"]) for s in (untraced, traced)]
    else:
        per_pass = [s["cold"]["parent_cpu"] + s["cold"]["worker_cpu"] for s in (untraced, traced)]
        m["sweep_warm_s"] = statistics.fmean(untraced["warm_cpu"])
    m["tracing.overhead_frac"] = per_pass[1] / per_pass[0] - 1.0
    return m


# ----------------------------------------------------------------------
def print_run(out: dict, units: dict) -> None:
    print(f"== {out['workload']} (seed {out['seed']}, trace {out['trace']})")
    env = out["env"]
    print(f"env: nproc={env['nproc']} python={env['python']} compiler={env['compiler']} "
          f"kernels={env['kernels']} kernel_sha256={out['warm_env']['kernel_sha256']}")
    for line in out["report"]:
        print(line)
    print("counts: " + json.dumps(out["counts"], sort_keys=True))
    if "samples" in out:
        print(f"samples: {out['samples']} timed, {out['setups']} set-ups, medians reported")
    for name, value in out["metrics"].items():
        print(f"  {name:<32} {value:>16.6g} {units.get(name, '')}")
    for name, value in out.get("not_gated", {}).items():
        print(f"  {name:<32} {value:>16.6g} s (per-layer metric, reported, not gated)")
    if "fidelity" in out:
        fid = out["fidelity"]
        print(f"fidelity (not gated): PCT=4 geomean completion {fid['completion']:.3f} "
              f"(paper ~{PAPER_PCT4['completion']}), energy {fid['energy']:.3f} "
              f"(paper ~{PAPER_PCT4['energy']})")


def main(argv: list[str] | None = None) -> int:
    bench = contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*points.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke size with no references")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    group = "per_layer" if args.trace else "end_to_end"
    units = {row["name"]: row["unit"] for row in bench[group]}
    workloads = list(points.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               args.size, deadline)
        except RunFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print_run(out, units)
        path = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        runs.append(out)
    failed = sum(r["failed"] for r in runs)
    if len(runs) == 1:
        metrics = {name: {"value": runs[0]["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": r["metrics"][name], "unit": unit}
                   for r in runs for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
