"""``repro bench``: trace-build + simulate throughput on fixed grid points.

Measures the two hot paths the columnar trace IR was built for:

* **build** - records/second constructing the workload trace (generator
  kernels appending into the column arrays, one validation pass);
* **simulate** - records/second executing the trace through the simulator
  (the ``Simulator._execute`` / ``ProtocolEngineBase.access`` inner loops),
  counting every executed record: with warmup enabled a trace is executed
  twice, so one run executes ``2 * total_records`` records.

Methodology: every sample is CPU time (``time.process_time`` - immune to
other processes, though not to frequency scaling) and each metric reports
the **best of N repetitions**, because a throttled container only ever adds
time; the fastest repetition is the closest estimate of the code's true
cost.  Grid points are fixed Figure-11 sweep points (workload x PCT at 64
cores, small scale, warmup on) so numbers are comparable across commits;
``BENCH_pr3.json`` in the repo root records the PR-3 baseline/after pair
produced by this verb.
"""

from __future__ import annotations

import json
import time

from repro import accel
from repro.common.errors import ConfigError
from repro.common.params import (
    ArchConfig,
    ProtocolConfig,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    victim_replication_protocol,
)
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

#: The default fixed grid points as (workload, pct, family).  The first
#: entry is the primary point quoted in CHANGES/BENCH trajectories; the
#: rest give a hit-heavy (susan), a miss-heavy (radix) and a sync-heavy
#: (tsp) profile, plus the miss-heaviest profiles of all - the DLS (every
#: access a word round-trip) and Neat (write-through) comparison families
#: on radix - so a regression in any one hot path is visible.
DEFAULT_POINTS: tuple[tuple[str, int, str], ...] = (
    ("tsp", 4, "pct"),
    ("susan", 4, "pct"),
    ("radix", 4, "pct"),
    ("radix", 1, "dls"),
    ("radix", 1, "neat"),
)

#: Family -> ProtocolConfig for benched points ("pct" follows the paper's
#: sweep convention: PCT=1 is the baseline, otherwise adaptive at PCT).
BENCH_FAMILIES = ("pct", "baseline", "victim", "dls", "neat", "phase")


def _protocol_for(pct: int, family: str = "pct") -> ProtocolConfig:
    if family not in BENCH_FAMILIES:
        raise ConfigError(
            f"unknown bench family {family!r} (choose from {BENCH_FAMILIES})"
        )
    if family == "baseline":
        return baseline_protocol()
    if family == "victim":
        return victim_replication_protocol()
    if family == "dls":
        return dls_protocol()
    if family == "neat":
        return neat_protocol()
    if family == "phase":
        return phase_protocol()
    if pct <= 1:
        return baseline_protocol()
    return ProtocolConfig(protocol="adaptive", pct=pct, rat_max=max(16, pct))


def bench_point(
    workload: str,
    pct: int = 4,
    cores: int = 64,
    scale: str = "small",
    repeats: int = 3,
    warmup: bool = True,
    family: str = "pct",
) -> dict:
    """Benchmark one grid point; returns a JSON-ready result row.

    The row records the *effective* PCT of the protocol actually simulated
    (non-"pct" families ignore the argument and run at PCT=1), so trend
    keys always match between reports regardless of the caller's --pct.
    """
    arch = ArchConfig(num_cores=cores)
    proto = _protocol_for(pct, family)
    pct = proto.pct

    build_best = float("inf")
    trace = None
    for _ in range(repeats):
        t0 = time.process_time()
        trace = load_workload(workload, arch, scale=scale)
        build_best = min(build_best, time.process_time() - t0)

    simulator = Simulator(arch, proto, warmup=warmup)
    sim_best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        simulator.run(trace)
        sim_best = min(sim_best, time.process_time() - t0)

    # Guard against coarse process_time clocks resolving a fast repetition
    # to exactly zero (e.g. tiny traces on ~16 ms Windows ticks).
    build_best = max(build_best, 1e-9)
    sim_best = max(sim_best, 1e-9)
    records = trace.total_records
    executed = records * (2 if warmup else 1)
    return {
        "workload": workload,
        "family": family,
        "pct": pct,
        "cores": cores,
        "scale": scale,
        "warmup": warmup,
        "repeats": repeats,
        "records": records,
        "build_seconds": round(build_best, 6),
        "build_records_per_second": round(records / build_best),
        "simulate_seconds": round(sim_best, 6),
        "simulate_records_per_second": round(executed / sim_best),
    }


def run_bench(
    points: tuple[tuple[str, int, str], ...] = DEFAULT_POINTS,
    cores: int = 64,
    scale: str = "small",
    repeats: int = 3,
    json_path: str | None = None,
) -> dict:
    """Benchmark all ``points``; optionally write the report as JSON.

    Points are ``(workload, pct, family)``; legacy two-element points are
    accepted as family "pct".
    """
    rows = [
        bench_point(
            point[0],
            point[1],
            cores=cores,
            scale=scale,
            repeats=repeats,
            family=point[2] if len(point) > 2 else "pct",
        )
        for point in points
    ]
    status = accel.status()
    report = {
        # 2: rows carry the protocol family; 3: + mesh implementation;
        # 4: + per-kernel implementations (mesh AND sched).
        "schema": 4,
        "metric": "records/second, best of repeats, process_time",
        # Provenance: which implementations produced these numbers.
        # ``repro trend`` refuses comparisons where any shared kernel's
        # implementation differs (unless --allow-impl-mismatch), because
        # such a diff measures the kernel, not the change under test.
        "implementations": {
            name: kstat["implementation"]
            for name, kstat in status["kernels"].items()
        },
        "accel": {
            "compiled": status["compiled"],
            "compiler": status["compiler"],
            "reason": status["reason"],
            "kernels": {
                name: {
                    "implementation": kstat["implementation"],
                    "compiled": kstat["compiled"],
                    "reason": kstat["reason"],
                }
                for name, kstat in status["kernels"].items()
            },
        },
        "points": rows,
    }
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def implementations_map(report: dict) -> dict:
    """Per-kernel implementation stamps of a bench report (schema 4:
    ``implementations``, mesh AND sched); ``{}`` when it carries none."""
    impls = report.get("implementations")
    return dict(impls) if isinstance(impls, dict) else {}


def format_report(report: dict) -> str:
    lines = []
    impls = implementations_map(report)
    if impls:
        info = report.get("accel", {})
        kernels = info.get("kernels", {})
        for name in sorted(impls):
            impl = impls[name]
            detail = (
                info.get("compiler")
                if impl == "accel"
                else kernels.get(name, info).get("reason")
            )
            lines.append(
                f"{name} implementation: {impl}" + (f" ({detail})" if detail else "")
            )
    lines.append(
        f"{'workload':<14} {'family':<8} {'pct':>3} {'records':>9} "
        f"{'build rec/s':>12} {'simulate rec/s':>15}"
    )
    for row in report["points"]:
        lines.append(
            f"{row['workload']:<14} {row.get('family', 'pct'):<8} "
            f"{row['pct']:>3} {row['records']:>9} "
            f"{row['build_records_per_second']:>12} "
            f"{row['simulate_records_per_second']:>15}"
        )
    return "\n".join(lines)


def _point_key(row: dict) -> tuple:
    return (
        row.get("workload"),
        row.get("family", "pct"),
        row.get("pct"),
        row.get("cores"),
        row.get("scale"),
    )


def load_baseline(path: str) -> dict:
    """Load a saved bench report for ``repro bench --baseline``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read bench baseline {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"unreadable bench baseline {path}: {exc}") from None
    if not isinstance(payload, dict) or "points" not in payload:
        raise ConfigError(
            f"{path} is not a bench report (expected an object with 'points')"
        )
    return payload


def format_baseline_diff(baseline: dict, fresh: dict) -> str:
    """Per-point speedups of a fresh bench run over a saved report.

    Speedup is ``fresh / baseline`` (values > 1 are faster).  Points
    missing from either side are listed but not compared, and an
    implementation mismatch between the two reports is called out - a
    compiled-vs-fallback diff measures the kernel, not the code change.
    """
    base_impls = implementations_map(baseline) or {"mesh": "unknown"}
    fresh_impls = implementations_map(fresh) or {"mesh": "unknown"}

    def _stamp(impls: dict) -> str:
        return ",".join(f"{k}={impls[k]}" for k in sorted(impls))

    lines = [
        f"baseline implementation: {_stamp(base_impls)}, "
        f"fresh: {_stamp(fresh_impls)}"
    ]
    shared = set(base_impls) & set(fresh_impls)
    if any(base_impls[k] != fresh_impls[k] for k in shared):
        lines.append(
            "WARNING: implementations differ - the speedups below include "
            "the accel-vs-fallback gap, not just the code change"
        )
    base_points = {_point_key(row): row for row in baseline.get("points", [])}
    lines.append(
        f"{'workload':<14} {'family':<8} {'pct':>3} "
        f"{'base sim rec/s':>15} {'fresh sim rec/s':>16} "
        f"{'simulate':>9} {'build':>7}"
    )
    for row in fresh.get("points", []):
        key = _point_key(row)
        base = base_points.pop(key, None)
        prefix = (
            f"{row['workload']:<14} {row.get('family', 'pct'):<8} {row['pct']:>3} "
        )
        if base is None:
            lines.append(prefix + "(not in baseline)")
            continue
        ratios = []
        for name in ("simulate_records_per_second", "build_records_per_second"):
            old, new = base.get(name), row.get(name)
            ratios.append(
                new / old
                if isinstance(old, (int, float))
                and isinstance(new, (int, float))
                and old
                else None
            )
        sim, build = ratios
        lines.append(
            prefix
            + f"{base.get('simulate_records_per_second', 0):>15} "
            + f"{row['simulate_records_per_second']:>16} "
            + (f"{sim:>8.2f}x" if sim is not None else f"{'n/a':>9}")
            + " "
            + (f"{build:>6.2f}x" if build is not None else f"{'n/a':>7}")
        )
    for key in base_points:
        lines.append(
            f"{key[0]:<14} {key[1]:<8} {key[2]:>3} (baseline only, not re-run)"
        )
    return "\n".join(lines)
