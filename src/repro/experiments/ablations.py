"""Ablation studies for the design choices DESIGN.md calls out.

These complement the paper's own sensitivity studies (Figures 12-14) with
experiments over *our* modelling decisions and over protocol knobs the
paper fixes:

* :func:`link_model_ablation` - epoch-based vs naive next-free-time link
  bandwidth accounting vs no contention (DESIGN.md decision 6);
* :func:`ackwise_pointer_sweep` - ACKwise_p sensitivity (the paper fixes
  p=4 citing [13]);
* :func:`core_count_scaling` - completion-time scaling at 16/36/64 tiles
  (the protocol's premise is that its benefit grows with core count);
* :func:`vote_init_ablation` - the Section 5.3 remark: give the Complete
  classifier the Limited_k learning short-cut.

Every ablation expands its grid into content-addressed jobs and submits the
whole batch through the runner, so points sharing a configuration reuse
cached results and pending points shard across workers like any sweep.
"""

from __future__ import annotations

import dataclasses

from repro.common.params import baseline_protocol
from repro.common.statsutil import geomean
from repro.experiments.figures import FigureResult, _header
from repro.experiments.harness import (
    ExperimentRunner,
    adaptive_protocol,
    bench_arch,
)

#: Network-sensitive subset used by the ablations (kept small: every
#: ablation point is a fresh simulation that cannot reuse the PCT sweep).
ABLATION_WORKLOADS = ("streamcluster", "dijkstra-ss", "lu-nc", "concomp")


# ----------------------------------------------------------------------
def link_model_ablation(
    runner: ExperimentRunner, workloads: tuple[str, ...] = ABLATION_WORKLOADS
) -> FigureResult:
    """Completion time under the three link-contention models.

    The naive high-water-mark model lets future-scheduled messages (DRAM
    replies) block earlier traffic on idle links; the epoch model does not.
    Expected ordering per workload: none <= epoch <= naive.
    """
    title = "Link-contention model ablation (completion time, normalized to epoch)"
    lines = _header("Ablation: link model", title)
    lines.append(f"{'benchmark':<15}{'none':>9}{'epoch':>9}{'naive':>9}")
    proto = baseline_protocol()
    models = ("none", "epoch", "naive")
    jobs = [
        runner.job(name, proto, arch=dataclasses.replace(runner.arch, link_model=model))
        for name in workloads
        for model in models
    ]
    stats = iter(runner.run_jobs(jobs))
    data: dict[str, dict[str, float]] = {}
    for name in workloads:
        times = {model: next(stats).completion_time for model in models}
        anchor = times["epoch"]
        row = {m: times[m] / anchor for m in times}
        data[name] = row
        lines.append(f"{name:<15}{row['none']:9.3f}{row['epoch']:9.3f}{row['naive']:9.3f}")
    means = {m: geomean([data[n][m] for n in workloads]) for m in models}
    data["geomean"] = means
    lines.append("-" * 76)
    lines.append(f"{'geomean':<15}{means['none']:9.3f}{means['epoch']:9.3f}{means['naive']:9.3f}")
    return FigureResult("Ablation: link model", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
def ackwise_pointer_sweep(
    runner: ExperimentRunner,
    pointers: tuple[int, ...] = (1, 2, 4, 8),
    workloads: tuple[str, ...] = ABLATION_WORKLOADS,
) -> FigureResult:
    """ACKwise_p sensitivity: broadcast rate and performance vs p.

    Fewer pointers overflow earlier, turning unicast invalidation rounds
    into broadcasts.  The paper fixes p=4; this sweep shows why that is a
    reasonable knee.
    """
    title = "ACKwise_p sensitivity (completion time normalized to p=4)"
    lines = _header("Ablation: ACKwise_p", title)
    lines.append(
        f"{'benchmark':<15}" + "".join(f"{f'T(p={p})':>9}" for p in pointers)
        + "".join(f"{f'bc(p={p})':>9}" for p in pointers)
    )
    jobs = [
        runner.job(
            name,
            baseline_protocol(),
            arch=dataclasses.replace(runner.arch, ackwise_pointers=p),
        )
        for name in workloads
        for p in pointers
    ]
    results = iter(runner.run_jobs(jobs))
    data: dict[str, dict[int, dict[str, float]]] = {}
    for name in workloads:
        per_p: dict[int, dict[str, float]] = {}
        for p in pointers:
            stats = next(results)
            rounds = stats.broadcast_invalidations + stats.unicast_invalidations
            per_p[p] = {
                "time": stats.completion_time,
                "broadcast_fraction": (
                    stats.broadcast_invalidations / rounds if rounds else 0.0
                ),
            }
        anchor = per_p[4]["time"] if 4 in per_p else per_p[pointers[-1]]["time"]
        for p in pointers:
            per_p[p]["time_norm"] = per_p[p]["time"] / anchor
        data[name] = per_p
        lines.append(
            f"{name:<15}"
            + "".join(f"{per_p[p]['time_norm']:9.3f}" for p in pointers)
            + "".join(f"{per_p[p]['broadcast_fraction']:9.3f}" for p in pointers)
        )
    return FigureResult("Ablation: ACKwise_p", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
def core_count_scaling(
    runner: ExperimentRunner,
    core_counts: tuple[int, ...] = (16, 36, 64),
    workloads: tuple[str, ...] = ("streamcluster", "dijkstra-ss"),
) -> FigureResult:
    """Adaptive-vs-baseline benefit as the mesh grows.

    The paper's motivation: network distance (and with it the cost of
    line movement and invalidation rounds) grows with the mesh diameter,
    so the adaptive protocol's advantage should not shrink at higher core
    counts.  Each point runs on ``bench_arch(n)`` at the runner's scale and
    warmup, whatever the runner's own core count.
    """
    title = "Core-count scaling: adaptive/baseline completion time & energy"
    lines = _header("Ablation: core scaling", title)
    lines.append(f"{'benchmark':<15}{'cores':>7}{'T ratio':>9}{'E ratio':>9}")
    protos = (baseline_protocol(), adaptive_protocol())
    jobs = [
        runner.job(name, proto, arch=bench_arch(n))
        for name in workloads
        for n in core_counts
        for proto in protos
    ]
    stats = iter(runner.run_jobs(jobs))
    data: dict[str, dict[int, tuple[float, float]]] = {}
    for name in workloads:
        per_n: dict[int, tuple[float, float]] = {}
        for n in core_counts:
            base, adapt = next(stats), next(stats)
            ratio = (
                adapt.completion_time / base.completion_time,
                adapt.energy.total / base.energy.total,
            )
            per_n[n] = ratio
            lines.append(f"{name:<15}{n:>7}{ratio[0]:9.3f}{ratio[1]:9.3f}")
        data[name] = per_n
    return FigureResult("Ablation: core scaling", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
def vote_init_ablation(
    runner: ExperimentRunner,
    workloads: tuple[str, ...] = ("streamcluster", "dijkstra-ss", "radix", "bodytrack"),
) -> FigureResult:
    """Complete classifier with the Section 5.3 learning short-cut.

    The benchmarks are those the paper names: streamcluster/dijkstra-ss
    (where Limited_3's vote inheritance *helps*) and radix/bodytrack (where
    inheriting the first sharer's mode misleads Limited_1).
    """
    title = "Complete classifier vote-init short-cut (normalized to plain Complete)"
    lines = _header("Ablation: vote-init", title)
    lines.append(f"{'benchmark':<15}{'T ratio':>9}{'E ratio':>9}")
    plain = adaptive_protocol(classifier="complete")
    shortcut = adaptive_protocol(classifier="complete", complete_vote_init=True)
    runner.prefetch((n, p) for n in workloads for p in (plain, shortcut))
    data: dict[str, tuple[float, float]] = {}
    tr_all, er_all = [], []
    for name in workloads:
        ref = runner.run(name, plain)
        alt = runner.run(name, shortcut)
        tr = alt.completion_time / ref.completion_time
        er = alt.energy.total / ref.energy.total
        data[name] = (tr, er)
        tr_all.append(tr)
        er_all.append(er)
        lines.append(f"{name:<15}{tr:9.3f}{er:9.3f}")
    summary = (geomean(tr_all), geomean(er_all))
    data["geomean"] = summary
    lines.append("-" * 76)
    lines.append(f"{'geomean':<15}{summary[0]:9.3f}{summary[1]:9.3f}")
    return FigureResult("Ablation: vote-init", title, data, "\n".join(lines))
