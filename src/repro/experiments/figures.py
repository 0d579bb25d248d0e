"""Per-figure reproduction: generates the rows/series of every evaluation
table and figure in the paper.

Each ``figure*`` function consumes an ``ExperimentRunner`` (which memoizes
simulations) and returns a ``FigureResult`` holding both structured data and
a rendered text table, so the same code backs the CLI, the paper-claim
checks of the experiment registry (:mod:`repro.experiments.report`) and
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.params import ProtocolConfig, baseline_protocol
from repro.common.statsutil import UTILIZATION_BUCKETS, geomean
from repro.common.types import MissType
from repro.experiments.harness import (
    PCT_SWEEP_DETAIL,
    PCT_SWEEP_MISS,
    PCT_SWEEP_WIDE,
    ExperimentRunner,
    adaptive_protocol,
    protocol_for_pct,
)

ENERGY_COMPONENTS = ("l1i", "l1d", "l2", "directory", "router", "link")
TIME_COMPONENTS = ("compute", "l1_to_l2", "l2_waiting", "l2_sharers", "l2_offchip", "sync")


@dataclass
class FigureResult:
    """Structured data + rendered text for one figure reproduction."""

    figure: str
    title: str
    data: dict = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:
        return self.text


def _header(figure: str, title: str) -> list[str]:
    rule = "=" * 76
    return [rule, f"{figure}: {title}", rule]


# ----------------------------------------------------------------------
# Figures 1 & 2 - utilization histograms of invalidated / evicted lines.
# ----------------------------------------------------------------------
def _utilization_figure(runner: ExperimentRunner, kind: str, figure: str) -> FigureResult:
    title = f"% of {kind} L1 lines by utilization (baseline)"
    runner.prefetch((name, baseline_protocol()) for name in runner.workloads)
    lines = _header(figure, title)
    lines.append(f"{'benchmark':<15}" + "".join(f"{b:>8}" for b in UTILIZATION_BUCKETS))
    data: dict[str, dict[str, float]] = {}
    for name in runner.workloads:
        stats = runner.baseline(name)
        hist = stats.inval_histogram if kind == "invalidated" else stats.evict_histogram
        pct = hist.percentages()
        data[name] = pct
        lines.append(f"{name:<15}" + "".join(f"{pct[b]:8.1f}" for b in UTILIZATION_BUCKETS))
    return FigureResult(figure, title, data, "\n".join(lines))


def figure1_invalidations(runner: ExperimentRunner) -> FigureResult:
    """Figure 1: invalidations vs utilization."""
    return _utilization_figure(runner, "invalidated", "Figure 1")


def figure2_evictions(runner: ExperimentRunner) -> FigureResult:
    """Figure 2: evictions vs utilization."""
    return _utilization_figure(runner, "evicted", "Figure 2")


# ----------------------------------------------------------------------
# Figure 8 - energy vs PCT (stacked components, normalized to PCT=1).
# ----------------------------------------------------------------------
def figure8_energy(runner: ExperimentRunner, pcts=PCT_SWEEP_DETAIL) -> FigureResult:
    title = "Energy breakdown vs PCT (normalized to PCT=1)"
    runner.prefetch((n, protocol_for_pct(p)) for n in runner.workloads for p in pcts)
    lines = _header("Figure 8", title)
    lines.append(
        f"{'benchmark':<15}{'pct':>4}" + "".join(f"{c:>10}" for c in ENERGY_COMPONENTS) + f"{'total':>9}"
    )
    data: dict[str, dict[int, dict[str, float]]] = {}
    for name in runner.workloads:
        anchor = runner.run(name, protocol_for_pct(pcts[0])).energy.total
        per_pct: dict[int, dict[str, float]] = {}
        for pct in pcts:
            energy = runner.run(name, protocol_for_pct(pct)).energy
            row = {c: getattr(energy, c) / anchor for c in ENERGY_COMPONENTS}
            row["total"] = energy.total / anchor
            per_pct[pct] = row
            lines.append(
                f"{name:<15}{pct:>4}"
                + "".join(f"{row[c]:10.3f}" for c in ENERGY_COMPONENTS)
                + f"{row['total']:9.3f}"
            )
        data[name] = per_pct
    totals_at = {
        pct: geomean([data[name][pct]["total"] for name in runner.workloads]) for pct in pcts
    }
    data["geomean"] = totals_at
    lines.append("-" * 76)
    lines.append("geomean total: " + "  ".join(f"pct{p}={v:.3f}" for p, v in totals_at.items()))
    return FigureResult("Figure 8", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Figure 9 - completion time vs PCT (stacked components).
# ----------------------------------------------------------------------
def figure9_completion_time(runner: ExperimentRunner, pcts=PCT_SWEEP_DETAIL) -> FigureResult:
    title = "Completion-time breakdown vs PCT (normalized to PCT=1)"
    runner.prefetch((n, protocol_for_pct(p)) for n in runner.workloads for p in pcts)
    lines = _header("Figure 9", title)
    lines.append(
        f"{'benchmark':<15}{'pct':>4}" + "".join(f"{c:>11}" for c in TIME_COMPONENTS) + f"{'total':>9}"
    )
    data: dict[str, dict[int, dict[str, float]]] = {}
    for name in runner.workloads:
        anchor = runner.run(name, protocol_for_pct(pcts[0])).latency.total
        per_pct: dict[int, dict[str, float]] = {}
        for pct in pcts:
            lat = runner.run(name, protocol_for_pct(pct)).latency
            row = {c: getattr(lat, c) / anchor for c in TIME_COMPONENTS}
            row["total"] = lat.total / anchor
            per_pct[pct] = row
            lines.append(
                f"{name:<15}{pct:>4}"
                + "".join(f"{row[c]:11.3f}" for c in TIME_COMPONENTS)
                + f"{row['total']:9.3f}"
            )
        data[name] = per_pct
    totals_at = {
        pct: geomean([data[name][pct]["total"] for name in runner.workloads]) for pct in pcts
    }
    data["geomean"] = totals_at
    lines.append("-" * 76)
    lines.append("geomean total: " + "  ".join(f"pct{p}={v:.3f}" for p, v in totals_at.items()))
    return FigureResult("Figure 9", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Figure 10 - L1-D miss rate and miss-type breakdown vs PCT.
# ----------------------------------------------------------------------
def figure10_miss_breakdown(runner: ExperimentRunner, pcts=PCT_SWEEP_MISS) -> FigureResult:
    title = "L1-D miss rate breakdown vs PCT (% of accesses)"
    runner.prefetch((n, protocol_for_pct(p)) for n in runner.workloads for p in pcts)
    type_names = [mt.name.lower() for mt in MissType]
    lines = _header("Figure 10", title)
    lines.append(f"{'benchmark':<15}{'pct':>4}" + "".join(f"{t:>10}" for t in type_names) + f"{'total':>8}")
    data: dict[str, dict[int, dict[str, float]]] = {}
    for name in runner.workloads:
        per_pct: dict[int, dict[str, float]] = {}
        for pct in pcts:
            miss = runner.run(name, protocol_for_pct(pct)).miss
            row = {k: 100.0 * v for k, v in miss.rate_breakdown().items()}
            row["total"] = 100.0 * miss.miss_rate
            per_pct[pct] = row
            lines.append(
                f"{name:<15}{pct:>4}"
                + "".join(f"{row[t]:10.2f}" for t in type_names)
                + f"{row['total']:8.2f}"
            )
        data[name] = per_pct
    return FigureResult("Figure 10", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Figure 11 - geometric means vs PCT (the U-shape; optimum near PCT=4).
# ----------------------------------------------------------------------
def figure11_geomean_sweep(runner: ExperimentRunner, pcts=PCT_SWEEP_WIDE) -> FigureResult:
    title = "Geomean completion time & energy vs PCT (normalized to PCT=1)"
    runner.prefetch((n, protocol_for_pct(p)) for n in runner.workloads for p in pcts)
    lines = _header("Figure 11", title)
    lines.append(f"{'pct':>4}{'completion':>12}{'energy':>9}")
    time_anchor = {n: runner.run(n, protocol_for_pct(pcts[0])).completion_time for n in runner.workloads}
    energy_anchor = {n: runner.run(n, protocol_for_pct(pcts[0])).energy.total for n in runner.workloads}
    series: dict[int, tuple[float, float]] = {}
    for pct in pcts:
        times, energies = [], []
        for name in runner.workloads:
            stats = runner.run(name, protocol_for_pct(pct))
            times.append(stats.completion_time / time_anchor[name])
            energies.append(stats.energy.total / energy_anchor[name])
        series[pct] = (geomean(times), geomean(energies))
        lines.append(f"{pct:>4}{series[pct][0]:12.3f}{series[pct][1]:9.3f}")
    best_pct = min(series, key=lambda p: series[p][0] + series[p][1])
    lines.append(f"best combined PCT: {best_pct}")
    return FigureResult(
        "Figure 11", title, {"series": series, "best_pct": best_pct}, "\n".join(lines)
    )


# ----------------------------------------------------------------------
# Figure 12 - Remote Access Threshold sensitivity (vs Timestamp scheme).
# ----------------------------------------------------------------------
def figure12_rat_sensitivity(runner: ExperimentRunner) -> FigureResult:
    title = "RAT sensitivity: nRATlevels (L) x RATmax (T), normalized to Timestamp"
    configs: list[tuple[str, ProtocolConfig]] = [
        ("Timestamp", adaptive_protocol(remote_policy="timestamp")),
        ("L-1", adaptive_protocol(n_rat_levels=1, rat_max=4)),
        ("L-2,T-8", adaptive_protocol(n_rat_levels=2, rat_max=8)),
        ("L-2,T-16", adaptive_protocol(n_rat_levels=2, rat_max=16)),
        ("L-4,T-8", adaptive_protocol(n_rat_levels=4, rat_max=8)),
        ("L-4,T-16", adaptive_protocol(n_rat_levels=4, rat_max=16)),
        ("L-8,T-16", adaptive_protocol(n_rat_levels=8, rat_max=16)),
    ]
    runner.prefetch((n, proto) for n in runner.workloads for _, proto in configs)
    lines = _header("Figure 12", title)
    lines.append(f"{'config':<12}{'completion':>12}{'energy':>9}")
    time_anchor: dict[str, float] = {}
    energy_anchor: dict[str, float] = {}
    data: dict[str, tuple[float, float]] = {}
    for label, proto in configs:
        times, energies = [], []
        for name in runner.workloads:
            stats = runner.run(name, proto)
            if label == "Timestamp":
                time_anchor[name] = stats.completion_time
                energy_anchor[name] = stats.energy.total
            times.append(stats.completion_time / time_anchor[name])
            energies.append(stats.energy.total / energy_anchor[name])
        data[label] = (geomean(times), geomean(energies))
        lines.append(f"{label:<12}{data[label][0]:12.3f}{data[label][1]:9.3f}")
    return FigureResult("Figure 12", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Figure 13 - Limited_k classifier sensitivity (vs Complete).
# ----------------------------------------------------------------------
def figure13_limited_classifier(runner: ExperimentRunner, ks=(1, 3, 5, 7)) -> FigureResult:
    title = "Limited_k classifier: completion time & energy normalized to Complete"
    lines = _header("Figure 13", title)
    header = f"{'benchmark':<15}"
    for k in ks:
        header += f"{f'T(k={k})':>9}"
    for k in ks:
        header += f"{f'E(k={k})':>9}"
    lines.append(header)
    complete = adaptive_protocol(classifier="complete")
    runner.prefetch(
        (n, proto)
        for n in runner.workloads
        for proto in [complete]
        + [adaptive_protocol(classifier="limited", limited_k=k) for k in ks]
    )
    data: dict[str, dict[int, tuple[float, float]]] = {}
    tratios = {k: [] for k in ks}
    eratios = {k: [] for k in ks}
    for name in runner.workloads:
        ref = runner.run(name, complete)
        row: dict[int, tuple[float, float]] = {}
        for k in ks:
            stats = runner.run(name, adaptive_protocol(classifier="limited", limited_k=k))
            tr = stats.completion_time / ref.completion_time
            er = stats.energy.total / ref.energy.total
            row[k] = (tr, er)
            tratios[k].append(tr)
            eratios[k].append(er)
        data[name] = row
        lines.append(
            f"{name:<15}"
            + "".join(f"{row[k][0]:9.3f}" for k in ks)
            + "".join(f"{row[k][1]:9.3f}" for k in ks)
        )
    summary = {k: (geomean(tratios[k]), geomean(eratios[k])) for k in ks}
    data["geomean"] = summary
    lines.append("-" * 76)
    lines.append(
        f"{'geomean':<15}"
        + "".join(f"{summary[k][0]:9.3f}" for k in ks)
        + "".join(f"{summary[k][1]:9.3f}" for k in ks)
    )
    return FigureResult("Figure 13", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Figure 14 - Adapt1-way vs Adapt2-way.
# ----------------------------------------------------------------------
def figure14_one_way(runner: ExperimentRunner) -> FigureResult:
    title = "Adapt1-way / Adapt2-way ratio (higher = two-way transitions matter)"
    lines = _header("Figure 14", title)
    lines.append(f"{'benchmark':<15}{'completion':>12}{'energy':>9}")
    two_way = adaptive_protocol()
    one_way = adaptive_protocol(one_way=True)
    runner.prefetch((n, p) for n in runner.workloads for p in (two_way, one_way))
    data: dict[str, tuple[float, float]] = {}
    tratios, eratios = [], []
    for name in runner.workloads:
        ref = runner.run(name, two_way)
        alt = runner.run(name, one_way)
        tr = alt.completion_time / ref.completion_time
        er = alt.energy.total / ref.energy.total
        data[name] = (tr, er)
        tratios.append(tr)
        eratios.append(er)
        lines.append(f"{name:<15}{tr:12.3f}{er:9.3f}")
    summary = (geomean(tratios), geomean(eratios))
    data["geomean"] = summary
    lines.append("-" * 76)
    lines.append(f"{'geomean':<15}{summary[0]:12.3f}{summary[1]:9.3f}")
    return FigureResult("Figure 14", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Section 5 preamble - ACKwise_4 vs full-map baseline comparison.
# ----------------------------------------------------------------------
def ackwise_vs_fullmap(runner: ExperimentRunner) -> FigureResult:
    title = "Baseline ACKwise_4 vs full-map directory (paper: within 1%)"
    lines = _header("Section 5", title)
    lines.append(f"{'benchmark':<15}{'T ack/full':>12}{'E ack/full':>12}")
    ack = baseline_protocol(directory="ackwise")
    full = baseline_protocol(directory="fullmap")
    runner.prefetch((n, p) for n in runner.workloads for p in (ack, full))
    data: dict[str, tuple[float, float]] = {}
    tratios, eratios = [], []
    for name in runner.workloads:
        a = runner.run(name, ack)
        f = runner.run(name, full)
        tr = a.completion_time / f.completion_time
        er = a.energy.total / f.energy.total
        data[name] = (tr, er)
        tratios.append(tr)
        eratios.append(er)
        lines.append(f"{name:<15}{tr:12.3f}{er:12.3f}")
    summary = (geomean(tratios), geomean(eratios))
    data["geomean"] = summary
    lines.append("-" * 76)
    lines.append(f"{'geomean':<15}{summary[0]:12.3f}{summary[1]:12.3f}")
    return FigureResult("Section 5", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Extension: Victim Replication comparison (Section 2.1 discussion).
# ----------------------------------------------------------------------
def victim_replication_comparison(runner: ExperimentRunner) -> FigureResult:
    """Baseline vs Victim Replication vs the locality-aware protocol.

    Quantifies the Section 2.1 criticism: VR replicates every L1 victim
    "irrespective of whether [it] will be re-used in the future", so it wins
    where victims are re-read (large read-mostly working sets) and loses
    where they are not (streaming / write-shared data), while the
    locality-aware protocol adapts per line.
    """
    from repro.common.params import victim_replication_protocol

    title = "Victim Replication vs locality-aware (normalized to baseline)"
    lines = _header("Extension VR", title)
    lines.append(
        f"{'benchmark':<15}{'T(vr)':>9}{'E(vr)':>9}{'T(adapt)':>10}{'E(adapt)':>10}"
        f"{'replicas':>10}{'rep.hits':>10}"
    )
    base = baseline_protocol()
    vr = victim_replication_protocol()
    adapt = adaptive_protocol()
    runner.prefetch((n, p) for n in runner.workloads for p in (base, vr, adapt))
    data: dict[str, dict[str, float]] = {}
    vr_t, vr_e, ad_t, ad_e = [], [], [], []
    for name in runner.workloads:
        ref = runner.run(name, base)
        v = runner.run(name, vr)
        a = runner.run(name, adapt)
        row = {
            "vr_time": v.completion_time / ref.completion_time,
            "vr_energy": v.energy.total / ref.energy.total,
            "adapt_time": a.completion_time / ref.completion_time,
            "adapt_energy": a.energy.total / ref.energy.total,
            "replicas": v.replicas_created,
            "replica_hits": v.replica_hits,
        }
        data[name] = row
        vr_t.append(row["vr_time"])
        vr_e.append(row["vr_energy"])
        ad_t.append(row["adapt_time"])
        ad_e.append(row["adapt_energy"])
        lines.append(
            f"{name:<15}{row['vr_time']:9.3f}{row['vr_energy']:9.3f}"
            f"{row['adapt_time']:10.3f}{row['adapt_energy']:10.3f}"
            f"{row['replicas']:10d}{row['replica_hits']:10d}"
        )
    summary = {
        "vr_time": geomean(vr_t),
        "vr_energy": geomean(vr_e),
        "adapt_time": geomean(ad_t),
        "adapt_energy": geomean(ad_e),
    }
    data["geomean"] = summary
    lines.append("-" * 76)
    lines.append(
        f"{'geomean':<15}{summary['vr_time']:9.3f}{summary['vr_energy']:9.3f}"
        f"{summary['adapt_time']:10.3f}{summary['adapt_energy']:10.3f}"
    )
    return FigureResult("Extension VR", title, data, "\n".join(lines))


# ----------------------------------------------------------------------
# Extension: six-way protocol-family comparison (ROADMAP baselines).
# ----------------------------------------------------------------------
def protocol_families_comparison(runner: ExperimentRunner) -> FigureResult:
    """All six protocol families side by side, normalized to the baseline.

    One column pair (completion time, energy) per family: the paper's
    ACKwise directory baseline (the anchor), Victim Replication
    (Section 2.1), DLS (directoryless shared LLC - every access a word
    round-trip to the home), Neat (self-invalidation/self-downgrade
    without sharer tracking) and phase-priority directory coherence
    (write-shared lines pinned at the home) from PAPERS.md, and the
    locality-aware adaptive protocol at the paper's optimum PCT=4.  The
    expected shape: DLS wins only where R-NUCA keeps homes local, Neat
    pays write-through traffic on store-heavy sharing, phase sits between
    the baseline and the adaptive protocol on migratory data, and the
    adaptive protocol tracks the best per line.
    """
    from repro.common.params import (
        dls_protocol,
        neat_protocol,
        phase_protocol,
        victim_replication_protocol,
    )

    title = "Protocol families: completion time & energy (normalized to baseline)"
    families: list[tuple[str, ProtocolConfig]] = [
        ("baseline", baseline_protocol()),
        ("victim", victim_replication_protocol()),
        ("dls", dls_protocol()),
        ("neat", neat_protocol()),
        ("phase", phase_protocol()),
        ("adaptive", adaptive_protocol()),
    ]
    runner.prefetch((n, proto) for n in runner.workloads for _, proto in families)
    labels = [label for label, _ in families]
    lines = _header("Extension Families", title)
    lines.append(
        f"{'benchmark':<15}"
        + "".join(f"{f'T({lbl})':>12}" for lbl in labels)
        + "".join(f"{f'E({lbl})':>12}" for lbl in labels)
    )
    data: dict[str, dict[str, tuple[float, float]]] = {}
    tratios: dict[str, list[float]] = {lbl: [] for lbl in labels}
    eratios: dict[str, list[float]] = {lbl: [] for lbl in labels}
    for name in runner.workloads:
        ref = runner.run(name, families[0][1])
        row: dict[str, tuple[float, float]] = {}
        for label, proto in families:
            stats = runner.run(name, proto)
            tr = stats.completion_time / ref.completion_time
            er = stats.energy.total / ref.energy.total
            row[label] = (tr, er)
            tratios[label].append(tr)
            eratios[label].append(er)
        data[name] = row
        lines.append(
            f"{name:<15}"
            + "".join(f"{row[lbl][0]:12.3f}" for lbl in labels)
            + "".join(f"{row[lbl][1]:12.3f}" for lbl in labels)
        )
    summary = {lbl: (geomean(tratios[lbl]), geomean(eratios[lbl])) for lbl in labels}
    data["geomean"] = summary
    lines.append("-" * 76)
    lines.append(
        f"{'geomean':<15}"
        + "".join(f"{summary[lbl][0]:12.3f}" for lbl in labels)
        + "".join(f"{summary[lbl][1]:12.3f}" for lbl in labels)
    )
    return FigureResult("Extension Families", title, data, "\n".join(lines))

