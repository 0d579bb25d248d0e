"""The experiment registry: every paper claim, its generator and its check.

One :class:`Entry` per experiment (the paper's figures and tables, the
Section 3.6 storage arithmetic, two extensions, four ablations) holds its CLI
id, its generator, the paper's claim, the expected shape and the
:class:`Claim` rows checked against the generator's ``FigureResult.data``.
Claims are evaluated here, outside the generators, so a generator does the
same work for ``repro figures --figure``, ``--report`` or a benchmark.
``--report`` runs every entry at the paper configuration, writes
EXPERIMENTS.md and exits 1 when any claim fails.
"""

from __future__ import annotations

import operator
import pathlib
from dataclasses import dataclass
from typing import Callable

from repro.experiments.ablations import (
    ackwise_pointer_sweep,
    core_count_scaling,
    link_model_ablation,
    vote_init_ablation,
)
from repro.experiments.figures import (
    FigureResult,
    ackwise_vs_fullmap,
    figure1_invalidations,
    figure2_evictions,
    figure8_energy,
    figure9_completion_time,
    figure10_miss_breakdown,
    figure11_geomean_sweep,
    figure12_rat_sensitivity,
    figure13_limited_classifier,
    figure14_one_way,
    protocol_families_comparison,
    victim_replication_comparison,
)
from repro.experiments.harness import ExperimentRunner
from repro.experiments.storage import storage_overheads
from repro.workloads.registry import WORKLOAD_NAMES

#: The configuration every bound was written for.
PAPER_CORES = 64
PAPER_SCALE = "small"
#: Written to the current directory: run ``--report`` from the repository root.
OUTPUT_PATH = pathlib.Path("EXPERIMENTS.md")

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Ref:
    """A bound read from the same data: the claim compares two measured values."""

    label: str
    read: Callable[[dict], float]


@dataclass(frozen=True)
class Claim:
    """One gating row: ``measure(data) <op> bound``.

    ``op`` is one of :data:`_OPS` or ``"approx"``, which follows
    ``pytest.approx``: ``|measured - bound| <= tol``, ``tol`` defaulting to
    a relative 1e-6 of the bound (1e-12 at least).  ``paper`` is the paper's
    own number where it reports one; ``deviation`` explains a known
    difference from the paper and never exempts the row.
    """

    label: str
    measure: Callable[[dict], float]
    op: str
    bound: float | bool | Ref
    paper: str | None = None
    deviation: str | None = None
    tol: float | None = None

    def check(self, data: dict) -> "Verdict":
        """Evaluate this claim against an entry's ``FigureResult.data``."""
        measured = self.measure(data)
        bound = self.bound.read(data) if isinstance(self.bound, Ref) else self.bound
        if self.op == "approx":
            tol = self.tol if self.tol is not None else max(1e-6 * abs(bound), 1e-12)
            return Verdict(self, measured, bound, abs(measured - bound) <= tol,
                           f"== {_fmt(bound)} ± {_fmt(tol)}")
        if isinstance(self.bound, Ref):
            text = f"{self.op} {self.bound.label} ({_fmt(bound)})"
        else:
            text = f"{self.op} {_fmt(bound)}"
        return Verdict(self, measured, bound, bool(_OPS[self.op](measured, bound)), text)


@dataclass(frozen=True)
class Verdict:
    """One claim evaluated against one result."""

    claim: Claim
    measured: float
    bound: float
    holds: bool
    bound_text: str


@dataclass(frozen=True)
class Entry:
    """One experiment: CLI id, title, generator, prose and claims."""

    id: str
    title: str
    generate: Callable[[ExperimentRunner], FigureResult]
    paper_claim: str
    expectation: str
    claims: tuple[Claim, ...] = ()


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _benchmarks(data: dict) -> list:
    """Per-benchmark rows of a figure's data (its geomean row left out)."""
    return [row for name, row in data.items() if name != "geomean"]


def _largest_broadcast_rise(data: dict) -> float:
    rises = []
    for per_p in data.values():
        fractions = [per_p[p]["broadcast_fraction"] for p in sorted(per_p)]
        rises += [b - a for a, b in zip(fractions, fractions[1:])]
    return max(rises)


REGISTRY: tuple[Entry, ...] = (
    Entry(
        "1", "Figure 1", figure1_invalidations,
        "Many invalidated lines have low utilization; e.g. in streamcluster ~80% of "
        "invalidated lines have utilization < 4.",
        "Low buckets (1, 2-3) dominate invalidations for the sharing-heavy benchmarks; "
        "streamcluster's mass sits below utilization 4.",
        (Claim("streamcluster: invalidated lines with utilization < 4 (%)",
               lambda d: d["streamcluster"]["1"] + d["streamcluster"]["2-3"], ">", 50.0,
               paper="~80"),),
    ),
    Entry(
        "2", "Figure 2", figure2_evictions,
        "Evicted lines likewise skew to low utilization across benchmarks.",
        "Eviction histograms skew to the low buckets for streaming/graph workloads and to "
        ">=8 for compute-local ones.",
        (Claim("benchmarks with a populated eviction histogram",
               lambda d: sum(1 for b in d.values() if sum(b.values()) > 0), ">=", 15),),
    ),
    Entry(
        "8", "Figure 8", figure8_energy,
        "Energy falls as PCT rises from 1, ~25% average saving at PCT=4; link energy "
        "dominates router energy at 11nm.",
        "Geomean energy at PCT=4 well below 1.0 (normalized to PCT=1); per-benchmark stacks "
        "show the network-link component shrinking.",
        (
            Claim("geomean energy at PCT 4", lambda d: d["geomean"][4], "<", 0.9, paper="0.75"),
            Claim("|water-sp energy at PCT 4 - 1|",
                  lambda d: abs(d["water-sp"][4]["total"] - 1.0), "<", 0.1),
            Claim("|susan energy at PCT 4 - 1|",
                  lambda d: abs(d["susan"][4]["total"] - 1.0), "<", 0.1),
        ),
    ),
    Entry(
        "9", "Figure 9", figure9_completion_time,
        "Completion time falls ~15% at PCT=4; improvements from converting capacity/sharing "
        "misses into word misses.",
        "Geomean completion time at PCT=4 below 1.0; L2-waiting and L2-sharers components "
        "shrink for streamcluster/dijkstra-ss.",
        (
            Claim("geomean completion time at PCT 4", lambda d: d["geomean"][4], "<", 0.95,
                  paper="0.85"),
            Claim("lu-nc completion time at PCT 8", lambda d: d["lu-nc"][8]["total"],
                  ">", Ref("PCT 3", lambda d: d["lu-nc"][3]["total"])),
        ),
    ),
    Entry(
        "10", "Figure 10", figure10_miss_breakdown,
        "Raising PCT converts capacity misses (blackscholes, bodytrack) and sharing misses "
        "(dijkstra-ss, streamcluster) into word misses.",
        "Word-miss share grows with PCT while capacity+sharing shares shrink; total miss "
        "rate may rise while cost per miss falls.",
        (
            Claim("streamcluster word-miss rate at PCT 1 (%)",
                  lambda d: d["streamcluster"][1]["word"], "==", 0.0),
            Claim("streamcluster word-miss rate at PCT 4 (%)",
                  lambda d: d["streamcluster"][4]["word"], ">", 0.0),
            Claim("streamcluster sharing-miss rate at PCT 4 (%)",
                  lambda d: d["streamcluster"][4]["sharing"],
                  "<", Ref("PCT 1", lambda d: d["streamcluster"][1]["sharing"])),
            Claim("water-sp highest miss rate over PCT 1-8 (%)",
                  lambda d: max(d["water-sp"][p]["total"] for p in (1, 2, 3, 4, 6, 8)),
                  "<", 1.0),
        ),
    ),
    Entry(
        "11", "Figure 11", figure11_geomean_sweep,
        "U-shaped curves: completion time -15% and energy -25% at the static optimum PCT=4; "
        "both degrade at large PCT.",
        "Completion time dips to ~0.85 at PCT=3-4 and climbs again by PCT=20 (the U-shape); "
        "energy reaches ~0.65 by PCT=5 and stays flat in the tail rather than climbing - a "
        "documented substrate deviation (synthetic kernels keep remote word accesses cheap).",
        (
            Claim("geomean completion time at PCT 4", lambda d: d["series"][4][0], "<", 0.95,
                  paper="0.85"),
            Claim("geomean energy at PCT 4", lambda d: d["series"][4][1], "<", 0.85,
                  paper="0.75"),
            Claim("geomean completion time at PCT 20 vs PCT 4", lambda d: d["series"][20][0],
                  ">", Ref("PCT 4", lambda d: d["series"][4][0])),
            Claim("geomean energy at PCT 20", lambda d: d["series"][20][1],
                  ">=", Ref("lowest energy - 0.01",
                            lambda d: min(e for _t, e in d["series"].values()) - 0.01),
                  deviation="The paper's energy climbs again at large PCT; here the tail "
                  "stays flat, because the synthetic kernels keep remote word accesses "
                  "comparatively cheap."),
            Claim("geomean completion time at PCT 20 vs PCT 8", lambda d: d["series"][20][0],
                  ">=", Ref("PCT 8 - 0.01", lambda d: d["series"][8][0] - 0.01)),
        ),
    ),
    Entry(
        "12", "Figure 12", figure12_rat_sensitivity,
        "Single RAT level costs ~9% energy vs Timestamp; nRATlevels=2 with RATmax=16 tracks "
        "the Timestamp scheme closely.",
        "L-1 worst in energy; L-2/T-16 within a few percent of Timestamp on both axes.",
        (
            Claim("L-1 energy", lambda d: d["L-1"][1], ">", 1.01, paper="1.09"),
            Claim("|L-2,T-16 completion time - 1|",
                  lambda d: abs(d["L-2,T-16"][0] - 1.0), "<", 0.06),
            Claim("|L-2,T-16 energy - 1|", lambda d: abs(d["L-2,T-16"][1] - 1.0), "<", 0.06),
            Claim("L-2,T-16 energy", lambda d: d["L-2,T-16"][1],
                  "<", Ref("L-1", lambda d: d["L-1"][1])),
        ),
    ),
    Entry(
        "13", "Figure 13", figure13_limited_classifier,
        "Limited_3 within 3% of the Complete classifier; k=1 pathologies on radix (starts "
        "sharers remote) and bodytrack (starts private).",
        "k=3 column ~1.0 everywhere; k=1 shows outliers on the named benchmarks.",
        (
            Claim("geomean energy, k=1", lambda d: d["geomean"][1][1],
                  ">", Ref("k=3", lambda d: d["geomean"][3][1])),
            Claim("geomean completion time, k=3", lambda d: d["geomean"][3][0], "<", 1.15,
                  paper="< 1.03"),
            Claim("|geomean energy, k=7 - k=3|",
                  lambda d: abs(d["geomean"][7][1] - d["geomean"][3][1]),
                  "<", Ref("|k=3 - k=1|",
                           lambda d: abs(d["geomean"][3][1] - d["geomean"][1][1]))),
        ),
    ),
    Entry(
        "14", "Figure 14", figure14_one_way,
        "Adapt1-way is 34% worse in completion time and 13% in energy; bodytrack 3.3x and "
        "dijkstra-ss 2.3x in completion time.",
        "Completion-time geomean above 1 with the re-promotion-dependent benchmarks worst "
        "(lu-nc ~1.5x); the energy axis is mixed in this substrate - permanently-remote "
        "cores save network traffic on some kernels - where the paper reports a uniform +13%.",
        (
            Claim("geomean completion time", lambda d: d["geomean"][0], ">", 1.0, paper="1.34"),
            Claim("lu-nc completion time", lambda d: d["lu-nc"][0], ">", 1.2),
            Claim("dijkstra-ss completion time", lambda d: d["dijkstra-ss"][0], ">", 1.1,
                  paper="2.3"),
        ),
    ),
    Entry(
        "ackwise-vs-fullmap", "Section 5 preamble", ackwise_vs_fullmap,
        "Baseline ACKwise_4 performs within 1% of a full-map directory.",
        "Completion-time and energy ratios ~1.0 across benchmarks.",
        (
            Claim("|geomean completion time - 1|", lambda d: abs(d["geomean"][0] - 1.0),
                  "<", 0.03, paper="< 0.01"),
            Claim("|geomean energy - 1|", lambda d: abs(d["geomean"][1] - 1.0),
                  "<", 0.03, paper="< 0.01"),
        ),
    ),
    Entry(
        "storage", "Section 3.6 (storage)", storage_overheads,
        "Limited_3 needs 18KB/core vs 192KB for Complete; ACKwise_4 12KB, full-map 32KB; "
        "Limited_3+ACKwise_4 < full-map and +5.7% vs baseline ACKwise_4.",
        "The arithmetic reproduces exactly (also unit-tested).",
        (
            Claim("Limited_3 classifier (KB)", lambda d: d["limited"].classifier_kb,
                  "approx", 18.0, paper="18"),
            Claim("Complete classifier (KB)", lambda d: d["complete"].classifier_kb,
                  "approx", 192.0, paper="192"),
            Claim("ACKwise_4 directory (KB)", lambda d: d["limited"].sharer_kb,
                  "approx", 12.0, paper="12"),
            Claim("full-map directory (KB)", lambda d: d["limited"].fullmap_kb,
                  "approx", 32.0, paper="32"),
            Claim("Limited_3 + ACKwise_4 smaller than full-map",
                  lambda d: d["limited"].beats_fullmap(), "==", True, paper="True"),
            Claim("Limited_3 overhead vs the ACKwise_4 baseline",
                  lambda d: d["limited"].overhead_fraction, "approx", 0.057, paper="0.057",
                  tol=0.005),
        ),
    ),
    Entry(
        "victim-replication", "Extension: Victim Replication", victim_replication_comparison,
        "Section 2.1 (qualitative): VR replicates every L1 victim irrespective of future "
        "re-use.",
        "VR wins where victims are re-read, pays where they are not; the adaptive protocol "
        "wins on geomean without blanket replication.",
        (
            Claim("geomean adaptive completion time", lambda d: d["geomean"]["adapt_time"],
                  "<", 1.0),
            Claim("geomean adaptive energy", lambda d: d["geomean"]["adapt_energy"], "<", 1.0),
            Claim("most VR replicas created in one benchmark",
                  lambda d: max(row["replicas"] for row in _benchmarks(d)), ">", 0),
            Claim("most VR replica hits in one benchmark",
                  lambda d: max(row["replica_hits"] for row in _benchmarks(d)), ">", 0),
            Claim("highest VR energy of one benchmark",
                  lambda d: max(row["vr_energy"] for row in _benchmarks(d)), ">", 1.0),
        ),
    ),
    Entry(
        "protocol-families", "Extension: protocol families", protocol_families_comparison,
        "(ours - no paper claim) The related-work families of PAPERS.md beside the paper's "
        "baseline, Victim Replication and the adaptive protocol at PCT=4.",
        "DLS wins only where R-NUCA keeps homes local, Neat pays write-through traffic on "
        "store-heavy sharing, phase sits between the baseline and the adaptive protocol on "
        "migratory data, and the adaptive protocol tracks the best per line.",
    ),
    Entry(
        "ablation-link-model", "Ablation: link model", link_model_ablation,
        "(ours - DESIGN.md decision 6)",
        "Naive next-free-time link accounting inflates completion time vs epoch accounting "
        "(phantom congestion); no-contention is fastest.",
        (
            Claim("geomean completion time, no contention", lambda d: d["geomean"]["none"],
                  "<=", 1.02),
            Claim("geomean completion time, naive", lambda d: d["geomean"]["naive"],
                  ">=", Ref("epoch", lambda d: d["geomean"]["epoch"])),
        ),
    ),
    Entry(
        "ablation-ackwise-pointers", "Ablation: ACKwise_p", ackwise_pointer_sweep,
        "(ours - Table 1 fixes p=4)",
        "Broadcast fraction falls as p grows; performance stable around p=4 (the knee).",
        (Claim("largest rise in broadcast fraction from one p to the next",
               _largest_broadcast_rise, "<=", 1e-9),),
    ),
    Entry(
        "ablation-core-scaling", "Ablation: core scaling", core_count_scaling,
        "(ours - the paper's scalability premise)",
        "The adaptive protocol's time/energy advantage holds from 16 to 64 cores.",
        (
            Claim("highest adaptive/baseline completion time at 64 cores",
                  lambda d: max(per_n[64][0] for per_n in d.values()), "<", 1.0),
            Claim("highest adaptive/baseline energy at 64 cores",
                  lambda d: max(per_n[64][1] for per_n in d.values()), "<", 1.0),
        ),
    ),
    Entry(
        "ablation-vote-init", "Ablation: vote-init", vote_init_ablation,
        "Section 5.3 remark: Complete could adopt Limited's learning short-cut.",
        "The short-cut never hurts materially on the paper's named set.",
        (
            Claim("geomean completion time with the short-cut", lambda d: d["geomean"][0],
                  "<", 1.05),
            Claim("geomean energy with the short-cut", lambda d: d["geomean"][1], "<", 1.05),
        ),
    ),
)


# EXPERIMENTS.md
_PREAMBLE = f"""\
# EXPERIMENTS - paper vs measured

Every table and figure of the paper's evaluation (Section 5), the Section 3.6
storage arithmetic, two extensions and four ablations over this
reproduction's own modelling choices: what the paper reports, what this
reproduction measures, and the claims checked against the measurements.

This file is generated from the experiment registry
(`repro.experiments.report`); do not edit it by hand.  From the repository
root,

    PYTHONPATH=src python -m repro.runner.cli figures --report --workers 2

runs every entry at the paper configuration - {PAPER_CORES} cores, `{PAPER_SCALE}`
problem sizes, all {len(WORKLOAD_NAMES)} workloads, warmup then measure -
rewrites this file and exits 1 if any claim fails.  CI regenerates it and
fails on any difference.

**Reading the numbers.**  The substrate here is a synthetic-trace,
cycle-approximate simulator with capacity-scaled caches (DESIGN.md,
"Scaling methodology"), not the authors' Graphite setup running full
benchmark binaries - so we reproduce *shapes* (who wins, by roughly what
factor, where crossovers fall), not absolute percentages.  Figures 3-7 are
schematics with no data; they are realized as code structure
(`repro.protocol`, `repro.coherence`, `repro.mem`).

**Reading the claims.**  Each row compares one number read from the
entry's measured data with a bound; a bound naming another quantity
compares two measured numbers.  The paper column gives the paper's own
number where it reports one.  Every row gates: a deviation note explains a
known difference from the paper and never exempts the row.
"""


def _row(*cells) -> str:
    return "| " + " | ".join((cell or "").replace("|", "\\|") for cell in cells) + " |"


def render(results: list[tuple[Entry, FigureResult, list[Verdict]]]) -> str:
    """The full EXPERIMENTS.md text for evaluated entries, in order."""
    held = sum(v.holds for _e, _r, vs in results for v in vs)
    total = sum(len(vs) for _e, _r, vs in results)
    parts = [_PREAMBLE, f"**{held} of {total} claims hold.**\n", "## Index\n",
             "| Experiment | CLI id | Paper reports | Reproduction shows | Claims held |",
             "|---|---|---|---|---|"]
    for entry, _result, vs in results:
        parts.append(_row(entry.title, f"`{entry.id}`", entry.paper_claim, entry.expectation,
                          f"{sum(v.holds for v in vs)}/{len(vs)}"))
    for entry, result, vs in results:
        parts += ["", f"## {entry.title}\n", f"**Paper:** {entry.paper_claim}\n",
                  f"**Expected shape:** {entry.expectation}\n",
                  f"**Measured** (`repro figures --figure {entry.id}`):\n",
                  "```text", result.text.rstrip(), "```\n"]
        if not vs:
            parts.append("*No claim: this extension has no paper number to check.*")
            continue
        parts += ["| Claim | Measured | Bound | Paper | Holds | Deviation |",
                  "|---|---|---|---|---|---|"]
        parts += [_row(v.claim.label, _fmt(v.measured), v.bound_text, v.claim.paper,
                       "yes" if v.holds else "**NO**", v.claim.deviation) for v in vs]
    return "\n".join(parts) + "\n"


def write_report(results: list[tuple[Entry, FigureResult]]) -> int:
    """Check every claim, write EXPERIMENTS.md, print the verdict; 0 iff all hold."""
    evaluated = [(entry, result, [claim.check(result.data) for claim in entry.claims])
                 for entry, result in results]
    OUTPUT_PATH.write_text(render(evaluated), encoding="utf-8")
    verdicts = [(entry, v) for entry, _r, vs in evaluated for v in vs]
    failed = [(entry, v) for entry, v in verdicts if not v.holds]
    for entry, v in failed:
        print(f"claim failed: {entry.title}: {v.claim.label}: measured {_fmt(v.measured)}, "
              f"bound {v.bound_text}")
    print(f"{len(verdicts) - len(failed)} of {len(verdicts)} claims hold; wrote {OUTPUT_PATH}")
    return 1 if failed else 0
