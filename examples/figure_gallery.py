#!/usr/bin/env python3
"""Render the paper's headline figures as terminal charts.

Runs a reduced sweep (16 cores, tiny problem sizes, a benchmark subset),
then draws:

* Figure 11 - the PCT U-curve (geomean completion time & energy);
* Figure 8  - per-benchmark energy stacks at PCT 1 vs 4;
* Figure 10 - the miss-mix shift (capacity/sharing -> word) vs PCT;
* Figure 14 - Adapt1-way vs Adapt2-way grouped bars.

For tables at the paper configuration use the CLI
(``repro figures --figure 11``); ``repro figures --report`` checks every
paper claim and rewrites EXPERIMENTS.md.

Run with::

    python examples/figure_gallery.py
"""

from repro.common.types import MissType
from repro.experiments.figures import (
    figure8_energy,
    figure10_miss_breakdown,
    figure11_geomean_sweep,
    figure14_one_way,
)
from repro.experiments.harness import ExperimentRunner, bench_arch
from repro.viz import grouped_bar_chart, line_chart, stacked_bar_chart

WORKLOADS = ("streamcluster", "dijkstra-ss", "blackscholes", "lu-nc", "water-sp")
PCTS = (1, 2, 3, 4, 6, 8, 12, 16)


def main() -> None:
    runner = ExperimentRunner(arch=bench_arch(16), scale="tiny", workloads=WORKLOADS)

    # ------------------------------------------------------------- Fig 11
    fig11 = figure11_geomean_sweep(runner, pcts=PCTS)
    series = fig11.data["series"]
    print(line_chart(
        list(PCTS),
        {
            "completion": [series[p][0] for p in PCTS],
            "energy": [series[p][1] for p in PCTS],
        },
        width=56, height=14,
        title="Figure 11 - geomean vs PCT (normalized to PCT=1)",
    ))
    print(f"\nbest combined PCT on this subset: {fig11.data['best_pct']}\n")

    # ------------------------------------------------------------- Fig 8
    fig8 = figure8_energy(runner, pcts=(1, 4))
    components = ("l1i", "l1d", "l2", "directory", "router", "link")
    labels, stacks = [], {c: [] for c in components}
    for name in WORKLOADS:
        for pct in (1, 4):
            labels.append(f"{name[:10]}@{pct}")
            for c in components:
                stacks[c].append(fig8.data[name][pct][c])
    print(stacked_bar_chart(
        labels, stacks, width=44,
        title="Figure 8 - energy stacks, PCT 1 vs 4 (each pair normalized to its PCT=1)",
    ))
    print()

    # ------------------------------------------------------------- Fig 10
    fig10 = figure10_miss_breakdown(runner, pcts=(1, 4, 8))
    mixes = {mt.name.lower(): [] for mt in MissType}
    mix_labels = []
    for pct in (1, 4, 8):
        mix_labels.append(f"PCT={pct}")
        for mt in MissType:
            key = mt.name.lower()
            total = sum(fig10.data[n][pct][key] for n in WORKLOADS)
            mixes[key].append(total)
    print(stacked_bar_chart(
        mix_labels, mixes, width=44,
        title="Figure 10 - aggregate miss mix vs PCT (capacity/sharing -> word)",
    ))
    print()

    # ------------------------------------------------------------- Fig 14
    fig14 = figure14_one_way(runner)
    names = [n for n in fig14.data if n != "geomean"]
    print(grouped_bar_chart(
        names,
        {
            "time ratio": [fig14.data[n][0] for n in names],
            "energy ratio": [fig14.data[n][1] for n in names],
        },
        width=36,
        title="Figure 14 - Adapt1-way / Adapt2-way (higher = 2-way transitions matter)",
    ))


if __name__ == "__main__":
    main()
