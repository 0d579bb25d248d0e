#!/usr/bin/env python3
"""Print the paper's headline figures on a reduced sweep.

Runs a reduced sweep (16 cores, tiny problem sizes, a benchmark subset),
then prints the text of:

* Figure 11 - the PCT U-curve (geomean completion time & energy);
* Figure 8  - per-benchmark energy stacks at PCT 1 vs 4;
* Figure 10 - the miss-mix shift (capacity/sharing -> word) vs PCT;
* Figure 14 - Adapt1-way vs Adapt2-way ratios.

For tables at the paper configuration use the CLI
(``repro figures --figure 11``); ``repro figures --report`` checks every
paper claim and rewrites EXPERIMENTS.md.

Run with::

    python examples/figure_gallery.py
"""

from repro.experiments.figures import (
    figure8_energy,
    figure10_miss_breakdown,
    figure11_geomean_sweep,
    figure14_one_way,
)
from repro.experiments.harness import ExperimentRunner, bench_arch

WORKLOADS = ("streamcluster", "dijkstra-ss", "blackscholes", "lu-nc", "water-sp")
PCTS = (1, 2, 3, 4, 6, 8, 12, 16)


def main() -> None:
    runner = ExperimentRunner(arch=bench_arch(16), scale="tiny", workloads=WORKLOADS)
    for result in (
        figure11_geomean_sweep(runner, pcts=PCTS),
        figure8_energy(runner, pcts=(1, 4)),
        figure10_miss_breakdown(runner, pcts=(1, 4, 8)),
        figure14_one_way(runner),
    ):
        print(result.text, end="\n\n")


if __name__ == "__main__":
    main()
