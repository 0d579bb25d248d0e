#!/usr/bin/env python3
"""Victim Replication vs the locality-aware protocol (paper Section 2.1).

Victim Replication (Zhang & Asanovic) turns the local L2 slice into a
victim cache for L1 evictions.  The paper's criticism: it replicates
*every* victim, "irrespective of whether [it] will be re-used in the
future".  This example runs one benchmark where blanket replication pays
off (a large read-mostly working set) and one where it backfires
(write-shared data), and shows the locality-aware protocol holding up on
both.

Run with::

    python examples/victim_replication.py
"""

from repro import Simulator, baseline_protocol, load_workload
from repro.common.params import ProtocolConfig, victim_replication_protocol
from repro.experiments.harness import bench_arch

WORKLOADS = ("dijkstra-ap", "streamcluster")


def main() -> None:
    arch = bench_arch()
    protocols = {
        "baseline": baseline_protocol(),
        "victim-repl": victim_replication_protocol(),
        "adaptive": ProtocolConfig(pct=4),
    }

    for workload in WORKLOADS:
        trace = load_workload(workload, arch, scale="small")
        print(f"=== {workload} ({trace.memory_accesses:,} accesses) ===")
        base_stats = None
        for name, proto in protocols.items():
            stats = Simulator(arch, proto, warmup=True).run(trace)
            if base_stats is None:
                base_stats = stats
            t = stats.completion_time / base_stats.completion_time
            e = stats.energy.total / base_stats.energy.total
            extra = ""
            if proto.protocol == "victim":
                hit_pct = 100 * stats.replica_hits / max(1, stats.replicas_created)
                extra = (
                    f"  replicas={stats.replicas_created:,}"
                    f" hits={stats.replica_hits:,} ({hit_pct:.0f}% re-used)"
                    f" invalidated={stats.replica_invalidations:,}"
                )
            print(f"  {name:<12} time x{t:.3f}  energy x{e:.3f}{extra}")
        print()

    print(
        "Victim replication is a gamble on victim re-use; the locality-aware\n"
        "protocol instead measures per-line locality and only keeps data\n"
        "close when the measurements justify it."
    )


if __name__ == "__main__":
    main()
