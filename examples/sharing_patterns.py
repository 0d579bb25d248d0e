#!/usr/bin/env python3
"""How the protocol handles the five classic sharing patterns.

Runs each synthetic pattern (`repro.workloads.synthetic`) under the
baseline and the locality-aware protocol.  Each pattern wins through a
different conversion: streaming/uniform data trades capacity misses for
word accesses, write-shared hotspots and migratory objects trade
invalidation ping-pong for word traffic, and producer/consumer handoffs
stop invalidating the consumer's whole buffer.

Run with::

    python examples/sharing_patterns.py
"""

from repro import ProtocolConfig, Simulator, baseline_protocol
from repro.common.params import ArchConfig, CacheGeometry
from repro.common.types import MissType
from repro.workloads.synthetic import (
    hotspot,
    migratory,
    producer_consumer,
    streaming,
    uniform_random,
)

ARCH = ArchConfig(
    num_cores=16,
    num_memory_controllers=4,
    l1i=CacheGeometry(2, 2, 1),
    l1d=CacheGeometry(2, 2, 1),
    l2=CacheGeometry(16, 4, 7),
)

PATTERNS = {
    "uniform-random": uniform_random(16, lines=1024, accesses_per_core=1500),
    "hotspot-80/20": hotspot(16, hot_lines=8, cold_lines=2048, accesses_per_core=1500),
    "streaming": streaming(16, lines=1024, rounds=2),
    "producer-consumer": producer_consumer(16, buffer_lines=32, handoffs=15),
    "migratory": migratory(16, object_lines=4, rounds=12, uses_per_visit=2),
}


def main() -> None:
    print("adaptive (PCT=4) vs baseline on the classic sharing patterns")
    print("(ratios < 1 favour the locality-aware protocol)\n")
    print(f"{'pattern':<17}  {'time ratio':>10}  {'energy ratio':>12}  {'remote %':>8}"
          "  sharing -> word")
    for name, trace in PATTERNS.items():
        base = Simulator(ARCH, baseline_protocol(), warmup=True).run(trace)
        adapt = Simulator(ARCH, ProtocolConfig(pct=4), warmup=True).run(trace)
        time_ratio = adapt.completion_time / base.completion_time
        energy_ratio = adapt.energy.total / base.energy.total
        remote_pct = 100 * adapt.remote_accesses / max(1, trace.memory_accesses)
        conversion = (
            f"{base.miss.count(MissType.SHARING)} -> "
            f"{adapt.miss.count(MissType.SHARING)} shr, "
            f"{adapt.miss.count(MissType.WORD)} word"
        )
        print(f"{name:<17}  {time_ratio:10.3f}  {energy_ratio:12.3f}  {remote_pct:8.1f}"
              f"  {conversion}")
    print(
        "\nEvery pattern wins for a different reason: streaming/uniform\n"
        "convert capacity misses to word accesses; the write-shared hotspot\n"
        "and the migratory object convert invalidation ping-pong instead -\n"
        "their sharing misses all but disappear."
    )


if __name__ == "__main__":
    main()
