"""Section 3.6 storage-overhead arithmetic.

Reproduces every number in the paper's storage analysis:

* 0.19 KB of utilization bits in the L1 caches (neglected),
* 18 KB per core for the Limited_3 classifier (36 bits/entry),
* 192 KB per core for the Complete classifier (384 bits/entry),
* 12 KB per core for ACKwise_4 (24 bits/entry),
* 32 KB per core for a full-map directory (64 bits/entry),
* Limited_3 + ACKwise_4 < full-map,
* +5.7% over the ACKwise_4 baseline; Complete +60%.

The per-entry bits come from the engines' own classifier and sharer-policy
objects, so every protocol family is charged what it actually builds: a
directoryless family (DLS, Neat) keeps no sharer bits, and only the
adaptive protocol has a classifier and L1 utilization counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.coherence.classifier import make_classifier
from repro.coherence.directory import FullMapPolicy, make_sharer_policy
from repro.common.params import ArchConfig, ProtocolConfig
from repro.experiments.figures import FigureResult


@dataclass(frozen=True)
class StorageReport:
    """Per-core storage accounting (bytes unless noted)."""

    l1_utilization_bytes: float
    classifier_bits_per_entry: int
    classifier_bytes: float
    sharer_bits_per_entry: int
    sharer_bytes: float
    fullmap_bytes: float
    baseline_total_bytes: float
    overhead_fraction: float  # classifier bytes over the baseline total

    @property
    def classifier_kb(self) -> float:
        return self.classifier_bytes / 1024

    @property
    def sharer_kb(self) -> float:
        return self.sharer_bytes / 1024

    @property
    def fullmap_kb(self) -> float:
        return self.fullmap_bytes / 1024

    def beats_fullmap(self) -> bool:
        """Classifier + limited directory smaller than a full-map directory?"""
        return self.classifier_bytes + self.sharer_bytes < self.fullmap_bytes


def utilization_counter_bits(pct: int) -> int:
    """Bits of the L1 private-utilization counter (2 for the optimal PCT=4)."""
    return max(1, math.ceil(math.log2(max(2, pct))))


def storage_report(arch: ArchConfig | None = None, proto: ProtocolConfig | None = None) -> StorageReport:
    """Compute the Section 3.6 storage numbers for a configuration."""
    arch = arch if arch is not None else ArchConfig()
    proto = proto if proto is not None else ProtocolConfig()

    # L1 tag extensions: the private-utilization counter per L1 line.
    util_bits = utilization_counter_bits(proto.pct) if proto.is_adaptive else 0
    l1_lines = arch.l1i.num_lines + arch.l1d.num_lines
    l1_utilization_bytes = l1_lines * util_bits / 8

    # Directory entries: one per L2 line (directory integrated in L2 tags).
    entries = arch.l2.num_lines
    cls_bits = (
        make_classifier(proto).storage_bits_per_entry(arch.num_cores)
        if proto.is_adaptive
        else 0
    )
    classifier_bytes = entries * cls_bits / 8
    sharer_policy = make_sharer_policy(proto, arch.num_cores, arch.ackwise_pointers)
    shr_bits = sharer_policy.storage_bits_per_entry()
    sharer_bytes = entries * shr_bits / 8
    fullmap_bytes = entries * FullMapPolicy(arch.num_cores).storage_bits_per_entry() / 8

    # Baseline per-core storage: L1-I + L1-D + L2 data + ACKwise directory.
    baseline_total = (
        arch.l1i.size_kb * 1024
        + arch.l1d.size_kb * 1024
        + arch.l2.size_kb * 1024
        + sharer_bytes
    )
    overhead = (classifier_bytes + l1_utilization_bytes) / baseline_total
    return StorageReport(
        l1_utilization_bytes=l1_utilization_bytes,
        classifier_bits_per_entry=cls_bits,
        classifier_bytes=classifier_bytes,
        sharer_bits_per_entry=shr_bits,
        sharer_bytes=sharer_bytes,
        fullmap_bytes=fullmap_bytes,
        baseline_total_bytes=baseline_total,
        overhead_fraction=overhead,
    )


def storage_overheads(runner=None) -> FigureResult:
    """The Section 3.6 comparison at Table-1 parameters, as an experiment.

    Pure arithmetic, so the runner every generator takes goes unused; the
    data holds the Limited_3 and Complete reports the table prints.
    """
    arch = ArchConfig()
    limited = storage_report(arch, ProtocolConfig(classifier="limited", limited_k=3))
    complete = storage_report(arch, ProtocolConfig(classifier="complete"))
    lines = [
        "Section 3.6 storage overheads (per core, Table-1 configuration)",
        f"  L1 utilization bits            : {limited.l1_utilization_bytes / 1024:6.2f} KB",
        f"  Limited_3 classifier           : {limited.classifier_kb:6.2f} KB "
        f"({limited.classifier_bits_per_entry} bits/entry)",
        f"  Complete classifier            : {complete.classifier_kb:6.2f} KB "
        f"({complete.classifier_bits_per_entry} bits/entry)",
        f"  ACKwise_4 directory            : {limited.sharer_kb:6.2f} KB "
        f"({limited.sharer_bits_per_entry} bits/entry)",
        f"  Full-map directory             : {limited.fullmap_kb:6.2f} KB",
        f"  Limited_3 + ACKwise_4 < full-map: {limited.beats_fullmap()}",
        f"  Overhead vs ACKwise_4 baseline : Limited_3 {limited.overhead_fraction:6.1%}, "
        f"Complete {complete.overhead_fraction:6.1%}",
    ]
    data = {"limited": limited, "complete": complete}
    return FigureResult("Section 3.6", "Storage overheads", data, "\n".join(lines))
