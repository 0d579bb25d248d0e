"""Statistics collected during a simulation run.

These map one-to-one onto the paper's evaluation metrics (Section 4.4):

* **completion time** decomposed into Compute, L1-to-L2, L2-waiting,
  L2-to-sharers, L2-to-off-chip and Synchronization (Figure 9's stack);
* **L1-D miss rate with miss-type breakdown** - Cold / Capacity / Upgrade /
  Sharing / Word (Figure 10);
* **dynamic energy breakdown** - L1-I / L1-D / L2 / Directory / Router /
  Link (Figure 8's stack);
* **utilization histograms** of invalidated and evicted lines
  (Figures 1 and 2).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.statsutil import UTILIZATION_BUCKETS, bucket_percentages, utilization_bucket
from repro.common.types import MissType
from repro.energy.model import EnergyBreakdown


@dataclass(slots=True)
class LatencyBreakdown:
    """Per-component cycles (the Figure 9 stack)."""

    compute: float = 0.0
    l1_to_l2: float = 0.0
    l2_waiting: float = 0.0
    l2_sharers: float = 0.0
    l2_offchip: float = 0.0
    sync: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.l1_to_l2
            + self.l2_waiting
            + self.l2_sharers
            + self.l2_offchip
            + self.sync
        )

    def add(self, other: "LatencyBreakdown") -> None:
        self.compute += other.compute
        self.l1_to_l2 += other.l1_to_l2
        self.l2_waiting += other.l2_waiting
        self.l2_sharers += other.l2_sharers
        self.l2_offchip += other.l2_offchip
        self.sync += other.sync

    def scaled(self, factor: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            compute=self.compute * factor,
            l1_to_l2=self.l1_to_l2 * factor,
            l2_waiting=self.l2_waiting * factor,
            l2_sharers=self.l2_sharers * factor,
            l2_offchip=self.l2_offchip * factor,
            sync=self.sync * factor,
        )

    def to_dict(self) -> dict[str, float]:
        """Field-only mapping that round-trips exactly through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyBreakdown":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})


class MissStats:
    """L1-D access/hit/miss counts with per-type miss classification."""

    __slots__ = ("hits", "_miss_counts")

    def __init__(self) -> None:
        self.hits = 0
        self._miss_counts = [0] * len(MissType)

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self, miss_type: MissType) -> None:
        self._miss_counts[miss_type] += 1

    @property
    def misses(self) -> int:
        return sum(self._miss_counts)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def count(self, miss_type: MissType) -> int:
        return self._miss_counts[miss_type]

    def breakdown(self) -> dict[str, int]:
        return {mt.name.lower(): self._miss_counts[mt] for mt in MissType}

    def rate_breakdown(self) -> dict[str, float]:
        """Per-type miss rate as a fraction of all L1-D accesses (Fig. 10)."""
        total = self.accesses
        if total == 0:
            return {mt.name.lower(): 0.0 for mt in MissType}
        return {mt.name.lower(): self._miss_counts[mt] / total for mt in MissType}

    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips through :meth:`from_dict`.

        Miss types are keyed by name, not enum index, so stored results stay
        readable and survive reordering of ``MissType``.
        """
        return {"hits": self.hits, "by_type": self.breakdown()}

    @classmethod
    def from_dict(cls, data: dict) -> "MissStats":
        stats = cls()
        stats.hits = int(data["hits"])
        for name, count in data["by_type"].items():
            stats._miss_counts[MissType[name.upper()]] = int(count)
        return stats


class UtilizationHistogram:
    """Counts of removed L1 lines bucketed by utilization (Figures 1-2)."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {b: 0 for b in UTILIZATION_BUCKETS}

    def record(self, utilization: int) -> None:
        if utilization < 1:
            utilization = 1  # a line is used at least once (the filling access)
        self.counts[utilization_bucket(utilization)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percentages(self) -> dict[str, float]:
        return bucket_percentages(self.counts)

    def to_dict(self) -> dict[str, int]:
        """JSON-ready mapping that round-trips through :meth:`from_dict`."""
        return dict(self.counts)

    @classmethod
    def from_dict(cls, data: dict) -> "UtilizationHistogram":
        hist = cls()
        hist.counts = {bucket: int(data.get(bucket, 0)) for bucket in UTILIZATION_BUCKETS}
        return hist


@dataclass
class RunStats:
    """Everything measured by one simulation run."""

    benchmark: str = ""
    num_cores: int = 0
    completion_time: float = 0.0  # max core finish time (cycles)
    instructions: int = 0
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    miss: MissStats = field(default_factory=MissStats)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    inval_histogram: UtilizationHistogram = field(default_factory=UtilizationHistogram)
    evict_histogram: UtilizationHistogram = field(default_factory=UtilizationHistogram)
    # Protocol-level counters.
    promotions: int = 0
    demotions: int = 0
    remote_accesses: int = 0
    broadcast_invalidations: int = 0
    unicast_invalidations: int = 0
    dram_requests: int = 0
    network_flits: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    # Victim-replication counters (protocol="victim" runs only).
    replicas_created: int = 0
    replica_hits: int = 0
    replica_invalidations: int = 0
    replica_evictions: int = 0
    # Self-invalidation counters (protocol="neat" runs only).
    self_invalidations: int = 0
    write_throughs: int = 0
    # Phase-priority counters (protocol="phase" runs only).
    phase_promotions: int = 0
    phase_demotions: int = 0
    phase_word_accesses: int = 0

    #: Fields serialized via their own to_dict/from_dict rather than as scalars.
    _COMPOSITE_FIELDS = ("latency", "miss", "energy", "inval_histogram", "evict_histogram")

    @property
    def l1d_miss_rate(self) -> float:
        return self.miss.miss_rate

    def to_dict(self) -> dict:
        """Fully serialize the run for the on-disk result cache.

        Derived from ``dataclasses.fields`` so counters added later are
        picked up automatically; only the five composite members need
        explicit handling.  Floats survive the JSON round-trip exactly
        (shortest-repr float serialization), so
        ``RunStats.from_dict(s.to_dict())`` is bit-identical to ``s``.
        """
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in self._COMPOSITE_FIELDS
        }
        out["latency"] = self.latency.to_dict()
        out["miss"] = self.miss.to_dict()
        out["energy"] = self.energy.to_dict()
        out["inval_histogram"] = self.inval_histogram.to_dict()
        out["evict_histogram"] = self.evict_histogram.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunStats":
        # Tolerant of older serialized runs: scalar counters the mapping
        # predates (e.g. cache entries written before a family's counters
        # existed) keep their defaults, mirroring ProtocolConfig.from_dict.
        kwargs = {
            f.name: data[f.name]
            for f in dataclasses.fields(cls)
            if f.name not in cls._COMPOSITE_FIELDS and f.name in data
        }
        kwargs["latency"] = LatencyBreakdown.from_dict(data["latency"])
        kwargs["miss"] = MissStats.from_dict(data["miss"])
        kwargs["energy"] = EnergyBreakdown.from_dict(data["energy"])
        kwargs["inval_histogram"] = UtilizationHistogram.from_dict(data["inval_histogram"])
        kwargs["evict_histogram"] = UtilizationHistogram.from_dict(data["evict_histogram"])
        return cls(**kwargs)

    def summary(self) -> dict[str, float]:
        """Compact scalar view used by the experiment harness."""
        return {
            "completion_time": self.completion_time,
            "energy": self.energy.total,
            "l1d_miss_rate": self.miss.miss_rate,
            "instructions": self.instructions,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "remote_accesses": self.remote_accesses,
        }
