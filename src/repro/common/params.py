"""Configuration dataclasses mirroring Table 1 of the paper.

``ArchConfig`` describes the hardware substrate (cores, caches, mesh, DRAM),
``ProtocolConfig`` the coherence/classifier options of Sections 3.2-3.7, and
``EnergyConfig`` the per-event dynamic energies used by the DSENT/McPAT-like
energy model (Section 4.2).

All defaults reproduce the paper's evaluated configuration:
64 cores @ 1 GHz, L1-I 16KB/4-way, L1-D 32KB/4-way, L2 256KB/8-way slices,
ACKwise_4, PCT=4, RATmax=16, nRATlevels=2, Limited_3 classifier.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.common import addr as addrmod
from repro.common.errors import ConfigError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/latency of one cache level."""

    size_kb: int
    associativity: int
    latency: int  # access latency in cycles
    line_size: int = addrmod.LINE_SIZE

    def __post_init__(self) -> None:
        if self.size_kb <= 0:
            raise ConfigError(f"cache size must be positive, got {self.size_kb}KB")
        if self.associativity <= 0:
            raise ConfigError(f"associativity must be positive, got {self.associativity}")
        if self.latency < 0:
            raise ConfigError(f"latency must be non-negative, got {self.latency}")
        if not _is_power_of_two(self.num_sets):
            raise ConfigError(
                f"cache geometry {self.size_kb}KB/{self.associativity}-way yields "
                f"{self.num_sets} sets (must be a power of two)"
            )

    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips through :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CacheGeometry":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})

    @property
    def num_lines(self) -> int:
        return self.size_kb * 1024 // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def set_mask(self) -> int:
        return self.num_sets - 1


def _default_memory_controller_tiles(num_cores: int, num_controllers: int) -> tuple[int, ...]:
    """Spread memory controllers evenly over the tiles (top and bottom rows).

    The paper attaches 8 controllers to a 64-core mesh but does not specify
    placement; we alternate columns of the first and last mesh rows, a common
    arrangement for edge-attached controllers.
    """
    width = int(math.isqrt(num_cores))
    if width * width == num_cores and num_controllers <= 2 * width:
        top = [c for c in range(1, width, 2)]
        bottom = [num_cores - width + c for c in range(0, width, 2)]
        tiles = []
        for pair in zip(top, bottom):
            tiles.extend(pair)
        tiles.extend(top[len(tiles) // 2:])
        chosen = tuple(sorted(tiles[:num_controllers]))
        if len(chosen) == num_controllers:
            return chosen
    # Fallback: evenly spaced tile ids.
    step = max(1, num_cores // num_controllers)
    return tuple(sorted((i * step) % num_cores for i in range(num_controllers)))


@dataclass(frozen=True)
class ArchConfig:
    """Hardware substrate parameters (Table 1)."""

    num_cores: int = 64
    frequency_ghz: float = 1.0

    l1i: CacheGeometry = field(default_factory=lambda: CacheGeometry(16, 4, 1))
    l1d: CacheGeometry = field(default_factory=lambda: CacheGeometry(32, 4, 1))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(256, 8, 7))

    line_size: int = addrmod.LINE_SIZE
    word_size: int = addrmod.WORD_SIZE
    page_size: int = addrmod.DEFAULT_PAGE_SIZE

    # Electrical 2-D mesh with XY routing (Table 1).
    hop_latency: int = 2  # 1 router + 1 link cycle per hop
    flit_bits: int = 64
    header_flits: int = 1
    #: Link-contention model: "epoch" (default; per-epoch bandwidth
    #: accounting, DESIGN.md decision 6), "naive" (single next-free-time
    #: high-water mark per link - the ablation showing why epoch accounting
    #: is needed) or "none" (infinite bandwidth: pure hop latency).
    link_model: str = "epoch"

    # Off-chip memory.
    num_memory_controllers: int = 8
    dram_latency_cycles: int = 100  # 100 ns @ 1 GHz
    dram_bandwidth_bytes_per_cycle: float = 5.0  # 5 GBps per controller @ 1 GHz
    memory_controller_tiles: tuple[int, ...] = ()

    # Directory.
    ackwise_pointers: int = 4

    # R-NUCA instruction replication cluster size.
    instruction_cluster_size: int = 4

    # Synchronization primitive costs (cycles).  Barriers/locks are modeled
    # as abstract primitives with fixed service latencies plus queueing;
    # their waiting time feeds the "Synchronization" component of Figure 9.
    barrier_latency: int = 50
    lock_latency: int = 10

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError(f"num_cores must be positive, got {self.num_cores}")
        width = int(math.isqrt(self.num_cores))
        if width * width != self.num_cores:
            raise ConfigError(
                f"num_cores must be a perfect square for the 2-D mesh, got {self.num_cores}"
            )
        if self.num_memory_controllers <= 0:
            raise ConfigError("need at least one memory controller")
        if self.num_memory_controllers > self.num_cores:
            raise ConfigError("more memory controllers than tiles")
        if self.ackwise_pointers < 1:
            raise ConfigError("ACKwise needs at least one hardware pointer")
        if self.instruction_cluster_size < 1 or self.num_cores % self.instruction_cluster_size:
            raise ConfigError(
                "instruction_cluster_size must divide num_cores "
                f"({self.instruction_cluster_size} vs {self.num_cores})"
            )
        if not self.memory_controller_tiles:
            object.__setattr__(
                self,
                "memory_controller_tiles",
                _default_memory_controller_tiles(self.num_cores, self.num_memory_controllers),
            )
        if len(self.memory_controller_tiles) != self.num_memory_controllers:
            raise ConfigError(
                f"{self.num_memory_controllers} controllers but "
                f"{len(self.memory_controller_tiles)} controller tiles"
            )
        for tile in self.memory_controller_tiles:
            if not 0 <= tile < self.num_cores:
                raise ConfigError(f"memory controller tile {tile} out of range")
        if self.link_model not in ("epoch", "naive", "none"):
            raise ConfigError(f"unknown link_model {self.link_model!r}")
        # The mesh kernels advance an integer shadow clock by the hop latency.
        hop = self.hop_latency
        if isinstance(hop, bool) or not isinstance(hop, int) or hop < 1:
            raise ConfigError(f"hop_latency must be an integer >= 1, got {hop!r}")

    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips through :meth:`from_dict`.

        ``__post_init__`` fills ``memory_controller_tiles`` when empty, so the
        serialized form is always fully resolved: two configs hash equal iff
        they describe the same hardware.
        """
        data = dataclasses.asdict(self)
        data["memory_controller_tiles"] = list(self.memory_controller_tiles)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ArchConfig":
        kwargs = {f.name: data[f.name] for f in dataclasses.fields(cls)}
        for level in ("l1i", "l1d", "l2"):
            kwargs[level] = CacheGeometry.from_dict(kwargs[level])
        kwargs["memory_controller_tiles"] = tuple(kwargs["memory_controller_tiles"])
        return cls(**kwargs)

    @property
    def mesh_width(self) -> int:
        return int(math.isqrt(self.num_cores))

    @property
    def words_per_line(self) -> int:
        return self.line_size // self.word_size

    @property
    def line_flits(self) -> int:
        """Payload flits for a full cache line (8 for 64B lines, 64-bit flits)."""
        return self.line_size * 8 // self.flit_bits

    @property
    def word_flits(self) -> int:
        """Payload flits for a single word (1 for 64-bit words and flits)."""
        return self.word_size * 8 // self.flit_bits

    def controller_for_line(self, line: int) -> int:
        """Tile id of the memory controller owning cache line ``line``.

        Lines are interleaved across controllers (common practice; the paper
        does not specify the mapping).
        """
        return self.memory_controller_tiles[line % self.num_memory_controllers]


#: Every selectable coherence protocol family, in presentation order.
PROTOCOL_NAMES: tuple[str, ...] = ("baseline", "adaptive", "victim", "dls", "neat", "phase")

#: Families that keep no sharer-tracking directory at the home.
DIRECTORYLESS_PROTOCOLS: frozenset[str] = frozenset({"dls", "neat"})

#: Canonical values pinned onto directoryless configs: the PCT/classifier
#: knobs are inert for these families, so they are normalized away to keep
#: equality and job content-hashing canonical - two configs that describe
#: the same machine must hash the same.
_DIRECTORYLESS_CANONICAL: dict[str, object] = {
    "pct": 1,
    "classifier": "limited",
    "limited_k": 3,
    "remote_policy": "rat",
    "rat_max": 16,
    "n_rat_levels": 2,
    "one_way": False,
    "complete_vote_init": False,
    "directory": "none",
}

#: Canonical values pinned onto ``protocol="phase"`` configs: the phase
#: protocol keeps a sharer-tracking directory (``directory`` stays
#: selectable) but replaces the utilization classifier with per-line phase
#: tracking, so the PCT/classifier knobs are inert and normalized away.
_PHASE_CANONICAL: dict[str, object] = {
    "pct": 1,
    "classifier": "limited",
    "limited_k": 3,
    "remote_policy": "rat",
    "rat_max": 16,
    "n_rat_levels": 2,
    "one_way": False,
    "complete_vote_init": False,
}


@dataclass(frozen=True)
class ProtocolConfig:
    """Coherence protocol + locality classifier options (Sections 3.2-3.7).

    Beyond the paper's own families, two comparison baselines from related
    work (PAPERS.md) are first-class protocols: "dls" (directoryless shared
    LLC - every access is a word access at the home slice) and "neat"
    (self-invalidation/self-downgrade coherence without sharer tracking).
    Both are directoryless: ``directory`` is normalized to "none" and the
    classifier options are inert for them.
    """

    #: "baseline" = plain directory protocol (everything private; the paper's
    #: PCT=1 anchor). "adaptive" = the locality-aware protocol. "victim" =
    #: the Victim Replication comparison point (Section 2.1): baseline
    #: directory protocol + local-L2 victim caching of L1 evictions.
    #: "dls" / "neat" = the related-work comparison baselines above.
    #: "phase" = phase-priority directory coherence (arXiv 1305.3038): the
    #: directory machinery of "baseline" with a per-line access-phase
    #: classifier choosing between private line grants and word service.
    protocol: str = "adaptive"

    #: Private Caching Threshold (Section 3.5). Utilization >= pct keeps a
    #: core a private sharer; below it the core is demoted to remote.
    pct: int = 4

    #: "limited" = Limited_k classifier (Section 3.4); "complete" = Complete.
    classifier: str = "limited"
    limited_k: int = 3

    #: "rat" = multi-level Remote Access Threshold approximation (Section 3.3);
    #: "timestamp" = idealized Timestamp-check classification (Section 3.2).
    remote_policy: str = "rat"
    rat_max: int = 16
    n_rat_levels: int = 2

    #: Adapt1-way (Section 3.7): demotion only, promotion disabled.
    one_way: bool = False

    #: Learning short-cut for the Complete classifier (Section 5.3 remark):
    #: start newly-tracked cores in the majority-vote mode of the already
    #: tracked cores instead of the initial Private mode.  The Limited_k
    #: classifier always does this when reallocating a slot.
    complete_vote_init: bool = False

    #: Sharer-tracking directory: "ackwise" (default), "fullmap", or "none"
    #: (forced for - and only valid with - the directoryless families).
    directory: str = "ackwise"

    #: Neat self-downgrade policy: "eager" writes every store through to the
    #: home immediately (the conservative endpoint modeled since PR 2);
    #: "release" buffers dirty words in the writer's L1 and flushes them in
    #: one batched line message per release boundary (unlock/barrier), the
    #: published Neat behaviour.  Inert - and normalized to "eager" - for
    #: every other protocol family.
    neat_downgrade: str = "eager"

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.directory not in ("ackwise", "fullmap", "none"):
            raise ConfigError(f"unknown directory {self.directory!r}")
        if self.pct < 1:
            raise ConfigError(f"pct must be >= 1, got {self.pct}")
        if self.classifier not in ("limited", "complete"):
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.limited_k < 1:
            raise ConfigError(f"limited_k must be >= 1, got {self.limited_k}")
        if self.remote_policy not in ("rat", "timestamp"):
            raise ConfigError(f"unknown remote_policy {self.remote_policy!r}")
        if self.rat_max < self.pct:
            raise ConfigError(
                f"rat_max ({self.rat_max}) must be >= pct ({self.pct})"
            )
        if self.n_rat_levels < 1:
            raise ConfigError(f"n_rat_levels must be >= 1, got {self.n_rat_levels}")
        if self.directory == "none" and self.protocol not in DIRECTORYLESS_PROTOCOLS:
            raise ConfigError(
                f"protocol {self.protocol!r} requires a sharer-tracking directory"
            )
        if self.neat_downgrade not in ("eager", "release"):
            raise ConfigError(f"unknown neat_downgrade {self.neat_downgrade!r}")
        if self.protocol != "neat" and self.neat_downgrade != "eager":
            # Inert knob for every non-Neat family: normalize so equivalent
            # configs share one job content hash.
            object.__setattr__(self, "neat_downgrade", "eager")
        if self.protocol in DIRECTORYLESS_PROTOCOLS:
            # Validated above, now normalized: the PCT/classifier knobs (and
            # the absent directory) are inert for directoryless families, so
            # pin them - ProtocolConfig(protocol="dls") == dls_protocol(),
            # and equivalent configs share one job content hash.
            for name, value in _DIRECTORYLESS_CANONICAL.items():
                object.__setattr__(self, name, value)
        elif self.protocol == "phase":
            # Phase-priority coherence classifies by per-line access phase,
            # not by utilization: the classifier knobs are inert, the
            # directory choice (ackwise/fullmap) stays live.
            for name, value in _PHASE_CANONICAL.items():
                object.__setattr__(self, name, value)

    @property
    def is_adaptive(self) -> bool:
        return self.protocol == "adaptive"

    def rat_levels(self) -> tuple[int, ...]:
        """Remote Access Threshold ladder (Section 3.3).

        RAT is additively increased in equal steps from PCT to RATmax, the
        number of steps being ``n_rat_levels - 1``.  With a single level the
        threshold is pinned at PCT.
        """
        if self.n_rat_levels == 1:
            return (self.pct,)
        span = self.rat_max - self.pct
        steps = self.n_rat_levels - 1
        return tuple(self.pct + round(span * i / steps) for i in range(self.n_rat_levels))

    def replaced(self, **changes) -> "ProtocolConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps).

        Switching a directoryless config back to a directory family would
        carry the pinned ``directory="none"`` into a config that rejects
        it, so the directory reverts to the default unless the caller
        chooses one explicitly.
        """
        target = changes.get("protocol", self.protocol)
        if (
            "directory" not in changes
            and self.directory == "none"
            and target not in DIRECTORYLESS_PROTOCOLS
        ):
            changes["directory"] = "ackwise"
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips through :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        """Rebuild from a mapping; fields the mapping predates (older
        serialized configs, e.g. pre-``neat_downgrade`` test fixtures) keep
        their defaults."""
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in data:
                kwargs[f.name] = data[f.name]
        return cls(**kwargs)


#: Baseline configuration used as the normalization anchor in every figure.
def baseline_protocol(directory: str = "ackwise") -> ProtocolConfig:
    """The paper's baseline: R-NUCA + ACKwise_4 directory protocol (PCT=1)."""
    return ProtocolConfig(protocol="baseline", pct=1, directory=directory)


def victim_replication_protocol(directory: str = "ackwise") -> ProtocolConfig:
    """Victim Replication (Section 2.1): baseline directory + local-slice
    victim caching of L1 evictions."""
    return ProtocolConfig(protocol="victim", pct=1, directory=directory)


def dls_protocol() -> ProtocolConfig:
    """DLS comparison baseline (PAPERS.md): directoryless shared LLC.

    Every access is a word-granularity access at the R-NUCA home slice; no
    private caching, no sharer tracking, no invalidations."""
    return ProtocolConfig(protocol="dls", pct=1, directory="none")


def phase_protocol(directory: str = "ackwise") -> ProtocolConfig:
    """Phase-priority directory coherence (PAPERS.md, arXiv 1305.3038).

    A directory protocol whose service policy follows the line's current
    access *phase*: lines in a write-shared phase are pinned at the home and
    serviced with word accesses (reads and writes), read-shared and private
    phases hand out private copies as usual.  Phases decay back toward
    private across release epochs."""
    return ProtocolConfig(protocol="phase", pct=1, directory=directory)


def neat_protocol(downgrade: str = "eager") -> ProtocolConfig:
    """Neat comparison baseline (PAPERS.md): self-invalidation/self-downgrade
    coherence without sharer tracking.

    ``downgrade="eager"`` writes every store through to the home;
    ``downgrade="release"`` buffers dirty words and self-downgrades them in
    one batched message per line at release boundaries (unlock/barrier).
    Clean read copies self-invalidate when the line is written (flushed, in
    release mode) by another core."""
    return ProtocolConfig(protocol="neat", pct=1, directory="none", neat_downgrade=downgrade)


# The evaluation convention, shared by the figure harness and `repro sweep`
# so a point of either reuses the other's cached results.
#: The Figure 11 PCT grid (the widest sweep in the paper).
FIGURE11_PCTS: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20)


def bench_arch(num_cores: int = 64) -> ArchConfig:
    """The evaluation system: Table 1 with capacity-scaled caches (DESIGN.md
    section 2: L1-I 4KB, L1-D 8KB, L2 64KB per slice, all else verbatim)."""
    return ArchConfig(
        num_cores=num_cores,
        l1i=CacheGeometry(4, 4, 1),
        l1d=CacheGeometry(8, 4, 1),
        l2=CacheGeometry(64, 8, 7),
    )


def adaptive_protocol(pct: int = 4, **overrides) -> ProtocolConfig:
    """The paper's default adaptive configuration at a given PCT.

    The RAT ladder starts at PCT (Section 3.3), so for sweep points beyond
    the default RATmax of 16 (Figure 11 reaches PCT=20) the ceiling follows
    PCT unless explicitly overridden.
    """
    params = dict(
        protocol="adaptive",
        pct=pct,
        classifier="limited",
        limited_k=3,
        remote_policy="rat",
        rat_max=max(16, pct),
        n_rat_levels=2,
    )
    params.update(overrides)
    return ProtocolConfig(**params)


def protocol_for_pct(pct: int, **overrides) -> ProtocolConfig:
    """PCT sweep convention: PCT=1 *is* the baseline directory protocol."""
    if pct <= 1 and not overrides:
        return baseline_protocol()
    return adaptive_protocol(pct, **overrides)


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event dynamic energies in pJ (11 nm, DSENT/McPAT-flavoured).

    Only *relative* magnitudes matter for reproducing the paper's shapes:

    * network links cost more than routers per flit (poor wire scaling,
      Section 5.1.1);
    * an L2 line access costs ~4x an L2 word access (word-addressable L2,
      Section 4.2);
    * L1 accesses are cheap relative to L2 accesses;
    * directory energy is negligible (Section 5.1.1).
    """

    l1i_read: float = 1.0
    l1i_fill: float = 4.0

    l1d_read: float = 1.6
    l1d_write: float = 1.9
    l1d_tag: float = 0.3
    l1d_line_fill: float = 5.2  # write a full 64B line into the data array
    l1d_line_read: float = 4.6  # read a full line out (write-back)

    l2_word_read: float = 3.2
    l2_word_write: float = 3.5
    l2_line_read: float = 12.8
    l2_line_write: float = 13.6
    l2_tag: float = 0.5

    directory_lookup: float = 0.7
    directory_update: float = 0.8

    router_per_flit: float = 0.55
    link_per_flit: float = 1.15

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"energy {f.name} must be non-negative")

    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips through :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyConfig":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})
