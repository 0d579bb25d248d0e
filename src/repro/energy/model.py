"""Dynamic energy accounting for the memory system (Section 4.2).

The paper evaluates *dynamic* energy of the memory system only - L1-I, L1-D,
L2 (with integrated directory) and the network routers/links - using McPAT
(caches) and DSENT (network) at the 11 nm node.  We reproduce the accounting
structure: the simulator counts events, and this model converts event counts
into per-component energies using the ``EnergyConfig`` constants.

Two modelling points from the paper are preserved:

* the L2 is word-addressable, so a remote word access is charged a word read/
  write (~4x cheaper than a line access);
* at 11 nm network links consume more energy than routers per flit, so
  link energy dominates in network-bound workloads (Section 5.1.1).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.params import EnergyConfig
from repro.network.mesh import MeshNetwork


class EnergyCounters:
    """Raw event counts accumulated by the protocol engine."""

    __slots__ = (
        "l1i_reads",
        "l1d_reads",
        "l1d_writes",
        "l1d_tag_accesses",
        "l1d_line_fills",
        "l1d_line_reads",
        "l2_word_reads",
        "l2_word_writes",
        "l2_line_reads",
        "l2_line_writes",
        "l2_tag_accesses",
        "directory_lookups",
        "directory_updates",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component dynamic energy in pJ (the Figure 8 stack)."""

    l1i: float = 0.0
    l1d: float = 0.0
    l2: float = 0.0
    directory: float = 0.0
    router: float = 0.0
    link: float = 0.0

    @property
    def total(self) -> float:
        return self.l1i + self.l1d + self.l2 + self.directory + self.router + self.link

    def to_dict(self) -> dict[str, float]:
        """Field-only mapping that round-trips exactly through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyBreakdown":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class EnergyModel:
    """Converts event counts into an ``EnergyBreakdown``."""

    config: EnergyConfig = field(default_factory=EnergyConfig)

    def breakdown(self, counters: EnergyCounters, network: MeshNetwork) -> EnergyBreakdown:
        cfg = self.config
        l1i = counters.l1i_reads * cfg.l1i_read
        l1d = (
            counters.l1d_reads * cfg.l1d_read
            + counters.l1d_writes * cfg.l1d_write
            + counters.l1d_tag_accesses * cfg.l1d_tag
            + counters.l1d_line_fills * cfg.l1d_line_fill
            + counters.l1d_line_reads * cfg.l1d_line_read
        )
        l2 = (
            counters.l2_word_reads * cfg.l2_word_read
            + counters.l2_word_writes * cfg.l2_word_write
            + counters.l2_line_reads * cfg.l2_line_read
            + counters.l2_line_writes * cfg.l2_line_write
            + counters.l2_tag_accesses * cfg.l2_tag
        )
        directory = (
            counters.directory_lookups * cfg.directory_lookup
            + counters.directory_updates * cfg.directory_update
        )
        router = network.router_flit_traversals * cfg.router_per_flit
        link = network.link_flit_traversals * cfg.link_per_flit
        return EnergyBreakdown(
            l1i=l1i, l1d=l1d, l2=l2, directory=directory, router=router, link=link
        )
