"""Limited_k locality classifier (Section 3.4 / Figure 7).

Maintains locality state for at most ``k`` cores per directory entry and
classifies untracked cores by a majority vote of the tracked modes:

* if the core is already tracked, its entry is used;
* else if a free slot exists, the core is allocated one in the initial
  (Private) mode;
* else if an *inactive* sharer exists (a private sharer that was
  invalidated/evicted, or a remote sharer that another core wrote over), its
  slot is reallocated and the newcomer starts in the majority-vote mode -
  its "most probable" mode;
* else the majority vote alone decides and the list is left unchanged (the
  newcomer builds no utilization and therefore can never be promoted while
  untracked).

With the default k=3 this classifier matches - and occasionally beats - the
Complete classifier (Section 5.3): inheriting the majority mode skips the
per-sharer learning phase.
"""

from __future__ import annotations

import math

from repro.coherence.classifier.base import CoreLocality, LocalityClassifier
from repro.common.params import ProtocolConfig
from repro.common.types import SharerMode
from repro.mem.l2 import L2Line


class LimitedClassifier(LocalityClassifier):
    """Locality state for at most k cores per directory entry."""

    name = "limited"

    __slots__ = ("k", "replacements", "allocation_failures")

    def __init__(self, proto: ProtocolConfig) -> None:
        super().__init__(proto)
        self.k = proto.limited_k
        # Statistics.
        self.replacements = 0
        self.allocation_failures = 0

    def locality_entry(self, l2line: L2Line, core: int, allocate: bool) -> CoreLocality | None:
        # Tracked entries live in an insertion-ordered {core: entry} dict:
        # the common "already tracked" case is one hash probe instead of a
        # k-entry scan, and insertion order still gives the same
        # replacement/vote semantics as the list it replaces.
        entries: dict[int, CoreLocality] | None = l2line.locality
        if entries is None:
            if not allocate:
                return None
            entries = {}
            l2line.locality = entries
        entry = entries.get(core)
        if entry is not None:
            return entry
        if not allocate:
            return None
        if len(entries) < self.k:
            entry = CoreLocality(core)  # free slot: start in the initial mode
            entries[core] = entry
            return entry
        replacement = next((e for e in entries.values() if not e.active), None)
        if replacement is None:
            self.allocation_failures += 1
            return None
        # Start the newcomer in its most probable mode (majority vote of the
        # tracked cores *before* replacement).
        vote = self.majority_vote(l2line)
        del entries[replacement.core]
        entry = CoreLocality(core, mode=vote)
        entries[core] = entry
        self.replacements += 1
        return entry

    def tracked_entries(self, l2line: L2Line):
        # A live view, not a copy: callers only iterate (hot path).
        entries = l2line.locality
        return entries.values() if entries is not None else ()

    def storage_bits_per_entry(self, num_cores: int) -> int:
        """k x (core ID + mode + remote utilization + RAT-level) bits.

        Section 3.6: 12 bits per tracked core at the default parameters
        (6 core-ID + 1 mode + 4 remote-utilization + 1 RAT-level), i.e. 36
        bits per entry for Limited_3 at 64 cores.
        """
        core_id_bits = max(1, (num_cores - 1).bit_length())
        util_bits = max(1, math.ceil(math.log2(self.proto.rat_max)))
        rat_bits = max(1, math.ceil(math.log2(max(2, self.proto.n_rat_levels))))
        return self.k * (core_id_bits + 1 + util_bits + rat_bits)


def make_classifier(proto: ProtocolConfig) -> LocalityClassifier:
    """Instantiate the configured classifier storage organization."""
    from repro.coherence.classifier.complete import CompleteClassifier

    if proto.classifier == "complete":
        return CompleteClassifier(proto)
    return LimitedClassifier(proto)


__all__ = ["LimitedClassifier", "SharerMode", "make_classifier"]
