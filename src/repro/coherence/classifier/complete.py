"""Complete locality classifier (Section 3.2 / Figure 6).

Tracks locality information for *every* core in each directory entry.  This
is the accuracy reference for the Limited_k classifier, at a storage cost of
60% over baseline at 64 cores (and >10x at 1024 cores) - Section 3.6.

Per-core state is materialized lazily: a core that never touched a line is
indistinguishable from one tracked in the initial state (Private mode, zero
remote utilization, RAT level 0), so the dense hardware table is represented
sparsely without behavioural difference.

Section 5.3 notes that the Limited_k classifier sometimes *beats* Complete
because it starts newly-tracked sharers in the majority-vote mode, skipping
the per-sharer learning phase, and remarks that "the Complete locality
classifier can also be equipped with such a learning short-cut".  The
``complete_vote_init`` protocol option implements exactly that remark; the
vote-init ablation bench measures what it buys.
"""

from __future__ import annotations

import math

from repro.coherence.classifier.base import CoreLocality, LocalityClassifier
from repro.mem.l2 import L2Line


class CompleteClassifier(LocalityClassifier):
    """Locality state for all cores at every directory entry."""

    name = "complete"

    __slots__ = ()

    def locality_entry(self, l2line: L2Line, core: int, allocate: bool) -> CoreLocality | None:
        table: dict[int, CoreLocality] | None = l2line.locality
        if table is None:
            if not allocate:
                return None
            table = {}
            l2line.locality = table
        entry = table.get(core)
        if entry is None and allocate:
            if self.proto.complete_vote_init and table:
                entry = CoreLocality(core, mode=self.majority_vote(l2line))
                self.vote_decisions += 1
            else:
                entry = CoreLocality(core)
            table[core] = entry
        return entry

    def tracked_entries(self, l2line: L2Line) -> list[CoreLocality]:
        table = l2line.locality
        return list(table.values()) if table else []

    def storage_bits_per_entry(self, num_cores: int) -> int:
        """num_cores x (mode + remote-utilization + RAT-level) bits.

        Section 3.6 counts 6 bits per core at the default parameters
        (1 mode + 4 remote utilization for RATmax=16 + 1 RAT-level for
        2 levels), i.e. 384 bits per entry at 64 cores.
        """
        util_bits = max(1, math.ceil(math.log2(self.proto.rat_max)))
        rat_bits = max(1, math.ceil(math.log2(max(2, self.proto.n_rat_levels))))
        return num_cores * (1 + util_bits + rat_bits)
