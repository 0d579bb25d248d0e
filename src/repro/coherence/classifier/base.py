"""Locality classifier core logic (Sections 3.2-3.4, 3.7).

A classifier answers one question per request: *is this core a private or a
remote sharer of this line?* - and maintains the per-core locality state
(mode bit, remote utilization counter, RAT level or timestamps) that drives
promotion (remote -> private) and demotion (private -> remote).

Two axes are configurable and composed here:

* **storage organization** - Complete (state for every core, Section 3.2)
  vs Limited_k (state for k cores + majority vote, Section 3.4); subclasses
  implement ``locality_entry`` / ``tracked_entries``;
* **remote->private policy** - the idealized Timestamp check (Section 3.2)
  vs the multi-level Remote Access Threshold approximation (Section 3.3),
  plus the Adapt1-way ablation that disables promotion entirely
  (Section 3.7).
"""

from __future__ import annotations

from repro.common.params import ProtocolConfig
from repro.common.types import RemovalReason, SharerMode
from repro.mem.l2 import L2Line


class CoreLocality:
    """Locality state the directory keeps for one (line, core) pair.

    Figure 7: core ID, mode bit (P/R), remote utilization counter and
    RAT-level (the RAT level replaces the last-access timestamp of the
    idealized scheme).
    """

    __slots__ = ("core", "mode", "remote_util", "rat_level", "active")

    def __init__(self, core: int, mode: SharerMode = SharerMode.PRIVATE) -> None:
        self.core = core
        self.mode = mode
        self.remote_util = 0
        self.rat_level = 0
        #: An *active* sharer is currently using the line: private sharers
        #: become inactive on invalidation/eviction, remote sharers on a
        #: write by another core.  Inactive entries are the replacement
        #: candidates of the Limited_k classifier.
        self.active = True


class LocalityClassifier:
    """Shared promotion/demotion logic; storage is subclass-specific.

    Slotted: the compiled directory kernel (DESIGN.md section 15) reads the
    configuration once and bumps the counters through the slot offsets.
    """

    __slots__ = (
        "proto",
        "pct",
        "one_way",
        "use_timestamp",
        "_rat_levels",
        "_max_rat_level",
        "promotions",
        "demotions",
        "remote_accesses",
        "vote_decisions",
    )

    def __init__(self, proto: ProtocolConfig) -> None:
        self.proto = proto
        self.pct = proto.pct
        self.one_way = proto.one_way
        self.use_timestamp = proto.remote_policy == "timestamp"
        self._rat_levels = proto.rat_levels()
        self._max_rat_level = len(self._rat_levels) - 1
        # Statistics.
        self.promotions = 0
        self.demotions = 0
        self.remote_accesses = 0
        self.vote_decisions = 0

    # ------------------------------------------------------------------
    # Storage organization hooks (Complete / Limited_k).
    # ------------------------------------------------------------------
    def locality_entry(self, l2line: L2Line, core: int, allocate: bool) -> CoreLocality | None:
        """Return the tracked entry for ``core`` (allocating if requested and
        possible), or None when the core cannot be tracked."""
        raise NotImplementedError

    def tracked_entries(self, l2line: L2Line) -> list[CoreLocality]:
        """All currently tracked entries for the line."""
        raise NotImplementedError

    def storage_bits_per_entry(self, num_cores: int) -> int:
        """Locality-tracking bits per directory entry (Section 3.6 math)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Mode resolution.
    # ------------------------------------------------------------------
    def majority_vote(self, l2line: L2Line) -> SharerMode:
        """Majority vote over tracked modes; ties favour PRIVATE (the
        protocol's initial mode, Figure 4)."""
        entries = self.tracked_entries(l2line)
        if not entries:
            return SharerMode.PRIVATE
        remote = 0
        for e in entries:
            if e.mode is SharerMode.REMOTE:
                remote += 1
        return SharerMode.REMOTE if 2 * remote > len(entries) else SharerMode.PRIVATE

    # ------------------------------------------------------------------
    # Remote access bookkeeping (promotion side).
    # ------------------------------------------------------------------
    def on_remote_access(
        self,
        l2line: L2Line,
        entry: CoreLocality | None,
        l1_min_last_access: float | None,
        l1_has_invalid_way: bool,
    ) -> bool:
        """Update remote utilization for a remote-mode access; return True
        when the core must be *promoted* to a private sharer.

        ``l1_min_last_access``/``l1_has_invalid_way`` are the two pieces of
        L1-set-pressure information that the requester piggybacks on its miss
        request (None means an invalid way exists, so the Timestamp check is
        trivially true).
        """
        self.remote_accesses += 1
        if entry is None or self.one_way:
            # Untracked (vote said remote: no counters to build utilization)
            # or Adapt1-way (remote is a terminal mode).
            return False
        entry.active = True
        if self.use_timestamp:
            check_passed = (
                l1_min_last_access is None or l2line.last_access > l1_min_last_access
            )
            entry.remote_util = entry.remote_util + 1 if check_passed else 1
            threshold = self.pct
        else:
            entry.remote_util += 1
            threshold = self._rat_levels[entry.rat_level]
        promote = entry.remote_util >= threshold or (
            l1_has_invalid_way and entry.remote_util >= self.pct
        )
        if promote:
            entry.mode = SharerMode.PRIVATE
            self.promotions += 1
        return promote

    # ------------------------------------------------------------------
    # Write-induced resets.
    # ------------------------------------------------------------------
    def on_write(self, l2line: L2Line, writer: int) -> None:
        """A write zeroes the remote utilization of every *other* remote
        sharer (they must rebuild utilization) and renders them inactive."""
        for entry in self.tracked_entries(l2line):
            if entry.core != writer and entry.mode is SharerMode.REMOTE:
                entry.remote_util = 0
                entry.active = False

    # ------------------------------------------------------------------
    # Demotion side: L1 copy removed (eviction or invalidation).
    # ------------------------------------------------------------------
    def on_removal(
        self,
        l2line: L2Line,
        core: int,
        private_util: int,
        reason: RemovalReason,
    ) -> SharerMode:
        """Classify ``core`` when its L1 copy is removed.

        The observed utilization is private + remote utilization (the line
        would not have been evicted/invalidated earlier had it been cached
        when its remote utilization was last reset - Section 3.2).
        """
        entry = self.locality_entry(l2line, core, allocate=True)
        if entry is None:
            # Limited_k with no free/replaceable slot: classification is lost.
            return SharerMode.PRIVATE if private_util >= self.pct else SharerMode.REMOTE
        total = private_util + (0 if self.one_way else entry.remote_util)
        new_mode = SharerMode.PRIVATE if total >= self.pct else SharerMode.REMOTE
        if self.one_way and entry.mode is SharerMode.REMOTE:
            new_mode = SharerMode.REMOTE  # one-way: remote is terminal
        if not self.use_timestamp and not self.one_way:
            # RAT dynamics (Section 3.3): eviction-demotions raise the
            # threshold (cache-set pressure); invalidation-demotions keep it;
            # a private classification resets it so the core can re-learn.
            if new_mode is SharerMode.PRIVATE:
                entry.rat_level = 0
            elif reason is RemovalReason.EVICTION and entry.rat_level < self._max_rat_level:
                entry.rat_level += 1
        if new_mode is SharerMode.REMOTE and entry.mode is SharerMode.PRIVATE:
            self.demotions += 1
        entry.mode = new_mode
        entry.remote_util = 0
        entry.active = False
        return new_mode

    # ------------------------------------------------------------------
    def note_private_grant(self, l2line: L2Line, core: int) -> None:
        """A private copy was handed out: the core is an active private sharer.

        Under Adapt1-way (Section 3.7) remote is a terminal mode, so a
        demoted core's mode bit is never rewritten - the engine never grants
        such a core a private copy anyway, this just keeps the state machine
        airtight.
        """
        entry = self.locality_entry(l2line, core, allocate=True)
        if entry is None:
            return
        if self.one_way and entry.mode is SharerMode.REMOTE:
            return
        entry.mode = SharerMode.PRIVATE
        entry.active = True
