"""Shared L2 slice with integrated directory state.

Each tile owns one slice of the logically shared, physically distributed L2
(Section 3.1).  The directory is integrated with the L2 slice by extending
the tag array (Figure 6), so every resident L2 line carries:

* its sharer-tracking directory entry (ACKwise pointers / full map),
* its locality-classifier state (mode, remote utilization, RAT level or
  last-access timestamp, per tracked core),
* a ``busy_until`` reservation implementing the paper's "L2 cache waiting
  time": requests to the same cache line must be serialized to ensure
  memory consistency.
"""

from __future__ import annotations

from repro.common.params import CacheGeometry
from repro.mem.cache import SetAssocCache


class L2Line:
    """One line in an L2 slice plus its integrated directory entry."""

    __slots__ = (
        "last_use",
        "last_access",
        "dirty",
        "dirty_words",
        "data",
        "directory",
        "locality",
        "busy_until",
        "is_replica",
    )

    def __init__(self) -> None:
        self.last_use = 0  # LRU counter
        self.last_access = 0.0  # last-access timestamp (Timestamp scheme)
        self.dirty = False  # needs write-back to memory on eviction
        #: Bitmask of words written *at this slice* by word-granularity
        #: service.  DLS's word-interleaved LLC uses it to write back only
        #: the words this slice is home to (other words of its copy may be
        #: stale replicas of words homed elsewhere).
        self.dirty_words = 0
        self.data: list[int] | None = None  # word values (verify mode)
        self.directory = None  # sharer-tracking entry (set by the directory)
        self.locality = None  # classifier state (set by the classifier)
        self.busy_until = 0.0  # per-line serialization point
        #: Victim-replication: True when this entry is a local *replica* of a
        #: line whose home is another slice (no directory state of its own).
        self.is_replica = False


class L2Slice:
    """One tile's slice of the distributed shared L2 cache.

    Slotted: the compiled home kernel (DESIGN.md section 15) updates the
    hit, miss and word counters through the slot offsets.
    """

    __slots__ = (
        "geometry",
        "store",
        "keep_data",
        "hits",
        "misses",
        "word_reads",
        "word_writes",
        "line_reads",
        "line_writes",
    )

    def __init__(self, geometry: CacheGeometry, keep_data: bool = False) -> None:
        self.geometry = geometry
        self.store = SetAssocCache(geometry)
        self.keep_data = keep_data
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.word_reads = 0
        self.word_writes = 0
        self.line_reads = 0
        self.line_writes = 0

    # ------------------------------------------------------------------
    def lookup(self, line: int) -> L2Line | None:
        return self.store.get(line)

    def touch(self, entry: L2Line, now: float) -> None:
        self.store.touch(entry)
        entry.last_access = now

    def fill(self, line: int, now: float, data: list[int] | None = None) -> tuple[int, L2Line] | None:
        """Install ``line``; return the evicted (line, entry) if any.

        The caller must handle the victim *before* the fill logically
        completes: the L2 is inclusive, so evicting an L2 line forces
        invalidation of all its L1 copies (handled by the protocol engine).
        """
        entry = L2Line()
        entry.last_access = now
        if self.keep_data:
            entry.data = list(data) if data is not None else None
        return self.store.insert(line, entry)

    def remove(self, line: int) -> L2Line | None:
        return self.store.pop(line)

    def victim(self, line: int) -> tuple[int, L2Line] | None:
        """Preview the line that a fill would evict (None if a way is free)."""
        return self.store.victim(line)

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses
