"""Generic set-associative cache with LRU replacement.

This is the hot path of the simulator: lines are stored per-set in small
dicts keyed by the *full line number* (the set index is derived from the line
number, so keys never collide across sets) and replacement uses a global
monotonic use-counter per cache, which makes LRU selection an O(associativity)
scan of at most 8 ways.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.common.params import CacheGeometry
from repro.common.types import MESIState


class CacheLine:
    """One L1 line: MESI state + the paper's locality-tracking tag extensions.

    Figure 5: each L1 tag is extended with a private utilization counter and
    (for the Timestamp classification scheme) a last-access timestamp.
    """

    __slots__ = ("state", "last_use", "last_access", "utilization", "data")

    def __init__(self, state: MESIState = MESIState.INVALID) -> None:
        self.state = state
        self.last_use = 0  # LRU replacement counter
        self.last_access = 0.0  # last-access timestamp (Timestamp scheme)
        self.utilization = 0  # private utilization counter
        self.data: list[int] | None = None  # word values (verify mode only)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(state={MESIState(self.state).name}, util={self.utilization}, "
            f"last_use={self.last_use})"
        )


class SetAssocCache:
    """Set-associative cache indexed by line number with LRU replacement.

    ``_observer`` is the membership hook of the compiled scheduler kernel
    (DESIGN.md section 14): while a ``SchedKernel`` mirrors this cache's
    buckets in its native (core, line) map, every resident-set change must
    reach it - ``obs(0, line, entry)`` after an insert (including the
    internal victim eviction, reported first as ``obs(1, victim_line,
    None)``), ``obs(1, line, None)`` for a pop that removed something, and
    ``obs(2, -1, None)`` for a clear.  ``touch`` needs no hook: membership
    is unchanged and the LRU counter is reconciled by the kernel's
    counter-replay flush.  Default None; the attribute test costs one
    slot load on the miss path and nothing on hits.

    Slotted: the compiled home kernel (DESIGN.md section 15) reads
    ``_sets`` and ``_observer`` and bumps ``_use_counter`` through the
    slot offsets, on this object, keeping no copy.
    """

    __slots__ = (
        "geometry",
        "num_sets",
        "associativity",
        "_set_mask",
        "_sets",
        "_use_counter",
        "_observer",
    )

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.associativity = geometry.associativity
        self._set_mask = geometry.set_mask
        self._sets: list[dict[int, object]] = [dict() for _ in range(self.num_sets)]
        self._use_counter = 0
        self._observer = None

    # ------------------------------------------------------------------
    def set_index(self, line: int) -> int:
        return line & self._set_mask

    def get(self, line: int):
        """Return the resident object for ``line`` or None. Does NOT touch LRU."""
        return self._sets[line & self._set_mask].get(line)

    def touch(self, entry) -> None:
        """Mark ``entry`` most-recently-used."""
        self._use_counter += 1
        entry.last_use = self._use_counter

    def has_free_way(self, line: int) -> bool:
        """True if the set that ``line`` maps to has an invalid (free) way."""
        return len(self._sets[line & self._set_mask]) < self.associativity

    def victim(self, line: int) -> tuple[int, object] | None:
        """Return the LRU (line, entry) that would be evicted to make room
        for ``line``, or None if a free way exists."""
        bucket = self._sets[line & self._set_mask]
        if len(bucket) < self.associativity:
            return None
        victim_line = min(bucket, key=lambda ln: bucket[ln].last_use)
        return victim_line, bucket[victim_line]

    def insert(self, line: int, entry) -> tuple[int, object] | None:
        """Insert ``entry`` for ``line``; return the evicted (line, entry) if any.

        The caller is responsible for handling the victim (write-back,
        directory notification) *before* reusing the way; this method simply
        performs the replacement bookkeeping.
        """
        bucket = self._sets[line & self._set_mask]
        evicted = None
        if line not in bucket and len(bucket) >= self.associativity:
            victim_line = min(bucket, key=lambda ln: bucket[ln].last_use)
            evicted = (victim_line, bucket.pop(victim_line))
        self._use_counter += 1
        entry.last_use = self._use_counter
        bucket[line] = entry
        obs = self._observer
        if obs is not None:
            if evicted is not None:
                obs(1, evicted[0], None)
            obs(0, line, entry)
        return evicted

    def pop(self, line: int):
        """Remove and return the entry for ``line`` (None if absent)."""
        entry = self._sets[line & self._set_mask].pop(line, None)
        if entry is not None:
            obs = self._observer
            if obs is not None:
                obs(1, line, None)
        return entry

    def min_last_access(self, line: int) -> float | None:
        """Minimum last-access timestamp over valid lines in ``line``'s set.

        Used by the Timestamp check (Section 3.2): the directory compares the
        home line's last access against this minimum.  Returns None when the
        set has an invalid way, in which case the check trivially passes.
        """
        bucket = self._sets[line & self._set_mask]
        if len(bucket) < self.associativity:
            return None
        return min(entry.last_access for entry in bucket.values())

    def entries_in_set(self, line: int) -> list[tuple[int, object]]:
        """All (line, entry) pairs resident in the set that ``line`` maps to.

        Used by replacement policies that need to choose among a set's ways
        with protocol-specific preferences (e.g. victim replication).
        """
        return list(self._sets[line & self._set_mask].items())

    # ------------------------------------------------------------------
    def lines(self) -> Iterator[tuple[int, object]]:
        """Iterate over all (line, entry) pairs resident in the cache."""
        for bucket in self._sets:
            yield from bucket.items()

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)

    def clear(self) -> None:
        for bucket in self._sets:
            bucket.clear()
        obs = self._observer
        if obs is not None:
            obs(2, -1, None)
