"""Private L1 data cache with the paper's locality-tracking tag extensions.

Responsibilities (Section 3.2 / Figure 5):

* per-line private utilization counter, initialized to 1 on fill and
  incremented on every subsequent hit;
* per-line last-access timestamp (consumed by the Timestamp classification
  scheme at the directory);
* reporting the minimum last-access time of a set and whether the set has an
  invalid way - both are communicated to the home L2 with each miss request;
* returning the final utilization counter when a line is evicted or
  invalidated so the directory can classify the core.
"""

from __future__ import annotations

from repro.common.params import CacheGeometry
from repro.common.types import MESIState
from repro.mem.cache import CacheLine, SetAssocCache


class L1Cache:
    """One core's private L1 (data or instruction) cache.

    Slotted: the compiled directory kernel (DESIGN.md section 15) reads
    ``store`` and bumps the hit and miss counters through the slot offsets.
    """

    __slots__ = ("geometry", "store", "keep_data", "hits", "misses")

    def __init__(self, geometry: CacheGeometry, keep_data: bool = False) -> None:
        self.geometry = geometry
        self.store = SetAssocCache(geometry)
        self.keep_data = keep_data
        # Statistics.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, line: int) -> CacheLine | None:
        """Return the resident line or None (no LRU/utilization side effects)."""
        return self.store.get(line)

    def hit(self, entry: CacheLine, now: float) -> None:
        """Record a load/store hit: bump LRU, utilization and timestamp.

        The utilization counter is saturating in hardware; we let it grow
        unbounded and clamp at classification time, which is equivalent for
        every PCT <= the saturation value.
        """
        self.hits += 1
        self.store.touch(entry)
        entry.utilization += 1
        entry.last_access = now

    def fill(
        self,
        line: int,
        state: MESIState,
        now: float,
        data: list[int] | None = None,
    ) -> tuple[int, CacheLine] | None:
        """Install ``line`` in ``state``; return the evicted (line, entry) if any.

        Private utilization starts at 1: the access that triggered the fill
        counts as the first use (Section 3.2).
        """
        entry = CacheLine(state)
        entry.utilization = 1
        entry.last_access = now
        if self.keep_data:
            entry.data = list(data) if data is not None else None
        return self.store.insert(line, entry)

    def remove(self, line: int) -> CacheLine | None:
        """Invalidate ``line`` (directory-initiated); return the dead entry."""
        return self.store.pop(line)

    # ------------------------------------------------------------------
    # Hints communicated to the home L2 with each miss (Sections 3.2-3.3).
    # ------------------------------------------------------------------
    def min_set_last_access(self, line: int) -> float | None:
        """Minimum last-access time of valid lines in the target set, or
        None when an invalid way exists (Timestamp check trivially true)."""
        return self.store.min_last_access(line)

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0
