"""OS page-table emulation for R-NUCA data classification.

Reactive-NUCA (Hardavellas et al., ISCA 2009) classifies data as private or
shared *at page granularity using OS page tables* (Section 2.1 of the paper):

* a data page is **private** to the first core that touches it;
* when a second core touches the page it is reclassified **shared** for the
  rest of the execution (transitions are one-way in R-NUCA).

R-NUCA also replicates instruction pages per cluster of 4 cores; the
simulator charges instruction fetch as one L1-I read per instruction and
places no instruction lines, so the table holds data pages only.

The transition private -> shared requires flushing the page's lines from the
old home slice (placement changes); the protocol engine performs the flush
when ``classify_data`` reports a transition.
"""

from __future__ import annotations

import enum


class PageKind(enum.IntEnum):
    PRIVATE = 0
    SHARED = 1


class RNucaPageTable:
    """First-touch private/shared page classification."""

    def __init__(self) -> None:
        # page -> (kind, owner core for PRIVATE pages, else -1)
        self._pages: dict[int, tuple[PageKind, int]] = {}

    # ------------------------------------------------------------------
    def classify_data(self, page: int, core: int) -> tuple[PageKind, int, int | None]:
        """Classify a data access by ``core`` to ``page``.

        Returns ``(kind, owner, previous_owner)`` where ``previous_owner`` is
        the old private owner when this access just triggered a
        private -> shared transition (the caller must flush that slice), and
        None otherwise.
        """
        entry = self._pages.get(page)
        if entry is None:
            self._pages[page] = (PageKind.PRIVATE, core)
            return PageKind.PRIVATE, core, None
        kind, owner = entry
        if kind is PageKind.SHARED or owner == core:
            return kind, owner, None
        # Second core touched a private page: reclassify shared, one-way.
        self._pages[page] = (PageKind.SHARED, -1)
        return PageKind.SHARED, -1, owner

    def owner_of(self, page: int) -> int | None:
        """Owning core of a PRIVATE page, else None."""
        entry = self._pages.get(page)
        if entry and entry[0] is PageKind.PRIVATE:
            return entry[1]
        return None
