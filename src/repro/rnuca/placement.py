"""R-NUCA home-slice placement.

For a 64-core processor R-NUCA places (Section 2.1):

* **private data** at the L2 slice of the owning (requesting) core - local
  L2 access, no network traversal;
* **shared data** at a single slice determined by a hash of the line
  address - one fixed home for the whole chip.

(R-NUCA's third class, instructions replicated per 4-core cluster, is not
modelled: instruction fetch is one L1-I read per instruction.)

``data_home`` (and DLS's word-interleaved ``data_word_home``) is the first
step of every miss, so both answer from the page table's own dict
(``RNucaPageTable._pages``) whenever the classification would have no side
effect: a shared page, or a private page accessed by its owner.  Any other
access - a first touch, a second core touching a private page (the
one-way private -> shared transition, which reports the old owner whose
slice must be flushed) - goes through ``RNucaPageTable.classify_data``.
The page table is the only placement state: a line's home is recomputed
from its page's entry, so a transition needs no memo to drop.  The engines
reach these methods through their home kernel (``repro.protocol.home``);
the compiled kernel applies the same rule to the same dict.
"""

from __future__ import annotations

from repro.common import addr as addrmod
from repro.common.params import ArchConfig
from repro.rnuca.page_table import PageKind, RNucaPageTable

_LINE_BITS = addrmod.LINE_BITS

#: Knuth multiplicative hash constant - spreads consecutive lines across
#: slices without the striding artifacts of a plain modulo.  The home is
#: ``((line * _HASH_MULTIPLIER) >> _HASH_SHIFT) % num_cores``, exact in
#: Python's unbounded ints: the product needs more than 64 bits once the
#: line number passes 2**64 // _HASH_MULTIPLIER = 6,949,403,087, well
#: inside the 48-bit physical address space.
_HASH_MULTIPLIER = 2654435761
_HASH_SHIFT = 16

_SHARED = PageKind.SHARED
_PRIVATE = PageKind.PRIVATE


class RNucaPlacement:
    """Computes the home L2 slice for every access."""

    def __init__(self, arch: ArchConfig) -> None:
        self.arch = arch
        self.page_table = RNucaPageTable()
        self._pages = self.page_table._pages
        self._page_size = arch.page_size
        self._num_cores = arch.num_cores
        self._words_per_line = arch.words_per_line

    # ------------------------------------------------------------------
    def shared_home(self, line: int) -> int:
        """Fixed chip-wide home slice for a shared line (address hash)."""
        return ((line * _HASH_MULTIPLIER) >> _HASH_SHIFT) % self._num_cores

    def data_home(self, line: int, core: int) -> tuple[int, int | None]:
        """Home slice for a data access.

        Returns ``(home_tile, flush_owner)``; ``flush_owner`` is the previous
        private owner's tile when this access just reclassified the page
        shared (its slice must be flushed), else None.
        """
        page = (line << _LINE_BITS) // self._page_size
        entry = self._pages.get(page)
        if entry is not None:
            kind, owner = entry
            if kind is _SHARED:
                return ((line * _HASH_MULTIPLIER) >> _HASH_SHIFT) % self._num_cores, None
            if owner == core:
                return owner, None
        kind, owner, previous_owner = self.page_table.classify_data(page, core)
        if kind is _PRIVATE:
            return owner, None
        return self.shared_home(line), previous_owner

    # ------------------------------------------------------------------
    def shared_word_home(self, line: int, word: int) -> int:
        """Word-interleaved home slice for a shared word (the DLS LLC).

        DLS distributes the shared last-level cache at *word* granularity:
        consecutive words stripe round-robin across consecutive slices, so
        a line's 8 words spread over 8 slices and a streaming scan loads
        every slice evenly instead of hammering one line home.
        """
        return (line * self._words_per_line + word) % self._num_cores

    def data_word_home(self, line: int, word: int, core: int) -> tuple[int, int | None]:
        """Per-word home for a DLS data access (same contract and the same
        page-table rule as :meth:`data_home`: private pages stay at the
        owner's slice, shared words interleave, and ``flush_owner`` reports
        a private -> shared transition that requires flushing the old
        owner's slice)."""
        page = (line << _LINE_BITS) // self._page_size
        entry = self._pages.get(page)
        if entry is not None:
            kind, owner = entry
            if kind is _SHARED:
                return (line * self._words_per_line + word) % self._num_cores, None
            if owner == core:
                return owner, None
        kind, owner, previous_owner = self.page_table.classify_data(page, core)
        if kind is _PRIVATE:
            return owner, None
        return self.shared_word_home(line, word), previous_owner
