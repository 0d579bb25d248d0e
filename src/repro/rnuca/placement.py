"""R-NUCA home-slice placement.

For a 64-core processor R-NUCA places (Section 2.1):

* **private data** at the L2 slice of the owning (requesting) core - local
  L2 access, no network traversal;
* **shared data** at a single slice determined by a hash of the line
  address - one fixed home for the whole chip;
* **instructions** replicated at one slice per cluster of 4 cores using
  rotational interleaving - each core finds instruction lines within its
  2x2 mesh neighbourhood.

``data_home`` is the first step of every line-homed miss, so it memoizes
each line's ``(home, private owner or -1)``.  A line's home is stable
while its page's classification is: shared pages never reclassify and a
private page keeps its home for its owner.  Only an access by another
core can move it (the one-way private -> shared transition), and that
access reaches the page table, which reports the transition; the
placement then drops every memoized line of the page.  The placement
creates its own page table, so nothing outside it can reclassify a page
behind the memo; ``data_word_home`` (DLS's word-interleaved homes) is
neither memoized nor memo-aware, so an engine homes its data through one
of the two.
"""

from __future__ import annotations

from repro.common import addr as addrmod
from repro.common.params import ArchConfig
from repro.rnuca.page_table import PageKind, RNucaPageTable

#: Knuth multiplicative hash constant - spreads consecutive lines across
#: slices without the striding artifacts of a plain modulo.
_HASH_MULTIPLIER = 2654435761


class RNucaPlacement:
    """Computes the home L2 slice for every access."""

    def __init__(self, arch: ArchConfig) -> None:
        self.arch = arch
        self.page_table = RNucaPageTable()
        #: line -> (home slice, private owner or -1); see the module docstring.
        self._line_home: dict[int, tuple[int, int]] = {}
        self._cluster_tiles_cache: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def shared_home(self, line: int) -> int:
        """Fixed chip-wide home slice for a shared line (address hash)."""
        return ((line * _HASH_MULTIPLIER) >> 16) % self.arch.num_cores

    def data_home(self, line: int, core: int) -> tuple[int, int | None]:
        """Home slice for a data access.

        Returns ``(home_tile, flush_owner)``; ``flush_owner`` is the previous
        private owner's tile when this access just reclassified the page
        shared (its slice must be flushed), else None.  A memo hit (shared
        line, or private line accessed by its owner) skips the page table;
        the classification it would repeat has no side effects.
        """
        cached = self._line_home.get(line)
        if cached is not None and (cached[1] < 0 or cached[1] == core):
            return cached[0], None
        page = addrmod.page_of(line << addrmod.LINE_BITS, self.arch.page_size)
        kind, owner, previous_owner = self.page_table.classify_data(page, core)
        if kind is PageKind.PRIVATE:
            self._line_home[line] = (owner, owner)
            return owner, None
        if previous_owner is not None:
            # Transition: the page's lines were memoized at the old private
            # owner's slice; forget them before they mislead.
            for pline in addrmod.lines_in_page(page, self.arch.page_size):
                self._line_home.pop(pline, None)
        home = self.shared_home(line)
        self._line_home[line] = (home, -1)
        return home, previous_owner

    # ------------------------------------------------------------------
    def shared_word_home(self, line: int, word: int) -> int:
        """Word-interleaved home slice for a shared word (the DLS LLC).

        DLS distributes the shared last-level cache at *word* granularity:
        consecutive words stripe round-robin across consecutive slices, so
        a line's 8 words spread over 8 slices and a streaming scan loads
        every slice evenly instead of hammering one line home.
        """
        return (line * self.arch.words_per_line + word) % self.arch.num_cores

    def data_word_home(self, line: int, word: int, core: int) -> tuple[int, int | None]:
        """Per-word home for a DLS data access (same contract as
        :meth:`data_home`: private pages stay at the owner's slice, shared
        words interleave, and ``flush_owner`` reports a private -> shared
        transition that requires flushing the old owner's slice).  Not
        memoized, and blind to :meth:`data_home`'s memo."""
        page = addrmod.page_of(line << addrmod.LINE_BITS, self.arch.page_size)
        kind, owner, previous_owner = self.page_table.classify_data(page, core)
        if kind is PageKind.PRIVATE:
            return owner, None
        return self.shared_word_home(line, word), previous_owner

    # ------------------------------------------------------------------
    def cluster_tiles(self, core: int) -> tuple[int, ...]:
        """Tiles of ``core``'s instruction-replication cluster (2x2 block)."""
        cached = self._cluster_tiles_cache.get(core)
        if cached is not None:
            return cached
        width = self.arch.mesh_width
        side = int(self.arch.instruction_cluster_size**0.5)
        if side * side != self.arch.instruction_cluster_size:
            # Non-square cluster: fall back to consecutive tile ids.
            base = core - core % self.arch.instruction_cluster_size
            tiles = tuple(range(base, base + self.arch.instruction_cluster_size))
        else:
            x, y = core % width, core // width
            bx, by = x - x % side, y - y % side
            tiles = tuple(
                (by + dy) * width + (bx + dx) for dy in range(side) for dx in range(side)
            )
        self._cluster_tiles_cache[core] = tiles
        return tiles

    def instruction_home(self, line: int, core: int) -> int:
        """Rotationally-interleaved instruction home within the cluster.

        Consecutive instruction lines rotate over the cluster's 4 slices, so
        each slice replicates 1/4 of the code and every fetch stays within
        one hop of the requester.
        """
        page = addrmod.page_of(line << addrmod.LINE_BITS, self.arch.page_size)
        self.page_table.classify_instruction(page)
        tiles = self.cluster_tiles(core)
        return tiles[line % len(tiles)]
