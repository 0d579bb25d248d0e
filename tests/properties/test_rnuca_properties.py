"""Property-based tests for R-NUCA placement invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import addr as addrmod
from repro.common.params import ArchConfig
from repro.rnuca.page_table import PageKind, RNucaPageTable
from repro.rnuca.placement import RNucaPlacement

ARCH = ArchConfig(num_cores=64)
LINES_PER_PAGE = ARCH.page_size // addrmod.LINE_SIZE

lines = st.integers(min_value=0, max_value=1 << 30)
cores = st.integers(min_value=0, max_value=ARCH.num_cores - 1)


class TestSharedHome:
    @given(line=lines)
    def test_home_is_a_valid_tile(self, line):
        placement = RNucaPlacement(ARCH)
        assert 0 <= placement.shared_home(line) < ARCH.num_cores

    @given(line=lines)
    def test_home_is_deterministic(self, line):
        a = RNucaPlacement(ARCH)
        b = RNucaPlacement(ARCH)
        assert a.shared_home(line) == b.shared_home(line)

    def test_hash_spreads_consecutive_lines(self):
        placement = RNucaPlacement(ARCH)
        homes = {placement.shared_home(line) for line in range(4096)}
        # 4096 consecutive lines must reach a large fraction of the chip.
        assert len(homes) > ARCH.num_cores // 2


class TestDataClassification:
    @given(line=lines, core=cores)
    def test_first_touch_places_private_at_requester(self, line, core):
        placement = RNucaPlacement(ARCH)
        home, flush = placement.data_home(line, core)
        assert home == core
        assert flush is None

    @given(line=lines, core=cores)
    def test_repeat_touch_by_owner_stays_private(self, line, core):
        placement = RNucaPlacement(ARCH)
        placement.data_home(line, core)
        home, flush = placement.data_home(line, core)
        assert home == core
        assert flush is None

    @given(line=lines, first=cores, second=cores)
    def test_second_core_reclassifies_to_shared_once(self, line, first, second):
        if first == second:
            return
        placement = RNucaPlacement(ARCH)
        placement.data_home(line, first)
        home, flush = placement.data_home(line, second)
        assert flush == first  # the old private slice must be flushed
        assert home == placement.shared_home(line)
        # The transition happens exactly once.
        again_home, again_flush = placement.data_home(line, first)
        assert again_flush is None
        assert again_home == home

    @given(line=lines, first=cores, second=cores)
    def test_all_lines_of_a_page_share_its_classification(self, line, first, second):
        if first == second:
            return
        placement = RNucaPlacement(ARCH)
        placement.data_home(line, first)
        placement.data_home(line, second)  # page now shared
        page_start = (line // LINES_PER_PAGE) * LINES_PER_PAGE
        sibling = page_start + (line + 1) % LINES_PER_PAGE
        home, flush = placement.data_home(sibling, first)
        assert home == placement.shared_home(sibling)
        assert flush is None  # the flush already happened for this page


class TestHomeMemo:
    @settings(max_examples=200, deadline=None)
    @given(
        pages=st.integers(2, 3),
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_memoized_home_matches_the_page_table_rule(self, pages, ops):
        """At every step the memoized ``data_home`` returns what the
        unmemoized rule returns (a fresh page table, ``classify_data``,
        ``shared_home``) - so a private -> shared transition must drop the
        page's memoized lines, including lines other than the one whose
        access triggered it."""
        placement = RNucaPlacement(ARCH)
        table = RNucaPageTable()
        for page_index, slot, core in ops:
            line = (page_index % pages) * LINES_PER_PAGE + slot
            page = addrmod.page_of(line << addrmod.LINE_BITS, ARCH.page_size)
            kind, owner, previous_owner = table.classify_data(page, core)
            if kind is PageKind.PRIVATE:
                want = (owner, None)
            else:
                want = (placement.shared_home(line), previous_owner)
            assert placement.data_home(line, core) == want, (line, core)


class TestInstructionPlacement:
    @given(line=lines, core=cores)
    def test_instruction_home_within_cluster(self, line, core):
        placement = RNucaPlacement(ARCH)
        home = placement.instruction_home(line, core)
        assert home in placement.cluster_tiles(core)

    @given(line=lines, core=cores)
    def test_cluster_is_a_2x2_mesh_block(self, line, core):
        placement = RNucaPlacement(ARCH)
        tiles = placement.cluster_tiles(core)
        assert len(tiles) == ARCH.instruction_cluster_size
        assert core in tiles
        width = ARCH.mesh_width
        xs = sorted({t % width for t in tiles})
        ys = sorted({t // width for t in tiles})
        assert len(xs) == 2 and xs[1] - xs[0] == 1
        assert len(ys) == 2 and ys[1] - ys[0] == 1

    @given(core=cores)
    def test_rotational_interleaving_covers_the_cluster(self, core):
        placement = RNucaPlacement(ARCH)
        homes = {placement.instruction_home(line, core) for line in range(16)}
        assert homes == set(placement.cluster_tiles(core))

    @settings(max_examples=25, deadline=None)
    @given(line=lines, a=cores, b=cores)
    def test_same_cluster_cores_agree_on_instruction_home(self, line, a, b):
        placement = RNucaPlacement(ARCH)
        if placement.cluster_tiles(a) != placement.cluster_tiles(b):
            return
        assert placement.instruction_home(line, a) == placement.instruction_home(line, b)
