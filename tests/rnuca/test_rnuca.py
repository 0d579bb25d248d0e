"""R-NUCA page classification and placement tests."""

import pytest

from repro.common import addr as addrmod
from repro.common.params import ArchConfig
from repro.rnuca.page_table import PageKind, RNucaPageTable
from repro.rnuca.placement import RNucaPlacement


class TestPageTable:
    def test_first_touch_private(self):
        table = RNucaPageTable()
        kind, owner, previous = table.classify_data(10, core=3)
        assert kind is PageKind.PRIVATE
        assert owner == 3
        assert previous is None
        assert table._pages == {10: (PageKind.PRIVATE, 3)}

    def test_same_core_stays_private(self):
        table = RNucaPageTable()
        table.classify_data(10, core=3)
        kind, owner, previous = table.classify_data(10, core=3)
        assert kind is PageKind.PRIVATE and owner == 3 and previous is None

    def test_second_core_transitions_to_shared(self):
        table = RNucaPageTable()
        table.classify_data(10, core=3)
        kind, owner, previous = table.classify_data(10, core=5)
        assert kind is PageKind.SHARED
        assert previous == 3  # caller must flush core 3's slice
        assert table._pages == {10: (PageKind.SHARED, -1)}
        # One-way: never goes back to private.
        kind, _, previous = table.classify_data(10, core=3)
        assert kind is PageKind.SHARED and previous is None

    def test_owner_of(self):
        table = RNucaPageTable()
        table.classify_data(4, core=9)
        assert table.owner_of(4) == 9
        table.classify_data(4, core=2)
        assert table.owner_of(4) is None


class TestPlacement:
    @pytest.fixture
    def placement(self):
        return RNucaPlacement(ArchConfig(num_cores=16, num_memory_controllers=4))

    def test_private_data_at_owner_slice(self, placement):
        line = (1 << 20) // 64
        home, flush = placement.data_home(line, core=6)
        assert home == 6
        assert flush is None

    def test_shared_data_hash_homed(self, placement):
        line = (1 << 20) // 64
        placement.data_home(line, core=6)
        home, flush = placement.data_home(line, core=2)
        assert flush == 6  # the old private owner's slice must be flushed
        assert home == placement.shared_home(line)
        # Stable afterwards.
        assert placement.data_home(line, core=6) == (home, None)

    def test_shared_home_deterministic_and_spread(self, placement):
        lines = range(1000, 1512)
        homes = [placement.shared_home(line) for line in lines]
        assert homes == [placement.shared_home(line) for line in lines]
        # The hash should use most of the 16 slices for 512 lines.
        assert len(set(homes)) >= 12

    def test_all_lines_of_private_page_share_home(self, placement):
        page_base = 1 << 22
        lines = [(page_base + i * 64) >> addrmod.LINE_BITS for i in range(64)]
        homes = {placement.data_home(line, core=3)[0] for line in lines}
        assert homes == {3}
