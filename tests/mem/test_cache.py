"""Set-associative cache tests, including an LRU reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import CacheGeometry
from repro.common.types import MESIState
from repro.mem.cache import CacheLine, SetAssocCache


@pytest.fixture
def cache():
    # 1KB, 2-way, 64B lines -> 16 lines, 8 sets.
    return SetAssocCache(CacheGeometry(1, 2, 1))


def _line(state=MESIState.SHARED):
    return CacheLine(state)


class TestBasics:
    def test_miss_returns_none(self, cache):
        assert cache.get(123) is None

    def test_insert_then_get(self, cache):
        entry = _line()
        assert cache.insert(5, entry) is None
        assert cache.get(5) is entry

    def test_same_set_mapping(self, cache):
        # Lines 0 and 8 map to set 0 (8 sets); line 1 does not.
        cache.insert(0, _line())
        cache.insert(8, _line())
        assert not cache.has_free_way(16)
        assert cache.has_free_way(1)

    def test_free_way_tracking(self, cache):
        assert cache.has_free_way(0)
        cache.insert(0, _line())
        assert cache.has_free_way(0)
        cache.insert(8, _line())
        assert not cache.has_free_way(0)
        assert cache.has_free_way(1)  # other sets unaffected

    def test_eviction_on_full_set(self, cache):
        first = _line()
        cache.insert(0, first)
        cache.insert(8, _line())
        evicted = cache.insert(16, _line())
        assert evicted is not None
        evicted_line, evicted_entry = evicted
        assert evicted_line == 0  # LRU: the oldest insert
        assert evicted_entry is first
        assert cache.get(0) is None

    def test_touch_protects_from_eviction(self, cache):
        first = _line()
        cache.insert(0, first)
        cache.insert(8, _line())
        cache.touch(first)  # 0 becomes MRU
        evicted_line, _ = cache.insert(16, _line())
        assert evicted_line == 8

    def test_reinsert_same_line_does_not_evict(self, cache):
        cache.insert(0, _line())
        cache.insert(8, _line())
        assert cache.insert(0, _line()) is None

    def test_pop(self, cache):
        entry = _line()
        cache.insert(3, entry)
        assert cache.pop(3) is entry
        assert cache.pop(3) is None
        assert cache.has_free_way(3)

    def test_victim_preview_matches_insert(self, cache):
        cache.insert(0, _line())
        cache.insert(8, _line())
        preview = cache.victim(16)
        actual = cache.insert(16, _line())
        assert preview[0] == actual[0]

    def test_occupancy_and_lines(self, cache):
        cache.insert(0, _line())
        cache.insert(1, _line())
        assert cache.occupancy() == 2
        assert {line for line, _ in cache.lines()} == {0, 1}

    def test_clear(self, cache):
        cache.insert(0, _line())
        cache.clear()
        assert cache.occupancy() == 0


class TestMinLastAccess:
    def test_none_with_free_way(self, cache):
        cache.insert(0, _line())
        assert cache.min_last_access(0) is None

    def test_min_over_full_set(self, cache):
        a, b = _line(), _line()
        a.last_access, b.last_access = 10.0, 4.0
        cache.insert(0, a)
        cache.insert(8, b)
        assert cache.min_last_access(0) == 4.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
def test_lru_matches_reference_model(accesses):
    """The cache must behave exactly like a per-set LRU reference model."""
    geometry = CacheGeometry(1, 2, 1)  # 8 sets, 2 ways
    cache = SetAssocCache(geometry)
    reference: dict[int, list[int]] = {}  # set -> lines in LRU order (front = LRU)

    for line in accesses:
        set_no = line & geometry.set_mask
        order = reference.setdefault(set_no, [])
        entry = cache.get(line)
        if entry is not None:
            cache.touch(entry)
            order.remove(line)
            order.append(line)
        else:
            if len(order) == geometry.associativity:
                expected_victim = order.pop(0)
                evicted = cache.insert(line, CacheLine(MESIState.SHARED))
                assert evicted is not None and evicted[0] == expected_victim
            else:
                assert cache.insert(line, CacheLine(MESIState.SHARED)) is None
            order.append(line)

    for set_no, order in reference.items():
        resident = {ln for ln, _ in cache.lines() if ln & geometry.set_mask == set_no}
        assert resident == set(order)
