"""Property-based tests for address arithmetic (repro.common.addr)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import addr

addresses = st.integers(min_value=0, max_value=addr.MAX_ADDRESS)
page_sizes = st.sampled_from([1024, 4096, 8192, 65536])


class TestLineMath:
    @given(a=addresses)
    def test_line_base_is_aligned_and_contains_address(self, a):
        base = addr.line_base(a)
        assert base % addr.LINE_SIZE == 0
        assert base <= a < base + addr.LINE_SIZE

    @given(a=addresses)
    def test_all_bytes_of_a_line_share_its_number(self, a):
        base = addr.line_base(a)
        assert addr.line_base(base + addr.LINE_SIZE - 1) == base
        assert addr.line_base(base + addr.LINE_SIZE) == base + addr.LINE_SIZE



class TestPageMath:
    @given(a=addresses, page_size=page_sizes)
    def test_page_of_consistent_with_lines_in_page(self, a, page_size):
        page = addr.page_of(a, page_size)
        lines = addr.lines_in_page(page, page_size)
        assert a >> addr.LINE_BITS in lines

    @given(page=st.integers(min_value=0, max_value=1 << 30), page_size=page_sizes)
    def test_lines_in_page_partition_the_address_space(self, page, page_size):
        lines = addr.lines_in_page(page, page_size)
        next_lines = addr.lines_in_page(page + 1, page_size)
        assert len(lines) == page_size // addr.LINE_SIZE
        assert lines.stop == next_lines.start  # contiguous, no overlap

    @given(a=addresses, page_size=page_sizes)
    def test_pages_partition_lines(self, a, page_size):
        # A line never straddles a page (page sizes are line multiples).
        line_start = addr.line_base(a)
        line_end = line_start + addr.LINE_SIZE - 1
        assert addr.page_of(line_start, page_size) == addr.page_of(line_end, page_size)


class TestAlignUp:
    @given(v=st.integers(min_value=0, max_value=1 << 40),
           align=st.sampled_from([1, 8, 64, 4096]))
    def test_result_is_aligned_and_minimal(self, v, align):
        r = addr.align_up(v, align)
        assert r % align == 0
        assert r >= v
        assert r - v < align

    @given(v=st.integers(min_value=0, max_value=1 << 40))
    def test_idempotent(self, v):
        once = addr.align_up(v, 4096)
        assert addr.align_up(once, 4096) == once

    def test_nonpositive_alignment_rejected(self):
        with pytest.raises(ValueError, match="alignment"):
            addr.align_up(10, 0)
