"""Address arithmetic unit tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import addr


def test_line_constants_consistent():
    assert addr.LINE_SIZE == 1 << addr.LINE_BITS
    assert addr.WORD_SIZE == 1 << addr.WORD_BITS
    assert addr.WORDS_PER_LINE == addr.LINE_SIZE // addr.WORD_SIZE


def test_line_base():
    assert addr.line_base(0) == 0
    assert addr.line_base(65) == 64
    assert addr.line_base(127) == 64


def test_page_of_default():
    assert addr.page_of(0) == 0
    assert addr.page_of(4095) == 0
    assert addr.page_of(4096) == 1


def test_page_of_custom_size():
    assert addr.page_of(8192, page_size=8192) == 1
    assert addr.page_of(8191, page_size=8192) == 0


def test_align_up():
    assert addr.align_up(0, 64) == 0
    assert addr.align_up(1, 64) == 64
    assert addr.align_up(64, 64) == 64
    assert addr.align_up(65, 64) == 128


def test_align_up_rejects_nonpositive():
    with pytest.raises(ValueError):
        addr.align_up(10, 0)


def test_lines_in_page_covers_page():
    lines = list(addr.lines_in_page(0))
    assert len(lines) == 4096 // 64
    assert lines[0] == 0
    assert lines[-1] == 63
    assert list(addr.lines_in_page(1))[0] == 64


@given(st.integers(min_value=0, max_value=addr.MAX_ADDRESS))
def test_line_roundtrip(address):
    line = address >> addr.LINE_BITS
    base = addr.line_base(address)
    assert base == line * addr.LINE_SIZE
    assert base <= address < base + addr.LINE_SIZE


@given(st.integers(min_value=0, max_value=1 << 40), st.sampled_from([8, 64, 4096]))
def test_align_up_properties(value, alignment):
    aligned = addr.align_up(value, alignment)
    assert aligned >= value
    assert aligned % alignment == 0
    assert aligned - value < alignment
