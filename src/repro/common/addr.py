"""Address arithmetic helpers.

All addresses in the simulator are byte addresses within a 48-bit physical
address space (Table 1).  Cache lines are 64 bytes and words are 64 bits, so
these helpers centralise the bit slicing used throughout the memory system.
"""

from __future__ import annotations

PHYSICAL_ADDRESS_BITS = 48
LINE_SIZE = 64
LINE_BITS = 6  # log2(LINE_SIZE)
WORD_SIZE = 8
WORD_BITS = 3  # log2(WORD_SIZE)
WORDS_PER_LINE = LINE_SIZE // WORD_SIZE
DEFAULT_PAGE_SIZE = 4096

MAX_ADDRESS = (1 << PHYSICAL_ADDRESS_BITS) - 1


def line_base(addr: int) -> int:
    """Return the byte address of the first byte of ``addr``'s cache line."""
    return addr & ~(LINE_SIZE - 1)


def page_of(addr: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Return the page number containing byte address ``addr``."""
    return addr // page_size


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value + alignment - 1) // alignment * alignment


def lines_in_page(page: int, page_size: int = DEFAULT_PAGE_SIZE) -> range:
    """Return the range of line numbers that belong to ``page``."""
    lines_per_page = page_size // LINE_SIZE
    first = page * lines_per_page
    return range(first, first + lines_per_page)
