"""Reusable access-pattern building blocks for workload kernels.

Each helper emits references with a controlled *per-line utilization* - the
quantity the paper's classifier keys on.  A "visit" of ``uses`` references to
one line produces utilization ``uses`` when the line is later evicted or
invalidated, so kernels compose these helpers to place their data on the
private/remote boundary the way the real benchmarks do.
"""

from __future__ import annotations

import random

from repro.common import addr as addrmod
from repro.workloads.base import ThreadProgram

WORD = addrmod.WORD_SIZE
LINE = addrmod.LINE_SIZE
WORDS_PER_LINE = addrmod.WORDS_PER_LINE


def chunk_range(total: int, parts: int, index: int) -> range:
    """Split ``range(total)`` into ``parts`` contiguous chunks; return one."""
    base = total // parts
    extra = total % parts
    start = index * base + min(index, extra)
    size = base + (1 if index < extra else 0)
    return range(start, start + size)


def line_visit(
    tp: ThreadProgram,
    line_base: int,
    uses: int,
    write_fraction: float = 0.0,
    rng: random.Random | None = None,
    work_per_use: int = 2,
) -> None:
    """Touch one cache line ``uses`` times (sequential words, wrapping)."""
    for i in range(uses):
        tp.work(work_per_use)
        address = line_base + (i % WORDS_PER_LINE) * WORD
        if rng is not None and write_fraction > 0 and rng.random() < write_fraction:
            tp.write(address)
        else:
            tp.read(address)


def stream_scan(
    tp: ThreadProgram,
    base: int,
    num_lines: int,
    uses_per_line: int = 1,
    write_fraction: float = 0.0,
    rng: random.Random | None = None,
    work_per_use: int = 2,
    start_line: int = 0,
) -> None:
    """Stream over ``num_lines`` consecutive lines with a fixed per-line reuse.

    ``uses_per_line=1`` models a strided/streaming pattern (the classic
    low-locality offender that pollutes the L1); larger values model dense
    structure-of-arrays processing.
    """
    for i in range(num_lines):
        line_base = base + (start_line + i) * LINE
        line_visit(tp, line_base, uses_per_line, write_fraction, rng, work_per_use)


def hot_loop(
    tp: ThreadProgram,
    base: int,
    num_lines: int,
    passes: int,
    write_fraction: float = 0.0,
    rng: random.Random | None = None,
    work_per_use: int = 2,
) -> None:
    """Repeatedly sweep a small structure that fits in the L1.

    Produces very high per-line utilization (passes x uses), the signature
    of compute-bound kernels like water-spatial and susan.
    """
    for _ in range(passes):
        stream_scan(tp, base, num_lines, 1, write_fraction, rng, work_per_use)

