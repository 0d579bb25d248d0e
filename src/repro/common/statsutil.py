"""Small statistics helpers used by the experiment harness and figures."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

#: Utilization buckets used by Figures 1 and 2: 1, 2-3, 4-5, 6-7, >=8.
UTILIZATION_BUCKETS: tuple[str, ...] = ("1", "2-3", "4-5", "6-7", ">=8")


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Raises ``ValueError`` on an empty iterable or non-positive inputs, which
    would silently corrupt normalized-figure summaries otherwise.
    """
    logs = []
    for v in values:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
        logs.append(math.log(v))
    if not logs:
        raise ValueError("geomean of empty sequence")
    return math.exp(sum(logs) / len(logs))


def utilization_bucket(utilization: int) -> str:
    """Map a utilization count onto the paper's Figure 1/2 buckets."""
    if utilization < 1:
        raise ValueError(f"utilization counts start at 1, got {utilization}")
    if utilization == 1:
        return "1"
    if utilization <= 3:
        return "2-3"
    if utilization <= 5:
        return "4-5"
    if utilization <= 7:
        return "6-7"
    return ">=8"


def bucket_percentages(counts: Mapping[str, int]) -> dict[str, float]:
    """Convert bucket counts into percentages (0..100) over all buckets."""
    total = sum(counts.get(b, 0) for b in UTILIZATION_BUCKETS)
    if total == 0:
        return {b: 0.0 for b in UTILIZATION_BUCKETS}
    return {b: 100.0 * counts.get(b, 0) / total for b in UTILIZATION_BUCKETS}
