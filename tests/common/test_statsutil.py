"""Statistics helper tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.statsutil import (
    UTILIZATION_BUCKETS,
    bucket_percentages,
    geomean,
    utilization_bucket,
)


def test_geomean_simple():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([1.0, -2.0])


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20))
def test_geomean_bounded_by_min_max(values):
    g = geomean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
       st.floats(min_value=0.1, max_value=10.0))
def test_geomean_scales_linearly(values, factor):
    scaled = geomean([v * factor for v in values])
    assert scaled == pytest.approx(geomean(values) * factor, rel=1e-9)


def test_utilization_bucket_boundaries():
    assert utilization_bucket(1) == "1"
    assert utilization_bucket(2) == "2-3"
    assert utilization_bucket(3) == "2-3"
    assert utilization_bucket(4) == "4-5"
    assert utilization_bucket(5) == "4-5"
    assert utilization_bucket(6) == "6-7"
    assert utilization_bucket(7) == "6-7"
    assert utilization_bucket(8) == ">=8"
    assert utilization_bucket(1000) == ">=8"


def test_utilization_bucket_rejects_zero():
    with pytest.raises(ValueError):
        utilization_bucket(0)


@given(st.integers(min_value=1, max_value=10_000))
def test_utilization_bucket_total_partition(value):
    assert utilization_bucket(value) in UTILIZATION_BUCKETS


def test_bucket_percentages_sum_to_100():
    counts = {"1": 10, "2-3": 30, "4-5": 20, "6-7": 25, ">=8": 15}
    pct = bucket_percentages(counts)
    assert sum(pct.values()) == pytest.approx(100.0)
    assert pct["2-3"] == pytest.approx(30.0)


def test_bucket_percentages_empty():
    assert all(v == 0.0 for v in bucket_percentages({}).values())
