"""Fixtures shared across the tier-1 suite."""

from __future__ import annotations

import pytest

from repro.accel.build import NO_ACCEL_ENV


@pytest.fixture(params=("mesh+sched", "fallback"))
def implementation(request, monkeypatch):
    """Run the test under each of the two implementations: ``mesh+sched``
    (both compiled kernels, as the environment selects them - the
    fallback on hosts without a C compiler or under ``REPRO_NO_ACCEL``)
    and ``fallback`` (``REPRO_NO_ACCEL=1``, the pure-Python reference)."""
    if request.param == "fallback":
        monkeypatch.setenv(NO_ACCEL_ENV, "1")
    return request.param
