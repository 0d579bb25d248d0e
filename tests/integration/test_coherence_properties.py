"""Property-based coherence verification.

The strongest correctness check in the suite: random multithreaded access
sequences are driven through the full protocol stack in verify mode, where
the engine asserts SWMR after every directory operation and checks every
read's value against a golden memory maintained in coherence order.  Any
lost write-back, stale fill or sharer-tracking bug raises CoherenceError.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import ArchConfig, CacheGeometry, ProtocolConfig, baseline_protocol
from repro.protocol.directory import DirectoryEngine

BASE = 1 << 30
LINE = 64


def tiny_arch():
    return ArchConfig(
        num_cores=4,
        num_memory_controllers=2,
        l1d=CacheGeometry(1, 2, 1),
        l2=CacheGeometry(2, 2, 7),
    )


PROTOCOLS = [
    baseline_protocol(),
    ProtocolConfig(pct=2, classifier="complete", remote_policy="rat"),
    ProtocolConfig(pct=4, classifier="limited", limited_k=1, remote_policy="rat"),
    ProtocolConfig(pct=4, classifier="limited", limited_k=3, remote_policy="timestamp"),
    ProtocolConfig(pct=3, classifier="complete", one_way=True),
    ProtocolConfig(pct=4, classifier="limited", limited_k=3, directory="fullmap"),
]

access_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # core
        st.booleans(),  # write?
        st.integers(min_value=0, max_value=23),  # line index
        st.integers(min_value=0, max_value=7),  # word offset
    ),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize("proto", PROTOCOLS, ids=lambda p: (
    f"{p.protocol}-{p.classifier}-k{p.limited_k}-{p.remote_policy}"
    + ("-1way" if p.one_way else "") + f"-{p.directory}"
))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=access_steps)
def test_random_traffic_is_coherent(proto, steps):
    """SWMR + data-value invariants hold for arbitrary interleavings."""
    engine = DirectoryEngine(tiny_arch(), proto, verify=True)
    now = 0.0
    for core, is_write, line_index, word in steps:
        address = BASE + line_index * LINE + word * 8
        result = engine.access(core, is_write, address, now)
        assert result.latency >= 0.0
        now += 1.0 + result.latency


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=access_steps)
def test_same_page_thrash_is_coherent(steps):
    """Concentrated traffic on one page exercises R-NUCA transitions."""
    engine = DirectoryEngine(tiny_arch(), ProtocolConfig(pct=2), verify=True)
    now = 0.0
    for core, is_write, line_index, word in steps:
        address = BASE + (line_index % 4) * LINE + word * 8
        now += 1.0 + engine.access(core, is_write, address, now).latency


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=access_steps, pct=st.integers(min_value=1, max_value=8))
def test_any_pct_is_coherent(steps, pct):
    proto = ProtocolConfig(pct=pct, classifier="limited", limited_k=2)
    engine = DirectoryEngine(tiny_arch(), proto, verify=True)
    now = 0.0
    for core, is_write, line_index, word in steps:
        address = BASE + line_index * LINE + word * 8
        now += 1.0 + engine.access(core, is_write, address, now).latency


def test_write_visibility_chain():
    """A value written by one core is visible to every other core, through
    arbitrary private/remote service decisions."""
    engine = DirectoryEngine(tiny_arch(), ProtocolConfig(pct=2), verify=True)
    now = 0.0
    for i in range(40):
        writer = i % 4
        reader = (i + 1) % 4
        address = BASE + (i % 6) * LINE
        now += 1 + engine.access(writer, True, address, now).latency
        now += 1 + engine.access(reader, False, address, now).latency
        # verify mode asserts the read sees the write; reaching here is the test


def test_eviction_writeback_preserves_data():
    """Dirty L1/L2 evictions must push data down without loss."""
    engine = DirectoryEngine(tiny_arch(), baseline_protocol(), verify=True)
    now = 0.0
    # Write many distinct lines to force L1 and L2 evictions with dirty data.
    for i in range(64):
        now += 1 + engine.access(0, True, BASE + i * LINE, now).latency
    # Read everything back: golden memory checks each value.
    for i in range(64):
        now += 1 + engine.access(1, False, BASE + i * LINE, now).latency
