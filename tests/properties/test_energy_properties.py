"""Energy accounting properties: linearity, additivity, non-negativity."""

from __future__ import annotations

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.common.params import ArchConfig, EnergyConfig
from repro.energy.model import EnergyCounters, EnergyModel
from repro.network.mesh import MeshNetwork

ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)

counter_values = st.integers(min_value=0, max_value=10_000)


@st.composite
def random_counters(draw):
    counters = EnergyCounters()
    for name in EnergyCounters.__slots__:
        setattr(counters, name, draw(counter_values))
    return counters


def fresh_network() -> MeshNetwork:
    return MeshNetwork(ARCH)


class TestBreakdownProperties:
    @given(counters=random_counters())
    def test_total_is_sum_of_components(self, counters):
        breakdown = EnergyModel().breakdown(counters, fresh_network())
        assert breakdown.total == (
            breakdown.l1i + breakdown.l1d + breakdown.l2
            + breakdown.directory + breakdown.router + breakdown.link
        )

    @given(counters=random_counters())
    def test_energy_nonnegative(self, counters):
        breakdown = EnergyModel().breakdown(counters, fresh_network())
        assert all(v >= 0 for v in breakdown.to_dict().values())

    @given(counters=random_counters())
    def test_zero_events_zero_energy(self, counters):
        zero = EnergyCounters()
        breakdown = EnergyModel().breakdown(zero, fresh_network())
        assert breakdown.total == 0.0

    @given(a=random_counters(), b=random_counters())
    def test_additive_in_event_counts(self, a, b):
        model = EnergyModel()
        net = fresh_network()
        merged = EnergyCounters()
        for name in EnergyCounters.__slots__:
            setattr(merged, name, getattr(a, name) + getattr(b, name))
        total_a = model.breakdown(a, net).total
        total_b = model.breakdown(b, net).total
        total_merged = model.breakdown(merged, net).total
        assert abs(total_merged - (total_a + total_b)) < 1e-6 * max(1.0, total_merged)

    @given(counters=random_counters(), factor=st.integers(min_value=0, max_value=7))
    def test_homogeneous_in_event_counts(self, counters, factor):
        model = EnergyModel()
        net = fresh_network()
        scaled = EnergyCounters()
        for name in EnergyCounters.__slots__:
            setattr(scaled, name, getattr(counters, name) * factor)
        base = model.breakdown(counters, net).total
        scaled_total = model.breakdown(scaled, net).total
        assert abs(scaled_total - factor * base) < 1e-6 * max(1.0, scaled_total)

    @given(counters=random_counters())
    def test_config_field_scaling_moves_exactly_one_component(self, counters):
        # Doubling the L2 word-read energy only changes the L2 component.
        base_cfg = EnergyConfig()
        bumped = dataclasses.replace(base_cfg, l2_word_read=base_cfg.l2_word_read * 2)
        net = fresh_network()
        a = EnergyModel(base_cfg).breakdown(counters, net)
        b = EnergyModel(bumped).breakdown(counters, net)
        assert b.l1i == a.l1i and b.l1d == a.l1d and b.router == a.router
        import pytest

        assert b.l2 - a.l2 == pytest.approx(counters.l2_word_reads * base_cfg.l2_word_read)
