"""RunStats (and nested stat types) must round-trip *exactly* through JSON."""

from __future__ import annotations

import json

import pytest

from repro.common.params import ArchConfig, EnergyConfig, ProtocolConfig
from repro.common.types import MissType
from repro.energy.model import EnergyBreakdown
from repro.experiments.harness import adaptive_protocol, bench_arch
from repro.runner.backends.local import execute_job
from repro.runner.job import Job
from repro.sim.stats import LatencyBreakdown, MissStats, RunStats, UtilizationHistogram


def _json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestConfigRoundTrips:
    def test_arch_config(self):
        arch = bench_arch(16)
        assert ArchConfig.from_dict(_json_round_trip(arch.to_dict())) == arch

    def test_arch_config_non_default(self):
        arch = ArchConfig(
            num_cores=36, num_memory_controllers=6, ackwise_pointers=2,
            link_model="naive", hop_latency=3,
        )
        assert ArchConfig.from_dict(_json_round_trip(arch.to_dict())) == arch

    def test_protocol_config(self):
        for proto in (
            adaptive_protocol(7, classifier="complete"),
            ProtocolConfig(protocol="victim", pct=1),
            ProtocolConfig(remote_policy="timestamp", one_way=True),
        ):
            assert ProtocolConfig.from_dict(_json_round_trip(proto.to_dict())) == proto

    def test_energy_config(self):
        cfg = EnergyConfig(l2_word_read=9.875)
        assert EnergyConfig.from_dict(_json_round_trip(cfg.to_dict())) == cfg


class TestStatRoundTrips:
    def test_latency_breakdown(self):
        bd = LatencyBreakdown(compute=1.25, l2_waiting=0.1 + 0.2, sync=7.0)
        again = LatencyBreakdown.from_dict(_json_round_trip(bd.to_dict()))
        assert again == bd
        assert again.total == bd.total

    def test_miss_stats(self):
        miss = MissStats()
        miss.hits = 41
        miss.record_miss(MissType.COLD)
        miss.record_miss(MissType.COLD)
        miss.record_miss(MissType.SHARING)
        again = MissStats.from_dict(_json_round_trip(miss.to_dict()))
        assert again.hits == 41
        assert again.breakdown() == miss.breakdown()
        assert again.miss_rate == miss.miss_rate

    def test_utilization_histogram(self):
        hist = UtilizationHistogram()
        for utilization in (1, 2, 3, 9, 100):
            hist.record(utilization)
        again = UtilizationHistogram.from_dict(_json_round_trip(hist.to_dict()))
        assert again.counts == hist.counts

    def test_energy_breakdown(self):
        energy = EnergyBreakdown(l1i=1.5, link=2.25, router=0.3)
        again = EnergyBreakdown.from_dict(_json_round_trip(energy.to_dict()))
        assert again == energy


class TestRunStatsRoundTrip:
    @pytest.fixture(scope="class")
    def stats(self) -> RunStats:
        job = Job(
            workload="dijkstra-ss", proto=adaptive_protocol(4),
            arch=bench_arch(16), scale="tiny",
        )
        return execute_job(job)

    def test_bit_identical_through_json(self, stats):
        again = RunStats.from_dict(_json_round_trip(stats.to_dict()))
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            stats.to_dict(), sort_keys=True
        )

    def test_every_field_survives(self, stats):
        import dataclasses

        again = RunStats.from_dict(_json_round_trip(stats.to_dict()))
        for f in dataclasses.fields(RunStats):
            original = getattr(stats, f.name)
            loaded = getattr(again, f.name)
            if f.name in RunStats._COMPOSITE_FIELDS:
                continue
            assert loaded == original, f.name
        assert again.latency == stats.latency
        assert again.energy == stats.energy
        assert again.miss.to_dict() == stats.miss.to_dict()
        assert again.inval_histogram.counts == stats.inval_histogram.counts
        assert again.evict_histogram.counts == stats.evict_histogram.counts

    def test_simulation_produced_real_content(self, stats):
        # Guard against a vacuous round-trip of all-zero stats.
        assert stats.instructions > 0
        assert stats.miss.accesses > 0
        assert stats.energy.total > 0
        assert stats.inval_histogram.total + stats.evict_histogram.total > 0
