"""Configuration dataclass tests: Table-1 defaults and validation."""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (
    ArchConfig,
    CacheGeometry,
    EnergyConfig,
    ProtocolConfig,
    baseline_protocol,
)
from repro.network.topology import Mesh2D


class TestCacheGeometry:
    def test_table1_l1i(self):
        geo = CacheGeometry(16, 4, 1)
        assert geo.num_lines == 256
        assert geo.num_sets == 64

    def test_table1_l1d(self):
        geo = CacheGeometry(32, 4, 1)
        assert geo.num_lines == 512
        assert geo.num_sets == 128

    def test_table1_l2(self):
        geo = CacheGeometry(256, 8, 7)
        assert geo.num_lines == 4096
        assert geo.num_sets == 512

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheGeometry(24, 4, 1)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            CacheGeometry(-1, 4, 1)
        with pytest.raises(ConfigError):
            CacheGeometry(16, 0, 1)


class TestArchConfig:
    def test_table1_defaults(self):
        arch = ArchConfig()
        assert arch.num_cores == 64
        assert arch.frequency_ghz == 1.0
        assert arch.l1i.size_kb == 16 and arch.l1i.associativity == 4
        assert arch.l1d.size_kb == 32 and arch.l1d.associativity == 4
        assert arch.l2.size_kb == 256 and arch.l2.associativity == 8
        assert arch.l2.latency == 7
        assert arch.line_size == 64
        assert arch.hop_latency == 2
        assert arch.flit_bits == 64
        assert arch.num_memory_controllers == 8
        assert arch.dram_latency_cycles == 100
        assert arch.dram_bandwidth_bytes_per_cycle == 5.0
        assert arch.ackwise_pointers == 4

    def test_derived_quantities(self):
        arch = ArchConfig()
        assert Mesh2D(arch.num_cores).width == 8
        assert arch.words_per_line == 8
        assert arch.line_flits == 8
        assert arch.word_flits == 1

    def test_memory_controller_tiles_valid(self):
        arch = ArchConfig()
        assert len(arch.memory_controller_tiles) == 8
        assert len(set(arch.memory_controller_tiles)) == 8
        assert all(0 <= t < 64 for t in arch.memory_controller_tiles)

    def test_controller_interleaving_deterministic(self):
        arch = ArchConfig()
        assert arch.controller_for_line(0) == arch.controller_for_line(8)
        tiles = {arch.controller_for_line(line) for line in range(64)}
        assert tiles == set(arch.memory_controller_tiles)

    def test_rejects_non_square_core_count(self):
        with pytest.raises(ConfigError):
            ArchConfig(num_cores=48)

    def test_small_mesh_supported(self):
        arch = ArchConfig(num_cores=16, num_memory_controllers=4)
        assert Mesh2D(arch.num_cores).width == 4

    @pytest.mark.parametrize("hop", [0, -1, 2.5, 2.0, True, "2"])
    def test_rejects_non_integral_hop_latency(self, hop):
        """Both mesh walks advance an integer shadow clock by the hop
        latency; the serialized form reaches the same check."""
        with pytest.raises(ConfigError, match="hop_latency"):
            ArchConfig(num_cores=16, num_memory_controllers=4, hop_latency=hop)
        data = ArchConfig(num_cores=16, num_memory_controllers=4).to_dict()
        with pytest.raises(ConfigError, match="hop_latency"):
            ArchConfig.from_dict({**data, "hop_latency": hop})


class TestProtocolConfig:
    def test_paper_defaults(self):
        proto = ProtocolConfig()
        assert proto.pct == 4
        assert proto.classifier == "limited"
        assert proto.limited_k == 3
        assert proto.rat_max == 16
        assert proto.n_rat_levels == 2
        assert proto.remote_policy == "rat"
        assert proto.directory == "ackwise"
        assert not proto.one_way
        assert proto.is_adaptive

    def test_rat_levels_two(self):
        assert ProtocolConfig(pct=4, rat_max=16, n_rat_levels=2).rat_levels() == (4, 16)

    def test_rat_levels_single(self):
        assert ProtocolConfig(pct=4, n_rat_levels=1).rat_levels() == (4,)

    def test_rat_levels_monotone(self):
        for n in (2, 3, 4, 8):
            levels = ProtocolConfig(pct=4, rat_max=16, n_rat_levels=n).rat_levels()
            assert len(levels) == n
            assert levels[0] == 4 and levels[-1] == 16
            assert list(levels) == sorted(levels)

    def test_baseline_helper(self):
        base = baseline_protocol()
        assert base.protocol == "baseline"
        assert not base.is_adaptive
        assert base.pct == 1

    def test_replaced(self):
        proto = dataclasses.replace(ProtocolConfig(), pct=8)
        assert proto.pct == 8
        assert proto.limited_k == 3
        with pytest.raises(ConfigError, match="pct must be"):
            dataclasses.replace(proto, pct=0)  # a copy is validated anew

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(protocol="magic"),
            dict(pct=0),
            dict(classifier="oracle"),
            dict(limited_k=0),
            dict(remote_policy="psychic"),
            dict(rat_max=2, pct=4),
            dict(n_rat_levels=0),
            dict(directory="snooping"),
        ],
    )
    def test_validation_errors(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs)


class TestEnergyConfig:
    def test_relative_magnitudes(self):
        cfg = EnergyConfig()
        # Links cost more than routers per flit (11nm wire scaling).
        assert cfg.link_per_flit > cfg.router_per_flit
        # A line access is several times a word access at the L2.
        assert cfg.l2_line_read > 3 * cfg.l2_word_read
        # L1 accesses are cheaper than L2 word accesses.
        assert cfg.l1d_read < cfg.l2_word_read
        # Directory events are negligible next to cache accesses.
        assert cfg.directory_lookup < cfg.l1d_read

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            EnergyConfig(l1d_read=-1.0)


class TestDirectorylessValidation:
    def test_bogus_directory_rejected_even_for_directoryless_protocols(self):
        with pytest.raises(ConfigError, match="unknown directory"):
            ProtocolConfig(protocol="neat", directory="ackwize")

    def test_valid_directory_normalized_to_none(self):
        assert ProtocolConfig(protocol="dls", directory="fullmap").directory == "none"

    def test_none_directory_requires_directoryless_protocol(self):
        with pytest.raises(ConfigError, match="requires a sharer-tracking directory"):
            ProtocolConfig(protocol="baseline", directory="none")

    def test_directoryless_configs_are_canonical(self):
        from repro.common.params import dls_protocol, neat_protocol

        assert ProtocolConfig(protocol="dls") == dls_protocol()
        assert ProtocolConfig(protocol="neat", pct=8, classifier="complete") == neat_protocol()

    def test_directoryless_normalization_still_validates_inputs(self):
        with pytest.raises(ConfigError, match="unknown classifier"):
            ProtocolConfig(protocol="dls", classifier="bogus")
        with pytest.raises(ConfigError, match="pct must be"):
            ProtocolConfig(protocol="neat", pct=0)

    def test_replaced_escapes_directoryless_family(self):
        from repro.common.params import dls_protocol

        # A copy that leaves the directoryless family must name its
        # directory: the pinned "none" is rejected, not silently swapped.
        with pytest.raises(ConfigError, match="requires a sharer-tracking directory"):
            dataclasses.replace(dls_protocol(), protocol="adaptive", pct=4)
        full = dataclasses.replace(dls_protocol(), protocol="baseline", directory="fullmap")
        assert full.protocol == "baseline"
        assert full.directory == "fullmap"
