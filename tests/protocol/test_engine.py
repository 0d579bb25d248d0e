"""Protocol engine tests: MESI flows, word service, promotion/demotion."""

import pytest

from repro.common.params import ArchConfig, CacheGeometry, ProtocolConfig, baseline_protocol
from repro.common.types import MESIState, MissType
from repro.protocol.directory import DirectoryEngine

WORD = 8
LINE = 64
BASE = 1 << 30  # comfortably above address 0


def small_arch() -> ArchConfig:
    """16 cores with tiny caches so evictions are easy to provoke."""
    return ArchConfig(
        num_cores=16,
        num_memory_controllers=4,
        l1i=CacheGeometry(1, 2, 1),
        l1d=CacheGeometry(1, 2, 1),  # 16 lines, 8 sets
        l2=CacheGeometry(4, 4, 7),  # 64 lines per slice
    )


def make_engine(proto=None, verify=True):
    return DirectoryEngine(small_arch(), proto or baseline_protocol(), verify=verify)


def share_page(engine, now=0.0):
    """Touch BASE's page from two cores so R-NUCA classifies it shared.

    Multi-core scenarios need this: the first cross-core touch of a private
    page flushes the old owner's slice (invalidating its L1 copies), which
    would otherwise obscure the coherence behaviour under test.
    """
    engine.access(14, False, BASE + 62 * LINE, now)
    engine.access(15, False, BASE + 63 * LINE, now + 1.0)


class TestHitsAndMisses:
    def test_first_access_is_cold_miss(self):
        engine = make_engine()
        result = engine.access(0, False, BASE, 0.0)
        assert not result.hit
        assert result.miss_type is MissType.COLD
        assert result.latency > 0

    def test_second_access_hits(self):
        engine = make_engine()
        engine.access(0, False, BASE, 0.0)
        result = engine.access(0, False, BASE, 100.0)
        assert result.hit
        assert engine.miss_stats.hits == 1

    def test_read_grants_exclusive_to_sole_sharer(self):
        engine = make_engine()
        engine.access(0, False, BASE, 0.0)
        assert engine.l1_state(0, BASE // LINE) is MESIState.EXCLUSIVE

    def test_second_reader_downgrades_to_shared(self):
        engine = make_engine()
        share_page(engine)
        engine.access(0, False, BASE, 100.0)
        engine.access(1, False, BASE, 500.0)
        line = BASE // LINE
        assert engine.l1_state(0, line) is MESIState.SHARED
        assert engine.l1_state(1, line) is MESIState.SHARED
        entry = engine.directory_entry(line)
        assert entry.sharers == {0, 1}
        assert entry.owner == -1

    def test_write_grants_modified(self):
        engine = make_engine()
        engine.access(0, True, BASE, 0.0)
        line = BASE // LINE
        assert engine.l1_state(0, line) is MESIState.MODIFIED
        assert engine.directory_entry(line).owner == 0

    def test_silent_e_to_m_upgrade(self):
        engine = make_engine()
        engine.access(0, False, BASE, 0.0)  # E
        result = engine.access(0, True, BASE, 100.0)
        assert result.hit  # no directory involvement
        assert engine.l1_state(0, BASE // LINE) is MESIState.MODIFIED

    def test_write_invalidates_readers(self):
        engine = make_engine()
        engine.access(0, False, BASE, 0.0)
        engine.access(1, False, BASE, 500.0)
        result = engine.access(2, True, BASE, 1000.0)
        line = BASE // LINE
        assert engine.l1_state(0, line) is MESIState.INVALID
        assert engine.l1_state(1, line) is MESIState.INVALID
        assert engine.l1_state(2, line) is MESIState.MODIFIED
        assert result.l2_sharers > 0  # invalidation round-trips were paid
        assert engine.inval_histogram.total == 2

    def test_upgrade_miss_classified(self):
        engine = make_engine()
        share_page(engine)
        engine.access(0, False, BASE, 100.0)
        engine.access(1, False, BASE, 500.0)  # both S now
        result = engine.access(0, True, BASE, 1000.0)
        assert result.miss_type is MissType.UPGRADE
        assert engine.l1_state(0, BASE // LINE) is MESIState.MODIFIED
        assert engine.l1_state(1, BASE // LINE) is MESIState.INVALID

    def test_sharing_miss_after_invalidation(self):
        engine = make_engine()
        engine.access(0, False, BASE, 0.0)
        engine.access(1, True, BASE, 500.0)  # invalidates core 0
        result = engine.access(0, False, BASE, 1000.0)
        assert result.miss_type is MissType.SHARING

    def test_capacity_miss_after_eviction(self):
        engine = make_engine()
        # Three lines mapping to the same L1 set (8 sets) force an eviction.
        engine.access(0, False, BASE, 0.0)
        engine.access(0, False, BASE + 8 * LINE, 100.0)
        engine.access(0, False, BASE + 16 * LINE, 200.0)
        result = engine.access(0, False, BASE, 300.0)
        assert result.miss_type is MissType.CAPACITY

    def test_modified_data_flows_to_reader(self):
        engine = make_engine()
        share_page(engine)
        # Pick a writer that is NOT the home tile, so the synchronous
        # write-back round-trip actually crosses the network.
        home = engine.placement.shared_home(BASE // LINE)
        writer = (home + 1) % 16
        reader = (home + 2) % 16
        engine.access(writer, True, BASE, 100.0)  # M in writer
        result = engine.access(reader, False, BASE, 500.0)
        assert result.l2_sharers > 0  # synchronous write-back
        # verify mode checks the value internally; reaching here means the
        # write-back propagated correctly.
        assert engine.l1_state(writer, BASE // LINE) is MESIState.SHARED


class TestAdaptiveProtocol:
    def adaptive(self, **kwargs):
        base = dict(pct=4, classifier="complete", remote_policy="rat")
        base.update(kwargs)
        return ProtocolConfig(**base)

    def test_demotion_then_word_service(self):
        engine = make_engine(self.adaptive())
        # Fill set 0 beyond capacity with single-use lines -> demotions.
        for i in range(4):
            engine.access(0, False, BASE + i * 8 * LINE, i * 100.0)
        # Lines BASE and BASE+8*LINE were evicted with utilization 1.
        assert engine.classifier.demotions >= 1
        result = engine.access(0, False, BASE, 1000.0)
        assert result.remote
        assert result.miss_type in (MissType.CAPACITY, MissType.WORD)
        assert engine.classifier.remote_accesses == 1
        # No L1 copy was allocated.
        assert engine.l1_state(0, BASE // LINE) is MESIState.INVALID

    def test_word_miss_classification_on_repeat(self):
        engine = make_engine(self.adaptive())
        for i in range(4):
            engine.access(0, False, BASE + i * 8 * LINE, i * 100.0)
        engine.access(0, False, BASE, 1000.0)
        result = engine.access(0, False, BASE, 1100.0)
        assert result.miss_type is MissType.WORD

    def test_remote_write_stored_at_l2(self):
        engine = make_engine(self.adaptive())
        for i in range(4):
            engine.access(0, True, BASE + i * 8 * LINE, i * 100.0)
        result = engine.access(0, True, BASE, 1000.0)
        assert result.remote
        # A later private read by another core must see the written word.
        engine.access(1, False, BASE, 2000.0)  # verify mode checks the value

    def test_promotion_after_enough_remote_accesses(self):
        engine = make_engine(self.adaptive())
        for i in range(4):
            engine.access(0, False, BASE + i * 8 * LINE, i * 100.0)
        # Demoted via eviction -> RAT threshold raised to 16, but the L1 set
        # has invalid ways in other sets... keep accessing: the short-cut
        # (invalid way + utilization >= PCT) or RATmax promotes eventually.
        for i in range(20):
            engine.access(0, False, BASE, 2000.0 + i * 50)
        assert engine.classifier.promotions >= 1
        assert engine.l1_state(0, BASE // LINE) is not MESIState.INVALID

    def test_baseline_never_remote(self):
        engine = make_engine(baseline_protocol())
        for i in range(6):
            engine.access(0, False, BASE + i * 8 * LINE, i * 100.0)
            engine.access(0, False, BASE, 50.0 + i * 100.0)
        assert engine.classifier is None
        assert engine.miss_stats.count(MissType.WORD) == 0


class TestEnergyAccounting:
    def test_remote_word_cheaper_traffic_than_line(self):
        adaptive = ProtocolConfig(pct=4, classifier="complete")
        engine_a = make_engine(adaptive, verify=False)
        engine_b = make_engine(baseline_protocol(), verify=False)
        for engine in (engine_a, engine_b):
            for i in range(4):
                engine.access(0, False, BASE + i * 8 * LINE, i * 100.0)
            for i in range(6):
                engine.access(0, False, BASE, 1000.0 + i * 100)
        # The adaptive engine served the repeats as word accesses instead of
        # refilling (and re-evicting) full lines.
        assert engine_a.energy.l2_word_reads > 0
        assert engine_a.energy.l1d_line_fills < engine_b.energy.l1d_line_fills

    def test_counters_populated(self):
        engine = make_engine()
        engine.access(0, True, BASE, 0.0)
        energy = engine.energy
        assert energy.l2_tag_accesses >= 1
        assert energy.directory_lookups >= 1
        assert energy.l1d_line_fills == 1
        assert engine.network.flits_sent > 0


class TestStatsReset:
    def test_reset_keeps_state_clears_counters(self):
        engine = make_engine()
        engine.access(0, False, BASE, 0.0)
        engine.reset_stats()
        assert engine.miss_stats.accesses == 0
        assert engine.network.flits_sent == 0
        # The line is still cached: next access is a hit.
        assert engine.access(0, False, BASE, 100.0).hit
