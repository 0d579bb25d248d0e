"""DLS engine tests: directoryless word-granularity service at the home."""

from __future__ import annotations

from repro.common.params import dls_protocol
from repro.common.types import MESIState, MissType
from repro.coherence.directory import NullSharerPolicy
from repro.protocol.dls import DLSEngine
from tests.protocol.test_engine import BASE, LINE, WORD, share_page, small_arch


def make_dls_engine(verify: bool = True) -> DLSEngine:
    return DLSEngine(small_arch(), dls_protocol(), verify=verify)


class TestWordService:
    def test_every_access_is_a_miss(self):
        engine = make_dls_engine()
        for i in range(5):
            result = engine.access(0, False, BASE, 100.0 * i)
            assert not result.hit
            assert result.remote
        assert engine.miss_stats.hits == 0
        assert engine.miss_stats.misses == 5
        assert engine.miss_stats.miss_rate == 1.0

    def test_first_touch_cold_then_word(self):
        engine = make_dls_engine()
        assert engine.access(0, False, BASE, 0.0).miss_type is MissType.COLD
        assert engine.access(0, True, BASE, 100.0).miss_type is MissType.WORD
        assert engine.access(0, False, BASE, 200.0).miss_type is MissType.WORD

    def test_l1_never_fills(self):
        engine = make_dls_engine()
        engine.access(0, False, BASE, 0.0)
        engine.access(0, True, BASE, 100.0)
        assert engine.l1_state(0, BASE // LINE) is MESIState.INVALID
        assert all(l1.store.occupancy() == 0 for l1 in engine.l1d)

    def test_word_counters_at_home(self):
        engine = make_dls_engine()
        engine.access(0, False, BASE, 0.0)
        engine.access(1, True, BASE, 100.0)
        assert sum(s.word_reads for s in engine.l2) == 1
        assert sum(s.word_writes for s in engine.l2) == 1
        assert sum(s.line_reads for s in engine.l2) == 0


class TestDirectoryless:
    def test_no_directory_state(self):
        engine = make_dls_engine()
        engine.access(0, False, BASE, 0.0)
        engine.access(1, True, BASE, 100.0)
        assert engine.directory_entry(BASE // LINE) is None
        assert isinstance(engine.sharer_policy, NullSharerPolicy)
        assert engine.sharer_policy.storage_bits_per_entry() == 0

    def test_no_invalidation_traffic(self):
        """A write-read-write ping-pong costs exactly request + reply each."""
        engine = make_dls_engine()
        share_page(engine)  # pin R-NUCA's page classification first
        home = engine.placement.shared_word_home(BASE // LINE, 0)
        a, b = [c for c in range(12) if c != home][:2]  # off-home actors
        engine.access(a, True, BASE, 100.0)  # cold fill happens here
        before = engine.network.messages_sent
        engine.access(b, False, BASE, 500.0)
        engine.access(a, True, BASE, 1000.0)
        assert engine.network.messages_sent - before == 4
        assert engine.inval_histogram.total == 0

    def test_config_normalizes_directory_to_none(self):
        assert dls_protocol().directory == "none"


class TestWordInterleaving:
    """Pin the DLS LLC interleaving function (ROADMAP fidelity fix)."""

    def test_interleaving_function_is_round_robin_over_words(self):
        engine = make_dls_engine()
        placement = engine.placement
        num_cores = engine.arch.num_cores
        wpl = engine.arch.words_per_line
        for line in (0, 1, 17, BASE // LINE, BASE // LINE + 3):
            for word in range(wpl):
                assert placement.shared_word_home(line, word) == (
                    (line * wpl + word) % num_cores
                )

    def test_consecutive_words_stripe_across_consecutive_slices(self):
        engine = make_dls_engine()
        line = BASE // LINE
        homes = [engine.placement.shared_word_home(line, w) for w in range(8)]
        first = homes[0]
        assert homes == [(first + i) % engine.arch.num_cores for i in range(8)]
        # The next line continues the stripe where this one left off.
        assert engine.placement.shared_word_home(line + 1, 0) == (
            (first + 8) % engine.arch.num_cores
        )

    def test_shared_accesses_route_to_per_word_homes(self):
        """Two words of one shared line are serviced at different slices."""
        engine = make_dls_engine()
        share_page(engine)
        line = BASE // LINE
        h0 = engine.placement.shared_word_home(line, 0)
        h3 = engine.placement.shared_word_home(line, 3)
        assert h0 != h3
        engine.access(0, True, BASE, 100.0)
        engine.access(1, True, BASE + 3 * WORD, 200.0)
        assert engine.l2[h0].word_writes == 1
        assert engine.l2[h3].word_writes == 1
        # Each word home keeps its own copy of the line.
        assert engine.l2[h0].lookup(line) is not None
        assert engine.l2[h3].lookup(line) is not None

    def test_private_pages_stay_at_owner_for_every_word(self):
        engine = make_dls_engine()
        for word in range(8):
            engine.access(5, True, BASE + word * WORD, 100.0 * word)
        assert engine.l2[5].word_writes == 8
        assert sum(s.word_writes for s in engine.l2) == 8

    def test_word_masked_writeback_preserves_golden_memory(self):
        """Evicting one word home must not clobber words homed elsewhere."""
        engine = make_dls_engine(verify=True)
        share_page(engine)
        line = BASE // LINE
        engine.access(0, True, BASE, 100.0)  # word 0 at its home
        engine.access(1, True, BASE + 3 * WORD, 200.0)  # word 3 elsewhere
        h0 = engine.placement.shared_word_home(line, 0)
        ventry = engine.l2[h0].lookup(line)
        assert ventry is not None and ventry.dirty
        # Force the word-0 home to evict its copy; word 3's value must
        # survive in the assembled final image.
        engine.home_kernel.evict_l2_line(h0, line, ventry, 1000.0)
        engine.l2[h0].remove(line)
        engine.check_final_state()

    def test_dirty_word_mask_is_per_slice(self):
        """A slice masks exactly the words it serviced writes for - never
        words homed at other slices (its images of those may be stale)."""
        engine = make_dls_engine(verify=True)
        share_page(engine)
        line = BASE // LINE
        engine.access(0, True, BASE, 100.0)
        engine.access(1, True, BASE + 3 * WORD, 200.0)
        h0 = engine.placement.shared_word_home(line, 0)
        h3 = engine.placement.shared_word_home(line, 3)
        assert engine.l2[h0].lookup(line).dirty_words == 1 << 0
        assert engine.l2[h3].lookup(line).dirty_words == 1 << 3

    def test_disjoint_dirty_evictions_merge_in_either_order(self):
        """Two cores dirty disjoint words at two word homes; evicting the
        homes in EITHER order must merge both words into the DRAM image
        (the per-word write-back masking audit, ISSUE 7 satellite)."""
        line = BASE // LINE
        for first_word in (0, 3):
            engine = make_dls_engine(verify=True)
            share_page(engine)
            engine.access(0, True, BASE, 100.0)  # core 0 dirties word 0
            engine.access(1, True, BASE + 3 * WORD, 200.0)  # core 1, word 3
            homes = {
                w: engine.placement.shared_word_home(line, w) for w in (0, 3)
            }
            order = [homes[first_word], homes[3 - first_word]]
            for t, home in zip((1000.0, 2000.0), order):
                ventry = engine.l2[home].lookup(line)
                assert ventry is not None and ventry.dirty
                engine.home_kernel.evict_l2_line(home, line, ventry, t)
                engine.l2[home].remove(line)
            golden = engine.golden.line_snapshot(line)
            image = engine._dram_image[line]
            assert image[0] == golden[0] != 0
            assert image[3] == golden[3] != 0
            engine.check_final_state()


class TestVerifiedData:
    def test_write_read_roundtrip_under_golden(self):
        engine = make_dls_engine(verify=True)
        engine.access(0, True, BASE, 0.0)
        engine.access(1, False, BASE, 100.0)  # golden check inside
        engine.access(2, True, BASE + 8, 200.0)
        engine.access(3, False, BASE + 8, 300.0)
        engine.check_final_state()

    def test_serialization_on_same_line(self):
        """Back-to-back writes to one line pay L2 waiting time."""
        engine = make_dls_engine()
        share_page(engine)  # pin the home so no mid-test page transition
        engine.access(0, True, BASE, 100.0)
        result = engine.access(1, True, BASE, 100.0)
        assert result.l2_waiting > 0
