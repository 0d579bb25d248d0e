"""Locality classifier tests: Complete, Limited_k, Timestamp/RAT, one-way."""

import pytest

from repro.coherence.classifier.complete import CompleteClassifier
from repro.coherence.classifier.limited import LimitedClassifier, make_classifier
from repro.common.params import ArchConfig, ProtocolConfig
from repro.common.types import RemovalReason, SharerMode
from repro.mem.l2 import L2Line
from repro.protocol.directory import DirectoryEngine


def make_line():
    return L2Line()


def proto(**kwargs):
    base = dict(pct=4, rat_max=16, n_rat_levels=2, remote_policy="rat")
    base.update(kwargs)
    return ProtocolConfig(**base)


class TestFactory:
    def test_limited_default(self):
        assert isinstance(make_classifier(proto()), LimitedClassifier)

    def test_complete(self):
        assert isinstance(make_classifier(proto(classifier="complete")), CompleteClassifier)


class TestCompleteClassifier:
    def test_initial_mode_private(self):
        cls = CompleteClassifier(proto())
        entry = cls.locality_entry(make_line(), 7, allocate=True)
        assert entry is not None and entry.core == 7
        assert entry.mode is SharerMode.PRIVATE

    def test_demotion_below_pct(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        cls.locality_entry(line, 0, allocate=True)
        new_mode = cls.on_removal(line, 0, private_util=3, reason=RemovalReason.EVICTION)
        assert new_mode is SharerMode.REMOTE
        assert cls.demotions == 1

    def test_stays_private_at_pct(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        cls.locality_entry(line, 0, allocate=True)
        assert cls.on_removal(line, 0, 4, RemovalReason.EVICTION) is SharerMode.PRIVATE

    def test_remote_plus_private_utilization_counted(self):
        """Section 3.2: classification adds remote to private utilization."""
        cls = CompleteClassifier(proto())
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        entry.mode = SharerMode.REMOTE
        cls.on_remote_access(line, entry, None, False)  # remote_util = 1... promoted
        # With an invalid way the short-cut does not apply below PCT.
        assert entry.remote_util == 1
        entry.mode = SharerMode.PRIVATE  # pretend promoted via another path
        assert cls.on_removal(line, 0, 3, RemovalReason.EVICTION) is SharerMode.PRIVATE

    def test_promotion_at_rat_threshold(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        entry.mode = SharerMode.REMOTE
        promoted = [cls.on_remote_access(line, entry, 10.0, False) for _ in range(4)]
        # RAT level 0 threshold == PCT == 4: promoted on the 4th access.
        assert promoted == [False, False, False, True]
        assert entry.mode is SharerMode.PRIVATE
        assert cls.promotions == 1

    def test_rat_escalation_on_eviction_demotion(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        cls.on_removal(line, 0, 1, RemovalReason.EVICTION)
        assert entry.rat_level == 1  # threshold now RATmax=16
        entry2 = cls.locality_entry(line, 0, allocate=True)
        promoted = sum(
            cls.on_remote_access(line, entry2, 10.0, False) for _ in range(15)
        )
        assert promoted == 0  # needs 16 accesses now
        assert cls.on_remote_access(line, entry2, 10.0, False)

    def test_rat_unchanged_on_invalidation_demotion(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        cls.on_removal(line, 0, 1, RemovalReason.INVALIDATION)
        assert entry.rat_level == 0

    def test_rat_reset_on_private_classification(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        cls.on_removal(line, 0, 1, RemovalReason.EVICTION)
        assert entry.rat_level == 1
        cls.on_removal(line, 0, 8, RemovalReason.EVICTION)
        assert entry.rat_level == 0  # re-learn opportunity

    def test_invalid_way_shortcut(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        cls.on_removal(line, 0, 1, RemovalReason.EVICTION)  # threshold 16 now
        entry = cls.locality_entry(line, 0, allocate=True)
        for _ in range(3):
            cls.on_remote_access(line, entry, None, True)
        # 4th access with an invalid way in the set: promote at PCT.
        assert cls.on_remote_access(line, entry, None, True)

    def test_write_resets_other_remote_sharers(self):
        cls = CompleteClassifier(proto())
        line = make_line()
        for core in (0, 1, 2):
            e = cls.locality_entry(line, core, allocate=True)
            e.mode = SharerMode.REMOTE
            e.remote_util = 3
        cls.on_write(line, writer=1)
        entries = {e.core: e for e in cls.tracked_entries(line)}
        assert entries[0].remote_util == 0 and not entries[0].active
        assert entries[2].remote_util == 0
        assert entries[1].remote_util == 3  # the writer keeps its counter

    def test_timestamp_check_pass_and_fail(self):
        cls = CompleteClassifier(proto(remote_policy="timestamp"))
        line = make_line()
        line.last_access = 100.0
        entry = cls.locality_entry(line, 0, allocate=True)
        entry.mode = SharerMode.REMOTE
        # Check passes: line hotter than the requester's coldest line.
        cls.on_remote_access(line, entry, l1_min_last_access=50.0, l1_has_invalid_way=False)
        assert entry.remote_util == 1
        cls.on_remote_access(line, entry, 50.0, False)
        assert entry.remote_util == 2
        # Check fails: counter resets to 1.
        cls.on_remote_access(line, entry, 200.0, False)
        assert entry.remote_util == 1

    def test_storage_bits_complete(self):
        assert CompleteClassifier(proto()).storage_bits_per_entry(64) == 384


class TestOneWay:
    def test_never_promotes(self):
        cls = CompleteClassifier(proto(one_way=True))
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        cls.on_removal(line, 0, 1, RemovalReason.EVICTION)
        entry = cls.locality_entry(line, 0, allocate=True)
        for _ in range(100):
            assert not cls.on_remote_access(line, entry, None, True)
        assert entry.mode is SharerMode.REMOTE

    def test_demotion_still_happens(self):
        cls = CompleteClassifier(proto(one_way=True))
        line = make_line()
        cls.locality_entry(line, 0, allocate=True)
        assert cls.on_removal(line, 0, 1, RemovalReason.EVICTION) is SharerMode.REMOTE


class TestLimitedClassifier:
    def test_tracks_up_to_k(self):
        cls = LimitedClassifier(proto(classifier="limited", limited_k=3))
        line = make_line()
        for core in range(3):
            entry = cls.locality_entry(line, core, allocate=True)
            assert entry is not None
        assert len(cls.tracked_entries(line)) == 3

    def test_vote_when_full_and_active(self):
        # Through the engine's own classification: cores 0-2 hold copies,
        # so their three active entries leave no slot for core 10 (or 11),
        # and the tracked modes' majority decides how the home serves it.
        engine = DirectoryEngine(
            ArchConfig(num_cores=16), proto(classifier="limited", limited_k=3)
        )
        cls = engine.classifier
        address = 1 << 30
        engine.access(14, False, address + 62 * 64, 0.0)
        engine.access(15, False, address + 63 * 64, 1.0)  # the page is shared
        for core in range(3):
            engine.access(core, False, address, 100.0 * (core + 1))
        line = engine.l2[engine._home_of_line[address >> 6]].lookup(address >> 6)
        entries = list(cls.tracked_entries(line))
        assert [entry.core for entry in entries] == [0, 1, 2]
        assert engine.access(10, False, address, 1000.0).remote is False
        assert cls.vote_decisions == 1  # private majority: line service
        for entry in entries:
            entry.mode = SharerMode.REMOTE  # still active
        assert engine.access(11, False, address, 2000.0).remote is True
        assert cls.vote_decisions == 2  # remote majority: word service
        assert cls.locality_entry(line, 10, allocate=False) is None
        assert cls.locality_entry(line, 11, allocate=False) is None

    def test_replacement_of_inactive_entry(self):
        cls = LimitedClassifier(proto(classifier="limited", limited_k=3))
        line = make_line()
        for core in range(3):
            cls.locality_entry(line, core, allocate=True)
        # Demote core 0: its entry becomes inactive (and remote).
        cls.on_removal(line, 0, 1, RemovalReason.INVALIDATION)
        entry = cls.locality_entry(line, 10, allocate=True)
        assert entry is not None and entry.core == 10
        assert cls.replacements == 1
        tracked = {e.core for e in cls.tracked_entries(line)}
        assert tracked == {1, 2, 10}

    def test_newcomer_starts_in_majority_mode(self):
        cls = LimitedClassifier(proto(classifier="limited", limited_k=3))
        line = make_line()
        for core in range(3):
            cls.locality_entry(line, core, allocate=True)
        for core in range(3):
            cls.on_removal(line, core, 1, RemovalReason.INVALIDATION)  # all remote now
        entry = cls.locality_entry(line, 10, allocate=True)
        assert entry is not None
        assert entry.mode is SharerMode.REMOTE  # inherited by majority vote

    def test_vote_tie_favours_private(self):
        cls = LimitedClassifier(proto(classifier="limited", limited_k=2))
        line = make_line()
        cls.locality_entry(line, 0, allocate=True)
        cls.locality_entry(line, 1, allocate=True)
        cls.on_removal(line, 0, 1, RemovalReason.INVALIDATION)  # 1 remote, 1 private
        # Both remaining entries active? core1 private-active, core0 remote-inactive.
        # Tie in modes -> private (the protocol's initial mode).
        assert cls.majority_vote(line) is SharerMode.PRIVATE

    def test_untracked_remote_vote_cannot_promote(self):
        cls = LimitedClassifier(proto(classifier="limited", limited_k=1))
        line = make_line()
        entry = cls.locality_entry(line, 0, allocate=True)
        entry.mode = SharerMode.REMOTE  # stays active
        assert cls.locality_entry(line, 5, allocate=True) is None
        assert cls.majority_vote(line) is SharerMode.REMOTE
        assert not cls.on_remote_access(line, None, None, True)

    def test_storage_bits_limited3(self):
        cls = LimitedClassifier(proto(classifier="limited", limited_k=3))
        assert cls.storage_bits_per_entry(64) == 36
