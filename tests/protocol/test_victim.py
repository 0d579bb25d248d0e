"""Victim Replication tests (Section 2.1 comparison point).

Scenario conventions follow ``test_engine.py``: a tiny 16-core system so
evictions are easy to provoke, ``share_page`` to pin R-NUCA's page
classification, and verify mode on so golden-memory checks run.  Acting
cores are chosen away from the shared line's home slice, because a victim
whose home is the local slice is (correctly) never replicated.
"""

from __future__ import annotations

import pytest

from repro.common.errors import CoherenceError
from repro.common.params import victim_replication_protocol
from repro.common.types import MESIState
from repro.protocol.victim import VictimReplicationEngine
from tests.protocol.test_engine import BASE, LINE, share_page, small_arch


def make_vr_engine(verify: bool = True) -> VictimReplicationEngine:
    return VictimReplicationEngine(small_arch(), victim_replication_protocol(), verify=verify)


def evict_line(engine, core: int, line_addr: int, start: float) -> float:
    """Evict ``line_addr`` from ``core``'s L1 by filling its 2-way set.

    The tiny L1 has 8 sets; lines that are 8 lines apart map to the same
    set.  Returns the next free timestamp.
    """
    t = start
    for i in (1, 2):
        engine.access(core, False, line_addr + i * 8 * LINE, t)
        t += 200.0
    return t


def setup_shared_line(engine) -> tuple[int, int]:
    """Make BASE's page shared and return two cores that are NOT its home.

    Replication only happens when the victim's home is a *remote* slice, so
    the acting cores must differ from wherever R-NUCA hashed the line.
    """
    share_page(engine)
    home = engine.placement.shared_home(BASE // LINE)
    cores = [c for c in range(12) if c != home]
    return cores[0], cores[1]


def fill_replica_set(engine) -> tuple[int, list[int], float]:
    """Fill one 4-way set of a core's slice with replicas, BASE's the LRU.

    Lines 16 apart share BASE's L1 set and its L2 set; the seven of them
    span two pages, both made shared first.  The acting core ``a`` is
    the home of none of them, and a second core keeps BASE shared.  ``a``
    reads the first six, so its 2-way L1 set sends four victims - BASE
    first - into the local set.  Returns ``a``, the lines and the next free
    timestamp; ``a`` reading the last line makes a fifth victim, whose
    replica needs the LRU replica's way.
    """
    page = engine.arch.page_size
    for page_start in (BASE, BASE + page):
        engine.access(14, False, page_start + 62 * LINE, 0.0)
        engine.access(15, False, page_start + 63 * LINE, 1.0)
    lines = [BASE + k * 16 * LINE for k in range(7)]
    homes = {engine.placement.shared_home(x // LINE) for x in lines}
    a, b = [c for c in range(12) if c not in homes][:2]
    engine.access(b, False, BASE, 50.0)
    t = 100.0
    for x in lines[:-1]:
        engine.access(a, False, x, t)
        t += 200.0
    replicas = [ln for ln, e in engine.l2[a].store.entries_in_set(BASE // LINE) if e.is_replica]
    assert replicas == [x // LINE for x in lines[:4]]
    assert a in engine.directory_entry(BASE // LINE).sharers
    return a, lines, t


class TestReplicaCreation:
    def test_shared_eviction_creates_local_replica(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)  # both S now
        evict_line(engine, a, BASE, 500.0)
        assert engine.replicas_created >= 1
        replica = engine.l2[a].lookup(BASE // LINE)
        assert replica is not None and replica.is_replica

    def test_shared_eviction_with_replica_sends_no_message(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        t = 500.0
        # Bring the first filler line in, and warm the second one's home L2
        # (two other cores read it, so it sits in S with no owner): the
        # final access is then exactly one request + one line reply.
        others = [x for x in range(12) if x not in (a, b)][:2]
        engine.access(a, False, BASE + 8 * LINE, t)
        engine.access(others[0], False, BASE + 16 * LINE, t + 100.0)
        engine.access(others[1], False, BASE + 16 * LINE, t + 200.0)
        messages_before = engine.network.messages_sent
        engine.access(a, False, BASE + 16 * LINE, t + 400.0)
        # The final access costs one request + one reply; the silent S
        # replication of the displaced BASE line adds nothing.
        assert engine.network.messages_sent - messages_before <= 2
        replica = engine.l2[a].lookup(BASE // LINE)
        assert replica is not None and replica.is_replica

    def test_replica_holder_stays_in_sharer_set(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        assert a in engine.directory_entry(BASE // LINE).sharers

    def test_no_replica_when_home_slice_is_local(self):
        # R-NUCA places a private page at the requester's own slice: a
        # replica would duplicate the local home line.
        engine = make_vr_engine()
        engine.access(0, False, BASE, 0.0)  # private page, home = slice 0
        evict_line(engine, 0, BASE, 100.0)
        assert engine.replicas_created == 0

    def test_modified_eviction_writes_back_and_replicates_clean(self):
        engine = make_vr_engine()
        a, _b = setup_shared_line(engine)
        engine.access(a, True, BASE, 100.0)
        home = engine._home_of_line[BASE // LINE]
        evict_line(engine, a, BASE, 300.0)
        assert engine.replicas_created >= 1
        homeline = engine.l2[home].lookup(BASE // LINE)
        assert homeline.dirty  # data went home
        assert engine.directory_entry(BASE // LINE).owner == -1

    def test_exclusive_eviction_clears_owner_but_keeps_sharer(self):
        engine = make_vr_engine()
        a, _b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        assert engine.directory_entry(BASE // LINE).owner == a
        evict_line(engine, a, BASE, 300.0)
        entry = engine.directory_entry(BASE // LINE)
        assert entry.owner == -1
        assert a in entry.sharers


class TestReplicaHits:
    def test_read_after_eviction_hits_replica_without_network(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        flits_before = engine.network.flits_sent
        result = engine.access(a, False, BASE, 2000.0)
        assert engine.replica_hits == 1
        # The hit itself is traffic-free; the L1 fill may displace another
        # line whose eviction notice is one header flit.  A home round-trip
        # would have cost a request plus a 9-flit line reply.
        assert engine.network.flits_sent - flits_before <= 1
        assert not result.hit  # still an L1 miss, just a cheap one
        assert result.latency == engine.arch.l2.latency

    def test_replica_promotes_back_into_l1(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        engine.access(a, False, BASE, 2000.0)
        assert engine.l1_state(a, BASE // LINE) is MESIState.SHARED
        assert engine.l2[a].lookup(BASE // LINE) is None  # replica freed

    def test_replica_hit_is_cheaper_than_home_roundtrip(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        hit = engine.access(a, False, BASE, 2000.0)
        # Same access pattern without a replica: line 3 sets away, fresh
        # from its (remote) home slice.
        fresh = engine.access(a, False, BASE + 3 * LINE, 3000.0)
        assert hit.latency <= fresh.latency

    def test_replica_hit_counts_as_l1_miss(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        misses_before = engine.miss_stats.misses
        engine.access(a, False, BASE, 2000.0)
        assert engine.miss_stats.misses == misses_before + 1


class TestCoherence:
    def test_remote_write_invalidates_replica(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        engine.access(b, True, BASE, 2000.0)  # exclusive request
        assert engine.replica_invalidations == 1
        assert engine.l2[a].lookup(BASE // LINE) is None
        assert engine.directory_entry(BASE // LINE).sharers == {b}

    def test_own_write_discards_own_replica(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        engine.access(a, True, BASE, 2000.0)
        replica = engine.l2[a].lookup(BASE // LINE)
        assert replica is None or not replica.is_replica
        assert engine.l1_state(a, BASE // LINE) is MESIState.MODIFIED

    def test_functional_correctness_with_replicas(self):
        # Golden-memory checks stay green across replicate/hit/invalidate.
        engine = make_vr_engine(verify=True)
        a, b = setup_shared_line(engine)
        engine.access(a, True, BASE, 100.0)  # core a writes
        evict_line(engine, a, BASE, 300.0)  # dirty eviction -> clean replica
        engine.access(a, False, BASE, 2000.0)  # replica hit, checked vs golden
        engine.access(b, True, BASE, 3000.0)  # remote write kills the L1 copy
        engine.access(a, False, BASE, 4000.0)  # fresh copy, checked again

    def test_directory_invariants_hold(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        engine.access(b, True, BASE, 2000.0)
        engine.directory_entry(BASE // LINE).check_invariants()

    def test_purge_without_copy_or_replica_raises(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        engine.l1d[a].remove(BASE // LINE)  # corrupt: drop the copy silently
        with pytest.raises(CoherenceError, match="neither an L1 copy nor a replica"):
            engine.access(b, True, BASE, 500.0)  # b's upgrade invalidates a


class TestReplacementAndFallback:
    def test_replication_failure_falls_back_to_plain_eviction(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        # Whatever happened, the directory stays coherent and the counters
        # are consistent: every eviction either replicated or fell back.
        engine.directory_entry(BASE // LINE).check_invariants()
        assert engine.replicas_created + engine.replication_failures >= 1

    def test_replica_drop_releases_home_sharer_slot(self):
        engine = make_vr_engine()
        a, lines, t = fill_replica_set(engine)
        engine.access(a, False, lines[-1], t)  # the fifth victim drops BASE's
        assert engine.l2[a].lookup(BASE // LINE) is None
        assert a not in engine.directory_entry(BASE // LINE).sharers
        assert engine.replica_evictions == 1

    def test_drop_replica_of_unknown_home_raises(self):
        engine = make_vr_engine()
        a, lines, t = fill_replica_set(engine)
        del engine._home_of_line[BASE // LINE]  # corrupt: forget the home
        with pytest.raises(CoherenceError, match=f"replica of line {BASE // LINE:#x} with unknown home"):
            engine.access(a, False, lines[-1], t)


class TestStatsPlumbing:
    def test_simulator_surfaces_replica_counters(self):
        from repro.experiments.harness import bench_arch
        from repro.sim.multicore import Simulator
        from repro.workloads.registry import load_workload

        arch = bench_arch()
        trace = load_workload("dijkstra-ap", arch, scale="tiny")
        stats = Simulator(arch, victim_replication_protocol()).run(trace)
        assert stats.replicas_created >= 0
        assert stats.replica_hits >= 0

    def test_reset_stats_zeroes_replica_counters(self):
        engine = make_vr_engine()
        a, b = setup_shared_line(engine)
        engine.access(a, False, BASE, 100.0)
        engine.access(b, False, BASE, 300.0)
        evict_line(engine, a, BASE, 500.0)
        assert engine.replicas_created > 0
        engine.reset_stats()
        assert engine.replicas_created == 0
        assert engine.replica_hits == 0


class TestEvictionCornerCases:
    """The thinnest-tested engine path: replica replacement under pressure.

    L2 geometry is 4KB/4-way (16 sets), so lines 16 apart share an L2 set;
    they are also 8 apart in L1 terms, so they share the 2-way L1 set too -
    a stride-16-line stream self-evicts from the L1 and funnels every
    victim into ONE set of the local slice, which is exactly the capacity
    churn the original VR replacement rules arbitrate.
    """

    STRIDE = 16 * LINE  # same L2 set (and same L1 set) as BASE

    def _share_pages_of(self, engine, addrs, start=0.0):
        """Pin every page containing ``addrs`` as R-NUCA-shared up front."""
        page_size = engine.arch.page_size
        t = start
        for page_start in sorted({a - a % page_size for a in addrs}):
            engine.access(14, False, page_start + 62 * LINE, t)
            engine.access(15, False, page_start + 63 * LINE, t + 1.0)
            t += 10.0
        return t

    def _off_home_core(self, engine, lines):
        """A core that is not the home slice of any of ``lines``."""
        homes = {engine.placement.shared_home(ln // LINE) for ln in lines}
        return next(c for c in range(12) if c not in homes)

    def test_replica_hit_after_l1_writeback(self):
        """A MODIFIED victim writes back home and re-reads from the replica.

        The corner: the replica must be *clean* yet hold the written data,
        so the replica hit serves the write's value without touching the
        home (golden checks run on every read).
        """
        engine = make_vr_engine(verify=True)
        t = self._share_pages_of(engine, [BASE])
        home = engine.placement.shared_home(BASE // LINE)
        a = next(c for c in range(12) if c != home)
        engine.access(a, True, BASE, t)  # M copy with a fresh token
        engine.access(a, True, BASE + 8, t + 50.0)  # second word dirtied
        evict_line(engine, a, BASE, t + 100.0)  # dirty writeback + replica
        replica = engine.l2[a].lookup(BASE // LINE)
        assert replica is not None and replica.is_replica
        assert not replica.dirty  # data went home; the replica is clean
        homeline = engine.l2[home].lookup(BASE // LINE)
        assert homeline.dirty
        hits_before = engine.replica_hits
        engine.access(a, False, BASE, t + 2000.0)  # golden-checked word 0
        assert engine.replica_hits == hits_before + 1
        engine.access(a, False, BASE + 8, t + 2100.0)  # word 1 via fresh L1 hit
        engine.check_final_state()

    def test_capacity_churn_drops_lru_replicas(self):
        """More victims than ways: the LRU replica yields its slot (and its
        home sharer bit) to the newcomer."""
        engine = make_vr_engine(verify=True)
        addrs = [BASE + k * self.STRIDE for k in range(8)]
        t = self._share_pages_of(engine, addrs)
        a = self._off_home_core(engine, addrs)
        for i, addr in enumerate(addrs):
            engine.access(a, False, addr, t + 100.0 * i)
        # 8 same-set lines through a 2-way L1: 6 evictions, all replicated
        # into the single 4-way local L2 set -> at least 2 LRU replicas died.
        assert engine.replicas_created == 6
        assert engine.replica_evictions >= 2
        resident = [
            ln for ln, e in engine.l2[a].store.entries_in_set(BASE // LINE) if e.is_replica
        ]
        assert len(resident) <= 4
        # Dropped replicas released their sharer slots at their homes.
        for addr in addrs:
            line = addr // LINE
            entry = engine.directory_entry(line)
            in_l1 = engine.l1d[a].lookup(line) is not None
            is_replica = line in resident
            assert (a in entry.sharers) == (in_l1 or is_replica)
            entry.check_invariants()
        # Churn never corrupted data: survivors still serve correct words.
        surviving = [addr for addr in addrs if addr // LINE in resident]
        assert surviving  # the MRU victims must have survived
        hits_before = engine.replica_hits
        engine.access(a, False, surviving[-1], t + 5000.0)
        assert engine.replica_hits == hits_before + 1
        engine.check_final_state()

    def test_l2_fill_displaces_replica_before_active_home_line(self):
        """An incoming home line claims a replica's way via the L2 victim
        path (the kernel's ``evict_l2_line`` on a replica drops it)."""
        engine = make_vr_engine(verify=True)
        addrs = [BASE + k * self.STRIDE for k in range(8)]
        t = self._share_pages_of(engine, addrs)
        a = self._off_home_core(engine, addrs)
        for i, addr in enumerate(addrs):
            engine.access(a, False, addr, t + 100.0 * i)
        drops_before = engine.replica_evictions
        # A *private* page of core ``a`` homes at slice ``a``; pick a line
        # mapping into the replica-filled set 0 (line number = 0 mod 16).
        # Its L2 fill must claim a replica's way (never an active home
        # line); the L1 fill may ripple one more victim into the set.
        private = 2 * BASE + (a * 64 + 0) * self.STRIDE
        engine.access(a, False, private, t + 5000.0)
        assert engine.replica_evictions > drops_before
        assert engine.l2[a].lookup(private // LINE) is not None
        engine.check_final_state()

    def test_no_replication_when_set_full_of_active_home_lines(self):
        """``_make_room_for_replica`` must refuse to displace live sharers."""
        engine = make_vr_engine()
        home = engine.placement.shared_home(BASE // LINE)
        a = next(c for c in range(12) if c != home)
        # Stuff set 0 of ``a``'s slice with four ACTIVE home lines: shared
        # lines that hash to home ``a``, each kept alive in a *different*
        # core's L1 (one core could hold at most two - every L2-set-0 line
        # also maps to L1 set 0).
        keepers = [c for c in range(12) if c != a][:4]
        pinned = []
        candidate = (2 * BASE) // LINE
        while len(pinned) < 4:
            if engine.placement.shared_home(candidate) == a:
                pinned.append(candidate * LINE)
            candidate += 16  # stay in L2 set 0
        t = self._share_pages_of(engine, pinned + [BASE])
        for keeper, addr in zip(keepers, pinned):
            engine.access(keeper, False, addr, t)
            t += 50.0
        set0 = engine.l2[a].store.entries_in_set(BASE // LINE)
        assert len(set0) == 4 and all(e.directory.sharers for _, e in set0)
        failures_before = engine.replication_failures
        engine.access(a, False, BASE, t + 1000.0)
        evict_line(engine, a, BASE, t + 2000.0)  # victim cannot replicate
        assert engine.replication_failures == failures_before + 1
        assert engine.l2[a].lookup(BASE // LINE) is None
        assert a not in engine.directory_entry(BASE // LINE).sharers


class TestCounterHygiene:
    def test_reset_stats_zeroes_replication_failures(self):
        engine = make_vr_engine()
        engine.replication_failures = 7
        engine.reset_stats()
        assert engine.replication_failures == 0

    def test_export_stats_does_not_mutate_engine_counters(self):
        from repro.sim.stats import RunStats

        engine = make_vr_engine()
        engine.replicas_created = 3
        engine.replication_failures = 5
        stats = RunStats()
        engine.export_stats(stats)
        assert stats.replicas_created == 3
        assert engine.replication_failures == 5  # export is read-only
