"""Victim Replication baseline (Zhang & Asanovic, ISCA'05; paper Section 2.1).

Victim Replication (VR) starts from the same Private-L1 / Shared-L2
organization and uses the **local L2 slice as a victim cache** for lines
evicted from the L1: a subsequent miss on the victim hits the local slice
and is serviced without a network round-trip to the home.  The paper calls
out VR's central weakness - it "places all L1 cache victims into the local
L2 cache irrespective of whether they will be re-used in the future" - and
the comparison bench quantifies exactly that against the locality-aware
protocol.

Implementation notes (documented substitutions, see DESIGN.md):

* **Replicas are clean.**  A MODIFIED victim writes its data back to the
  home (EVICT_DIRTY, as in the baseline) and keeps a clean local replica;
  the original VR keeps dirty replicas locally.  This sidesteps remote
  ownership tracking while preserving VR's defining behaviour - local
  re-use of L1 victims - at the cost of charging write-back traffic the
  original would sometimes defer.
* **Sharer semantics.**  A replica counts as the core's copy: the core
  stays in the home directory's sharer set, so exclusive requests
  invalidate replicas exactly like L1 copies (one ack per true copy).
  A SHARED victim therefore replicates with *zero* network traffic.
* **Replacement preference.**  A replica may claim a free way, another
  replica (LRU) or an idle home line (no sharers; clean preferred).  It
  never displaces a home line with active sharers - the original VR's
  rule - and the victim is simply not replicated when no candidate exists.
  Ties go to the first way, in the set's order, with the smallest LRU
  stamp.

Every access runs in the engine's one kernel, victim replication's
subtype of the directory kernel (DESIGN.md section 15): the compiled
``VictimKernel`` or its pure-Python twin :class:`PyVictimKernel` below.
The subtype takes over five steps of the directory kernel - a read miss
that hits a local replica, the L1 eviction (make a replica, making room
for it), the answer to an invalidation, the private grant (the
requester's own replica dies) and the L2 eviction of a replica (its
drop) - and the engine keeps only the five replica counters, which both
kernels update on it.
"""

from __future__ import annotations

from repro import accel
from repro.common.addr import LINE_BITS as _LINE_BITS
from repro.common.addr import WORD_BITS as _WORD_BITS
from repro.common.errors import CoherenceError
from repro.common.types import MESIState
from repro.mem.l2 import L2Line
from repro.network.messages import MsgType
from repro.protocol.base import _EVER_CACHED, _LAST_REMOVAL_INVAL, AccessResult
from repro.protocol.directory import DirectoryEngine, PyDirectoryKernel

_SHARED = MESIState.SHARED
_EXCLUSIVE = MESIState.EXCLUSIVE
_MODIFIED = MESIState.MODIFIED
_INV_ACK = int(MsgType.INV_ACK)
_EVICT_NOTIFY = int(MsgType.EVICT_NOTIFY)
_EVICT_DIRTY = int(MsgType.EVICT_DIRTY)


def _lru(entries):
    """The first ``(line, entry)`` of ``entries`` with the smallest
    ``last_use``."""
    return min(entries, key=lambda item: item[1].last_use)


class PyVictimKernel(PyDirectoryKernel):
    """The pure-Python victim kernel: the compiled ``VictimKernel``'s twin,
    and victim replication's subtype of the directory kernel.

    It takes over ``access`` (a read miss on a line the local slice holds
    as a replica is served from it), ``_handle_l1_eviction`` (keep the
    victim as a local replica), ``_purge_target_copy`` (a replica answers
    an invalidation like an L1 copy), ``_grant_private`` (the requester's
    own replica dies) and ``evict_l2_line`` (a replica chosen as an L2
    victim is dropped); every other step is the directory kernel's.
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # A read miss served by the local replica: no network traffic.
    # ------------------------------------------------------------------
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        if not is_write:
            line = address >> _LINE_BITS
            if self._l1d[core].lookup(line) is None:
                local = self._l2[core]
                entry = local.lookup(line)
                if entry is not None and entry.is_replica:
                    word = (address >> _WORD_BITS) & (self._words_per_line - 1)
                    return self._replica_hit(core, line, word, entry, local, now)
        return super().access(core, is_write, address, now)

    def _replica_hit(self, core, line, word, replica, local, now):
        """Service a read miss from the local replica.

        The replica is promoted back into the L1 (and freed); the home
        directory still lists this core as a sharer, so no message is
        needed.  This is VR's entire benefit: a shared-L2 hit at private-L2
        latency.
        """
        engine = self._engine
        engine.replica_hits += 1
        local.hits += 1
        local.line_reads += 1
        energy = engine.energy
        energy.l2_tag_accesses += 1
        energy.l2_line_reads += 1
        t = now + self._l2_latency
        local.touch(replica, t)

        result = AccessResult()
        history = self._history[core]
        flags = history.get(line, 0)
        result.miss_type = engine._classify_miss(flags, False, False)
        engine.miss_stats.record_miss(result.miss_type)
        history[line] = flags | _EVER_CACHED

        data = list(replica.data) if self._verify and replica.data is not None else None
        local.remove(line)
        l1 = self._l1d[core]
        evicted = l1.fill(line, _SHARED, t, data)
        energy.l1d_line_fills += 1
        if evicted is not None:
            self._handle_l1_eviction(engine, core, evicted[0], evicted[1], t)
        energy.l1d_reads += 1
        if self._verify:
            l1entry = l1.lookup(line)
            engine.golden.check_read(line, word, l1entry.data[word], f"replica hit core {core}")
        result.latency = t - now
        result.l1_to_l2 = result.latency
        return result

    # ------------------------------------------------------------------
    # L1 evictions: try to keep the victim as a local replica.
    # ------------------------------------------------------------------
    def _handle_l1_eviction(self, engine, core, vline, ventry, t):
        vhome = self._home_of_line.get(vline)
        if vhome is None:
            raise CoherenceError(f"evicting line {vline:#x} with unknown home")
        if vhome == core:
            # The home slice is local: a replica would duplicate it.
            super()._handle_l1_eviction(engine, core, vline, ventry, t)
            return
        if not self._make_room_for_replica(engine, core, vline, t):
            engine.replication_failures += 1
            super()._handle_l1_eviction(engine, core, vline, ventry, t)
            return

        engine.evict_histogram.record(ventry.utilization)
        hist = self._history[core]
        hist[vline] = (hist.get(vline, 0) | _EVER_CACHED) & ~_LAST_REMOVAL_INVAL

        vl2 = self._l2[vhome].lookup(vline)
        if vl2 is None:
            raise CoherenceError(f"inclusion violation: L1 evicts {vline:#x} absent from L2")
        dirent = vl2.directory
        energy = engine.energy
        if ventry.state is _MODIFIED:
            # Write the dirty data home; the local replica stays clean.
            self._network.unicast(core, vhome, _EVICT_DIRTY, t)
            energy.l1d_line_reads += 1
            energy.l2_line_writes += 1
            vl2.dirty = True
            if self._verify:
                vl2.data = list(ventry.data)
            self._policy.clear_owner(dirent)
        elif ventry.state is _EXCLUSIVE:
            # Tell the home it lost its exclusive owner (kept as a sharer).
            self._network.unicast(core, vhome, _EVICT_NOTIFY, t)
            self._policy.clear_owner(dirent)
        # SHARED victims replicate silently: the home already lists the core
        # as a sharer and nothing else changes - zero traffic.

        replica = L2Line()
        replica.is_replica = True
        replica.last_access = t
        if self._verify:
            replica.data = list(ventry.data) if ventry.data is not None else None
        displaced = self._l2[core].store.insert(vline, replica)
        if displaced is not None:  # cannot happen: room was made above
            raise CoherenceError("replica insert displaced a line after making room")
        energy.l2_line_writes += 1
        engine.replicas_created += 1

    def _make_room_for_replica(self, engine, core: int, vline: int, t: float) -> bool:
        """Free a way of ``core``'s slice for a replica of ``vline``; True
        when one is available.

        Preference order (the original VR's rule): free way > LRU replica >
        idle clean home line > idle dirty home line.  Home lines with
        sharers are never displaced.
        """
        store = self._l2[core].store
        if store.has_free_way(vline):
            return True
        entries = store.entries_in_set(vline)
        replicas = [(ln, e) for ln, e in entries if e.is_replica]
        if replicas:
            self._drop_replica(engine, core, _lru(replicas)[0], t)
            return True
        idle = [(ln, e) for ln, e in entries if not e.is_replica and not e.directory.sharers]
        if not idle:
            return False
        clean_idle = [(ln, e) for ln, e in idle if not e.dirty]
        ln, entry = _lru(clean_idle or idle)
        self.evict_l2_line(core, ln, entry, t)
        store.pop(ln)
        return True

    def _drop_replica(self, engine, core: int, line: int, t: float) -> None:
        """Discard ``core``'s replica of ``line``, releasing its sharer
        slot at the home."""
        home = self._home_of_line.get(line)
        if home is None:
            raise CoherenceError(f"replica of line {line:#x} with unknown home")
        self._l2[core].store.pop(line)
        self._network.unicast(core, home, _EVICT_NOTIFY, t)
        homeline = self._l2[home].lookup(line)
        if homeline is None:
            raise CoherenceError(f"replica of {line:#x} outlived its home line")
        self._policy.remove_sharer(homeline.directory, core)
        engine.energy.directory_updates += 1
        engine.replica_evictions += 1

    # ------------------------------------------------------------------
    # Coherence: replicas answer invalidations like L1 copies.
    # ------------------------------------------------------------------
    def _purge_target_copy(self, engine, core, line, l2line, merge_into_l2):
        if self._l1d[core].lookup(line) is not None:
            return super()._purge_target_copy(engine, core, line, l2line, merge_into_l2)
        local = self._l2[core]
        replica = local.lookup(line)
        if replica is None or not replica.is_replica:
            raise CoherenceError(
                f"directory lists core {core} for line {line:#x} but it holds "
                "neither an L1 copy nor a replica"
            )
        local.remove(line)
        engine.replica_invalidations += 1
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL
        return _INV_ACK  # replicas are clean: never any data to return

    # ------------------------------------------------------------------
    # The requester's own replica dies when it receives a private copy.
    # ------------------------------------------------------------------
    def _grant_private(self, engine, core, is_write, line, word, l2line, slice_, upgrade,
                       reply_t):
        local = self._l2[core]
        own = local.lookup(line)
        if own is not None and own.is_replica:
            local.remove(line)
            engine.replica_evictions += 1
        super()._grant_private(
            engine, core, is_write, line, word, l2line, slice_, upgrade, reply_t
        )

    # ------------------------------------------------------------------
    # L2 victim selection may hit a replica (it has no directory state).
    # ------------------------------------------------------------------
    def evict_l2_line(self, home, vline, ventry, t):
        if ventry.is_replica:
            self._drop_replica(self._engine, home, vline, t)
            return
        super().evict_l2_line(home, vline, ventry, t)


class VictimReplicationEngine(DirectoryEngine):
    """Protocol engine with victim replication in the local L2 slices."""

    __slots__ = (
        "replicas_created",
        "replica_hits",
        "replica_invalidations",
        "replica_evictions",
        "replication_failures",
    )

    _kernel_classes = (accel.victim_kernel_class, PyVictimKernel)

    def __init__(self, arch, proto, verify: bool = False) -> None:
        super().__init__(arch, proto, verify)
        # Statistics.
        self.replicas_created = 0
        self.replica_hits = 0
        self.replica_invalidations = 0
        self.replica_evictions = 0
        self.replication_failures = 0

    def reset_stats(self) -> None:
        """Also zero the replica counters for warmup/measure runs."""
        super().reset_stats()
        self.replicas_created = 0
        self.replica_hits = 0
        self.replica_invalidations = 0
        self.replica_evictions = 0
        self.replication_failures = 0

    def export_stats(self, stats) -> None:
        stats.replicas_created = self.replicas_created
        stats.replica_hits = self.replica_hits
        stats.replica_invalidations = self.replica_invalidations
        stats.replica_evictions = self.replica_evictions
