"""Directory-based protocol families: baseline ACKwise and the
Locality-Aware Adaptive Coherence protocol (Section 3).

This engine services every L1 miss the way the paper's hardware would:

* computes the R-NUCA home slice for the line (flushing a private page's old
  slice when it transitions to shared);
* serializes requests to the same line at the home L2 ("L2 cache waiting
  time");
* fetches the line from off-chip memory on an L2 miss (inclusive L2, so an
  L2 eviction invalidates all L1 copies first);
* asks the locality classifier whether the requester is a **private** or a
  **remote** sharer and services the miss accordingly:

  - private read  -> synchronous write-back from an exclusive owner if any,
    then a full line reply (E if no other sharers, else S);
  - private write -> invalidation round to all other sharers (ACKwise
    unicast or broadcast), then an M-state line reply (header-only grant for
    an upgrade);
  - remote read   -> word read at the home L2, word reply;
  - remote write  -> invalidation round, then word write at the home L2;

* tracks private utilization in L1 tags, remote utilization + mode (+ RAT
  level / timestamps) at the directory, performing promotion on remote
  accesses and demotion when L1 copies are evicted or invalidated;
* accounts every message (flit-accurate, Section 3.6 rules), every cache/
  directory access (for the energy model) and the four L2-side latency
  components of Section 4.4.

Each miss runs in the engine's one kernel, the directory subtype of the
home kernel (DESIGN.md section 15): the compiled ``DirectoryKernel`` or
its pure-Python twin :class:`PyDirectoryKernel` below, a subclass of
:class:`repro.protocol.home.PyHomeKernel` that takes the home steps on
itself: the home from ``data_home``, the request and reply legs, the
time-independent bookkeeping (``serve_word`` or the line grant), then
``settle``.  Every miss takes one shape: ``deliver_request``, the
requester's classification, the invalidation or write-back round if one is
needed, then ``reply``, reserved before the bookkeeping.  The victim and
phase families each run a subtype of this kernel that takes over some of
its steps (:mod:`repro.protocol.victim`, :mod:`repro.protocol.phase`).

The engine is *globally magic*: requests are serviced atomically in
simulation order while all latencies come from the network/DRAM/serialization
models.  This is the standard trace-driven methodology; per-line
serialization keeps the coherence order well defined.

With ``protocol="baseline"`` the classifier is disabled and every sharer is
private - the plain ACKwise/full-map directory protocol the paper
normalizes against.
"""

from __future__ import annotations

from repro import accel
from repro.common import addr as addrmod
from repro.common.errors import CoherenceError, SimulationError
from repro.common.types import MESIState, RemovalReason, SharerMode
from repro.coherence.directory import DirectoryEntry
from repro.mem.cache import CacheLine
from repro.mem.l2 import L2Line
from repro.network.messages import MsgType
from repro.protocol.base import (
    _EVER_CACHED,
    _EVER_REMOTE,
    _LAST_REMOVAL_INVAL,
    AccessResult,
    ProtocolEngineBase,
)
from repro.protocol.home import PyHomeKernel


_LINE_BITS = addrmod.LINE_BITS
_WORD_BITS = addrmod.WORD_BITS
_SHARED = MESIState.SHARED
_EXCLUSIVE = MESIState.EXCLUSIVE
_MODIFIED = MESIState.MODIFIED
_classify_miss = ProtocolEngineBase._classify_miss

# Message types as plain ints: the mesh's flit table indexes by value, and
# int indexing skips the enum __index__ dispatch on the hot path.
_READ_REQ = int(MsgType.READ_REQ)
_WRITE_REQ = int(MsgType.WRITE_REQ)
_UPGRADE_REQ = int(MsgType.UPGRADE_REQ)
_LINE_REPLY = int(MsgType.LINE_REPLY)
_WORD_REPLY = int(MsgType.WORD_REPLY)
_WORD_WRITE_ACK = int(MsgType.WORD_WRITE_ACK)
_INV_REQ = int(MsgType.INV_REQ)
_INV_ACK = int(MsgType.INV_ACK)
_WB_REQ = int(MsgType.WB_REQ)
_WB_DATA = int(MsgType.WB_DATA)
_EVICT_NOTIFY = int(MsgType.EVICT_NOTIFY)
_EVICT_DIRTY = int(MsgType.EVICT_DIRTY)

# Sharer modes as module constants: identity checks against local names on
# the miss path instead of enum attribute loads.
_PRIVATE_MODE = SharerMode.PRIVATE
_REMOTE_MODE = SharerMode.REMOTE


class PyDirectoryKernel(PyHomeKernel):
    """The pure-Python directory kernel: the compiled ``DirectoryKernel``'s
    twin, and the directory families' subclass of the home kernel.

    One kernel serves one directory-family engine and runs each of its
    L1 misses: requester classification, the ACKwise/full-map sharer
    updates, the invalidation and synchronous write-back rounds, the
    private line grant with its L1 fill, the L1 eviction notice and the
    miss-type, history, histogram and energy bookkeeping.  The home side of
    the miss is the inherited home steps (:mod:`repro.protocol.home`),
    taken on the kernel itself: ``data_home``, ``deliver_request``, the
    round if one is needed, ``reply``, then ``serve_word`` or the line
    grant, then ``settle``.  Its fills attach a fresh
    ``DirectoryEntry`` to the new line.

    Methods: ``access`` (the whole access; the engine's ``access`` calls
    it) and ``evict_l2_line`` (the home kernel's L2 eviction, after the
    purge of the dying line's L1 copies).  The steps a family subtype
    takes over are ``evict_l2_line`` and the underscored methods
    ``_classify_requester``, ``_grant_private``, ``_handle_l1_eviction``
    and ``_purge_target_copy``; the compiled kernel reaches the same steps
    through function pointers its subtypes set.

    A kernel keeps no state: it works on the engine's objects (L1 and L2
    arrays, directory entries, classifier and sharer-policy counters, the
    histories) and re-reads ``energy``, ``miss_stats`` and both histograms
    from the engine per access, because ``reset_stats`` replaces them.  The
    classifier and the sharer policy are the reference of their steps, and
    this kernel calls them.  It refers to the engine through the home
    kernel's weak proxy.
    """

    __slots__ = (
        "_l1d",
        "_history",
        "_classifier",
        "_policy",
    )

    _entry_type = DirectoryEntry

    def __init__(self, engine, line_type, result_type) -> None:
        super().__init__(engine, line_type, result_type)
        self._l1d = engine.l1d
        self._history = engine._history
        self._classifier = engine.classifier
        self._policy = engine.sharer_policy

    # ==================================================================
    # One access
    # ==================================================================
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        engine = self._engine
        line = address >> _LINE_BITS
        l1 = self._l1d[core]
        entry = l1.lookup(line)
        if entry is not None and (not is_write or entry.state >= _EXCLUSIVE):
            # L1 hit (E -> M upgrade is silent).
            l1.hit(entry, now)
            engine.miss_stats.record_hit()
            if is_write:
                entry.state = _MODIFIED
                engine.energy.l1d_writes += 1
                if self._verify:
                    word = (address >> _WORD_BITS) & (self._words_per_line - 1)
                    engine._verified_l1_write(core, entry, line, word)
            else:
                engine.energy.l1d_reads += 1
                if self._verify:
                    word = (address >> _WORD_BITS) & (self._words_per_line - 1)
                    engine.golden.check_read(line, word, entry.data[word], f"L1 hit core {core}")
            return engine._hit_result
        word = (address >> _WORD_BITS) & (self._words_per_line - 1)
        upgrade = entry is not None  # write to an S-state copy

        # ---- the miss.
        l1.misses += 1
        energy = engine.energy
        energy.l1d_tag_accesses += 1
        result = AccessResult()

        # ---- request to the R-NUCA home (tag + directory lookup there).
        if is_write:
            req_msg = _UPGRADE_REQ if upgrade else _WRITE_REQ
        else:
            req_msg = _READ_REQ
        home, flush_owner = self.data_home(line, core)
        slice_, l2line, t = self.deliver_request(
            core, line, home, flush_owner, req_msg, now, result
        )
        energy.directory_lookups += 1
        serviced_remote, upgrade = self._classify_requester(
            engine, l1, l2line, core, line, is_write, upgrade
        )
        if is_write and (serviced_remote or upgrade):
            reply_msg = _WORD_WRITE_ACK
        else:
            reply_msg = _WORD_REPLY if serviced_remote else _LINE_REPLY

        # ---- miss classification uses the pre-service history (Section 4.4).
        history = self._history[core]
        flags = history.get(line, 0)
        miss_type = _classify_miss(flags, upgrade, serviced_remote)
        result.miss_type = miss_type
        result.remote = serviced_remote
        engine.miss_stats.record_miss(miss_type)

        dirent = l2line.directory

        # ---- coherence actions at the home.
        if is_write:
            # The no-other-sharers write (the common write miss) skips the
            # invalidation round.
            sharers = dirent.sharers
            if sharers and not (len(sharers) == 1 and core in sharers):
                sharers_lat = self._invalidate_sharers(engine, line, l2line, home, core, t)
                t += sharers_lat
                result.l2_sharers = sharers_lat
            classifier = self._classifier
            if classifier is not None:
                classifier.on_write(l2line, core)
        elif dirent.owner >= 0 and dirent.owner != core:
            sharers_lat = self._sync_writeback(engine, line, l2line, home, t)
            t += sharers_lat
            result.l2_sharers = sharers_lat

        # ---- service: the reply leg, then the time-independent bookkeeping
        # - a word access at the home L2 or a private line grant.
        reply_t = self.reply(home, core, reply_msg, t)
        if serviced_remote:
            self.serve_word(core, is_write, line, word, l2line, slice_)
            flags |= _EVER_REMOTE
        else:
            self._grant_private(
                engine, core, is_write, line, word, l2line, slice_, upgrade, reply_t
            )
            flags |= _EVER_CACHED
        history[line] = flags

        # ---- settle: writes and line grants own the line until the
        # directory settles; remote word reads only occupy it for a cycle.
        self.settle(slice_, l2line, t, is_write or not serviced_remote)
        energy.directory_updates += 1

        result.latency = reply_t - now
        result.l1_to_l2 = (
            result.latency - result.l2_waiting - result.l2_sharers - result.l2_offchip
        )
        if self._verify:
            dirent.check_invariants()
        return result

    # ==================================================================
    # The L1 purge of a dying L2 line, and the fold-back of an own S copy
    # ==================================================================
    def _remove_own_copy(self, engine, core: int, line: int, l2line: L2Line) -> None:
        """Fold back the requester's own stale S copy (classifier slot
        churn, or a phase change to write-shared)."""
        removed = self._l1d[core].remove(line)
        if removed is None:
            return
        engine.inval_histogram.record(removed.utilization)
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL
        if self._classifier is not None:
            self._classifier.on_removal(
                l2line, core, removed.utilization, RemovalReason.INVALIDATION
            )
        self._policy.remove_sharer(l2line.directory, core)

    def evict_l2_line(self, home: int, vline: int, ventry: L2Line, t: float) -> None:
        """Inclusive-L2 eviction: invalidate every L1 copy of ``vline``
        (the data flows straight to memory with the dying line), then the
        home kernel's eviction."""
        engine = self._engine
        network = self._network
        dirent = ventry.directory
        for c in list(dirent.sharers):
            network.unicast(home, c, MsgType.INV_REQ, t)
            ack_msg = self._purge_target_copy(engine, c, vline, ventry, False)
            network.unicast(c, home, ack_msg, t)
            self._policy.remove_sharer(dirent, c)
        super().evict_l2_line(home, vline, ventry, t)

    # ------------------------------------------------------------------
    # Requester classification (private vs remote sharer)
    # ------------------------------------------------------------------
    def _classify_requester(self, engine, l1, l2line, core, line, is_write, upgrade):
        """Ask the locality classifier how to service this requester: the
        requester's tracked entry (the probe of
        LimitedClassifier.locality_entry inlined - one dict get), else,
        when no slot is free, the majority vote of the tracked modes.
        Without a classifier (baseline, victim) every sharer is private.
        Returns ``(serviced_remote, upgrade)``.

        Touches no network or timing state; it runs after the request
        arrives and decides the reply type.  ``upgrade`` folds to
        False when the classifier votes remote for a core still holding an
        S copy (the copy is folded back via ``_remove_own_copy``).  This is
        the one policy step of the miss path: a family with a different
        service policy (phase's kernel, which needs ``is_write``) takes it
        over and inherits everything else.
        """
        classifier = self._classifier
        if classifier is None:
            return False, upgrade
        entries = l2line.locality
        centry = entries.get(core) if entries is not None else None
        if centry is None:
            centry = classifier.locality_entry(l2line, core, True)
        if centry is not None:
            mode = centry.mode
        else:
            # Untracked and untrackable (Limited_k, all slots active):
            # majority vote, inlined over the same live entry dict that
            # tracked_entries() would expose.
            classifier.vote_decisions += 1
            tracked = remote_votes = 0
            for e in l2line.locality.values():
                tracked += 1
                if e.mode is _REMOTE_MODE:
                    remote_votes += 1
            mode = _REMOTE_MODE if 2 * remote_votes > tracked else _PRIVATE_MODE

        if mode is not _REMOTE_MODE:
            return False, upgrade
        if upgrade:
            # Rare: the classifier lost this core's slot and votes remote
            # while it still holds an S copy - fold the copy back first.
            self._remove_own_copy(engine, core, line, l2line)
            upgrade = False
        l1_min = l1.min_set_last_access(line)
        promoted = classifier.on_remote_access(l2line, centry, l1_min, l1_min is None)
        return not promoted, upgrade

    # ------------------------------------------------------------------
    # Private (line) grant
    # ------------------------------------------------------------------
    def _grant_private(self, engine, core, is_write, line, word, l2line, slice_, upgrade, reply_t):
        """Directory/L1 bookkeeping of a private grant, run after the reply
        leg is reserved (its type depends only on ``is_write``/``upgrade``,
        never on the E-vs-S decision made here)."""
        dirent = l2line.directory
        classifier = self._classifier
        if classifier is not None:
            classifier.note_private_grant(l2line, core)
        policy = self._policy
        energy = engine.energy

        if is_write:
            policy.set_owner(dirent, core)
        else:
            policy.add_sharer(dirent, core)
            if len(dirent.sharers) == 1:
                policy.set_owner(dirent, core)  # E grant
        if not upgrade:
            slice_.line_reads += 1
            energy.l2_line_reads += 1

        l1 = self._l1d[core]
        if upgrade:
            entry = l1.lookup(line)
            if entry is None:
                raise SimulationError(f"upgrade for core {core} but no L1 copy of {line:#x}")
            entry.state = _MODIFIED
            # Same side effects as a hit (LRU, utilization, timestamp) but
            # without touching the hit counter: this access is a miss.
            l1.store.touch(entry)
            entry.utilization += 1
            entry.last_access = reply_t
            energy.l1d_writes += 1
            if self._verify:
                engine._verified_l1_write(core, entry, line, word)
            return

        if is_write:
            state = _MODIFIED
        elif dirent.owner == core:
            state = _EXCLUSIVE
        else:
            state = _SHARED
        data = list(l2line.data) if self._verify else None
        evicted = l1.fill(line, state, reply_t, data)
        energy.l1d_line_fills += 1
        if evicted is not None:
            self._handle_l1_eviction(engine, core, evicted[0], evicted[1], reply_t)
        entry = l1.lookup(line)
        if is_write:
            energy.l1d_writes += 1
            if self._verify:
                engine._verified_l1_write(core, entry, line, word)
        else:
            energy.l1d_reads += 1
            if self._verify:
                engine.golden.check_read(line, word, entry.data[word], f"fill read core {core}")

    # ------------------------------------------------------------------
    # Invalidations (exclusive requests) - Section 3.2 write handling.
    # ------------------------------------------------------------------
    def _invalidate_sharers(self, engine, line, l2line, home, requester, t):
        """Invalidate every private sharer except ``requester`` (the caller
        checked there is one).

        Returns the "L2 cache to sharers" latency: the round-trip until all
        acknowledgements (with piggybacked utilization counters) arrive.
        ACKwise broadcasts when its pointers overflowed; acknowledgements
        come only from the true sharers.
        """
        dirent = l2line.directory
        targets = [c for c in dirent.sharers if c != requester]
        paths = self._paths
        resolve = self._resolve
        traverse = self._traverse
        flits_tab = self._flits
        num_tiles = self._num_tiles
        policy = self._policy
        if policy.use_broadcast(dirent):
            arrivals = self._network.broadcast(home, MsgType.INV_BROADCAST, t)
            policy.broadcast_invalidations += 1
        else:
            # All INVs depart together at ``t``, reserved in target order
            # before any ack: each ack departs at its own INV arrival and
            # may differ in type.
            inv_flits = flits_tab[_INV_REQ]
            arrivals = {}
            for c in targets:
                path = paths[home * num_tiles + c]
                if path is None:
                    path = resolve(home, c)
                arrivals[c] = traverse(path, t, inv_flits)
            policy.unicast_invalidations += len(targets)
        done = t
        for c in targets:
            ack_msg = self._purge_target_copy(engine, c, line, l2line, True)
            path = paths[c * num_tiles + home]
            if path is None:
                path = resolve(c, home)
            ack_t = traverse(path, arrivals[c], flits_tab[ack_msg])
            if ack_t > done:
                done = ack_t
            policy.remove_sharer(dirent, c)
        return done - t

    # ------------------------------------------------------------------
    def _purge_target_copy(self, engine, core, line, l2line, merge_into_l2):
        """Kill ``core``'s private copy of ``line``; return the ack type.

        Handles histogram/history/classifier bookkeeping and, for MODIFIED
        copies, the write-back of the line data into ``l2line``
        (``merge_into_l2`` charges the L2 write; it is False when the L2
        line itself is dying - its locality state dies with it and the data
        flows straight to memory).
        """
        removed = self._l1d[core].remove(line)
        if removed is None:
            raise CoherenceError(f"directory lists core {core} for line {line:#x} but L1 empty")
        putil = removed.utilization
        engine.inval_histogram.record(putil)
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL
        if merge_into_l2 and self._classifier is not None:
            self._classifier.on_removal(l2line, core, putil, RemovalReason.INVALIDATION)
        if removed.state is not _MODIFIED:
            return _INV_ACK
        energy = engine.energy
        energy.l1d_line_reads += 1
        l2line.dirty = True
        if merge_into_l2:
            energy.l2_line_writes += 1
        if self._verify:
            l2line.data = list(removed.data)
        return _WB_DATA

    # ------------------------------------------------------------------
    # Synchronous write-back (read request hits an exclusive owner).
    # ------------------------------------------------------------------
    def _sync_writeback(self, engine, line, l2line, home, t):
        # The WB_REQ to the owner, then its ack, departing at the request's
        # arrival.
        dirent = l2line.directory
        owner = dirent.owner
        entry = self._l1d[owner].lookup(line)
        if entry is None:
            raise CoherenceError(f"owner {owner} of line {line:#x} has no L1 copy")
        dirty = entry.state is _MODIFIED
        msg = _WB_DATA if dirty else _INV_ACK  # data vs clean downgrade ack
        paths = self._paths
        num_tiles = self._num_tiles
        flits = self._flits
        path = paths[home * num_tiles + owner]
        if path is None:
            path = self._resolve(home, owner)
        t1 = self._traverse(path, t, flits[_WB_REQ])
        path = paths[owner * num_tiles + home]
        if path is None:
            path = self._resolve(owner, home)
        ack_t = self._traverse(path, t1, flits[msg])
        if dirty:
            energy = engine.energy
            energy.l1d_line_reads += 1
            energy.l2_line_writes += 1
            l2line.dirty = True
            if self._verify:
                l2line.data = list(entry.data)
        entry.state = _SHARED
        self._policy.clear_owner(dirent)
        return ack_t - t

    # ------------------------------------------------------------------
    # L1 evictions (capacity/conflict) - utilization flows back to the home.
    # ------------------------------------------------------------------
    def _handle_l1_eviction(self, engine, core, vline, ventry, t):
        vhome = self._home_of_line.get(vline)
        if vhome is None:
            raise SimulationError(f"evicting line {vline:#x} with unknown home")
        engine.evict_histogram.record(ventry.utilization)
        hist = self._history[core]
        hist[vline] = (hist.get(vline, 0) | _EVER_CACHED) & ~_LAST_REMOVAL_INVAL
        dirty = ventry.state is _MODIFIED
        msg = _EVICT_DIRTY if dirty else _EVICT_NOTIFY
        path = self._paths[core * self._num_tiles + vhome]
        if path is None:
            path = self._resolve(core, vhome)
        self._traverse(path, t, self._flits[msg])  # off the critical path
        vl2 = self._l2[vhome].lookup(vline)
        if vl2 is None:
            raise CoherenceError(f"inclusion violation: L1 evicts {vline:#x} absent from L2")
        energy = engine.energy
        if dirty:
            energy.l1d_line_reads += 1
            energy.l2_line_writes += 1
            vl2.dirty = True
            if self._verify:
                vl2.data = list(ventry.data)
        if self._classifier is not None:
            self._classifier.on_removal(vl2, core, ventry.utilization, RemovalReason.EVICTION)
        self._policy.remove_sharer(vl2.directory, core)
        energy.directory_updates += 1


class DirectoryEngine(ProtocolEngineBase):
    """Directory protocol engine (baseline ACKwise / adaptive classifier).

    The miss path runs in the engine's one kernel (``home_kernel``,
    DESIGN.md section 15), the directory subtype of the home kernel: the
    compiled ``DirectoryKernel`` exactly when the mesh kernel is compiled,
    else its pure-Python twin :class:`PyDirectoryKernel`.  The engine keeps
    the entry point the scheduler calls and the fast-path descriptor; a
    family subclass names its own kernel pair (``_kernel_classes``), a
    subtype of this one.
    """

    __slots__ = ()

    _kernel_classes = (accel.directory_kernel_class, PyDirectoryKernel)

    # ==================================================================
    # Public entry point
    # ==================================================================
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store issued by ``core`` at time ``now``: one
        call into the kernel.

        Plain runs never hit in L1 here: both scheduler kernels retire
        every hit inline through :meth:`scheduler_fast_path`.  Hits reach
        this method in verify mode, which checks each one against the
        golden memory.
        """
        return self.home_kernel.access(core, is_write, address, now)

    def scheduler_fast_path(self) -> dict | None:
        """Expose the L1 structures for the scheduler's inline hit path.

        Directory-family L1 hits (including the silent E -> M upgrade) are
        pure tag-side bookkeeping, so the simulator may service them
        without calling :meth:`access`.  Verify mode checks every hit
        against the golden memory and must take the full path.
        """
        if self.verify:
            return None
        store = self.l1d[0].store
        return {
            # All cores' set dicts in one flat list: bucket of (core, line)
            # is ``buckets[(core << set_bits) | (line & set_mask)]`` - a
            # single index operation per probe.  The dict objects are
            # shared with the stores, so miss-path fills/evictions are
            # visible here immediately.
            "buckets": [bucket for l1 in self.l1d for bucket in l1.store._sets],
            "set_bits": (store.num_sets - 1).bit_length(),
            "stores": [l1.store for l1 in self.l1d],
            "l1s": self.l1d,
            "set_mask": store._set_mask,
            "exclusive": _EXCLUSIVE,
            "modified": _MODIFIED,
            # C-adoption field (DESIGN.md sec. 14): the compiled scheduler
            # kernel resolves CacheLine's __slots__ member offsets from
            # this type and reads/writes entries through them directly.
            "line_type": CacheLine,
        }
