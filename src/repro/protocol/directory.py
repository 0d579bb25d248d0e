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

Each miss takes the home kernel's steps (``repro.protocol.home``): the
home from ``data_home``, the request and reply legs, the time-independent
bookkeeping (``serve_word`` or ``_grant_private``), then ``settle``.  The
invalidation or write-back round sits between the legs, so the engine
checks the line itself rather than calling ``round_trip``: with no page
flush, the line resident at the home and no round to run, request and
reply ride one ``chain_request_reply`` call; otherwise
``deliver_request``, the round, then ``reply``.  Either way the
requester is classified once (``_classify_requester``, the one policy
seam the phase family overrides) and the reply is reserved before the
bookkeeping.

The engine is *globally magic*: requests are serviced atomically in
simulation order while all latencies come from the network/DRAM/serialization
models.  This is the standard trace-driven methodology; per-line
serialization keeps the coherence order well defined.

With ``protocol="baseline"`` the classifier is disabled and every sharer is
private - the plain ACKwise/full-map directory protocol the paper
normalizes against.
"""

from __future__ import annotations

from repro.common import addr as addrmod
from repro.common.errors import CoherenceError, SimulationError
from repro.common.types import MESIState, RemovalReason, SharerMode
from repro.coherence.directory import DirectoryEntry
from repro.mem.cache import CacheLine
from repro.mem.l2 import L2Line, L2Slice
from repro.network.messages import MsgType
from repro.protocol.base import (
    _EVER_CACHED,
    _EVER_REMOTE,
    _LAST_REMOVAL_INVAL,
    AccessResult,
    ProtocolEngineBase,
)


_LINE_BITS = addrmod.LINE_BITS
_WORD_BITS = addrmod.WORD_BITS
_EXCLUSIVE = MESIState.EXCLUSIVE
_MODIFIED = MESIState.MODIFIED

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


class DirectoryEngine(ProtocolEngineBase):
    """Directory protocol engine (baseline ACKwise / adaptive classifier)."""

    __slots__ = ()

    # ==================================================================
    # Public entry point
    # ==================================================================
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store issued by ``core`` at time ``now``.

        Plain runs never hit in L1 here: both scheduler kernels retire
        every hit inline through :meth:`scheduler_fast_path`.  Hits reach
        this method in verify mode, which checks each one against the
        golden memory, so the hit branch is plain bookkeeping.
        """
        line = address >> _LINE_BITS
        l1 = self.l1d[core]
        entry = l1.lookup(line)
        if entry is not None and (not is_write or entry.state >= _EXCLUSIVE):
            # L1 hit (E -> M upgrade is silent).
            l1.hit(entry, now)
            self.miss_stats.record_hit()
            if is_write:
                entry.state = _MODIFIED
                self.energy.l1d_writes += 1
                if self.verify:
                    word = (address >> _WORD_BITS) & (self._words_per_line - 1)
                    self._verified_l1_write(core, entry, line, word)
            else:
                self.energy.l1d_reads += 1
                if self.verify:
                    word = (address >> _WORD_BITS) & (self._words_per_line - 1)
                    self.golden.check_read(line, word, entry.data[word], f"L1 hit core {core}")
            return self._hit_result
        word = (address >> _WORD_BITS) & (self._words_per_line - 1)
        upgrade = entry is not None  # write to an S-state copy
        return self._service_miss(core, is_write, line, word, now, upgrade)

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

    # ------------------------------------------------------------------
    def _install_line_state(self, l2line: L2Line) -> None:
        l2line.directory = DirectoryEntry()

    # ==================================================================
    # Miss path
    # ==================================================================
    def _service_miss(
        self,
        core: int,
        is_write: bool,
        line: int,
        word: int,
        now: float,
        upgrade: bool,
    ) -> AccessResult:
        l1 = self.l1d[core]
        l1.misses += 1
        energy = self.energy
        energy.l1d_tag_accesses += 1
        result = AccessResult()

        # ---- request to the R-NUCA home (tag + directory lookup there).
        if is_write:
            req_msg = _UPGRADE_REQ if upgrade else _WRITE_REQ
        else:
            req_msg = _READ_REQ
        home_kernel = self.home_kernel
        home, flush_owner = home_kernel.data_home(line, core)
        slice_ = self.l2[home]
        # Chained shape: no page flush, the line resident at the home, and
        # neither an invalidation round (writes: no foreign sharer) nor a
        # synchronous write-back (reads: no foreign exclusive owner) can
        # fire, so the request and reply are this miss's only traversals
        # and ride one traverse_chain call.  The check runs before
        # classification: _remove_own_copy - the only directory mutation
        # classification can make - removes the requester itself, which
        # cannot make a clean line dirty.
        chained = False
        if flush_owner is None:
            store = slice_.store
            l2line = store._sets[line & store._set_mask].get(line)
            if l2line is not None:
                dirent = l2line.directory
                if is_write:
                    sharers = dirent.sharers
                    chained = not sharers or (len(sharers) == 1 and core in sharers)
                else:
                    chained = dirent.owner < 0 or dirent.owner == core
        if not chained:
            slice_, l2line, t = home_kernel.deliver_request(
                core, line, home, flush_owner, req_msg, now, result
            )
        energy.directory_lookups += 1
        # Classification touches no network or timing state, so in the
        # chained shape it may run before the request is reserved.
        serviced_remote, upgrade = self._classify_requester(
            l1, l2line, core, line, is_write, upgrade
        )
        if is_write and (serviced_remote or upgrade):
            reply_msg = _WORD_WRITE_ACK
        else:
            reply_msg = _WORD_REPLY if serviced_remote else _LINE_REPLY
        if chained:
            t, reply_t = home_kernel.chain_request_reply(
                core, home, l2line, slice_, req_msg, reply_msg, now, result
            )

        # ---- miss classification uses the pre-service history (Section 4.4).
        history = self._history[core]
        flags = history.get(line, 0)
        miss_type = self._classify_miss(flags, upgrade, serviced_remote)
        result.miss_type = miss_type
        result.remote = serviced_remote
        self.miss_stats.record_miss(miss_type)

        dirent = l2line.directory

        # ---- coherence actions at the home.
        if is_write:
            # The no-other-sharers write (the common write miss) skips the
            # invalidation round without a call; _invalidate_sharers keeps
            # the same guard for its other callers.
            sharers = dirent.sharers
            if sharers and not (len(sharers) == 1 and core in sharers):
                sharers_lat = self._invalidate_sharers(line, l2line, home, core, t)
                t += sharers_lat
                result.l2_sharers = sharers_lat
            classifier = self.classifier
            if classifier is not None:
                classifier.on_write(l2line, core)
        elif dirent.owner >= 0 and dirent.owner != core:
            sharers_lat = self._sync_writeback(line, l2line, home, t)
            t += sharers_lat
            result.l2_sharers = sharers_lat

        # ---- service: the reply leg (already reserved when chained), then
        # the time-independent bookkeeping - a word access at the home L2
        # or a private line grant.
        if not chained:
            reply_t = home_kernel.reply(home, core, reply_msg, t)
        if serviced_remote:
            home_kernel.serve_word(core, is_write, line, word, l2line, slice_)
            flags |= _EVER_REMOTE
        else:
            self._grant_private(core, is_write, line, word, l2line, slice_, upgrade, reply_t)
            flags |= _EVER_CACHED
        history[line] = flags

        # ---- settle: writes and line grants own the line until the
        # directory settles; remote word reads only occupy it for a cycle.
        home_kernel.settle(slice_, l2line, t, is_write or not serviced_remote)
        energy.directory_updates += 1

        result.latency = reply_t - now
        result.l1_to_l2 = (
            result.latency - result.l2_waiting - result.l2_sharers - result.l2_offchip
        )
        if self.verify:
            dirent.check_invariants()
        return result

    # ------------------------------------------------------------------
    # Requester classification (private vs remote sharer)
    # ------------------------------------------------------------------
    def _classify_requester(
        self, l1, l2line: L2Line, core: int, line: int, is_write: bool, upgrade: bool
    ) -> tuple[bool, bool]:
        """Ask the locality classifier how to service this requester: the
        requester's tracked entry (the probe of
        LimitedClassifier.locality_entry inlined - one dict get), else,
        when no slot is free, the majority vote of the tracked modes.

        Touches no network or timing state, so it runs identically before
        the request departs (chained shape, which needs the reply type up
        front) or after it arrives (general path).  Returns
        ``(serviced_remote, upgrade)``; ``upgrade`` folds to False when
        the classifier votes remote for a core still holding an S copy
        (the copy is folded back via ``_remove_own_copy``).  This is the
        one policy seam of the miss path: a family with a different
        service policy (``PhaseEngine``, which needs ``is_write``)
        overrides it and inherits everything else.
        """
        classifier = self.classifier
        if classifier is None:
            mode, centry = _PRIVATE_MODE, None
        else:
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
                for e in entries.values():
                    tracked += 1
                    if e.mode is _REMOTE_MODE:
                        remote_votes += 1
                mode = _REMOTE_MODE if 2 * remote_votes > tracked else _PRIVATE_MODE

        if upgrade and mode is _REMOTE_MODE:
            # Rare: the classifier lost this core's slot and votes remote
            # while it still holds an S copy - fold the copy back first.
            self._remove_own_copy(core, line, l2line)
            upgrade = False

        serviced_remote = False
        if mode is _REMOTE_MODE:
            l1_min = l1.min_set_last_access(line)
            promoted = classifier.on_remote_access(
                l2line, centry, l1_min, l1_min is None
            )
            serviced_remote = not promoted
        return serviced_remote, upgrade

    # ------------------------------------------------------------------
    # Private (line) grant
    # ------------------------------------------------------------------
    def _grant_private(
        self,
        core: int,
        is_write: bool,
        line: int,
        word: int,
        l2line: L2Line,
        slice_: L2Slice,
        upgrade: bool,
        reply_t: float,
    ) -> None:
        """Directory/L1 bookkeeping of a private grant, run after the reply
        leg is reserved (its type depends only on ``is_write``/``upgrade``,
        never on the E-vs-S decision made here)."""
        dirent = l2line.directory
        classifier = self.classifier
        if classifier is not None:
            classifier.note_private_grant(l2line, core)
        policy = self.sharer_policy
        energy = self.energy

        if is_write:
            policy.set_owner(dirent, core)
        else:
            policy.add_sharer(dirent, core)
            if len(dirent.sharers) == 1:
                policy.set_owner(dirent, core)  # E grant
        if not upgrade:
            slice_.line_reads += 1
            energy.l2_line_reads += 1

        l1 = self.l1d[core]
        if upgrade:
            entry = l1.lookup(line)
            if entry is None:
                raise SimulationError(f"upgrade for core {core} but no L1 copy of {line:#x}")
            entry.state = MESIState.MODIFIED
            # Same side effects as a hit (LRU, utilization, timestamp) but
            # without touching the hit counter: this access is a miss.
            l1.store.touch(entry)
            entry.utilization += 1
            entry.last_access = reply_t
            energy.l1d_writes += 1
            if self.verify:
                self._verified_l1_write(core, entry, line, word)
            return

        if is_write:
            state = MESIState.MODIFIED
        elif dirent.owner == core:
            state = MESIState.EXCLUSIVE
        else:
            state = MESIState.SHARED
        data = list(l2line.data) if self.verify else None
        evicted = l1.fill(line, state, reply_t, data)
        energy.l1d_line_fills += 1
        if evicted is not None:
            self._handle_l1_eviction(core, evicted[0], evicted[1], reply_t)
        entry = l1.lookup(line)
        if is_write:
            energy.l1d_writes += 1
            if self.verify:
                self._verified_l1_write(core, entry, line, word)
        else:
            energy.l1d_reads += 1
            if self.verify:
                self.golden.check_read(line, word, entry.data[word], f"fill read core {core}")

    # ------------------------------------------------------------------
    # Invalidations (exclusive requests) - Section 3.2 write handling.
    # ------------------------------------------------------------------
    def _invalidate_sharers(
        self,
        line: int,
        l2line: L2Line,
        home: int,
        requester: int,
        t: float,
    ) -> float:
        """Invalidate every private sharer except ``requester``.

        Returns the "L2 cache to sharers" latency: the round-trip until all
        acknowledgements (with piggybacked utilization counters) arrive.
        ACKwise broadcasts when its pointers overflowed; acknowledgements
        come only from the true sharers.
        """
        dirent = l2line.directory
        sharers = dirent.sharers
        if not sharers or (len(sharers) == 1 and requester in sharers):
            return 0.0  # nobody else to invalidate (the common write miss)
        targets = [c for c in sharers if c != requester]
        if not targets:
            return 0.0
        paths = self._net_paths
        resolve = self._net_resolve
        traverse = self._net_traverse
        flits_tab = self._net_flits
        num_tiles = self._num_tiles
        if self.sharer_policy.use_broadcast(dirent):
            arrivals = self.network.broadcast(home, MsgType.INV_BROADCAST, t)
            self.sharer_policy.broadcast_invalidations += 1
        else:
            # All INVs depart together at ``t``: one batched traverse_many
            # reserves them in target order (one FFI crossing with the
            # compiled kernel).  The acks stay per-target below - each
            # departs at its own INV arrival and may differ in type - and
            # the all-INVs-then-acks reservation order is preserved.
            inv_paths = []
            for c in targets:
                path = paths[home * num_tiles + c]
                if path is None:
                    path = resolve(home, c)
                inv_paths.append(path)
            inv_flits = flits_tab[_INV_REQ]
            arrivals = dict(zip(targets, self._net_many(t, inv_flits, inv_paths)))
            self.sharer_policy.unicast_invalidations += len(targets)
        done = t
        for c in targets:
            ack_msg = self._purge_target_copy(c, line, l2line, merge_into_l2=True)
            path = paths[c * num_tiles + home]
            if path is None:
                path = resolve(c, home)
            ack_t = traverse(path, arrivals[c], flits_tab[ack_msg])
            if ack_t > done:
                done = ack_t
            self.sharer_policy.remove_sharer(dirent, c)
        return done - t

    # ------------------------------------------------------------------
    def _purge_target_copy(self, core: int, line: int, l2line: L2Line, merge_into_l2: bool) -> MsgType:
        """Kill ``core``'s private copy of ``line``; return the ack type.

        Handles histogram/history/classifier bookkeeping and, for MODIFIED
        copies, the write-back of the line data into ``l2line``
        (``merge_into_l2`` charges the L2 write; it is False when the L2
        line itself is dying - its locality state dies with it and the data
        flows straight to memory).  Subclasses override this to purge
        protocol-specific copies (e.g. local replicas in victim
        replication).
        """
        removed = self.l1d[core].remove(line)
        if removed is None:
            raise CoherenceError(f"directory lists core {core} for line {line:#x} but L1 empty")
        putil = removed.utilization
        self.inval_histogram.record(putil)
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL
        if merge_into_l2 and self.classifier is not None:
            self.classifier.on_removal(l2line, core, putil, RemovalReason.INVALIDATION)
        if removed.state is not MESIState.MODIFIED:
            return _INV_ACK
        self.energy.l1d_line_reads += 1
        l2line.dirty = True
        if merge_into_l2:
            self.energy.l2_line_writes += 1
        if self.verify:
            l2line.data = list(removed.data)
        return _WB_DATA

    # ------------------------------------------------------------------
    # Synchronous write-back (read request hits an exclusive owner).
    # ------------------------------------------------------------------
    def _sync_writeback(self, line: int, l2line: L2Line, home: int, t: float) -> float:
        # The ack type is readable from the owner's L1 state before the
        # WB_REQ departs, so both legs ride one traverse_chain call (the
        # ack departs exactly at the request's arrival: no gap, no busy).
        dirent = l2line.directory
        owner = dirent.owner
        entry = self.l1d[owner].lookup(line)
        if entry is None:
            raise CoherenceError(f"owner {owner} of line {line:#x} has no L1 copy")
        dirty = entry.state is MESIState.MODIFIED
        msg = _WB_DATA if dirty else _INV_ACK  # data vs clean downgrade ack
        paths = self._net_paths
        num_tiles = self._num_tiles
        path1 = paths[home * num_tiles + owner]
        if path1 is None:
            path1 = self._net_resolve(home, owner)
        path2 = paths[owner * num_tiles + home]
        if path2 is None:
            path2 = self._net_resolve(owner, home)
        flits = self._net_flits
        _, ack_t = self._net_chain(path1, flits[_WB_REQ], t, 0.0, 0.0, path2, flits[msg])
        if dirty:
            self.energy.l1d_line_reads += 1
            self.energy.l2_line_writes += 1
            l2line.dirty = True
            if self.verify:
                l2line.data = list(entry.data)
        entry.state = MESIState.SHARED
        self.sharer_policy.clear_owner(dirent)
        return ack_t - t

    # ------------------------------------------------------------------
    # L1 evictions (capacity/conflict) - utilization flows back to the home.
    # ------------------------------------------------------------------
    def _handle_l1_eviction(self, core: int, vline: int, ventry, t: float) -> None:
        vhome = self._home_of_line.get(vline)
        if vhome is None:
            raise SimulationError(f"evicting line {vline:#x} with unknown home")
        self.evict_histogram.record(ventry.utilization)
        hist = self._history[core]
        hist[vline] = (hist.get(vline, 0) | _EVER_CACHED) & ~_LAST_REMOVAL_INVAL
        dirty = ventry.state is MESIState.MODIFIED
        msg = _EVICT_DIRTY if dirty else _EVICT_NOTIFY
        path = self._net_paths[core * self._num_tiles + vhome]
        if path is None:
            path = self._net_resolve(core, vhome)
        self._net_traverse(path, t, self._net_flits[msg])  # off the critical path
        vslice = self.l2[vhome]
        vl2 = vslice.lookup(vline)
        if vl2 is None:
            raise CoherenceError(f"inclusion violation: L1 evicts {vline:#x} absent from L2")
        if dirty:
            self.energy.l1d_line_reads += 1
            self.energy.l2_line_writes += 1
            vl2.dirty = True
            if self.verify:
                vl2.data = list(ventry.data)
        if self.classifier is not None:
            self.classifier.on_removal(vl2, core, ventry.utilization, RemovalReason.EVICTION)
        self.sharer_policy.remove_sharer(vl2.directory, core)
        self.energy.directory_updates += 1

    # ------------------------------------------------------------------
    # Fold back the requester's own stale S copy (classifier slot churn).
    # ------------------------------------------------------------------
    def _remove_own_copy(self, core: int, line: int, l2line: L2Line) -> None:
        removed = self.l1d[core].remove(line)
        if removed is None:
            return
        self.inval_histogram.record(removed.utilization)
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL
        if self.classifier is not None:
            self.classifier.on_removal(
                l2line, core, removed.utilization, RemovalReason.INVALIDATION
            )
        self.sharer_policy.remove_sharer(l2line.directory, core)

    # ------------------------------------------------------------------
    # Inclusive-L2 eviction: kill all L1 copies first.
    # ------------------------------------------------------------------
    def _purge_copies_for_l2_eviction(self, home: int, vline: int, ventry: L2Line, t: float) -> None:
        dirent = ventry.directory
        for c in list(dirent.sharers):
            self.network.unicast(home, c, MsgType.INV_REQ, t)
            ack_msg = self._purge_target_copy(c, vline, ventry, merge_into_l2=False)
            self.network.unicast(c, home, ack_msg, t)
            self.sharer_policy.remove_sharer(dirent, c)
