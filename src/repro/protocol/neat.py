"""Neat: low-complexity coherence without sharer tracking (Zhang et al.;
PAPERS.md).

Neat belongs to the self-invalidation / self-downgrade family: the home
never tracks sharers and never sends invalidations.  Instead, writers make
their stores visible at the home themselves (self-downgrade) and readers
discard possibly-stale private copies themselves (self-invalidation).  This
removes the directory - the entire sharer-tracking and invalidation machinery
- at the cost of extra write traffic and reload misses on write-shared data.

Modeling substitutions (documented in DESIGN.md, "Comparison-baseline
protocol families"):

* **Eager self-downgrade.**  Every store is written through to the home L2
  at word granularity (``WRITE_REQ`` carries the word; the home answers with
  a ``WORD_WRITE_ACK``).  The original defers the downgrade flush to release
  boundaries and batches dirty words; eager write-through is the
  conservative endpoint of that spectrum and keeps the home word-accurate at
  every instant.  A writer that still holds a clean copy refreshes it in
  place, so its own reads keep hitting.
* **Version-checked self-invalidation.**  The original invalidates all
  shared lines at acquire boundaries, relying on data-race-freedom for
  correctness.  Our synthetic traces carry no DRF annotations, so we model
  the *effect* precisely instead of the trigger: the engine keeps one global
  version per line, bumped on every write; an L1 copy records the version it
  was fetched at, and a read hit on an out-of-date copy is treated as the
  self-invalidation (the copy is discarded and reloaded from the home, a
  SHARING miss).  Read-shared data therefore caches perfectly and
  write-shared data pays a reload per remote write - the same asymptotic
  behaviour, without ever serving stale data (which would break golden
  verification).
* **No coherence traffic, no inclusion.**  L1 copies are always clean
  SHARED, evictions are silent (no notification - there is nobody to
  notify), and an L2 eviction leaves L1 copies in place: they stay correct
  until the next write bumps the line version.
* **Release-boundary batching** (``neat_downgrade="release"``).  The
  published Neat defers the downgrade flush to release boundaries; with
  this mode the writer buffers dirty words in its own L1 copy
  (write-allocating on a write miss) and flushes each dirty line as ONE
  batched ``WB_DATA`` message when the simulator signals a release
  (unlock or barrier arrival, via :meth:`sync_boundary_hook`), bumping the
  line version once per flushed line.  A line with pending words is
  flushed early if its copy must die first (self-invalidation, L1
  eviction), and every core flushes at the end of the trace.  Flushes are
  fire-and-forget (off the critical path, like evictions).  Golden-memory
  verification models release visibility faithfully: a buffered word is
  ahead of the golden image only inside its writer (whose read hits skip
  the check for exactly those words), and the flush updates the home line
  and the golden image at the same simulation point - so readers verify
  even across the benign races the synthetic traces contain.

The net effect mirrors Neat's published trade-off: directory storage goes to
zero and invalidation rounds disappear, while store-heavy sharing patterns
pay per-word write-through traffic and reload misses.

Timing is the home kernel's (``repro.protocol.home``); only the
bookkeeping is Neat's.  A miss or write-allocate is ``data_home``,
``round_trip`` (a ``WORD_WRITE_ACK`` for the eager write-through, a
``LINE_REPLY`` fetch otherwise), the version and copy bookkeeping, then
``settle``; a release flush is ``data_home``, ``deliver_request`` and an
owning ``settle``.  Each access, hit or miss, and each release flush is
one call into the engine's kernel: the compiled ``NeatKernel`` or its
twin :class:`PyNeatKernel`, both working on the engine's version dicts.
"""

from __future__ import annotations

from repro import accel
from repro.common import addr as addrmod
from repro.common.types import MESIState, MissType
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
_classify_miss = ProtocolEngineBase._classify_miss

# Message types as plain ints: the flit tables index by value.
_READ_REQ = int(MsgType.READ_REQ)
_WRITE_REQ = int(MsgType.WRITE_REQ)
_LINE_REPLY = int(MsgType.LINE_REPLY)
_WORD_WRITE_ACK = int(MsgType.WORD_WRITE_ACK)
_WB_DATA = int(MsgType.WB_DATA)


class PyNeatKernel(PyHomeKernel):
    """The pure-Python Neat kernel: the compiled ``NeatKernel``'s twin, and
    Neat's subclass of the home kernel.

    ``access`` runs one whole Neat access - the version-checked read hit,
    the self-invalidation of a stale copy, the eager write-through, the
    read fill with its L1 install and silent eviction, release mode's
    buffered write - on the inherited home steps; ``release_flush`` is the
    scheduler's release-boundary callback.  The kernel keeps no state: the
    versions, copy versions and buffered words are the engine's.
    """

    __slots__ = (
        "_l1d",
        "_history",
        "_line_version",
        "_copy_version",
        "_pending",
        "_release_batching",
    )

    def __init__(self, engine, line_type, result_type) -> None:
        super().__init__(engine, line_type, result_type)
        self._l1d = engine.l1d
        self._history = engine._history
        self._line_version = engine._line_version
        self._copy_version = engine._copy_version
        self._pending = engine._pending
        self._release_batching = engine._release_batching

    # ------------------------------------------------------------------
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store: version-checked read caching, write-through."""
        engine = self._engine
        line = address >> _LINE_BITS
        word = (address >> _WORD_BITS) & (self._words_per_line - 1)
        l1 = self._l1d[core]
        entry = l1.lookup(line)

        if is_write and self._release_batching:
            return self._buffered_write(engine, core, line, word, now, l1, entry)

        if entry is not None and not is_write:
            if self._copy_version[core].get(line) == self._line_version.get(line, 0):
                # Valid read hit: the copy is as fresh as the home.
                l1.hit(entry, now)
                engine.miss_stats.record_hit()
                engine.energy.l1d_reads += 1
                if self._verify:
                    # A word this core has buffered but not yet flushed
                    # (release mode) is ahead of the golden image by
                    # design: the writer sees its own store, the world
                    # sees it at the release flush.
                    if not (self._pending[core].get(line, 0) >> word) & 1:
                        engine.golden.check_read(
                            line, word, entry.data[word], f"Neat hit core {core}"
                        )
                return engine._hit_result
            # Stale copy: self-invalidate and reload from the home.
            self._self_invalidate(engine, core, line, now)

        return self._service_at_home(engine, core, is_write, line, word, now)

    def release_flush(self, core: int, t: float) -> None:
        """Release boundary: flush every line with buffered stores."""
        engine = self._engine
        pending = self._pending[core]
        for line in list(pending):
            self._flush_line(engine, core, line, t)

    # ------------------------------------------------------------------
    def _self_invalidate(self, engine, core: int, line: int, t: float) -> None:
        """Discard ``core``'s (stale) copy of ``line``, recording the
        invalidation in the histogram and the miss-history flags.  Buffered
        stores of the dying copy (release mode) are flushed home first -
        they must not be lost."""
        if self._pending[core].get(line):
            self._flush_line(engine, core, line, t)
        removed = self._l1d[core].remove(line)
        self._copy_version[core].pop(line, None)
        engine.self_invalidations += 1
        engine.inval_histogram.record(removed.utilization)
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL

    # ------------------------------------------------------------------
    def _service_at_home(self, engine, core, is_write, line, word, now) -> AccessResult:
        l1 = self._l1d[core]
        l1.misses += 1
        energy = engine.energy
        energy.l1d_tag_accesses += 1
        result = AccessResult()

        # ---- round trip to the home slice: a write carries its word and is
        # acknowledged (eager self-downgrade), a read fetches the line.
        if is_write:
            req_msg, reply_msg = _WRITE_REQ, _WORD_WRITE_ACK
        else:
            req_msg, reply_msg = _READ_REQ, _LINE_REPLY
        home, flush_owner = self.data_home(line, core)
        slice_, l2line, t, reply_t = self.round_trip(
            core, line, home, flush_owner, req_msg, reply_msg, now, result
        )

        history = self._history[core]
        flags = history.get(line, 0)
        versions = self._copy_version[core]
        if is_write:
            # Classify against the copy the writer holds RIGHT NOW, before
            # the write-through refreshes or discards it: a write to a held
            # fresh copy is the upgrade case (store to a read-only line), a
            # write to a held stale copy is a sharing event (another core's
            # write killed the copy), and a copy-less write falls back to
            # the remote-access classification.
            old_version = self._line_version.get(line, 0)
            entry = l1.lookup(line)
            fresh = entry is not None and versions.get(line) == old_version
            if entry is not None:
                result.miss_type = MissType.UPGRADE if fresh else MissType.SHARING
            else:
                result.miss_type = _classify_miss(flags, upgrade=False, serviced_remote=True)
            # The word is written at the home (no allocate); serve_word
            # issues this write's token (verify mode).  Every other core's
            # copy goes stale and self-invalidates on its next use.
            self.serve_word(core, True, line, word, l2line, slice_)
            engine.write_throughs += 1
            self._line_version[line] = old_version + 1
            if fresh:
                # Refreshed in place so the writer's own reads keep hitting.
                l1.store.touch(entry)
                entry.utilization += 1
                entry.last_access = reply_t
                energy.l1d_writes += 1
                if self._verify:
                    entry.data[word] = engine._write_token
                versions[line] = old_version + 1
            elif entry is not None:
                # A stale copy is discarded: refreshing one word of it would
                # revalidate its other, stale words.
                self._self_invalidate(engine, core, line, reply_t)
            result.remote = True
            # History is re-read rather than taken from the pre-service
            # flags: _self_invalidate may have set _LAST_REMOVAL_INVAL.
            history[line] = history.get(line, 0) | _EVER_REMOTE
        else:
            self._install_line(engine, core, line, l2line, slice_, reply_t)
            versions[line] = self._line_version.get(line, 0)
            energy.l1d_reads += 1
            if self._verify:
                entry = l1.lookup(line)
                engine.golden.check_read(
                    line, word, entry.data[word], f"Neat fill read core {core}"
                )
            result.miss_type = _classify_miss(flags, upgrade=False, serviced_remote=False)
            history[line] = flags | _EVER_CACHED
        engine.miss_stats.record_miss(result.miss_type)
        # Reads take no home-side ownership: they pipeline through the bank.
        self.settle(slice_, l2line, t, is_write)

        result.latency = reply_t - now
        result.l1_to_l2 = result.latency - result.l2_waiting - result.l2_offchip
        return result

    def _install_line(self, engine, core, line, l2line, slice_, reply_t) -> None:
        """Install the fetched line clean SHARED (the counter half of a
        fetch, shared by read misses and the buffered-write allocate; runs
        after the reply leg is reserved)."""
        slice_.line_reads += 1
        engine.energy.l2_line_reads += 1
        data = list(l2line.data) if self._verify else None
        evicted = self._l1d[core].fill(line, MESIState.SHARED, reply_t, data)
        engine.energy.l1d_line_fills += 1
        if evicted is not None:
            self._handle_l1_eviction(engine, core, evicted[0], evicted[1], reply_t)

    def _handle_l1_eviction(self, engine, core, vline, ventry, t) -> None:
        """Silent eviction: copies are clean and nobody tracks them.
        Buffered stores of the victim (release mode) are flushed first."""
        if self._pending[core].get(vline):
            self._flush_line(engine, core, vline, t, entry=ventry)
        engine.evict_histogram.record(ventry.utilization)
        hist = self._history[core]
        hist[vline] = (hist.get(vline, 0) | _EVER_CACHED) & ~_LAST_REMOVAL_INVAL
        self._copy_version[core].pop(vline, None)

    # ------------------------------------------------------------------
    # Release-boundary self-downgrade batching (neat_downgrade="release").
    # ------------------------------------------------------------------
    def _buffered_write(self, engine, core, line, word, now, l1, entry) -> AccessResult:
        """Release-mode store: buffer the dirty word in the writer's copy.

        A fresh resident copy makes the store a pure L1 hit (zero latency,
        zero traffic now - the word rides the next release flush).  A stale
        or absent copy write-allocates: the stale copy is flushed-and-
        discarded, the line is fetched like a read miss and the store lands
        in the fresh copy.
        """
        versions = self._copy_version[core]
        pending = self._pending[core]
        if entry is not None and versions.get(line) == self._line_version.get(line, 0):
            l1.hit(entry, now)
            engine.miss_stats.record_hit()
            engine.energy.l1d_writes += 1
            pending[line] = pending.get(line, 0) | (1 << word)
            if self._verify:
                # Mint the token into the local copy only; the golden image
                # is written at the flush, atomically with the home update,
                # so home and golden never disagree (racy readers verify).
                entry.data[word] = engine._issue_write_token(core)
            return engine._hit_result
        result = AccessResult()
        history = self._history[core]
        flags = history.get(line, 0)
        if entry is not None:
            result.miss_type = MissType.SHARING  # another core's flush killed it
            self._self_invalidate(engine, core, line, now)
        else:
            result.miss_type = _classify_miss(flags, upgrade=False, serviced_remote=False)
        l1.misses += 1
        engine.energy.l1d_tag_accesses += 1
        home, flush_owner = self.data_home(line, core)
        slice_, l2line, t, reply_t = self.round_trip(
            core, line, home, flush_owner, _READ_REQ, _LINE_REPLY, now, result
        )
        self._install_line(engine, core, line, l2line, slice_, reply_t)
        versions[line] = self._line_version.get(line, 0)
        engine.energy.l1d_writes += 1
        pending[line] = pending.get(line, 0) | (1 << word)
        if self._verify:
            # Token into the local copy only; golden is written at the
            # flush (see _flush_line).
            l1.lookup(line).data[word] = engine._issue_write_token(core)
        history[line] = flags | _EVER_CACHED
        engine.miss_stats.record_miss(result.miss_type)
        # The fetch is a read at the home: no ownership, bank-pipelined.
        self.settle(slice_, l2line, t, False)
        result.latency = reply_t - now
        result.l1_to_l2 = result.latency - result.l2_waiting - result.l2_offchip
        return result

    def _flush_line(self, engine, core, line, t, entry=None) -> None:
        """Self-downgrade one line's buffered words: a single batched
        ``WB_DATA`` message to the home, one version bump, fire-and-forget
        (off the critical path, like evictions)."""
        mask = self._pending[core].pop(line)
        result = engine._flush_result
        result.l2_waiting = 0.0
        result.l2_offchip = 0.0
        home, flush_owner = self.data_home(line, core)
        slice_, l2line, t_at_home = self.deliver_request(
            core, line, home, flush_owner, _WB_DATA, t, result
        )
        if entry is None:
            entry = self._l1d[core].lookup(line)
        energy = engine.energy
        word = 0
        bits = mask
        while bits:
            if bits & 1:
                slice_.word_writes += 1
                energy.l2_word_writes += 1
                l2line.dirty = True
                l2line.dirty_words |= 1 << word
                if self._verify and entry is not None and entry.data is not None:
                    # Home and golden update at the same simulation point:
                    # any read serviced at the home always matches golden,
                    # even for (benign) races the trace may contain.
                    l2line.data[word] = entry.data[word]
                    engine.golden.write_word(line, word, entry.data[word])
            bits >>= 1
            word += 1
        engine.write_throughs += 1  # one downgrade message per flushed line
        old_version = self._line_version.get(line, 0)
        version = old_version + 1
        self._line_version[line] = version
        versions = self._copy_version[core]
        if entry is not None and versions.get(line) == old_version:
            # The writer's copy was fresh up to this flush, so it is exactly
            # the flushed image: still fresh.  A copy that went stale before
            # the flush (another core's flush intervened after our fetch)
            # must STAY stale - its non-pending words predate that flush,
            # and revalidating it here would resurrect them.  Found by the
            # exhaustive tier: W0(w0) W1(w4) flush0 flush1 R1(w0) read 0
            # where w0 held core 0's store.
            versions[line] = version
        self.settle(slice_, l2line, t_at_home, True)


class NeatEngine(ProtocolEngineBase):
    """Self-invalidation / self-downgrade engine without sharer tracking.

    The engine keeps the state (line versions, per-core copy versions and
    buffered words, the Neat counters); its kernel (``home_kernel``) runs
    every access and release flush on it.
    """

    __slots__ = (
        "_line_version",
        "_copy_version",
        "_release_batching",
        "_pending",
        "_flush_result",
        "self_invalidations",
        "write_throughs",
    )

    _kernel_classes = (accel.neat_kernel_class, PyNeatKernel)

    def __init__(self, arch, proto, verify: bool = False) -> None:
        #: Global per-line write version; an L1 copy is valid while its
        #: recorded fetch version still matches.
        self._line_version: dict[int, int] = {}
        #: Per-core {line: version-at-fetch} for resident L1 copies.
        self._copy_version: list[dict[int, int]] = [dict() for _ in range(arch.num_cores)]
        #: Release-boundary self-downgrade batching (see module docstring).
        self._release_batching = proto.neat_downgrade == "release"
        #: Per-core {line: dirty-word bitmask} of buffered (unflushed) stores.
        self._pending: list[dict[int, int]] = [dict() for _ in range(arch.num_cores)]
        #: Scratch result for flush deliveries: deliver_request records
        #: serialization/off-chip latency into it, and a flush (being off
        #: the critical path) discards both.
        self._flush_result = AccessResult()
        # Statistics.
        self.self_invalidations = 0
        self.write_throughs = 0
        # Last: the kernel the base builds reads the state above.
        super().__init__(arch, proto, verify)

    def reset_stats(self) -> None:
        """Also zero the Neat counters for warmup/measure runs."""
        super().reset_stats()
        self.self_invalidations = 0
        self.write_throughs = 0

    def export_stats(self, stats) -> None:
        stats.self_invalidations = self.self_invalidations
        stats.write_throughs = self.write_throughs

    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store: one call into the kernel."""
        return self.home_kernel.access(core, is_write, address, now)

    def sync_boundary_hook(self):
        """Release-boundary callback (see ``ProtocolEngineBase``): the
        kernel's flush of buffered self-downgrades at unlock/barrier/
        end-of-trace."""
        return self.home_kernel.release_flush if self._release_batching else None

    # L2 evictions leave L1 copies alone: they are clean, and the version
    # check retires them the moment the line is written again (the
    # kernel's evict_l2_line is the home kernel's, with no purge).
