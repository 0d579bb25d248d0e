"""The ``ProtocolEngineBase`` interface: shared machinery for every
coherence protocol family.

A protocol engine services every memory reference of one simulated multicore:
``access(core, is_write, address, now)`` returns an :class:`AccessResult`
whose latency decomposition feeds the Figure-9 completion-time stack.  The
engine owns the substrate every family shares:

* the mesh network, memory subsystem and R-NUCA home placement;
* the per-core L1s and per-tile L2 slices (with their statistics);
* energy counters, miss statistics and the utilization histograms;
* the home-side round trip of every miss, written once: R-NUCA placement
  (``RNucaPlacement.data_home``, which memoizes each line's home), then
  the request and reply legs - one ``traverse_chain`` call
  (``_chain_request_reply``) when nothing can intervene between them,
  else ``_deliver_request`` (page flush, request, per-line serialization,
  tag access, off-chip fill) followed by ``_reply`` - then the family's
  time-independent home-side bookkeeping (``_serve_word`` for word
  accesses), then ``_settle`` (line occupancy + LRU touch).  DLS and Neat
  reach the legs through ``_round_trip``; the directory families call
  them directly, because their invalidation and write-back rounds sit
  between the legs.  The compiled and pure-Python implementations take
  the same shape for the same line state;
* the off-chip path: ``_l2_fill`` (inclusive-fill from DRAM) and
  ``_evict_l2_line`` (write-back + the per-family L1-purge hook);
* golden-memory verification plumbing (write tokens, the DRAM image, and
  the end-of-run ``check_final_state`` sweep used by the differential
  property harness).

Concrete families implement :meth:`access` plus the purge hooks:

* ``repro.protocol.directory`` - the directory-based families (``baseline``,
  ``adaptive``; ``victim`` extends it with local-L2 victim replication,
  ``phase`` replaces its requester classifier with the phase policy);
* ``repro.protocol.dls`` - the directoryless shared-LLC comparison baseline;
* ``repro.protocol.neat`` - the self-invalidation/self-downgrade comparison
  baseline.

``repro.protocol.engine.make_engine`` maps ``ProtocolConfig.protocol`` to the
family class.
"""

from __future__ import annotations

from repro.common import addr as addrmod
from repro.common.errors import SimulationError
from repro.common.params import ArchConfig, ProtocolConfig
from repro.common.types import MESIState, MissType
from repro.coherence.classifier.limited import make_classifier
from repro.coherence.directory import make_sharer_policy
from repro.energy.model import EnergyCounters
from repro.mem.golden import GoldenMemory
from repro.mem.l1 import L1Cache
from repro.mem.l2 import L2Line, L2Slice
from repro.mem.memctrl import MemorySubsystem
from repro.network.mesh import MeshNetwork
from repro.network.messages import MsgType
from repro.rnuca.placement import RNucaPlacement
from repro.sim.stats import MissStats, UtilizationHistogram

# Per-(core, line) history flags used for miss classification (Section 4.4).
_EVER_CACHED = 1  # line was previously brought into this core's L1
_LAST_REMOVAL_INVAL = 2  # last removal was an invalidation (else eviction)
_EVER_REMOTE = 4  # line was previously accessed remotely by this core

#: Write tokens are derived per core: ``count * _TOKEN_STRIDE + core``.  The
#: k-th write of a core therefore carries the same token value in every
#: protocol family (a core's write sequence is fixed by its trace stream),
#: which lets the trace-level differential harness compare golden images of
#: full ``Simulator`` runs even though families interleave cores differently.
_TOKEN_STRIDE = 1 << 20


class AccessResult:
    """Latency decomposition of one memory access."""

    __slots__ = (
        "latency",
        "l1_to_l2",
        "l2_waiting",
        "l2_sharers",
        "l2_offchip",
        "hit",
        "miss_type",
        "remote",
    )

    def __init__(self) -> None:
        self.latency = 0.0
        self.l1_to_l2 = 0.0
        self.l2_waiting = 0.0
        self.l2_sharers = 0.0
        self.l2_offchip = 0.0
        self.hit = False
        self.miss_type: MissType | None = None
        self.remote = False


class ProtocolEngineBase:
    """Coherence protocol + memory hierarchy for one simulated multicore.

    Slotted: the engine's attributes are read on every simulated access,
    and slot loads beat instance-dict lookups on the hot path.  Subclasses
    declare their own ``__slots__`` for any extra state.
    """

    __slots__ = (
        "arch",
        "proto",
        "verify",
        "network",
        "memsys",
        "placement",
        "sharer_policy",
        "classifier",
        "l1d",
        "l2",
        "energy",
        "miss_stats",
        "inval_histogram",
        "evict_histogram",
        "golden",
        "_dram_image",
        "_write_counts",
        "_write_token",
        "_history",
        "_home_of_line",
        "_l2_latency",
        "_words_per_line",
        "_hit_result",
        "_num_tiles",
        "_net_paths",
        "_net_resolve",
        "_net_traverse",
        "_net_chain",
        "_net_many",
        "_net_flits",
    )

    def __init__(
        self,
        arch: ArchConfig,
        proto: ProtocolConfig,
        verify: bool = False,
    ) -> None:
        self.arch = arch
        self.proto = proto
        self.verify = verify

        self.network = MeshNetwork(arch)
        self.memsys = MemorySubsystem(arch)
        self.placement = RNucaPlacement(arch)
        self.sharer_policy = make_sharer_policy(proto, arch.num_cores, arch.ackwise_pointers)
        self.classifier = make_classifier(proto) if proto.is_adaptive else None

        self.l1d = [L1Cache(arch.l1d, keep_data=verify) for _ in range(arch.num_cores)]
        self.l2 = [L2Slice(arch.l2, keep_data=verify) for _ in range(arch.num_cores)]

        self.energy = EnergyCounters()
        self.miss_stats = MissStats()
        self.inval_histogram = UtilizationHistogram()
        self.evict_histogram = UtilizationHistogram()

        self.golden = GoldenMemory() if verify else None
        self._dram_image: dict[int, list[int]] = {}
        self._write_counts = [0] * arch.num_cores
        self._write_token = 0  # most recently issued token value

        self._history: list[dict[int, int]] = [dict() for _ in range(arch.num_cores)]
        self._home_of_line: dict[int, int] = {}

        # Cheap int aliases for the hot path.
        self._l2_latency = arch.l2.latency
        self._words_per_line = arch.words_per_line

        #: Reserved-path traversal plumbing, hoisted once: the multi-hop
        #: request -> home -> reply chains probe the network's route memo
        #: directly and reserve whole paths in one ``traverse_path`` call
        #: (no per-message ``unicast`` wrapper, no MsgType dispatch).
        self._num_tiles = arch.num_cores
        self._net_paths = self.network.paths
        self._net_resolve = self.network.resolve_path
        self._net_traverse = self.network.traverse_path
        self._net_chain = self.network.traverse_chain
        self._net_many = self.network.traverse_many
        self._net_flits = [self.network.flits_for(msg) for msg in MsgType]

        #: Shared L1-hit result: every field of a hit is constant (zero
        #: latency decomposition, ``hit=True``), so the hit fast path returns
        #: this one immutable-by-convention instance instead of allocating.
        self._hit_result = AccessResult()
        self._hit_result.hit = True

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all measurement counters, keeping microarchitectural state.

        Used for warmup runs (standard simulator methodology): the caches,
        directory, classifier modes and network/DRAM reservations stay warm
        while hit/miss counts, energy events, histograms and traffic
        counters restart for the measured run.
        """
        self.energy = EnergyCounters()
        self.miss_stats = MissStats()
        self.inval_histogram = UtilizationHistogram()
        self.evict_histogram = UtilizationHistogram()
        net = self.network
        # router_flit_traversals is derived from these two; no reset needed.
        net.link_flit_traversals = 0
        net.messages_sent = 0
        net.flits_sent = 0
        net.slot_recycles = 0
        for ctrl in self.memsys.controllers.values():
            ctrl.requests = 0
            ctrl.bytes_transferred = 0
            ctrl.total_queue_delay = 0.0
        for l1 in self.l1d:
            l1.hits = 0
            l1.misses = 0
        for slice_ in self.l2:
            slice_.hits = 0
            slice_.misses = 0
            slice_.word_reads = 0
            slice_.word_writes = 0
            slice_.line_reads = 0
            slice_.line_writes = 0
        if self.classifier is not None:
            self.classifier.promotions = 0
            self.classifier.demotions = 0
            self.classifier.remote_accesses = 0
            self.classifier.vote_decisions = 0
        self.sharer_policy.broadcast_invalidations = 0
        self.sharer_policy.unicast_invalidations = 0

    # ==================================================================
    # Public entry point - implemented by each protocol family.
    # ==================================================================
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store issued by ``core`` at time ``now``."""
        raise NotImplementedError

    def scheduler_fast_path(self) -> dict | None:
        """Opt-in L1-hit fast path for the simulator's inner loop.

        A family whose L1-hit handling is pure bookkeeping (no protocol
        actions, no latency) may return a descriptor exposing the raw
        structures the scheduler needs to service a hit *inline*, skipping
        the ``access`` call entirely:

        ``buckets``    all cores' L1 set dicts in one flat list; the
                       bucket of (core, line) is
                       ``buckets[(core << set_bits) | (line & set_mask)]``,
        ``set_bits``   log2(sets per L1) for the flat indexing above,
        ``set_mask``   the shared L1 set-index mask,
        ``stores``     per-core ``SetAssocCache`` objects (LRU counter),
        ``l1s``        per-core ``L1Cache`` objects (hit counter),
        ``exclusive``  minimum state for a silent write hit,
        ``modified``   the state to write on a write hit,
        ``line_type``  the entry class whose ``__slots__`` hold ``state``/
                       ``last_use``/``last_access``/``utilization``.

        The contract is strict bit-identity: the inline path must perform
        exactly the bookkeeping ``access`` would (LRU, utilization,
        timestamp, hit/energy counters) and fall back to ``access`` for
        anything else.  Default: no fast path (miss-only families, or hit
        handling with side effects - version checks, golden verification).

        C adoption and writeback (DESIGN.md sec. 14): the compiled
        scheduler kernel mirrors the per-core stores in a native
        (core, line) map and *defers* hit bookkeeping.  Two rules keep the
        mirror coherent with engine-side mutations:

        * every membership change to a listed store while the kernel is
          attached must flow through ``SetAssocCache``'s ``_observer``
          hooks (fills, evictions, purges, clears) - true for any engine
          that mutates L1 residency via ``insert``/``pop``/``clear``;
        * the kernel flushes all deferred state (LRU counter replay,
          utilization, timestamps, E -> M upgrades) back into the entry
          objects *before every* ``access`` call and exit, so engine-side
          reads (victim choice, ``min_last_access``, purge state checks,
          utilization histograms) always observe exactly the values the
          pure-Python loop would have written.
        """
        return None

    def sync_boundary_hook(self):
        """Optional release-boundary callback for the scheduler.

        A family that acts at synchronization release points (e.g. Neat's
        release-boundary self-downgrade batching) returns a callable
        ``(core, t)``; the scheduler invokes it when ``core`` passes a
        release boundary - an unlock completion or a barrier arrival - and
        once per core at the end of each trace execution (a trace's end is
        its final release).  Default: None, and the scheduler pays nothing.
        """
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _classify_miss(flags: int, upgrade: bool, serviced_remote: bool) -> MissType:
        if upgrade:
            return MissType.UPGRADE
        if serviced_remote and flags & _EVER_REMOTE:
            return MissType.WORD
        if not flags & _EVER_CACHED:
            return MissType.COLD
        if flags & _LAST_REMOVAL_INVAL:
            return MissType.SHARING
        return MissType.CAPACITY

    # ------------------------------------------------------------------
    # The home round trip, shared by every family's miss path.
    # ------------------------------------------------------------------
    def _round_trip(
        self,
        core: int,
        line: int,
        home: int,
        flush_owner: int | None,
        req_msg: MsgType,
        reply_msg: MsgType,
        now: float,
        result: AccessResult,
    ) -> tuple[L2Slice, L2Line, float, float]:
        """Reserve a miss's request and reply legs when the reply type is
        known up front and nothing happens at the home between them.

        With no page flush and the line resident at ``home``, both legs
        ride one ``traverse_chain`` call; otherwise the general request leg
        (flush, off-chip fill) runs, then the reply leg.  Returns
        ``(slice_, l2line, t, reply_t)``: the home service time and the
        reply's tail arrival at the requester.
        """
        if flush_owner is None:
            slice_ = self.l2[home]
            store = slice_.store
            l2line = store._sets[line & store._set_mask].get(line)
            if l2line is not None:
                t, reply_t = self._chain_request_reply(
                    core, home, l2line, slice_, req_msg, reply_msg, now, result
                )
                return slice_, l2line, t, reply_t
        slice_, l2line, t = self._deliver_request(
            core, line, home, flush_owner, req_msg, now, result
        )
        return slice_, l2line, t, self._reply(home, core, reply_msg, t)

    def _deliver_request(
        self,
        core: int,
        line: int,
        home: int,
        flush_owner: int | None,
        req_msg: MsgType,
        now: float,
        result: AccessResult,
    ) -> tuple[L2Slice, L2Line, float]:
        """The general request leg: deliver a request to the home slice,
        ready for service.

        Flushes a private page's old slice on a private -> shared
        transition, reserves the request, applies per-line serialization
        ("L2 cache waiting time", recorded into ``result``), accesses the
        L2 tag and fills the line from off-chip on an L2 miss (recorded
        into ``result.l2_offchip``).  Returns ``(slice_, l2line, t)`` with
        ``t`` the time service at the home may begin.
        """
        if flush_owner is not None:
            self._flush_private_page(line, flush_owner, now)
        path = self._net_paths[core * self._num_tiles + home]
        if path is None:
            path = self._net_resolve(core, home)
        t = self._net_traverse(path, now, self._net_flits[req_msg])
        slice_ = self.l2[home]
        store = slice_.store
        l2line = store._sets[line & store._set_mask].get(line)
        if l2line is not None and l2line.busy_until > t:
            result.l2_waiting = l2line.busy_until - t
            t = l2line.busy_until
        t += self._l2_latency
        self.energy.l2_tag_accesses += 1
        if l2line is None:
            slice_.misses += 1
            l2line, t, result.l2_offchip = self._l2_fill(home, line, t)
        else:
            slice_.hits += 1
        return slice_, l2line, t

    def _reply(self, home: int, core: int, reply_msg: MsgType, t: float) -> float:
        """The general reply leg: reserve ``reply_msg`` from the home at
        ``t``; returns its tail arrival at the requester."""
        path = self._net_paths[home * self._num_tiles + core]
        if path is None:
            path = self._net_resolve(home, core)
        return self._net_traverse(path, t, self._net_flits[reply_msg])

    def _chain_request_reply(
        self,
        core: int,
        home: int,
        l2line: L2Line,
        slice_: L2Slice,
        req_msg: MsgType,
        reply_msg: MsgType,
        now: float,
        result: AccessResult,
    ) -> tuple[float, float]:
        """Reserve the request and reply legs in one ``traverse_chain``
        call (one FFI crossing per miss with the compiled kernel; the exact
        composition of two ``traverse_path`` calls without it), with the
        same serialization/latency arithmetic and the same counter updates
        as ``_deliver_request`` + ``_reply`` on a resident line.  Returns
        ``(t, reply_t)``.
        """
        paths = self._net_paths
        num_tiles = self._num_tiles
        flits = self._net_flits
        path1 = paths[core * num_tiles + home]
        if path1 is None:
            path1 = self._net_resolve(core, home)
        path2 = paths[home * num_tiles + core]
        if path2 is None:
            path2 = self._net_resolve(home, core)
        busy = l2line.busy_until
        t1, reply_t = self._net_chain(
            path1, flits[req_msg], now, busy, self._l2_latency, path2, flits[reply_msg]
        )
        if busy > t1:
            result.l2_waiting = busy - t1
            t = busy + self._l2_latency
        else:
            t = t1 + self._l2_latency
        self.energy.l2_tag_accesses += 1
        slice_.hits += 1
        return t, reply_t

    def _serve_word(
        self,
        core: int,
        is_write: bool,
        line: int,
        word: int,
        l2line: L2Line,
        slice_: L2Slice,
    ) -> None:
        """Word access at the home L2 (the remote service of the adaptive
        protocol, every DLS access, Neat's eager write-through).  Touches
        no time or network state, so it runs after the reply is reserved.
        """
        if is_write:
            slice_.word_writes += 1
            self.energy.l2_word_writes += 1
            l2line.dirty = True
            l2line.dirty_words |= 1 << word
            if self.verify:
                token = self._issue_write_token(core)
                l2line.data[word] = token
                self.golden.write_word(line, word, token)
            return
        slice_.word_reads += 1
        self.energy.l2_word_reads += 1
        if self.verify:
            self.golden.check_read(line, word, l2line.data[word], f"remote read core {core}")

    def _settle(self, slice_: L2Slice, l2line: L2Line, t: float, owned: bool) -> None:
        """Release the home line after service at ``t``.

        A request that owns the line (writes, directory line grants, Neat
        flushes) holds it until ``t``; word reads and Neat's line fetches
        take no ownership and pipeline through the banked L2, occupying
        the line for one cycle - why "a word miss only contributes
        marginally to the L2 cache waiting time" (Section 5.1.2).
        """
        if owned:
            l2line.busy_until = t
        else:
            busy = t - self._l2_latency + 1.0
            if busy > l2line.busy_until:
                l2line.busy_until = busy
        slice_.touch(l2line, t)

    # ------------------------------------------------------------------
    # L2 miss: fetch the line from off-chip memory.
    # ------------------------------------------------------------------
    def _l2_fill(self, home: int, line: int, t: float) -> tuple[L2Line, float, float]:
        slice_ = self.l2[home]
        victim = slice_.victim(line)
        if victim is not None:
            self._evict_l2_line(home, victim[0], victim[1], t)
            slice_.remove(victim[0])

        ctrl = self.memsys.controller_for_line(line)
        req_t = self.network.unicast(home, ctrl.tile, MsgType.MEM_READ_REQ, t)
        finish, _queue = ctrl.access(req_t, self.arch.line_size)
        reply_t = self.network.unicast(ctrl.tile, home, MsgType.MEM_READ_REPLY, finish)

        data = None
        if self.verify:
            data = self._dram_image.get(line)
            data = list(data) if data is not None else [0] * self._words_per_line
        evicted = slice_.fill(line, reply_t, data)
        if evicted is not None:  # cannot happen: victim handled above
            raise SimulationError("L2 fill evicted after explicit victim handling")
        l2line = slice_.lookup(line)
        self._install_line_state(l2line)
        self.energy.l2_line_writes += 1
        self._home_of_line[line] = home
        return l2line, reply_t, reply_t - t

    def _install_line_state(self, l2line: L2Line) -> None:
        """Attach per-family home-side state to a freshly filled L2 line.

        The directory families attach a sharer-tracking ``DirectoryEntry``;
        DLS and Neat keep no home-side coherence state at all, so the
        default is a no-op (``l2line.directory`` stays None).
        """

    # ------------------------------------------------------------------
    def _evict_l2_line(self, home: int, vline: int, ventry: L2Line, t: float) -> None:
        """L2 eviction: purge dependent L1 state, write back if dirty.

        The per-family part - what happens to private copies of the dying
        line - is delegated to :meth:`_purge_copies_for_l2_eviction`; the
        write-back itself (off the requester's critical path, documented
        approximation) is identical for every family and fully accounted.
        """
        self._purge_copies_for_l2_eviction(home, vline, ventry, t)
        if ventry.dirty:
            self.energy.l2_line_reads += 1
            ctrl = self.memsys.controller_for_line(vline)
            self.network.unicast(home, ctrl.tile, MsgType.MEM_WRITE, t)
            ctrl.access(t, self.arch.line_size)
            if self.verify:
                self.golden.check_line(vline, ventry.data, f"L2 eviction at tile {home}")
                self._dram_image[vline] = list(ventry.data)
        self._home_of_line.pop(vline, None)

    def _purge_copies_for_l2_eviction(self, home: int, vline: int, ventry: L2Line, t: float) -> None:
        """Family hook: resolve private copies of an L2 line being evicted.

        Inclusive directory families invalidate every L1 copy (collecting
        write-backs); DLS caches nothing privately; Neat tolerates the stale
        copies (they are clean and version-checked on their next use).
        """

    # ------------------------------------------------------------------
    # R-NUCA private -> shared page transition: flush the old home slice.
    # ------------------------------------------------------------------
    def _flush_private_page(self, line: int, old_owner: int, t: float) -> None:
        page = addrmod.page_of(line << addrmod.LINE_BITS, self.arch.page_size)
        slice_ = self.l2[old_owner]
        for pline in addrmod.lines_in_page(page, self.arch.page_size):
            ventry = slice_.lookup(pline)
            if ventry is not None:
                self._evict_l2_line(old_owner, pline, ventry, t)
                slice_.remove(pline)

    # ------------------------------------------------------------------
    def _issue_write_token(self, core: int) -> int:
        """Mint the token for ``core``'s next write (order-independent).

        Tokens encode ``(per-core write index, core)`` so their values do
        not depend on how the protocol family interleaved *other* cores'
        writes; see ``_TOKEN_STRIDE``.  The most recent token stays
        available as ``self._write_token`` for same-access refresh paths.
        """
        count = self._write_counts[core] + 1
        self._write_counts[core] = count
        token = count * _TOKEN_STRIDE + core
        self._write_token = token
        return token

    def _verified_l1_write(self, core: int, entry, line: int, word: int) -> None:
        token = self._issue_write_token(core)
        entry.data[word] = token
        self.golden.write_word(line, word, token)

    # ------------------------------------------------------------------
    # End-of-run functional verification (differential harness).
    # ------------------------------------------------------------------
    def final_line_value(self, line: int) -> list[int]:
        """The architecturally observable value of ``line`` right now.

        Authority order: a MODIFIED private copy (SWMR guarantees at most
        one) > the home L2 line > the DRAM image.  Families without private
        ownership (DLS, Neat) simply never hit the first case.
        """
        for l1 in self.l1d:
            entry = l1.lookup(line)
            if (
                entry is not None
                and entry.state is MESIState.MODIFIED
                and entry.data is not None
            ):
                return list(entry.data)
        home = self._home_of_line.get(line)
        if home is not None:
            l2line = self.l2[home].lookup(line)
            if l2line is not None and not l2line.is_replica and l2line.data is not None:
                return list(l2line.data)
        image = self._dram_image.get(line)
        if image is not None:
            return list(image)
        return [0] * self._words_per_line

    def check_final_state(self) -> None:
        """Verify-mode sweep: no write may be lost even if never re-read.

        Walks every line the golden memory knows about and checks the
        observable value (L1 owner copy / home L2 / DRAM image) against the
        golden image; raises ``CoherenceError`` on the first divergence.
        """
        if self.golden is None:
            raise SimulationError("check_final_state requires verify mode")
        for line in sorted(self.golden.lines()):
            self.golden.check_line(line, self.final_line_value(line), "final state")

    # ------------------------------------------------------------------
    def export_stats(self, stats) -> None:
        """Copy family-specific counters onto a ``RunStats`` instance.

        The base exports nothing; families with extra counters (victim
        replication, Neat) override.  Keeps ``Simulator`` family-agnostic.
        """

    # ------------------------------------------------------------------
    # Introspection helpers used by tests.
    # ------------------------------------------------------------------
    def l1_state(self, core: int, line: int) -> MESIState:
        entry = self.l1d[core].lookup(line)
        return entry.state if entry is not None else MESIState.INVALID

    def directory_entry(self, line: int):
        home = self._home_of_line.get(line)
        if home is None:
            return None
        l2line = self.l2[home].lookup(line)
        return l2line.directory if l2line is not None else None
