"""The ``ProtocolEngineBase`` interface: shared machinery for every
coherence protocol family.

A protocol engine services every memory reference of one simulated multicore:
``access(core, is_write, address, now)`` returns an :class:`AccessResult`
whose latency decomposition feeds the Figure-9 completion-time stack.  The
engine owns the substrate every family shares:

* the mesh network, memory subsystem and R-NUCA home placement;
* the per-core L1s and per-tile L2 slices (with their statistics);
* energy counters, miss statistics and the utilization histograms;
* the home side of every miss, run by the engine's *home kernel*
  (``home_kernel``; :mod:`repro.protocol.home`, DESIGN.md section 15):
  R-NUCA placement (``data_home``, or DLS's ``data_word_home``), the
  request and reply legs - one ``chain_request_reply`` when nothing can
  intervene between them, else ``deliver_request`` (page flush, request,
  per-line serialization, tag access, off-chip fill) followed by
  ``reply`` - then the family's time-independent home-side bookkeeping
  (``serve_word`` for word accesses), then ``settle`` (line occupancy +
  LRU touch).  DLS and Neat reach the legs through ``round_trip``; the
  directory families call them directly, because their invalidation and
  write-back rounds sit between the legs.  The kernel is the compiled
  ``HomeKernel`` exactly when the mesh kernel is compiled, else its
  pure-Python twin ``PyHomeKernel``; both take the same steps in the same
  order;
* the home kernel's callbacks: the off-chip fill's family hooks
  (``_evict_l2_line``: write-back + the per-family L1-purge hook;
  ``_install_line_state``), the page flush of a private -> shared
  transition (``_flush_private_page``) and the verify-mode golden steps of
  a word access (``_verify_word``);
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

from repro import accel
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
from repro.protocol.home import PyHomeKernel
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
    declare their own ``__slots__`` for any extra state.  Weakly
    referenceable: its home kernel refers back to it weakly.
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
        "home_kernel",
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
        "__weakref__",
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

        #: Reserved-path traversal plumbing for the family-side traffic
        #: (invalidation and write-back rounds, eviction notices), hoisted
        #: once: the route memo is probed directly and whole paths are
        #: reserved through the mesh kernel's own methods (no per-message
        #: ``unicast`` wrapper; one FFI crossing per call with the
        #: compiled kernel).
        kernel = self.network.kernel
        self._num_tiles = arch.num_cores
        self._net_paths = self.network.paths
        self._net_resolve = self.network.resolve_path
        self._net_traverse = kernel.traverse
        self._net_chain = kernel.traverse_chain
        self._net_many = kernel.traverse_many
        self._net_flits = [self.network.flits_for(msg) for msg in MsgType]

        #: Shared L1-hit result: every field of a hit is constant (zero
        #: latency decomposition, ``hit=True``), so the hit fast path returns
        #: this one immutable-by-convention instance instead of allocating.
        self._hit_result = AccessResult()
        self._hit_result.hit = True

        #: The home kernel: compiled exactly when the mesh kernel is (it
        #: reserves the legs through the mesh kernel's C traversal), else
        #: the pure-Python twin.  Built last: it reads the engine's
        #: structures above.
        compiled = accel.home_kernel_class() if self.network.implementation == "accel" else None
        self.home_kernel = (compiled or PyHomeKernel)(self, L2Line, AccessResult)

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
        self.network.reset_counters()
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
    # Callbacks of the home kernel (repro.protocol.home): the verify-mode
    # golden steps of a word access, the fill's family hooks and the page
    # flush of a private -> shared transition.
    # ------------------------------------------------------------------
    def _verify_word(self, core: int, is_write: bool, line: int, word: int, l2line: L2Line) -> None:
        """Golden steps of a word access at the home, right after the home
        kernel's ``serve_word``: a write mints its token into the line and
        the golden image, a read is checked against it."""
        if is_write:
            token = self._issue_write_token(core)
            l2line.data[word] = token
            self.golden.write_word(line, word, token)
        else:
            self.golden.check_read(line, word, l2line.data[word], f"remote read core {core}")

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
