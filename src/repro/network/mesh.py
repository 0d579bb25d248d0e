"""Mesh timing and traffic accounting.

Implements the Table-1 network model: 2-cycle hop latency (1 router +
1 link), 64-bit flits, wormhole-style serialization and *link contention
only* (infinite input buffers).  The tail of an ``F``-flit message arrives
``F - 1`` cycles after its head.

Contention uses **epoch-based bandwidth accounting**: each directed link
carries at most one flit per cycle, tracked in fixed-width epochs.  A
message consumes capacity in the epochs it traverses and is delayed to the
first epoch with spare capacity.  Unlike a single "next-free-time" high-water
mark, this lets messages use a link *before* reservations made further in
the future (the simulator schedules some events, e.g. DRAM replies, ahead of
time), so transient bursts don't cascade into phantom chip-wide congestion
while sustained saturation still queues realistically.

Storage is a **windowed ring buffer** (DESIGN.md section 8): one contiguous
``WINDOW_EPOCHS x num_links`` slot table indexed ``(epoch % WINDOW) *
num_links + link`` over *dense* link ids.  Each slot packs the epoch it
currently represents and that epoch's occupancy into a single small int
(``epoch * 64 + flits``), so the hottest loop in the simulator does one
list index, one subtraction and one compare per link instead of a dict
probe per link.  A traversal in a newer epoch recycles its slot lazily; the
retired occupancy is flushed into an overflow dict, and epochs a slot does
not currently represent (far-future DRAM reservations, long-retired epochs)
are read and written there.  The combination (slots + overflow) always
encodes exactly the same epoch -> occupancy map as the flat-dict model it
replaces - same reservations, same departure times, bit-identical runs.

Routes are pre-resolved to tuples of dense link ids (``resolve_path``) and
a whole multi-hop reservation happens in one call (``traverse_path``),
which the protocol engines invoke directly for their request -> home ->
reply chains; ``unicast``/``broadcast`` are thin wrappers.

The mesh also counts router and link flit traversals, which the energy model
converts into dynamic energy (DSENT-like, Section 4.2).

**Compiled kernel.**  When :mod:`repro.accel` can build its C extension
(and ``REPRO_NO_ACCEL`` is unset), the epoch-accounting state - slot
table, overflow map, recycle counter - lives inside a native ``MeshKernel``
and ``traverse_path`` is a single FFI call; ``traverse_chain`` /
``traverse_many`` let the protocol engines reserve whole request->reply
chains per FFI crossing.  The pure-Python walk below remains the ungated
fallback and the semantic reference: the kernel replicates it bit for bit
(same per-link float accumulation, same recycle/overflow hand-off), pinned
by the contention property tests run against both implementations
(DESIGN.md section 12).
"""

from __future__ import annotations

from repro import accel as _accel
from repro.common.params import ArchConfig
from repro.network.messages import MsgType, message_flits
from repro.network.topology import Mesh2D

#: Cycles per bandwidth-accounting epoch.  One flit per cycle per link,
#: so each epoch holds EPOCH_CYCLES flits of capacity.  Must stay a power
#: of two: the hot path computes epochs as ``int(t) >> EPOCH_SHIFT``.
EPOCH_CYCLES = 32
EPOCH_SHIFT = 5
assert EPOCH_CYCLES == 1 << EPOCH_SHIFT
_EPOCH_MASK = EPOCH_CYCLES - 1

#: Ring-buffer window width in epochs (power of two).  128 epochs x 32
#: cycles = 4096 cycles of in-window coverage per ring position; epochs a
#: slot does not currently represent spill to the overflow dict (exact,
#: just slower).
WINDOW_EPOCHS = 128
_WINDOW_MASK = WINDOW_EPOCHS - 1
assert WINDOW_EPOCHS & _WINDOW_MASK == 0

#: Slot packing: ``value = epoch * _SLOT_STRIDE + occupancy``.  Occupancy
#: never exceeds EPOCH_CYCLES (32), so 6 bits suffice.
_SLOT_SHIFT = 6
_SLOT_STRIDE = 1 << _SLOT_SHIFT
_SLOT_OCC_MASK = _SLOT_STRIDE - 1
assert EPOCH_CYCLES < _SLOT_STRIDE


class _KernelOverflow:
    """Dict facade over the compiled kernel's overflow hash map.

    Kept API-compatible with the subset of ``dict`` the rest of the code
    (and the property tests) use on ``MeshNetwork._overflow``: ``len``
    (and with it truthiness), ``items``/``values`` for the introspection
    methods.
    """

    __slots__ = ("_kernel",)

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    def __len__(self) -> int:
        return self._kernel.overflow_len()

    def items(self) -> list[tuple[int, int]]:
        return self._kernel.overflow_items()

    def values(self) -> list[int]:
        return [value for _key, value in self._kernel.overflow_items()]


class MeshNetwork:
    """Timing + traffic model for the electrical 2-D mesh.

    Slotted: the traffic counters and ring-buffer structures are read on
    every message of the simulation, and slot loads beat instance-dict
    lookups on the hot path.
    """

    __slots__ = (
        "arch",
        "topology",
        "model_contention",
        "naive_contention",
        "_mode",
        "_num_tiles",
        "num_links",
        "_dense_link",
        "_link_bits",
        "_slots",
        "_overflow",
        "_link_free_at",
        "_routes",
        "_bcast_edges",
        "_flits_table",
        "_hop_latency",
        "_kernel",
        "_recycles",
        "link_flit_traversals",
        "messages_sent",
        "flits_sent",
    )

    def __init__(
        self,
        arch: ArchConfig,
        model_contention: bool | None = None,
        accel: bool | None = None,
    ) -> None:
        self.arch = arch
        self.topology = Mesh2D(arch.num_cores)
        #: ``model_contention`` overrides ``arch.link_model`` when given
        #: (kept for tests that construct networks directly).
        if model_contention is None:
            self.model_contention = arch.link_model != "none"
        else:
            self.model_contention = model_contention
        self.naive_contention = arch.link_model == "naive"
        #: The two public flags above, packed for a single hot-path load:
        #: 0 = epoch accounting (the default), 1 = naive, 2 = no contention.
        if not self.model_contention:
            self._mode = 2
        elif self.naive_contention:
            self._mode = 1
        else:
            self._mode = 0
        num_tiles = self.topology.num_tiles
        self._num_tiles = num_tiles
        #: Dense link numbering: position in ``topology.directed_links()``.
        #: ``_dense_link`` maps the sparse ``src * num_tiles + dst`` encoding
        #: to the dense id (-1 for non-links).
        links = self.topology.directed_links()
        self.num_links = len(links)
        self._dense_link = [-1] * (num_tiles * num_tiles)
        for dense, (src, dst) in enumerate(links):
            self._dense_link[src * num_tiles + dst] = dense
        self._link_bits = (self.num_links - 1).bit_length()
        #: Ring-buffer slot table: position ``(epoch % WINDOW) * num_links
        #: + link`` holds ``epoch * 64 + occupancy`` for the epoch that
        #: currently owns the slot.  A plain list, not an ``array``: slot
        #: values are ints either way, and list indexing skips the
        #: box/unbox step of ``array('q')`` on the hot path.
        self._slots: list[int] = [0] * (WINDOW_EPOCHS * self.num_links)
        #: Exact spill storage for epochs a slot does not currently
        #: represent, keyed ``(epoch << link_bits) | link``: far-future
        #: reservations (e.g. DRAM replies scheduled ahead) and retired
        #: occupancy flushed on slot recycling.  Invariant: an entry for
        #: (epoch, link) exists only while the owning slot's epoch is newer
        #: than ``epoch``, so the slot table and the overflow dict always
        #: partition the epoch -> occupancy map exactly.  Memory matches
        #: the PR-3 flat dict (which kept every epoch forever); dict *ops*
        #: drop from one probe per link-hop to one insert per recycling.
        self._overflow: dict[int, int] = {}
        #: The compiled kernel instance, or ``None`` for the pure-Python
        #: walk.  ``accel`` overrides the automatic selection for tests:
        #: ``False`` forces the fallback, ``True`` demands the kernel
        #: (raising if it is unavailable), ``None`` follows
        #: ``repro.accel`` (compiled-and-loadable unless REPRO_NO_ACCEL).
        #: Only the epoch-accounting mode is accelerated; the naive and
        #: no-contention ablations always run the Python paths.
        self._kernel = None
        if self._mode == 0 and accel is not False:
            kernel_cls = _accel.mesh_kernel_class()
            if kernel_cls is not None:
                self._kernel = kernel_cls(
                    self.num_links, self._link_bits, float(arch.hop_latency)
                )
                #: The same memory the kernel mutates, viewed as flat
                #: int64 - the introspection methods below read slots
                #: identically in both implementations.
                self._slots = memoryview(self._kernel).cast("q")
                self._overflow = _KernelOverflow(self._kernel)
            elif accel is True:
                raise RuntimeError(
                    "mesh accelerator requested but unavailable: "
                    f"{_accel.status()['reason']}"
                )
        self._link_free_at: dict[int, float] = {}
        #: Flat (src * num_tiles + dst) -> dense-link-id route memo, filled
        #: on demand from the topology's route cache.  Public contract: the
        #: protocol engines index this list directly (via ``paths``) and
        #: call :meth:`resolve_path` on a miss, skipping a method call per
        #: message on their hottest chains.
        self._routes: list[tuple | None] = [None] * (num_tiles * num_tiles)
        #: Per-root broadcast tree with pre-resolved dense link ids.
        self._bcast_edges: dict[int, tuple[tuple[int, int, int], ...]] = {}
        #: Flit count per message type, precomputed once (``message_flits``
        #: depends only on the type and the arch constants) - the unicast
        #: path is the hottest call chain in the simulator.
        self._flits_table = [message_flits(msg, arch) for msg in MsgType]
        self._hop_latency = arch.hop_latency
        # Traffic counters (inputs to the energy model).  Router traversals
        # are derived: every flit that crosses H links visits H + 1 routers,
        # so router = link + flits summed over messages (holds for the
        # broadcast tree too: num_tiles routers, num_tiles - 1 edges).
        self.link_flit_traversals = 0
        self.messages_sent = 0
        self.flits_sent = 0
        #: Ring-buffer slots recycled for a newer epoch (telemetry counter:
        #: how often the window wrapped past live occupancy; not part of
        #: RunStats).  Incremented on the rare recycle branches only; the
        #: compiled kernel keeps its own count, surfaced through the
        #: ``slot_recycles`` property.
        self._recycles = 0

    # ------------------------------------------------------------------
    @property
    def router_flit_traversals(self) -> int:
        """Derived traffic counter (see ``__init__``); kept in sync with the
        other counters by construction, including across ``reset_stats``."""
        return self.link_flit_traversals + self.flits_sent

    @property
    def slot_recycles(self) -> int:
        """Slots recycled for a newer epoch, whichever side did it."""
        kernel = self._kernel
        return self._recycles if kernel is None else kernel.recycles

    @slot_recycles.setter
    def slot_recycles(self, value: int) -> None:
        kernel = self._kernel
        if kernel is None:
            self._recycles = value
        else:
            kernel.recycles = value

    @property
    def implementation(self) -> str:
        """Which traversal implementation this instance runs."""
        return "fallback" if self._kernel is None else "accel"

    @property
    def paths(self) -> list[tuple | None]:
        """The flat route memo of reserved-path descriptors (see
        :meth:`resolve_path`); entries may be ``None`` until resolved."""
        return self._routes

    def reset_contention(self) -> None:
        """Forget all link reservations (used between independent runs)."""
        if self._kernel is not None:
            self._kernel.reset()  # zeroes slots + overflow in place
        else:
            self._slots = [0] * (WINDOW_EPOCHS * self.num_links)
            self._overflow.clear()
        self._link_free_at.clear()

    def flits_for(self, msg: MsgType) -> int:
        return self._flits_table[msg]

    def resolve_path(self, src: int, dst: int) -> tuple:
        """Pre-resolve the XY route src->dst to a reserved-path descriptor.

        The descriptor is ``(links, hops, span, phase_limit)``: the dense
        link ids of the route, their count, the total hop latency
        ``hops * hop_latency``, and the largest arrival-epoch phase for
        which every head of the message stays inside the arrival epoch -
        everything :meth:`traverse_path` would otherwise recompute per
        message, folded into the route memo once.  With the compiled
        kernel active a fifth element carries the kernel-side path handle.
        Treat it as opaque: resolve once, hand to ``traverse_path``.
        Memoized in :attr:`paths` at index ``src * num_tiles + dst``;
        ``src == dst`` yields the empty route (a same-tile "message" never
        enters the network).
        """
        key = src * self._num_tiles + dst
        path = self._routes[key]
        if path is None:
            dense = self._dense_link
            links = tuple(dense[link] for link in self.topology.route(src, dst))
            hops = len(links)
            hop = self._hop_latency
            limit = EPOCH_CYCLES - 1 - (hops - 1) * hop
            if self._kernel is not None:
                path = (links, hops, hops * hop, limit,
                        self._kernel.register_path(links))
            else:
                path = (links, hops, hops * hop, limit)
            self._routes[key] = path
        return path

    # ------------------------------------------------------------------
    # Occupancy plumbing (slow paths): one (link, epoch) cell at a time,
    # window slot or overflow dict as the slot's epoch tag dictates.
    # ------------------------------------------------------------------
    def _occ_load(self, link: int, epoch: int) -> int:
        value = self._slots[(epoch & _WINDOW_MASK) * self.num_links + link]
        if value >> _SLOT_SHIFT == epoch:
            return value & _SLOT_OCC_MASK
        return self._overflow.get((epoch << self._link_bits) | link, 0)

    def _occ_store(self, link: int, epoch: int, occupancy: int) -> None:
        slot = (epoch & _WINDOW_MASK) * self.num_links + link
        value = self._slots[slot]
        tag = value >> _SLOT_SHIFT
        if tag == epoch:
            self._slots[slot] = (epoch << _SLOT_SHIFT) | occupancy
        elif tag < epoch:
            # Recycle the slot for the newer epoch; the retired occupancy
            # stays exactly readable through the overflow dict.
            self._recycles += 1
            old = value & _SLOT_OCC_MASK
            if old:
                self._overflow[(tag << self._link_bits) | link] = old
            self._slots[slot] = (epoch << _SLOT_SHIFT) | occupancy
        else:
            # The slot belongs to a newer epoch (a reservation further in
            # the future already claimed it): this epoch lives in overflow.
            self._overflow[(epoch << self._link_bits) | link] = occupancy

    def _traverse_naive(self, link: int, t_head: float, flits: int) -> float:
        """Single next-free-time per link (the ablation model).

        A reservation made for the *future* (e.g. a DRAM reply scheduled
        ahead) pushes the high-water mark forward and blocks earlier traffic
        on an idle link; the ablation bench quantifies the resulting phantom
        congestion against the epoch model.
        """
        free_at = self._link_free_at.get(link, 0.0)
        depart = t_head if t_head >= free_at else free_at
        self._link_free_at[link] = depart + flits
        return depart

    def _traverse_link(self, link: int, t_head: float, flits: int) -> float:
        """Reserve ``flits`` of bandwidth on one link; return head depart time."""
        if self.naive_contention:
            return self._traverse_naive(link, t_head, flits)
        # Times are non-negative, so ``int(t) >> EPOCH_SHIFT`` equals
        # ``int(t // EPOCH_CYCLES)`` without the float division.
        epoch = int(t_head) >> EPOCH_SHIFT
        slots = self._slots
        slot = (epoch & _WINDOW_MASK) * self.num_links + link
        value = slots[slot]
        ebase = epoch << _SLOT_SHIFT
        if value <= ebase + EPOCH_CYCLES - flits:
            if value >= ebase:
                slots[slot] = value + flits
                return t_head
            if flits <= EPOCH_CYCLES:
                self._recycles += 1
                old = value & _SLOT_OCC_MASK
                if old:
                    self._overflow[((value >> _SLOT_SHIFT) << self._link_bits) | link] = old
                slots[slot] = ebase | flits
                return t_head
        return self._traverse_congested(link, epoch, t_head, flits)

    def _traverse_congested(self, link: int, epoch: int, t_head: float, flits: int) -> float:
        """Slow path: the arrival epoch cannot hold the whole message."""
        first = epoch
        while self._occ_load(link, epoch) >= EPOCH_CYCLES:
            epoch += 1
        depart = t_head if epoch == first else float(epoch * EPOCH_CYCLES)
        remaining = flits
        while remaining > 0:
            used = self._occ_load(link, epoch)
            take = EPOCH_CYCLES - used
            if take > remaining:
                take = remaining
            self._occ_store(link, epoch, used + take)
            remaining -= take
            epoch += 1
        return depart

    # ------------------------------------------------------------------
    def traverse_path(
        self,
        path: tuple,
        t_head: float,
        flits: int,
        # Module constants bound as defaults: local loads on the hottest
        # code in the simulator instead of global lookups per call.
        _eshift: int = EPOCH_SHIFT,
        _emask: int = _EPOCH_MASK,
        _ecap: int = EPOCH_CYCLES,
        _wmask: int = _WINDOW_MASK,
        _sshift: int = _SLOT_SHIFT,
        _omask: int = _SLOT_OCC_MASK,
    ) -> float:
        """Send ``flits`` along a pre-resolved path; return the TAIL arrival.

        ``path`` is the opaque descriptor from :meth:`resolve_path`.  The
        empty route is a same-tile "message": it arrives instantly,
        consumes no network energy and is not counted - exactly why R-NUCA
        locates private data at the requester's own slice.

        This is the simulator's hottest loop.  The common shape - every hop
        lands in the head's arrival epoch (paths are <= 2W-2 hops of 2
        cycles against 32-cycle epochs) and every link has capacity - runs
        as a single pass of one list index, one subtract, two compares and
        one float add per link, with the epoch row resolved once for the
        whole path.  The head time accumulates ``+= hop`` per link (NOT one
        ``hops * hop`` add at the end: float addition of the hop latency is
        not associative for fractional times, and bit-identity to the
        per-link walk is contractual).  Epoch-crossing paths and contended
        or recycled slots fall back to the generic walk, which reserves
        identically.

        With the compiled kernel active the whole reservation is one FFI
        call; only the traffic counters stay Python-side (integer sums,
        so the split cannot change results).
        """
        hops = path[1]
        if not hops:
            return t_head
        self.link_flit_traversals += flits * hops
        self.messages_sent += 1
        self.flits_sent += flits
        kernel = self._kernel
        if kernel is not None:
            return kernel.traverse(path[4], t_head, flits)
        links, hops, span, phase_limit = path
        hop = self._hop_latency
        mode = self._mode
        if mode:
            if mode == 2:
                return t_head + span + (flits - 1)
            traverse = self._traverse_naive
            for link in links:
                t_head = traverse(link, t_head, flits) + hop
            return t_head + (flits - 1)
        slots = self._slots
        num_links = self.num_links
        t_int = int(t_head)
        # Single-epoch fast pass: the last head departs at
        # t_int + (hops - 1) * hop, still inside the arrival epoch.
        if (t_int & _emask) <= phase_limit and flits <= _ecap:
            epoch = t_int >> _eshift
            row = (epoch & _wmask) * num_links
            ebase = epoch << _sshift
            spare = ebase + _ecap - flits
            for link in links:
                j = row + link
                value = slots[j]
                if value <= spare:
                    if value >= ebase:
                        # In-epoch slot with capacity: reserve and move on.
                        slots[j] = value + flits
                        t_head += hop
                        continue
                    # Stale slot: recycle it for this epoch (the retired
                    # occupancy stays readable through the overflow dict).
                    self._recycles += 1
                    old = value & _omask
                    if old:
                        self._overflow[
                            ((value >> _sshift) << self._link_bits) | link
                        ] = old
                    slots[j] = ebase | flits
                    t_head += hop
                    continue
                break
            else:
                # Every head departed on arrival.
                return t_head + (flits - 1)
            # ``link`` was full or owned by a newer epoch: links before it
            # are already reserved and ``t_head`` is its head-arrival time;
            # resume the generic walk there, carrying the shadow integer
            # clock forward (XY routes never repeat a link, so index() is
            # unambiguous).
            i = links.index(link)
            t_int += i * hop
            links = links[i:]
        epoch = -1  # sentinel: the generic walk recomputes the row first
        row = -1
        ebase = 0
        spare = 0
        overflow = self._overflow
        link_bits = self._link_bits
        claim_ok = flits <= _ecap
        for link in links:
            e = t_int >> _eshift
            if e != epoch:
                epoch = e
                row = (e & _wmask) * num_links
                ebase = e << _sshift
                spare = ebase + _ecap - flits
            j = row + link
            value = slots[j]
            if value <= spare:
                if value >= ebase:
                    slots[j] = value + flits
                    t_head += hop
                    t_int += hop
                    continue
                if claim_ok:
                    self._recycles += 1
                    old = value & _omask
                    if old:
                        overflow[((value >> _sshift) << link_bits) | link] = old
                    slots[j] = ebase | flits
                    t_head += hop
                    t_int += hop
                    continue
            t_head = self._traverse_congested(link, epoch, t_head, flits) + hop
            t_int = int(t_head)
            epoch = -1  # force a row recompute on the next link
        return t_head + (flits - 1)

    # ------------------------------------------------------------------
    def traverse_chain(
        self,
        path1: tuple,
        flits1: int,
        t0: float,
        busy_until: float,
        gap: float,
        path2: tuple,
        flits2: int,
    ) -> tuple[float, float]:
        """Reserve a request leg and its dependent reply leg in one call.

        Exactly equivalent to the unchained engine sequence::

            t1 = traverse_path(path1, t0, flits1)        # request tail
            start = max(t1, busy_until)                   # wait out the line
            t2 = traverse_path(path2, start + gap, flits2)  # reply tail

        and returns ``(t1, t2)`` so the caller can still account the
        waiting time (``busy_until - t1``).  With the compiled kernel and
        two non-empty legs this crosses the FFI boundary once per miss
        instead of once per traversal; any empty leg (same-tile message)
        composes the pure calls, which short-circuit without touching the
        network either way.
        """
        kernel = self._kernel
        if kernel is not None and path1[1] and path2[1]:
            self.link_flit_traversals += flits1 * path1[1] + flits2 * path2[1]
            self.messages_sent += 2
            self.flits_sent += flits1 + flits2
            return kernel.traverse_chain(
                path1[4], flits1, t0, busy_until, gap, path2[4], flits2
            )
        t1 = self.traverse_path(path1, t0, flits1)
        start = busy_until if busy_until > t1 else t1
        return t1, self.traverse_path(path2, start + gap, flits2)

    def traverse_many(self, paths: list, t_head: float, flits: int) -> list[float]:
        """Reserve one same-sized message per path, all departing at
        ``t_head``, in list order; return the per-path tail arrivals.

        The invalidation rounds of the directory families reserve one INV
        per sharer back to back - reservation *order* is contractual (it
        decides who gets the contended slot), and this preserves it while
        crossing the FFI boundary once for the whole round.
        """
        kernel = self._kernel
        if kernel is None:
            traverse = self.traverse_path
            return [traverse(path, t_head, flits) for path in paths]
        handles = [path[4] for path in paths if path[1]]
        if not handles:
            return [t_head] * len(paths)
        self.link_flit_traversals += flits * sum(path[1] for path in paths)
        self.messages_sent += len(handles)
        self.flits_sent += flits * len(handles)
        if len(handles) == len(paths):
            return list(kernel.traverse_many(t_head, flits, handles))
        arrivals = iter(kernel.traverse_many(t_head, flits, handles))
        return [next(arrivals) if path[1] else t_head for path in paths]

    # ------------------------------------------------------------------
    def unicast(self, src: int, dst: int, msg: MsgType, start: float) -> float:
        """Send one message; return the arrival time of its tail flit."""
        if src == dst:
            return start
        path = self._routes[src * self._num_tiles + dst]
        if path is None:
            path = self.resolve_path(src, dst)
        return self.traverse_path(path, start, self._flits_table[msg])

    # ------------------------------------------------------------------
    def broadcast(self, root: int, msg: MsgType, start: float) -> dict[int, float]:
        """Broadcast from ``root``; return per-tile tail arrival times.

        Each router replicates the message on its tree output links, so the
        network carries exactly one copy per tree edge (``num_tiles - 1``
        link traversals per flit) - the single-injection broadcast of
        Section 3.1.  Every tree edge reserves bandwidth through the same
        ring-buffer slot logic as unicast, with the hop latency cached on
        the network (not re-read from the arch per edge).
        """
        flits = self._flits_table[msg]
        arrival: dict[int, float] = {root: start}
        edges = self._bcast_edges.get(root)
        if edges is None:
            dense = self._dense_link
            num_tiles = self._num_tiles
            edges = tuple(
                (src, dst, dense[src * num_tiles + dst])
                for src, dst in self.topology.broadcast_tree(root)
            )
            self._bcast_edges[root] = edges
        hop = self._hop_latency
        tail = flits - 1
        contended = self.model_contention
        kernel = self._kernel
        traverse = self._traverse_link if kernel is None else kernel.traverse_link
        for src, dst, link in edges:
            t_head = arrival[src] - tail if src != root else start
            if t_head < start:
                t_head = start
            if contended:
                t_head = traverse(link, t_head, flits) + hop
            else:
                t_head = t_head + hop
            arrival[dst] = t_head + tail
        # router traversals (flits * num_tiles) are derived: link
        # traversals (flits * (num_tiles - 1) tree edges) + flits_sent.
        self.link_flit_traversals += flits * len(edges)
        self.messages_sent += 1
        self.flits_sent += flits
        return arrival

    # ------------------------------------------------------------------
    # Introspection (property tests / debugging; not on any hot path).
    # ------------------------------------------------------------------
    def reserved_flits(self) -> int:
        """Total bandwidth reserved across all epochs and links.

        Conservation invariant (pinned by the contention property tests):
        with the epoch model active this always equals
        ``link_flit_traversals`` - every flit crossing a link reserves
        exactly one cycle of capacity, wherever the window placed it.
        """
        return (
            sum(value & _SLOT_OCC_MASK for value in self._slots)
            + sum(self._overflow.values())
        )

    def occupancy_map(self) -> dict[tuple[int, int], int]:
        """The full (epoch, link) -> reserved-flits map, slots + overflow.

        Reconstructs exactly the mapping the PR-3 flat dict stored; the
        equivalence property test diffs it against a reference model.
        """
        out: dict[tuple[int, int], int] = {}
        num_links = self.num_links
        for position, value in enumerate(self._slots):
            occupancy = value & _SLOT_OCC_MASK
            if occupancy:
                out[(value >> _SLOT_SHIFT, position % num_links)] = occupancy
        mask = (1 << self._link_bits) - 1
        for key, value in self._overflow.items():
            if value:
                out[(key >> self._link_bits, key & mask)] = value
        return out
