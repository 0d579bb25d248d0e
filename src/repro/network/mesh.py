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

**One mesh contract** (DESIGN.md section 12).  A *mesh kernel* owns the
reservations and the traffic counters (which the energy model converts
into dynamic energy, DSENT-like, Section 4.2): the compiled ``MeshKernel``
(:mod:`repro.accel`), its pure-Python twin :class:`PyMeshKernel`, or one of
the link-model ablations (DESIGN.md decision 6), :class:`NaiveMeshKernel`
and :class:`FreeMeshKernel`.  All have the same constructor, methods and
attributes.  :class:`MeshNetwork` picks one at construction and keeps the
route memo of kernel path handles and the broadcast trees; the protocol
engines call the kernel's ``traverse`` directly, and
``unicast``/``broadcast`` are thin wrappers.  An empty (same-tile) route arrives instantly and counts
nothing, in every kernel.
"""

from __future__ import annotations

from operator import attrgetter

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


class PyMeshKernel:
    """The pure-Python ring-buffer walk: the compiled ``MeshKernel``'s twin.

    Same constructor, methods and attributes, bit for bit the same
    arrivals, recycles, counters and occupancy (pinned by the kernel
    contract property), so ``MeshNetwork`` and the protocol engines drive
    either one.  This is the ungated reference for the compiled kernel
    (``REPRO_NO_ACCEL=1`` selects it).

    A path handle is the reserved-path descriptor ``(links, hops, span,
    phase_limit)``: the dense link ids of the route, their count, the total
    hop latency ``hops * hop``, and the largest arrival-epoch phase for
    which every head of the message stays inside the arrival epoch -
    everything :meth:`traverse` would otherwise recompute per message.
    Treat it as opaque: register once, hand to ``traverse``.

    Slotted: the slot table and the counters are read on every message.
    """

    __slots__ = (
        "_num_links",
        "link_bits",
        "_hop",
        "slots",
        "_overflow",
        "recycles",
        "messages_sent",
        "flits_sent",
        "link_flit_traversals",
    )

    def __init__(self, num_links: int, link_bits: int, hop: int) -> None:
        self._num_links = num_links
        self.link_bits = link_bits
        #: Integral: the walks advance a shadow integer clock by it.
        self._hop = hop
        #: Ring-buffer slot table: position ``(epoch % WINDOW) * num_links
        #: + link`` holds ``epoch * 64 + occupancy`` for the epoch that
        #: currently owns the slot.  A plain list, not an ``array``: slot
        #: values are ints either way, and list indexing skips the
        #: box/unbox step of ``array('q')`` on the hot path.
        self.slots: list[int] = [0] * (WINDOW_EPOCHS * num_links)
        #: Exact spill storage for epochs a slot does not currently
        #: represent, keyed ``(epoch << link_bits) | link``: far-future
        #: reservations (e.g. DRAM replies scheduled ahead) and retired
        #: occupancy flushed on slot recycling.  Invariant: an entry for
        #: (epoch, link) exists only while the owning slot's epoch is newer
        #: than ``epoch``, so the slot table and the overflow dict always
        #: partition the epoch -> occupancy map exactly.
        self._overflow: dict[int, int] = {}
        #: Slots recycled for a newer epoch (telemetry counter: how often
        #: the window wrapped past live occupancy; not part of RunStats).
        self.recycles = 0
        # Traffic counters of the non-empty messages (inputs to the energy
        # model).  ``MeshNetwork.broadcast`` adds its tree traffic itself.
        self.messages_sent = 0
        self.flits_sent = 0
        self.link_flit_traversals = 0

    def register_path(self, links) -> tuple:
        """The path handle for a route of dense link ids (see class doc)."""
        links = tuple(links)
        hops = len(links)
        hop = self._hop
        return links, hops, hops * hop, EPOCH_CYCLES - 1 - (hops - 1) * hop

    def overflow_len(self) -> int:
        return len(self._overflow)

    def overflow_items(self) -> list[tuple[int, int]]:
        return list(self._overflow.items())

    def _count(self, hops: int, flits: int) -> None:
        """Count one non-empty message (``traverse`` inlines this)."""
        self.messages_sent += 1
        self.flits_sent += flits
        self.link_flit_traversals += flits * hops

    # ------------------------------------------------------------------
    # Occupancy plumbing (slow paths): one (link, epoch) cell at a time,
    # window slot or overflow dict as the slot's epoch tag dictates.
    # ------------------------------------------------------------------
    def _occ_load(self, link: int, epoch: int) -> int:
        value = self.slots[(epoch & _WINDOW_MASK) * self._num_links + link]
        if value >> _SLOT_SHIFT == epoch:
            return value & _SLOT_OCC_MASK
        return self._overflow.get((epoch << self.link_bits) | link, 0)

    def _occ_store(self, link: int, epoch: int, occupancy: int) -> None:
        slot = (epoch & _WINDOW_MASK) * self._num_links + link
        value = self.slots[slot]
        tag = value >> _SLOT_SHIFT
        if tag == epoch:
            self.slots[slot] = (epoch << _SLOT_SHIFT) | occupancy
        elif tag < epoch:
            # Recycle the slot for the newer epoch; the retired occupancy
            # stays exactly readable through the overflow dict.
            self.recycles += 1
            old = value & _SLOT_OCC_MASK
            if old:
                self._overflow[(tag << self.link_bits) | link] = old
            self.slots[slot] = (epoch << _SLOT_SHIFT) | occupancy
        else:
            # The slot belongs to a newer epoch (a reservation further in
            # the future already claimed it): this epoch lives in overflow.
            self._overflow[(epoch << self.link_bits) | link] = occupancy

    def traverse_link(self, link: int, t_head: float, flits: int) -> float:
        """Reserve ``flits`` of bandwidth on one link; return head depart time."""
        # Times are non-negative, so ``int(t) >> EPOCH_SHIFT`` equals
        # ``int(t // EPOCH_CYCLES)`` without the float division.
        epoch = int(t_head) >> EPOCH_SHIFT
        slots = self.slots
        slot = (epoch & _WINDOW_MASK) * self._num_links + link
        value = slots[slot]
        ebase = epoch << _SLOT_SHIFT
        if value <= ebase + EPOCH_CYCLES - flits:
            if value >= ebase:
                slots[slot] = value + flits
                return t_head
            if flits <= EPOCH_CYCLES:
                self.recycles += 1
                old = value & _SLOT_OCC_MASK
                if old:
                    self._overflow[((value >> _SLOT_SHIFT) << self.link_bits) | link] = old
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
    def traverse(
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
        """Send ``flits`` along a registered path; return the TAIL arrival.

        The empty route is a same-tile "message": it arrives instantly,
        consumes no network energy and is not counted.

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
        """
        links, hops, _span, phase_limit = path
        if not hops:
            return t_head
        self.messages_sent += 1
        self.flits_sent += flits
        self.link_flit_traversals += flits * hops
        hop = self._hop
        slots = self.slots
        num_links = self._num_links
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
                    self.recycles += 1
                    old = value & _omask
                    if old:
                        self._overflow[
                            ((value >> _sshift) << self.link_bits) | link
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
        link_bits = self.link_bits
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
                    self.recycles += 1
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


class NaiveMeshKernel(PyMeshKernel):
    """The ``naive`` link model: one next-free-time mark per link.

    A reservation made for the *future* (e.g. a DRAM reply scheduled
    ahead) pushes the mark forward and blocks earlier traffic on an idle
    link; the link-model ablation (DESIGN.md decision 6) quantifies the
    resulting phantom congestion against the epoch model.  The ring buffer
    stays empty.
    """

    __slots__ = ("_free_at",)

    def __init__(self, num_links: int, link_bits: int, hop: int) -> None:
        super().__init__(num_links, link_bits, hop)
        self._free_at = [0.0] * num_links

    def traverse(self, path: tuple, t_head: float, flits: int) -> float:
        links, hops, _span, _limit = path
        if not hops:
            return t_head
        self._count(hops, flits)
        hop = self._hop
        for link in links:
            t_head = self.traverse_link(link, t_head, flits) + hop
        return t_head + (flits - 1)

    def traverse_link(self, link: int, t_head: float, flits: int) -> float:
        free_at = self._free_at[link]
        depart = t_head if t_head >= free_at else free_at
        self._free_at[link] = depart + flits
        return depart


class FreeMeshKernel(PyMeshKernel):
    """The ``none`` link model: infinite bandwidth, pure hop latency plus
    serialization.  Nothing is reserved; the traffic is still counted."""

    __slots__ = ()

    def traverse(self, path: tuple, t_head: float, flits: int) -> float:
        _links, hops, span, _limit = path
        if not hops:
            return t_head
        self._count(hops, flits)
        return t_head + span + (flits - 1)

    def traverse_link(self, link: int, t_head: float, flits: int) -> float:
        return t_head


#: The link-model ablations by ``ArchConfig.link_model``; ``"epoch"`` takes
#: the compiled kernel or its Python twin.
_ABLATION_KERNELS = {"naive": NaiveMeshKernel, "none": FreeMeshKernel}


class _MeshGeometry:
    """What every mesh of one width shares in a process: the topology, the
    dense link numbering, and the XY routes and broadcast trees as dense
    link ids, each computed on first use.  ``Simulator.run`` builds a new
    network per run, so without sharing every run would recompute its
    routes; the kernel path handles stay per network (``register_path``)."""

    __slots__ = ("topology", "num_links", "dense_link", "routes", "bcast_edges")

    def __init__(self, num_tiles: int) -> None:
        self.topology = Mesh2D(num_tiles)
        #: Dense link numbering: position in ``topology.directed_links()``.
        #: ``dense_link`` maps the sparse ``src * num_tiles + dst`` encoding
        #: to the dense id (-1 for non-links).
        links = self.topology.directed_links()
        self.num_links = len(links)
        self.dense_link = [-1] * (num_tiles * num_tiles)
        for dense, (src, dst) in enumerate(links):
            self.dense_link[src * num_tiles + dst] = dense
        #: ``src * num_tiles + dst`` -> the route's dense link ids.
        self.routes: list = [None] * (num_tiles * num_tiles)
        #: Per-root broadcast tree as ``(src, dst, dense link)`` edges.
        self.bcast_edges: dict[int, tuple[tuple[int, int, int], ...]] = {}


_GEOMETRIES: dict[int, _MeshGeometry] = {}


def _geometry(num_tiles: int) -> _MeshGeometry:
    geometry = _GEOMETRIES.get(num_tiles)
    if geometry is None:
        geometry = _GEOMETRIES[num_tiles] = _MeshGeometry(num_tiles)
    return geometry


class MeshNetwork:
    """Timing + traffic model for the electrical 2-D mesh.

    Holds the configuration and the route memo of kernel path handles;
    the topology, dense link ids, routes and broadcast trees are shared by
    every mesh of the same width (``_MeshGeometry``).  The mesh kernel
    (``kernel``) holds the reservations and the traffic counters.
    Slotted: the route memo is probed on every message.
    """

    __slots__ = (
        "arch",
        "topology",
        "kernel",
        "num_links",
        "_num_tiles",
        "_geometry",
        "_routes",
        "_flits_table",
        "_hop_latency",
    )

    def __init__(self, arch: ArchConfig) -> None:
        self.arch = arch
        geometry = _geometry(arch.num_cores)
        self._geometry = geometry
        self.topology = geometry.topology
        num_tiles = self.topology.num_tiles
        self._num_tiles = num_tiles
        self.num_links = geometry.num_links
        #: The mesh kernel, picked once: the ablation ``arch.link_model``
        #: names, else the compiled ``MeshKernel`` (unless REPRO_NO_ACCEL is
        #: set or the build failed), else its pure-Python twin.
        kernel_cls = (
            _ABLATION_KERNELS.get(arch.link_model)
            or _accel.mesh_kernel_class()
            or PyMeshKernel
        )
        self.kernel = kernel_cls(
            self.num_links, (self.num_links - 1).bit_length(), arch.hop_latency
        )
        #: Flat (src * num_tiles + dst) -> path-handle route memo, filled
        #: on demand.  Public contract: the protocol engines index this
        #: list directly (via ``paths``) and call :meth:`resolve_path` on a
        #: miss, skipping a method call per message on their hottest chains.
        self._routes: list = [None] * (num_tiles * num_tiles)
        #: Flit count per message type, precomputed once (``message_flits``
        #: depends only on the type and the arch constants).
        self._flits_table = [message_flits(msg, arch) for msg in MsgType]
        self._hop_latency = arch.hop_latency

    # ------------------------------------------------------------------
    # Traffic counters (read-only; the kernel keeps them).  Router
    # traversals are derived: every flit that crosses H links visits H + 1
    # routers, so router = link + flits summed over messages (holds for the
    # broadcast tree too: num_tiles routers, num_tiles - 1 edges).
    messages_sent = property(attrgetter("kernel.messages_sent"))
    flits_sent = property(attrgetter("kernel.flits_sent"))
    link_flit_traversals = property(attrgetter("kernel.link_flit_traversals"))
    #: Slots recycled for a newer epoch (telemetry; not part of RunStats).
    slot_recycles = property(attrgetter("kernel.recycles"))

    @property
    def router_flit_traversals(self) -> int:
        kernel = self.kernel
        return kernel.link_flit_traversals + kernel.flits_sent

    def reset_counters(self) -> None:
        """Zero the traffic counters and the recycle count (after warmup);
        the reservations stay warm."""
        kernel = self.kernel
        kernel.messages_sent = kernel.flits_sent = 0
        kernel.link_flit_traversals = kernel.recycles = 0

    @property
    def implementation(self) -> str:
        """``"accel"`` for the compiled kernel, ``"fallback"`` for the
        Python kernels (the ablations included)."""
        return "fallback" if isinstance(self.kernel, PyMeshKernel) else "accel"

    @property
    def paths(self) -> list:
        """The flat route memo of path handles (see :meth:`resolve_path`);
        entries may be ``None`` until resolved."""
        return self._routes

    def flits_for(self, msg: MsgType) -> int:
        return self._flits_table[msg]

    def resolve_path(self, src: int, dst: int):
        """The kernel's handle for the XY route src->dst, registered once.

        Memoized in :attr:`paths` at index ``src * num_tiles + dst``;
        ``src == dst`` yields the empty route (a same-tile "message" never
        enters the network).
        """
        key = src * self._num_tiles + dst
        path = self._routes[key]
        if path is None:
            geometry = self._geometry
            links = geometry.routes[key]
            if links is None:
                dense = geometry.dense_link
                links = tuple(dense[link] for link in self.topology.route(src, dst))
                geometry.routes[key] = links
            path = self.kernel.register_path(links)
            self._routes[key] = path
        return path

    # ------------------------------------------------------------------
    def unicast(self, src: int, dst: int, msg: MsgType, start: float) -> float:
        """Send one message; return the arrival time of its tail flit."""
        path = self._routes[src * self._num_tiles + dst]
        if path is None:
            path = self.resolve_path(src, dst)
        return self.kernel.traverse(path, start, self._flits_table[msg])

    def broadcast(self, root: int, msg: MsgType, start: float) -> dict[int, float]:
        """Broadcast from ``root``; return per-tile tail arrival times.

        Each router replicates the message on its tree output links, so the
        network carries exactly one copy per tree edge (``num_tiles - 1``
        link traversals per flit) - the single-injection broadcast of
        Section 3.1.  Every tree edge reserves bandwidth through the
        kernel's ``traverse_link``, with the hop latency cached on the
        network (not re-read from the arch per edge).
        """
        flits = self._flits_table[msg]
        arrival: dict[int, float] = {root: start}
        bcast_edges = self._geometry.bcast_edges
        edges = bcast_edges.get(root)
        if edges is None:
            dense = self._geometry.dense_link
            num_tiles = self._num_tiles
            edges = tuple(
                (src, dst, dense[src * num_tiles + dst])
                for src, dst in self.topology.broadcast_tree(root)
            )
            bcast_edges[root] = edges
        hop = self._hop_latency
        tail = flits - 1
        kernel = self.kernel
        traverse = kernel.traverse_link
        for src, dst, link in edges:
            t_head = arrival[src] - tail if src != root else start
            if t_head < start:
                t_head = start
            arrival[dst] = traverse(link, t_head, flits) + hop + tail
        # One message; router traversals (flits * num_tiles) are derived:
        # link traversals (flits * (num_tiles - 1) tree edges) + flits_sent.
        kernel.link_flit_traversals += flits * len(edges)
        kernel.messages_sent += 1
        kernel.flits_sent += flits
        return arrival

    # ------------------------------------------------------------------
    # Introspection (property tests / debugging; not on any hot path).
    # Both epoch kernels expose ``slots`` (the compiled one as a flat int64
    # view of the memory it mutates) and ``overflow_items()``.
    # ------------------------------------------------------------------
    def reserved_flits(self) -> int:
        """Total bandwidth reserved across all epochs and links.

        Conservation invariant (pinned by the contention property tests):
        with the epoch model active this always equals
        ``link_flit_traversals`` - every flit crossing a link reserves
        exactly one cycle of capacity, wherever the window placed it.
        """
        kernel = self.kernel
        return (
            sum(value & _SLOT_OCC_MASK for value in kernel.slots)
            + sum(value for _key, value in kernel.overflow_items())
        )

    def occupancy_map(self) -> dict[tuple[int, int], int]:
        """The full (epoch, link) -> reserved-flits map, slots + overflow.

        Reconstructs exactly the mapping the PR-3 flat dict stored; the
        equivalence property test diffs it against a reference model.
        """
        kernel = self.kernel
        out: dict[tuple[int, int], int] = {}
        num_links = self.num_links
        for position, value in enumerate(kernel.slots):
            occupancy = value & _SLOT_OCC_MASK
            if occupancy:
                out[(value >> _SLOT_SHIFT, position % num_links)] = occupancy
        link_bits = kernel.link_bits
        mask = (1 << link_bits) - 1
        for key, value in kernel.overflow_items():
            if value:
                out[(key >> link_bits, key & mask)] = value
        return out
