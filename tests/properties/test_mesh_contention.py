"""Mesh-kernel properties (DESIGN.md sections 8 and 12).

The windowed ring buffer replacing PR 3's flat epoch dict must be
*observationally invisible*: same departure times, same occupancy map, under
any traffic - including far-future reservations (DRAM replies scheduled
thousands of cycles ahead) that live in the overflow dict, and traffic that
then arrives "in the past" relative to those reservations.

Six properties pin the mesh kernels:

* **kernel contract** - ``PyMeshKernel`` and the compiled ``MeshKernel``,
  driven through one random stream of calls (``raise_horizon`` included),
  return the same values and end with the same counters, recycles,
  retired flits, horizon, overflow and slot table;
* **flit conservation** - every flit that crosses a link reserves exactly
  one cycle of capacity somewhere (window slot or overflow), so the total
  reserved capacity always equals ``link_flit_traversals``; under a moving
  horizon, the reserved capacity plus ``retired_flits`` does;
* **reference equivalence** - a randomized message stream produces
  bit-identical arrival times and an identical (epoch, link) -> occupancy
  map against a reference implementation of the PR-3 flat-dict model;
  under a moving horizon, the arrival times stay bit-identical and the
  maps agree on every epoch at or above the horizon;
* **loud refusal** - a ``traverse`` or ``traverse_link`` whose head epoch
  lies below the horizon raises ``SimulationError`` and changes nothing;
* **leg composition** - a miss on a resident line with nothing to do at
  its home between the legs (the home kernel's ``round_trip``) reserves
  exactly ``traverse``, then ``max`` with the line's ``busy_until`` plus
  the L2 latency, then ``traverse``;
* **counters** - every kernel counts each non-empty message once and a
  same-tile message not at all.

Conservation, reference equivalence and the refusal run over the two
epoch kernels (the Python twin and the compiled kernel); leg composition
and the counters also run over the ``naive`` and ``none`` link-model
kernels.  The properties written before the horizon existed run at
horizon 0, where no occupancy retires.
"""

from __future__ import annotations

import dataclasses
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel as accel_pkg
from repro.accel.build import NO_ACCEL_ENV
from repro.common.errors import SimulationError
from repro.common.params import ArchConfig, baseline_protocol
from repro.network.mesh import (
    EPOCH_CYCLES,
    EPOCH_SHIFT,
    WINDOW_EPOCHS,
    MeshNetwork,
    PyMeshKernel,
)
from repro.network.messages import MsgType
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.home import PyHomeKernel

ARCH16 = ArchConfig(num_cores=16, num_memory_controllers=4)

EPOCH_KERNELS = pytest.mark.parametrize("kernel", ["python", "compiled"])
ALL_KERNELS = pytest.mark.parametrize("kernel", ["python", "compiled", "naive", "none"])


def compiled_kernel_class():
    """The compiled ``MeshKernel`` whatever ``REPRO_NO_ACCEL`` says (the
    tests pick their kernel explicitly); skips where it cannot build."""
    with mock.patch.dict(os.environ, {NO_ACCEL_ENV: ""}):
        kernel_cls = accel_pkg.mesh_kernel_class()
    if kernel_cls is None:
        pytest.skip("compiled mesh kernel unavailable")
    return kernel_cls


def make_net(kernel: str, arch: ArchConfig = ARCH16) -> MeshNetwork:
    """A network on the named kernel: ``python`` / ``compiled`` (the epoch
    model) or the ``naive`` / ``none`` link model."""
    if kernel in ("naive", "none"):
        return MeshNetwork(dataclasses.replace(arch, link_model=kernel))
    kernel_cls = PyMeshKernel if kernel == "python" else compiled_kernel_class()
    with mock.patch.object(accel_pkg, "mesh_kernel_class", lambda: kernel_cls):
        return MeshNetwork(arch)


def make_engine(kernel: str, arch: ArchConfig = ARCH16) -> ProtocolEngineBase:
    """A base engine whose network runs on the named kernel (as
    :func:`make_net`), with the home kernel the engine picks for it: the
    compiled ``HomeKernel`` on the compiled mesh kernel, else
    ``PyHomeKernel``."""
    if kernel in ("naive", "none"):
        return ProtocolEngineBase(
            dataclasses.replace(arch, link_model=kernel), baseline_protocol()
        )
    kernel_cls = PyMeshKernel if kernel == "python" else compiled_kernel_class()
    with mock.patch.object(accel_pkg, "mesh_kernel_class", lambda: kernel_cls), \
            mock.patch.dict(os.environ, {NO_ACCEL_ENV: ""}):
        return ProtocolEngineBase(arch, baseline_protocol())


def send(net: MeshNetwork, src: int, dst: int, start: float, flits: int) -> float:
    return net.kernel.traverse(net.resolve_path(src, dst), start, flits)


class ReferenceEpochModel:
    """The PR-3 contention model: one flat dict keyed (epoch, link).

    Deliberately transcribed from the pre-ring-buffer ``MeshNetwork`` (flat
    dict, per-link Python loop) so the equivalence property compares the
    ring buffer against the exact semantics it replaced.
    """

    def __init__(self, net: MeshNetwork) -> None:
        self.topology = topology = net.topology
        num_tiles = topology.num_tiles
        self.dense = {
            src * num_tiles + dst: i
            for i, (src, dst) in enumerate(topology.directed_links())
        }
        self.use: dict[tuple[int, int], int] = {}
        self.hop = net.arch.hop_latency

    def send(self, src: int, dst: int, t_head: float, flits: int) -> float:
        """PR 3's inlined unicast loop: one dict probe per link, a shadow
        integer clock advanced by the (integral) hop latency per link."""
        links = [self.dense[link] for link in self.topology.route(src, dst)]
        if not links:
            return t_head
        hop = self.hop
        use = self.use
        t_int = int(t_head)
        for link in links:
            epoch = t_int >> EPOCH_SHIFT
            used = use.get((epoch, link), 0)
            if used + flits <= EPOCH_CYCLES:
                use[(epoch, link)] = used + flits
                t_head += hop
                t_int += hop
            else:
                t_head = self._congested(link, epoch, t_head, flits) + hop
                t_int = int(t_head)
        return t_head + (flits - 1)

    def _congested(self, link: int, epoch: int, t_head: float, flits: int) -> float:
        use = self.use
        first = epoch
        while use.get((epoch, link), 0) >= EPOCH_CYCLES:
            epoch += 1
        depart = t_head if epoch == first else float(epoch * EPOCH_CYCLES)
        remaining = flits
        while remaining > 0:
            used = use.get((epoch, link), 0)
            take = EPOCH_CYCLES - used
            if take > remaining:
                take = remaining
            use[(epoch, link)] = used + take
            remaining -= take
            epoch += 1
        return depart

    def occupancy_map(self) -> dict[tuple[int, int], int]:
        return {key: value for key, value in self.use.items() if value}


def next_start(draw, t: float) -> tuple[float, float]:
    """``(start, t)``: a bursty advance of the running time ``t``, or a
    far-future jump (overflow reservations), or a return to the past."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        # Far-future reservation: several windows ahead (overflow side).
        return t + draw(st.integers(1, 4)) * WINDOW_EPOCHS * EPOCH_CYCLES, t
    if kind == 1:
        # Revisit the past relative to the max time seen so far.
        return max(0.0, t - draw(st.integers(0, 3 * EPOCH_CYCLES))), t
    t += draw(st.floats(0.0, 2.5 * EPOCH_CYCLES))
    return t, t


def message_stream(draw, num_tiles: int, n_min: int = 1, n_max: int = 60):
    """A randomized stream of (src, dst, flits, start) with bursty times,
    far-future jumps (overflow reservations) and returns to the past."""
    tiles = st.integers(0, num_tiles - 1)
    stream = []
    t = 0.0
    for _ in range(draw(st.integers(n_min, n_max))):
        src, dst = draw(tiles), draw(tiles)
        flits = draw(st.sampled_from((1, 2, 9)))
        start, t = next_start(draw, t)
        stream.append((src, dst, flits, start))
    return stream


def horizon_stream(draw, num_tiles: int, n_max: int = 60):
    """:func:`message_stream` under a moving horizon: entries are
    ``(src, dst, flits, start, horizon)``, the horizon to raise before the
    message.  Time also sweeps forward by about a window, so the same slots
    come back and recycle below the horizon; when the horizon rises, it
    rises to between a window behind and the epoch of the latest time
    seen, and every start is clamped to it."""
    tiles = st.integers(0, num_tiles - 1)
    stream = []
    t = 0.0
    horizon = 0
    for _ in range(draw(st.integers(n_max // 3, n_max))):
        src, dst = draw(tiles), draw(tiles)
        flits = draw(st.sampled_from((1, 2, 9)))
        if draw(st.integers(0, 3)) == 0:
            t += (WINDOW_EPOCHS + draw(st.integers(-4, 4))) * EPOCH_CYCLES
        start, t = next_start(draw, t)
        if draw(st.booleans()):
            lag = draw(st.integers(0, WINDOW_EPOCHS))
            horizon = max(horizon, (int(t) >> EPOCH_SHIFT) - lag)
        stream.append((src, dst, flits, max(start, float(horizon << EPOCH_SHIFT)), horizon))
    return stream


def kernel_state(kernel) -> tuple:
    """Everything a refused reservation must leave untouched."""
    return (
        kernel.messages_sent, kernel.flits_sent, kernel.link_flit_traversals,
        kernel.recycles, kernel.retired_flits, kernel.horizon,
        list(kernel.slots), sorted(kernel.overflow_items()),
    )


class TestKernelContract:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_python_twin_matches_compiled(self, data):
        """The compiled kernel's contract is bit-identity, not mere
        closeness: one random stream of ``register_path``, ``traverse``,
        ``traverse_link`` and ``raise_horizon`` calls - same-tile routes,
        far-future reservations, returns to the past and lower horizons
        (ignored) included, every start clamped to the horizon - yields
        identical return values, counters, recycles, retired flits,
        horizons, overflow entries and slot tables."""
        num_links, link_bits, hop = 48, 6, 2
        twin = PyMeshKernel(num_links, link_bits, hop)
        compiled = compiled_kernel_class()(num_links=num_links, link_bits=link_bits, hop=hop)
        kernels = (twin, compiled)
        # Per route, one handle per kernel; route 0 is the same-tile route.
        routes = [tuple(k.register_path(()) for k in kernels)]
        links = st.integers(0, num_links - 1)
        flit_counts = st.sampled_from((1, 2, 9, 32))
        draw = data.draw
        t = 0.0
        for _ in range(draw(st.integers(1, 70))):
            op = draw(st.sampled_from(
                ("register", "traverse", "traverse", "traverse", "traverse", "link",
                 "raise")
            ))
            route = draw(st.integers(0, len(routes) - 1))
            flits = draw(flit_counts)
            start, t = next_start(draw, t)
            if op == "register":
                path = draw(st.lists(links, unique=True, min_size=1, max_size=6))
                routes.append(tuple(k.register_path(path) for k in kernels))
                continue
            if op == "raise":
                # Up to a window past the latest time (time follows), so
                # that later traffic recycles slots below it; a value
                # below the horizon is ignored.
                epoch = (int(t) >> EPOCH_SHIFT) + draw(
                    st.integers(-WINDOW_EPOCHS, WINDOW_EPOCHS))
                for k in kernels:
                    k.raise_horizon(epoch)
                assert twin.horizon == compiled.horizon >= epoch
                t = max(t, float(twin.horizon << EPOCH_SHIFT))
                continue
            start = max(start, float(twin.horizon << EPOCH_SHIFT))
            if op == "traverse":
                calls = [(k.traverse, (h, start, flits)) for k, h in zip(kernels, routes[route])]
            else:
                link = draw(links)
                calls = [(k.traverse_link, (link, start, flits)) for k in kernels]
            got, want = (method(*args) for method, args in calls)
            assert got == want, (op, calls[0][1])
        for attr in ("messages_sent", "flits_sent", "link_flit_traversals",
                     "recycles", "retired_flits", "horizon", "link_bits"):
            assert getattr(twin, attr) == getattr(compiled, attr), attr
        assert twin.overflow_len() == compiled.overflow_len()
        assert sorted(twin.overflow_items()) == sorted(compiled.overflow_items())
        assert list(twin.slots) == list(compiled.slots)


class TestFlitConservation:
    @EPOCH_KERNELS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_total_reserved_equals_flits_times_links_crossed(self, kernel, data):
        net = make_net(kernel)
        for src, dst, flits, start in message_stream(data.draw, 16):
            send(net, src, dst, start, flits)
        assert net.reserved_flits() == net.link_flit_traversals

    @EPOCH_KERNELS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reserved_plus_retired_under_moving_horizon(self, kernel, data):
        """A recycle below the horizon moves its occupancy from the table
        into ``retired_flits``: nothing is lost, only counted."""
        net = make_net(kernel)
        for src, dst, flits, start, horizon in horizon_stream(data.draw, 16):
            net.kernel.raise_horizon(horizon)
            send(net, src, dst, start, flits)
            assert net.reserved_flits() + net.retired_flits == net.link_flit_traversals

    @EPOCH_KERNELS
    def test_conservation_includes_far_future_overflow(self, kernel):
        net = make_net(kernel)
        # A reservation far beyond the window must land in overflow...
        far = float(10 * WINDOW_EPOCHS * EPOCH_CYCLES)
        send(net, 0, 3, far, 9)
        # ...then near-time traffic claims the window slots.
        for i in range(8):
            send(net, 0, 3, float(i), 2)
        assert net.reserved_flits() == net.link_flit_traversals
        assert net.kernel.overflow_len(), "far-future reservation should sit in overflow"

    @EPOCH_KERNELS
    def test_broadcast_reserves_one_slot_per_tree_edge_flit(self, kernel):
        net = make_net(kernel)
        net.broadcast(5, MsgType.INV_BROADCAST, 0.0)
        assert net.reserved_flits() == net.link_flit_traversals == 15


class TestReferenceEquivalence:
    @EPOCH_KERNELS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_randomized_stream_matches_reference_model(self, kernel, data):
        net = make_net(kernel)
        ref = ReferenceEpochModel(net)
        for src, dst, flits, start in message_stream(data.draw, 16):
            got = send(net, src, dst, start, flits)
            want = ref.send(src, dst, start, flits)
            assert got == want, (src, dst, flits, start)
        assert net.occupancy_map() == ref.occupancy_map()

    @EPOCH_KERNELS
    def test_window_recycling_preserves_retired_epochs(self, kernel):
        """Traffic sweeping far past the window must not lose retired
        occupancy: a later message 'in the past' sees the original load."""
        net = make_net(kernel)
        ref = ReferenceEpochModel(net)
        # Saturate epoch 0 on the link.
        for _ in range(4):
            assert send(net, 0, 1, 0.0, 9) == ref.send(0, 1, 0.0, 9)
        # Sweep time far beyond the window so the slot recycles.
        far = float((WINDOW_EPOCHS + 3) * EPOCH_CYCLES)
        assert send(net, 0, 1, far, 2) == ref.send(0, 1, far, 2)
        # A message back at epoch 0 must still see the saturated epoch.
        got = send(net, 0, 1, 1.0, 9)
        want = ref.send(0, 1, 1.0, 9)
        assert got == want
        assert got > 1.0 + net.arch.hop_latency + 8  # it was, in fact, delayed
        assert net.occupancy_map() == ref.occupancy_map()

    @EPOCH_KERNELS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_moving_horizon_matches_reference_model(self, kernel, data):
        """The horizon changes what is kept, never what is reserved:
        arrival times stay bit-identical to the flat-dict reference, the maps
        agree on every epoch at or above the horizon, and every entry the
        kernel still holds below it is exact."""
        net = make_net(kernel)
        ref = ReferenceEpochModel(net)
        for src, dst, flits, start, horizon in horizon_stream(data.draw, 16):
            net.kernel.raise_horizon(horizon)
            got = send(net, src, dst, start, flits)
            want = ref.send(src, dst, start, flits)
            assert got == want, (src, dst, flits, start, horizon)
        horizon = net.kernel.horizon
        held, full = net.occupancy_map(), ref.occupancy_map()
        assert all(full.get(key) == value for key, value in held.items())
        assert ({key: v for key, v in held.items() if key[0] >= horizon}
                == {key: v for key, v in full.items() if key[0] >= horizon})

    @EPOCH_KERNELS
    def test_window_recycling_below_horizon_retires(self, kernel):
        """With the horizon past epoch 0, recycling epoch 0's slot counts
        its load in ``retired_flits`` instead of archiving it, and a
        message back at epoch 0 is refused."""
        net = make_net(kernel)
        ref = ReferenceEpochModel(net)
        # Fill epoch 0 on the link exactly.
        for _ in range(4):
            assert send(net, 0, 1, 0.0, 8) == ref.send(0, 1, 0.0, 8)
        net.kernel.raise_horizon(1)
        # Epoch WINDOW_EPOCHS takes over epoch 0's slot.
        far = float(WINDOW_EPOCHS * EPOCH_CYCLES)
        assert send(net, 0, 1, far, 2) == ref.send(0, 1, far, 2)
        assert net.retired_flits == 32
        assert net.kernel.overflow_len() == 0
        assert net.reserved_flits() + net.retired_flits == net.link_flit_traversals
        with pytest.raises(SimulationError, match="below the horizon"):
            send(net, 0, 1, 1.0, 9)
        assert net.occupancy_map() == {
            key: v for key, v in ref.occupancy_map().items() if key[0] >= 1
        }

    @ALL_KERNELS
    def test_unicast_equals_traverse_path_on_resolved_route(self, kernel):
        """``unicast`` is the kernel's ``traverse`` on the memoized route,
        same-tile messages included."""
        a = make_net(kernel)
        b = make_net(kernel)
        t = 0.0
        for src in range(16):
            for dst in range(16):
                via_unicast = a.unicast(src, dst, MsgType.LINE_REPLY, t)
                via_kernel = send(b, src, dst, t, b.flits_for(MsgType.LINE_REPLY))
                assert via_unicast == via_kernel
                t += 3.0
        assert a.occupancy_map() == b.occupancy_map()
        assert a.messages_sent == b.messages_sent == 16 * 15


class TestLoudRefusal:
    @EPOCH_KERNELS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_below_horizon_raises_and_changes_nothing(self, kernel, data):
        """A ``traverse`` or ``traverse_link`` whose head epoch lies below
        the horizon raises ``SimulationError`` before it reserves or counts
        anything, after any prior traffic; a same-tile message reserves
        nothing and is not refused."""
        net = make_net(kernel)
        draw = data.draw
        for src, dst, flits, start, horizon in horizon_stream(draw, 16, n_max=30):
            net.kernel.raise_horizon(horizon)
            send(net, src, dst, start, flits)
        kernel_ = net.kernel
        kernel_.raise_horizon(kernel_.horizon + draw(st.integers(1, 3 * WINDOW_EPOCHS)))
        before = kernel_state(kernel_)
        below = draw(st.floats(0.0, float(kernel_.horizon << EPOCH_SHIFT),
                               exclude_max=True))
        src = draw(st.integers(0, 15))
        dst = draw(st.integers(0, 15).filter(lambda tile: tile != src))
        flits = draw(st.sampled_from((1, 2, 9, 32)))
        with pytest.raises(SimulationError, match="below the horizon"):
            send(net, src, dst, below, flits)
        with pytest.raises(SimulationError, match="below the horizon"):
            kernel_.traverse_link(draw(st.integers(0, net.num_links - 1)), below, flits)
        assert kernel_state(kernel_) == before
        assert send(net, src, src, below, flits) == below
        assert kernel_state(kernel_) == before


class TestLegComposition:
    @ALL_KERNELS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_equals_two_traversals_around_busy_until(self, kernel, data):
        """Every miss reserves its legs through the home kernel.  On a
        resident line with nothing at the home between the legs,
        ``round_trip`` returns the same service and reply times, waiting
        time, occupancy and traffic counters as ``traverse``, ``max`` with
        ``busy_until`` plus the L2 latency, ``traverse`` on a twin network
        - over random cores, homes, message types (same-tile legs
        included), start and busy times, on links carrying prior random
        load."""
        engine = make_engine(kernel)
        assert isinstance(engine.home_kernel, PyHomeKernel) == (kernel != "compiled")
        net = engine.network
        composed = make_net(kernel)
        for src, dst, flits, start in message_stream(data.draw, 16, n_min=0, n_max=30):
            for each in (net, composed):
                send(each, src, dst, start, flits)
        tiles = st.integers(0, 15)
        messages = st.sampled_from(list(MsgType))
        times = st.one_of(
            st.just(0.0),
            st.floats(0.0, 3.0 * EPOCH_CYCLES),
            st.floats(0.0, 4.0 * WINDOW_EPOCHS * EPOCH_CYCLES),
        )
        latency = engine.arch.l2.latency
        steps = data.draw(st.integers(1, 12))
        for _ in range(steps):
            core, home = data.draw(tiles), data.draw(tiles)
            req_msg, reply_msg = data.draw(messages), data.draw(messages)
            t0, busy_until = data.draw(times), data.draw(times)
            slice_ = engine.l2[home]
            line = data.draw(st.integers(0, 63))
            if slice_.lookup(line) is None:
                slice_.fill(line, 0.0)  # resident, no traffic
            l2line = slice_.lookup(line)
            l2line.busy_until = busy_until
            result = AccessResult()
            got = engine.home_kernel.round_trip(
                core, line, home, None, int(req_msg), int(reply_msg), t0, result
            )
            t1 = send(composed, core, home, t0, composed.flits_for(req_msg))
            t = max(t1, busy_until) + latency
            reply_t = send(composed, home, core, t, composed.flits_for(reply_msg))
            case = (core, home, req_msg, reply_msg, t0, busy_until)
            assert got[0] is slice_ and got[1] is l2line, case
            assert got[2:] == (t, reply_t), case
            assert result.l2_waiting == max(0.0, busy_until - t1), case
            assert result.l2_offchip == 0.0, case
        assert sum(s.hits for s in engine.l2) == steps
        assert sum(s.misses for s in engine.l2) == 0
        assert net.occupancy_map() == composed.occupancy_map()
        for counter in ("messages_sent", "flits_sent", "link_flit_traversals"):
            assert getattr(net, counter) == getattr(composed, counter), counter


class TestCounters:
    @ALL_KERNELS
    def test_each_non_empty_message_counts_once(self, kernel):
        """Unicast and broadcast traffic lands in the kernel's counters;
        same-tile messages are free and uncounted; and ``reset_counters``
        zeroes them while the reservations stay."""
        net = make_net(kernel)
        assert send(net, 3, 3, 7.0, 9) == 7.0
        assert (net.messages_sent, net.flits_sent, net.link_flit_traversals) == (0, 0, 0)
        send(net, 0, 2, 0.0, 9)  # 2 hops
        net.broadcast(0, MsgType.INV_BROADCAST, 0.0)  # 15 tree edges
        assert net.messages_sent == 2
        assert net.flits_sent == 9 + 1
        assert net.link_flit_traversals == 18 + 15
        assert net.router_flit_traversals == net.link_flit_traversals + net.flits_sent
        reserved = net.occupancy_map()
        net.reset_counters()
        assert (net.messages_sent, net.flits_sent, net.link_flit_traversals,
                net.slot_recycles) == (0, 0, 0, 0)
        assert net.occupancy_map() == reserved
