"""Ring-buffer contention-accounting properties (DESIGN.md section 8).

The windowed ring buffer replacing PR 3's flat epoch dict must be
*observationally invisible*: same departure times, same occupancy map, under
any traffic - including far-future reservations (DRAM replies scheduled
thousands of cycles ahead) that live in the overflow dict, and traffic that
then arrives "in the past" relative to those reservations.

Three properties pin it:

* **flit conservation** - every flit that crosses a link reserves exactly
  one cycle of capacity somewhere (window slot or overflow), so the total
  reserved capacity always equals ``link_flit_traversals``;
* **reference equivalence** - a randomized message stream produces
  bit-identical arrival times and an identical (epoch, link) -> occupancy
  map against a reference implementation of the PR-3 flat-dict model;
* **chain composition** - ``traverse_chain``, which every chained miss
  reserves its request and reply through, is exactly ``traverse_path``,
  then ``max`` with ``busy_until``, then ``traverse_path``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel as accel_pkg
from repro.common.params import ArchConfig
from repro.network.mesh import EPOCH_CYCLES, EPOCH_SHIFT, WINDOW_EPOCHS, MeshNetwork
from repro.network.messages import MsgType

ARCH16 = ArchConfig(num_cores=16, num_memory_controllers=4)

#: Every property in this module runs against BOTH traversal
#: implementations: the pure-Python ring buffer and the compiled kernel
#: (skipped where no compiler is available).  The kernel's contract is
#: bit-identity, so the same assertions pin both.
BOTH_IMPLS = pytest.mark.parametrize("impl", ["fallback", "accel"])


def make_net(impl: str, arch: ArchConfig = ARCH16) -> MeshNetwork:
    if impl == "accel" and accel_pkg.mesh_kernel_class() is None:
        pytest.skip("compiled mesh kernel unavailable")
    return MeshNetwork(arch, accel=(impl == "accel"))


class ReferenceEpochModel:
    """The PR-3 contention model: one flat dict keyed (epoch, link).

    Deliberately transcribed from the pre-ring-buffer ``MeshNetwork`` (flat
    dict, per-link Python loop) so the equivalence property compares the
    ring buffer against the exact semantics it replaced.
    """

    def __init__(self, net: MeshNetwork) -> None:
        self.net = net
        self.use: dict[tuple[int, int], int] = {}
        self.hop = net.arch.hop_latency

    def traverse_path(self, path: tuple, t_head: float, flits: int) -> float:
        """PR 3's inlined unicast loop: one dict probe per link, a shadow
        integer clock advanced by the (integral) hop latency per link."""
        links = path[0]  # reserved-path descriptor: (links, hops, span, limit)
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


def message_stream(draw, num_tiles: int, n_min: int = 1, n_max: int = 60):
    """A randomized stream of (src, dst, flits, start) with bursty times,
    far-future jumps (overflow reservations) and returns to the past."""
    tiles = st.integers(0, num_tiles - 1)
    n = draw(st.integers(n_min, n_max))
    stream = []
    t = 0.0
    for _ in range(n):
        src, dst = draw(tiles), draw(tiles)
        flits = draw(st.sampled_from((1, 2, 9)))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            # Far-future reservation: several windows ahead (overflow side).
            offset = draw(st.integers(1, 4)) * WINDOW_EPOCHS * EPOCH_CYCLES
            start = t + offset
        elif kind == 1:
            # Revisit the past relative to the max time seen so far.
            start = max(0.0, t - draw(st.integers(0, 3 * EPOCH_CYCLES)))
        else:
            t += draw(st.floats(0.0, 2.5 * EPOCH_CYCLES))
            start = t
        stream.append((src, dst, flits, start))
    return stream


class TestFlitConservation:
    @BOTH_IMPLS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_total_reserved_equals_flits_times_links_crossed(self, impl, data):
        net = make_net(impl)
        for src, dst, flits, start in message_stream(data.draw, 16):
            path = net.resolve_path(src, dst)
            net.traverse_path(path, start, flits)
        assert net.reserved_flits() == net.link_flit_traversals

    @BOTH_IMPLS
    def test_conservation_includes_far_future_overflow(self, impl):
        net = make_net(impl)
        path = net.resolve_path(0, 3)
        # A reservation far beyond the window must land in overflow...
        far = float(10 * WINDOW_EPOCHS * EPOCH_CYCLES)
        net.traverse_path(path, far, 9)
        # ...then near-time traffic claims the window slots.
        for i in range(8):
            net.traverse_path(path, float(i), 2)
        assert net.reserved_flits() == net.link_flit_traversals
        assert net._overflow, "far-future reservation should sit in overflow"

    @BOTH_IMPLS
    def test_broadcast_reserves_one_slot_per_tree_edge_flit(self, impl):
        net = make_net(impl)
        net.broadcast(5, MsgType.INV_BROADCAST, 0.0)
        assert net.reserved_flits() == net.link_flit_traversals == 15

    @BOTH_IMPLS
    def test_reset_contention_clears_all_reservations(self, impl):
        net = make_net(impl)
        net.traverse_path(net.resolve_path(0, 15), 0.0, 9)
        net.traverse_path(net.resolve_path(0, 15), 1e6, 9)  # overflow side
        net.reset_contention()
        assert net.reserved_flits() == 0
        assert net.occupancy_map() == {}


class TestReferenceEquivalence:
    @BOTH_IMPLS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_randomized_stream_matches_reference_model(self, impl, data):
        net = make_net(impl)
        ref = ReferenceEpochModel(net)
        for src, dst, flits, start in message_stream(data.draw, 16):
            path = net.resolve_path(src, dst)
            got = net.traverse_path(path, start, flits)
            want = ref.traverse_path(path, start, flits)
            assert got == want, (src, dst, flits, start)
        assert net.occupancy_map() == ref.occupancy_map()

    @BOTH_IMPLS
    def test_window_recycling_preserves_retired_epochs(self, impl):
        """Traffic sweeping far past the window must not lose retired
        occupancy: a later message 'in the past' sees the original load."""
        net = make_net(impl)
        ref = ReferenceEpochModel(net)
        path = net.resolve_path(0, 1)
        # Saturate epoch 0 on the link.
        for _ in range(4):
            assert net.traverse_path(path, 0.0, 9) == ref.traverse_path(path, 0.0, 9)
        # Sweep time far beyond the window so the slot recycles.
        far = float((WINDOW_EPOCHS + 3) * EPOCH_CYCLES)
        assert net.traverse_path(path, far, 2) == ref.traverse_path(path, far, 2)
        # A message back at epoch 0 must still see the saturated epoch.
        got = net.traverse_path(path, 1.0, 9)
        want = ref.traverse_path(path, 1.0, 9)
        assert got == want
        assert got > 1.0 + net.arch.hop_latency + 8  # it was, in fact, delayed
        assert net.occupancy_map() == ref.occupancy_map()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_accel_matches_fallback_bit_for_bit(self, data):
        """The compiled kernel's contract is bit-identity, not mere
        closeness: identical departure floats and occupancy under the
        same stream."""
        kernel = make_net("accel")
        python = make_net("fallback")
        for src, dst, flits, start in message_stream(data.draw, 16):
            got = kernel.traverse_path(kernel.resolve_path(src, dst), start, flits)
            want = python.traverse_path(python.resolve_path(src, dst), start, flits)
            assert got == want, (src, dst, flits, start)
        assert kernel.occupancy_map() == python.occupancy_map()
        assert kernel.reserved_flits() == python.reserved_flits()

    @BOTH_IMPLS
    def test_unicast_equals_traverse_path_on_resolved_route(self, impl):
        a = make_net(impl)
        b = make_net(impl)
        t = 0.0
        for src in range(16):
            for dst in range(16):
                via_unicast = a.unicast(src, dst, MsgType.LINE_REPLY, t)
                path = b.resolve_path(src, dst)
                via_path = (
                    b.traverse_path(path, t, b.flits_for(MsgType.LINE_REPLY))
                    if src != dst
                    else t
                )
                assert via_unicast == via_path
                t += 3.0
        assert a.occupancy_map() == b.occupancy_map()


class TestChainComposition:
    @BOTH_IMPLS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_chain_equals_two_traversals_around_busy_until(self, impl, data):
        """Same returned ``(t1, t2)``, occupancy and traffic counters as
        the three-step composition on a twin network, over random routes
        (same-tile legs included), times, gaps and flit counts, on links
        carrying prior random load."""
        chained = make_net(impl)
        composed = make_net(impl)
        for src, dst, flits, start in message_stream(data.draw, 16, n_min=0, n_max=30):
            for net in (chained, composed):
                net.traverse_path(net.resolve_path(src, dst), start, flits)
        tiles = st.integers(0, 15)
        flit_counts = st.sampled_from((1, 2, 9))
        times = st.one_of(
            st.just(0.0),
            st.floats(0.0, 3.0 * EPOCH_CYCLES),
            st.floats(0.0, 4.0 * WINDOW_EPOCHS * EPOCH_CYCLES),
        )
        for _ in range(data.draw(st.integers(1, 12))):
            src, home, dst = data.draw(tiles), data.draw(tiles), data.draw(tiles)
            flits1, flits2 = data.draw(flit_counts), data.draw(flit_counts)
            t0, busy_until = data.draw(times), data.draw(times)
            gap = data.draw(st.sampled_from((0.0, 1.0, 6.0, 2.5)))
            got = chained.traverse_chain(
                chained.resolve_path(src, home), flits1, t0, busy_until, gap,
                chained.resolve_path(home, dst), flits2,
            )
            t1 = composed.traverse_path(composed.resolve_path(src, home), t0, flits1)
            start = max(t1, busy_until)
            t2 = composed.traverse_path(composed.resolve_path(home, dst), start + gap, flits2)
            assert got == (t1, t2), (src, home, dst, flits1, flits2, t0, busy_until, gap)
        assert chained.occupancy_map() == composed.occupancy_map()
        for counter in ("messages_sent", "flits_sent", "link_flit_traversals"):
            assert getattr(chained, counter) == getattr(composed, counter), counter
