"""Mesh timing/contention/traffic-accounting tests."""

import dataclasses

import pytest

from repro.common.params import ArchConfig
from repro.network.mesh import EPOCH_CYCLES, MeshNetwork
from repro.network.messages import MsgType, message_flits


@pytest.fixture
def arch():
    return ArchConfig(num_cores=16, num_memory_controllers=4)


@pytest.fixture
def net(arch):
    return MeshNetwork(arch)


class TestFlitSizing:
    def test_header_only_messages(self, arch):
        for msg in (MsgType.READ_REQ, MsgType.INV_REQ, MsgType.INV_ACK,
                    MsgType.WB_REQ, MsgType.EVICT_NOTIFY, MsgType.MEM_READ_REQ):
            assert message_flits(msg, arch) == 1

    def test_word_messages(self, arch):
        # Section 3.6: the data word rides with every write request.
        for msg in (MsgType.WRITE_REQ, MsgType.UPGRADE_REQ, MsgType.WORD_REPLY):
            assert message_flits(msg, arch) == 2

    def test_line_messages(self, arch):
        for msg in (MsgType.LINE_REPLY, MsgType.WB_DATA, MsgType.EVICT_DIRTY,
                    MsgType.MEM_READ_REPLY, MsgType.MEM_WRITE):
            assert message_flits(msg, arch) == 9  # 1 header + 8 payload


class TestUnicast:
    def test_same_tile_is_free(self, net):
        flits_before = net.flits_sent
        assert net.unicast(3, 3, MsgType.LINE_REPLY, 100.0) == 100.0
        assert net.flits_sent == flits_before

    def test_uncontended_latency(self, net):
        # 1 hop: head departs at t, arrives t+2; tail +flits-1.
        arrival = net.unicast(0, 1, MsgType.READ_REQ, 0.0)
        assert arrival == 2.0
        arrival = net.unicast(4, 5, MsgType.LINE_REPLY, 0.0)
        assert arrival == 2.0 + 8  # 9-flit tail

    def test_multi_hop_latency(self, net):
        # 0 -> 3: 3 hops of 2 cycles; single-flit message.
        assert net.unicast(0, 3, MsgType.READ_REQ, 0.0) == 6.0

    def test_contention_serializes_messages(self, arch):
        # Epoch-based accounting: once an epoch's capacity (EPOCH_CYCLES
        # flits) is consumed, later messages spill into the next epoch.
        net = MeshNetwork(arch)
        arrivals = [net.unicast(0, 1, MsgType.LINE_REPLY, 0.0) for _ in range(6)]
        assert arrivals[-1] > arrivals[0]  # bandwidth is finite

    def test_no_contention_model(self, arch):
        net = MeshNetwork(dataclasses.replace(arch, link_model="none"))
        assert net.unicast(0, 1, MsgType.LINE_REPLY, 0.0) == 10.0
        assert net.unicast(0, 1, MsgType.LINE_REPLY, 0.0) == 10.0

    def test_future_reservation_does_not_block_earlier_message(self, arch):
        # Epoch accounting: a reservation far in the future must not delay
        # a message sent now (regression test for the high-water-mark bug).
        net = MeshNetwork(arch)
        net.unicast(0, 1, MsgType.LINE_REPLY, 10 * EPOCH_CYCLES)
        early = net.unicast(0, 1, MsgType.READ_REQ, 0.0)
        assert early == 2.0

    def test_traffic_counters(self, net):
        net.unicast(0, 2, MsgType.LINE_REPLY, 0.0)  # 2 hops x 9 flits
        assert net.link_flit_traversals == 18
        assert net.router_flit_traversals == 27  # 3 routers
        assert net.messages_sent == 1
        assert net.flits_sent == 9


class TestBroadcast:
    def test_reaches_all_tiles(self, net):
        arrivals = net.broadcast(5, MsgType.INV_BROADCAST, 0.0)
        assert set(arrivals) == set(range(16))
        assert arrivals[5] == 0.0
        assert all(t >= 0.0 for t in arrivals.values())

    def test_farther_tiles_arrive_later(self, net):
        arrivals = net.broadcast(0, MsgType.INV_BROADCAST, 0.0)
        assert arrivals[1] <= arrivals[3]
        assert arrivals[1] <= arrivals[15]

    def test_single_injection_traffic(self, net):
        net.broadcast(0, MsgType.INV_BROADCAST, 0.0)
        # One flit over each of the 15 tree links.
        assert net.link_flit_traversals == 15
        assert net.flits_sent == 1
