"""Link-contention model tests: epoch vs naive vs none (DESIGN.md #6)."""

from __future__ import annotations

import dataclasses

import pytest

from repro import accel
from repro.common.errors import ConfigError
from repro.common.params import ArchConfig
from repro.network.mesh import FreeMeshKernel, MeshNetwork, NaiveMeshKernel, PyMeshKernel
from repro.network.messages import MsgType

ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)


def net_for(model: str) -> MeshNetwork:
    return MeshNetwork(dataclasses.replace(ARCH, link_model=model))


class TestConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="link_model"):
            ArchConfig(num_cores=16, num_memory_controllers=4, link_model="magic")

    def test_none_model_disables_contention(self):
        net = net_for("none")
        assert isinstance(net.kernel, FreeMeshKernel)
        first = net.unicast(0, 1, MsgType.LINE_REPLY, 0.0)
        assert net.unicast(0, 1, MsgType.LINE_REPLY, 0.0) == first

    def test_link_model_picks_the_kernel(self):
        assert type(net_for("naive").kernel) is NaiveMeshKernel
        assert type(net_for("none").kernel) is FreeMeshKernel
        # The epoch model runs the compiled kernel or its Python twin.
        assert type(net_for("epoch").kernel) is (accel.mesh_kernel_class() or PyMeshKernel)


class TestNaiveModel:
    def test_uncontended_latency_matches_epoch(self):
        for model in ("epoch", "naive", "none"):
            t = net_for(model).unicast(0, 3, MsgType.READ_REQ, 100.0)
            assert t == 100.0 + 3 * ARCH.hop_latency, model

    def test_future_reservation_blocks_earlier_traffic(self):
        """The naive model's defining artifact.

        A message reserved far in the future pushes the link's high-water
        mark; an earlier message on the same link then waits for it even
        though the link is idle in between.  The epoch model is immune.
        """
        naive = net_for("naive")
        naive.unicast(0, 1, MsgType.LINE_REPLY, 10_000.0)  # future DRAM reply
        blocked = naive.unicast(0, 1, MsgType.READ_REQ, 0.0)
        assert blocked > 10_000.0

        epoch = net_for("epoch")
        epoch.unicast(0, 1, MsgType.LINE_REPLY, 10_000.0)
        unblocked = epoch.unicast(0, 1, MsgType.READ_REQ, 0.0)
        assert unblocked == ARCH.hop_latency

    def test_back_to_back_messages_serialize(self):
        naive = net_for("naive")
        first = naive.unicast(0, 1, MsgType.LINE_REPLY, 0.0)
        second = naive.unicast(0, 1, MsgType.LINE_REPLY, 0.0)
        assert second > first

    def test_traffic_counters_identical_across_models(self):
        counts = []
        for model in ("epoch", "naive", "none"):
            net = net_for(model)
            net.unicast(0, 5, MsgType.LINE_REPLY, 0.0)
            net.broadcast(0, MsgType.INV_BROADCAST, 100.0)
            counts.append((net.router_flit_traversals, net.link_flit_traversals, net.flits_sent))
        assert counts[0] == counts[1] == counts[2]
