"""Property-based tests for mesh topology, XY routing and broadcast trees."""

from __future__ import annotations

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.common.params import ArchConfig
from repro.network.mesh import MeshNetwork
from repro.network.messages import MsgType
from repro.network.topology import Mesh2D

MESH_SIZES = (16, 36, 64)
meshes = st.sampled_from([Mesh2D(n) for n in MESH_SIZES])


def tiles(mesh: Mesh2D):
    return st.integers(min_value=0, max_value=mesh.num_tiles - 1)


class TestRouting:
    @given(data=st.data())
    def test_route_length_is_manhattan_distance(self, data):
        mesh = data.draw(meshes)
        src = data.draw(tiles(mesh), label="src")
        dst = data.draw(tiles(mesh), label="dst")
        path = mesh.route(src, dst)
        width = mesh.width
        dx = abs(src % width - dst % width)
        dy = abs(src // width - dst // width)
        assert len(path) == dx + dy

    @given(data=st.data())
    def test_route_to_self_is_empty(self, data):
        mesh = data.draw(meshes)
        tile = data.draw(tiles(mesh))
        assert mesh.route(tile, tile) == ()

    @given(data=st.data())
    def test_xy_routing_is_deterministic(self, data):
        mesh = data.draw(meshes)
        src = data.draw(tiles(mesh))
        dst = data.draw(tiles(mesh))
        assert mesh.route(src, dst) == mesh.route(src, dst)

    @given(data=st.data())
    def test_xy_dimension_order(self, data):
        """XY routing exhausts X-dimension hops before any Y hop."""
        mesh = data.draw(meshes)
        src = data.draw(tiles(mesh))
        dst = data.draw(tiles(mesh))
        path = mesh.route(src, dst)
        width = mesh.width
        seen_y = False
        current = src
        for link in path:
            nxt = link % mesh.num_tiles  # link id encodes src*N + dst
            if abs(nxt - current) == width:
                seen_y = True
            else:
                assert not seen_y, "X hop after a Y hop violates XY order"
            current = nxt
        assert current == dst


class TestBroadcastTree:
    @given(data=st.data())
    def test_tree_spans_all_tiles(self, data):
        mesh = data.draw(meshes)
        root = data.draw(tiles(mesh))
        edges = mesh.broadcast_tree(root)
        reached = {root}
        for src, dst in edges:
            assert src in reached, "tree edges must be emitted parent-first"
            reached.add(dst)
        assert reached == set(range(mesh.num_tiles))

    @given(data=st.data())
    def test_tree_has_exactly_n_minus_1_edges(self, data):
        mesh = data.draw(meshes)
        root = data.draw(tiles(mesh))
        assert len(mesh.broadcast_tree(root)) == mesh.num_tiles - 1

    @given(data=st.data())
    def test_tree_edges_are_mesh_neighbours(self, data):
        mesh = data.draw(meshes)
        root = data.draw(tiles(mesh))
        width = mesh.width
        for src, dst in mesh.broadcast_tree(root):
            diff = abs(src - dst)
            assert diff == 1 or diff == width


class TestTimingProperties:
    @given(
        src=st.integers(min_value=0, max_value=15),
        dst=st.integers(min_value=0, max_value=15),
        start=st.floats(min_value=0, max_value=1e6),
    )
    def test_unicast_arrival_never_before_start(self, src, dst, start):
        net = MeshNetwork(ArchConfig(num_cores=16, num_memory_controllers=4))
        assert net.unicast(src, dst, MsgType.READ_REQ, start) >= start

    @given(start=st.floats(min_value=0, max_value=1e6))
    def test_broadcast_reaches_every_tile_no_earlier_than_start(self, start):
        net = MeshNetwork(ArchConfig(num_cores=16, num_memory_controllers=4))
        arrivals = net.broadcast(5, MsgType.INV_BROADCAST, start)
        assert set(arrivals) == set(range(16))
        assert all(t >= start for t in arrivals.values())

    @given(
        src=st.integers(min_value=0, max_value=15),
        dst=st.integers(min_value=0, max_value=15),
    )
    def test_longer_messages_arrive_no_earlier(self, src, dst):
        net = MeshNetwork(ArchConfig(num_cores=16, num_memory_controllers=4,
                                     link_model="none"))
        header = net.unicast(src, dst, MsgType.READ_REQ, 0.0)
        line = net.unicast(src, dst, MsgType.LINE_REPLY, 0.0)
        assert line >= header

    @given(data=st.data())
    def test_contention_only_delays(self, data):
        """With contention on, arrivals are never earlier than without."""
        arch = ArchConfig(num_cores=16, num_memory_controllers=4)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=30,
            )
        )
        contended = MeshNetwork(arch)
        free = MeshNetwork(dataclasses.replace(arch, link_model="none"))
        t = 0.0
        for src, dst in pairs:
            a = contended.unicast(src, dst, MsgType.LINE_REPLY, t)
            b = free.unicast(src, dst, MsgType.LINE_REPLY, t)
            assert a >= b
            t += 1.0
