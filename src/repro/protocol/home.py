"""The home side of every miss: the pure-Python ``PyHomeKernel``.

Every family's L1 miss is a round trip to the line's R-NUCA home slice:
placement, the request leg, per-line serialization, the L2 tag access (and
the off-chip fill on an L2 miss), the reply leg, then - after the family's
own bookkeeping - the word service and the line's settling.  Those steps
are family-agnostic, so one *home kernel* per engine runs them: the
compiled ``HomeKernel`` (:mod:`repro.accel`, DESIGN.md section 15) or its
twin here, with the same constructor, methods and attributes.  The engine
picks the compiled one exactly when its mesh kernel is compiled
(:meth:`repro.protocol.base.ProtocolEngineBase.__init__`).

A home kernel owns no state.  It works on the engine's own objects - the
page table, the L2 slices and their ``L2Line`` entries, the mesh kernel's
reservations, the energy and slice counters - and calls back into the
engine only for what stays family or verification business: the page
flush of a private -> shared transition (``_flush_private_page``), the
fill's family hooks (``_evict_l2_line``, ``_install_line_state``), the DRAM
controller and the verify-mode golden steps (``_verify_word``).
"""

from __future__ import annotations

import weakref

from repro.common.errors import SimulationError
from repro.network.messages import MsgType


class PyHomeKernel:
    """The pure-Python home kernel: the compiled ``HomeKernel``'s twin.

    ``data_home`` and ``data_word_home`` are the placement's own methods
    (one rule, :class:`repro.rnuca.placement.RNucaPlacement`).  The other
    methods are the home round trip, each called where the engine's miss
    path takes that step:

    * ``round_trip`` - both legs when the reply type is known up front
      and nothing happens at the home between them: one
      ``chain_request_reply`` with no page flush and the line resident,
      else ``deliver_request`` then ``reply``;
    * ``deliver_request`` / ``reply`` - the general legs, between which the
      directory families run their invalidation and write-back rounds;
    * ``serve_word`` and ``settle`` - the time-independent word access at
      the home, and the release of the line after service.

    ``word_round_trip`` (``data_word_home`` + ``round_trip``) and
    ``serve_word_settle`` fuse two adjacent steps of the DLS access, where
    no Python runs between them.  ``line_type`` and ``result_type`` only
    tell the compiled kernel where the ``L2Line`` and ``AccessResult``
    slots sit; this kernel reads attributes.

    This is the ungated, bit-identical reference of the compiled kernel
    (``REPRO_NO_ACCEL=1`` selects it, and so do the ``naive``/``none``
    link models).  Counters are read from the engine per update:
    ``reset_stats`` replaces ``engine.energy`` at the warmup boundary.
    The engine owns its kernel, so the kernel refers back to it weakly: a
    strong cycle would leave every finished engine to the cyclic
    collector.
    """

    __slots__ = (
        "data_home",
        "data_word_home",
        "_engine",
        "_l2",
        "_paths",
        "_resolve",
        "_traverse",
        "_chain",
        "_flits",
        "_num_tiles",
        "_l2_latency",
        "_verify",
    )

    def __init__(self, engine, line_type, result_type) -> None:
        network = engine.network
        placement = engine.placement
        self.data_home = placement.data_home
        self.data_word_home = placement.data_word_home
        self._engine = weakref.proxy(engine)
        self._l2 = engine.l2
        self._paths = network.paths
        self._resolve = network.resolve_path
        self._traverse = network.kernel.traverse
        self._chain = network.kernel.traverse_chain
        self._flits = engine._net_flits
        self._num_tiles = engine.arch.num_cores
        self._l2_latency = engine.arch.l2.latency
        self._verify = engine.verify

    # ------------------------------------------------------------------
    def word_round_trip(self, core, line, word, req_msg, reply_msg, now, result):
        """``data_word_home`` then ``round_trip`` (one DLS access)."""
        home, flush_owner = self.data_word_home(line, word, core)
        return self.round_trip(core, line, home, flush_owner, req_msg, reply_msg, now, result)

    def round_trip(self, core, line, home, flush_owner, req_msg, reply_msg, now, result):
        """Reserve a miss's request and reply legs when the reply type is
        known up front and nothing happens at the home between them.

        With no page flush and the line resident at ``home``, both legs
        ride one ``chain_request_reply``; otherwise the general request
        leg (flush, off-chip fill) runs, then the reply leg.  Returns
        ``(slice_, l2line, t, reply_t)``: the home service time and the
        reply's tail arrival at the requester.
        """
        if flush_owner is None:
            slice_ = self._l2[home]
            store = slice_.store
            l2line = store._sets[line & store._set_mask].get(line)
            if l2line is not None:
                t, reply_t = self.chain_request_reply(
                    core, home, l2line, slice_, req_msg, reply_msg, now, result
                )
                return slice_, l2line, t, reply_t
        slice_, l2line, t = self.deliver_request(
            core, line, home, flush_owner, req_msg, now, result
        )
        return slice_, l2line, t, self.reply(home, core, reply_msg, t)

    def deliver_request(self, core, line, home, flush_owner, req_msg, now, result):
        """The general request leg: deliver a request to the home slice,
        ready for service.

        Flushes a private page's old slice on a private -> shared
        transition, reserves the request, applies per-line serialization
        ("L2 cache waiting time", recorded into ``result``), accesses the
        L2 tag and fills the line from off-chip on an L2 miss (recorded
        into ``result.l2_offchip``).  Returns ``(slice_, l2line, t)`` with
        ``t`` the time service at the home may begin.
        """
        engine = self._engine
        if flush_owner is not None:
            engine._flush_private_page(line, flush_owner, now)
        path = self._paths[core * self._num_tiles + home]
        if path is None:
            path = self._resolve(core, home)
        t = self._traverse(path, now, self._flits[req_msg])
        slice_ = self._l2[home]
        store = slice_.store
        l2line = store._sets[line & store._set_mask].get(line)
        if l2line is not None and l2line.busy_until > t:
            result.l2_waiting = l2line.busy_until - t
            t = l2line.busy_until
        t += self._l2_latency
        engine.energy.l2_tag_accesses += 1
        if l2line is None:
            slice_.misses += 1
            l2line, t, result.l2_offchip = self._fill(home, line, t)
        else:
            slice_.hits += 1
        return slice_, l2line, t

    def reply(self, home, core, reply_msg, t):
        """The general reply leg: reserve ``reply_msg`` from the home at
        ``t``; returns its tail arrival at the requester."""
        path = self._paths[home * self._num_tiles + core]
        if path is None:
            path = self._resolve(home, core)
        return self._traverse(path, t, self._flits[reply_msg])

    def chain_request_reply(self, core, home, l2line, slice_, req_msg, reply_msg, now, result):
        """Reserve the request and reply legs in one mesh-kernel
        ``traverse_chain`` (the exact composition of two ``traverse``
        calls), with the same serialization/latency arithmetic and the
        same counter updates as ``deliver_request`` + ``reply`` on a
        resident line.  Returns ``(t, reply_t)``.
        """
        paths = self._paths
        num_tiles = self._num_tiles
        flits = self._flits
        path1 = paths[core * num_tiles + home]
        if path1 is None:
            path1 = self._resolve(core, home)
        path2 = paths[home * num_tiles + core]
        if path2 is None:
            path2 = self._resolve(home, core)
        busy = l2line.busy_until
        latency = self._l2_latency
        t1, reply_t = self._chain(path1, flits[req_msg], now, busy, latency, path2, flits[reply_msg])
        if busy > t1:
            result.l2_waiting = busy - t1
            t = busy + latency
        else:
            t = t1 + latency
        self._engine.energy.l2_tag_accesses += 1
        slice_.hits += 1
        return t, reply_t

    # ------------------------------------------------------------------
    def serve_word(self, core, is_write, line, word, l2line, slice_):
        """Word access at the home L2 (the remote service of the adaptive
        protocol, every DLS access, Neat's eager write-through).  Touches
        no time or network state, so it runs after the reply is reserved;
        in verify mode the engine's golden steps follow at once.
        """
        engine = self._engine
        if is_write:
            slice_.word_writes += 1
            engine.energy.l2_word_writes += 1
            l2line.dirty = True
            l2line.dirty_words |= 1 << word
        else:
            slice_.word_reads += 1
            engine.energy.l2_word_reads += 1
        if self._verify:
            engine._verify_word(core, is_write, line, word, l2line)

    def settle(self, slice_, l2line, t, owned):
        """Release the home line after service at ``t``.

        A request that owns the line (writes, directory line grants, Neat
        flushes) holds it until ``t``; word reads and Neat's line fetches
        take no ownership and pipeline through the banked L2, occupying
        the line for one cycle - why "a word miss only contributes
        marginally to the L2 cache waiting time" (Section 5.1.2).  Then
        the LRU touch.
        """
        if owned:
            l2line.busy_until = t
        else:
            busy = t - self._l2_latency + 1.0
            if busy > l2line.busy_until:
                l2line.busy_until = busy
        slice_.touch(l2line, t)

    def serve_word_settle(self, core, is_write, line, word, l2line, slice_, t, owned):
        """``serve_word`` then ``settle`` (the end of one DLS access)."""
        self.serve_word(core, is_write, line, word, l2line, slice_)
        self.settle(slice_, l2line, t, owned)

    # ------------------------------------------------------------------
    # L2 miss: fetch the line from off-chip memory.
    # ------------------------------------------------------------------
    def _fill(self, home, line, t):
        """Inclusive fill of ``line`` at ``home`` starting at ``t``: evict
        the set's LRU way if the set is full (the family's
        ``_evict_l2_line``), fetch from the line's DRAM controller, install
        (``L2Slice.fill``, then the family's ``_install_line_state``).
        Returns ``(l2line, reply_t, off-chip latency)``."""
        engine = self._engine
        slice_ = self._l2[home]
        victim = slice_.victim(line)
        if victim is not None:
            engine._evict_l2_line(home, victim[0], victim[1], t)
            slice_.remove(victim[0])

        ctrl = engine.memsys.controller_for_line(line)
        network = engine.network
        req_t = network.unicast(home, ctrl.tile, MsgType.MEM_READ_REQ, t)
        finish, _queue = ctrl.access(req_t, engine.arch.line_size)
        reply_t = network.unicast(ctrl.tile, home, MsgType.MEM_READ_REPLY, finish)

        data = None
        if self._verify:
            data = engine._dram_image.get(line)
            data = list(data) if data is not None else [0] * engine._words_per_line
        evicted = slice_.fill(line, reply_t, data)
        if evicted is not None:  # cannot happen: victim handled above
            raise SimulationError("L2 fill evicted after explicit victim handling")
        l2line = slice_.lookup(line)
        engine._install_line_state(l2line)
        engine.energy.l2_line_writes += 1
        engine._home_of_line[line] = home
        return l2line, reply_t, reply_t - t
