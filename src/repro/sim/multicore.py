"""Trace-driven multicore timing simulator.

Executes one ``Trace`` (per-core instruction/reference streams) over the
protocol engine of the configured family (``repro.protocol.make_engine``).
Cores are in-order single-issue @ 1 GHz (Table 1):
every instruction costs one cycle of compute, memory references additionally
pay the L1 latency on a hit or the decomposed miss latency returned by the
protocol engine.

Scheduling is *min-clock*: the core with the smallest local clock executes
its next record, which guarantees nondecreasing service times at shared
resources (home L2 slices, mesh links, DRAM queues) and a well-defined
coherence order.

Synchronization (the "Synchronization" stack of Figure 9):

* **barriers** block arriving cores until all have arrived; everyone resumes
  at ``max(arrivals) + barrier_latency``;
* **locks** are FIFO: min-clock processing makes heap order equal arrival
  order, so a blocked core parks in the lock queue and is released by the
  unlocking core.

With ``warmup=True`` the trace is executed twice over the same engine and
only the second execution is measured - the standard warmup/measurement
methodology.  Short synthetic traces are otherwise dominated by the initial
cold-miss burst into DRAM, which belongs to neither protocol.

Two implementations, one switch (``repro.accel``): with the compiled
kernels the record walk runs natively in ``SchedKernel`` and the mesh
reservations in ``MeshKernel``; ``REPRO_NO_ACCEL=1`` selects their
pure-Python twins, the record walk ``PySchedKernel`` (below) and the ring
buffer ``repro.network.mesh.PyMeshKernel``, the bit-identical reference.
``Simulator._execute`` is the one trampoline
that drives either record walk, so barrier, lock and release-boundary
handling is written once; the two implementations differ only in the walk
itself.  The engines' miss paths take the same shape under both.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from functools import partial

from repro import accel
from repro.common import addr as addrmod
from repro.common.errors import SimulationError
from repro.common.params import ArchConfig, EnergyConfig, ProtocolConfig
from repro.common.types import Op
from repro.energy.model import EnergyModel
from repro.network.mesh import EPOCH_SHIFT
from repro.obs import TELEMETRY
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.engine import make_engine
from repro.sim.stats import LatencyBreakdown, RunStats
from repro.workloads.base import Trace


class _LockState:
    __slots__ = ("held_by", "queue")

    def __init__(self) -> None:
        self.held_by = -1
        self.queue: deque[tuple[int, float]] = deque()  # (core, arrival time)


class PySchedKernel:
    """The pure-Python record walk: the compiled ``SchedKernel``'s twin.

    Same constructor, same methods, same exits, so ``Simulator._execute``
    drives either one.  ``run()`` retires READ, WRITE and WORK records and
    returns ``(op, core, now, i, acc)`` at a synchronization record,
    before processing it (cursor still on it), or ``None`` once no core
    is runnable; ``advance``/``continue_at``/``wake`` are the trampoline's
    re-entry points; ``finish()`` hands back the per-core hit counts and
    ``(compute, l1_to_l2, l2_waiting, l2_sharers, l2_offchip)`` rows.
    This is the ungated, bit-identical reference for the compiled kernel
    (``REPRO_NO_ACCEL=1`` selects it).

    The walk reads the trace's columnar IR directly (per-core columns, a
    cursor each) and schedules with a ``(t, core)`` min-heap; the running
    core is never *in* the heap, and a pre-check against the heap root
    keeps it running without any heap movement while it remains the
    min-clock choice.  Every transformation preserves the exact min-clock
    schedule and float-addition order of a record-at-a-time interpreter.

    Before every ``access`` call the walk raises the horizon of ``mesh``,
    the engine's mesh kernel, to the epoch of ``min(now, floor)``: ``now``
    is the running core's clock, the heap minimum, and ``floor`` the
    smallest final clock of a core that has run out of records (DESIGN.md
    section 14).  No reservation can start below it.
    """

    def __init__(self, ops, addresses, works, start_clocks, l1_hit_latency,
                 access, result_type, fast, mesh) -> None:
        # ``result_type`` only tells the compiled kernel where the
        # ``AccessResult`` slots sit; the Python walk reads attributes.
        num_cores = len(ops)
        # Materialized list views of the columnar IR: indexing an
        # ``array('q')`` boxes a fresh int object per read, while a list
        # returns the already-boxed object.  One bulk conversion per
        # execution buys back three boxings per record in the walk.
        self._ops = [list(col) for col in ops]
        self._addresses = [list(col) for col in addresses]
        self._works = [list(col) for col in works]
        self._lengths = [len(col) for col in self._ops]
        self._indices = [0] * num_cores
        self._clocks = list(start_clocks)
        self._compute = [0.0] * num_cores
        self._latency = [LatencyBreakdown() for _ in range(num_cores)]
        #: Deferred hit counters, flushed by the trampoline at the end of
        #: the pass, keeping the per-hit work to list updates.
        self._hits_r = [0] * num_cores
        self._hits_w = [0] * num_cores
        self._l1_hit_latency = l1_hit_latency
        self._access = access
        # Inline L1-hit fast path (see ProtocolEngineBase.scheduler_fast_path):
        # families with bookkeeping-only hits let the walk service them
        # without an ``access`` call.
        if fast is not None:
            self._fast = (fast["buckets"], fast["set_bits"], fast["stores"],
                          fast["set_mask"], fast["exclusive"], fast["modified"])
        else:
            # No inline hit path: probe permanently-empty surrogate buckets
            # (the engine fills its own L1 structures, never these), so the
            # walk needs no per-record "is there a fast path?" check - every
            # probe misses and every access takes the full path.
            self._fast = ([{}] * num_cores, 0, None, 0, None, None)
        self._ready = [(self._clocks[c], c) for c in range(num_cores) if self._lengths[c]]
        heapq.heapify(self._ready)
        self._current = -1  # core to keep running, -1 = pop the heap
        self._now = 0.0
        self._raise_horizon = mesh.raise_horizon
        #: The smallest final clock of a core that has run out of records
        #: (a core with an empty stream finishes at its start clock).
        self._floor = min(
            (self._clocks[c] for c in range(num_cores) if not self._lengths[c]),
            default=float("inf"),
        )
        self._published = -1  # last epoch published, -1 = none

    def _publish_horizon(self, now: float) -> None:
        """Raise the mesh kernel's horizon to the epoch of ``min(now,
        floor)``; only a rise reaches the kernel."""
        floor = self._floor
        epoch = int(now if now < floor else floor) >> EPOCH_SHIFT
        if epoch > self._published:
            self._published = epoch
            self._raise_horizon(epoch)

    def run(self):
        """Walk records until a sync record (exit tuple) or the end (None)."""
        ready = self._ready
        core = self._current
        if core >= 0:
            now = self._now
        elif ready:
            now, core = heapq.heappop(ready)
        else:
            return None
        ops_cols = self._ops
        addr_cols = self._addresses
        work_cols = self._works
        lengths = self._lengths
        indices = self._indices
        clocks = self._clocks
        compute = self._compute
        latency = self._latency
        hits_r = self._hits_r
        hits_w = self._hits_w
        l1_hit_latency = self._l1_hit_latency
        access = self._access
        publish = self._publish_horizon
        f_buckets, f_set_bits, f_stores, f_mask, f_exclusive, f_modified = self._fast
        line_bits = addrmod.LINE_BITS
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        op_read, op_write, op_work = int(Op.READ), int(Op.WRITE), int(Op.WORK)
        while True:
            ops = ops_cols[core]
            addresses = addr_cols[core]
            works = work_cols[core]
            n = lengths[core]
            i = indices[core]
            bd = latency[core]
            acc = compute[core]
            core_sets = core << f_set_bits
            while True:
                op = ops[i]
                work = works[i]

                if op == op_read:
                    work += l1_hit_latency
                    acc += work
                    t = now + work
                    address = addresses[i]
                    i += 1
                    line = address >> line_bits
                    entry = f_buckets[core_sets | (line & f_mask)].get(line)
                    if entry is not None:
                        # Inline L1 read hit: exactly the bookkeeping the
                        # engine's access() hit branch performs (the
                        # hit/energy counters are deferred, see above).
                        store = f_stores[core]
                        counter = store._use_counter + 1
                        store._use_counter = counter
                        entry.last_use = counter
                        entry.utilization += 1
                        entry.last_access = t
                        hits_r[core] += 1
                    else:
                        publish(now)
                        result = access(core, False, address, t)
                        if not result.hit:
                            bd.l1_to_l2 += result.l1_to_l2
                            bd.l2_waiting += result.l2_waiting
                            bd.l2_sharers += result.l2_sharers
                            bd.l2_offchip += result.l2_offchip
                            t += result.latency
                elif op == op_write:
                    work += l1_hit_latency
                    acc += work
                    t = now + work
                    address = addresses[i]
                    i += 1
                    line = address >> line_bits
                    entry = f_buckets[core_sets | (line & f_mask)].get(line)
                    if entry is not None and entry.state >= f_exclusive:
                        # Inline L1 write hit (the silent E -> M upgrade).
                        store = f_stores[core]
                        counter = store._use_counter + 1
                        store._use_counter = counter
                        entry.last_use = counter
                        entry.utilization += 1
                        entry.last_access = t
                        entry.state = f_modified
                        hits_w[core] += 1
                    else:
                        publish(now)
                        result = access(core, True, address, t)
                        if not result.hit:
                            bd.l1_to_l2 += result.l1_to_l2
                            bd.l2_waiting += result.l2_waiting
                            bd.l2_sharers += result.l2_sharers
                            bd.l2_offchip += result.l2_offchip
                            t += result.latency
                elif op == op_work:
                    t = now + work
                    i += 1
                    acc += work
                else:  # BARRIER, LOCK or UNLOCK: the trampoline's business
                    indices[core] = i
                    compute[core] = acc
                    self._current = core
                    self._now = now
                    return op, core, now, i, acc

                if i < n:
                    if ready:
                        # Keep-running pre-check against the heap root: the
                        # same (t, core) tuple order heappushpop applies,
                        # without allocating the entry or sifting when this
                        # core remains the min-clock choice.
                        r0 = ready[0]
                        rt = r0[0]
                        if t < rt or (t == rt and core < r0[1]):
                            now = t  # still the min-clock core: keep going
                            continue
                        indices[core] = i
                        clocks[core] = t
                        compute[core] = acc
                        now, core = heappushpop(ready, (t, core))
                    else:
                        now = t  # only runnable core left
                        continue
                else:
                    indices[core] = i
                    clocks[core] = t
                    compute[core] = acc
                    if t < self._floor:
                        self._floor = t
                    if not ready:
                        self._current = -1
                        return None
                    now, core = heappop(ready)
                break

    def advance(self, core: int, i: int, acc: float) -> None:
        """Store ``core``'s cursor and park it (pop the heap next)."""
        self._indices[core] = i
        self._compute[core] = acc
        self._current = -1

    def continue_at(self, core: int, i: int, acc: float, t: float) -> None:
        """Store ``core``'s cursor and take the walk's post-record step at
        ``t``: keep running, yield to the heap root, or retire."""
        self._indices[core] = i
        self._compute[core] = acc
        ready = self._ready
        if i < self._lengths[core]:
            if ready and (t, core) > ready[0]:
                self._clocks[core] = t
                self._now, self._current = heapq.heappushpop(ready, (t, core))
            else:
                self._now, self._current = t, core
        else:
            self._clocks[core] = t
            if t < self._floor:
                self._floor = t
            if ready:
                self._now, self._current = heapq.heappop(ready)
            else:
                self._current = -1

    def wake(self, core: int, t: float) -> bool:
        """Set ``core``'s clock; re-queue it if records remain (and say so)."""
        self._clocks[core] = t
        if self._indices[core] < self._lengths[core]:
            heapq.heappush(self._ready, (t, core))
            return True
        if t < self._floor:
            self._floor = t
        return False

    def note(self, core: int, event: int, line: int, entry) -> None:
        """L1 membership observer: nothing to mirror, the walk probes the
        live buckets."""

    def clocks(self) -> list[float]:
        return list(self._clocks)

    def finish(self) -> tuple[list[int], list[int], list[tuple]]:
        rows = [
            (compute, bd.l1_to_l2, bd.l2_waiting, bd.l2_sharers, bd.l2_offchip)
            for compute, bd in zip(self._compute, self._latency)
        ]
        return self._hits_r, self._hits_w, rows


class Simulator:
    """Public facade: configure once, ``run`` any number of traces."""

    def __init__(
        self,
        arch: ArchConfig | None = None,
        proto: ProtocolConfig | None = None,
        energy: EnergyConfig | None = None,
        verify: bool = False,
        warmup: bool = False,
    ) -> None:
        self.arch = arch if arch is not None else ArchConfig()
        self.proto = proto if proto is not None else ProtocolConfig()
        self.energy_model = EnergyModel(energy if energy is not None else EnergyConfig())
        self.verify = verify
        self.warmup = warmup
        # Scheduler fast-path hit counts of the most recent _execute pass
        # (telemetry snapshot inputs; not part of RunStats).
        self._fast_read_hits = 0
        self._fast_write_hits = 0
        #: The engine of the most recent run, kept for post-run inspection
        #: (the trace-level differential harness compares golden memories
        #: across protocol families after full simulations).
        self.last_engine: ProtocolEngineBase | None = None

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> RunStats:
        """Simulate ``trace`` to completion and return its statistics.

        The cyclic garbage collector is suspended for the duration of the
        run: the simulator allocates almost exclusively acyclic objects
        (tuples, cache lines, results) that reference counting reclaims
        immediately, so generation-0 sweeps are pure overhead (~10% of the
        hot loop).  The collector is restored to its previous state on
        exit; results are unaffected.
        """
        arch = self.arch
        if trace.num_cores != arch.num_cores:
            raise SimulationError(
                f"trace {trace.name!r} built for {trace.num_cores} cores, "
                f"architecture has {arch.num_cores}"
            )
        # Drop the previous run's engine first, so that a re-run never
        # holds two engines (caches, slot tables, overflow maps) at once.
        self.last_engine = None
        engine = make_engine(arch, self.proto, verify=self.verify)
        # Telemetry is per *run*, never per record: the run takes two clock
        # readings per phase, and with the sink enabled it emits all of its
        # records after the last phase.  The hot loops are untouched either
        # way, so RunStats stay bit-identical (the neutrality property test
        # pins this).
        tel = TELEMETRY if TELEMETRY.enabled else None
        run_start = time.perf_counter()
        phases: list[tuple[str, float, float]] = []
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            clocks = [0.0] * arch.num_cores
            if self.warmup:
                start = time.perf_counter()
                warm_bd = [LatencyBreakdown() for _ in range(arch.num_cores)]
                clocks = self._execute(engine, trace, clocks, warm_bd)
                engine.reset_stats()
                phases.append(("sim.phase.warmup", start, time.perf_counter()))
            measure_start = max(clocks) if clocks else 0.0
            start = time.perf_counter()
            breakdowns = [LatencyBreakdown() for _ in range(arch.num_cores)]
            clocks = self._execute(engine, trace, clocks, breakdowns)
            completion = (max(clocks) if clocks else 0.0) - measure_start
            phases.append(("sim.phase.simulate", start, time.perf_counter()))
            if self.verify:
                start = time.perf_counter()
                # Beyond the per-access golden checks: no write may be lost
                # even if the trace never re-reads it.
                engine.check_final_state()
                phases.append(("sim.phase.verify", start, time.perf_counter()))
        finally:
            # Emitted before the collector resumes, so the records'
            # allocations cannot trigger a collection of the run's garbage.
            try:
                if tel is not None:
                    self._emit_run_telemetry(tel, engine, trace, run_start, phases)
            finally:
                if gc_was_enabled:
                    gc.enable()
        self.last_engine = engine
        return self._collect(trace, engine, completion, breakdowns)

    # ------------------------------------------------------------------
    def _emit_run_telemetry(
        self,
        tel,
        engine: ProtocolEngineBase,
        trace: Trace,
        run_start: float,
        phases: list[tuple[str, float, float]],
    ) -> None:
        """The run's one record: the ``sim.run`` span with its phases and a
        counter snapshot of the measured pass (the internal rates the
        paper's claims rest on: fast-path hits, classification mix, mesh
        slot recycling).  Counters are increments, so concurrent runs in
        one process sum cleanly at render time."""
        miss = engine.miss_stats
        network = engine.network
        # Which implementation each kernel actually used (compiled vs pure
        # Python), so an event file says which code produced its numbers
        # (DESIGN.md secs. 12 and 14).
        sched = "accel" if accel.sched_kernel_class() is not None else "fallback"
        values = {
            "sim.l1d.accesses": miss.accesses,
            "sim.l1d.hits": miss.hits,
            "sim.fastpath.read_hits": self._fast_read_hits,
            "sim.fastpath.write_hits": self._fast_write_hits,
            f"sim.runs.{network.implementation}": 1,
            f"sim.sched.{sched}": 1,
            "mesh.messages": network.messages_sent,
            "mesh.flits": network.flits_sent,
            "mesh.link_flit_traversals": network.link_flit_traversals,
            "mesh.slot_recycles": network.slot_recycles,
            "mesh.overflow_entries": network.kernel.overflow_len(),
            "mesh.retired_flits": network.retired_flits,
            "dram.requests": engine.memsys.total_requests,
        }
        classifier = engine.classifier
        if classifier is not None:
            values["classifier.promotions"] = classifier.promotions
            values["classifier.demotions"] = classifier.demotions
            values["classifier.remote_accesses"] = classifier.remote_accesses
            values["classifier.vote_decisions"] = classifier.vote_decisions
        tel.record_span(
            "sim.run", run_start, time.perf_counter(), phases, values,
            benchmark=trace.name,
            protocol=self.proto.protocol,
            cores=self.arch.num_cores,
            records=trace.total_records,
        )

    # ------------------------------------------------------------------
    def _execute(
        self,
        engine: ProtocolEngineBase,
        trace: Trace,
        start_clocks: list[float],
        breakdowns: list[LatencyBreakdown],
    ) -> list[float]:
        """Run every core through its stream once; return final clocks.

        The one trampoline over either scheduler kernel: the compiled
        ``SchedKernel`` or its pure-Python twin :class:`PySchedKernel`
        (``REPRO_NO_ACCEL=1``).  The kernel owns cursors, heap, compute
        and miss-latency accumulators and the inline L1-hit path, raises
        the horizon of the engine's mesh kernel before every engine call,
        and returns at each synchronization record before processing it.
        Everything synchronization-shaped happens here, once for both:
        barrier rendezvous, lock FIFOs, ``sync_boundary_hook`` boundaries,
        deadlock detection, then the end-of-pass flush of the kernel's
        accumulators into the breakdowns and hit counters.  Each kernel
        row starts at 0.0 and lands on a fresh breakdown field, so every
        sum is bit-identical to adding the terms in place.

        ``accel.sched_kernel_class`` is looked up per call: the benchmark's
        traced run patches it.
        """
        arch = self.arch
        num_cores = arch.num_cores
        barrier_latency = arch.barrier_latency
        lock_latency = arch.lock_latency
        #: Release-boundary callback (Neat self-downgrade batching): only
        #: consulted at unlock/barrier/end-of-trace, never per record.
        sync_cb = engine.sync_boundary_hook()
        fast = engine.scheduler_fast_path()
        kernel_cls = accel.sched_kernel_class() or PySchedKernel
        kernel = kernel_cls(
            trace.ops,
            trace.addresses,
            trace.works,
            start_clocks,
            float(arch.l1d.latency),
            engine.access,
            AccessResult,
            fast,
            engine.network.kernel,
        )
        stores = fast["stores"] if fast is not None else ()
        addr_cols = trace.addresses
        work_cols = trace.works
        op_barrier, op_lock = int(Op.BARRIER), int(Op.LOCK)
        barrier_waiters: dict[int, list[tuple[int, float]]] = {}
        locks: dict[int, _LockState] = {}
        blocked = 0  # cores parked at barriers or lock queues
        run = kernel.run
        wake = kernel.wake
        continue_at = kernel.continue_at
        try:
            note = kernel.note
            for core, store in enumerate(stores):
                store._observer = partial(note, core)
            while True:
                exit_ = run()
                if exit_ is None:
                    break
                op, core, now, i, acc = exit_
                address = addr_cols[core][i]
                work = work_cols[core][i]
                if op == op_barrier:
                    t = now + work
                    if sync_cb is not None:
                        sync_cb(core, t)  # a barrier arrival is a release
                    # Parked; the core's clock is set by the release.
                    kernel.advance(core, i + 1, acc + work)
                    waiters = barrier_waiters.setdefault(address, [])
                    waiters.append((core, t))
                    if len(waiters) == num_cores:
                        release = max(at for _, at in waiters) + barrier_latency
                        for wcore, at in waiters:
                            breakdowns[wcore].sync += release - at
                            wake(wcore, release)
                        blocked -= len(waiters) - 1
                        del barrier_waiters[address]
                    else:
                        blocked += 1
                elif op == op_lock:
                    t = now + work
                    acc += work
                    state = locks.setdefault(address, _LockState())
                    if state.held_by < 0:
                        state.held_by = core
                        breakdowns[core].sync += lock_latency
                        t += lock_latency
                        continue_at(core, i + 1, acc, t)
                    else:
                        # Parked; the unlocking core wakes us.
                        kernel.advance(core, i + 1, acc)
                        state.queue.append((core, t))
                        blocked += 1
                else:  # Op.UNLOCK
                    t = now + work
                    acc += work
                    state = locks.get(address)
                    if state is None or state.held_by != core:
                        raise SimulationError(
                            f"core {core} unlocks lock {address} it does not hold"
                        )
                    t += lock_latency
                    breakdowns[core].sync += lock_latency
                    if sync_cb is not None:
                        sync_cb(core, t)  # flush before the lock hand-off
                    if state.queue:
                        wcore, arrival = state.queue.popleft()
                        state.held_by = wcore
                        breakdowns[wcore].sync += t - arrival
                        blocked -= 1
                        if not wake(wcore, t) and state.queue:
                            raise SimulationError(
                                f"core {wcore} acquired lock {address} at end of "
                                "trace while others wait"
                            )
                    else:
                        state.held_by = -1
                    continue_at(core, i + 1, acc, t)
            if blocked:
                raise SimulationError(
                    f"deadlock: {blocked} cores still blocked at end of trace "
                    f"(barriers awaiting: {sorted(barrier_waiters)})"
                )
            clocks = kernel.clocks()
            if sync_cb is not None:
                # End of the trace is its final release: no buffered store
                # may outlive the execution (the verify-mode final-state
                # sweep and the warmup -> measure transition rely on this).
                for core in range(num_cores):
                    sync_cb(core, clocks[core])
            hits_r, hits_w, rows = kernel.finish()
            for core in range(num_cores):
                bd = breakdowns[core]
                compute, l1_to_l2, l2_waiting, l2_sharers, l2_offchip = rows[core]
                bd.compute += compute
                bd.l1_to_l2 += l1_to_l2
                bd.l2_waiting += l2_waiting
                bd.l2_sharers += l2_sharers
                bd.l2_offchip += l2_offchip
            # Deferred hit counters: plain integer sums, order-independent.
            reads = 0
            writes = 0
            if fast is not None:
                l1s = fast["l1s"]
                for core in range(num_cores):
                    r, w = hits_r[core], hits_w[core]
                    l1s[core].hits += r + w
                    reads += r
                    writes += w
                engine.miss_stats.hits += reads + writes
                engine.energy.l1d_reads += reads
                engine.energy.l1d_writes += writes
            # Fast-path hit counts of this pass, read by the telemetry
            # snapshot (two attribute stores; no stats impact).
            self._fast_read_hits = reads
            self._fast_write_hits = writes
            return clocks
        finally:
            for store in stores:
                store._observer = None

    # ------------------------------------------------------------------
    def _collect(
        self,
        trace: Trace,
        engine: ProtocolEngineBase,
        completion: float,
        breakdowns: list[LatencyBreakdown],
    ) -> RunStats:
        instructions = trace.instructions
        # Instruction fetches are modeled analytically (DESIGN.md decision 3): the
        # in-order core already pays 1 cycle/instruction and R-NUCA's
        # cluster replication keeps the instruction stream resident in L1-I,
        # so L1-I contributes energy proportional to instruction count.
        engine.energy.l1i_reads += instructions

        total = LatencyBreakdown()
        for bd in breakdowns:
            total.add(bd)
        average = total.scaled(1.0 / max(1, len(breakdowns)))

        stats = RunStats(
            benchmark=trace.name,
            num_cores=self.arch.num_cores,
            completion_time=completion,
            instructions=instructions,
            latency=average,
            miss=engine.miss_stats,
            energy=self.energy_model.breakdown(engine.energy, engine.network),
            inval_histogram=engine.inval_histogram,
            evict_histogram=engine.evict_histogram,
            broadcast_invalidations=engine.sharer_policy.broadcast_invalidations,
            unicast_invalidations=engine.sharer_policy.unicast_invalidations,
            dram_requests=engine.memsys.total_requests,
            network_flits=engine.network.flits_sent,
        )
        classifier = engine.classifier
        if classifier is not None:
            stats.promotions = classifier.promotions
            stats.demotions = classifier.demotions
            stats.remote_accesses = classifier.remote_accesses
        stats.l2_hits = sum(s.hits for s in engine.l2)
        stats.l2_misses = sum(s.misses for s in engine.l2)
        engine.export_stats(stats)
        return stats
