"""PARSEC workload kernels (Table 2).

See ``repro.workloads.splash2`` for the modelling approach: each kernel
reproduces its namesake's reference skeleton (phases, sharing, per-line
utilization) at scaled problem sizes.
"""

from __future__ import annotations

from repro.common.params import ArchConfig
from repro.common.rng import make_rng
from repro.workloads.base import Trace, TraceBuilder
from repro.workloads.patterns import (
    LINE,
    hot_loop,
    line_visit,
    stream_scan,
)


def build_blackscholes(
    arch: ArchConfig,
    option_lines: int = 192,
    result_lines: int = 24,
    passes: int = 3,
    batch_lines: int = 16,
    table_lines: int = 8,
) -> Trace:
    """Blackscholes option pricing (Table 2: 64K options).

    PARSEC's blackscholes reprices the whole option array NUM_RUNS times:
    each pass streams a large private array (~2 uses per line) interleaved
    with lookups into a hot CNDF coefficient table.  At PCT=1 the stream
    evicts the hot table (cache pollution, capacity misses); once demoted,
    later passes access option lines as cheap *local* word accesses (private
    pages live in the requester's own L2 slice under R-NUCA) - the paper's
    flagship capacity->word example.
    """
    n = arch.num_cores
    tb = TraceBuilder("blackscholes", n)
    options = [tb.address_space.alloc(f"opt{t}", option_lines * LINE) for t in range(n)]
    results = [tb.address_space.alloc(f"res{t}", result_lines * LINE) for t in range(n)]
    tables = [tb.address_space.alloc(f"tbl{t}", table_lines * LINE) for t in range(n)]

    for tid in range(n):
        tp = tb.thread(tid)
        for _ in range(passes):
            for batch in range(0, option_lines, batch_lines):
                stream_scan(tp, options[tid], min(batch_lines, option_lines - batch),
                            uses_per_line=2, work_per_use=10, start_line=batch)
                # CNDF table consulted between batches: hot, wants to stay.
                stream_scan(tp, tables[tid], table_lines, uses_per_line=1,
                            work_per_use=4)
            stream_scan(tp, results[tid], result_lines, uses_per_line=1,
                        write_fraction=1.0, rng=make_rng("blackscholes", tid))
    tb.barrier_all()
    return tb.build()


def build_streamcluster(
    arch: ArchConfig,
    center_lines: int = 24,
    point_lines: int = 128,
    rounds: int = 5,
) -> Trace:
    """Streamcluster k-median (Table 2: 8192 points per block).

    Every round all threads read the shared candidate-center structure
    (~2 uses per line) and the coordinator then rewrites it, invalidating
    every reader - the paper's flagship sharing->word example (80% of
    streamcluster invalidations have utilization < 4, Figure 1).
    """
    n = arch.num_cores
    tb = TraceBuilder("streamcluster", n)
    centers = tb.address_space.alloc("centers", center_lines * LINE)
    points = [tb.address_space.alloc(f"pts{t}", point_lines * LINE) for t in range(n)]
    cost_line = tb.address_space.alloc("gain", LINE)

    point_batch = max(1, point_lines // max(1, center_lines // 4))
    for round_index in range(rounds):
        coordinator_tid = round_index % n
        for tid in range(n):
            tp = tb.thread(tid)
            rng = make_rng("streamcluster", round_index, tid)
            # Gain evaluation interleaves candidate-center reads with the
            # private point scan, so reads collide with the coordinator's
            # mid-round center updates (no phase barrier in the real code):
            # every update invalidates the readers' low-utilization copies
            # and the readers queue up behind the invalidation rounds at the
            # home L2 - the L2-waiting the adaptive protocol eliminates.
            center_cursor = 0
            for batch in range(0, point_lines, point_batch):
                stream_scan(tp, points[tid], min(point_batch, point_lines - batch),
                            uses_per_line=4, work_per_use=4,
                            write_fraction=0.1, rng=rng, start_line=batch)
                stream_scan(tp, centers, 4, uses_per_line=1, work_per_use=3,
                            start_line=center_cursor % center_lines)
                center_cursor += 4
            if tid == coordinator_tid:
                stream_scan(tp, centers, center_lines, uses_per_line=1,
                            write_fraction=1.0,
                            rng=make_rng("streamcluster", round_index, "upd"))
            tp.lock(0)
            tp.read(cost_line)
            tp.write(cost_line)
            tp.unlock(0)
        tb.barrier_all()
    return tb.build()


def build_dedup(
    arch: ArchConfig,
    chunks_per_pair: int = 16,
    chunk_lines: int = 4,
    hash_lines: int = 1024,
    ring_slots: int = 4,
    probes_per_chunk: int = 3,
) -> Trace:
    """Dedup compression pipeline (Table 2: 31 MB stream).

    Producer threads write chunk buffers through a small ring that consumer
    threads read (migratory sharing: the producer's reuse of a ring slot
    invalidates the consumer's low-utilization copy) and a shared hash table
    takes random once-touched lookups/inserts.
    """
    n = arch.num_cores
    tb = TraceBuilder("dedup", n)
    pairs = n // 2
    buffers = [
        tb.address_space.alloc(f"buf{p}", ring_slots * chunk_lines * LINE)
        for p in range(pairs)
    ]
    hash_table = tb.address_space.alloc("hashtable", hash_lines * LINE)
    tables = [tb.address_space.alloc(f"ctbl{p}", 12 * LINE) for p in range(pairs)]

    for p in range(pairs):
        producer = tb.thread(p)
        consumer = tb.thread(pairs + p)
        rng_p = make_rng("dedup", p, "prod")
        rng_c = make_rng("dedup", p, "cons")
        for chunk in range(chunks_per_pair):
            base = buffers[p] + (chunk % ring_slots) * chunk_lines * LINE
            producer.lock(p)
            stream_scan(producer, base, chunk_lines, uses_per_line=8,
                        write_fraction=1.0, rng=rng_p)
            producer.unlock(p)
            consumer.lock(p)
            stream_scan(consumer, base, chunk_lines, uses_per_line=2, work_per_use=10)
            consumer.unlock(p)
            # Rolling-hash tables: hot per-consumer state.
            hot_loop(consumer, tables[p], 12, passes=1, work_per_use=4)
            # Consumer probes/inserts into the shared hash table.
            for _ in range(probes_per_chunk):
                slot = rng_c.randrange(hash_lines)
                line_visit(consumer, hash_table + slot * LINE, uses=2,
                           write_fraction=0.5, rng=rng_c, work_per_use=8)
    # Odd thread out (if any) does independent local work.
    for tid in range(2 * pairs, n):
        hot_loop(tb.thread(tid), tb.address_space.alloc(f"spare{tid}", 4 * LINE),
                 4, passes=chunks_per_pair)
    tb.barrier_all()
    return tb.build()


def build_bodytrack(
    arch: ArchConfig,
    weight_lines: int = 64,
    model_lines: int = 96,
    frames: int = 3,
) -> Trace:
    """Bodytrack particle filter (Table 2: 2 frames, 2000 particles).

    Per frame the coordinator (thread 0) rewrites the particle-weight
    array; every other thread then reads it (~2 uses per line) - sharing
    misses - and streams a large read-only model (capacity misses).  The
    coordinator's high private utilization makes it the *first tracked
    sharer*, which is exactly the Limited_1 pathology the paper reports:
    newcomers inherit "private" although they want remote.
    """
    n = arch.num_cores
    tb = TraceBuilder("bodytrack", n)
    weights = tb.address_space.alloc("weights", weight_lines * LINE)
    model = tb.address_space.alloc("model", model_lines * LINE)
    scratch = [tb.address_space.alloc(f"scr{t}", 8 * LINE) for t in range(n)]
    workspaces = [tb.address_space.alloc(f"wsp{t}", 48 * LINE) for t in range(n)]

    for frame in range(frames):
        # Coordinator resamples weights and refreshes the per-frame pose/
        # observation model (both rewritten every frame, invalidating all
        # reader copies).
        coordinator = tb.thread(0)
        stream_scan(coordinator, weights, weight_lines, uses_per_line=3,
                    write_fraction=0.6, rng=make_rng("bodytrack", frame, "coord"))
        stream_scan(coordinator, model, model_lines // 2, uses_per_line=1,
                    write_fraction=1.0, rng=make_rng("bodytrack", frame, "pose"))
        tb.barrier_all()
        for tid in range(n):
            tp = tb.thread(tid)
            rng = make_rng("bodytrack", frame, tid)
            if tid != 0:
                # Per-frame particle-weight reuse varies with how many of the
                # thread's particles map to each line (1..6 uses).  One
                # low-reuse frame demotes the line; under Adapt1-way that is
                # terminal and every later high-reuse frame pays a round-trip
                # per access, while two-way transitions re-promote it.
                for wline in range(weight_lines):
                    uses = 1 if rng.random() < 0.25 else 3 + rng.randrange(6)
                    line_visit(tp, weights + wline * LINE, uses=uses, work_per_use=3)
            half_model = model_lines // 2
            stream_scan(tp, model, half_model, uses_per_line=1, work_per_use=6)
            stream_scan(tp, model, model_lines - half_model, uses_per_line=4,
                        work_per_use=4, start_line=half_model)
            hot_loop(tp, scratch[tid], 8, passes=6, write_fraction=0.4, rng=rng,
                     work_per_use=4)
            # Per-frame likelihood workspace: private, revisited every frame
            # with utilization just below PCT.  Under two-way transitions
            # these lines oscillate (demoted at eviction, re-promoted after
            # a few remote accesses); under Adapt1-way one demotion makes
            # every later access a remote round-trip - the paper's 3.3x
            # bodytrack blowup.
            stream_scan(tp, workspaces[tid], 48, uses_per_line=3,
                        write_fraction=0.4, rng=rng, work_per_use=3)
        tb.barrier_all()
    return tb.build()


def build_fluidanimate(
    arch: ArchConfig,
    cell_lines: int = 48,
    edge_lines: int = 6,
    iterations: int = 4,
) -> Trace:
    """Fluidanimate SPH solver (Table 2: 5 frames, 100K particles).

    Threads own spatial cell regions with moderate-reuse updates; boundary
    cells are exchanged with mesh neighbours under fine-grained locks.
    """
    n = arch.num_cores
    tb = TraceBuilder("fluidanimate", n)
    regions = [tb.address_space.alloc(f"cells{t}", cell_lines * LINE) for t in range(n)]

    for it in range(iterations):
        for tid in range(n):
            tp = tb.thread(tid)
            rng = make_rng("fluid", it, tid)
            stream_scan(tp, regions[tid], cell_lines, uses_per_line=3,
                        write_fraction=0.4, rng=rng, work_per_use=8)
            neighbour = (tid + 1) % n
            tp.lock(min(tid, neighbour))
            stream_scan(tp, regions[neighbour], edge_lines, uses_per_line=1,
                        work_per_use=6)
            tp.unlock(min(tid, neighbour))
        tb.barrier_all()
    return tb.build()


def build_canneal(
    arch: ArchConfig,
    netlist_lines: int = 4096,
    moves_per_thread: int = 96,
) -> Trace:
    """Canneal simulated annealing (Table 2: 200K elements).

    Uniformly random once-touched reads/writes over a netlist far larger
    than the L1: essentially every reference misses, utilization is 1, and
    the adaptive protocol converts the entire stream to word accesses.
    """
    n = arch.num_cores
    tb = TraceBuilder("canneal", n)
    netlist = tb.address_space.alloc("netlist", netlist_lines * LINE)
    rng_states = [tb.address_space.alloc(f"rng{t}", 2 * LINE) for t in range(n)]

    for tid in range(n):
        tp = tb.thread(tid)
        rng = make_rng("canneal", tid)
        hot_loop(tp, rng_states[tid], 2, passes=16, write_fraction=0.5, rng=rng,
                 work_per_use=4)
        hot_nets = netlist_lines // 16
        for _ in range(moves_per_thread * 2):
            if rng.random() < 0.3:
                # Hot nets: revisited densely, utilization stays high.
                line = rng.randrange(hot_nets)
                line_visit(tp, netlist + line * LINE, uses=6,
                           write_fraction=0.3, rng=rng, work_per_use=6)
            else:
                line = rng.randrange(netlist_lines)
                line_visit(tp, netlist + line * LINE, uses=1,
                           write_fraction=0.3, rng=rng, work_per_use=14)
    tb.barrier_all()
    return tb.build()
