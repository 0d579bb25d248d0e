"""Golden-model differential harness: all six protocol families, one trace.

The strongest cross-protocol check in the suite.  A seeded random
multithreaded access sequence is driven through every protocol family -
baseline, adaptive, victim, dls, neat, phase - in verify mode, where:

* each engine checks every read against its own golden memory maintained in
  coherence order and asserts its structural invariants (SWMR for the
  directory families), raising ``CoherenceError`` on the first violation;
* at the end of the trace, ``check_final_state`` walks every line the golden
  memory knows and asserts the architecturally observable value (MODIFIED L1
  copy > home L2 line > DRAM image) matches - no write may be lost even if
  never re-read;
* finally the engines are compared *against each other*: because every
  engine services the identical access sequence and derives write values
  from the same per-engine token counter, their golden images and their
  observable final memory must be bit-identical across protocols.  Any
  divergence means one family serviced an access out of order or dropped a
  token.

Every failure message leads with the generator seed, so any counterexample
reproduces with ``run_differential(seed)`` from a REPL.

The trace generator and ``run_differential`` are importable - new protocol
families get differential coverage by adding one entry to ``ENGINES``.

The seed set is environment-overridable (``REPRO_DIFF_SEEDS=7,19``) so CI
can pin cheap fixed seeds while local runs take the default four.  A set-but-
unparseable value fails loudly: silently running ZERO seeds would turn the
whole harness into a green no-op.

On failure the harness delta-debugs the random trace down to a minimized
reproduction and prints it - the same instrument ``repro.verify.exhaustive``
applies to its enumerated interleavings.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.common.errors import CoherenceError
from repro.common.params import (
    ArchConfig,
    CacheGeometry,
    ProtocolConfig,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    victim_replication_protocol,
)
from repro.protocol.engine import make_engine

BASE = 1 << 30
LINE = 64
WORD = 8
NUM_CORES = 4
NUM_LINES = 24
STEPS = 700

#: The six protocol families under differential test.
ENGINES: dict[str, ProtocolConfig] = {
    "baseline": baseline_protocol(),
    "adaptive": ProtocolConfig(pct=2, classifier="limited", limited_k=2),
    "victim": victim_replication_protocol(),
    "dls": dls_protocol(),
    "neat": neat_protocol(),
    "phase": phase_protocol(),
}


def tiny_arch() -> ArchConfig:
    """4 cores with tiny caches so evictions and churn are constant."""
    return ArchConfig(
        num_cores=NUM_CORES,
        num_memory_controllers=2,
        l1d=CacheGeometry(1, 2, 1),
        l2=CacheGeometry(2, 2, 7),
    )


def generate_trace(seed: int, steps: int = STEPS) -> list[tuple[int, bool, int]]:
    """Seeded random access sequence: (core, is_write, address) records.

    Mixes the patterns that stress coherence: a small hot pool of
    write-shared lines (invalidation/self-invalidation churn), a read-mostly
    shared region (sharer accumulation, replication) and per-core private
    strides (R-NUCA private pages, capacity evictions).
    """
    rng = random.Random(seed)
    hot = [rng.randrange(NUM_LINES) for _ in range(4)]
    trace = []
    for _ in range(steps):
        core = rng.randrange(NUM_CORES)
        roll = rng.random()
        if roll < 0.35:  # hot write-shared pool
            line = rng.choice(hot)
            is_write = rng.random() < 0.5
        elif roll < 0.75:  # shared read-mostly region
            line = rng.randrange(NUM_LINES)
            is_write = rng.random() < 0.1
        else:  # private stride, far from the shared region
            line = NUM_LINES + core * 64 + rng.randrange(12)
            is_write = rng.random() < 0.4
        address = BASE + line * LINE + rng.randrange(LINE // WORD) * WORD
        trace.append((core, is_write, address))
    return trace


def _drive_trace(trace: list[tuple[int, bool, int]]):
    """Drive one fixed access sequence through every family.

    Returns ``(error-or-None, engines)``: the first failure as a message
    string (per-family coherence/final-state violation, or cross-protocol
    golden/observable divergence), plus the engines completed so far.
    """
    engines: dict[str, object] = {}
    for name, proto in ENGINES.items():
        engine = make_engine(tiny_arch(), proto, verify=True)
        now = 0.0
        for step, (core, is_write, address) in enumerate(trace):
            try:
                result = engine.access(core, is_write, address, now)
            except CoherenceError as exc:
                return (
                    f"protocol {name!r} violated coherence at step {step} "
                    f"({'W' if is_write else 'R'} core {core} "
                    f"addr {address:#x}): {exc}"
                ), engines
            now += 1.0 + result.latency
        try:
            engine.check_final_state()
        except CoherenceError as exc:
            return (
                f"protocol {name!r} lost a write (final-state divergence): {exc}"
            ), engines
        engines[name] = engine

    # ---- cross-protocol equivalence: same trace, same observable memory.
    reference = engines["baseline"]
    ref_lines = sorted(reference.golden.lines())
    for name, engine in engines.items():
        lines = sorted(engine.golden.lines())
        if lines != ref_lines:
            return (
                f"protocol {name!r} touched different lines than baseline: "
                f"{set(lines) ^ set(ref_lines)}"
            ), engines
        for line in ref_lines:
            expected = reference.golden.line_snapshot(line)
            got = engine.golden.line_snapshot(line)
            if got != expected:
                return (
                    f"golden-image divergence at line {line:#x} between "
                    f"baseline and {name!r}: {expected} vs {got}"
                ), engines
            observable = engine.final_line_value(line)
            if observable != expected:
                return (
                    f"final-memory divergence at line {line:#x} for {name!r}: "
                    f"observable {observable}, expected {expected}"
                ), engines
    return None, engines


def minimize_trace(trace: list[tuple[int, bool, int]]) -> list[tuple[int, bool, int]]:
    """Delta-debug a failing access sequence: greedily drop records while
    some family still fails.  Only ever called on a failing trace, so the
    quadratic worst case is paid exactly when there is a bug to report."""
    current = list(trace)
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + 1:]
            if candidate and _drive_trace(candidate)[0] is not None:
                current = candidate
                changed = True
            else:
                index += 1
    return current


def format_trace(trace: list[tuple[int, bool, int]]) -> str:
    """One record per line, REPL-pasteable next to ``run_differential``."""
    return "\n".join(
        f"  {index:3d}. core{core} {'write' if is_write else 'read '} {address:#x}"
        for index, (core, is_write, address) in enumerate(trace)
    )


def run_differential(seed: int) -> dict[str, object]:
    """Drive one seeded trace through all six families; return the engines.

    Raises ``AssertionError`` (seed in the message, minimized reproduction
    appended) on any ``CoherenceError`` or cross-protocol divergence.
    """
    trace = generate_trace(seed)
    error, engines = _drive_trace(trace)
    if error is not None:
        minimized = minimize_trace(trace)
        raise AssertionError(
            f"seed={seed}: {error}\n"
            f"minimized reproduction ({len(minimized)} of {len(trace)} "
            f"records):\n{format_trace(minimized)}"
        )
    return engines


def _seed_set() -> list[int]:
    """``REPRO_DIFF_SEEDS`` as a seed list, or the default four.

    A set-but-useless value is a CI configuration bug: empty/whitespace
    values and non-integer entries fail loudly here rather than silently
    parametrizing the differential test over ZERO seeds.
    """
    raw = os.environ.get("REPRO_DIFF_SEEDS")
    if raw is None:
        return [0, 1, 2, 3]
    seeds = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue  # tolerate stray commas: "7,19," means [7, 19]
        try:
            seeds.append(int(part))
        except ValueError:
            raise ValueError(
                f"REPRO_DIFF_SEEDS entry {part!r} is not an integer "
                f"(full value: {raw!r})"
            ) from None
    if not seeds:
        raise ValueError(
            f"REPRO_DIFF_SEEDS is set but names no seeds: {raw!r} "
            "(unset it for the default seed set)"
        )
    return seeds


# ======================================================================
# Trace-level differential: full Simulator runs, locks/barriers included.
# ======================================================================
#
# The engine-level harness above drives a fixed access order, so golden
# images must agree across protocols trivially.  Full simulations schedule
# cores by their (protocol-dependent!) clocks, so cross-family equivalence
# holds only for values that synchronization pins down.  Write tokens are
# derived per core (``count * stride + core``), which makes a write's
# *value* independent of how other cores interleaved; the final image of a
# word is then family-invariant whenever its last writer is - i.e. for any
# word written by a single thread per phase (barriers order phases; locked
# regions here write disjoint per-core slots, so lock-acquisition order
# does not matter).  ``build_sync_stress`` is exactly that kind of trace.


def build_sync_stress(num_cores: int = NUM_CORES, rounds: int = 3):
    """Barrier-phased, lock-protected, single-writer-per-word trace.

    Per round: each thread writes its own slice of a shared array (read by
    everyone next phase), updates its own slot of a lock-protected shared
    structure, reads a neighbour's slice (sharing misses / invalidation or
    self-invalidation churn) and re-reads its private scratch (capacity
    pressure).  Every conflicting write pair is barrier-ordered, so the
    final memory image is schedule-independent.
    """
    from repro.workloads.base import TraceBuilder

    builder = TraceBuilder("sync-stress", num_cores)
    shared = builder.address_space.alloc("shared", num_cores * LINE)
    slots = builder.address_space.alloc("slots", num_cores * LINE)
    scratch = [
        builder.address_space.alloc(f"scratch{tid}", 4 * LINE) for tid in range(num_cores)
    ]
    lock_id = 1
    for _round in range(rounds):
        for tid in range(num_cores):
            thread = builder.thread(tid)
            # Own slice of the shared array: single writer per word.
            for word in range(LINE // WORD):
                thread.work(1)
                thread.write(shared + tid * LINE + word * WORD)
            # Lock-protected update of the thread's OWN slot: acquisition
            # order varies per protocol, final values do not.
            thread.lock(lock_id)
            thread.write(slots + tid * LINE)
            thread.read(slots + ((tid + 1) % num_cores) * LINE)
            thread.unlock(lock_id)
        builder.barrier_all()
        for tid in range(num_cores):
            thread = builder.thread(tid)
            # Neighbour's slice: cross-core sharing after the barrier.
            neighbour = (tid + 1) % num_cores
            for word in range(LINE // WORD):
                thread.work(1)
                thread.read(shared + neighbour * LINE + word * WORD)
            for i in range(4):
                thread.work(2)
                thread.write(scratch[tid] + i * LINE)
                thread.read(scratch[tid] + i * LINE)
        builder.barrier_all()
    return builder.build()


def run_trace_differential(trace=None) -> dict[str, object]:
    """Full-simulator differential: verify-mode runs of all six families.

    Returns the per-family ``Simulator.last_engine``; raises
    ``AssertionError`` on any coherence violation, lost write, or
    cross-family golden/observable-memory divergence.
    """
    from repro.sim.multicore import Simulator

    if trace is None:
        trace = build_sync_stress()
    engines = {}
    for name, proto in ENGINES.items():
        sim = Simulator(tiny_arch(), proto, verify=True, warmup=False)
        try:
            sim.run(trace)
        except CoherenceError as exc:
            raise AssertionError(
                f"protocol {name!r} violated coherence on trace "
                f"{trace.name!r}: {exc}"
            ) from exc
        engines[name] = sim.last_engine

    reference = engines["baseline"]
    ref_lines = sorted(reference.golden.lines())
    for name, engine in engines.items():
        lines = sorted(engine.golden.lines())
        assert lines == ref_lines, (
            f"protocol {name!r} wrote different lines than baseline on "
            f"{trace.name!r}: {set(lines) ^ set(ref_lines)}"
        )
        for line in ref_lines:
            expected = reference.golden.line_snapshot(line)
            got = engine.golden.line_snapshot(line)
            assert got == expected, (
                f"golden-image divergence at line {line:#x} between "
                f"baseline and {name!r} on {trace.name!r}: {expected} vs {got}"
            )
            observable = engine.final_line_value(line)
            assert observable == expected, (
                f"final-memory divergence at line {line:#x} for {name!r} "
                f"on {trace.name!r}: observable {observable}, expected {expected}"
            )
    return engines


class TestTraceLevelDifferential:
    def test_six_families_agree_on_sync_stress_trace(self, implementation):
        """Locks + barriers included: full runs, identical final memory -
        under both implementations."""
        engines = run_trace_differential()
        assert set(engines) == set(ENGINES)

    def test_sync_stress_exercises_synchronization(self):
        trace = build_sync_stress()
        ops = [op for tid in range(trace.num_cores) for op in trace.ops[tid]]
        from repro.common.types import Op

        assert ops.count(int(Op.LOCK)) == NUM_CORES * 3
        assert ops.count(int(Op.BARRIER)) == NUM_CORES * 6

    def test_workload_traces_verify_across_families(self):
        """Registry workloads (locks/barriers included) under full verify.

        Per-family golden verification plus ``check_final_state`` runs
        inside ``Simulator.run``; across families the *set of written
        lines* is trace-determined and must agree exactly (word-level
        values may differ when workload kernels race by design).
        """
        from repro.common.params import ArchConfig, CacheGeometry
        from repro.sim.multicore import Simulator
        from repro.workloads.registry import load_workload

        arch = ArchConfig(
            num_cores=NUM_CORES,
            num_memory_controllers=2,
            l1d=CacheGeometry(1, 2, 1),
            l2=CacheGeometry(2, 2, 7),
        )
        trace = load_workload("tsp", arch, scale="tiny")
        written = None
        for name, proto in ENGINES.items():
            sim = Simulator(arch, proto, verify=True, warmup=False)
            try:
                sim.run(trace)
            except CoherenceError as exc:
                raise AssertionError(f"{name!r} failed verification on tsp: {exc}") from exc
            lines = frozenset(sim.last_engine.golden.lines())
            if written is None:
                written = lines
            else:
                assert lines == written, (
                    f"{name!r} wrote a different line set than baseline on tsp"
                )


@pytest.mark.parametrize("seed", _seed_set())
def test_six_protocols_agree_on_random_traces(seed):
    """No CoherenceError, no lost write, no cross-protocol divergence."""
    engines = run_differential(seed)
    assert set(engines) == set(ENGINES)


def test_every_family_exercised_nontrivially():
    """The generated traffic actually stresses each family's machinery."""
    engines = run_differential(0)
    assert engines["baseline"].inval_histogram.total > 0  # invalidations fired
    assert engines["victim"].replicas_created > 0  # replicas were made
    assert engines["dls"].miss_stats.hits == 0  # DLS never caches
    assert engines["dls"].miss_stats.misses == STEPS
    neat = engines["neat"]
    assert neat.self_invalidations > 0  # stale copies were retired
    assert neat.write_throughs > 0
    assert neat.miss_stats.hits > 0  # ...but read caching still works
    phase = engines["phase"]
    assert phase.phase_promotions > 0  # write-shared lines were promoted
    assert phase.phase_word_accesses > 0  # ...and then serviced remotely


class TestSeedSetParsing:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIFF_SEEDS", raising=False)
        assert _seed_set() == [0, 1, 2, 3]

    def test_parses_csv_with_spaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_SEEDS", " 7 , 19 ")
        assert _seed_set() == [7, 19]

    def test_stray_commas_tolerated(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_SEEDS", "7,19,")
        assert _seed_set() == [7, 19]

    @pytest.mark.parametrize("raw", ["", "   ", ",", " , "])
    def test_zero_seed_values_fail_loudly(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_DIFF_SEEDS", raw)
        with pytest.raises(ValueError, match="REPRO_DIFF_SEEDS"):
            _seed_set()

    def test_non_integer_entry_names_the_culprit(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_SEEDS", "7,nineteen")
        with pytest.raises(ValueError, match="'nineteen' is not an integer"):
            _seed_set()


class TestFailureMinimization:
    def test_failing_trace_is_minimized_and_printed(self, monkeypatch):
        import tests.properties.test_differential as mod

        # Stand-in failure predicate: the trace fails iff it contains BOTH
        # marker records; everything else is noise the minimizer must shed.
        markers = {(0, True, BASE), (1, False, BASE)}

        def fake_drive(trace):
            if markers <= set(trace):
                return "synthetic divergence", {}
            return None, {}

        monkeypatch.setattr(mod, "_drive_trace", fake_drive)
        noise = [(2, False, BASE + 64 * k) for k in range(5)]
        trace = noise[:2] + [(0, True, BASE)] + noise[2:] + [(1, False, BASE)]
        minimized = mod.minimize_trace(trace)
        assert set(minimized) == markers and len(minimized) == 2
        with pytest.raises(AssertionError) as excinfo:
            monkeypatch.setattr(mod, "generate_trace", lambda seed: list(trace))
            mod.run_differential(99)
        message = str(excinfo.value)
        assert "seed=99" in message
        assert "minimized reproduction (2 of 7 records)" in message
        assert "core0 write" in message and "core1 read" in message


def test_divergence_is_detected():
    """The harness is not vacuous: a corrupted word trips the final check."""
    engines = run_differential(1)
    engine = engines["neat"]
    line = sorted(engine.golden.lines())[0]
    home = engine._home_of_line.get(line)
    victim = None
    if home is not None:
        victim = engine.l2[home].lookup(line)
    if victim is None or victim.data is None:
        pytest.skip("line not resident at its home in this realization")
    victim.data[0] ^= 0x1
    # A MODIFIED L1 copy would shadow the corrupted home line in
    # final_line_value; Neat has none, so the corruption must surface.
    with pytest.raises(CoherenceError):
        engine.check_final_state()
