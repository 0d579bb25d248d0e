"""Home-kernel contract tests (DESIGN.md section 15).

Every family's miss runs its home side - placement, the request and
reply legs, the L2 tag access and off-chip fill, the word service and the
line's settling - through the engine's home kernel: the compiled
``HomeKernel`` when the mesh kernel is compiled, else its pure-Python twin
``PyHomeKernel``.  The two work on the same Python objects, so their
contract is equal returns and equal effects on those objects:

* the kernel-contract property drives both kernels through one random
  stream of miss steps and compares every return, every ``L2Line`` slot,
  every counter and the mesh kernel's reservations;
* a simulator-level run at 36 cores with addresses in [2**39, 2**48)
  requires equal ``RunStats`` for all six families - the R-NUCA hash
  passes 64 bits there, and 36 is not a power of two, so a wrapping
  product would move homes;
* the kernel counts into the engine's current energy counters and holds
  its engine weakly, so finished engines are freed without the cyclic
  collector.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import build
from repro.common import addr as addrmod
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
from repro.mem.l2 import L2Line
from repro.network.messages import MsgType
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.engine import make_engine
from repro.protocol.home import PyHomeKernel
from repro.sim.multicore import Simulator
from repro.workloads.base import TraceBuilder

pytestmark = pytest.mark.skipif(
    build.find_compiler() is None, reason="no C compiler on this host"
)

LINES_PER_PAGE = addrmod.DEFAULT_PAGE_SIZE // addrmod.LINE_SIZE
#: A 1 KB 2-way L2 slice: eight sets, so a handful of lines fills a set
#: and every fill of a full set picks an LRU victim.
SMALL_L2 = CacheGeometry(1, 2, 7)

_MESSAGES = [
    (int(MsgType.READ_REQ), int(MsgType.WORD_REPLY)),
    (int(MsgType.WRITE_REQ), int(MsgType.WORD_WRITE_ACK)),
    (int(MsgType.READ_REQ), int(MsgType.LINE_REPLY)),
    (int(MsgType.WB_DATA), int(MsgType.WORD_WRITE_ACK)),
]


@pytest.fixture(autouse=True)
def compiled_kernels(monkeypatch):
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    if accel.home_kernel_class() is None:
        pytest.skip("compiled kernels unavailable")
    yield
    accel.reset()


def _engines(cores: int, verify: bool):
    """Twin engines with the compiled mesh kernel: one runs the compiled
    home kernel, the other ``PyHomeKernel``."""
    arch = ArchConfig(num_cores=cores, num_memory_controllers=4, l2=SMALL_L2)
    compiled = ProtocolEngineBase(arch, baseline_protocol(), verify=verify)
    assert type(compiled.home_kernel).__name__ == "HomeKernel"
    twin = ProtocolEngineBase(arch, baseline_protocol(), verify=verify)
    twin.home_kernel = PyHomeKernel(twin, L2Line, AccessResult)
    return compiled, twin


def _line_state(entry) -> tuple:
    return (
        entry.last_use,
        entry.last_access,
        entry.dirty,
        entry.dirty_words,
        entry.busy_until,
        entry.data,
        entry.is_replica,
    )


def _counters(engine) -> tuple:
    kernel = engine.network.kernel
    return (
        engine.energy.as_dict(),
        [(s.hits, s.misses, s.word_reads, s.word_writes, s.store._use_counter)
         for s in engine.l2],
        (kernel.messages_sent, kernel.flits_sent, kernel.link_flit_traversals,
         kernel.recycles),
    )


def _state(engine) -> dict:
    """Everything a home kernel may touch, by value."""
    kernel = engine.network.kernel
    table = engine.placement.page_table
    return {
        "counters": _counters(engine),
        "sets": [
            [[(line, _line_state(entry)) for line, entry in bucket.items()]
             for bucket in s.store._sets]
            for s in engine.l2
        ],
        "pages": (dict(table._pages), table.private_pages, table.shared_pages,
                  table.transitions),
        "homes": dict(engine._home_of_line),
        "dram": dict(engine._dram_image),
        "golden": dict(engine.golden._lines) if engine.golden is not None else None,
        "tokens": list(engine._write_counts),
        "controllers": [
            (c.requests, c.bytes_transferred, c.total_queue_delay, c._next_free)
            for c in engine.memsys.controllers.values()
        ],
        "routes": list(engine.network.paths),
        "slots": list(kernel.slots),
        "overflow": sorted(kernel.overflow_items()),
    }


def _step(engine, op, pages) -> tuple:
    """Run one miss-shaped step sequence; its returns, by value."""
    kind, core, page, offset, word, msgs, is_write, owned, now = op
    hk = engine.home_kernel
    line = pages[page] * LINES_PER_PAGE + offset
    req_msg, reply_msg = _MESSAGES[msgs]
    result = AccessResult()
    l2 = engine.l2
    try:
        if kind == "reset":
            engine.reset_stats()
            return ("reset",)
        if kind == "word":
            slice_, l2line, t, reply_t = hk.word_round_trip(
                core, line, word, req_msg, reply_msg, now, result
            )
            hk.serve_word_settle(core, is_write, line, word, l2line, slice_, t, owned)
            out = (l2.index(slice_), t, reply_t)
        elif kind == "place_word":
            return ("place_word", hk.data_word_home(line, word, core))
        else:
            home, flush = hk.data_home(line, core)
            out = (home, flush)
            if kind == "line":
                slice_, l2line, t, reply_t = hk.round_trip(
                    core, line, home, flush, req_msg, reply_msg, now, result
                )
                hk.serve_word(core, is_write, line, word, l2line, slice_)
            elif kind == "general":
                slice_, l2line, t = hk.deliver_request(
                    core, line, home, flush, req_msg, now, result
                )
                reply_t = hk.reply(home, core, reply_msg, t)
            else:  # "chain": only on a resident line, as the engines do
                store = l2[home].store
                l2line = store._sets[line & store._set_mask].get(line)
                if flush is not None or l2line is None:
                    return ("chain-skipped", out)
                slice_ = l2[home]
                t, reply_t = hk.chain_request_reply(
                    core, home, l2line, slice_, req_msg, reply_msg, now, result
                )
            hk.settle(slice_, l2line, t, owned)
            out += (l2.index(slice_), t, reply_t)
        return (kind, *out, _line_state(l2line), result.l2_waiting, result.l2_offchip)
    except Exception as exc:  # both kernels must fail alike
        return ("raised", type(exc).__name__, str(exc))


_kinds = st.sampled_from(["line", "line", "word", "word", "general", "chain",
                          "place_word", "reset"])


@st.composite
def streams(draw):
    cores = draw(st.sampled_from([16, 36]))
    verify = draw(st.booleans())
    #: A few pages anywhere in the 48-bit space: repeated touches by
    #: several cores make private -> shared transitions (page flushes).
    pages = draw(st.lists(st.integers(0, addrmod.MAX_ADDRESS >> 12),
                          min_size=1, max_size=4, unique=True))
    ops = []
    now = draw(st.integers(0, 4000)) + 0.5
    for _ in range(draw(st.integers(1, 40))):
        # Mostly forward in time, sometimes back: busy lines and the mesh
        # reservations of the past both come into play.
        now = max(0.0, now + draw(st.sampled_from([0.0, 1.5, 7.0, 40.0, 300.0, -250.0])))
        ops.append((
            draw(_kinds),
            draw(st.integers(0, cores - 1)),
            draw(st.integers(0, len(pages) - 1)),
            # Offsets 0/8/16/24 share a set of the eight-set slice.
            draw(st.sampled_from([0, 8, 16, 24, 1, 9, 63])),
            draw(st.integers(0, addrmod.WORDS_PER_LINE - 1)),
            draw(st.integers(0, len(_MESSAGES) - 1)),
            draw(st.booleans()),
            draw(st.booleans()),
            now,
        ))
    return cores, verify, pages, ops


class TestKernelContract:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=streams())
    def test_python_twin_matches_compiled(self, stream):
        cores, verify, pages, ops = stream
        compiled, twin = _engines(cores, verify)
        for op in ops:
            got = _step(compiled, op, pages)
            want = _step(twin, op, pages)
            assert got == want, op
            assert _counters(compiled) == _counters(twin), op
        assert _state(compiled) == _state(twin)

    def test_energy_counters_follow_reset_stats(self):
        """``reset_stats`` replaces ``engine.energy``: the kernel must count
        into the new object, never the retired one."""
        compiled, _twin = _engines(16, False)
        hk = compiled.home_kernel
        old = compiled.energy
        compiled.reset_stats()
        home, flush = hk.data_home(1 << 30, 3)
        hk.round_trip(3, 1 << 30, home, flush, 0, 4, 10.0, AccessResult())
        assert old.l2_tag_accesses == 0
        assert compiled.energy.l2_tag_accesses == 1
        assert compiled.energy.l2_line_writes == 1


@pytest.mark.parametrize("fallback", [False, True])
def test_engine_is_freed_by_reference_counting(fallback, monkeypatch):
    """The engine owns its home kernel and the kernel refers back weakly,
    so a finished engine is freed at once, not left to the cyclic
    collector (a miss-heavy pass would otherwise hold several engines'
    caches at a time).  A kernel that outlives its engine refuses work."""
    if fallback:
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
    arch = ArchConfig(num_cores=16, num_memory_controllers=4)
    engine = make_engine(arch, dls_protocol())
    kernel = engine.home_kernel
    assert type(kernel).__name__ == ("PyHomeKernel" if fallback else "HomeKernel")
    ref = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    with pytest.raises(ReferenceError):
        kernel.deliver_request(0, 1 << 30, 3, None, 0, 0.0, AccessResult())


# ---------------------------------------------------------------------------
# Simulator level: 36 cores, addresses in [2**39, 2**48).
# ---------------------------------------------------------------------------

HIGH_ARCH = ArchConfig(num_cores=36, num_memory_controllers=4)
FAMILIES = {
    "adaptive": lambda: ProtocolConfig(pct=4),
    "baseline": baseline_protocol,
    "victim": victim_replication_protocol,
    "dls": dls_protocol,
    "neat": neat_protocol,
    "phase": phase_protocol,
}


def _high_address_trace():
    rng = random.Random(2039)
    pages = [rng.randrange(1 << 27, 1 << 36) for _ in range(6)]
    builder = TraceBuilder("high", HIGH_ARCH.num_cores)
    for tid in range(HIGH_ARCH.num_cores):
        thread = builder.thread(tid)
        for _ in range(24):
            address = (rng.choice(pages) << 12) + rng.randrange(0, 4096, 8)
            assert 1 << 39 <= address <= addrmod.MAX_ADDRESS
            (thread.write if rng.random() < 0.3 else thread.read)(address)
    builder.barrier_all()
    return builder.build()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_high_addresses_identical_at_36_cores(family, monkeypatch):
    trace = _high_address_trace()
    runs = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
        sim = Simulator(HIGH_ARCH, FAMILIES[family](), warmup=True, verify=True)
        stats = sim.run(trace)
        kernel = type(sim.last_engine.home_kernel).__name__
        assert kernel == ("PyHomeKernel" if fallback else "HomeKernel")
        runs.append(stats.to_dict())
    assert runs[0] == runs[1]
