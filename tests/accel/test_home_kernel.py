"""Home-kernel contract tests (DESIGN.md section 15).

Every family's miss runs its home side - placement, the request and
reply legs, the L2 tag access and off-chip fill, the word service and the
line's settling - through the engine's one kernel: the compiled
``HomeKernel`` when the mesh kernel is compiled, else its pure-Python twin
``PyHomeKernel``; for each family, its subtype of each
(``DirectoryKernel`` / ``PyDirectoryKernel``, ``DLSKernel`` /
``PyDLSKernel``, ``NeatKernel`` / ``PyNeatKernel``).  The two
implementations work on the same Python objects, so their contract is
equal returns and equal effects on those objects:

* the kernel-contract property drives both kernels through one random
  stream of miss steps and compares every return, every ``L2Line`` slot
  (its directory entry included), every counter and the mesh kernel's
  reservations - on the plain home kernels, on the directory pair's
  inherited home steps, and on the DLS pair, whose word accesses run
  through its whole-access ``access``;
* a simulator-level run at 36 cores with addresses in [2**39, 2**48)
  requires equal ``RunStats`` for all six families - the R-NUCA hash
  passes 64 bits there, and 36 is not a power of two, so a wrapping
  product would move homes;
* the compiled kernels refuse, with a ``TypeError``, an engine whose mesh
  kernel is a Python one (a family subtype also refuses an engine of
  another family: ``test_family_kernels.py``);
* the leak soak, for every family's kernel under both implementations: a
  finished engine and its kernel are freed by reference counting, and
  ``tracemalloc`` stays flat over back-to-back runs.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import sys
import tracemalloc
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
from repro.energy.model import EnergyCounters
from repro.mem.l2 import L2Line
from repro.network.mesh import EPOCH_SHIFT
from repro.network.messages import MsgType
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.directory import DirectoryEngine, PyDirectoryKernel
from repro.protocol.dls import DLSEngine, PyDLSKernel
from repro.protocol.engine import make_engine
from repro.protocol.home import PyHomeKernel
from repro.protocol.neat import PyNeatKernel
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


#: Engine kind -> (engine class, protocol, compiled class, twin class).
_KINDS = {
    "home": (ProtocolEngineBase, baseline_protocol, accel.home_kernel_class, PyHomeKernel),
    "directory": (DirectoryEngine, baseline_protocol, accel.directory_kernel_class,
                  PyDirectoryKernel),
    "dls": (DLSEngine, dls_protocol, accel.dls_kernel_class, PyDLSKernel),
}


def _engines(cores: int, verify: bool, kind: str):
    """Twin engines with the compiled mesh kernel: one runs the compiled
    kernel, the other its twin - the plain home kernels on the base engine,
    the directory pair on a baseline directory engine, or the DLS pair."""
    arch = ArchConfig(num_cores=cores, num_memory_controllers=4, l2=SMALL_L2)
    engine_class, proto, compiled_class, twin_class = _KINDS[kind]
    compiled = engine_class(arch, proto(), verify=verify)
    assert type(compiled.home_kernel) is compiled_class()
    twin = engine_class(arch, proto(), verify=verify)
    twin.home_kernel = twin_class(twin, L2Line, AccessResult)
    return compiled, twin


def _line_state(entry) -> tuple:
    dirent = entry.directory
    return (
        entry.last_use,
        entry.last_access,
        entry.dirty,
        entry.dirty_words,
        entry.busy_until,
        entry.data,
        entry.is_replica,
        None if dirent is None else (list(dirent.sharers), dirent.owner, dirent.overflowed),
    )


def _counters(engine) -> tuple:
    kernel = engine.network.kernel
    return (
        [getattr(engine.energy, name) for name in EnergyCounters.__slots__],
        [(s.hits, s.misses, s.word_reads, s.word_writes, s.store._use_counter)
         for s in engine.l2],
        (kernel.messages_sent, kernel.flits_sent, kernel.link_flit_traversals,
         kernel.recycles),
        (engine.miss_stats.hits, list(engine.miss_stats._miss_counts)),
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
        "pages": dict(table._pages),
        "homes": dict(engine._home_of_line),
        "history": [list(h.items()) for h in engine._history],
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
        if kind == "word" and isinstance(engine, DLSEngine):
            # A whole DLS access: the word's home, the round trip, the
            # word service and settle.
            address = (line << addrmod.LINE_BITS) | (word << addrmod.WORD_BITS)
            result = hk.access(core, is_write, address, now)
            return ("dls", *(getattr(result, name) for name in AccessResult.__slots__))
        if kind == "word":
            # The same steps on a plain or directory kernel.
            home, flush = hk.data_word_home(line, word, core)
            slice_, l2line, t, reply_t = hk.round_trip(
                core, line, home, flush, req_msg, reply_msg, now, result
            )
            hk.serve_word(core, is_write, line, word, l2line, slice_)
            hk.settle(slice_, l2line, t, owned)
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
            else:  # "general"
                slice_, l2line, t = hk.deliver_request(
                    core, line, home, flush, req_msg, now, result
                )
                reply_t = hk.reply(home, core, reply_msg, t)
            hk.settle(slice_, l2line, t, owned)
            out += (l2.index(slice_), t, reply_t)
        return (kind, *out, _line_state(l2line), result.l2_waiting, result.l2_offchip)
    except Exception as exc:  # both kernels must fail alike
        return ("raised", type(exc).__name__, str(exc))


_kinds = st.sampled_from(["line", "line", "word", "word", "general", "place_word",
                          "reset"])


@st.composite
def streams(draw):
    cores = draw(st.sampled_from([16, 36]))
    verify = draw(st.booleans())
    kind = draw(st.sampled_from(sorted(_KINDS)))
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
    return cores, verify, kind, pages, ops


class TestKernelContract:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=streams())
    def test_python_twin_matches_compiled(self, stream):
        cores, verify, kind, pages, ops = stream
        compiled, twin = _engines(cores, verify, kind)
        for op in ops:
            got = _step(compiled, op, pages)
            want = _step(twin, op, pages)
            assert got == want, op
            assert _counters(compiled) == _counters(twin), op
        assert _state(compiled) == _state(twin)

    def test_energy_counters_follow_reset_stats(self):
        """``reset_stats`` replaces ``engine.energy``: the kernel must count
        into the new object, never the retired one."""
        compiled, _twin = _engines(16, False, "home")
        hk = compiled.home_kernel
        old = compiled.energy
        compiled.reset_stats()
        home, flush = hk.data_home(1 << 30, 3)
        hk.round_trip(3, 1 << 30, home, flush, 0, 4, 10.0, AccessResult())
        assert old.l2_tag_accesses == 0
        assert compiled.energy.l2_tag_accesses == 1
        assert compiled.energy.l2_line_writes == 1


@pytest.mark.parametrize("fallback", [False, True], ids=["compiled", "fallback"])
@pytest.mark.parametrize("family", ["dls", "baseline"])
def test_fill_installs_an_entry_exactly_in_the_directory_subtype(family, fallback, monkeypatch):
    """The kernel's type decides what an off-chip fill attaches to the new
    line: a fresh ``DirectoryEntry`` in the directory subtype, nothing at
    a directoryless home."""
    compiled = accel.directory_kernel_class()
    if fallback:
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
    arch = ArchConfig(num_cores=16, num_memory_controllers=4)
    proto = dls_protocol() if family == "dls" else baseline_protocol()
    engine = make_engine(arch, proto)
    hk = engine.home_kernel
    home, flush = hk.data_home(1 << 30, 3)
    _slice, l2line, _t = hk.deliver_request(3, 1 << 30, home, flush, 0, 0.0, AccessResult())
    if family == "dls":
        assert l2line.directory is None
    else:
        assert isinstance(hk, PyDirectoryKernel if fallback else compiled)
        assert (set(l2line.directory.sharers), l2line.directory.owner) == (set(), -1)


# ---------------------------------------------------------------------------
# Typed refusals of the compiled kernels.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("link_model", ["naive", "none"])
@pytest.mark.parametrize("kernel", ["home", "directory", "dls", "neat"])
def test_compiled_kernels_refuse_a_python_mesh_kernel(kernel, link_model):
    """The legs are reserved by direct C calls into the compiled mesh
    kernel, so a link-model ablation's engine (whose own kernel is the
    twin) is refused by name."""
    arch = ArchConfig(num_cores=16, num_memory_controllers=4, link_model=link_model)
    proto, cls, twin = {
        "home": (baseline_protocol, accel.home_kernel_class, PyDirectoryKernel),
        "directory": (baseline_protocol, accel.directory_kernel_class, PyDirectoryKernel),
        "dls": (dls_protocol, accel.dls_kernel_class, PyDLSKernel),
        "neat": (neat_protocol, accel.neat_kernel_class, PyNeatKernel),
    }[kernel]
    engine = make_engine(arch, proto())
    assert type(engine.home_kernel) is twin
    with pytest.raises(TypeError, match="MeshKernel"):
        cls()(engine, L2Line, AccessResult)


# ---------------------------------------------------------------------------
# Leak soak: engines and kernels die by reference counting, and repeated
# runs hold memory flat, for every family's kernel.
# ---------------------------------------------------------------------------

SOAK_FAMILIES = {
    "adaptive": ProtocolConfig(pct=2),
    "baseline": ProtocolConfig(protocol="baseline"),
    "victim": ProtocolConfig(protocol="victim"),
    "phase": ProtocolConfig(protocol="phase"),
    "dls": dls_protocol(),
    "neat-eager": neat_protocol(),
    "neat-release": neat_protocol("release"),
}
#: Each soak family's kernel: (compiled class accessor, twin class).
SOAK_KERNELS = {
    **dict.fromkeys(("adaptive", "baseline", "victim", "phase"),
                    (accel.directory_kernel_class, PyDirectoryKernel)),
    "dls": (accel.dls_kernel_class, PyDLSKernel),
    **dict.fromkeys(("neat-eager", "neat-release"), (accel.neat_kernel_class, PyNeatKernel)),
}
#: tracemalloc's current size may grow by at most this much from the end
#: of the fifth run to the end of the twentieth.  Each reading follows a
#: full collection, which also empties CPython's free lists: tracemalloc
#: counts a tuple, float, list or dict parked on a free list as allocated,
#: so without it a reading depends on the order in which the last run's
#: objects were freed, and one run can read 12 KB above its neighbours.
#: Measured: the growth is 640 bytes (the test's own list of readings)
#: to about 1.2 KB for every family under both implementations, while
#: one leaked AccessResult per miss adds about 40 KB over those fifteen
#: runs.
LEAK_BOUND = 8 * 1024
#: 1 KB 2-way L1s: eight sets, so the soak's L1s evict too.
SMALL_L1 = CacheGeometry(1, 2, 1)


def _soak_trace():
    arch = ArchConfig(num_cores=16, num_memory_controllers=4, l1d=SMALL_L1, l2=SMALL_L2)
    builder = TraceBuilder("soak", arch.num_cores)
    for tid in range(arch.num_cores):
        thread = builder.thread(tid)
        for i in range(8):
            address = ((tid * 7 + i * 3) % 40) * 0x400 + (i % 4) * 64
            (thread.write if (tid + i) % 3 == 0 else thread.read)(address)
    builder.barrier_all()
    return arch, builder.build()


@pytest.mark.parametrize("fallback", [False, True], ids=["compiled", "fallback"])
@pytest.mark.parametrize("family", sorted(SOAK_FAMILIES))
def test_engine_and_kernel_freed_by_reference_counting(family, fallback, monkeypatch):
    """The engine owns its kernel and the kernel refers back weakly, so a
    finished engine is freed at once, not left to the cyclic collector (a
    miss-heavy pass would otherwise hold several engines' caches at a
    time).  A kernel that outlives its engine refuses work."""
    compiled_class, twin_class = SOAK_KERNELS[family]
    compiled = compiled_class()
    if fallback:
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
    arch, trace = _soak_trace()
    sim = Simulator(arch, SOAK_FAMILIES[family], warmup=True, verify=True)
    sim.run(trace)
    engine = sim.last_engine
    kernel = engine.home_kernel
    assert type(kernel) is (twin_class if fallback else compiled)
    # A request the mesh would still accept: the run left its horizon
    # raised, and a request below it is refused before the engine is read.
    start = float(engine.network.kernel.horizon << EPOCH_SHIFT)
    ref = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        sim.last_engine = None
        assert ref() is None
        # Only this frame's name (and getrefcount's argument) still hold
        # the kernel: dropping it frees it too.
        assert sys.getrefcount(kernel) == 2
    finally:
        if enabled:
            gc.enable()
    with pytest.raises(ReferenceError):
        kernel.deliver_request(0, 1 << 30, 3, None, 0, start, AccessResult())


@pytest.mark.parametrize("fallback", [False, True], ids=["compiled", "fallback"])
@pytest.mark.parametrize("family", sorted(SOAK_FAMILIES))
def test_repeated_runs_hold_memory_flat(family, fallback, monkeypatch):
    compiled_class, twin_class = SOAK_KERNELS[family]
    compiled = compiled_class()
    if fallback:
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
    arch, trace = _soak_trace()
    sim = Simulator(arch, dataclasses.replace(SOAK_FAMILIES[family]), warmup=False)
    sim.run(trace)  # imports, interned names and caches settle first
    assert type(sim.last_engine.home_kernel) is (twin_class if fallback else compiled)
    tracemalloc.start()
    try:
        sizes = []
        for _ in range(20):
            sim.run(trace)
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[-1] - sizes[4] <= LEAK_BOUND, sizes


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
    compiled_class, twin_class = SOAK_KERNELS["neat-eager" if family == "neat" else family]
    compiled = compiled_class()
    runs = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
        sim = Simulator(HIGH_ARCH, FAMILIES[family](), warmup=True, verify=True)
        stats = sim.run(trace)
        assert type(sim.last_engine.home_kernel) is (twin_class if fallback else compiled)
        runs.append(stats.to_dict())
    assert runs[0] == runs[1]
