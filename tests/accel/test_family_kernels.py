"""DLS- and Neat-kernel contract tests (DESIGN.md section 15).

Every access of a DLS or Neat engine, and every release flush of a Neat
engine in release mode, runs in the engine's one kernel, its family's
subtype of the home kernel: the compiled ``DLSKernel`` / ``NeatKernel``
when the mesh kernel is compiled, else the pure-Python twin
``PyDLSKernel`` / ``PyNeatKernel``.  The two work on the same Python
objects, so their contract is equal returns and equal effects on those
objects:

* the kernel-contract property drives both kernels, on two identical
  16-core engines, through one random stream - reads and writes on a few
  pages (private -> shared page flushes included), release flushes,
  ``reset_stats`` mid-stream, a 2-way L1 and a small L2 that both evict
  (dirty write-backs to the controllers included), verify mode on and
  off - for DLS, Neat eager and Neat release.  After every step it
  compares the ``AccessResult``, the L1 sets and L2 lines in order with
  their slots, the line versions, copy versions and buffered words, the
  histories, histograms, miss stats, every counter (the memory
  controllers' included) and the mesh reservations;
* a simulator-level matrix requires equal ``RunStats`` under both
  implementations for the three configurations;
* the compiled kernels refuse, with a ``TypeError``, an engine of another
  family.

The leak soak and the refusal of a Python mesh kernel, which cover every
family's kernel, are in ``test_home_kernel.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import build
from repro.common import addr as addrmod
from repro.common.params import (
    ArchConfig,
    CacheGeometry,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    victim_replication_protocol,
)
from repro.energy.model import EnergyCounters
from repro.mem.l2 import L2Line
from repro.protocol.base import AccessResult
from repro.protocol.dls import PyDLSKernel
from repro.protocol.engine import make_engine
from repro.protocol.neat import PyNeatKernel
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

pytestmark = pytest.mark.skipif(
    build.find_compiler() is None, reason="no C compiler on this host"
)

#: 1 KB 2-way caches: eight sets, so a handful of lines fills a set, and
#: both the L1 and the L2 evict.
SMALL = CacheGeometry(1, 2, 1)
SMALL_L2 = CacheGeometry(1, 2, 7)
LINES_PER_PAGE = addrmod.DEFAULT_PAGE_SIZE // addrmod.LINE_SIZE

#: (id, protocol, compiled class accessor, twin class).
CONFIGS = [
    ("dls", dls_protocol, accel.dls_kernel_class, PyDLSKernel),
    ("neat-eager", neat_protocol, accel.neat_kernel_class, PyNeatKernel),
    ("neat-release", lambda: neat_protocol("release"), accel.neat_kernel_class, PyNeatKernel),
]


@pytest.fixture(autouse=True)
def compiled_kernels(monkeypatch):
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    if accel.dls_kernel_class() is None:
        pytest.skip("compiled kernels unavailable")
    yield
    accel.reset()


def _engines(config, verify: bool):
    """Twin engines on the compiled mesh kernel: one runs the compiled
    family kernel, the other its pure-Python twin."""
    _id, proto, compiled_class, twin_class = config
    arch = ArchConfig(num_cores=16, num_memory_controllers=4, l1d=SMALL, l2=SMALL_L2)
    compiled = make_engine(arch, proto(), verify=verify)
    assert type(compiled.home_kernel) is compiled_class()
    assert isinstance(compiled.home_kernel, accel.home_kernel_class())
    twin = make_engine(arch, proto(), verify=verify)
    twin.home_kernel = twin_class(twin, L2Line, AccessResult)
    return compiled, twin


# ---------------------------------------------------------------------------
# Snapshots: everything a family kernel may touch, by value and in order.
# ---------------------------------------------------------------------------

def _result(result) -> tuple:
    return tuple(getattr(result, name) for name in AccessResult.__slots__)


def _l1(entry) -> tuple:
    return (entry.state, entry.last_use, entry.last_access, entry.utilization, entry.data)


def _l2(entry) -> tuple:
    return tuple(getattr(entry, name) for name in L2Line.__slots__)


def _counters(engine) -> dict:
    kernel = engine.network.kernel
    stats = type("Stats", (), {})()
    engine.export_stats(stats)
    return {
        "energy": [getattr(engine.energy, name) for name in EnergyCounters.__slots__],
        "miss": (engine.miss_stats.hits, list(engine.miss_stats._miss_counts)),
        "histograms": (list(engine.inval_histogram.counts.items()),
                       list(engine.evict_histogram.counts.items())),
        "l1": [(l1.hits, l1.misses, l1.store._use_counter) for l1 in engine.l1d],
        "l2": [(s.hits, s.misses, s.word_reads, s.word_writes, s.line_reads, s.line_writes,
                s.store._use_counter) for s in engine.l2],
        "controllers": [
            (c.requests, c.bytes_transferred, c.total_queue_delay, c._next_free)
            for c in engine.memsys.controllers.values()
        ],
        "mesh": (kernel.messages_sent, kernel.flits_sent, kernel.link_flit_traversals,
                 kernel.recycles),
        "family": sorted(vars(stats).items()),
    }


def _state(engine) -> dict:
    kernel = engine.network.kernel
    return {
        "counters": _counters(engine),
        "l1": [[[(line, _l1(e)) for line, e in bucket.items()] for bucket in l1.store._sets]
               for l1 in engine.l1d],
        "l2": [[[(line, _l2(e)) for line, e in bucket.items()] for bucket in s.store._sets]
               for s in engine.l2],
        "versions": list(getattr(engine, "_line_version", {}).items()),
        "copies": [list(d.items()) for d in getattr(engine, "_copy_version", [])],
        "pending": [list(d.items()) for d in getattr(engine, "_pending", [])],
        "history": [list(h.items()) for h in engine._history],
        "homes": list(engine._home_of_line.items()),
        "pages": list(engine.placement.page_table._pages.items()),
        "dram": list(engine._dram_image.items()),
        "golden": dict(engine.golden._lines) if engine.golden is not None else None,
        "tokens": (list(engine._write_counts), engine._write_token),
        "routes": list(engine.network.paths),
        "slots": list(kernel.slots),
        "overflow": sorted(kernel.overflow_items()),
    }


def _step(engine, op) -> tuple:
    kind = op[0]
    try:
        if kind == "reset":
            engine.reset_stats()
            return ("reset",)
        if kind == "release":
            hook = engine.sync_boundary_hook()
            if hook is not None:
                hook(op[1], op[2])
            return ("release",)
        _, core, is_write, address, now = op
        return ("access", _result(engine.access(core, is_write, address, now)))
    except Exception as exc:  # both kernels must fail alike
        return ("raised", type(exc).__name__, str(exc))


#: Line offsets inside a page: 0/8/16/24 share a set of the eight-set
#: caches, so a few of them evict; 1 and 9 share another.
_OFFSETS = [0, 8, 16, 24, 1, 9]


@st.composite
def streams(draw):
    verify = draw(st.booleans())
    pages = draw(st.lists(st.integers(1, 1 << 20), min_size=1, max_size=3, unique=True))
    # A few busy cores share lines (stale copies, buffered words, page
    # flushes); the rest of the chip shows up now and then.
    busy = draw(st.lists(st.integers(0, 15), min_size=2, max_size=5, unique=True))
    ops = []
    now = 0.5
    for _ in range(draw(st.integers(1, 48))):
        now = max(0.0, now + draw(st.sampled_from([0.0, 1.5, 9.0, 60.0, 400.0, -200.0])))
        roll = draw(st.integers(0, 29))
        if roll == 0:
            ops.append(("reset",))
            continue
        if roll <= 3:
            ops.append(("release", draw(st.sampled_from(busy)), now))
            continue
        core = draw(st.sampled_from(busy)) if roll > 6 else draw(st.integers(0, 15))
        page = draw(st.sampled_from(pages))
        line = page * LINES_PER_PAGE + draw(st.sampled_from(_OFFSETS))
        word = draw(st.integers(0, addrmod.WORDS_PER_LINE - 1))
        address = (line << addrmod.LINE_BITS) | (word << addrmod.WORD_BITS)
        ops.append(("access", core, draw(st.booleans()), address, now))
    return verify, ops


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams())
def test_python_twin_matches_compiled(config, stream):
    verify, ops = stream
    compiled, twin = _engines(config, verify)
    for op in ops:
        got = _step(compiled, op)
        want = _step(twin, op)
        assert got == want, op
        assert _state(compiled) == _state(twin), op


def test_counters_follow_reset_stats():
    """``reset_stats`` replaces the energy and miss objects: the kernel
    must count into the new ones, never the retired ones."""
    for config in CONFIGS:
        compiled, _twin = _engines(config, False)
        old = compiled.energy, compiled.miss_stats
        compiled.reset_stats()
        compiled.access(3, False, 1 << 30, 10.0)
        assert old[0].l1d_tag_accesses == 0 and old[1].misses == 0
        assert compiled.energy.l1d_tag_accesses == 1 and compiled.miss_stats.misses == 1


# ---------------------------------------------------------------------------
# Typed refusals: a family kernel serves only its own family's engine.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kernel, family",
    [("dls", "neat"), ("dls", "baseline"), ("neat", "dls"), ("neat", "baseline"),
     ("directory", "dls"), ("directory", "neat"), ("victim", "baseline"), ("victim", "phase"),
     ("phase", "baseline"), ("phase", "victim")],
)
def test_family_kernel_refuses_an_engine_of_another_family(kernel, family):
    protos = {"dls": dls_protocol, "neat": neat_protocol, "baseline": baseline_protocol,
              "victim": victim_replication_protocol, "phase": phase_protocol}
    classes = {"dls": (accel.dls_kernel_class, "DLSEngine"),
               "neat": (accel.neat_kernel_class, "NeatEngine"),
               "directory": (accel.directory_kernel_class, "DirectoryEngine"),
               "victim": (accel.victim_kernel_class, "VictimReplicationEngine"),
               "phase": (accel.phase_kernel_class, "PhaseEngine")}
    engine = make_engine(ArchConfig(num_cores=16, num_memory_controllers=4), protos[family]())
    cls, wants = classes[kernel]
    with pytest.raises(TypeError, match=f"serves a {wants}, not a {type(engine).__name__}"):
        cls()(engine, L2Line, AccessResult)


# ---------------------------------------------------------------------------
# Simulator level: equal RunStats under both implementations.
# ---------------------------------------------------------------------------

_TRACES: dict = {}


def _trace(name: str, arch: ArchConfig):
    if name not in _TRACES:
        _TRACES[name] = load_workload(name, arch, scale="tiny")
    return _TRACES[name]


@pytest.mark.parametrize("workload", ["radix", "tsp"])
@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_runstats_identical_under_both_implementations(config, workload, monkeypatch):
    _id, proto, compiled_class, twin_class = config
    arch = ArchConfig(num_cores=16, num_memory_controllers=4)
    trace = _trace(workload, arch)
    want = compiled_class()
    runs = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
        sim = Simulator(arch, proto(), warmup=True)
        runs.append(sim.run(trace).to_dict())
        assert type(sim.last_engine.home_kernel) is (twin_class if fallback else want)
    assert runs[0] == runs[1]
