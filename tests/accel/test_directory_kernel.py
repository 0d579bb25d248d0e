"""Directory-kernel contract tests (DESIGN.md section 15).

Every miss of a directory-family engine (baseline, adaptive, victim,
phase) runs in the engine's one kernel, the directory subtype of the home
kernel: the compiled ``DirectoryKernel`` (victim's ``VictimKernel``,
phase's ``PhaseKernel``) when the mesh kernel is compiled, else its
pure-Python twin ``PyDirectoryKernel`` (``PyVictimKernel``,
``PyPhaseKernel``).  The two work on the same Python objects, so their
contract is equal returns and equal effects on those objects:

* the kernel-contract property drives both kernels, on two identical
  engines, through one random access stream - reads, writes and S -> M
  upgrades, remote-mode service, Limited_k slot churn and the vote,
  ACKwise overflow with broadcast, a 2-way L1 and a small L2 that both
  evict, synchronous write-backs, ``reset_stats`` mid-stream, verify mode
  on and off - and compares, after every step, the ``AccessResult``, the
  L1 sets and L2 lines in order with their slots, sharer sets in
  iteration order, locality dicts, histories, histograms, miss stats,
  every counter and the mesh reservations;
* fixed streams take the same comparison through every step the victim
  and phase subtypes take over - a replica made from an S, an E and an M
  victim, a replica hit, the LRU replica dropped, an idle clean and an
  idle dirty home line displaced, a replication failure, a local home, a
  replica invalidated, the requester's own replica dying on a grant, a
  replica as the L2 fill victim, phase's read and write promotion, one-
  and two-epoch decay and the fold-back on an upgrade while write-shared -
  and through a private -> shared page flush; each asserts that its
  counter moved;
* a simulator-level matrix requires equal ``RunStats`` under both
  implementations for every classifier and sharer-tracking configuration.

The leak soak, which covers every family's kernel, is in
``test_home_kernel.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import build
from repro.common import addr as addrmod
from repro.common.params import ArchConfig, CacheGeometry, ProtocolConfig
from repro.energy.model import EnergyCounters
from repro.mem.l2 import L2Line
from repro.protocol.base import AccessResult
from repro.protocol.directory import PyDirectoryKernel
from repro.protocol.engine import make_engine
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

#: (id, family, ProtocolConfig overrides, ACKwise pointers or None for
#: full map).  Every classifier and sharer-tracking option a directory
#: family accepts appears at least once.
CONFIGS = [
    ("limited1-rat2-ack1", "adaptive", {"limited_k": 1}, 1),
    ("limited3-rat4-ack4", "adaptive", {"n_rat_levels": 4}, 4),
    ("complete-rat1-fullmap", "adaptive", {"classifier": "complete", "n_rat_levels": 1}, None),
    ("complete-vote-timestamp-ack1", "adaptive",
     {"classifier": "complete", "complete_vote_init": True, "remote_policy": "timestamp"}, 1),
    ("limited3-timestamp-fullmap", "adaptive", {"remote_policy": "timestamp"}, None),
    ("limited1-oneway-ack4", "adaptive", {"limited_k": 1, "one_way": True}, 4),
    ("complete-oneway-rat4-ack1", "adaptive",
     {"classifier": "complete", "one_way": True, "n_rat_levels": 4}, 1),
    ("baseline-ack1", "baseline", {}, 1),
    ("baseline-fullmap", "baseline", {}, None),
    ("victim-ack1", "victim", {}, 1),
    ("victim-fullmap", "victim", {}, None),
    ("phase-ack1", "phase", {}, 1),
    ("phase-fullmap", "phase", {}, None),
]


def _proto(family: str, overrides: dict, pointers, pct: int) -> ProtocolConfig:
    kwargs = dict(overrides)
    if family == "adaptive":
        kwargs.update(pct=pct, rat_max=pct + 6)
    return ProtocolConfig(
        protocol=family, directory="ackwise" if pointers else "fullmap", **kwargs
    )


def _arch(pointers, cores: int = 16, **kwargs) -> ArchConfig:
    return ArchConfig(
        num_cores=cores, num_memory_controllers=4, ackwise_pointers=pointers or 4, **kwargs
    )


@pytest.fixture(autouse=True)
def compiled_kernels(monkeypatch):
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    if accel.directory_kernel_class() is None:
        pytest.skip("compiled kernels unavailable")
    yield
    accel.reset()


def _engines(proto: ProtocolConfig, pointers, verify: bool):
    """Twin engines on the compiled mesh kernel: one runs the family's
    compiled directory kernel, the other its pure-Python twin.  Either is
    the engine's one kernel, a directory and a home kernel."""
    arch = _arch(pointers, l1d=SMALL, l2=SMALL_L2)
    compiled = make_engine(arch, proto, verify=verify)
    compiled_class, twin_class = type(compiled)._kernel_classes
    assert type(compiled.home_kernel) is compiled_class()
    assert isinstance(compiled.home_kernel, accel.directory_kernel_class())
    assert isinstance(compiled.home_kernel, accel.home_kernel_class())
    assert issubclass(twin_class, PyDirectoryKernel)
    twin = make_engine(arch, proto, verify=verify)
    twin.home_kernel = twin_class(twin, L2Line, AccessResult)
    return compiled, twin


# ---------------------------------------------------------------------------
# Snapshots: everything a directory kernel may touch, by value and in order.
# ---------------------------------------------------------------------------

def _result(result) -> tuple:
    return tuple(getattr(result, name) for name in AccessResult.__slots__)


def _l1(entry) -> tuple:
    return (entry.state, entry.last_use, entry.last_access, entry.utilization, entry.data)


def _locality(entries) -> list | None:
    if entries is None:
        return None
    return [
        (core, e.core, e.mode, e.remote_util, e.rat_level, e.active)
        for core, e in entries.items()
    ]


def _l2(entry) -> tuple:
    dirent = entry.directory
    return (
        entry.last_use, entry.last_access, entry.dirty, entry.dirty_words, entry.data,
        entry.busy_until, entry.is_replica,
        None if dirent is None else (list(dirent.sharers), dirent.owner, dirent.overflowed),
        _locality(entry.locality),
    )


def _counters(engine) -> dict:
    kernel = engine.network.kernel
    classifier = engine.classifier
    policy = engine.sharer_policy
    out = {
        "energy": [getattr(engine.energy, name) for name in EnergyCounters.__slots__],
        "miss": (engine.miss_stats.hits, list(engine.miss_stats._miss_counts)),
        "histograms": (list(engine.inval_histogram.counts.items()),
                       list(engine.evict_histogram.counts.items())),
        "l1": [(l1.hits, l1.misses, l1.store._use_counter) for l1 in engine.l1d],
        "l2": [(s.hits, s.misses, s.word_reads, s.word_writes, s.line_reads, s.line_writes,
                s.store._use_counter) for s in engine.l2],
        "policy": (policy.broadcast_invalidations, policy.unicast_invalidations),
        "mesh": (kernel.messages_sent, kernel.flits_sent, kernel.link_flit_traversals,
                 kernel.recycles),
    }
    if classifier is not None:
        out["classifier"] = tuple(
            getattr(classifier, name, None)
            for name in ("promotions", "demotions", "remote_accesses", "vote_decisions",
                         "replacements", "allocation_failures")
        )
    stats = type("Stats", (), {})()
    engine.export_stats(stats)
    out["family"] = sorted(vars(stats).items())
    out["unexported"] = tuple(
        getattr(engine, name, None)
        for name in ("replication_failures", "_epoch", "_release_count")
    )
    return out


def _state(engine) -> dict:
    kernel = engine.network.kernel
    return {
        "counters": _counters(engine),
        "l1": [[[(line, _l1(e)) for line, e in bucket.items()] for bucket in l1.store._sets]
               for l1 in engine.l1d],
        "l2": [[[(line, _l2(e)) for line, e in bucket.items()] for bucket in s.store._sets]
               for s in engine.l2],
        "history": [list(h.items()) for h in engine._history],
        "homes": list(engine._home_of_line.items()),
        "phase": list(getattr(engine, "_line_phase", {}).items()),
        "golden": dict(engine.golden._lines) if engine.golden is not None else None,
        "tokens": list(engine._write_counts),
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
    pct = draw(st.sampled_from([1, 2, 4]))
    pages = draw(st.lists(st.integers(1, 1 << 20), min_size=1, max_size=2, unique=True))
    # A few busy cores make sharers, owners and upgrades; the rest of the
    # chip shows up now and then.
    busy = draw(st.lists(st.integers(0, 15), min_size=2, max_size=5, unique=True))
    ops = []
    now = 0.5
    for _ in range(draw(st.integers(1, 48))):
        now = max(0.0, now + draw(st.sampled_from([0.0, 1.5, 9.0, 60.0, 400.0, -200.0])))
        roll = draw(st.integers(0, 39))
        if roll == 0:
            ops.append(("reset",))
            continue
        if roll == 1:
            ops.append(("release", draw(st.sampled_from(busy)), now))
            continue
        core = draw(st.sampled_from(busy)) if roll > 4 else draw(st.integers(0, 15))
        page = draw(st.sampled_from(pages))
        line = page * LINES_PER_PAGE + draw(st.sampled_from(_OFFSETS))
        word = draw(st.integers(0, addrmod.WORDS_PER_LINE - 1))
        address = (line << addrmod.LINE_BITS) | (word << addrmod.WORD_BITS)
        ops.append(("access", core, draw(st.booleans()), address, now))
    return verify, pct, ops


def _twins_agree(compiled, twin, ops) -> None:
    """Drive both engines through ``ops``, comparing after every step."""
    for op in ops:
        got = _step(compiled, op)
        want = _step(twin, op)
        assert got == want, op
        assert _state(compiled) == _state(twin), op


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams())
def test_python_twin_matches_compiled(config, stream):
    _id, family, overrides, pointers = config
    verify, pct, ops = stream
    compiled, twin = _engines(_proto(family, overrides, pointers, pct), pointers, verify)
    _twins_agree(compiled, twin, ops)


# ---------------------------------------------------------------------------
# Fixed streams: every step the victim and phase subtypes take over.
# ---------------------------------------------------------------------------

R, W = False, True


def _ops(*steps) -> list:
    """Stream ops from ``(core, is_write, line[, word])`` accesses and
    ``("release", core)`` boundaries, 100 cycles apart."""
    ops, now = [], 0.5
    for step in steps:
        now += 100.0
        if step[0] == "release":
            ops.append(("release", step[1], now))
            continue
        core, is_write, line, word = (*step, 0)[:4]
        ops.append(("access", core, is_write,
                    (line << addrmod.LINE_BITS) | (word << addrmod.WORD_BITS), now))
    return ops


#: Page 3 (lines 192-255) made shared first, so its lines home by hash.
#: Its lines 192, 200, ..., 248 share set 0 of the 2-way L1s and L2
#: slices; their homes are 11, 7, 2, 14, 10, 6, 2 and 13.
_SHARED_PAGE = [(14, R, 254), (15, R, 255)]
_EPOCH = [("release", c) for c in range(16)]  # 16 cores: one epoch

#: (id, family, accesses, the counter that must move).
FIXED_STREAMS = [
    ("replica-from-shared", "victim",
     _SHARED_PAGE + [(0, R, 192), (1, R, 192), (0, R, 200), (0, R, 208)],
     lambda e: e.replicas_created == 1),
    ("replica-from-exclusive", "victim",
     _SHARED_PAGE + [(0, R, 192), (0, R, 200), (0, R, 208)],
     lambda e: e.replicas_created == 1),
    ("replica-from-modified", "victim",
     _SHARED_PAGE + [(0, W, 192), (0, R, 200), (0, R, 208)],
     lambda e: e.replicas_created == 1 and e.l2[11].lookup(192).dirty),
    ("replica-hit", "victim",
     _SHARED_PAGE + [(0, R, 192), (0, R, 200), (0, R, 208), (0, R, 192)],
     lambda e: e.replica_hits == 1),
    ("lru-replica-dropped", "victim",
     _SHARED_PAGE + [(0, R, 192), (0, R, 200), (0, R, 208), (0, R, 216), (0, R, 224)],
     lambda e: e.replica_evictions == 1),
    # 208 (dirty) is the LRU idle home line at slice 2, yet the clean 240
    # makes room.
    ("idle-clean-home-line-displaced", "victim",
     _SHARED_PAGE + [(2, W, 208), (2, R, 240), (2, R, 192), (2, R, 200), (2, R, 216)],
     lambda e: e.replicas_created == 1 and e.l2[2].lookup(240) is None
     and e.l2[2].lookup(208) is not None),
    ("idle-dirty-home-line-displaced", "victim",
     _SHARED_PAGE + [(2, W, 208), (2, W, 240), (2, R, 192), (2, R, 200), (2, R, 216)],
     lambda e: e.replicas_created == 1 and e.l2[2].lookup(208) is None),
    ("replication-failure", "victim",
     _SHARED_PAGE + [(5, R, 208), (6, R, 240), (2, R, 192), (2, R, 200), (2, R, 216)],
     lambda e: e.replication_failures == 1),
    ("local-home-no-replica", "victim",
     _SHARED_PAGE + [(2, R, 208), (2, R, 192), (2, R, 200)],
     lambda e: e.replicas_created == 0 and sum(e.evict_histogram.counts.values()) == 1),
    ("replica-invalidated", "victim",
     _SHARED_PAGE + [(0, R, 192), (1, R, 192), (0, R, 200), (0, R, 208), (1, W, 192)],
     lambda e: e.replica_invalidations == 1),
    ("own-replica-dies-on-grant", "victim",
     _SHARED_PAGE + [(0, R, 192), (0, R, 200), (0, R, 208), (0, W, 192)],
     lambda e: e.replica_evictions == 1),
    ("replica-as-l2-fill-victim", "victim",
     _SHARED_PAGE + [(2, R, 192), (2, R, 200), (2, R, 216), (2, R, 224), (5, R, 208)],
     lambda e: e.replica_evictions == 1),
    # Page 5, private to core 4: a dirty idle line (320) and L1 copies
    # (321, 328, 336) at slice 4 until core 7's touch flushes it.  A
    # replica cannot sit in a page being flushed: a private page's lines
    # home at their owner, and a replica is made only for a remote home.
    ("page-flush", "victim",
     [(4, W, 320), (4, R, 328), (4, R, 336), (4, R, 321), (7, R, 322)],
     lambda e: all(e.l2[4].lookup(line) is None for line in range(320, 384))
     and e.l1d[4].lookup(321) is None),
    ("read-promotion", "phase",
     _SHARED_PAGE + [(0, R, 192), (1, R, 192)],
     lambda e: e.phase_promotions == 1 and e.line_phase(192) == 1),
    ("write-promotion", "phase",
     _SHARED_PAGE + [(0, W, 192), (1, W, 192)],
     lambda e: e.phase_promotions == 1 and e.line_phase(192) == 2
     and e.phase_word_accesses == 1),
    ("one-epoch-decay", "phase",
     _SHARED_PAGE + [(0, W, 192), (1, W, 192)] + _EPOCH + [(1, R, 192)],
     lambda e: e.phase_demotions == 1 and e.line_phase(192) == 1),
    ("two-epoch-decay", "phase",
     _SHARED_PAGE + [(0, W, 192), (1, W, 192)] + _EPOCH + _EPOCH + [(1, R, 192)],
     lambda e: e.phase_demotions == 1 and e.line_phase(192) == 0),
    # Core 0's upgrade makes the read-shared line write-shared: its own S
    # copy folds back and the write is served at the home.
    ("fold-back-on-upgrade", "phase",
     _SHARED_PAGE + [(0, R, 192), (1, R, 192), (0, W, 192, 1)],
     lambda e: e.phase_word_accesses == 1 and e.l1d[0].lookup(192) is None),
]


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
@pytest.mark.parametrize("stream", FIXED_STREAMS, ids=[s[0] for s in FIXED_STREAMS])
def test_python_twin_matches_compiled_on_fixed_streams(stream, verify):
    _id, family, steps, moved = stream
    for _cid, cfamily, overrides, pointers in CONFIGS:
        if cfamily != family:
            continue
        compiled, twin = _engines(_proto(family, overrides, pointers, 1), pointers, verify)
        _twins_agree(compiled, twin, _ops(*steps))
        assert moved(compiled), _id


def test_counters_follow_reset_stats():
    """``reset_stats`` replaces the energy, miss and histogram objects: the
    kernel must count into the new ones, never the retired ones."""
    compiled, _twin = _engines(_proto("adaptive", {}, 4, 4), 4, False)
    old = compiled.energy, compiled.miss_stats
    compiled.reset_stats()
    compiled.access(3, False, 1 << 30, 10.0)
    assert old[0].l1d_tag_accesses == 0 and old[1].misses == 0
    assert compiled.energy.l1d_tag_accesses == 1 and compiled.miss_stats.misses == 1


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
    _id, family, overrides, pointers = config
    arch = _arch(pointers)
    trace = _trace(workload, arch)
    runs = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
        sim = Simulator(arch, _proto(family, overrides, pointers, 2), warmup=True)
        runs.append(sim.run(trace).to_dict())
        compiled_class, twin_class = type(sim.last_engine)._kernel_classes
        want = twin_class if fallback else compiled_class()
        assert type(sim.last_engine.home_kernel) is want
    assert runs[0] == runs[1]
