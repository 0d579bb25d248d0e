"""Phase-priority directory coherence (Li & An, arXiv 1305.3038; PAPERS.md).

The phase-priority idea: a directory line's service policy should follow the
line's current *access phase* rather than a per-sharer utilization estimate.
The engine tracks one of three phases per line at the home:

* **PRIVATE** - one core is accessing the line; classic directory service
  (full line grants, E/M states, invalidation rounds on writes).
* **READ_SHARED** - several cores read the line; still serviced with line
  grants (read copies are harmless), but the phase records that the line is
  actively shared so a subsequent write promotes it straight to
  WRITE_SHARED.
* **WRITE_SHARED** - the line migrates between writers; it is pinned at the
  home and every access (read or write) is serviced as a word access there,
  exactly the "remote sharer" service of the locality-aware protocol.  A
  write entering this phase first runs the normal invalidation round, so the
  single-writer/multiple-reader invariant is preserved and the home copy is
  authoritative from then on.

Modeling substitutions (documented in DESIGN.md section 11; the source paper
describes a NoC-priority mechanism, not a full protocol table, so this is a
behavioural interpretation behind the common ``ProtocolEngineBase``
interface):

* **Phase detection is at the home, on misses.**  A miss by a core other
  than the line's last accessor promotes PRIVATE -> READ_SHARED (reads) or
  any phase -> WRITE_SHARED (writes that find other private sharers or a
  different last accessor).  Same-core streaks never promote.
* **Phases decay at release epochs.**  One epoch is ``num_cores`` release
  boundaries (unlock/barrier completions, counted through
  :meth:`sync_boundary_hook`).  A line untouched for ``k`` full epochs
  decays ``k`` phase levels on its next access, so data that stops being
  write-shared eventually earns private copies again.  Decay is lazy (at
  the next touch), costing no sweep.
* **Timing reuses the directory machinery unchanged**: the family's
  kernel, a subtype of the directory kernel (the compiled
  ``PhaseKernel`` or its twin :class:`PyPhaseKernel` below), takes over
  only the requester's classification, the one policy step of the miss
  path: lazy decay, promotion, and word service while write-shared, with
  the fold-back of the requester's stale S copy.  The request and reply
  legs, line grants, the invalidation round, the synchronous write-back
  and the word access at the home are the same code (and latencies) the
  baseline/adaptive families run, so the family comparison isolates the
  phase *policy*.  The phases, the epoch and the counters are the
  engine's, which both kernels update on it; the release count stays
  Python (``sync_boundary_hook``), as it runs once per release.

Functional verification runs unchanged: WRITE_SHARED word writes follow an
invalidation round (SWMR holds), word accesses use the shared golden-checked
home service, and the base :meth:`final_line_value` authority order (MODIFIED
L1 > home L2 > DRAM) remains correct because the directory semantics are
untouched.
"""

from __future__ import annotations

from repro import accel
from repro.protocol.directory import DirectoryEngine, PyDirectoryKernel

# Line phases, ordered so decay is a subtraction.
PHASE_PRIVATE = 0
PHASE_READ_SHARED = 1
PHASE_WRITE_SHARED = 2


class PyPhaseKernel(PyDirectoryKernel):
    """The pure-Python phase kernel: the compiled ``PhaseKernel``'s twin,
    and the phase family's subtype of the directory kernel.

    It takes over ``_classify_requester``, the phase policy; every other
    step is the directory kernel's.  The ``{line: [phase, core, epoch]}``
    dict is the engine's, and the epoch is re-read from the engine per
    miss.
    """

    __slots__ = ("_line_phase",)

    def __init__(self, engine, line_type, result_type) -> None:
        super().__init__(engine, line_type, result_type)
        self._line_phase = engine._line_phase

    def _classify_requester(self, engine, l1, l2line, core, line, is_write, upgrade):
        """Service at the home exactly while the line is write-shared.

        First the line's phase for this miss: lazy decay (one level per
        full epoch without a phase change), then promotion - a write that
        finds other private sharers or a different last accessor makes the
        line write-shared, a read by a core other than the last accessor
        makes a private line read-shared.  Touches no network or timing
        state and never adds a sharer or owner; like the utilization
        classifier it replaces, it runs after the request arrives and
        decides the reply type.  A core still holding an S copy of a line
        that is (or just became) write-shared folds the copy back before
        the home services it.
        """
        info = self._line_phase.get(line)
        epoch = engine._epoch
        if info is None:
            info = [PHASE_PRIVATE, core, epoch]
            self._line_phase[line] = info
        elif info[0] != PHASE_PRIVATE and epoch > info[2]:
            decayed = info[0] - (epoch - info[2])
            info[0] = decayed if decayed > PHASE_PRIVATE else PHASE_PRIVATE
            info[2] = epoch
            engine.phase_demotions += 1
        phase = info[0]
        if is_write:
            sharers = l2line.directory.sharers
            shared_write = info[1] != core or (
                sharers and not (len(sharers) == 1 and core in sharers)
            )
            if shared_write and phase != PHASE_WRITE_SHARED:
                info[0] = phase = PHASE_WRITE_SHARED
                info[2] = epoch
                engine.phase_promotions += 1
        elif info[1] != core and phase == PHASE_PRIVATE:
            info[0] = phase = PHASE_READ_SHARED
            info[2] = epoch
            engine.phase_promotions += 1
        info[1] = core
        if phase != PHASE_WRITE_SHARED:
            return False, upgrade
        engine.phase_word_accesses += 1
        if upgrade:
            self._remove_own_copy(engine, core, line, l2line)
        return True, False


class PhaseEngine(DirectoryEngine):
    """Directory engine with phase-priority service policy."""

    __slots__ = (
        "_line_phase",
        "_epoch",
        "_release_count",
        "_releases_per_epoch",
        "phase_promotions",
        "phase_demotions",
        "phase_word_accesses",
    )

    _kernel_classes = (accel.phase_kernel_class, PyPhaseKernel)

    def __init__(self, arch, proto, verify: bool = False) -> None:
        # The phase state exists before the base builds the kernel, which
        # holds the dict.
        #: line -> [phase, last accessing core, epoch of last phase change].
        self._line_phase: dict[int, list[int]] = {}
        self._epoch = 0
        self._release_count = 0
        self._releases_per_epoch = arch.num_cores
        # Statistics.
        self.phase_promotions = 0
        self.phase_demotions = 0
        self.phase_word_accesses = 0
        super().__init__(arch, proto, verify)

    def reset_stats(self) -> None:
        """Also zero the phase counters for warmup/measure runs."""
        super().reset_stats()
        self.phase_promotions = 0
        self.phase_demotions = 0
        self.phase_word_accesses = 0

    def export_stats(self, stats) -> None:
        stats.phase_promotions = self.phase_promotions
        stats.phase_demotions = self.phase_demotions
        stats.phase_word_accesses = self.phase_word_accesses

    # ------------------------------------------------------------------
    # Release epochs drive phase decay.
    # ------------------------------------------------------------------
    def _on_release(self, core: int, t: float) -> None:
        self._release_count += 1
        self._epoch = self._release_count // self._releases_per_epoch

    def sync_boundary_hook(self):
        """Count release boundaries; ``num_cores`` of them close an epoch."""
        return self._on_release

    # ------------------------------------------------------------------
    # Introspection helper used by tests.
    # ------------------------------------------------------------------
    def line_phase(self, line: int) -> int:
        """Current phase of ``line`` (before any lazy decay it has earned)."""
        info = self._line_phase.get(line)
        return info[0] if info is not None else PHASE_PRIVATE
