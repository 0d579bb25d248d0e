"""DLS: Directoryless Shared last-level cache (Liu et al.; PAPERS.md).

DLS removes the sharer-tracking directory altogether: no private cache ever
holds a copy of shared data, so there is nothing to keep coherent.  Every
data reference is serviced at a shared-LLC slice with a word-granularity
access - exactly the "remote sharer" service of the locality-aware protocol,
applied unconditionally to every access.

What this family models (and what it deliberately does not - see DESIGN.md,
"Comparison-baseline protocol families"):

* **No L1 data caching.**  Every load/store is a word round-trip to an LLC
  slice.  The private L1-D is unused, the L1-D miss rate is 100% by
  construction, and the *only* locality lever is placement: private pages
  live in the requester's own slice, so DLS degrades gracefully on
  thread-local data and pays the full mesh diameter on shared data - the
  trade-off the paper's remote-access mode inherits.  The in-order core
  model charges its per-reference L1-D probe (one cycle) to every protocol,
  DLS included; the matching tag-access energy event is charged here so the
  completion-time and energy columns of the family comparison stay mutually
  consistent.
* **Word-interleaved LLC addressing.**  DLS's shared LLC is interleaved at
  *word* granularity (not R-NUCA's line-hash): word ``w`` of line ``l``
  lives at slice ``(l * words_per_line + w) % num_cores``
  (:meth:`~repro.rnuca.placement.RNucaPlacement.shared_word_home`), so a
  line's words spread over consecutive slices and word traffic load-balances
  across the chip.  Each slice that is home to at least one word of a line
  keeps its own copy of the full line; only the words a slice is home to are
  ever read or written there, and only those words are written back on
  eviction (``L2Line.dirty_words`` masks the write-back).  Private pages
  still resolve to the owning core's slice for every word.
* **No directory state.**  L2 lines carry no ``DirectoryEntry``, no sharer
  pointers, no locality state (``ProtocolConfig`` pins ``directory="none"``
  and storage accounting reports zero bits/entry).  Invalidations,
  write-backs and upgrade transactions do not exist.
* **Word-access serialization.**  Word writes hold the home line until
  serviced; word reads pipeline through the banked L2 (one-cycle
  occupancy), the same Section 5.1.2 rule as the adaptive protocol's
  remote accesses, so DLS and the adaptive protocol's remote mode are
  timed identically - the comparison isolates the *policy*, not the
  plumbing.  Both take the same home-kernel steps
  (``repro.protocol.home``): an access is ``data_word_home``,
  ``round_trip``, the miss bookkeeping, then ``serve_word`` and
  ``settle``, all in one call into the engine's kernel - the compiled
  ``DLSKernel`` or its twin :class:`PyDLSKernel`.

Functional verification runs unchanged: word writes update the golden
memory in service order and word reads are checked against it, so the
differential harness can assert DLS equivalence with every other family.
Because words of one line are homed at different slices, the end-of-run
observable value of a line is assembled per word from each word's home
(:meth:`DLSEngine.final_line_value`), and an evicting slice merges only its
own dirty words into the DRAM image (:meth:`DLSEngine._verify_write_back`).
"""

from __future__ import annotations

from repro import accel
from repro.common import addr as addrmod
from repro.common.types import MissType
from repro.network.messages import MsgType
from repro.protocol.base import _EVER_REMOTE, AccessResult, ProtocolEngineBase
from repro.protocol.home import PyHomeKernel

_LINE_BITS = addrmod.LINE_BITS
_WORD_BITS = addrmod.WORD_BITS
_WORD = MissType.WORD
_COLD = MissType.COLD

# Message types as plain ints: the flit tables index by value.
_READ_REQ = int(MsgType.READ_REQ)
_WRITE_REQ = int(MsgType.WRITE_REQ)
_WORD_REPLY = int(MsgType.WORD_REPLY)
_WORD_WRITE_ACK = int(MsgType.WORD_WRITE_ACK)


class PyDLSKernel(PyHomeKernel):
    """The pure-Python DLS kernel: the compiled ``DLSKernel``'s twin, and
    DLS's subclass of the home kernel.

    ``access`` runs one whole DLS access on the inherited home steps: the
    L1-D tag charge, the word's home (``data_word_home``), ``round_trip``,
    the cold-or-word miss with its history flag and count, ``serve_word``
    and ``settle``, then the latency split.
    """

    __slots__ = ("_history",)

    def __init__(self, engine, line_type, result_type) -> None:
        super().__init__(engine, line_type, result_type)
        self._history = engine._history

    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        engine = self._engine
        line = address >> _LINE_BITS
        word = (address >> _WORD_BITS) & (self._words_per_line - 1)
        # The core model pays the 1-cycle L1-D probe on every reference
        # (sim/multicore.py); charge the matching tag-access energy so the
        # timing and energy models agree (see module docstring).
        engine.energy.l1d_tag_accesses += 1
        result = AccessResult()
        result.remote = True

        # ---- round trip to the word's home slice (writes carry the data
        # word; the reply type depends only on ``is_write``).
        if is_write:
            req_msg, reply_msg = _WRITE_REQ, _WORD_WRITE_ACK
        else:
            req_msg, reply_msg = _READ_REQ, _WORD_REPLY
        home, flush_owner = self.data_word_home(line, word, core)
        slice_, l2line, t, reply_t = self.round_trip(
            core, line, home, flush_owner, req_msg, reply_msg, now, result
        )

        # ---- every access is a miss: first touch is cold, then word.
        # (``_classify_miss`` for a remote service, inlined: DLS never
        # caches a line privately, so _EVER_REMOTE is the only history
        # bit it ever sets; ``MissStats.record_miss`` inlined too.)
        history = self._history[core]
        flags = history.get(line, 0)
        miss_type = _WORD if flags & _EVER_REMOTE else _COLD
        result.miss_type = miss_type
        engine.miss_stats._miss_counts[miss_type] += 1
        history[line] = flags | _EVER_REMOTE

        # ---- word service, then settle: writes serialize, reads pipeline.
        self.serve_word(core, is_write, line, word, l2line, slice_)
        self.settle(slice_, l2line, t, is_write)

        latency = reply_t - now
        result.latency = latency
        result.l1_to_l2 = latency - result.l2_waiting - result.l2_offchip
        return result


class DLSEngine(ProtocolEngineBase):
    """Directoryless shared-LLC engine: every access is a remote word access."""

    __slots__ = ()

    _kernel_classes = (accel.dls_kernel_class, PyDLSKernel)

    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store as a word round-trip to the word's home:
        one call into the kernel."""
        return self.home_kernel.access(core, is_write, address, now)

    # ------------------------------------------------------------------
    # Word-interleaving aware write-back and final-state observation.
    # ------------------------------------------------------------------
    def _verify_write_back(self, home: int, vline: int, ventry) -> None:
        """Golden step of a dirty eviction: merge this slice's own words
        into the DRAM image, each verified.

        There are no private copies to purge, and the write-back's timing
        and energy are the base path's (one line-sized transfer).  The
        slice's copy is authoritative exactly for the words it serviced
        writes for (``dirty_words``); its remaining words may be stale
        images of words homed at other slices, so they must not reach
        memory.
        """
        image = self._dram_image.get(vline)
        if image is None:
            image = [0] * self._words_per_line
            self._dram_image[vline] = image
        mask = ventry.dirty_words
        for word in range(self._words_per_line):
            if (mask >> word) & 1:
                self.golden.check_read(
                    vline, word, ventry.data[word], f"DLS write-back at tile {home}"
                )
                image[word] = ventry.data[word]

    def final_line_value(self, line: int) -> list[int]:
        """Assemble the observable line value word by word.

        Authority order per word: the word's home slice copy (private owner
        slice for private pages, word-interleaved slice otherwise) > the
        DRAM image > zero.  A word's home is stable once its page is
        classified, so the resident copy at that home - refreshed by every
        write to the word - is always the freshest value.
        """
        page = addrmod.page_of(line << addrmod.LINE_BITS, self.arch.page_size)
        owner = self.placement.page_table.owner_of(page)
        image = self._dram_image.get(line)
        words: list[int] = []
        for word in range(self._words_per_line):
            home = owner if owner is not None else self.placement.shared_word_home(line, word)
            l2line = self.l2[home].lookup(line)
            if l2line is not None and l2line.data is not None:
                words.append(l2line.data[word])
            elif image is not None:
                words.append(image[word])
            else:
                words.append(0)
        return words
