"""Workload trace framework.

The paper drives its evaluation with 21 parallel benchmarks executed on the
Graphite simulator.  We reproduce each benchmark as a *trace generator*: a
deterministic kernel that performs the same algorithmic skeleton (blocked LU,
radix-sort phases, label propagation, k-median rounds, ...) against a
simulated shared address space and records, per thread:

* READ/WRITE references (byte addresses),
* interleaved compute (``work`` cycles between references),
* synchronization (barriers and locks).

The coherence protocol only ever observes this reference stream, so
preserving the *access pattern* (sharing degree, per-line reuse, working-set
pressure, read/write mix) preserves everything the locality classifier
reacts to.

Traces use a **columnar IR**: each core's stream is three parallel
``array('q')`` columns (opcode, address, work) instead of a Python list of
``(op, address, work)`` tuples.  The columns are built once, validated in a
single typed pass, and never mutated afterwards; the simulator walks them
with per-core cursors, the binary trace format v2 maps them straight to
disk, and the parallel runner ships them to workers as a handful of
contiguous buffers (one ``memcpy``-style pickle per column) instead of a
per-record tuple graph.  ``Trace.records(tid)`` iterates one core's
stream as ``(op, address, work)`` tuples, lazily, for tooling and tests.

Conventions:

* every thread participates in every barrier, in the same order;
* lock/unlock pairs are balanced per thread;
* private per-thread data is allocated on thread-specific pages so R-NUCA
  classifies it private; shared structures live on shared pages.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator

from repro.common import addr as addrmod
from repro.common.errors import TraceError
from repro.common.types import Op

#: Logical trace record, used by the text trace format, the ``Trace``
#: constructor and ``Trace.records``: (op, address, work_before).
TraceRecord = tuple[int, int, int]

#: One core's stream as parallel columns: (ops, addresses, works).
TraceColumns = tuple[array, array, array]

_OP_READ = int(Op.READ)
_OP_WRITE = int(Op.WRITE)
_OP_BARRIER = int(Op.BARRIER)
_OP_LOCK = int(Op.LOCK)
_OP_UNLOCK = int(Op.UNLOCK)
_OP_WORK = int(Op.WORK)


class Trace:
    """An immutable multithreaded memory-access trace (columnar IR).

    ``ops[tid]``, ``addresses[tid]`` and ``works[tid]`` are parallel
    ``array('q')`` columns holding core ``tid``'s stream.  They are packed
    once at construction and must never be mutated: the scalar summaries
    (``memory_accesses``, ``instructions``, ``footprint_lines``) are
    computed in the same single validation pass and cached.
    """

    __slots__ = (
        "name",
        "num_cores",
        "ops",
        "addresses",
        "works",
        "_memory_accesses",
        "_instructions",
        "_footprint_lines",
    )

    def __init__(self, name: str, num_cores: int, per_core: list[list[TraceRecord]]) -> None:
        """Build the columnar IR from per-core record lists (legacy shape)."""
        if len(per_core) != num_cores:
            raise TraceError(
                f"trace {name!r} has {len(per_core)} streams for {num_cores} cores"
            )
        ops: list[array] = []
        addresses: list[array] = []
        works: list[array] = []
        for tid, stream in enumerate(per_core):
            o, a, w = array("q"), array("q"), array("q")
            try:
                for op, address, work in stream:
                    o.append(op)
                    a.append(address)
                    w.append(work)
            except OverflowError:
                raise TraceError(
                    f"thread {tid}: record value outside 64-bit range"
                ) from None
            except TypeError as exc:
                raise TraceError(f"thread {tid}: non-integer record value ({exc})") from None
            ops.append(o)
            addresses.append(a)
            works.append(w)
        self._init_columns(name, num_cores, ops, addresses, works)

    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        name: str,
        num_cores: int,
        ops: list[array],
        addresses: list[array],
        works: list[array],
    ) -> "Trace":
        """Adopt prebuilt columns without copying (still validated once)."""
        if not (len(ops) == len(addresses) == len(works) == num_cores):
            raise TraceError(
                f"trace {name!r} has {len(ops)}/{len(addresses)}/{len(works)} "
                f"columns for {num_cores} cores"
            )
        trace = object.__new__(cls)
        trace._init_columns(name, num_cores, ops, addresses, works)
        return trace

    def _init_columns(
        self,
        name: str,
        num_cores: int,
        ops: list[array],
        addresses: list[array],
        works: list[array],
    ) -> None:
        self.name = name
        self.num_cores = num_cores
        self.ops = ops
        self.addresses = addresses
        self.works = works
        self._validate_and_summarize()

    # ------------------------------------------------------------------
    @staticmethod
    def _rebuild(
        name: str,
        num_cores: int,
        ops: list[array],
        addresses: list[array],
        works: list[array],
        summary: tuple[int, int, int],
    ) -> "Trace":
        """Pickle fast path: adopt already-validated columns verbatim."""
        trace = object.__new__(Trace)
        trace.name = name
        trace.num_cores = num_cores
        trace.ops = ops
        trace.addresses = addresses
        trace.works = works
        trace._memory_accesses, trace._instructions, trace._footprint_lines = summary
        return trace

    def __reduce__(self):
        """Pickle as raw column buffers (``array`` serializes its machine
        bytes), skipping re-validation on unpickle - this is what makes
        shipping a trace to a worker a handful of contiguous buffers."""
        return (
            Trace._rebuild,
            (
                self.name,
                self.num_cores,
                self.ops,
                self.addresses,
                self.works,
                (self._memory_accesses, self._instructions, self._footprint_lines),
            ),
        )

    # ------------------------------------------------------------------
    def _validate_and_summarize(self) -> None:
        """One typed pass: structural validation + cached scalar summaries."""
        max_address = addrmod.MAX_ADDRESS
        line_bits = addrmod.LINE_BITS
        memory_accesses = 0
        instructions = 0
        lines: set[int] = set()
        barrier_seqs: list[tuple[int, ...]] = []
        for tid in range(self.num_cores):
            ops = self.ops[tid]
            addresses = self.addresses[tid]
            works = self.works[tid]
            if not (len(ops) == len(addresses) == len(works)):
                raise TraceError(
                    f"thread {tid}: ragged columns "
                    f"({len(ops)}/{len(addresses)}/{len(works)} records)"
                )
            barriers: list[int] = []
            lock_depth: dict[int, int] = {}
            for i in range(len(ops)):
                op = ops[i]
                address = addresses[i]
                work = works[i]
                if work < 0:
                    raise TraceError(f"thread {tid}: negative work {work}")
                if address < 0 or address > max_address:
                    raise TraceError(f"thread {tid}: address {address:#x} out of range")
                if op == _OP_READ or op == _OP_WRITE:
                    memory_accesses += 1
                    instructions += work + 1
                    lines.add(address >> line_bits)
                elif op == _OP_BARRIER:
                    barriers.append(address)
                    instructions += work + 1
                elif op == _OP_LOCK:
                    lock_depth[address] = lock_depth.get(address, 0) + 1
                    instructions += work + 1
                elif op == _OP_UNLOCK:
                    depth = lock_depth.get(address, 0) - 1
                    if depth < 0:
                        raise TraceError(f"thread {tid}: unlock of free lock {address}")
                    lock_depth[address] = depth
                    instructions += work + 1
                elif op == _OP_WORK:
                    instructions += work
                else:
                    raise TraceError(f"thread {tid}: unknown opcode {op}")
            if any(depth != 0 for depth in lock_depth.values()):
                raise TraceError(f"thread {tid}: unbalanced lock/unlock")
            barrier_seqs.append(tuple(barriers))
        if len(set(barrier_seqs)) > 1:
            raise TraceError(
                f"trace {self.name!r}: threads disagree on barrier sequence "
                f"(every thread must hit every barrier, in order)"
            )
        self._memory_accesses = memory_accesses
        self._instructions = instructions
        self._footprint_lines = len(lines)

    # ------------------------------------------------------------------
    def records(self, tid: int) -> Iterator[TraceRecord]:
        """Core ``tid``'s records, in order, read lazily from the columns
        (tooling and tests; hot paths walk the columns directly)."""
        return zip(self.ops[tid], self.addresses[tid], self.works[tid])

    def stream_length(self, tid: int) -> int:
        return len(self.ops[tid])

    @property
    def total_records(self) -> int:
        return sum(len(ops) for ops in self.ops)

    @property
    def memory_accesses(self) -> int:
        return self._memory_accesses

    @property
    def instructions(self) -> int:
        """Total dynamic instructions: one per record plus its work cycles."""
        return self._instructions

    def footprint_lines(self) -> int:
        """Number of distinct cache lines touched (working-set proxy)."""
        return self._footprint_lines


class AddressSpace:
    """Page-aligned bump allocator for workload data structures.

    Allocations are page aligned so R-NUCA's page-granularity classification
    sees clean private/shared boundaries.  The base is placed high enough to
    stay clear of address 0 (which reads as zero-initialized memory anyway).
    """

    _BASE = 1 << 30

    def __init__(self, page_size: int = addrmod.DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self._next = self._BASE
        self.regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` on fresh pages; return the base address."""
        if nbytes <= 0:
            raise TraceError(f"allocation {name!r} must be positive, got {nbytes}")
        if name in self.regions:
            raise TraceError(f"duplicate allocation {name!r}")
        base = addrmod.align_up(self._next, self.page_size)
        self._next = base + nbytes
        self.regions[name] = (base, nbytes)
        return base


class ThreadProgram:
    """Per-thread trace recorder handed to workload kernels.

    The kernel-facing API (``work``/``read``/``write``/``read_words``/
    ``write_words``/``lock``/``unlock``) is unchanged from the tuple era;
    records now append straight into the three column arrays.
    """

    __slots__ = ("tid", "_ops", "_addresses", "_works", "_pending_work")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self._ops = array("q")
        self._addresses = array("q")
        self._works = array("q")
        self._pending_work = 0

    # ------------------------------------------------------------------
    def _append(self, op: int, address: int, work: int) -> None:
        self._ops.append(op)
        self._addresses.append(address)
        self._works.append(work)

    def work(self, cycles: int) -> None:
        """Execute ``cycles`` of pure compute before the next reference."""
        if cycles < 0:
            raise TraceError(f"negative work {cycles}")
        self._pending_work += cycles

    def read(self, address: int) -> None:
        self._append(_OP_READ, address, self._pending_work)
        self._pending_work = 0

    def write(self, address: int) -> None:
        self._append(_OP_WRITE, address, self._pending_work)
        self._pending_work = 0

    def read_words(self, base: int, count: int, stride_words: int = 1) -> None:
        """Read ``count`` words starting at ``base`` (stride in words)."""
        step = stride_words * addrmod.WORD_SIZE
        address = base
        ops, addresses, works = self._ops, self._addresses, self._works
        for _ in range(count):
            ops.append(_OP_READ)
            addresses.append(address)
            works.append(self._pending_work)
            self._pending_work = 0
            address += step

    def write_words(self, base: int, count: int, stride_words: int = 1) -> None:
        step = stride_words * addrmod.WORD_SIZE
        address = base
        ops, addresses, works = self._ops, self._addresses, self._works
        for _ in range(count):
            ops.append(_OP_WRITE)
            addresses.append(address)
            works.append(self._pending_work)
            self._pending_work = 0
            address += step

    def lock(self, lock_id: int) -> None:
        self._append(_OP_LOCK, lock_id, self._pending_work)
        self._pending_work = 0

    def unlock(self, lock_id: int) -> None:
        self._append(_OP_UNLOCK, lock_id, self._pending_work)
        self._pending_work = 0

    def _barrier(self, barrier_id: int) -> None:
        self._append(_OP_BARRIER, barrier_id, self._pending_work)
        self._pending_work = 0

    def _finish(self) -> TraceColumns:
        if self._pending_work:
            self._append(_OP_WORK, 0, self._pending_work)
            self._pending_work = 0
        return self._ops, self._addresses, self._works


class TraceBuilder:
    """Builds a validated ``Trace`` from per-thread programs."""

    def __init__(self, name: str, num_cores: int) -> None:
        if num_cores <= 0:
            raise TraceError(f"num_cores must be positive, got {num_cores}")
        self.name = name
        self.num_cores = num_cores
        self.threads = [ThreadProgram(tid) for tid in range(num_cores)]
        self.address_space = AddressSpace()
        self._next_barrier = 0

    def thread(self, tid: int) -> ThreadProgram:
        return self.threads[tid]

    def barrier_all(self) -> None:
        """Emit one barrier that every thread participates in."""
        barrier_id = self._next_barrier
        self._next_barrier += 1
        for program in self.threads:
            program._barrier(barrier_id)

    def build(self) -> Trace:
        columns = [program._finish() for program in self.threads]
        return Trace.from_columns(
            self.name,
            self.num_cores,
            [c[0] for c in columns],
            [c[1] for c in columns],
            [c[2] for c in columns],
        )
