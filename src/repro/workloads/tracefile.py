"""Trace file I/O: persist and reload multithreaded memory-access traces.

Two interchangeable on-disk formats, both self-describing and validated on
load through the normal ``Trace`` construction path:

* **text** (``.trace``) - a line-oriented format meant for humans and for
  bringing external traces into the simulator.  A header line declares the
  trace, then one record per line::

      #trace <name> cores=<n> version=1
      T<tid> R <address> [work]     # read
      T<tid> W <address> [work]     # write
      T<tid> B <barrier-id> [work]  # barrier
      T<tid> L <lock-id> [work]     # lock
      T<tid> U <lock-id> [work]     # unlock
      T<tid> K <cycles>             # pure compute (work)

  Addresses and ids accept decimal or ``0x`` hex; blank lines and ``#``
  comments are ignored.  Records may be interleaved across threads in any
  order - each thread's records keep their relative order.

* **binary v2** (``.traceb``) - the columnar IR
  laid out verbatim: after the header, each core's stream is a record count
  followed by three contiguous little-endian ``int64`` blocks (ops,
  addresses, works).  Loading memory-maps the file and bulk-copies each
  block straight into the IR's ``array('q')`` columns - no per-record
  parsing at all, which makes loading a multi-million-record trace a few
  ``memcpy``-sized operations.  Any other version in the header (such
  as the retired record-packed v1) is refused with a ``TraceError``.

Round-tripping through any format reproduces the trace exactly
(``trace_equal`` checks record-for-record equality).
"""

from __future__ import annotations

import io
import mmap
import pathlib
import struct
import sys
from array import array

from repro.common.errors import TraceError
from repro.common.types import Op
from repro.workloads.base import Trace, TraceRecord

#: Current text-format version.
FORMAT_VERSION = 1
#: Current binary-format version (v2 = columnar), the only one read.
BINARY_FORMAT_VERSION = 2

_TEXT_OPCODES = {
    "R": int(Op.READ),
    "W": int(Op.WRITE),
    "B": int(Op.BARRIER),
    "L": int(Op.LOCK),
    "U": int(Op.UNLOCK),
    "K": int(Op.WORK),
}
#: Opcode -> the one-letter mnemonic of the text format (and ``repro trace dump``).
MNEMONICS = {v: k for k, v in _TEXT_OPCODES.items()}

_BINARY_MAGIC = b"RPTR"
#: File header: magic, version (u16), num_cores (u16), name length (u16).
_HEADER = struct.Struct("<4sHHH")
#: Per-stream header: record count (u64).
_STREAM = struct.Struct("<Q")

_WORD_BYTES = 8  # int64 column cells


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------
def save_trace_text(trace: Trace, path: str | pathlib.Path) -> None:
    """Write ``trace`` to ``path`` in the line-oriented text format."""
    out = io.StringIO()
    out.write(f"#trace {trace.name} cores={trace.num_cores} version={FORMAT_VERSION}\n")
    for tid in range(trace.num_cores):
        ops = trace.ops[tid]
        addresses = trace.addresses[tid]
        works = trace.works[tid]
        for i in range(len(ops)):
            mnemonic = MNEMONICS[ops[i]]
            work = works[i]
            if mnemonic == "K":
                out.write(f"T{tid} K {work}\n")
            elif work:
                out.write(f"T{tid} {mnemonic} {addresses[i]:#x} {work}\n")
            else:
                out.write(f"T{tid} {mnemonic} {addresses[i]:#x}\n")
    pathlib.Path(path).write_text(out.getvalue())


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return int(token, 0)  # handles decimal and 0x-prefixed hex
    except ValueError:
        raise TraceError(f"line {line_no}: invalid {what} {token!r}") from None


def load_trace_text(path: str | pathlib.Path) -> Trace:
    """Parse a text trace file; raises :class:`TraceError` on malformed input."""
    lines = pathlib.Path(path).read_text().splitlines()
    name: str | None = None
    num_cores = 0
    streams: list[list[TraceRecord]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip() if not raw.startswith("#trace") else raw
        if not line:
            continue
        if line.startswith("#trace"):
            if name is not None:
                raise TraceError(f"line {line_no}: duplicate #trace header")
            parts = line.split()
            if len(parts) < 3:
                raise TraceError(f"line {line_no}: malformed #trace header")
            name = parts[1]
            fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
            if "cores" not in fields:
                raise TraceError(f"line {line_no}: #trace header missing cores=")
            num_cores = _parse_int(fields["cores"], "core count", line_no)
            version = _parse_int(fields.get("version", "1"), "version", line_no)
            if version != FORMAT_VERSION:
                raise TraceError(
                    f"line {line_no}: unsupported trace version {version} "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            if num_cores <= 0:
                raise TraceError(f"line {line_no}: cores must be positive")
            streams = [[] for _ in range(num_cores)]
            continue
        if name is None:
            raise TraceError(f"line {line_no}: record before #trace header")
        parts = line.split()
        if len(parts) < 2 or not parts[0].startswith("T"):
            raise TraceError(f"line {line_no}: malformed record {line!r}")
        tid = _parse_int(parts[0][1:], "thread id", line_no)
        if not 0 <= tid < num_cores:
            raise TraceError(f"line {line_no}: thread id {tid} out of range (cores={num_cores})")
        mnemonic = parts[1].upper()
        opcode = _TEXT_OPCODES.get(mnemonic)
        if opcode is None:
            raise TraceError(f"line {line_no}: unknown opcode {parts[1]!r}")
        if mnemonic == "K":
            if len(parts) != 3:
                raise TraceError(f"line {line_no}: K takes exactly one operand (cycles)")
            work = _parse_int(parts[2], "work cycles", line_no)
            streams[tid].append((opcode, 0, work))
            continue
        if len(parts) not in (3, 4):
            raise TraceError(f"line {line_no}: expected 'T<tid> {mnemonic} <operand> [work]'")
        address = _parse_int(parts[2], "address", line_no)
        work = _parse_int(parts[3], "work cycles", line_no) if len(parts) == 4 else 0
        streams[tid].append((opcode, address, work))
    if name is None:
        raise TraceError("trace file has no #trace header")
    return Trace(name, num_cores, streams)


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------
def _column_bytes(column: array) -> bytes:
    """Raw little-endian bytes of an int64 column (swap on BE hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        swapped = array("q", column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _column_from_bytes(buffer) -> array:
    """Adopt a little-endian int64 block as an ``array('q')`` column."""
    column = array("q")
    column.frombytes(buffer)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        column.byteswap()
    return column


def save_trace_binary(trace: Trace, path: str | pathlib.Path) -> None:
    """Write ``trace`` to ``path`` in the columnar binary v2 format."""
    name_bytes = trace.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise TraceError(f"trace name too long ({len(name_bytes)} bytes)")
    out = io.BytesIO()
    out.write(
        _HEADER.pack(_BINARY_MAGIC, BINARY_FORMAT_VERSION, trace.num_cores, len(name_bytes))
    )
    out.write(name_bytes)
    for tid in range(trace.num_cores):
        out.write(_STREAM.pack(len(trace.ops[tid])))
        out.write(_column_bytes(trace.ops[tid]))
        out.write(_column_bytes(trace.addresses[tid]))
        out.write(_column_bytes(trace.works[tid]))
    pathlib.Path(path).write_bytes(out.getvalue())


def _load_binary_v2(path, blob, num_cores: int, name: str, offset: int) -> Trace:
    """Columnar payload: bulk-copy each int64 block into an IR column."""
    ops: list[array] = []
    addresses: list[array] = []
    works: list[array] = []
    view = memoryview(blob)
    unpack_stream = _STREAM.unpack_from
    try:
        for _tid in range(num_cores):
            if offset + _STREAM.size > len(blob):
                raise TraceError(f"{path}: truncated stream header for thread {_tid}")
            (count,) = unpack_stream(blob, offset)
            offset += _STREAM.size
            block = count * _WORD_BYTES
            if offset + 3 * block > len(blob):
                raise TraceError(f"{path}: truncated columns for thread {_tid}")
            ops.append(_column_from_bytes(view[offset : offset + block]))
            offset += block
            addresses.append(_column_from_bytes(view[offset : offset + block]))
            offset += block
            works.append(_column_from_bytes(view[offset : offset + block]))
            offset += block
        if offset != len(blob):
            raise TraceError(f"{path}: {len(blob) - offset} trailing bytes after last stream")
    finally:
        # A raising path would otherwise pin the view in the traceback
        # frame, making the caller's mmap unclosable.
        view.release()
    return Trace.from_columns(name, num_cores, ops, addresses, works)


def load_trace_binary(path: str | pathlib.Path) -> Trace:
    """Read a binary (v2) trace file; raises :class:`TraceError` on
    corruption or any other version.  The file is memory-mapped so the
    column blocks flow into the IR without per-record parsing."""
    p = pathlib.Path(path)
    with p.open("rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty file or mmap-hostile FS
            mm = None
        blob = mm if mm is not None else fh.read()
        try:
            if len(blob) < _HEADER.size:
                raise TraceError(f"{path}: truncated header ({len(blob)} bytes)")
            magic, version, num_cores, name_len = _HEADER.unpack_from(blob, 0)
            if magic != _BINARY_MAGIC:
                raise TraceError(f"{path}: not a binary trace file (bad magic {magic!r})")
            offset = _HEADER.size
            name = bytes(blob[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            if version != BINARY_FORMAT_VERSION:
                raise TraceError(
                    f"{path}: unsupported trace version {version} (this build "
                    f"reads version {BINARY_FORMAT_VERSION})"
                )
            return _load_binary_v2(path, blob, num_cores, name, offset)
        finally:
            if mm is not None:
                mm.close()


# ----------------------------------------------------------------------
# Format dispatch + utilities
# ----------------------------------------------------------------------
def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Save by extension: ``.traceb`` is binary, anything else is text."""
    if str(path).endswith(".traceb"):
        save_trace_binary(trace, path)
    else:
        save_trace_text(trace, path)


def load_trace(path: str | pathlib.Path) -> Trace:
    """Load by content: binary magic wins, otherwise parse as text."""
    p = pathlib.Path(path)
    with p.open("rb") as fh:
        magic = fh.read(len(_BINARY_MAGIC))
    if magic == _BINARY_MAGIC:
        return load_trace_binary(p)
    return load_trace_text(p)


def trace_equal(a: Trace, b: Trace) -> bool:
    """Record-for-record equality (names included)."""
    if a.name != b.name or a.num_cores != b.num_cores:
        return False
    return a.ops == b.ops and a.addresses == b.addresses and a.works == b.works


def trace_summary(trace: Trace) -> dict[str, int]:
    """Scalar description used by the CLI's ``trace stats`` command."""
    reads = writes = barriers = locks = 0
    op_read, op_write = int(Op.READ), int(Op.WRITE)
    op_barrier, op_lock = int(Op.BARRIER), int(Op.LOCK)
    for ops in trace.ops:
        for op in ops:
            if op == op_read:
                reads += 1
            elif op == op_write:
                writes += 1
            elif op == op_barrier:
                barriers += 1
            elif op == op_lock:
                locks += 1
    return {
        "cores": trace.num_cores,
        "records": trace.total_records,
        "reads": reads,
        "writes": writes,
        "barriers_per_thread": barriers // max(1, trace.num_cores),
        "lock_acquisitions": locks,
        "instructions": trace.instructions,
        "footprint_lines": trace.footprint_lines(),
    }
