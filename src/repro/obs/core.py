"""Telemetry core: spans, monotonic counters, and a JSONL event sink.

One :class:`Telemetry` object owns an event sink (an append-only JSONL
file) and three primitives:

* **spans** - nested wall-clock timers.  ``begin``/``end`` (or the
  ``span(...)`` context manager) emit one ``span`` record per completed
  span carrying its id, parent id, depth and duration, so a renderer can
  rebuild the tree without any in-band nesting markers.  ``record_span``
  emits a span the caller timed itself, with its child spans and the
  counter increments it observed in the same record (``load_events``
  expands them into ordinary records);
* **counters** - monotonic increments.  ``count(name, value)`` emits an
  increment record; aggregation (summing increments per name across
  processes) happens at read time, so emitters are stateless and a
  ``Pool.terminate``'d worker loses nothing that was already emitted;
* **events** - point-in-time facts with attributes (``remote.requeue``
  with host/attempts/outstanding, for example).

**Disabled-path contract** (pinned by the neutrality property test and
CI's telemetry-overhead gate, ``.github/perf_gate.py``): instrumentation
sites gate on the single attribute check ``TELEMETRY.enabled`` and all
per-record hot loops stay untouched - the simulator emits per *run*, not
per access, so ``RunStats`` are bit-identical; with telemetry off
``Simulator.run`` adds only its phase clock readings, and with it on it is
at most 2% slower.

**Multi-process discipline**: every record is serialized to one line and
written with a single ``O_APPEND`` ``os.write`` - the same atomic-append
discipline as :class:`~repro.runner.store.ResultStore` - so a sweep parent,
its spawn-children and a serving daemon may all stream into one sink file.
Records carry ``pid``; span ids are unique per ``(pid, id)``.

**One record per simulation**: ``Simulator.run`` takes two clock readings
per phase and, after its last phase, writes one ``sim.run`` record that
carries its phase spans and its counters.  What a killed worker
(``Pool.terminate``, a crash, a hang's timeout) loses is therefore every
record of the run it was in, the phases that had already finished
included.  Records emitted outside a run - job spans, runner and backend
events - are written at once, so nothing emitted before that run began is
lost.

A sink failure after enablement (disk full, deleted directory) **disables
telemetry and keeps the run alive**: observability must never turn a
passing sweep into a failing one.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.common.errors import ConfigError
from repro.faults import FAULTS

#: Bump when the record grammar changes incompatibly.  Every record carries
#: it as ``"v"``; readers skip records from other schemas.
EVENT_SCHEMA = 1

#: Environment variable that enables telemetry process-wide at import time.
#: Spawn-children (pool workers, daemons started from an enabled parent)
#: inherit it, so one sink file collects a whole distributed sweep.
TELEMETRY_ENV = "REPRO_TELEMETRY"

log = logging.getLogger("repro.obs")

#: One encoder for every record (``json.dumps`` with keyword arguments
#: builds a fresh encoder per call).
_ENCODE = json.JSONEncoder(sort_keys=True, default=str).encode

#: Shared no-op context manager returned by :meth:`Telemetry.span` when
#: disabled - allocation-free, so unconditional ``with tel.span(...):``
#: sites off the hot path stay cheap.
_NULL_SPAN = contextlib.nullcontext(0)


class Telemetry:
    """A span/counter/event emitter bound to one JSONL sink.

    The module-level :data:`TELEMETRY` singleton is the instance every
    instrumentation point in the repo consults; constructing private
    instances is supported for tests.
    """

    __slots__ = ("enabled", "path", "_fd", "_ids", "_stack", "_origin")

    def __init__(self) -> None:
        self.enabled = False
        self.path: Path | None = None
        self._fd: int | None = None
        self._ids = itertools.count(1)
        #: Per-thread span stacks: the remote backend emits from its
        #: dispatcher thread while the main thread runs the sweep, and the
        #: two nestings must not interleave.
        self._stack = threading.local()
        self._origin = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, path: str | os.PathLike) -> None:
        """Start streaming records to ``path`` (append; parents created).

        Raises :class:`~repro.common.errors.ConfigError` when the sink
        cannot be opened (path is a directory, parent is a file, ...):
        a misconfigured sink should fail loudly *before* a long sweep, not
        silently drop its telemetry.
        """
        self.disable()
        target = Path(path)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        except OSError as exc:
            raise ConfigError(f"cannot open telemetry sink {target}: {exc}") from exc
        self.path = target
        self._fd = fd
        self._origin = time.perf_counter()
        self.enabled = True
        self.emit("meta", "telemetry.enabled")

    def disable(self) -> None:
        """Stop emitting and release the sink (idempotent)."""
        self.enabled = False
        fd, self._fd = self._fd, None
        self.path = None
        self._stack = threading.local()
        if fd is not None:
            with contextlib.suppress(OSError):
                os.close(fd)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, name: str, attrs: dict | None = None, **fields) -> None:
        """Write one record (one atomic JSONL line); never raises.

        A failing sink disables telemetry with a logged warning - the
        simulation result matters more than its observability.
        """
        fd = self._fd
        if fd is None:
            return
        record: dict = {"v": EVENT_SCHEMA, "kind": kind, "name": name,
                        "pid": os.getpid(), "ts": round(time.time(), 6)}
        if fields:
            record.update(fields)
        if attrs:
            record["attrs"] = attrs
        try:
            if FAULTS.active and FAULTS.trigger("obs.sink_dead") is not None:
                # Chaos failpoint: the sink dying mid-run must take the
                # warn-and-self-disable path below, never the sweep.
                raise OSError("fault injected: telemetry sink died")
            data = (_ENCODE(record) + "\n").encode("utf-8")
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except (OSError, ValueError, TypeError) as exc:
            self.disable()
            log.warning("telemetry sink failed, disabling: %s", exc)

    def count(self, name: str, value: int = 1, **attrs) -> None:
        """Emit a monotonic counter *increment* (aggregated at read time)."""
        self.emit("counter", name, attrs or None, value=value)

    def event(self, name: str, **attrs) -> None:
        """Emit a point-in-time event with attributes."""
        self.emit("event", name, attrs or None)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _frames(self) -> list:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = self._stack.frames = []
        return frames

    def begin(self, name: str, **attrs) -> int:
        """Open a span; returns its id (hand it back to :meth:`end`)."""
        if not self.enabled:
            return 0
        frames = self._frames()
        sid = next(self._ids)
        parent = frames[-1][0] if frames else 0
        frames.append((sid, name, time.perf_counter(), parent, attrs or None))
        return sid

    def end(self, span_id: int, **extra) -> None:
        """Close a span by id; emits its record.

        Robust to mismatched nesting: unknown ids no-op, and closing an
        outer span closes (and emits) abandoned inner spans first, so an
        exception path that skips an ``end`` cannot corrupt later parents.
        """
        if not self.enabled or span_id == 0:
            return
        frames = self._frames()
        while frames:
            sid, name, start, parent, attrs = frames.pop()
            if extra and sid == span_id:
                attrs = {**(attrs or {}), **extra}
            self.emit(
                "span", name, attrs,
                id=sid, parent=parent, depth=len(frames),
                start=round(start - self._origin, 6),
                dur=round(time.perf_counter() - start, 6),
            )
            if sid == span_id:
                return

    def record_span(self, name: str, start: float, end: float, children=(),
                    counters: dict[str, int] | None = None, **attrs) -> None:
        """Emit a span that has already ended, under the innermost open span.

        ``start`` and ``end`` are the caller's ``time.perf_counter()``
        readings.  ``children`` are ``(name, start, end)`` spans nested in
        it and ``counters`` the counter increments it observed; both ride
        in the span's own record, as ``[id, name, start, dur]`` lists and a
        name-to-increment mapping, so a hot caller pays two clock readings
        per span and one write.
        """
        if not self.enabled:
            return
        frames = self._frames()
        sid = next(self._ids)
        origin = self._origin
        fields: dict = {}
        if children:
            fields["children"] = [
                [next(self._ids), child, round(child_start - origin, 6),
                 round(child_end - child_start, 6)]
                for child, child_start, child_end in children
            ]
        if counters:
            fields["counters"] = counters
        self.emit(
            "span", name, attrs or None,
            id=sid, parent=frames[-1][0] if frames else 0, depth=len(frames),
            start=round(start - origin, 6), dur=round(end - start, 6), **fields,
        )

    def span(self, name: str, **attrs):
        """Context manager over :meth:`begin`/:meth:`end` (exception-safe).

        Disabled telemetry returns a shared no-op context manager, so
        unconditional ``with`` sites cost one attribute check and no
        allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, attrs)


class _SpanContext:
    """The live ``with tel.span(...)`` object: yields the span id."""

    __slots__ = ("_tel", "_name", "_attrs", "_sid")

    def __init__(self, tel: Telemetry, name: str, attrs: dict) -> None:
        self._tel, self._name, self._attrs = tel, name, attrs

    def __enter__(self) -> int:
        self._sid = self._tel.begin(self._name, **self._attrs)
        return self._sid

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._tel.end(self._sid)
        else:
            self._tel.end(self._sid, error=exc_type.__name__)


def enable_from_env(tel: Telemetry, environ=os.environ) -> bool:
    """Enable ``tel`` from :data:`TELEMETRY_ENV` if set; returns success.

    Import-time hook: a bad sink path logs a warning instead of raising,
    because breaking every ``import repro`` over a typo'd environment
    variable would be worse than losing the telemetry.
    """
    sink = environ.get(TELEMETRY_ENV)
    if not sink:
        return False
    try:
        tel.enable(sink)
        return True
    except ConfigError as exc:
        log.warning("%s ignored: %s", TELEMETRY_ENV, exc)
        return False


#: The process-wide telemetry instance every instrumentation point checks.
TELEMETRY = Telemetry()
enable_from_env(TELEMETRY)
