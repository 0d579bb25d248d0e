"""Distributed execution: asyncio job daemon + multi-host client backend.

The wire protocol is **newline-delimited JSON frames over TCP** - one JSON
object per line, no binary framing, so a daemon can be driven by hand with
``nc`` and frames stay greppable in captures.  Frame types:

* client -> daemon ``{"type": "hello", "wire": W, "job_schema": S}`` and the
  daemon's reply ``{"type": "hello", "wire": W, "job_schema": S,
  "workers": K}`` - both sides refuse mismatched schemas up front rather
  than misinterpreting payloads;
* client -> daemon ``{"type": "run", "id": I, "job": <Job.to_dict()>}`` -
  the job payload is the exact ``common/params.py``-hashed serialization the
  cache persists, so the daemon recomputes ``Job.key`` locally and traces
  regenerate deterministically on the remote host (job frames never carry
  trace bytes);
* daemon -> client ``{"type": "result", "id": I, "key": K, "stats":
  <RunStats.to_dict()>}`` or ``{"type": "error", "id": I, "message": M}``.

Bit-identity across the wire is structural: stats cross as the same
``RunStats.to_dict()`` JSON payloads the on-disk cache stores, and JSON
round-trips Python floats exactly (``repr`` graded), so a remote result is
byte-equal to a serial run of the same job.

``Daemon`` (the ``repro serve`` verb) fronts its own
:class:`~repro.runner.backends.process.ProcessBackend`: each ``run`` frame is
dispatched to the pool via an asyncio future, results stream back per
connection as they finish (out of order; the ``id`` correlates), and an
optional server-side :class:`~repro.runner.store.ResultStore` persists every
result under the same ``O_APPEND`` discipline the client uses.

``RemoteBackend`` shards a batch's tasks across hosts with a bounded
in-flight **window** per host, streams results back as they land, and
survives failures: a dropped connection requeues that host's outstanding
jobs at the front of the shared queue (any host may pick them up - including
the same one after it reconnects), reconnection retries back off linearly,
and a host that exhausts its retries is marked dead.  The batch fails only
when every host is dead with jobs outstanding, or a job itself raises
remotely (deterministic failures would fail on every host alike).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import queue
import signal
import socket
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.common.errors import ConfigError, RunnerError
from repro.faults import FAULTS
from repro.obs import TELEMETRY
from repro.runner.backends.local import Task
from repro.runner.backends.process import ProcessBackend
from repro.runner.job import JOB_SCHEMA, Job
from repro.runner.store import ResultStore

#: Bump when the frame grammar changes incompatibly.  Job payload
#: compatibility is covered separately by ``job_schema`` in the handshake.
WIRE_SCHEMA = 1

#: Version of the daemon ``stats`` frame body (``repro serve-stats``); bumped
#: when its fields change incompatibly, independent of the wire grammar.
STATS_SCHEMA = 1

log = logging.getLogger("repro.runner.remote")

#: Default daemon port (unregistered range; override with ``--port``).
DEFAULT_PORT = 8642
#: Default in-flight window per host: deep enough to hide one round-trip
#: behind simulation time, shallow enough that a dying host strands little.
DEFAULT_WINDOW = 4


# ----------------------------------------------------------------------
# Frame plumbing
# ----------------------------------------------------------------------
def encode_frame(frame: dict) -> bytes:
    """One frame -> one compact JSON line (the only bytes on the wire)."""
    return (json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


#: StreamReader line limit.  Frames are ~1 KB in practice (a result frame at
#: 64-core small scale measures under 1 KiB), but histograms scale with the
#: configuration, so leave generous headroom over asyncio's 64 KiB default.
STREAM_LIMIT = 4 * 1024 * 1024


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Next frame from the stream, or ``None`` on clean EOF."""
    line = await reader.readline()
    if not line:
        return None
    if not line.endswith(b"\n"):
        # EOF mid-line: a peer died while flushing a frame.  That is
        # transport death (requeue/reconnect), not a protocol violation.
        raise ConnectionError("stream ended mid-frame")
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RunnerError(f"malformed wire frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise RunnerError(f"malformed wire frame: {line!r}")
    return frame


def parse_hosts(spec: str | Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """``"h1:p1,h2:p2"`` -> ``(("h1", p1), ("h2", p2))`` (pairs pass through)."""
    if not isinstance(spec, str):
        hosts = tuple((host, int(port)) for host, port in spec)
    else:
        hosts = ()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            host, sep, port = part.rpartition(":")
            if not sep or not host:
                raise ConfigError(f"host spec needs host:port, got {part!r}")
            try:
                hosts += ((host, int(port)),)
            except ValueError:
                raise ConfigError(f"invalid port in host spec {part!r}") from None
    if not hosts:
        raise ConfigError("remote backend needs at least one host:port")
    return hosts


# ----------------------------------------------------------------------
# Daemon (the `repro serve` verb)
# ----------------------------------------------------------------------
class Daemon:
    """Asyncio TCP server fronting a local process pool.

    Shutdown is **graceful on request** (:meth:`request_drain`, wired to
    ``SIGTERM`` by :meth:`serve`): the listener stops accepting, every open
    connection stops reading new frames, in-flight jobs finish and their
    reply frames flush, then :meth:`serve` returns.  A client mid-batch sees
    a clean EOF after its outstanding replies - a requeue-free handoff -
    instead of torn frames and stranded jobs.
    """

    def __init__(
        self,
        workers: int = 1,
        store: ResultStore | None = None,
        job_timeout: float | None = None,
    ) -> None:
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigError(f"job_timeout must be > 0, got {job_timeout}")
        self.workers = max(1, workers)
        self.store = store
        self.backend = ProcessBackend(workers=self.workers)
        #: Per-job wall-clock budget: a pool worker that wedges past this is
        #: killed with its pool (a fresh one spawns on demand) and the client
        #: gets an ``error`` frame instead of an eternally silent daemon.
        self.job_timeout = job_timeout
        #: Results served over the daemon's lifetime (for the shutdown line).
        self.served = 0
        #: Live-introspection counters behind the ``stats`` wire frame.
        self.errors = 0
        self.active_jobs = 0
        self.connections = 0
        self.total_connections = 0
        self._started = time.monotonic()
        #: Graceful-shutdown plumbing (created on the serve loop).
        self.drained = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Ask the daemon to drain and exit; safe from any thread/signal.

        Idempotent; a no-op before :meth:`serve` has bound its loop.
        """
        loop, event = self._loop, self._drain_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)

    def stats_frame(self) -> dict:
        """The ``stats`` reply body (the ``repro serve-stats`` payload).

        Schema-versioned alongside the handshake: clients check
        ``stats_schema`` before interpreting fields, exactly as the hello
        frame pins ``wire``/``job_schema``.
        """
        return {
            "type": "stats",
            "stats_schema": STATS_SCHEMA,
            "wire": WIRE_SCHEMA,
            "job_schema": JOB_SCHEMA,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.workers,
            "served": self.served,
            "errors": self.errors,
            "active_jobs": self.active_jobs,
            "connections": self.connections,
            "total_connections": self.total_connections,
            "caching": self.store is not None,
        }

    # ------------------------------------------------------------------
    async def _submit(self, payload: dict) -> tuple[str, dict]:
        """Bridge one job onto the pool; resolves on a loop-safe future."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _resolve(setter, value):
            if not future.done():
                setter(value)

        self.backend.submit(
            (payload, None),
            callback=lambda result: loop.call_soon_threadsafe(
                _resolve, future.set_result, result
            ),
            error_callback=lambda exc: loop.call_soon_threadsafe(
                _resolve, future.set_exception, exc
            ),
        )
        return await future

    async def _serve_request(
        self, frame: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        rid = frame.get("id")
        if FAULTS.active:
            rule = FAULTS.trigger("daemon.stall")
            if rule is not None:
                # Wedged daemon: the job never starts and no reply ever
                # flushes.  The client's frame_timeout must treat this
                # exactly like a dead connection.
                await asyncio.sleep(float(rule.arg("stall_s", 3600.0)))
        self.active_jobs += 1
        try:
            if self.job_timeout is not None:
                key, stats = await asyncio.wait_for(
                    self._submit(frame["job"]), timeout=self.job_timeout
                )
            else:
                key, stats = await self._submit(frame["job"])
        except asyncio.CancelledError:
            raise
        except asyncio.TimeoutError as exc:
            # Hung pool worker: kill the pool (other in-flight submits hit
            # their own wait_for budgets; a fresh pool spawns on demand) and
            # tell the client loudly rather than going silent.
            self.errors += 1
            self.backend.close()
            log.warning("job %r exceeded job_timeout=%.1fs; pool recycled",
                        rid, self.job_timeout)
            reply = {
                "type": "error", "id": rid,
                "message": f"TimeoutError: job exceeded daemon "
                           f"job_timeout={self.job_timeout}s ({exc or 'hung worker'})",
            }
        except Exception as exc:  # job failure is a frame, not a dead daemon
            self.errors += 1
            reply = {"type": "error", "id": rid, "message": f"{type(exc).__name__}: {exc}"}
        else:
            if self.store is not None:
                self.store.put(Job.from_dict(frame["job"]), stats)
            reply = {"type": "result", "id": rid, "key": key, "stats": stats}
            self.served += 1
        finally:
            self.active_jobs -= 1
        if FAULTS.active and FAULTS.trigger("daemon.frame_drop") is not None:
            # The job ran (and cached, if caching) but the reply evaporates:
            # the client must recover via frame_timeout + requeue, and the
            # re-run is dedup'd bit-identically by content key.
            return
        try:
            async with write_lock:
                writer.write(encode_frame(reply))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client vanished mid-reply; it requeues the job on its side

    async def _next_frame(self, reader: asyncio.StreamReader) -> dict | str | None:
        """``read_frame`` racing the drain event; ``"drain"`` when it wins."""
        if self._drain_event is None:  # serve() not driving (direct tests)
            return await read_frame(reader)
        read = asyncio.ensure_future(read_frame(reader))
        drain = asyncio.ensure_future(self._drain_event.wait())
        try:
            await asyncio.wait({read, drain}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            drain.cancel()
            if not read.done():
                read.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await read
        if not read.done() or read.cancelled():
            return "drain"
        return read.result()  # re-raises read_frame's failures

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn_task = asyncio.current_task()
        if conn_task is not None:
            # serve() gathers these on drain so in-flight replies flush
            # before the process exits.
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()
        draining = False
        try:
            hello = await read_frame(reader)
            if hello is None:
                return
            if (
                hello.get("type") != "hello"
                or hello.get("wire") != WIRE_SCHEMA
                or hello.get("job_schema") != JOB_SCHEMA
            ):
                writer.write(encode_frame({
                    "type": "error",
                    "id": None,
                    "message": f"schema mismatch: daemon speaks wire={WIRE_SCHEMA} "
                               f"job_schema={JOB_SCHEMA}, got {hello!r}",
                }))
                await writer.drain()
                return
            writer.write(encode_frame({
                "type": "hello",
                "wire": WIRE_SCHEMA,
                "job_schema": JOB_SCHEMA,
                "workers": self.workers,
            }))
            await writer.drain()
            self.connections += 1
            self.total_connections += 1
            try:
                while True:
                    frame = await self._next_frame(reader)
                    if frame == "drain":
                        # Graceful shutdown: stop reading, let in-flight
                        # replies flush (the finally gathers them), then EOF.
                        draining = True
                        return
                    if frame is None:
                        return  # client hung up; in-flight replies have nowhere to go
                    if FAULTS.active:
                        rule = FAULTS.trigger("daemon.conn_reset")
                        if rule is not None:
                            raise ConnectionResetError(
                                "fault injected: daemon.conn_reset"
                            )
                        rule = FAULTS.trigger("daemon.kill")
                        if rule is not None:
                            os._exit(int(rule.arg("exit_code", 9)))
                    if frame["type"] == "stats":
                        # Live introspection: answered inline (never queued
                        # behind the pool), so a saturated daemon still
                        # reports its stats promptly.
                        async with write_lock:
                            writer.write(encode_frame(self.stats_frame()))
                            await writer.drain()
                        continue
                    if frame["type"] != "run":
                        raise RunnerError(f"unexpected frame type {frame['type']!r}")
                    task = asyncio.create_task(self._serve_request(frame, writer, write_lock))
                    inflight.add(task)
                    task.add_done_callback(inflight.discard)
            finally:
                self.connections -= 1
        except (ConnectionError, RunnerError, asyncio.IncompleteReadError):
            return  # one bad client must not take the daemon down
        finally:
            if draining and inflight:
                await asyncio.gather(*list(inflight), return_exceptions=True)
            for task in inflight:
                task.cancel()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # ------------------------------------------------------------------
    async def serve(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, ready=None):
        """Listen until drained; ``ready(host, bound_port)`` fires once bound.

        Runs forever unless :meth:`request_drain` fires (``SIGTERM`` is wired
        to it when the loop runs on the main thread), then: stop accepting,
        flush every in-flight reply, return.  ``server.wait_closed`` is
        deliberately avoided - on Python 3.12+ it waits for all open
        connections, which is exactly the drain we orchestrate by hand.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_event = asyncio.Event()
        server = await asyncio.start_server(self._handle, host, port, limit=STREAM_LIMIT)
        bound_port = server.sockets[0].getsockname()[1]
        try:
            # Signal handlers attach only on the main thread; in-process
            # test daemons (serve on a helper thread) drain via
            # request_drain() directly.
            loop.add_signal_handler(signal.SIGTERM, self.request_drain)
            sigterm_wired = True
        except (NotImplementedError, RuntimeError, ValueError):
            sigterm_wired = False
        if ready is not None:
            ready(host, bound_port)
        serving = asyncio.ensure_future(server.serve_forever())
        drain = asyncio.ensure_future(self._drain_event.wait())
        try:
            await asyncio.wait({serving, drain}, return_when=asyncio.FIRST_COMPLETED)
            if serving.done() and not drain.done():
                await serving  # propagate the listener's failure
                return
            self.drained = True
            server.close()  # stop accepting; open connections drain below
            if self._conn_tasks:
                await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
            log.info(
                "drained: %d result(s) served, %d error(s), shutting down",
                self.served, self.errors,
            )
            if TELEMETRY.enabled:
                TELEMETRY.event(
                    "daemon.drain", served=self.served, errors=self.errors,
                )
        finally:
            drain.cancel()
            serving.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serving
            if sigterm_wired:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(signal.SIGTERM)
            server.close()
            self._loop = None

    def close(self) -> None:
        self.backend.close()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    workers: int = 1,
    store: ResultStore | None = None,
    announce=print,
    job_timeout: float | None = None,
) -> int:
    """Blocking daemon entry point for the ``repro serve`` CLI verb.

    The readiness line ("listening on HOST:PORT") goes to stdout *after* the
    socket is bound, so callers (tests, CI, shell scripts) can start the
    daemon with ``--port 0`` and parse the kernel-assigned port.  ``SIGTERM``
    drains gracefully (in-flight jobs finish, replies flush, then exit);
    ``SIGINT``/Ctrl-C remains the fast abort.
    """
    FAULTS.role = "daemon"
    daemon = Daemon(workers=workers, store=store, job_timeout=job_timeout)

    def ready(bound_host: str, bound_port: int) -> None:
        announce(
            f"repro serve: listening on {bound_host}:{bound_port} "
            f"({daemon.workers} workers"
            + (f", cache={store.directory}" if store is not None else "")
            + ")",
            flush=True,
        )

    # Advertise the daemon as a live cache appender so `repro cache compact`
    # on the same directory refuses while results may still stream in.
    lock = store.writer_lock() if store is not None else contextlib.nullcontext()
    try:
        with lock:
            asyncio.run(daemon.serve(host, port, ready))
    except KeyboardInterrupt:
        announce(f"repro serve: stopped after {daemon.served} results", flush=True)
    else:
        announce(
            f"repro serve: drained, stopped after {daemon.served} results",
            flush=True,
        )
    finally:
        daemon.close()
    return 0


# ----------------------------------------------------------------------
# Live daemon introspection (the `repro serve-stats` verb)
# ----------------------------------------------------------------------
def fetch_stats(host: str, port: int, timeout: float = 10.0) -> dict:
    """Query one live daemon's ``stats`` frame (one-shot, synchronous).

    Speaks the same handshake as :class:`RemoteBackend`, so schema refusal
    and daemon identity checks behave identically; the reply is the
    :meth:`Daemon.stats_frame` dict.  Raises
    :class:`~repro.common.errors.RunnerError` on refusal or a malformed
    peer, ``OSError`` on transport failure.
    """
    name = f"{host}:{port}"
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        fh = sock.makefile("rwb")
        try:
            fh.write(encode_frame({
                "type": "hello", "wire": WIRE_SCHEMA, "job_schema": JOB_SCHEMA,
            }))
            fh.flush()
            hello = _read_sync_frame(fh, name)
            if hello.get("type") == "error":
                raise RunnerError(f"{name}: {hello.get('message')}")
            if hello.get("type") != "hello":
                raise RunnerError(f"{name}: incompatible daemon handshake: {hello!r}")
            fh.write(encode_frame({"type": "stats"}))
            fh.flush()
            frame = _read_sync_frame(fh, name)
            if frame.get("type") != "stats":
                raise RunnerError(f"{name}: expected a stats frame, got {frame!r}")
            if frame.get("stats_schema") != STATS_SCHEMA:
                raise RunnerError(
                    f"{name}: stats schema {frame.get('stats_schema')!r}, "
                    f"this client speaks {STATS_SCHEMA}"
                )
            return frame
        finally:
            fh.close()


def _read_sync_frame(fh, name: str) -> dict:
    """Blocking counterpart of :func:`read_frame` for one-shot queries."""
    line = fh.readline()
    if not line:
        raise ConnectionError(f"{name}: daemon closed the connection")
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RunnerError(f"{name}: malformed wire frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise RunnerError(f"{name}: malformed wire frame: {line!r}")
    return frame


# ----------------------------------------------------------------------
# Client backend
# ----------------------------------------------------------------------
class _BatchState:
    """Shared dispatch state: one job queue, many host loops (one event loop)."""

    def __init__(self, payloads: list[dict]) -> None:
        self.queue: deque[tuple[int, dict]] = deque(enumerate(payloads))
        self.remaining = len(payloads)
        self.emitted: set[int] = set()
        self.dead_hosts = 0
        self.failure: BaseException | None = None
        self.cond = asyncio.Condition()

    def settled(self) -> bool:
        return self.remaining == 0 or self.failure is not None


@dataclass
class RemoteBackend:
    """Shards a batch's jobs across ``repro serve`` daemons over TCP.

    Connections are per-batch (opened lazily in :meth:`run_batch`, torn down
    when it finishes), so a daemon restarted between batches is picked up
    transparently, and :meth:`close` has nothing persistent to release.
    """

    hosts: tuple[tuple[str, int], ...]
    #: Max in-flight jobs per host.
    window: int = DEFAULT_WINDOW
    #: Reconnection attempts per host before it is declared dead...
    connect_retries: int = 5
    #: ...with capped exponential backoff: attempt *n* waits
    #: ``min(retry_delay * 2**(n-1), retry_max_delay)`` seconds, scaled by a
    #: deterministic jitter derived from the host name (see
    #: :meth:`_backoff_delay`).
    retry_delay: float = 0.2
    #: Backoff ceiling: a long daemon outage polls at this cadence instead
    #: of growing per-attempt sleeps without bound.
    retry_max_delay: float = 5.0
    #: Per-reply wall-clock budget (seconds) while jobs are in flight.
    #: ``None`` waits forever (the historical behavior).  When set, a host
    #: that stalls mid-batch - wedged worker, livelocked daemon, black-holed
    #: TCP session - is treated exactly like a dropped connection: its
    #: outstanding jobs requeue onto other hosts and the stalled host gets
    #: its bounded reconnect budget.  Size it well above the longest
    #: legitimate job: a daemon replies only when a job *finishes*.
    frame_timeout: float | None = None

    #: Job frames never carry trace bytes: daemons regenerate traces
    #: deterministically from the payload, so the parent skips compiling them.
    wants_traces = False
    source = "remote"

    #: Per-host lifetime introspection, keyed ``"host:port"``:
    #: ``{"completed", "requeued", "reconnects", "dead"}``.  Updated at every
    #: failover decision and mirrored to telemetry counters per batch, so
    #: dead-host debugging needs neither a packet capture nor a debugger.
    host_stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.hosts = parse_hosts(self.hosts)
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.retry_delay <= 0:
            raise ConfigError(f"retry_delay must be > 0, got {self.retry_delay}")
        if self.retry_max_delay < self.retry_delay:
            raise ConfigError(
                f"retry_max_delay ({self.retry_max_delay}) must be >= "
                f"retry_delay ({self.retry_delay})"
            )
        if self.frame_timeout is not None and self.frame_timeout <= 0:
            raise ConfigError(f"frame_timeout must be > 0, got {self.frame_timeout}")

    def _backoff_delay(self, host_name: str, attempt: int) -> float:
        """Reconnect sleep before attempt ``attempt`` (1-based) to one host.

        Exponential in the attempt number, capped at ``retry_max_delay`` so
        a long outage cannot grow per-attempt sleeps without bound, and
        scaled into ``[0.5, 1.0) x base`` by a jitter that is a pure
        function of ``(host name, attempt)`` - different hosts desynchronize
        their reconnect storms, yet every run of the same configuration
        sleeps identically (the determinism the chaos tier and the
        fake-clock test pin).
        """
        base = min(self.retry_delay * (2.0 ** (attempt - 1)), self.retry_max_delay)
        jitter = zlib.crc32(f"{host_name}#{attempt}".encode("utf-8")) % 1000 / 1000.0
        return base * (0.5 + 0.5 * jitter)

    def _host_entry(self, name: str) -> dict:
        entry = self.host_stats.get(name)
        if entry is None:
            entry = self.host_stats[name] = {
                "completed": 0, "requeued": 0, "reconnects": 0, "dead": False,
            }
        return entry

    def _note_failover(self, event: str, host: str, attempts: int, **attrs) -> None:
        """Record one failover decision: a log line + a telemetry event.

        These paths used to swallow their causes inside ``except
        (ConnectionError, OSError)`` - debugging a dead host meant a packet
        capture.  Every decision now names the host, the attempt count and
        the outstanding-job count.
        """
        level = logging.WARNING if event == "remote.host_dead" else logging.INFO
        log.log(
            level, "%s: %s (attempt %d/%d%s)", host, event.removeprefix("remote."),
            attempts, self.connect_retries + 1,
            "".join(f", {k}={v}" for k, v in attrs.items()),
        )
        if TELEMETRY.enabled:
            TELEMETRY.event(event, host=host, attempts=attempts, **attrs)

    # ------------------------------------------------------------------
    def run_batch(self, tasks: Iterable[Task]) -> Iterator[tuple[str, dict]]:
        """Shard tasks across hosts; yields results as daemons return them.

        The asyncio dispatcher runs on a helper thread so this stays an
        ordinary synchronous iterator for the runner: results stream through
        a queue and are yielded (and therefore persisted by the caller) the
        moment each lands, not when the batch completes.
        """
        payloads = [payload for payload, _trace in tasks]
        if not payloads:
            return
        results: queue.Queue = queue.Queue()
        control: dict = {"ready": threading.Event()}
        worker = threading.Thread(
            target=self._dispatch_thread, args=(payloads, results, control), daemon=True
        )
        worker.start()
        settled = False
        try:
            while True:
                kind, value = results.get()
                if kind == "result":
                    yield value
                else:
                    settled = True
                    if kind == "error":
                        raise value
                    return  # "done"
        finally:
            if not settled:
                # The consumer abandoned the iterator mid-batch (Ctrl-C, a
                # store failure...): poison the dispatcher so join() returns
                # now instead of after the rest of the sweep completes.
                # Wait for the dispatcher to publish its loop first - an
                # abort in the brief startup window would otherwise no-op
                # and leave join() waiting out the whole batch.  If the
                # dispatcher died before signalling, join() returns anyway.
                control["ready"].wait(timeout=5.0)
                self._poison(control, RunnerError("result consumer aborted the batch"))
            worker.join()

    @staticmethod
    def _poison(control: dict, exc: BaseException) -> None:
        """Wake the dispatch loop with a failure, from any thread."""
        loop = control.get("loop")
        state = control.get("state")
        if loop is None or loop.is_closed():
            return

        async def _set() -> None:
            async with state.cond:
                if state.failure is None:
                    state.failure = exc
                state.cond.notify_all()

        with contextlib.suppress(RuntimeError):  # loop finished in between
            asyncio.run_coroutine_threadsafe(_set(), loop)

    def _dispatch_thread(
        self, payloads: list[dict], results: queue.Queue, control: dict
    ) -> None:
        try:
            asyncio.run(self._dispatch(payloads, results, control))
        except BaseException as exc:  # surfaced on the consuming thread
            results.put(("error", exc))
        else:
            results.put(("done", None))

    async def _dispatch(
        self, payloads: list[dict], results: queue.Queue, control: dict
    ) -> None:
        state = _BatchState(payloads)
        control["loop"] = asyncio.get_running_loop()
        control["state"] = state
        control["ready"].set()
        #: host_stats snapshot: counters emitted per batch are deltas, so a
        #: backend reused across batches (figure galleries) never double-counts.
        base = {name: dict(entry) for name, entry in self.host_stats.items()}
        loops = [
            asyncio.create_task(self._host_loop(host, state, results))
            for host in self.hosts
        ]
        try:
            async with state.cond:
                await state.cond.wait_for(
                    lambda: state.settled() or state.dead_hosts == len(self.hosts)
                )
        finally:
            for task in loops:
                task.cancel()
            await asyncio.gather(*loops, return_exceptions=True)
            if TELEMETRY.enabled:
                for name, entry in self.host_stats.items():
                    before = base.get(name, {})
                    for counter in ("completed", "requeued", "reconnects"):
                        TELEMETRY.count(
                            f"remote.{counter}",
                            entry[counter] - before.get(counter, 0),
                            host=name,
                        )
        if state.failure is not None:
            raise state.failure
        if state.remaining:
            raise RunnerError(
                f"all {len(self.hosts)} remote hosts failed with "
                f"{state.remaining} jobs outstanding"
            )

    # ------------------------------------------------------------------
    async def _host_loop(
        self, host: tuple[str, int], state: _BatchState, results: queue.Queue
    ) -> None:
        """One host's lifecycle: connect -> pump window -> requeue on failure."""
        name = f"{host[0]}:{host[1]}"
        hs = self._host_entry(name)
        attempts = 0
        while True:
            async with state.cond:
                # Don't burn a connection while there is nothing to do: wake
                # on requeued work (another host died) or batch completion.
                await state.cond.wait_for(lambda: state.queue or state.settled())
                if state.settled():
                    return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*host, limit=STREAM_LIMIT), timeout=10.0
                )
            except (OSError, asyncio.TimeoutError) as exc:
                attempts += 1
                hs["reconnects"] += 1
                self._note_failover(
                    "remote.connect_failed", name, attempts,
                    outstanding=0, detail=f"{type(exc).__name__}: {exc}",
                )
                if attempts > self.connect_retries:
                    hs["dead"] = True
                    self._note_failover(
                        "remote.host_dead", name, attempts,
                        outstanding=len(state.queue),
                    )
                    async with state.cond:
                        state.dead_hosts += 1
                        state.cond.notify_all()
                    return
                await asyncio.sleep(self._backoff_delay(name, attempts))
                continue
            outstanding: dict[int, dict] = {}
            served = [0]  # results this connection delivered (progress marker)
            try:
                await self._handshake(name, reader, writer)
                await self._pump(reader, writer, state, outstanding, served, results, hs)
                return
            except Exception as exc:  # CancelledError (BaseException) passes
                if not isinstance(exc, (ConnectionError, OSError, EOFError,
                                        asyncio.IncompleteReadError,
                                        asyncio.TimeoutError)):
                    # Protocol or job failure (including anything unexpected,
                    # e.g. a malformed frame from a foreign daemon):
                    # deterministic, poison the whole batch rather than hang.
                    failure = exc if isinstance(exc, RunnerError) else RunnerError(
                        f"{name}: {type(exc).__name__}: {exc}"
                    )
                    async with state.cond:
                        state.failure = failure
                        state.cond.notify_all()
                    return
                # Transport death mid-batch: hand this host's outstanding jobs
                # back to the shared queue (front, to keep input order tight)
                # and try to reconnect.  Only a connection that actually
                # delivered results resets the retry budget - a handshake
                # alone must not, or a crash-looping daemon could trap the
                # client in an infinite requeue cycle with zero progress.
                requeued = 0
                async with state.cond:
                    for jid in sorted(outstanding, reverse=True):
                        if jid not in state.emitted:
                            state.queue.appendleft((jid, outstanding[jid]))
                            requeued += 1
                    state.cond.notify_all()
                if served[0]:
                    attempts = 0
                attempts += 1
                hs["requeued"] += requeued
                hs["reconnects"] += 1
                self._note_failover(
                    "remote.requeue", name, attempts,
                    outstanding=len(outstanding), requeued=requeued,
                    detail=f"{type(exc).__name__}: {exc}",
                )
                if attempts > self.connect_retries:
                    hs["dead"] = True
                    self._note_failover(
                        "remote.host_dead", name, attempts,
                        outstanding=len(state.queue),
                    )
                    async with state.cond:
                        state.dead_hosts += 1
                        state.cond.notify_all()
                    return
                await asyncio.sleep(self._backoff_delay(name, attempts))
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    async def _handshake(
        self, name: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(encode_frame({
            "type": "hello", "wire": WIRE_SCHEMA, "job_schema": JOB_SCHEMA,
        }))
        await writer.drain()
        hello = await read_frame(reader)
        if hello is None:
            raise ConnectionError(f"{name}: daemon closed during handshake")
        if hello.get("type") == "error":
            raise RunnerError(f"{name}: {hello.get('message')}")
        if hello.get("type") != "hello" or hello.get("job_schema") != JOB_SCHEMA:
            raise RunnerError(f"{name}: incompatible daemon handshake: {hello!r}")

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: _BatchState,
        outstanding: dict[int, dict],
        served: list[int],
        results: queue.Queue,
        hs: dict,
    ) -> None:
        """Keep the window full and drain result frames until the batch ends."""
        while True:
            async with state.cond:
                to_send = []
                while len(outstanding) < self.window and state.queue:
                    jid, payload = state.queue.popleft()
                    outstanding[jid] = payload
                    to_send.append((jid, payload))
                if not outstanding:
                    if state.settled():
                        return
                    # Idle but the batch isn't done: another host still holds
                    # jobs that may come back if it dies.  Sleep on the
                    # condition instead of busy-polling the queue.
                    await state.cond.wait()
                    continue
            for jid, payload in to_send:
                writer.write(encode_frame({"type": "run", "id": jid, "job": payload}))
            await writer.drain()
            if self.frame_timeout is not None:
                # A stalled host is handled exactly like a dropped one: the
                # TimeoutError lands in _host_loop's transport-death tuple,
                # so outstanding jobs requeue and this host gets its bounded
                # reconnect budget.
                frame = await asyncio.wait_for(
                    read_frame(reader), timeout=self.frame_timeout
                )
            else:
                frame = await read_frame(reader)
            if frame is None:
                raise ConnectionError("daemon disconnected with jobs in flight")
            ftype = frame.get("type")
            if ftype == "error":
                raise RunnerError(f"remote job failed: {frame.get('message')}")
            if ftype != "result":
                raise RunnerError(f"unexpected frame type {ftype!r}")
            jid = frame.get("id")
            if outstanding.pop(jid, None) is None:
                continue  # stale duplicate after a requeue cycle; ignore
            served[0] += 1
            hs["completed"] += 1
            async with state.cond:
                if jid not in state.emitted:
                    state.emitted.add(jid)
                    state.remaining -= 1
                    results.put(("result", (frame["key"], frame["stats"])))
                state.cond.notify_all()

    def close(self) -> None:
        """Connections are per-batch; nothing persistent to release."""
