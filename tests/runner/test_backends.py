"""Backend conformance: one mixed batch, every backend, bit-identical stats.

The ``ExecutionBackend`` contract promises that serial, pooled and remote
executions of one job are byte-equal.  This suite runs the same mixed job
batch (two workloads x two protocol families, one seeded variant) through

* ``LocalBackend`` (the serial reference),
* ``ProcessBackend`` with 2 spawn workers,
* ``RemoteBackend`` against two loopback ``repro serve`` daemon processes,

and asserts identical ``RunStats`` serializations, plus the failure-path
semantics the remote backend guarantees: requeue of a crashed host's
outstanding jobs onto survivors, reconnect after a daemon restart, schema
refusal, and dead-cluster errors.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigError, RunnerError
from repro.common.params import baseline_protocol
from repro.experiments.harness import adaptive_protocol, bench_arch
from repro.runner.backends import (
    LocalBackend,
    ProcessBackend,
    RemoteBackend,
    make_backend,
    parse_hosts,
)
from repro.runner.backends.remote import (
    JOB_SCHEMA,
    STATS_SCHEMA,
    WIRE_SCHEMA,
    encode_frame,
    fetch_stats,
)
from repro.runner.job import Job
from repro.runner.parallel import ParallelRunner


def _jobs() -> list[Job]:
    arch = bench_arch(16)
    jobs = [
        Job(workload=name, proto=proto, arch=arch, scale="tiny")
        for name in ("tsp", "matmul")
        for proto in (baseline_protocol(), adaptive_protocol(4))
    ]
    jobs.append(Job(workload="tsp", proto=baseline_protocol(), arch=arch,
                    scale="tiny", seed=3))
    return jobs


def _tasks(jobs):
    return [(job.to_dict(), None) for job in jobs]


def _canon(results: dict[str, dict]) -> dict[str, str]:
    return {key: json.dumps(stats, sort_keys=True) for key, stats in results.items()}


@pytest.fixture(scope="module")
def reference() -> dict[str, str]:
    """Serial reference results, keyed by job hash."""
    return _canon(dict(LocalBackend().run_batch(_tasks(_jobs()))))


# ----------------------------------------------------------------------
# Loopback daemons
# ----------------------------------------------------------------------
def _start_daemon(workers: int = 1, port: int = 0, cache: str | None = None):
    """Spawn ``repro serve`` as a subprocess; returns (proc, host, port)."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.runner.cli", "serve",
           "--port", str(port), "--workers", str(workers)]
    if cache is not None:
        cmd += ["--cache", cache]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
    )
    for _ in range(50):
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise AssertionError("daemon never announced readiness")


@pytest.fixture(scope="module")
def daemons():
    """Two loopback daemons, killed at module teardown."""
    started = [_start_daemon(workers=1), _start_daemon(workers=1)]
    try:
        yield [(host, port) for _, host, port in started]
    finally:
        for proc, _, _ in started:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
class TestConformance:
    def test_local_is_the_reference(self, reference):
        assert len(reference) == len(_jobs())

    def test_process_backend_matches_serial(self, reference):
        backend = ProcessBackend(workers=2)
        try:
            got = _canon(dict(backend.run_batch(_tasks(_jobs()))))
        finally:
            backend.close()
        assert got == reference

    def test_remote_backend_matches_serial(self, reference, daemons):
        backend = RemoteBackend(hosts=tuple(daemons), window=2)
        got = _canon(dict(backend.run_batch(_tasks(_jobs()))))
        assert got == reference

    def test_remote_through_runner_streams_and_orders(self, reference, daemons):
        seen = []
        backend = RemoteBackend(hosts=tuple(daemons), window=2)
        jobs = _jobs()
        with ParallelRunner(
            backend=backend,
            progress=lambda done, total, job, source: seen.append(source),
        ) as runner:
            results = runner.run(jobs)
        assert seen == ["remote"] * len(jobs)
        for job, stats in zip(jobs, results):
            assert json.dumps(stats.to_dict(), sort_keys=True) == reference[job.key]

    def test_single_task_process_batch_runs_inline(self, reference):
        backend = ProcessBackend(workers=2)
        job = _jobs()[0]
        got = dict(backend.run_batch([(job.to_dict(), None)]))
        assert backend.source == "serial"
        assert backend._pool is None  # no pool was spawned for one task
        assert _canon(got)[job.key] == reference[job.key]


class TestFactory:
    def test_auto_resolution(self):
        assert isinstance(make_backend("auto", workers=1), LocalBackend)
        assert isinstance(make_backend("auto", workers=4), ProcessBackend)
        assert isinstance(make_backend("auto", hosts="h:1"), RemoteBackend)

    def test_remote_requires_hosts(self):
        with pytest.raises(ConfigError):
            make_backend("remote")

    def test_hosts_reject_non_remote_backends(self):
        with pytest.raises(ConfigError):
            make_backend("process", workers=2, hosts="h:1")

    def test_parse_hosts(self):
        assert parse_hosts("a:1, b:2") == (("a", 1), ("b", 2))
        with pytest.raises(ConfigError):
            parse_hosts("no-port")
        with pytest.raises(ConfigError):
            parse_hosts("")


# ----------------------------------------------------------------------
# Failure-path semantics
# ----------------------------------------------------------------------
class _CrashingDaemon(threading.Thread):
    """A daemon that handshakes, swallows one run frame, then dies.

    First connection: completes the hello exchange, reads one ``run`` frame
    and drops the connection without replying (a daemon crash with a job in
    flight).  The listener then closes, so reconnection attempts fail and
    the client must declare this host dead after requeueing the job.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.saw_run_frame = threading.Event()

    def run(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            fh.readline()  # client hello
            fh.write(encode_frame({
                "type": "hello", "wire": WIRE_SCHEMA,
                "job_schema": JOB_SCHEMA, "workers": 1,
            }))
            fh.flush()
            if fh.readline():  # one run frame, never answered
                self.saw_run_frame.set()
        self.listener.close()


class _SilentDaemon(threading.Thread):
    """A wedged daemon: completes the handshake, then never replies."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            fh.readline()  # client hello
            fh.write(encode_frame({
                "type": "hello", "wire": WIRE_SCHEMA,
                "job_schema": JOB_SCHEMA, "workers": 1,
            }))
            fh.flush()
            while fh.readline():  # swallow run frames until the client leaves
                pass
        self.listener.close()


class _MalformedDaemon(threading.Thread):
    """Handshakes correctly, then replies to the first run frame with junk."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            fh.readline()
            fh.write(encode_frame({
                "type": "hello", "wire": WIRE_SCHEMA,
                "job_schema": JOB_SCHEMA, "workers": 1,
            }))
            fh.flush()
            frame = json.loads(fh.readline())
            fh.write(encode_frame({"type": "result", "id": frame["id"]}))  # no key/stats
            fh.flush()
            fh.readline()
        self.listener.close()


class TestRemoteFailureSemantics:
    def test_crashed_host_requeues_onto_survivor(self, reference, daemons):
        crasher = _CrashingDaemon()
        crasher.start()
        backend = RemoteBackend(
            hosts=(("127.0.0.1", crasher.port), daemons[0]),
            window=2, connect_retries=1, retry_delay=0.05,
        )
        got = _canon(dict(backend.run_batch(_tasks(_jobs()))))
        # The flaky host really held a job hostage, and the batch still
        # completed bit-identically via requeue on the survivor.
        assert crasher.saw_run_frame.wait(timeout=5)
        assert got == reference

    def test_daemon_restart_between_connect_retries(self, reference):
        proc, host, port = _start_daemon(workers=1)
        proc.kill()
        proc.wait()

        restarted = {}

        def bring_back() -> None:
            restarted["handle"] = _start_daemon(workers=1, port=port)

        reviver = threading.Timer(0.5, bring_back)
        reviver.start()
        backend = RemoteBackend(
            hosts=((host, port),), window=2,
            connect_retries=40, retry_delay=0.25,
        )
        try:
            job = _jobs()[0]
            got = _canon(dict(backend.run_batch([(job.to_dict(), None)])))
            assert got[job.key] == reference[job.key]
        finally:
            reviver.cancel()
            if "handle" in restarted:
                restarted["handle"][0].kill()
                restarted["handle"][0].wait()

    def test_abandoned_iterator_releases_the_dispatcher(self, daemons):
        """Breaking out of run_batch mid-stream must not hang on join().

        The silent host handshakes and then never answers, holding its
        window hostage: the dispatcher alone would wait on it forever, so
        only the consumer-abort poison lets ``close()`` return.
        """
        silent = _SilentDaemon()
        silent.start()
        backend = RemoteBackend(
            hosts=(("127.0.0.1", silent.port), daemons[0]), window=1
        )
        batch = backend.run_batch(_tasks(_jobs()))
        next(batch)  # at least one result arrives via the live daemon...
        closer = threading.Thread(target=batch.close, daemon=True)
        closer.start()  # ...then the consumer walks away mid-batch
        closer.join(timeout=15)
        assert not closer.is_alive(), "dispatcher failed to abort with the consumer"

    def test_malformed_result_frame_poisons_batch_instead_of_hanging(self):
        """A junk reply must surface as RunnerError, not a silent dead loop."""
        junk = _MalformedDaemon()
        junk.start()
        backend = RemoteBackend(hosts=(("127.0.0.1", junk.port),), window=1)
        with pytest.raises(RunnerError):
            list(backend.run_batch(_tasks(_jobs()[:1])))

    def test_all_hosts_dead_raises_runner_error(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            free_port = probe.getsockname()[1]
        backend = RemoteBackend(
            hosts=(("127.0.0.1", free_port),),
            connect_retries=0, retry_delay=0.01,
        )
        with pytest.raises(RunnerError, match="hosts failed"):
            list(backend.run_batch(_tasks(_jobs()[:1])))

    def test_schema_mismatch_is_refused(self, daemons):
        async def bad_hello() -> dict:
            reader, writer = await asyncio.open_connection(*daemons[0])
            writer.write(encode_frame({
                "type": "hello", "wire": WIRE_SCHEMA, "job_schema": -1,
            }))
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return json.loads(line)

        reply = asyncio.run(bad_hello())
        assert reply["type"] == "error"
        assert "schema mismatch" in reply["message"]


class TestInProcessDaemon:
    """Drive a ``Daemon`` through the library API (no subprocess)."""

    @pytest.fixture()
    def daemon(self):
        from repro.runner.backends import Daemon

        daemon = Daemon(workers=1)
        ready = threading.Event()
        bound: dict = {}

        def serve() -> None:
            async def main() -> None:
                bound["loop"] = asyncio.get_running_loop()

                def _ready(host: str, port: int) -> None:
                    bound["address"] = (host, port)
                    ready.set()

                await daemon.serve("127.0.0.1", 0, _ready)

            try:
                asyncio.run(main())
            except Exception:
                pass  # loop.stop() teardown races are not the test's concern

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=5)
        try:
            yield bound["address"]
        finally:
            bound["loop"].call_soon_threadsafe(bound["loop"].stop)
            thread.join(timeout=5)
            daemon.close()

    def test_served_results_match_reference(self, daemon, reference):
        backend = RemoteBackend(hosts=(daemon,), window=2)
        jobs = _jobs()[:2]
        got = _canon(dict(backend.run_batch(_tasks(jobs))))
        for job in jobs:
            assert got[job.key] == reference[job.key]

    def test_remote_job_failure_poisons_batch(self, daemon):
        payload = _jobs()[0].to_dict()
        payload["workload"] = "no-such-workload"
        backend = RemoteBackend(hosts=(daemon,))
        with pytest.raises(RunnerError, match="remote job failed"):
            list(backend.run_batch([(payload, None)]))


class TestServerSideStore:
    def test_daemon_persists_results_mergeable_into_client_cache(self, tmp_path, reference):
        from repro.runner.store import ResultStore

        server_cache = tmp_path / "server-cache"
        proc, host, port = _start_daemon(workers=1, cache=str(server_cache))
        try:
            backend = RemoteBackend(hosts=((host, port),), window=2)
            jobs = _jobs()[:2]
            dict(backend.run_batch(_tasks(jobs)))
        finally:
            proc.kill()
            proc.wait()
        # The daemon's store captured the runs; merging folds them locally.
        local = ResultStore(tmp_path / "client-cache")
        merged, skipped = local.merge(server_cache)
        assert (merged, skipped) == (2, 0)
        for job in jobs:
            stats = local.get(job)
            assert json.dumps(stats.to_dict(), sort_keys=True) == reference[job.key]


# ----------------------------------------------------------------------
class TestStatsFrame:
    """The daemon introspection frame: ``repro serve-stats`` wire contract."""

    def test_stats_frame_round_trips(self, daemons):
        host, port = daemons[0]
        stats = fetch_stats(host, port)
        assert stats["type"] == "stats"
        assert stats["stats_schema"] == STATS_SCHEMA
        assert stats["wire"] == WIRE_SCHEMA
        assert stats["job_schema"] == JOB_SCHEMA
        assert stats["workers"] == 1
        assert stats["caching"] is False
        assert stats["uptime_s"] >= 0
        assert stats["active_jobs"] == 0
        # The stats query itself is a live connection.
        assert stats["connections"] >= 1
        assert stats["total_connections"] >= stats["connections"]

    def test_served_count_advances_with_work(self, daemons):
        host, port = daemons[0]
        before = fetch_stats(host, port)["served"]
        backend = RemoteBackend(hosts=((host, port),), window=2)
        results = dict(backend.run_batch(_tasks(_jobs()[:2])))
        assert len(results) == 2
        after = fetch_stats(host, port)
        assert after["served"] >= before + 2
        assert after["errors"] == 0  # valid jobs only in this module

    def test_dead_host_raises(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(OSError):
            fetch_stats("127.0.0.1", free_port, timeout=2.0)


# ----------------------------------------------------------------------
class TestReconnectBackoff:
    """Capped exponential backoff with deterministic per-host jitter."""

    def _backend(self, **kw) -> RemoteBackend:
        defaults = dict(hosts=(("h", 1),), retry_delay=0.2, retry_max_delay=5.0)
        defaults.update(kw)
        return RemoteBackend(**defaults)

    def test_delays_are_deterministic_and_capped(self):
        backend = self._backend()
        delays = [backend._backoff_delay("h:1", n) for n in range(1, 12)]
        assert delays == [backend._backoff_delay("h:1", n) for n in range(1, 12)]
        for attempt, delay in enumerate(delays, start=1):
            base = min(0.2 * 2 ** (attempt - 1), 5.0)
            assert 0.5 * base <= delay < base  # jitter lands in [0.5, 1.0) x base
        # The old linear `attempts * retry_delay` grew without bound; the
        # cap pins a long outage to a steady polling cadence instead.
        assert self._backend()._backoff_delay("h:1", 1000) < 5.0

    def test_hosts_desynchronize(self):
        backend = self._backend()
        a = [backend._backoff_delay("hostA:1", n) for n in range(4, 8)]
        b = [backend._backoff_delay("hostB:1", n) for n in range(4, 8)]
        assert a != b

    def test_timeout_and_backoff_validation(self):
        with pytest.raises(ConfigError, match="retry_delay"):
            self._backend(retry_delay=0)
        with pytest.raises(ConfigError, match="retry_max_delay"):
            self._backend(retry_delay=1.0, retry_max_delay=0.5)
        with pytest.raises(ConfigError, match="frame_timeout"):
            self._backend(frame_timeout=0)

    def test_fake_clock_pins_the_reconnect_schedule(self, monkeypatch):
        """The sleeps a dead host actually costs are exactly the documented
        schedule - recorded via a patched (fake-clock) asyncio.sleep."""
        with socket.create_server(("127.0.0.1", 0)) as probe:
            free_port = probe.getsockname()[1]
        backend = RemoteBackend(
            hosts=(("127.0.0.1", free_port),),
            connect_retries=3, retry_delay=0.2, retry_max_delay=1.0,
        )
        recorded: list[float] = []
        real_sleep = asyncio.sleep

        async def fake_sleep(delay, *args, **kwargs):
            recorded.append(delay)
            return await real_sleep(0)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        with pytest.raises(RunnerError, match="hosts failed"):
            list(backend.run_batch(_tasks(_jobs()[:1])))
        name = f"127.0.0.1:{free_port}"
        assert recorded == [backend._backoff_delay(name, n) for n in (1, 2, 3)]


# ----------------------------------------------------------------------
class TestGracefulDrain:
    """SIGTERM drains the daemon: no torn frames, a clean EOF, a shutdown line."""

    def test_sigterm_after_serving_announces_drained(self, reference):
        proc, host, port = _start_daemon(workers=1)
        try:
            backend = RemoteBackend(hosts=((host, port),), window=2)
            got = _canon(dict(backend.run_batch(_tasks(_jobs()[:2]))))
            for key, canon in got.items():
                assert canon == reference[key]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
            assert proc.returncode == 0
            assert "drained, stopped after 2 results" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigterm_with_open_connection_is_a_clean_eof(self):
        proc, host, port = _start_daemon(workers=1)
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(encode_frame({
                    "type": "hello", "wire": WIRE_SCHEMA, "job_schema": JOB_SCHEMA,
                }))
                fh.flush()
                assert json.loads(fh.readline())["type"] == "hello"
                proc.send_signal(signal.SIGTERM)
                # The drain stops reading and closes cleanly: EOF, not a
                # mid-frame reset the client would classify as a crash.
                assert fh.readline() == b""
            out, _ = proc.communicate(timeout=15)
            assert proc.returncode == 0
            assert "drained" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_request_drain_is_thread_safe_and_returns_serve(self):
        from repro.runner.backends import Daemon

        daemon = Daemon(workers=1)
        ready = threading.Event()
        finished = threading.Event()

        def serve() -> None:
            asyncio.run(daemon.serve("127.0.0.1", 0, lambda h, p: ready.set()))
            finished.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=5)
        daemon.request_drain()  # from a foreign thread, no signal involved
        assert finished.wait(timeout=5), "serve() did not return on drain"
        assert daemon.drained
        thread.join(timeout=5)
        daemon.close()

    def test_request_drain_before_serve_is_a_noop(self):
        from repro.runner.backends import Daemon

        daemon = Daemon(workers=1)
        daemon.request_drain()  # nothing bound yet: must not raise
        assert not daemon.drained
        daemon.close()
