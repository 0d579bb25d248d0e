"""ParallelRunner: serial/parallel bit-identity, caching, worker isolation.

The parallel tests use the real ``spawn`` start method (the strictest one:
workers inherit nothing) with 2 workers, as the CI smoke sweep does.
"""

from __future__ import annotations

import json
import multiprocessing
import random

import pytest

from repro.common.params import baseline_protocol
from repro.experiments.harness import adaptive_protocol, bench_arch
from repro.runner.backends.local import build_trace, execute_job, run_task
from repro.runner.job import Job
from repro.runner.parallel import ParallelRunner
from repro.runner.store import ResultStore
from repro.sim.stats import RunStats


def _jobs() -> list[Job]:
    arch = bench_arch(16)
    return [
        Job(workload=name, proto=proto, arch=arch, scale="tiny")
        for name in ("tsp", "matmul")
        for proto in (baseline_protocol(), adaptive_protocol(4))
    ]


def _dumps(stats: RunStats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


def _columns(trace) -> tuple:
    """Every record of ``trace``, as its columnar IR."""
    return trace.ops, trace.addresses, trace.works


@pytest.fixture(scope="module")
def serial_results() -> list[RunStats]:
    return ParallelRunner(workers=1).run(_jobs())


class TestSerialPath:
    def test_results_align_with_jobs(self, serial_results):
        jobs = _jobs()
        assert len(serial_results) == len(jobs)
        for job, stats in zip(jobs, serial_results):
            assert stats.benchmark == job.workload
            assert stats.completion_time > 0

    def test_duplicate_jobs_share_one_simulation(self):
        job = _jobs()[0]
        runner = ParallelRunner(workers=1)
        first, second = runner.run([job, job])
        assert first is second
        assert runner.simulations == 1

    def test_matches_direct_execution(self, serial_results):
        direct = execute_job(_jobs()[0])
        assert _dumps(direct) == _dumps(serial_results[0])


class TestParallelPath:
    def test_two_workers_bit_identical_to_serial(self, serial_results):
        parallel = ParallelRunner(workers=2).run(_jobs())
        for a, b in zip(serial_results, parallel):
            assert _dumps(a) == _dumps(b)

    def test_progress_reports_every_job(self):
        seen = []
        runner = ParallelRunner(
            workers=2, progress=lambda done, total, job, source: seen.append((done, total, source))
        )
        runner.run(_jobs())
        assert len(seen) == len(_jobs())
        assert seen[-1][0] == seen[-1][1] == len(_jobs())
        assert all(source == "parallel" for _, _, source in seen)

    def test_cache_hit_progress_counts_increment(self, tmp_path):
        jobs = _jobs()
        ParallelRunner(store=ResultStore(tmp_path), workers=1).run(jobs)
        seen = []
        warm = ParallelRunner(
            store=ResultStore(tmp_path),
            progress=lambda done, total, job, source: seen.append((done, total, source)),
        )
        warm.run(jobs)
        assert [(d, t) for d, t, _ in seen] == [(i + 1, len(jobs)) for i in range(len(jobs))]
        assert all(source == "cache" for _, _, source in seen)


class TestCaching:
    def test_warm_cache_performs_zero_simulations(self, tmp_path, serial_results):
        jobs = _jobs()
        cold = ParallelRunner(store=ResultStore(tmp_path), workers=1)
        cold.run(jobs)
        assert cold.simulations == len(jobs)

        warm_store = ResultStore(tmp_path)
        warm = ParallelRunner(store=warm_store, workers=2)
        results = warm.run(jobs)
        assert warm.simulations == 0
        assert warm_store.hits == len(jobs)
        assert warm_store.misses == 0
        for a, b in zip(serial_results, results):
            assert _dumps(a) == _dumps(b)

    def test_config_change_misses_and_simulates(self, tmp_path):
        jobs = _jobs()
        ParallelRunner(store=ResultStore(tmp_path), workers=1).run(jobs)
        changed = [
            Job(workload=j.workload, proto=adaptive_protocol(2), arch=j.arch, scale=j.scale)
            for j in jobs[:1]
        ]
        runner = ParallelRunner(store=ResultStore(tmp_path), workers=1)
        runner.run(changed)
        assert runner.simulations == 1


# ----------------------------------------------------------------------
def _pollute_worker_state() -> None:
    """Pool initializer simulating a worker with dirty ambient RNG state."""
    random.seed(0xBAD)


class TestWorkerDeterminism:
    """Workers must derive all randomness from the job, never process state."""

    def test_worker_ignores_ambient_random_state(self, serial_results):
        job = _jobs()[0]
        context = multiprocessing.get_context("spawn")
        with context.Pool(1, initializer=_pollute_worker_state) as pool:
            key, payload = pool.apply(run_task, ((job.to_dict(), None),))
        assert key == job.key
        assert json.dumps(payload, sort_keys=True) == _dumps(serial_results[0])

    def test_parent_ambient_state_does_not_leak_into_traces(self):
        from repro.runner.backends import local as local_mod

        job = _jobs()[0]
        reference = _columns(build_trace(job))
        local_mod._TRACE_CACHE.clear()  # force a genuine rebuild
        random.seed(1234)  # deliberately pollute the parent
        rebuilt = _columns(build_trace(
            Job(workload=job.workload, proto=job.proto, arch=job.arch, scale=job.scale)
        ))
        assert rebuilt == reference

    def test_seed_variants_produce_different_traces(self):
        base = _jobs()[0]
        salted = Job(
            workload=base.workload, proto=base.proto, arch=base.arch,
            scale=base.scale, seed=1,
        )
        assert _columns(build_trace(base)) != _columns(build_trace(salted))

    def test_seed_variants_deterministic_across_processes(self):
        job = Job(
            workload="tsp", proto=adaptive_protocol(4), arch=bench_arch(16),
            scale="tiny", seed=5,
        )
        local = execute_job(job)
        context = multiprocessing.get_context("spawn")
        with context.Pool(1, initializer=_pollute_worker_state) as pool:
            _, payload = pool.apply(run_task, ((job.to_dict(), None),))
        assert json.dumps(payload, sort_keys=True) == _dumps(local)


class TestVerifyTwinDedup:
    def test_collapsed_twins_execute_the_checked_one(self, tmp_path):
        from repro.experiments.harness import bench_arch
        from repro.common.params import neat_protocol
        from repro.runner.job import Job
        from repro.runner.store import ResultStore

        plain = Job(workload="tsp", proto=neat_protocol(), arch=bench_arch(16), scale="tiny")
        checked = Job(workload="tsp", proto=neat_protocol(), arch=bench_arch(16),
                      scale="tiny", verify=True)
        store = ResultStore(tmp_path)
        runner = ParallelRunner(store=store)
        a, b = runner.run([plain, checked])
        assert runner.simulations == 1  # twins collapse to one execution...
        assert a.to_dict() == b.to_dict()
        # ...and the execution was the verified one: the entry satisfies a
        # later verified lookup without re-simulation.
        assert ResultStore(tmp_path).get(checked) is not None


class TestZeroCopyTraceDistribution:
    """The parent ships the compiled columnar IR with each dispatched job."""

    def test_worker_adopts_shipped_trace(self, serial_results):
        from repro.runner.backends import local as local_mod

        job = _jobs()[0]
        trace = build_trace(job)
        local_mod._TRACE_CACHE.clear()
        context = multiprocessing.get_context("spawn")
        with context.Pool(1, initializer=_pollute_worker_state) as pool:
            key, payload = pool.apply(run_task, ((job.to_dict(), trace),))
        assert key == job.key
        assert json.dumps(payload, sort_keys=True) == _dumps(serial_results[0])

    def test_shipped_trace_pickles_as_buffers_not_tuples(self):
        import pickle

        job = _jobs()[0]
        trace = build_trace(job)
        blob = pickle.dumps((job.to_dict(), trace))
        # The payload must be within a small factor of the raw column bytes
        # (24 B/record) - a tuple-of-records pickle is several times larger.
        raw = 24 * trace.total_records
        assert len(blob) < raw * 1.2 + 4096

    def test_parallel_results_identical_with_trace_shipping(self, tmp_path, serial_results):
        jobs = _jobs()
        runner = ParallelRunner(store=ResultStore(tmp_path), workers=2)
        try:
            results = runner.run(jobs)
        finally:
            runner.close()
        for a, b in zip(serial_results, results):
            assert _dumps(a) == _dumps(b)


class TestRunnerLifecycle:
    """The runner is a context manager: the backend dies with the block."""

    def test_with_block_closes_pool(self):
        with ParallelRunner(workers=2) as runner:
            runner.run(_jobs()[:2])
            assert runner._backend is not None
            assert runner._backend._pool is not None
        assert runner._backend is None

    def test_close_after_error_is_safe_and_reusable(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(Exception):
            with runner:
                runner.run([Job(workload="tsp", proto=baseline_protocol(),
                                arch=bench_arch(16), scale="no-such-scale")])
        # close() ran via __exit__; the runner still works afterwards.
        stats = runner.run(_jobs()[:1])
        assert stats[0].completion_time > 0
        runner.close()


class TestBenchVerb:
    def test_bench_verb_removed(self, capsys):
        # Throughput is perfbench's (perfbench/run.py): the old verb is an
        # argparse rejection now, not a second benchmark.
        from repro.runner.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--scale", "tiny"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
