"""ResultStore: exact round-trips, hit/miss accounting, durability."""

from __future__ import annotations

import json

import pytest

from repro.experiments.harness import adaptive_protocol, bench_arch
from repro.runner.backends.local import execute_job
from repro.runner.job import Job
from repro.runner.store import ResultStore


@pytest.fixture(scope="module")
def job() -> Job:
    return Job(workload="tsp", proto=adaptive_protocol(4), arch=bench_arch(16), scale="tiny")


@pytest.fixture(scope="module")
def stats(job):
    return execute_job(job)


class TestRoundTrip:
    def test_get_returns_bit_identical_stats(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        loaded = store.get(job)
        assert loaded is not stats
        assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(
            stats.to_dict(), sort_keys=True
        )
        assert loaded.completion_time == stats.completion_time
        assert loaded.energy == stats.energy
        assert loaded.latency.total == stats.latency.total
        assert loaded.miss.breakdown() == stats.miss.breakdown()
        assert loaded.inval_histogram.counts == stats.inval_histogram.counts

    def test_survives_reopen(self, tmp_path, job, stats):
        ResultStore(tmp_path).put(job, stats)
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert job in reopened
        assert reopened.get(job).to_dict() == stats.to_dict()

    def test_config_change_misses(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        other = Job(
            workload=job.workload,
            proto=adaptive_protocol(5),
            arch=job.arch,
            scale=job.scale,
        )
        assert store.get(other) is None


class TestCounters:
    def test_hits_misses_stores(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        assert store.get(job) is None
        assert (store.hits, store.misses, store.stores) == (0, 1, 0)
        store.put(job, stats)
        assert store.stores == 1
        assert store.get(job) is not None
        assert (store.hits, store.misses) == (1, 1)


class TestRobustness:
    def test_torn_and_alien_lines_ignored(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"truncated": \n')
            fh.write(json.dumps({"schema": 9999, "key": "x", "stats": {}}) + "\n")
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1

    def test_last_write_wins(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        doctored = stats.to_dict()
        doctored["instructions"] += 1
        store.put(job, doctored)
        reopened = ResultStore(tmp_path)
        assert reopened.get(job).instructions == stats.instructions + 1

    def test_clear(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        assert store.clear() == 1
        assert len(store) == 0
        assert not store.path.exists()
        assert ResultStore(tmp_path).get(job) is None

    def test_describe_mentions_counts(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        assert "1 results" in store.describe()


class TestCompact:
    def _line_count(self, store):
        with store.path.open("r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def test_compact_drops_superseded_and_alien_lines(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        doctored = stats.to_dict()
        doctored["instructions"] += 1
        store.put(job, doctored)  # supersedes the first line
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"truncated": \n')  # torn write
            fh.write(json.dumps({"schema": 9999, "key": "x", "stats": {}}) + "\n")
        store = ResultStore(tmp_path)  # load ignores all three junk lines
        assert self._line_count(store) == 4
        kept, dropped = store.compact()
        assert (kept, dropped) == (1, 3)
        assert self._line_count(store) == 1

    def test_compact_round_trips(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        store.put(job, stats)  # duplicate line for the same key
        before = store.get(job).to_dict()
        store.compact()
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(job).to_dict() == before

    def test_compact_is_idempotent(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        store.put(job, stats)
        assert store.compact() == (1, 1)
        assert store.compact() == (1, 0)

    def test_compact_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.compact() == (0, 0)

    def test_cli_cache_compact_verb(self, tmp_path, job, stats, capsys):
        from repro.runner.cli import main as cli_main

        store = ResultStore(tmp_path)
        store.put(job, stats)
        store.put(job, stats)
        assert cli_main(["cache", "compact", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 1 entries" in out and "dropped 1" in out
        assert len(ResultStore(tmp_path)) == 1

    def test_compact_keeps_entries_appended_by_another_process(self, tmp_path, job, stats):
        writer = ResultStore(tmp_path)
        writer.put(job, stats)
        compactor = ResultStore(tmp_path)  # snapshot taken here
        other = Job(workload=job.workload, proto=adaptive_protocol(7),
                    arch=job.arch, scale=job.scale)
        writer.put(other, stats)  # appended after the compactor loaded
        kept, dropped = compactor.compact()
        assert (kept, dropped) == (2, 0)
        assert len(ResultStore(tmp_path)) == 2


class TestConcurrentAppendersAndMerge:
    def _other_job(self, job, pct=9):
        return Job(workload=job.workload, proto=adaptive_protocol(pct),
                   arch=job.arch, scale=job.scale)

    def test_interleaved_writers_lose_nothing(self, tmp_path, job, stats):
        """Two store instances (a daemon's and a client's) share one log."""
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        other = self._other_job(job)
        a.put(job, stats)
        b.put(other, stats)
        a.put(self._other_job(job, pct=11), stats)
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 3
        assert reopened.get(job) is not None
        assert reopened.get(other) is not None

    def test_put_appends_exactly_one_line(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        raw = store.path.read_bytes()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1
        json.loads(raw)  # the single line is one complete record

    def test_merge_folds_remote_entries(self, tmp_path, job, stats):
        local = ResultStore(tmp_path / "local")
        local.put(job, stats)
        remote = ResultStore(tmp_path / "remote")
        other = self._other_job(job)
        remote.put(job, stats)  # identical twin of the local entry
        remote.put(other, stats)  # new to the local cache
        merged, skipped = local.merge(tmp_path / "remote")
        assert (merged, skipped) == (1, 1)
        reopened = ResultStore(tmp_path / "local")
        assert len(reopened) == 2
        assert reopened.get(other).to_dict() == stats.to_dict()

    def test_merge_last_entry_per_key_wins(self, tmp_path, job, stats):
        local = ResultStore(tmp_path / "local")
        local.put(job, stats)
        remote = ResultStore(tmp_path / "remote")
        doctored = stats.to_dict()
        doctored["instructions"] += 1
        remote.put(job, doctored)
        merged, skipped = local.merge(remote)
        assert (merged, skipped) == (1, 0)
        # Replaying the merged log keeps the incoming (last) entry.
        assert ResultStore(tmp_path / "local").get(job).instructions == (
            stats.instructions + 1
        )

    def test_cli_cache_merge_verb(self, tmp_path, job, stats, capsys):
        from repro.runner.cli import main as cli_main

        ResultStore(tmp_path / "remote").put(job, stats)
        rc = cli_main(["cache", "merge", str(tmp_path / "remote"),
                       "--cache", str(tmp_path / "local")])
        assert rc == 0
        assert "1 entries folded" in capsys.readouterr().out
        assert ResultStore(tmp_path / "local").get(job) is not None

    def test_cli_cache_merge_requires_source(self, tmp_path, capsys):
        from repro.runner.cli import main as cli_main

        assert cli_main(["cache", "merge", "--cache", str(tmp_path)]) == 2
        assert "source" in capsys.readouterr().err

    def test_cli_cache_merge_rejects_missing_source(self, tmp_path, capsys):
        """A typo'd source path must fail loudly, not report '0 folded'."""
        from repro.runner.cli import main as cli_main

        rc = cli_main(["cache", "merge", str(tmp_path / "no-such-cache"),
                       "--cache", str(tmp_path / "local")])
        assert rc == 1
        assert "no result cache" in capsys.readouterr().err

    def test_cli_cache_merge_zero_byte_source_is_clean_noop(
        self, tmp_path, job, stats, capsys
    ):
        """A truncated/never-written results.jsonl (e.g. a daemon died
        before its first append) merges as zero entries, no traceback."""
        from repro.runner.cli import main as cli_main

        source = tmp_path / "remote"
        source.mkdir()
        (source / "results.jsonl").touch()
        local = ResultStore(tmp_path / "local")
        local.put(job, stats)
        rc = cli_main(["cache", "merge", str(source),
                       "--cache", str(tmp_path / "local")])
        assert rc == 0
        assert "0 entries folded" in capsys.readouterr().out
        assert len(ResultStore(tmp_path / "local")) == 1  # untouched

    def test_cli_cache_merge_whitespace_only_source_is_clean_noop(
        self, tmp_path, capsys
    ):
        from repro.runner.cli import main as cli_main

        source = tmp_path / "remote"
        source.mkdir()
        (source / "results.jsonl").write_text("\n\n  \n")
        rc = cli_main(["cache", "merge", str(source),
                       "--cache", str(tmp_path / "local")])
        assert rc == 0
        assert "0 entries folded" in capsys.readouterr().out

    def test_merge_into_fresh_destination_creates_it(self, tmp_path, job, stats):
        """Destination cache that does not exist yet: merge materializes it."""
        remote = ResultStore(tmp_path / "remote")
        remote.put(job, stats)
        dest = tmp_path / "brand-new"
        assert not dest.exists()
        merged, skipped = ResultStore(dest).merge(tmp_path / "remote")
        assert (merged, skipped) == (1, 0)
        assert ResultStore(dest).get(job) is not None

    def test_zero_byte_log_loads_as_empty_store(self, tmp_path):
        (tmp_path / "results.jsonl").touch()
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert store.merge(tmp_path) == (0, 0)  # even self-merge is a no-op


class TestVerifiedEntries:
    def _twin(self, job, verify):
        return Job(workload=job.workload, proto=job.proto, arch=job.arch,
                   scale=job.scale, verify=verify)

    def test_unverified_entry_misses_for_verify_job(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(self._twin(job, False), stats)
        assert store.get(self._twin(job, True)) is None  # must re-run checked
        assert store.get(self._twin(job, False)) is not None

    def test_verified_entry_satisfies_both_twins(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(self._twin(job, True), stats)
        assert store.get(self._twin(job, True)) is not None
        assert store.get(self._twin(job, False)) is not None

    def test_verified_run_upgrades_the_entry(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(self._twin(job, False), stats)
        store.put(self._twin(job, True), stats)  # the re-run's result lands
        reopened = ResultStore(tmp_path)
        assert reopened.get(self._twin(job, True)) is not None
