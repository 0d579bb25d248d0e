"""Job content hashing: canonical, stable, and sensitive to every field."""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib

import pytest

from repro.common.errors import ConfigError
from repro.common.params import ProtocolConfig, baseline_protocol
from repro.experiments.harness import adaptive_protocol, bench_arch
from repro.runner.job import JOB_SCHEMA, Job, canonical_json


def _job(**overrides) -> Job:
    params = dict(
        workload="tsp",
        proto=adaptive_protocol(4),
        arch=bench_arch(16),
        scale="tiny",
    )
    params.update(overrides)
    return Job(**params)


class TestHashing:
    def test_equal_content_equal_key(self):
        assert _job().key == _job().key

    def test_key_is_sha256_hex(self):
        key = _job().key
        assert len(key) == 64
        assert int(key, 16) >= 0

    def test_pct_changes_key(self):
        assert _job().key != _job(proto=adaptive_protocol(5)).key

    def test_ackwise_pointers_changes_key(self):
        other = dataclasses.replace(bench_arch(16), ackwise_pointers=2)
        assert _job().key != _job(arch=other).key

    def test_every_axis_changes_key(self):
        base = _job()
        variants = [
            _job(workload="matmul"),
            _job(proto=baseline_protocol()),
            _job(scale="small"),
            _job(warmup=False),
            _job(seed=1),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_default_arch_resolution_is_canonical(self):
        # memory_controller_tiles is filled by __post_init__; an explicitly
        # spelled-out equivalent config must hash identically.
        arch = bench_arch(16)
        explicit = dataclasses.replace(
            arch, memory_controller_tiles=arch.memory_controller_tiles
        )
        assert _job(arch=arch).key == _job(arch=explicit).key


class TestTraceKey:
    def test_protocol_does_not_affect_trace_key(self):
        assert _job().trace_key == _job(proto=baseline_protocol()).trace_key

    def test_arch_and_seed_affect_trace_key(self):
        assert _job().trace_key != _job(arch=bench_arch(64)).trace_key
        assert _job().trace_key != _job(seed=3).trace_key


class TestSerialization:
    def test_round_trip(self):
        job = _job(seed=9, warmup=False)
        again = Job.from_dict(job.to_dict())
        assert again == job
        assert again.key == job.key

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_schema_mismatch_rejected(self):
        payload = _job().to_dict()
        payload["schema"] = JOB_SCHEMA + 1
        with pytest.raises(ConfigError):
            Job.from_dict(payload)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _job(workload="")
        with pytest.raises(ConfigError):
            _job(seed=-1)


class TestDescribe:
    def test_mentions_the_interesting_fields(self):
        text = _job(seed=2, warmup=False).describe()
        assert "tsp" in text and "pct=4" in text
        assert "seed=2" in text and "cold" in text

    def test_baseline_has_no_pct(self):
        assert "pct" not in _job(proto=baseline_protocol()).describe()


class TestVerifyTwin:
    """``verify`` is transport-only: same hash, same stats, checked run."""

    def test_verify_excluded_from_key_but_serialized(self):
        from repro.experiments.harness import adaptive_protocol, bench_arch

        plain = Job(workload="tsp", proto=adaptive_protocol(4), arch=bench_arch(16), scale="tiny")
        checked = Job(
            workload="tsp", proto=adaptive_protocol(4), arch=bench_arch(16),
            scale="tiny", verify=True,
        )
        assert plain.key == checked.key
        assert checked.to_dict()["verify"] is True
        assert Job.from_dict(checked.to_dict()).verify is True
        assert "verify" in checked.describe()
        assert "verify" not in plain.describe()

    def test_verified_run_produces_identical_stats(self):
        from repro.experiments.harness import bench_arch
        from repro.common.params import neat_protocol
        from repro.runner.backends.local import execute_job

        plain = Job(workload="tsp", proto=neat_protocol(), arch=bench_arch(16), scale="tiny")
        checked = Job(
            workload="tsp", proto=neat_protocol(), arch=bench_arch(16),
            scale="tiny", verify=True,
        )
        assert execute_job(plain).to_dict() == execute_job(checked).to_dict()


#: sha256 of each RunStats fixture under the current model epoch.  A change
#: that alters any RunStats rewrites a fixture; it must also bump
#: ``JOB_SCHEMA`` (and add its row here), so stale cached results of the
#: old model are skipped instead of served.
FIXTURE_SHA256 = {
    4: {
        "runstats_pr3.json":
            "5930f1a9426fb175cc618ccb35cc8e4668b9ff32a5efd3a7ef7386384798ff62",
        "runstats_phase_release.json":
            "1d1779c6bfb02eba6502c34f77351bcd2a69d85db8561ebcb40ad5714312193a",
    },
}


def test_fixtures_are_pinned_to_the_model_epoch():
    fixtures = pathlib.Path(__file__).parents[1] / "fixtures"
    pinned = FIXTURE_SHA256[JOB_SCHEMA]
    assert {p.name for p in fixtures.glob("runstats_*.json")} == set(pinned)
    for name, digest in pinned.items():
        got = hashlib.sha256((fixtures / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} changed under JOB_SCHEMA {JOB_SCHEMA}: bump it"
