"""Build-cache and fallback-selection tests for the compiled accelerators.

The compile-at-import machinery (``repro.accel.build``) keys its artifact
cache on the fingerprints of *every* C source (mtime + content hash), the
compiler id and the ABI tag, and every failure mode degrades to the
pure-Python implementations with one warning and *identical* simulation
results.  These tests pin:

* a fresh cache compiles once and then reuses the artifact,
* touching any kernel source (mtime) forces a recompile - including the
  second translation unit (``_sched.c``), which a single-source
  fingerprint would miss,
* ``REPRO_NO_ACCEL=1`` forces both fallbacks,
* a missing compiler falls back with one warning and bit-identical
  ``RunStats``,
* ``repro accel-info`` prints that status, as text or JSON,
* every kernel source ships with the installed package.

All tests point ``REPRO_ACCEL_CACHE`` at a tmp dir and copy the kernel
sources, so the user-level cache and the repo tree are never mutated.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import tomllib
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import ArchConfig, baseline_protocol
from repro.network.mesh import MeshNetwork
from repro.runner.cli import main as cli_main
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

pytestmark = pytest.mark.skipif(
    build.find_compiler() is None, reason="no C compiler on this host"
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test builds into its own cache and resets the one-shot state
    (before AND after, so the rest of the suite re-selects normally)."""
    monkeypatch.setenv(build.CACHE_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(build.NO_ACCEL_ENV, raising=False)
    accel.reset()
    yield tmp_path
    accel.reset()


@pytest.fixture
def sources_copy(tmp_path):
    """Private copies of every kernel source whose mtimes tests may touch."""
    copies = []
    for source in build.kernel_sources():
        target = tmp_path / source.name
        shutil.copy(source, target)
        copies.append(target)
    assert len(copies) >= 2, "expected both _kernel.c and _sched.c"
    return copies


class TestBuildCache:
    def test_fresh_cache_compiles_then_reuses(self, sources_copy):
        artifact, info = build.build_artifact(sources_copy)
        assert artifact is not None and artifact.exists(), info["reason"]
        assert info["rebuilt"] is True
        # The metadata sidecar records full provenance, one fingerprint
        # per source file.
        meta = json.loads(build.artifact_paths()[1].read_text())
        assert meta["compiler_id"] == info["compiler"]
        assert set(meta["sources"]) == {s.name for s in sources_copy}
        stamp = artifact.stat().st_mtime_ns

        again, info2 = build.build_artifact(sources_copy)
        assert again == artifact
        assert info2["rebuilt"] is False
        assert artifact.stat().st_mtime_ns == stamp, "stale artifact was rebuilt"

    def test_touched_source_forces_recompile(self, sources_copy):
        artifact, _ = build.build_artifact(sources_copy)
        assert artifact is not None
        # Advance the first source's mtime past the artifact's.
        future = artifact.stat().st_mtime + 60.0
        os.utime(sources_copy[0], (future, future))
        _, info = build.build_artifact(sources_copy)
        assert info["rebuilt"] is True

    def test_second_source_edit_forces_recompile(self, sources_copy):
        """Editing ``_sched.c`` (content, mtime preserved) must rebuild:
        the sidecar fingerprints every input, not just the first."""
        artifact, _ = build.build_artifact(sources_copy)
        assert artifact is not None
        sched = next(s for s in sources_copy if s.name == "_sched.c")
        stat = sched.stat()
        sched.write_text(
            sched.read_text() + "\n/* edited second translation unit */\n"
        )
        os.utime(sched, (stat.st_atime, stat.st_mtime))  # mtime-preserving
        _, info = build.build_artifact(sources_copy)
        assert info["rebuilt"] is True

    def test_compiler_swap_forces_recompile(self, sources_copy, monkeypatch):
        artifact, _ = build.build_artifact(sources_copy)
        assert artifact is not None
        monkeypatch.setattr(
            build, "compiler_id", lambda cc: f"{cc} (different banner)"
        )
        _, info = build.build_artifact(sources_copy)
        assert info["rebuilt"] is True

    def test_rebuilt_artifact_still_loads(self, sources_copy):
        artifact, info = build.build_artifact(sources_copy)
        assert artifact is not None, info["reason"]
        module = build.load_module(artifact)
        assert hasattr(module, "MeshKernel")
        assert hasattr(module, "SchedKernel")

    def test_missing_sources_name_the_directory_searched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(build, "SOURCE_DIR", tmp_path)
        artifact, info = build.build_artifact()
        assert artifact is None
        assert info["reason"] == f"kernel source missing: no *.c or *.h in {tmp_path}"


class TestPackaging:
    def test_every_kernel_source_is_package_data(self):
        """Without package data an installed ``repro`` holds no C source
        and silently runs the pure-Python twins."""
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]
        globs = config.get("package-data", {}).get("repro.accel", [])
        sources = build.kernel_sources()
        assert sources
        for source in sources:
            assert any(fnmatch(source.name, glob) for glob in globs), source.name


class TestSelection:
    ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)

    def test_no_accel_env_forces_fallback(self, monkeypatch):
        assert accel.mesh_kernel_class() is not None  # compiles into tmp cache
        assert accel.sched_kernel_class() is not None
        monkeypatch.setenv(build.NO_ACCEL_ENV, "1")
        assert accel.mesh_kernel_class() is None
        assert accel.sched_kernel_class() is None
        net = MeshNetwork(self.ARCH)
        assert net.implementation == "fallback"
        status = accel.status()
        assert status["implementation"] == "fallback"
        assert status["disabled_by_env"] is True
        assert build.NO_ACCEL_ENV in status["reason"]
        assert status["kernels"]["sched"]["implementation"] == "fallback"
        assert build.NO_ACCEL_ENV in status["kernels"]["sched"]["reason"]
        # The env var is re-read per construction: unset -> accel again.
        monkeypatch.delenv(build.NO_ACCEL_ENV)
        assert MeshNetwork(self.ARCH).implementation == "accel"

    def test_missing_compiler_falls_back_with_single_warning(
        self, monkeypatch, caplog
    ):
        # The CLI may have installed a non-propagating "repro" logger in
        # this process; caplog captures at the root, so re-open the path.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        monkeypatch.setattr(build, "find_compiler", lambda: None)
        with caplog.at_level(logging.WARNING, logger="repro.accel"):
            assert accel.mesh_kernel_class() is None
            assert accel.mesh_kernel_class() is None  # second probe: no re-log
            assert accel.sched_kernel_class() is None
            assert accel.sched_kernel_class() is None
        warnings = [
            r for r in caplog.records if "accelerator unavailable" in r.message
        ]
        # One warning for both kernels, not one per kernel or per probe.
        assert len(warnings) == 1
        assert "no C compiler" in warnings[0].getMessage()
        status = accel.status()
        assert status["implementation"] == "fallback"
        assert status["compiled"] is False
        assert "no C compiler" in status["reason"]
        assert status["kernels"]["sched"]["compiled"] is False

    def test_missing_compiler_runstats_identical(self, monkeypatch):
        """The fallback is not a degraded mode: a compiler-less host
        produces bit-identical RunStats to the compiled kernels."""
        trace = load_workload("tsp", self.ARCH, scale="tiny")
        with_kernel = Simulator(self.ARCH, baseline_protocol(), warmup=True).run(
            trace
        )
        assert accel.active_impl() == "accel"

        accel.reset()
        monkeypatch.setattr(build, "find_compiler", lambda: None)
        without = Simulator(self.ARCH, baseline_protocol(), warmup=True).run(trace)
        assert accel.active_impl() == "fallback"
        assert with_kernel.to_dict() == without.to_dict()


class TestAccelInfo:
    """``repro accel-info``: the status ``accel.status()`` reports."""

    def test_text_output_names_both_kernels(self, capsys):
        assert cli_main(["accel-info"]) == 0
        out = capsys.readouterr().out
        assert "mesh:" in out
        assert "sched:" in out
        assert "cache dir:" in out

    def test_json_output_is_the_status_payload(self, capsys):
        assert cli_main(["accel-info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implementation"] in ("accel", "fallback")
        assert {"compiled", "cache_dir", "reason", "source"} <= set(payload)
        assert set(payload["kernels"]) == {"mesh", "sched"}

    def test_require_compiled_fails_under_no_accel(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_ACCEL", "1")
        assert cli_main(["accel-info", "--require-compiled"]) == 1
        err = capsys.readouterr().err
        assert "compiled kernels required but not active" in err
        assert "REPRO_NO_ACCEL is set" in err

    def test_require_compiled_unknown_kernel_rejected(self, capsys):
        # The flag takes no kernel list: both kernels are one decision.
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["accel-info", "--require-compiled", "gpu"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: gpu" in capsys.readouterr().err
