"""The public API surface: importable, documented, and sufficient for the
README quickstart without reaching into submodules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_public_callables_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


    def test_import_leaves_the_remote_backend_unloaded(self):
        """``import repro`` must not pay for the remote backend (asyncio,
        ssl, sockets); its names load on first use."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, repro\n"
            "heavy = ('asyncio', 'ssl', 'repro.runner.backends.remote')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "from repro.runner import RemoteBackend\n"
            "from repro.runner.backends import DEFAULT_PORT, serve_forever\n"
            "print(RemoteBackend.__module__, 'repro.runner.backends.remote' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines() == ["[]", "repro.runner.backends.remote True"]


class TestQuickstartContract:
    def test_readme_quickstart_runs(self):
        arch = repro.ArchConfig(num_cores=16, num_memory_controllers=4)
        trace = repro.load_workload("water-sp", arch, scale="tiny")
        sim = repro.Simulator(arch, repro.ProtocolConfig(pct=4))
        stats = sim.run(trace)
        assert stats.completion_time > 0
        assert stats.energy.total > 0

    def test_six_protocol_families_constructible(self):
        assert repro.baseline_protocol().protocol == "baseline"
        assert repro.ProtocolConfig(pct=4).protocol == "adaptive"
        assert repro.victim_replication_protocol().protocol == "victim"
        assert repro.dls_protocol().protocol == "dls"
        assert repro.neat_protocol().protocol == "neat"
        assert repro.phase_protocol().protocol == "phase"
        # The directoryless families resolve to directory="none"; phase
        # keeps a directory (it is a directory protocol with phase service).
        assert repro.dls_protocol().directory == "none"
        assert repro.neat_protocol().directory == "none"
        assert repro.phase_protocol().directory == "ackwise"

    def test_trace_io_round_trip_via_top_level(self, tmp_path):
        arch = repro.ArchConfig(num_cores=16, num_memory_controllers=4)
        trace = repro.load_workload("tsp", arch, scale="tiny")
        path = tmp_path / "t.traceb"
        repro.save_trace(trace, path)
        again = repro.load_trace(path)
        assert again.name == trace.name
        assert again.total_records == trace.total_records

    def test_workload_names_match_table2_count(self):
        assert len(repro.WORKLOAD_NAMES) == 21
