"""The public API surface: importable, documented, and sufficient for the
README quickstart without reaching into submodules."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules that neither ``import repro`` nor a console script reaches, each
#: with the reason it stays.
UNREACHED_ON_PURPOSE = {
    "repro.workloads.synthetic": "the five sharing-pattern trace generators: "
    "workload input that examples/sharing_patterns.py simulates",
}


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]``: console-script name -> ``module:function``."""
    return tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]["scripts"]


def _module_files() -> dict[str, tuple[Path, bool]]:
    """Dotted module name -> (file, is_package) for every module in src."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        out[".".join(parts[:-1] if is_package else parts)] = (path, is_package)
    return out


def _imports(name: str, path: Path, is_package: bool) -> set[str]:
    """Every module an ``import``/``from`` statement anywhere in the file
    may load, relative imports resolved (names that are not modules are
    filtered out by the caller)."""
    package = name if is_package else name.rpartition(".")[0]
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                target = f"{base}.{target}" if target else base
            out.add(target)
            out.update(f"{target}.{alias.name}" for alias in node.names)
    return out


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

    def test_every_module_is_reached_from_the_package_or_a_console_script(self):
        """Walk the import graph from ``repro`` and the ``[project.scripts]``
        modules: a module only tests or examples import is dead weight."""
        modules = _module_files()
        todo = ["repro"] + [target.partition(":")[0] for target in _console_scripts().values()]
        reached = set()
        while todo:
            name = todo.pop()
            if name in reached or name not in modules:
                continue
            reached.add(name)
            todo.append(name.rpartition(".")[0])  # importing a module runs its package
            todo.extend(_imports(name, *modules[name]))
        assert sorted(set(modules) - reached) == sorted(UNREACHED_ON_PURPOSE)

    @pytest.mark.parametrize("script", sorted(_console_scripts()))
    def test_console_script_usage_names_the_script(self, script, capsys):
        module, _, function = _console_scripts()[script].partition(":")
        with pytest.raises(SystemExit) as exc:
            getattr(importlib.import_module(module), function)(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {script} ")


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
