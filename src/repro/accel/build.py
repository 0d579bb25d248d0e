"""Compile-at-import machinery for the accelerator kernels.

The package's C sources (``_kernel.c`` mesh kernel, ``_sched.c`` scheduler
kernel, ``_home.c`` engine kernel with its ``_directory.c``, ``_dls.c`` and
``_neat.c`` family subtypes, plus the shared ``_accel.h`` header) ship as
package data (``pyproject.toml``'s ``[tool.setuptools.package-data]``), so
an installed ``repro`` compiles its kernels on first use, as a checkout
does.  They compile into one CPython extension module the first time a
process asks for it, which is then dlopen'd from a per-version cache directory on every later import (compile
once, load forever - the juno ``cffi.py`` pattern).  The cache key is
everything that can invalidate an artifact:

* the interpreter's ABI tag (``EXT_SUFFIX`` already embeds it, and the
  cache directory is additionally namespaced by ``sys.implementation
  .cache_tag``), so 3.11 and 3.12 never share a shared object;
* **every** ``.c``/``.h`` input's **mtime and content hash**, so editing
  any kernel source - not just the first one - rebuilds on the next
  import;
* the **compiler id** (resolved binary + its ``--version`` banner), so a
  toolchain swap rebuilds rather than trusting a stale artifact.

Every failure mode - no sources, no compiler, no Python headers, cc exits
non-zero, the built module will not import or disagrees with the mesh
constants - degrades to ``None`` with a machine-readable reason: the
callers fall back to the pure-Python twins of the kernels, which stay the
ungated implementation.
Nothing in this module raises on a broken toolchain.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

#: Where the kernel sources live, in a checkout and in an installed package.
SOURCE_DIR = Path(__file__).parent
MODULE_NAME = "_repro_mesh_kernel"


def kernel_sources() -> tuple[Path, ...]:
    """Every C translation unit and header that feeds the artifact.

    Every ``.c`` in ``SOURCE_DIR`` compiles into the one shared object;
    headers do not compile but must fingerprint - an edited declaration
    has to invalidate the cache exactly like a ``.c`` edit.
    """
    return tuple(sorted(SOURCE_DIR.glob("*.c")) + sorted(SOURCE_DIR.glob("*.h")))

#: Force the pure-Python fallback (checked per MeshNetwork construction).
NO_ACCEL_ENV = "REPRO_NO_ACCEL"
#: Override the artifact cache directory (tests point this at tmp dirs).
CACHE_ENV = "REPRO_ACCEL_CACHE"
#: Override the compiler (same contract as make's ``CC``).
CC_ENV = "CC"

_CC_CANDIDATES = ("cc", "gcc", "clang")


def find_compiler() -> str | None:
    """Resolve the platform C compiler; ``None`` when there is none.

    Monkeypatch target for the simulated compiler-missing tests.
    """
    override = os.environ.get(CC_ENV)
    if override:
        return shutil.which(override)
    for name in _CC_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def compiler_id(cc: str) -> str:
    """Stable identity of the toolchain: path plus version banner."""
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        banner = proc.stdout.splitlines()[0] if proc.stdout else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        banner = "unknown"
    return f"{cc} ({banner})"


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        base = Path(override)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
        base = base / "repro-accel"
    return base / sys.implementation.cache_tag


def _source_fingerprint(source: Path) -> tuple[float, str]:
    data = source.read_bytes()
    return source.stat().st_mtime, hashlib.sha256(data).hexdigest()


def _resolve_sources(sources) -> tuple[Path, ...]:
    """Normalize the ``build_artifact`` source argument.

    ``None`` means every ``.c``/``.h`` in the package (the production
    path); a single ``Path`` or a sequence supports the build-cache tests,
    which compile copies from a tmp directory.
    """
    if sources is None:
        return kernel_sources()
    if isinstance(sources, (str, Path)):
        return (Path(sources),)
    return tuple(Path(s) for s in sources)


def artifact_paths(sources=None) -> tuple[Path, Path]:
    """The shared object and its build-metadata sidecar in the cache."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    directory = cache_dir()
    return directory / f"{MODULE_NAME}{suffix}", directory / f"{MODULE_NAME}.json"


def _fingerprint_map(sources: tuple[Path, ...]) -> dict[str, dict]:
    out = {}
    for source in sources:
        mtime, digest = _source_fingerprint(source)
        out[source.name] = {"mtime": mtime, "sha256": digest}
    return out


def _needs_build(
    artifact: Path, meta_path: Path, sources: tuple[Path, ...], cc_id: str
) -> bool:
    if not artifact.exists() or not meta_path.exists():
        return True
    fingerprints = _fingerprint_map(sources)
    # mtime first: a touched source always rebuilds, even if the sidecar
    # was hand-edited; the content hashes catch mtime-preserving edits.
    artifact_mtime = artifact.stat().st_mtime
    if any(artifact_mtime < fp["mtime"] for fp in fingerprints.values()):
        return True
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        return True
    recorded = meta.get("sources")
    if not isinstance(recorded, dict):
        return True  # pre-multi-source sidecar: rebuild once to upgrade it
    return (
        {name: fp["sha256"] for name, fp in fingerprints.items()}
        != {name: fp.get("sha256") for name, fp in recorded.items()}
        or meta.get("compiler_id") != cc_id
        or meta.get("abi") != sysconfig.get_config_var("EXT_SUFFIX")
    )


def build_artifact(sources=None) -> tuple[Path | None, dict]:
    """Ensure a current shared object exists; return ``(path, info)``.

    ``sources`` is ``None`` for the package's own kernels, or an explicit
    ``Path``/sequence (build-cache tests).  ``path`` is ``None`` on any
    failure and ``info`` always carries a ``reason`` string plus whatever
    provenance was established (compiler id, cache path) - this is the
    payload ``repro accel-info`` renders.
    """
    source_paths = _resolve_sources(sources)
    info: dict = {
        "source": ", ".join(str(s) for s in source_paths),
        "cache_dir": str(cache_dir()),
        "compiler": None,
        "reason": None,
        "rebuilt": False,
    }
    from repro.faults import FAULTS

    if FAULTS.active and FAULTS.trigger("accel.build_fail") is not None:
        # Chaos failpoint: a broken toolchain at first import.  Taking the
        # same degrade-to-None path as a real compiler failure proves the
        # pure-Python fallback keeps RunStats bit-identical.
        info["reason"] = "fault injected: accel.build_fail"
        return None, info
    if not source_paths:
        info["reason"] = f"kernel source missing: no *.c or *.h in {SOURCE_DIR}"
        return None, info
    missing = [str(s) for s in source_paths if not s.exists()]
    if missing:
        info["reason"] = f"kernel source missing: {', '.join(missing)}"
        return None, info
    cc = find_compiler()
    if cc is None:
        info["reason"] = "no C compiler found (cc/gcc/clang)"
        return None, info
    cc_id = compiler_id(cc)
    info["compiler"] = cc_id
    include = sysconfig.get_paths().get("include")
    if not include or not (Path(include) / "Python.h").exists():
        info["reason"] = f"Python headers not found under {include!r}"
        return None, info

    artifact, meta_path = artifact_paths(source_paths)
    info["artifact"] = str(artifact)
    if not _needs_build(artifact, meta_path, source_paths, cc_id):
        return artifact, info

    compile_units = [s for s in source_paths if s.suffix == ".c"]
    try:
        artifact.parent.mkdir(parents=True, exist_ok=True)
        tmp = artifact.with_suffix(artifact.suffix + f".tmp{os.getpid()}")
        cmd = [
            cc,
            "-O2",
            "-fPIC",
            "-shared",
            f"-I{include}",
            *(str(s) for s in compile_units),
            "-o",
            str(tmp),
        ]
        platinclude = sysconfig.get_paths().get("platinclude")
        if platinclude and platinclude != include:
            cmd.insert(5, f"-I{platinclude}")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            tail = (proc.stderr or proc.stdout or "").strip()[-500:]
            info["reason"] = f"compile failed (exit {proc.returncode}): {tail}"
            return None, info
        os.replace(tmp, artifact)  # atomic: concurrent builders agree
        meta_path.write_text(
            json.dumps(
                {
                    "sources": _fingerprint_map(source_paths),
                    "compiler_id": cc_id,
                    "abi": sysconfig.get_config_var("EXT_SUFFIX"),
                    "command": cmd,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        info["rebuilt"] = True
    except (OSError, subprocess.SubprocessError) as exc:
        info["reason"] = f"compile failed: {exc}"
        return None, info
    return artifact, info


def load_module(artifact: Path):
    """dlopen the built extension module (raises on a broken artifact)."""
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(artifact))
    spec = importlib.util.spec_from_file_location(
        MODULE_NAME, str(artifact), loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
