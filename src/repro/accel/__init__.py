"""Optional compiled accelerators (DESIGN.md sections 12, 14 and 15).

``repro.accel`` builds the package's C sources into one CPython extension
on first use (see :mod:`repro.accel.build`) and hands out three kernel
classes from it:

* ``MeshKernel`` (phase 1): the epoch ring-buffer bandwidth accounting
  and traffic counters of one ``MeshNetwork``.  It is one of the mesh
  kernels ``MeshNetwork`` picks from once per construction; the others are
  its pure-Python twin, ``repro.network.mesh.PyMeshKernel``, and the two
  link-model ablations, which have no compiled form;
* ``SchedKernel`` (phase 2): the simulator's columnar record walk -
  cursors, min-clock heap and the inline L1-hit fast path.  It is one of
  the two record walks ``Simulator._execute`` drives; the other is its
  pure-Python twin, ``repro.sim.multicore.PySchedKernel``;
* ``HomeKernel`` (phase 3): the family-agnostic home side of every miss
  of one protocol engine - placement, the legs, the L2 tag access and
  off-chip fill, the word service and the settle - on the engine's own
  objects.  An engine builds it exactly when its mesh kernel is the
  compiled one (it reserves through that kernel in C), else its
  pure-Python twin, ``repro.protocol.home.PyHomeKernel``.

There are two implementations - every kernel compiled, or every kernel
pure Python - and one decision between them:

1. ``REPRO_NO_ACCEL=1`` (any non-empty value) selects the pure-Python
   implementations.  It is checked per call, so tests can flip it with
   ``monkeypatch.setenv`` without reloading modules.
2. Otherwise the module is compiled/loaded, its three kernel classes
   required and its constants checked against the Python definitions
   once per process; **any** failure (no compiler, no headers, compile
   error, import error, a missing class, constant mismatch, an injected
   ``accel.build_fail``) logs one warning and pins the pure-Python
   implementations for the rest of the process.
3. The pure-Python implementations are the ungated reference either way -
   bit-identical by the property/fixture suites, just slower.

``status()`` is the introspection payload behind ``repro accel-info``;
it keeps one entry each for the mesh and scheduler kernels, and the home
kernel is compiled exactly when the ``mesh`` entry says ``accel``.
"""

from __future__ import annotations

import logging
import os
from typing import Any

from repro.accel import build
from repro.accel.build import CACHE_ENV, NO_ACCEL_ENV

__all__ = [
    "CACHE_ENV",
    "NO_ACCEL_ENV",
    "active_impl",
    "home_kernel_class",
    "mesh_kernel_class",
    "reset",
    "sched_kernel_class",
    "status",
]

log = logging.getLogger("repro.accel")

#: Kernel name -> its class in the module; ``status()`` reports one entry
#: per name.  The home kernel has no entry of its own: it is compiled
#: exactly when the ``mesh`` entry says ``accel``.
_KERNEL_CLASSES = {"mesh": "MeshKernel", "sched": "SchedKernel"}
#: Every class the module must export, or it is refused.
_EXPORTS = (*_KERNEL_CLASSES.values(), "HomeKernel")

#: One-shot load state: ``None`` = not attempted yet, ``(module, info)``
#: afterwards (``module`` is None when the build, load or check failed).
_state: tuple[Any, dict] | None = None


def _constants() -> dict[str, int]:
    """Python-side definitions the compiled module must agree with."""
    from repro.common import addr
    from repro.common.types import Op
    from repro.network import mesh
    from repro.network.messages import MsgType
    from repro.rnuca import placement
    from repro.rnuca.page_table import PageKind

    return {
        "EPOCH_CYCLES": mesh.EPOCH_CYCLES,
        "EPOCH_SHIFT": mesh.EPOCH_SHIFT,
        "WINDOW_EPOCHS": mesh.WINDOW_EPOCHS,
        "SLOT_SHIFT": mesh._SLOT_SHIFT,
        "OP_READ": int(Op.READ),
        "OP_WRITE": int(Op.WRITE),
        "OP_BARRIER": int(Op.BARRIER),
        "OP_LOCK": int(Op.LOCK),
        "OP_UNLOCK": int(Op.UNLOCK),
        "OP_WORK": int(Op.WORK),
        "LINE_BITS": addr.LINE_BITS,
        "RNUCA_HASH_MULTIPLIER": placement._HASH_MULTIPLIER,
        "RNUCA_HASH_SHIFT": placement._HASH_SHIFT,
        "PAGE_PRIVATE": int(PageKind.PRIVATE),
        "PAGE_SHARED": int(PageKind.SHARED),
        "MSG_MEM_READ_REQ": int(MsgType.MEM_READ_REQ),
        "MSG_MEM_READ_REPLY": int(MsgType.MEM_READ_REPLY),
    }


def _load() -> tuple[Any, dict]:
    """Build, load and check the module once per process."""
    global _state
    if _state is not None:
        return _state
    artifact, info = build.build_artifact()
    module = None
    if artifact is not None:
        try:
            module = build.load_module(artifact)
        except (ImportError, OSError) as exc:
            info["reason"] = f"built kernel failed to import: {exc}"
        else:
            info["abi_version"] = getattr(module, "ABI_VERSION", None)
            mismatch = {
                const: (value, getattr(module, const, None))
                for const, value in _constants().items()
                if getattr(module, const, None) != value
            }
            missing = [attr for attr in _EXPORTS if not hasattr(module, attr)]
            if mismatch:
                info["reason"] = f"kernel constant mismatch: {mismatch}"
                module = None
            elif missing:
                info["reason"] = f"built module exports no {', '.join(missing)}"
                module = None
    if module is None:
        log.warning("accelerator unavailable, using pure-Python fallback: %s", info["reason"])
    _state = (module, info)
    return _state


def _module() -> Any | None:
    """The compiled module, or ``None`` for the pure-Python implementations."""
    if os.environ.get(NO_ACCEL_ENV):
        return None
    return _load()[0]


def reset() -> None:
    """Forget the cached load attempt (build-cache tests only)."""
    global _state
    _state = None


def mesh_kernel_class() -> Any | None:
    """The compiled ``MeshKernel`` class, or ``None`` to use its twin,
    ``repro.network.mesh.PyMeshKernel``."""
    module = _module()
    return None if module is None else module.MeshKernel


def sched_kernel_class() -> Any | None:
    """The compiled ``SchedKernel`` class, or ``None`` to use the fallback."""
    module = _module()
    return None if module is None else module.SchedKernel


def home_kernel_class() -> Any | None:
    """The compiled ``HomeKernel`` class, or ``None`` to use its twin,
    ``repro.protocol.home.PyHomeKernel``.  An engine asks only when its
    mesh kernel is the compiled one: the home kernel reserves through it."""
    module = _module()
    return None if module is None else module.HomeKernel


def active_impl() -> str:
    """``"accel"`` or ``"fallback"``: the implementation selected right now."""
    return "fallback" if _module() is None else "accel"


def status() -> dict:
    """JSON-ready accelerator status (the ``repro accel-info`` payload).

    ``kernels`` keeps one entry per kernel - the shape CI's accelerator
    checks and perfbench's environment report read - and both report the
    one decision.
    ``REPRO_NO_ACCEL`` short-circuits before any build is attempted.
    """
    disabled = bool(os.environ.get(NO_ACCEL_ENV))
    module, info = _load() if _state is not None or not disabled else (None, {})
    compiled = module is not None
    reason = f"{NO_ACCEL_ENV} is set" if disabled else info.get("reason")
    implementation = "accel" if compiled and not disabled else "fallback"
    kernel = {
        "implementation": implementation,
        "compiled": compiled,
        "disabled_by_env": disabled,
        "reason": reason,
    }
    return {
        **kernel,
        "cache_dir": info.get("cache_dir", str(build.cache_dir())),
        "artifact": info.get("artifact"),
        "compiler": info.get("compiler"),
        "source": info.get(
            "source", ", ".join(str(s) for s in build.kernel_sources())
        ),
        "kernels": {name: dict(kernel) for name in _KERNEL_CLASSES},
    }
