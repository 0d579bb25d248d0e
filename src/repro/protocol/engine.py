"""Protocol-engine factory.

The engine itself lives in per-family modules:

* :mod:`repro.protocol.base` - the shared :class:`ProtocolEngineBase`
  interface (network/memory substrate, off-chip path, verification);
* :mod:`repro.protocol.directory` - directory families (``baseline``,
  ``adaptive``);
* :mod:`repro.protocol.victim` - Victim Replication (directory + local-L2
  victim caching);
* :mod:`repro.protocol.dls` - directoryless shared LLC;
* :mod:`repro.protocol.neat` - self-invalidation/self-downgrade coherence;
* :mod:`repro.protocol.phase` - phase-priority directory coherence.

:func:`make_engine` maps ``ProtocolConfig.protocol`` to the family class.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.params import ArchConfig, ProtocolConfig
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.directory import DirectoryEngine
from repro.protocol.dls import DLSEngine
from repro.protocol.neat import NeatEngine
from repro.protocol.phase import PhaseEngine
from repro.protocol.victim import VictimReplicationEngine

#: ``ProtocolConfig.protocol`` -> engine class.
ENGINE_CLASSES: dict[str, type[ProtocolEngineBase]] = {
    "baseline": DirectoryEngine,
    "adaptive": DirectoryEngine,
    "victim": VictimReplicationEngine,
    "dls": DLSEngine,
    "neat": NeatEngine,
    "phase": PhaseEngine,
}


def make_engine(
    arch: ArchConfig, proto: ProtocolConfig, verify: bool = False
) -> ProtocolEngineBase:
    """Instantiate the protocol engine for ``proto.protocol``."""
    try:
        cls = ENGINE_CLASSES[proto.protocol]
    except KeyError:
        raise ConfigError(f"no engine for protocol {proto.protocol!r}") from None
    return cls(arch, proto, verify=verify)


__all__ = [
    "ENGINE_CLASSES",
    "AccessResult",
    "DLSEngine",
    "DirectoryEngine",
    "NeatEngine",
    "PhaseEngine",
    "ProtocolEngineBase",
    "VictimReplicationEngine",
    "make_engine",
]
