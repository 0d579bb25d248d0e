"""Coherence protocol engines: one pluggable family per module."""

from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.engine import (
    ENGINE_CLASSES,
    DLSEngine,
    DirectoryEngine,
    NeatEngine,
    VictimReplicationEngine,
    make_engine,
)

__all__ = [
    "ENGINE_CLASSES",
    "AccessResult",
    "DLSEngine",
    "DirectoryEngine",
    "NeatEngine",
    "ProtocolEngineBase",
    "VictimReplicationEngine",
    "make_engine",
]
