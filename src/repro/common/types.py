"""Core enumerations shared across the simulator.

These mirror the vocabulary of the paper (Section 3): MESI coherence states,
private/remote sharer modes, and the five cache-miss categories of Section 4.4.
"""

from __future__ import annotations

import enum


class MESIState(enum.IntEnum):
    """Coherence state of a cache line in a private L1 cache."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


class DirState(enum.IntEnum):
    """Aggregate directory-visible state of a line across all L1 caches."""

    UNCACHED = 0  #: no private L1 copies exist
    SHARED = 1  #: one or more read-only copies
    EXCLUSIVE = 2  #: exactly one owner holding E or M


class AccessKind(enum.IntEnum):
    """Memory reference type issued by a core."""

    READ = 0
    WRITE = 1

    @property
    def is_write(self) -> bool:
        return self is AccessKind.WRITE


class SharerMode(enum.IntEnum):
    """Locality classification of a core w.r.t. a cache line (Section 3.2).

    A *private* sharer receives full cache-line copies; a *remote* sharer is
    serviced with word accesses at the shared L2 home location.
    """

    REMOTE = 0
    PRIVATE = 1


class MissType(enum.IntEnum):
    """L1 miss categories tracked for Figure 10 (Section 4.4)."""

    COLD = 0  #: line never previously brought into this core's cache
    CAPACITY = 1  #: line was evicted to make room for another line
    UPGRADE = 2  #: exclusive request for a line held read-only
    SHARING = 3  #: line was invalidated/downgraded by another core's request
    WORD = 4  #: miss serviced remotely for a line previously accessed remotely


class RemovalReason(enum.IntEnum):
    """Why a line left a private L1 cache (drives demotion, Section 3.2)."""

    EVICTION = 0  #: conflict/capacity replacement chose this line
    INVALIDATION = 1  #: exclusive request by another core


class Op(enum.IntEnum):
    """Opcodes of trace records produced by workload generators."""

    READ = 0
    WRITE = 1
    BARRIER = 2
    LOCK = 3
    UNLOCK = 4
    WORK = 5  #: pure compute (no memory reference); addr is ignored


#: Latency/energy reply classes used by the protocol engine.
class ServiceClass(enum.IntEnum):
    """How an L1 miss was serviced by the home L2/directory."""

    PRIVATE_LINE = 0  #: full cache-line handed to a private sharer
    REMOTE_WORD = 1  #: word round-trip for a remote sharer
