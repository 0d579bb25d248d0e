"""Off-chip memory controller model.

Table 1: 8 controllers, 5 GBps each, 100 ns DRAM latency.  Each controller
is a single-server queue: a request occupies the controller for
``bytes / bandwidth`` cycles (the transfer time) and completes after the
DRAM latency plus transfer time.  The queueing delay incurred under finite
off-chip bandwidth is reported separately because the paper charges it to
the "L2 cache to off-chip memory" latency component.
"""

from __future__ import annotations

from repro.common.params import ArchConfig


class MemoryController:
    """One DRAM channel attached to a mesh tile.

    Slotted: the compiled home kernel (DESIGN.md section 15) takes the
    off-chip fill's and the write-back's ``access`` step on these slots.
    """

    __slots__ = (
        "arch",
        "tile",
        "_next_free",
        "requests",
        "bytes_transferred",
        "total_queue_delay",
    )

    def __init__(self, arch: ArchConfig, tile: int) -> None:
        self.arch = arch
        self.tile = tile
        self._next_free = 0.0
        # Statistics.
        self.requests = 0
        self.bytes_transferred = 0
        self.total_queue_delay = 0.0

    def access(self, start: float, nbytes: int) -> tuple[float, float]:
        """Service ``nbytes`` starting no earlier than ``start``.

        Returns ``(finish_time, queue_delay)``.
        """
        service = nbytes / self.arch.dram_bandwidth_bytes_per_cycle
        begin = self._next_free if self._next_free > start else start
        queue_delay = begin - start
        self._next_free = begin + service
        finish = begin + self.arch.dram_latency_cycles + service
        self.requests += 1
        self.bytes_transferred += nbytes
        self.total_queue_delay += queue_delay
        return finish, queue_delay


class MemorySubsystem:
    """The set of memory controllers, indexed by cache-line interleaving."""

    def __init__(self, arch: ArchConfig) -> None:
        self.arch = arch
        self.controllers = {
            tile: MemoryController(arch, tile) for tile in arch.memory_controller_tiles
        }

    def controller_for_line(self, line: int) -> MemoryController:
        return self.controllers[self.arch.controller_for_line(line)]

    @property
    def total_requests(self) -> int:
        return sum(c.requests for c in self.controllers.values())
