"""Dynamic energy model for caches, directory and network.

The simulator counts events and :class:`EnergyModel` charges each one the
calibrated per-event constant of :class:`repro.common.params.EnergyConfig`
(pJ at the paper's 11 nm node).  The paper derives its constants with
McPAT (caches, directory) and DSENT (routers, links); this reproduction
takes them as given and does not model either tool.
"""

from repro.energy.model import EnergyBreakdown, EnergyCounters, EnergyModel

__all__ = [
    "EnergyBreakdown",
    "EnergyCounters",
    "EnergyModel",
]
