"""Experiment harness: figure reproductions, sweeps, storage arithmetic.

The experiment registry and its paper-claim checks live in
:mod:`repro.experiments.report`, which the figures CLI imports.
"""

from repro.experiments.figures import FigureResult
from repro.experiments.harness import (
    PCT_SWEEP_DETAIL,
    PCT_SWEEP_MISS,
    PCT_SWEEP_WIDE,
    ExperimentRunner,
    adaptive_protocol,
    bench_arch,
    protocol_for_pct,
)
from repro.experiments.storage import StorageReport, storage_report

__all__ = [
    "FigureResult",
    "ExperimentRunner",
    "PCT_SWEEP_DETAIL",
    "PCT_SWEEP_MISS",
    "PCT_SWEEP_WIDE",
    "StorageReport",
    "adaptive_protocol",
    "bench_arch",
    "protocol_for_pct",
    "storage_report",
]
