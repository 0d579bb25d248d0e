"""Sweep construction: cartesian (workload x protocol x PCT) job grids.

The paper's evaluation is one big sweep; this module makes "add a config
point" cost one entry in a grid instead of a hand-written loop.  Used by the
``repro sweep`` CLI verb and available as a library API::

    from repro.runner import ParallelRunner, ResultStore, SweepGrid, make_backend

    grid = SweepGrid(workloads=("radix", "tsp"), pcts=(1, 2, 4, 8))
    with ParallelRunner(store=ResultStore(), workers=8) as runner:
        results = runner.run(grid.jobs())

    # or sharded across `repro serve` daemons:
    backend = make_backend("remote", hosts="hostA:8642,hostB:8642")
    with ParallelRunner(store=ResultStore(), backend=backend) as runner:
        results = runner.run(grid.jobs())
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.params import (
    FIGURE11_PCTS,
    ArchConfig,
    EnergyConfig,
    ProtocolConfig,
    adaptive_protocol,
    baseline_protocol,
    bench_arch,
    dls_protocol,
    neat_protocol,
    phase_protocol,
    protocol_for_pct,
    victim_replication_protocol,
)
from repro.common.statsutil import geomean
from repro.runner.job import Job
from repro.sim.stats import RunStats
from repro.workloads.registry import WORKLOAD_NAMES

#: Protocol families selectable in a sweep.  "pct" follows the figures'
#: convention (``protocol_for_pct``: PCT=1 *is* the baseline directory
#: protocol), so a sweep point and a figure point share one job key;
#: "adaptive" forces the adaptive protocol even at PCT=1.  "dls", "neat" and
#: "phase" are the related-work comparison baselines (PAPERS.md): each is a
#: single grid point - none has a PCT axis.
PROTOCOL_FAMILIES = ("pct", "adaptive", "baseline", "victim", "dls", "neat", "phase")

_SINGLE_POINT_FAMILIES = {
    "baseline": baseline_protocol,
    "victim": victim_replication_protocol,
    "dls": dls_protocol,
    "neat": neat_protocol,
    "phase": phase_protocol,
}


def _family_protocols(family: str, pcts: tuple[int, ...]) -> list[ProtocolConfig]:
    if family in _SINGLE_POINT_FAMILIES:
        return [_SINGLE_POINT_FAMILIES[family]()]
    rule = protocol_for_pct if family == "pct" else adaptive_protocol
    return [rule(pct) for pct in pcts]


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian sweep: workloads x protocol families x PCT x trace seeds."""

    workloads: tuple[str, ...] = WORKLOAD_NAMES
    families: tuple[str, ...] = ("pct",)
    pcts: tuple[int, ...] = FIGURE11_PCTS
    arch: ArchConfig = field(default_factory=ArchConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    scale: str = "small"
    warmup: bool = True
    seed: int = 0
    #: Trace-variant axis: each grid point runs ``num_seeds`` trace
    #: realizations (``Job.seed`` = seed .. seed+num_seeds-1), so figure
    #: points can report a confidence spread instead of one sample.
    num_seeds: int = 1
    #: Run every job under golden-memory functional verification (any
    #: coherence violation aborts the sweep with a ``CoherenceError``).
    verify: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.workloads) - set(WORKLOAD_NAMES)
        if unknown:
            raise ConfigError(f"unknown workloads: {sorted(unknown)}")
        bad = set(self.families) - set(PROTOCOL_FAMILIES)
        if bad:
            raise ConfigError(
                f"unknown protocol families: {sorted(bad)} (choose from {PROTOCOL_FAMILIES})"
            )
        if not self.pcts:
            raise ConfigError("sweep needs at least one PCT value")
        if any(pct < 1 for pct in self.pcts):
            raise ConfigError(f"pct values must be >= 1, got {self.pcts}")
        if self.num_seeds < 1:
            raise ConfigError(f"num_seeds must be >= 1, got {self.num_seeds}")

    # ------------------------------------------------------------------
    def protocols(self) -> list[ProtocolConfig]:
        """The protocol axis, deduplicated while preserving order."""
        protos: list[ProtocolConfig] = []
        for family in self.families:
            for proto in _family_protocols(family, self.pcts):
                if proto not in protos:
                    protos.append(proto)
        return protos

    def seeds(self) -> tuple[int, ...]:
        """The trace-variant axis: ``num_seeds`` consecutive seeds."""
        return tuple(range(self.seed, self.seed + self.num_seeds))

    def jobs(self) -> list[Job]:
        """Expand the grid into a job list (workload-major order)."""
        return [
            Job(
                workload=name,
                proto=proto,
                arch=self.arch,
                energy=self.energy,
                scale=self.scale,
                warmup=self.warmup,
                seed=seed,
                verify=self.verify,
            )
            for name in self.workloads
            for proto in self.protocols()
            for seed in self.seeds()
        ]

    def describe(self) -> str:
        n_protos = len(self.protocols())
        n_jobs = len(self.workloads) * n_protos * self.num_seeds
        seeds_note = f" x {self.num_seeds} seeds" if self.num_seeds > 1 else ""
        verify_note = ", golden-verify" if self.verify else ""
        return (
            f"{len(self.workloads)} workloads x {n_protos} protocol points"
            f"{seeds_note} = {n_jobs} jobs "
            f"({self.arch.num_cores} cores, scale={self.scale}{verify_note})"
        )


# ----------------------------------------------------------------------
def sweep_rows(jobs: list[Job], results: list[RunStats]) -> list[dict]:
    """Flatten (job, stats) pairs into table/JSON-ready row dicts."""
    rows = []
    for job, stats in zip(jobs, results):
        rows.append(
            {
                "workload": job.workload,
                "protocol": job.proto.protocol,
                "pct": job.proto.pct,
                "seed": job.seed,
                "completion_time": stats.completion_time,
                "energy": stats.energy.total,
                "l1d_miss_rate": stats.miss.miss_rate,
                "network_flits": stats.network_flits,
                "remote_accesses": stats.remote_accesses,
                "key": job.key,
            }
        )
    return rows


def sweep_table(rows: list[dict]) -> str:
    """Fixed-width text table of sweep rows (one line per job).

    The seed column appears only when the rows span several trace seeds -
    single-seed sweeps (the common case) keep the compact layout.
    """
    with_seeds = len({row["seed"] for row in rows}) > 1
    seed_hdr = f"{'seed':>6}" if with_seeds else ""
    lines = [
        f"{'workload':<15}{'protocol':<10}{'pct':>4}{seed_hdr}{'completion':>14}"
        f"{'energy(nJ)':>12}{'miss%':>7}{'flits':>12}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        seed_col = f"{row['seed']:>6}" if with_seeds else ""
        lines.append(
            f"{row['workload']:<15}{row['protocol']:<10}{row['pct']:>4}{seed_col}"
            f"{row['completion_time']:>14,.0f}{row['energy'] / 1e3:>12,.1f}"
            f"{100 * row['l1d_miss_rate']:>7.2f}{row['network_flits']:>12,}"
        )
    return "\n".join(lines)


def seed_spread_rows(rows: list[dict]) -> list[dict]:
    """Aggregate per-seed sweep rows into one confidence row per grid point.

    Groups rows by (workload, protocol, pct) across the trace-seed axis and
    reports the geometric-mean completion time and energy plus their
    **spread** - max/min ratio over the seed realizations (1.0 = perfectly
    stable).  This is the ROADMAP "trace-variant confidence intervals" view:
    a figure point is only trustworthy when its spread stays near 1.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["workload"], row["protocol"], row["pct"]), []).append(row)
    out = []
    for (workload, protocol, pct), members in groups.items():
        times = [r["completion_time"] for r in members]
        energies = [r["energy"] for r in members]
        out.append(
            {
                "workload": workload,
                "protocol": protocol,
                "pct": pct,
                "seeds": sorted(r["seed"] for r in members),
                "completion_time_geomean": geomean(times),
                "completion_time_spread": max(times) / min(times),
                "energy_geomean": geomean(energies),
                "energy_spread": max(energies) / min(energies),
            }
        )
    return out


def seed_spread_table(spread: list[dict]) -> str:
    """Fixed-width text table of :func:`seed_spread_rows` output."""
    lines = [
        f"{'workload':<15}{'protocol':<10}{'pct':>4}{'seeds':>7}"
        f"{'T geomean':>14}{'T spread':>10}{'E spread':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for row in spread:
        lines.append(
            f"{row['workload']:<15}{row['protocol']:<10}{row['pct']:>4}"
            f"{len(row['seeds']):>7}{row['completion_time_geomean']:>14,.0f}"
            f"{row['completion_time_spread']:>10.3f}{row['energy_spread']:>10.3f}"
        )
    return "\n".join(lines)


def grid_from_args(
    workloads: tuple[str, ...],
    families: tuple[str, ...],
    pcts: tuple[int, ...],
    num_cores: int,
    scale: str,
    warmup: bool,
    seed: int,
    num_seeds: int = 1,
    verify: bool = False,
) -> SweepGrid:
    """Build a grid from CLI-style arguments, using the benchmark arch."""
    return SweepGrid(
        workloads=workloads,
        families=families,
        pcts=pcts,
        arch=bench_arch(num_cores),
        scale=scale,
        warmup=warmup,
        seed=seed,
        num_seeds=num_seeds,
        verify=verify,
    )


__all__ = [
    "FIGURE11_PCTS",
    "PROTOCOL_FAMILIES",
    "SweepGrid",
    "grid_from_args",
    "seed_spread_rows",
    "seed_spread_table",
    "sweep_rows",
    "sweep_table",
]
