"""The :class:`Job` abstraction: one simulation point, content-addressed.

A job is the canonical description of everything that determines a
simulation's outcome: the hardware substrate (``ArchConfig``), the protocol
configuration (``ProtocolConfig``), the energy constants (``EnergyConfig``),
the workload name and problem-size scale, the warmup policy, and the
trace-variant seed.  Two jobs with equal content hash are guaranteed to
produce bit-identical ``RunStats`` - the simulator is deterministic and every
source of randomness derives from these fields (see ``common/rng.py``).

The hash is computed over the *resolved* canonical JSON serialization of the
config dataclasses (sorted keys, compact separators, sha256), so it is stable
across processes, machines and Python versions - unlike ``hash()``, which is
salted per process, and unlike pickled bytes, which are not canonical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

from repro.common.errors import ConfigError
from repro.common.params import ArchConfig, EnergyConfig, ProtocolConfig

#: The model epoch, hashed into every job key (``to_dict`` carries it).
#: Bump it whenever cached results go stale: a job field changes meaning,
#: the stats schema changes, or a model change alters any ``RunStats``.
#: The last case rewrites ``tests/fixtures/runstats_*.json``, whose sha256
#: ``tests/runner/test_job.py`` pins per epoch, so a model change cannot
#: land without a bump.  Results stored under another epoch are skipped.
#: 2: RunStats gained the Neat counters (self_invalidations, write_throughs)
#:    and ProtocolConfig the dls/neat families with directory="none".
#: 3: ProtocolConfig gained ``neat_downgrade`` (release-boundary batched
#:    self-downgrade), changing the canonical proto serialization.
#: 4: ArchConfig and EnergyConfig each lost a field no simulation read
#:    (R-NUCA's instruction cluster size, the L1-I fill energy).
JOB_SCHEMA = 4


def canonical_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, exact float reprs."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Job:
    """A hashable, serializable description of one simulation point."""

    workload: str
    proto: ProtocolConfig
    arch: ArchConfig = field(default_factory=ArchConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    scale: str = "small"
    warmup: bool = True
    #: Trace-variant salt mixed into workload seed derivation (0 = canonical
    #: trace).  Workers apply it via ``rng.seed_scope`` around trace building,
    #: so the realized trace depends only on the job, never on worker state.
    seed: int = 0
    #: Run under golden-memory functional verification.  Verification can
    #: only abort a run (``CoherenceError``), never change its statistics,
    #: so this field is deliberately EXCLUDED from the content hash.  The
    #: ``ResultStore`` still records whether an entry was verified: a
    #: verified entry satisfies both twins, an unverified entry only the
    #: unverified one (a verified sweep must actually run its checks).
    verify: bool = False

    def __post_init__(self) -> None:
        if not self.workload:
            raise ConfigError("job needs a workload name")
        if self.seed < 0:
            raise ConfigError(f"job seed must be non-negative, got {self.seed}")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips through :meth:`from_dict`."""
        return {
            "schema": JOB_SCHEMA,
            "workload": self.workload,
            "scale": self.scale,
            "warmup": self.warmup,
            "seed": self.seed,
            "verify": self.verify,
            "arch": self.arch.to_dict(),
            "proto": self.proto.to_dict(),
            "energy": self.energy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        schema = data.get("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ConfigError(f"job schema {schema} != supported {JOB_SCHEMA}")
        return cls(
            workload=data["workload"],
            proto=ProtocolConfig.from_dict(data["proto"]),
            arch=ArchConfig.from_dict(data["arch"]),
            energy=EnergyConfig.from_dict(data["energy"]),
            scale=data["scale"],
            warmup=data["warmup"],
            seed=data["seed"],
            verify=data.get("verify", False),
        )

    # ------------------------------------------------------------------
    @cached_property
    def key(self) -> str:
        """Content hash: sha256 over the canonical serialized job.

        ``verify`` is excluded: it cannot change the statistics, so a
        verified and an unverified run of the same point share one entry.
        """
        payload = self.to_dict()
        del payload["verify"]
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
        return digest.hexdigest()

    @cached_property
    def trace_key(self) -> str:
        """Content hash of the fields that determine the *trace* alone.

        Jobs differing only in protocol/energy configuration share a trace,
        so workers key their per-process trace cache on this.
        """
        payload = {
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "arch": self.arch.to_dict(),
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for logs and progress lines."""
        parts = [self.workload, self.proto.protocol]
        if self.proto.protocol == "adaptive":
            parts.append(f"pct={self.proto.pct}")
        parts.append(f"{self.arch.num_cores}c/{self.scale}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        if not self.warmup:
            parts.append("cold")
        if self.verify:
            parts.append("verify")
        return " ".join(parts)
