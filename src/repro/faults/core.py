"""Deterministic fault injection: failpoints, schedules, and the injector.

The exhaustive-interleaving tier (DESIGN.md section 11) proved that
*systematic* exploration finds bugs random testing misses.  This module
applies the same philosophy to the infrastructure layer: instead of waiting
for a daemon to die or a disk to fill in production, every failure mode the
execution tier claims to survive is a **named failpoint** that a seeded
:class:`FaultSchedule` can trigger on demand, deterministically.

Three pieces:

* the **failpoint registry** (:data:`FAILPOINTS`) - the closed set of sites
  threaded through the store, the backends, the daemon, the accelerator
  build and the telemetry sink.  Schedules referencing unknown points are
  rejected up front (a typo'd chaos run must not silently test nothing);
* a :class:`FaultSchedule` - ``seed`` plus per-failpoint :class:`FaultRule`
  trigger rules.  Serialized as compact JSON into the :data:`FAULTS_ENV`
  environment variable, so spawn workers and daemon subprocesses inherit
  the exact schedule their parent runs under;
* the :class:`FaultInjector` singleton (:data:`FAULTS`).  Sites call
  ``FAULTS.trigger("point.name")``; the injector counts the hit (per
  process, per point) and returns the matching rule when it fires, else
  ``None``.  The disabled path is one attribute check - with no schedule
  active, production code pays nothing measurable.

**Determinism contract**: a rule fires as a pure function of (schedule
seed, failpoint name, per-process hit index, process role).  No wall
clock, no PRNG state, no PID enters the decision, so two runs of the same
sweep under the same schedule inject faults at exactly the same points -
which is what lets ``repro chaos`` compare a faulted run bit-for-bit
against a clean reference.

The injector *decides*; each site *acts* (truncate the write, ``os._exit``,
drop the reply frame...).  Sites own their failure semantics because the
interesting part of a fault is what the surrounding code does next.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
from dataclasses import dataclass, field

from repro.common.errors import ConfigError

#: Environment variable carrying a serialized schedule.  Parsed at import,
#: so spawn children (pool workers, ``repro serve`` subprocesses) inherit
#: their parent's schedule with fresh per-process hit counters.
FAULTS_ENV = "REPRO_FAULTS"

log = logging.getLogger("repro.faults")

#: The closed registry of injectable sites.  Adding a failpoint means
#: adding its site code AND its row here; schedules naming anything else
#: raise :class:`~repro.common.errors.ConfigError`.
FAILPOINTS: dict[str, str] = {
    "store.append.torn": (
        "ResultStore._append writes only a prefix of the record and stops "
        "(a writer dying mid-append); the log gains one torn line"
    ),
    "store.append.disk_full": (
        "ResultStore._append raises OSError(ENOSPC) before writing"
    ),
    "store.append.corrupt": (
        "ResultStore._append scribbles over the head of the record; the "
        "log gains one full-length non-JSON line"
    ),
    "worker.crash": (
        "run_task os._exit()s before executing the job (a worker process "
        "crashing mid-job); arg exit_code (default 3)"
    ),
    "worker.hang": (
        "run_task sleeps before executing the job (a hung worker); arg "
        "hang_s (default 3600)"
    ),
    "daemon.frame_drop": (
        "Daemon completes a job but severs the connection instead of "
        "writing the result frame"
    ),
    "daemon.conn_reset": (
        "Daemon resets the client connection right after reading a frame "
        "(mid-batch connection reset)"
    ),
    "daemon.kill": (
        "Daemon process os._exit()s between frames (never inject into an "
        "in-process daemon: it kills the host process); arg exit_code "
        "(default 9)"
    ),
    "daemon.stall": (
        "Daemon sleeps before replying to a job (a slow host); arg "
        "stall_s (default 5.0)"
    ),
    "accel.build_fail": (
        "accel kernel build fails at build_artifact; both kernels fall "
        "back to pure Python"
    ),
    "obs.sink_dead": (
        "Telemetry.emit raises OSError mid-run; telemetry self-disables "
        "and the run continues"
    ),
}

#: Process roles a rule may scope itself to.  ``parent`` is the default
#: role of any process; ``ProcessBackend`` pool initializers switch their
#: workers to ``worker``; ``serve_forever`` switches daemons to ``daemon``
#: (a daemon's own pool workers are ``worker`` again).
ROLES = ("any", "parent", "worker", "daemon")


@dataclass(frozen=True)
class FaultRule:
    """When one failpoint fires.

    Counting rules (the default, fully deterministic): the rule fires on
    per-process hit indexes ``hit <= n < hit + times`` (1-based; ``times
    <= 0`` means every hit from ``hit`` on).  Probabilistic rules set
    ``p``: each hit fires iff ``Random(f"{seed}:{point}:{n}")`` draws
    below ``p`` - still deterministic given the schedule seed and the hit
    index, just shaped like a failure rate; ``times`` caps total fires.
    """

    point: str
    scope: str = "any"
    hit: int = 1
    times: int = 1
    p: float | None = None
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.point not in FAILPOINTS:
            known = ", ".join(sorted(FAILPOINTS))
            raise ConfigError(f"unknown failpoint {self.point!r} (known: {known})")
        if self.scope not in ROLES:
            raise ConfigError(f"fault scope must be one of {ROLES}, got {self.scope!r}")
        if self.hit < 1:
            raise ConfigError(f"fault hit index is 1-based, got {self.hit}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"fault probability must be in [0, 1], got {self.p}")

    def arg(self, name: str, default):
        """Site-specific parameter (``stall_s``, ``exit_code``...)."""
        return self.args.get(name, default)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"point": self.point}
        if self.scope != "any":
            out["scope"] = self.scope
        if self.hit != 1:
            out["hit"] = self.hit
        if self.times != 1:
            out["times"] = self.times
        if self.p is not None:
            out["p"] = self.p
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict) or "point" not in data:
            raise ConfigError(f"a fault rule needs at least a 'point': {data!r}")
        unknown = set(data) - {"point", "scope", "hit", "times", "p", "args"}
        if unknown:
            raise ConfigError(f"unknown fault rule keys {sorted(unknown)} in {data!r}")
        try:
            return cls(
                point=data["point"],
                scope=data.get("scope", "any"),
                hit=int(data.get("hit", 1)),
                times=int(data.get("times", 1)),
                p=None if data.get("p") is None else float(data["p"]),
                args=dict(data.get("args") or {}),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed fault rule {data!r}: {exc}") from None


@dataclass(frozen=True)
class FaultSchedule:
    """A seed plus the rules it drives - one chaos scenario, serializable."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    def to_env(self) -> str:
        """The compact JSON value :data:`FAULTS_ENV` carries to children."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_spec(cls, spec: "str | dict | FaultSchedule") -> "FaultSchedule":
        """Parse a schedule from JSON text or a dict; validates every rule."""
        if isinstance(spec, FaultSchedule):
            return spec
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"fault schedule is not valid JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise ConfigError(f"fault schedule must be a JSON object, got {spec!r}")
        unknown = set(spec) - {"seed", "rules"}
        if unknown:
            raise ConfigError(f"unknown fault schedule keys {sorted(unknown)}")
        rules = spec.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ConfigError(f"fault schedule 'rules' must be a list, got {rules!r}")
        try:
            seed = int(spec.get("seed", 0))
        except (TypeError, ValueError):
            raise ConfigError(f"fault schedule seed must be an int, got {spec.get('seed')!r}") from None
        return cls(seed=seed, rules=tuple(FaultRule.from_dict(r) for r in rules))


class FaultInjector:
    """The process-wide decision engine every failpoint site consults.

    Hit counters are per (process, failpoint) and reset on every
    :meth:`activate`, so a schedule means the same thing in the sweep
    parent, each spawn worker, and each daemon - modulo the role filter.
    """

    __slots__ = ("role", "_schedule", "_rules", "_hits", "_fired", "_lock")

    def __init__(self) -> None:
        self.role = "parent"
        self._schedule: FaultSchedule | None = None
        self._rules: dict[str, tuple[FaultRule, ...]] = {}
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._schedule is not None

    @property
    def schedule(self) -> FaultSchedule | None:
        return self._schedule

    def activate(self, schedule: "FaultSchedule | str | dict", role: str | None = None) -> None:
        """Install ``schedule`` (parsed/validated) with fresh hit counters."""
        schedule = FaultSchedule.from_spec(schedule)
        with self._lock:
            self._schedule = schedule
            rules: dict[str, list[FaultRule]] = {}
            for rule in schedule.rules:
                rules.setdefault(rule.point, []).append(rule)
            self._rules = {point: tuple(rs) for point, rs in rules.items()}
            self._hits = {}
            self._fired = {}
            if role is not None:
                self.role = role

    def deactivate(self) -> None:
        """Drop the schedule (counters included); idempotent."""
        with self._lock:
            self._schedule = None
            self._rules = {}
            self._hits = {}
            self._fired = {}

    def hits(self, point: str) -> int:
        """Per-process hit count of ``point`` under the active schedule."""
        return self._hits.get(point, 0)

    # ------------------------------------------------------------------
    def trigger(self, point: str) -> FaultRule | None:
        """Count one hit of ``point``; the firing rule, or ``None``.

        The hot-path contract mirrors telemetry's: with no schedule active
        this is one attribute check and an immediate return, so threaded
        failpoints cost nothing in production runs.
        """
        if self._schedule is None:
            return None
        firing = None
        with self._lock:
            rules = self._rules.get(point)
            if not rules:
                return None
            n = self._hits.get(point, 0) + 1
            self._hits[point] = n
            for rule in rules:
                if rule.scope != "any" and rule.scope != self.role:
                    continue
                if not self._fires(rule, n):
                    continue
                fired = self._fired.get(id(rule), 0)
                if rule.times > 0 and fired >= rule.times:
                    continue
                self._fired[id(rule)] = fired + 1
                firing = rule
                break
        if firing is not None:
            # Outside the lock: reporting goes through the telemetry sink,
            # whose emit path contains a failpoint of its own - re-entering
            # trigger() must not deadlock on the injector lock.
            self._report(firing, n)
        return firing

    def _fires(self, rule: FaultRule, n: int) -> bool:
        if rule.p is not None:
            draw = random.Random(f"{self._schedule.seed}:{rule.point}:{n}").random()
            return draw < rule.p
        if n < rule.hit:
            return False
        return rule.times <= 0 or n < rule.hit + rule.times

    def _report(self, rule: FaultRule, n: int) -> None:
        """One log line + one telemetry event per injection (never raises)."""
        log.warning("fault injected: %s (hit %d, role %s)", rule.point, n, self.role)
        if rule.point.startswith("obs."):
            return  # the sink is the thing being killed; don't re-enter it
        try:
            from repro.obs import TELEMETRY

            if TELEMETRY.enabled:
                TELEMETRY.event(
                    "fault.injected", point=rule.point, hit=n, role=self.role
                )
        except Exception:  # a broken sink must not change injection behavior
            pass


def activate_from_env(injector: "FaultInjector", environ=os.environ) -> bool:
    """Install the :data:`FAULTS_ENV` schedule if present; returns success.

    Import-time hook (the spawn-worker/daemon inheritance path): a
    malformed value logs a warning instead of raising, because breaking
    every ``import repro`` over a typo'd environment variable would be
    worse than losing the injection.  Interactive activation - ``repro
    chaos`` building schedules programmatically - goes through
    :meth:`FaultInjector.activate`, which does raise.
    """
    spec = environ.get(FAULTS_ENV)
    if not spec:
        return False
    try:
        injector.activate(spec)
        return True
    except ConfigError as exc:
        log.warning("%s ignored: %s", FAULTS_ENV, exc)
        return False


#: The process-wide injector every failpoint site consults.
FAULTS = FaultInjector()
activate_from_env(FAULTS)
