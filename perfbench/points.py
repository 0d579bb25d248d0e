"""The benchmark's workloads: which points each one simulates, and why.

Kept free of program imports so the orchestrator (``run.py``) can read it
without loading the simulator.  See README.md for why each workload exists
and why only miss-heavy and fig11-sweep are listed in BENCHMARK.json.
"""

from __future__ import annotations

#: Protocol families of the miss-heavy workload, in run order.
FAMILIES = ("adaptive-4", "baseline", "victim", "dls", "neat", "phase")

#: Figure 11's sweep at tiny scale: every workload x these PCTs, 64 cores.
FIG11_SCALE = "tiny"
FIG11_WORKERS = 2

#: name -> spec.  ``impl`` is the scheduler/mesh implementation the
#: workload must run on ("accel" = compiled kernels, "fallback" = the
#: pure-Python loops); ``points`` are (trace workload, scale, family);
#: ``samples`` is the number of fresh sample processes per run.
WORKLOADS: dict[str, dict] = {
    "miss-heavy": {
        "kind": "sim",
        "impl": "accel",
        "points": tuple(("radix", "small", family) for family in FAMILIES),
        "samples": 3,
    },
    "fig11-sweep": {
        "kind": "sweep",
        "impl": "accel",
        "samples": 2,
    },
    "hit-heavy": {
        "kind": "sim",
        "impl": "accel",
        "points": (("susan", "full", "adaptive-4"), ("water-sp", "full", "adaptive-4")),
        "samples": 5,
    },
    "fallback": {
        "kind": "sim",
        "impl": "fallback",
        "points": (
            ("radix", "small", "adaptive-4"),
            ("radix", "small", "dls"),
            ("susan", "full", "adaptive-4"),
        ),
        "samples": 2,
    },
}

#: Fresh-process set-ups measured per run (sample processes count too).
SETUPS_PER_RUN = 7

#: Exact work counts kept per result (see ``sample.counts``).
COUNT_KEYS = ("records", "l1_accesses", "l1_hits", "flits", "dram_requests")


def point_id(workload: str, scale: str, family: str) -> str:
    return f"{workload}/{scale}/{family}"


def fig11_job_id(workload: str, pct: int) -> str:
    return f"{workload}/{FIG11_SCALE}/pct{pct}"
