"""``repro trend``: diff simulation results across revisions.

It compares two ``.repro-cache/results.jsonl`` logs (archived per commit):
entries keyed by the job content hash, which is stable across revisions
for an identical configuration, compared on completion time and total
energy.  The simulator is deterministic, so ANY drift on a matching key
is a semantic change of the simulator itself; the threshold flags drifts
large enough to care about.

``compare(old, new)`` returns rows; ``worst_regression`` reduces them to
the single worst ratio so a script can fail on it (``repro trend
--assert-within 0.05 old new``).  Throughput is perfbench's concern
(``perfbench/run.py``; CI's perf-gate job compares a change with its
parent there).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ReproError


def _load_cache(path: Path) -> dict:
    points = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line
            key = record.get("key")
            stats = record.get("stats")
            if not isinstance(key, str) or not isinstance(stats, dict):
                continue
            job = record.get("job", {})
            label = "{} {} {}c/{}".format(
                job.get("workload", "?"),
                job.get("proto", {}).get("protocol", "?"),
                job.get("arch", {}).get("num_cores", "?"),
                job.get("scale", "?"),
            )
            energy = stats.get("energy", {})
            total_energy = (
                sum(v for v in energy.values() if isinstance(v, (int, float)))
                if isinstance(energy, dict)
                else None
            )
            metrics = {"completion_time": stats.get("completion_time")}
            if total_energy is not None:
                metrics["energy_total"] = total_energy
            # Last entry per key wins, like ResultStore loading.
            points[key] = {"label": label, **metrics}
    return points


def load_source(path: str | Path) -> dict:
    """Points of a results.jsonl log, or of the cache directory holding one."""
    p = Path(path)
    if not p.exists():
        raise ReproError(f"trend source not found: {p}")
    if p.is_dir():
        p = p / "results.jsonl"
    elif p.suffix != ".jsonl":
        raise ReproError(
            f"{p} is not a result-cache log: repro trend compares two "
            "results.jsonl logs (or the cache directories holding them)"
        )
    return _load_cache(p)


#: Metrics compared on each matching key; a rise is a regression.
_METRICS = ("completion_time", "energy_total")


def compare(old_points: dict, new_points: dict) -> list[dict]:
    """Match keys present on both sides; one row per (key, metric)."""
    rows = []
    for key in old_points:
        if key not in new_points:
            continue
        old_m, new_m = old_points[key], new_points[key]
        for metric in _METRICS:
            a, b = old_m.get(metric), new_m.get(metric)
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                continue
            ratio = b / a if a else float("inf")
            rows.append(
                {
                    "key": old_m["label"],
                    "metric": metric,
                    "old": a,
                    "new": b,
                    "ratio": ratio,
                    "regression": ratio - 1.0,
                }
            )
    return rows


def worst_regression(rows: list[dict], metric: str | None = None) -> dict | None:
    """The row with the largest regression (optionally for one metric)."""
    picked = [r for r in rows if metric is None or r["metric"] == metric]
    return max(picked, key=lambda r: r["regression"]) if picked else None


def format_rows(rows: list[dict]) -> str:
    if not rows:
        return "(no matching keys between the two sources)"
    width = max(len(r["key"]) for r in rows)
    lines = [f"{'point':<{width}} {'metric':<28} {'old':>14} {'new':>14} {'ratio':>7}"]
    for r in rows:
        lines.append(
            f"{r['key']:<{width}} {r['metric']:<28} "
            f"{r['old']:>14.6g} {r['new']:>14.6g} {r['ratio']:>7.3f}"
        )
    return "\n".join(lines)


def run_trend(
    old_path: str,
    new_path: str,
    assert_within: float | None = None,
    metric: str | None = None,
) -> tuple[list[dict], int]:
    """Compare two cache logs; returns (rows, exit_code).

    With ``assert_within=R``, exit code 1 when any compared metric (or the
    selected ``metric``) rose by more than the fraction ``R``.
    """
    rows = compare(load_source(old_path), load_source(new_path))
    code = 0
    if assert_within is not None:
        worst = worst_regression(rows, metric)
        if worst is not None and worst["regression"] > assert_within:
            code = 1
    return rows, code
