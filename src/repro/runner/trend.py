"""``repro trend``: diff benchmark / simulation results across revisions.

Two kinds of artifacts are comparable (auto-detected per file):

* **bench reports** - the JSON written by ``repro bench --json`` (and the
  committed ``BENCH_*.json`` trajectory files): points keyed by
  ``(workload, family, pct, cores, scale)``, compared on build / simulate
  throughput.  A *regression* is the new simulate throughput falling more
  than the threshold below the old one.
* **result caches** - ``.repro-cache/results.jsonl`` logs (archived per
  commit): entries keyed by the job content hash, which is stable across
  revisions for an identical configuration, compared on completion time
  and total energy.  The simulator is deterministic, so ANY drift on a
  matching key is a semantic change of the simulator itself; the threshold
  flags drifts large enough to care about.

``compare(old, new)`` returns rows; ``worst_regression`` reduces them to
the single worst ratio so CI can fail on it (the perf-smoke job runs
``repro trend --assert-within 0.30 <baseline> <fresh>``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ReproError


def _bench_key(row: dict) -> tuple:
    return (
        row.get("workload"),
        row.get("family", "pct"),
        row.get("pct"),
        row.get("cores"),
        row.get("scale"),
    )


def _load_bench(payload: dict) -> dict:
    points = {}
    for row in payload["points"]:
        # Trajectory files (BENCH_pr*.json) nest two sides per point: the
        # "baseline" revision and the revision the file records (named per
        # PR: "columnar", "pr4", ...).  The recorded side is the one a
        # trend comparison wants; plain `repro bench --json` reports carry
        # the metrics at the top level.
        metrics = {}
        for side, values in row.items():
            if (
                side != "baseline"
                and isinstance(values, dict)
                and "simulate_records_per_second" in values
            ):
                metrics = dict(values)
        if not metrics and isinstance(row.get("baseline"), dict):
            metrics = dict(row["baseline"])
        for name in ("build_records_per_second", "simulate_records_per_second"):
            if name in row:
                metrics[name] = row[name]
        points[_bench_key(row)] = metrics
    return points


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


def source_implementation(path: str | Path) -> dict:
    """The per-kernel implementations a bench report records.

    Schema-4 bench reports stamp ``implementations``, a per-kernel dict
    like ``{"mesh": "accel", "sched": "accel"}``.  Reports without it and
    cache logs return ``{}`` (no provenance - the mismatch guard lets
    those through).
    """
    p = Path(path)
    if p.is_dir() or p.suffix == ".jsonl" or p.name == "results.jsonl":
        return {}
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    impls = payload.get("implementations") if isinstance(payload, dict) else None
    return impls if isinstance(impls, dict) else {}


def load_source(path: str | Path) -> tuple[str, dict]:
    """Load a trend source; returns ``(kind, points)`` with kind
    "bench" or "cache"."""
    p = Path(path)
    if not p.exists():
        raise ReproError(f"trend source not found: {p}")
    if p.suffix == ".jsonl" or p.name == "results.jsonl":
        return "cache", _load_cache(p)
    if p.is_dir():
        return "cache", _load_cache(p / "results.jsonl")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReproError(f"unreadable trend source {p}: {exc}") from None
    if isinstance(payload, dict) and "points" in payload:
        return "bench", _load_bench(payload)
    raise ReproError(
        f"unrecognized trend source {p}: expected a bench report "
        "(object with 'points') or a results.jsonl cache log"
    )


#: Metrics where DOWN is bad (throughput) vs UP is bad (cost).
_HIGHER_IS_BETTER = ("build_records_per_second", "simulate_records_per_second")
_LOWER_IS_BETTER = ("completion_time", "energy_total")


def compare(old_points: dict, new_points: dict) -> list[dict]:
    """Match keys present on both sides; one row per (key, metric)."""
    rows = []
    for key in old_points:
        if key not in new_points:
            continue
        old_m, new_m = old_points[key], new_points[key]
        label = old_m.get("label") or " ".join(str(part) for part in key if part is not None)
        for metric in _HIGHER_IS_BETTER + _LOWER_IS_BETTER:
            a, b = old_m.get(metric), new_m.get(metric)
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                continue
            ratio = b / a if a else float("inf")
            if metric in _HIGHER_IS_BETTER:
                # regression margin: how far throughput fell (negative = faster)
                regression = 1.0 - ratio
            else:
                regression = ratio - 1.0
            rows.append(
                {
                    "key": label,
                    "metric": metric,
                    "old": a,
                    "new": b,
                    "ratio": ratio,
                    "regression": regression,
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
    allow_impl_mismatch: bool = False,
) -> tuple[list[dict], int]:
    """Compare two sources; returns (rows, exit_code).

    With ``assert_within=R``, exit code 1 when any compared metric (or the
    selected ``metric``) regressed by more than the fraction ``R`` - e.g.
    0.30 fails the perf-smoke job when simulate throughput drops >30%.

    Bench reports carrying implementation provenance must agree on it:
    comparing an accel report against a fallback report measures the
    compiled kernel, not the change under test, so it fails loudly unless
    ``allow_impl_mismatch`` is set.  Reports without provenance (pre-PR-8)
    are let through.
    """
    old_kind, old_points = load_source(old_path)
    new_kind, new_points = load_source(new_path)
    if old_kind != new_kind:
        raise ReproError(
            f"cannot compare a {old_kind} source against a {new_kind} source"
        )
    if old_kind == "bench" and not allow_impl_mismatch:
        old_impl = source_implementation(old_path)
        new_impl = source_implementation(new_path)
        mismatched = sorted(
            name for name in old_impl.keys() & new_impl.keys()
            if old_impl[name] != new_impl[name]
        )
        if mismatched:
            detail = "; ".join(
                f"{name}: {old_impl[name]!r} vs {new_impl[name]!r}"
                for name in mismatched
            )
            raise ReproError(
                f"bench reports use different kernel implementations "
                f"({detail}) between {old_path} and {new_path}; this "
                "comparison measures the accelerator, not the change "
                "under test - pass --allow-impl-mismatch to compare anyway"
            )
    if old_kind == "bench" and metric is None and assert_within is not None:
        # CI contract: bench gating is on simulate throughput.
        metric = "simulate_records_per_second"
    rows = compare(old_points, new_points)
    code = 0
    if assert_within is not None:
        worst = worst_regression(rows, metric)
        if worst is not None and worst["regression"] > assert_within:
            code = 1
    return rows, code
