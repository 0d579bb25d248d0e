"""Read a telemetry sink and render it for humans (``repro events``).

The sink is append-only JSONL produced by any number of processes (sweep
parent, pool workers, daemons), so rendering is a pure aggregation:

* **span tree** - spans are grouped by their *name path* (the chain of
  ancestor names down to the span), summing counts and durations across
  processes, so eight workers each running ``sim.run > sim.phase.simulate``
  render as one tree row with ``8x`` and the total seconds;
* **counters** - increment records summed per name (label attributes fold
  into the name as ``name{k=v}``), sorted by value;
* **events** - point-in-time records, counted per name with the most
  recent occurrences shown verbatim (a ``remote.requeue`` trail reads like
  a failover log).

Malformed lines (torn writes from a killed worker) and records from other
schema versions are skipped, never fatal - the renderer must work on the
sink of a crashed run, which is exactly when it is needed most.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ReproError
from repro.obs.core import EVENT_SCHEMA


def load_events(path: str | Path) -> list[dict]:
    """Parse one sink file; skips malformed lines and foreign schemas.

    A span record's ``children`` and ``counters`` (see
    :meth:`~repro.obs.core.Telemetry.record_span`) come back as ordinary
    ``span`` and ``counter`` records, listed before the span itself.
    """
    target = Path(path)
    if not target.exists():
        raise ReproError(f"no telemetry sink at {target}")
    records: list[dict] = []
    with target.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a dying process
            if not isinstance(record, dict) or record.get("v") != EVENT_SCHEMA:
                continue
            if "kind" not in record or "name" not in record:
                continue
            if record["kind"] == "span":
                try:
                    records.extend(_nested(record))
                except (AttributeError, TypeError, ValueError):
                    continue  # nested fields malformed
            records.append(record)
    return records


def _nested(span: dict) -> list[dict]:
    """The child spans and counters ``span`` carries, as plain records
    (popped from it)."""
    stamp = {"v": span["v"], "pid": span.get("pid"), "ts": span.get("ts")}
    depth = span.get("depth", 0) + 1
    nested = [
        {**stamp, "kind": "span", "name": name, "id": sid, "parent": span.get("id"),
         "depth": depth, "start": start, "dur": dur}
        for sid, name, start, dur in span.pop("children", None) or ()
    ]
    nested += [{**stamp, "kind": "counter", "name": name, "value": value}
               for name, value in (span.pop("counters", None) or {}).items()]
    return nested


# ----------------------------------------------------------------------
def _span_paths(records: list[dict]) -> dict[tuple[str, ...], list[float]]:
    """Aggregate span records into name-path -> [count, total_duration].

    Parent links are per-process (``(pid, id)`` keyed); a span whose parent
    record is missing (still open when the process died) roots its own
    subtree rather than vanishing.
    """
    spans = {
        (r.get("pid"), r.get("id")): r
        for r in records
        if r.get("kind") == "span" and r.get("id") is not None
    }

    def path_of(record: dict) -> tuple[str, ...]:
        names: list[str] = []
        seen = set()
        node = record
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            names.append(str(node.get("name")))
            node = spans.get((node.get("pid"), node.get("parent")))
        return tuple(reversed(names))

    paths: dict[tuple[str, ...], list[float]] = {}
    for record in spans.values():
        bucket = paths.setdefault(path_of(record), [0, 0.0])
        bucket[0] += 1
        bucket[1] += float(record.get("dur", 0.0))
    return paths


def _counter_totals(records: list[dict]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for record in records:
        if record.get("kind") != "counter":
            continue
        name = str(record["name"])
        attrs = record.get("attrs")
        if attrs:
            labels = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            name = f"{name}{{{labels}}}"
        try:
            value = int(record.get("value", 0))
        except (TypeError, ValueError):
            continue
        totals[name] = totals.get(name, 0) + value
    return totals


def render_events(records: list[dict], limit: int = 20) -> str:
    """The ``repro events`` report: span tree, top counters, recent events."""
    lines: list[str] = []
    pids = {r.get("pid") for r in records if "pid" in r}
    lines.append(f"{len(records)} records from {len(pids)} process(es)")

    paths = _span_paths(records)
    if paths:
        lines.append("")
        lines.append("span tree (count x total seconds, all processes):")
        width = max(2 * (len(p) - 1) + len(p[-1]) for p in paths) + 2
        for path in sorted(paths):
            count, total = paths[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"  {label:<{width}} {count:>6}x {total:>10.3f}s")

    counters = _counter_totals(records)
    if counters:
        lines.append("")
        shown = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
        lines.append(f"top counters ({len(shown)} of {len(counters)}):")
        width = max(len(name) for name, _ in shown) + 2
        for name, value in shown:
            lines.append(f"  {name:<{width}} {value}")

    events = [r for r in records if r.get("kind") == "event"]
    if events:
        lines.append("")
        by_name: dict[str, int] = {}
        for record in events:
            by_name[record["name"]] = by_name.get(record["name"], 0) + 1
        summary = ", ".join(f"{name} x{n}" for name, n in sorted(by_name.items()))
        lines.append(f"events: {summary}")
        for record in events[-min(limit, 10):]:
            attrs = record.get("attrs") or {}
            detail = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            lines.append(f"  {record['name']} {detail}".rstrip())
    return "\n".join(lines)


def render_file(path: str | Path, limit: int = 20) -> str:
    """Load + render one sink file (the ``repro events`` verb body)."""
    return render_events(load_events(path), limit=limit)
