"""Regenerate the committed reference digests for one or more seeds.

    python3 perfbench/refs.py --seed 0 --seed 1

For each seed this runs every point of hit-heavy, miss-heavy and fallback
once, and one cold Figure-11 sweep, each in a fresh process, then writes
``refs/seed-<n>.json``: the digest of each point's and each fig11 job's
canonical ``RunStats.to_dict()`` JSON, and the Figure 11 series.  The
compiled (hit-heavy, miss-heavy) and fallback digests of the points they
share must agree, or nothing is written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def references(seed: int) -> dict:
    deadline = time.monotonic() + 1800
    base = {"mode": "digests", "seed": seed, "size": "full"}
    found: dict[str, str] = {}
    for workload in ("hit-heavy", "miss-heavy", "fallback"):
        result = run.spawn({**base, "workload": workload}, deadline)
        if result["errors"]:
            raise SystemExit(f"{workload}: {result['errors']}")
        for key, entry in result["results"].items():
            if found.setdefault(key, entry["digest"]) != entry["digest"]:
                raise SystemExit(f"compiled and fallback digests differ for {key}")
    sweep = run.spawn({**base, "workload": "fig11-sweep"}, deadline)
    if sweep["errors"]:
        raise SystemExit(f"fig11-sweep: {sweep['errors']}")
    return {
        "seed": seed,
        "points": dict(sorted(found.items())),
        "fig11": {key: entry["digest"] for key, entry in sorted(sweep["results"].items())},
        "fig11_series": sweep["series"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    (run.OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    run.REFS_DIR.mkdir(exist_ok=True)
    for seed in args.seed:
        refs = references(seed)
        path = run.REFS_DIR / f"seed-{seed}.json"
        path.write_text(json.dumps(refs, indent=1) + "\n")
        print(f"{path.relative_to(run.ROOT)}: {len(refs['points'])} points, "
              f"{len(refs['fig11'])} fig11 jobs, PCT=4 {refs['fig11_series']['4']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
