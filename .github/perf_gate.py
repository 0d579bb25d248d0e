"""CI's perf gate: perfbench on this tree against the parent commit, A/B.

    python .github/perf_gate.py

Runs ``perfbench/run.py --workload W --size tiny`` in this working copy and
in ``git archive HEAD^1`` (in CI, after a ``fetch-depth: 2`` checkout of a
pull request's merge commit, the base tip), alternating sides over PAIRS
pairs per workload, and fails on any nonzero perfbench exit or a median
``sim_rec_per_s`` more than 30% below the parent's.  Then, here: tsp at
PCT 4 (small, 16 cores) in one process whose ``REPRO_TELEMETRY`` sink stays
open while ``TELEMETRY.enabled`` flips between the two runs of each of
TELEMETRY_PAIRS alternating pairs; the median per-pair ``process_time``
ratio of ``Simulator.run``, sink on over sink off, may exceed 1 by at most
2%, and the sink must not be empty (DESIGN.md sections 8 and 10).
"""

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("miss-heavy", "hit-heavy", "fallback", "fig11-sweep")
PAIRS = 5
BOUND = 0.30
TELEMETRY_BOUND = 0.02
TELEMETRY_PAIRS = 300
PROBE = f"""import statistics, time
from repro import ArchConfig, Simulator
from repro.common.params import protocol_for_pct
from repro.obs import TELEMETRY
from repro.workloads.registry import load_workload

arch = ArchConfig(num_cores=16)
trace = load_workload("tsp", arch, scale="small")
simulator = Simulator(arch, protocol_for_pct(4), warmup=True)
ratios = []
for pair in range({TELEMETRY_PAIRS}):
    seconds = {{}}
    for on in (False, True)[::-1 if pair % 2 else 1]:
        TELEMETRY.enabled = on
        start = time.process_time()
        simulator.run(trace)
        seconds[on] = time.process_time() - start
    ratios.append(seconds[True] / seconds[False])
TELEMETRY.enabled = True
print(statistics.median(ratios) - 1)
"""


def run(args: list[str], cwd: Path, **env: str) -> str | None:
    """The last line a Python command prints; None (output shown) if it fails."""
    scrubbed = ("PYTHONPATH", "REPRO_NO_ACCEL", "REPRO_TELEMETRY", "REPRO_FAULTS")
    inherited = {k: v for k, v in os.environ.items() if k not in scrubbed}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env={**inherited, **env},
                          capture_output=True, text=True)
    if proc.returncode:
        print(proc.stdout[-3000:] + proc.stderr[-3000:], flush=True)
        return None
    return proc.stdout.splitlines()[-1]


def throughput(trees: dict[str, Path], workload: str) -> list[str]:
    rates = {"parent": [], "change": []}
    failures = []
    for pair in range(PAIRS):
        for side in ("parent", "change")[::-1 if pair % 2 else 1]:
            last = run(["perfbench/run.py", "--workload", workload, "--size", "tiny",
                        "--seconds", "4"], trees[side])
            if last is None:
                failures.append(f"{workload}: a perfbench run failed on the {side}")
            else:
                rates[side].append(json.loads(last)["metrics"]["sim_rec_per_s"]["value"])
    if all(rates.values()):
        old, new = (statistics.median(rates[side]) for side in ("parent", "change"))
        print(f"{workload}: median sim_rec_per_s parent {old:,.0f}, change {new:,.0f} "
              f"({new / old - 1:+.1%}; bound -{BOUND:.0%})", flush=True)
        if new < (1 - BOUND) * old:
            failures.append(f"{workload}: sim_rec_per_s {1 - new / old:.1%} below the parent")
    return failures


def telemetry(sink: Path) -> list[str]:
    last = run(["-c", PROBE], ROOT, PYTHONPATH=str(ROOT / "src"), REPRO_TELEMETRY=str(sink))
    if last is None:
        return ["telemetry: the Simulator.run probe failed"]
    overhead = float(last)
    print(f"telemetry: median Simulator.run process_time {overhead:+.2%} with the sink on, "
          f"over {TELEMETRY_PAIRS} alternating pairs (bound +{TELEMETRY_BOUND:.0%})", flush=True)
    failures = []
    if overhead > TELEMETRY_BOUND:
        failures.append(f"telemetry: Simulator.run {overhead:.2%} slower with the sink on")
    if not sink.exists() or not sink.stat().st_size:
        failures.append("telemetry: the REPRO_TELEMETRY sink stayed empty")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        tar = subprocess.run(["git", "archive", "HEAD^1"], cwd=ROOT, check=True,
                             capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(Path(tmp, "parent"), filter="data")
        trees = {"parent": Path(tmp, "parent"), "change": ROOT}
        failures = [f for workload in WORKLOADS for f in throughput(trees, workload)]
        failures += telemetry(Path(tmp, "events.jsonl"))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf gate: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
