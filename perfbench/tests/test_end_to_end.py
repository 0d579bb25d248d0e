"""Every workload runs end to end at the tiny size, untraced and traced."""

import json
import shutil
import subprocess
import sys

import pytest

import points
import run


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(points.WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    group = "per_layer" if trace else "end_to_end"
    expected = {row["name"]: row["unit"] for row in run.contract()[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_source_exits_nonzero_without_a_result():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in run.HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hit-heavy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
