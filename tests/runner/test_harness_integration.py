"""The rewired ExperimentRunner: parallel + cached figure paths stay exact."""

from __future__ import annotations

import json

import pytest

from repro.experiments.figures import figure11_geomean_sweep
from repro.experiments.harness import ExperimentRunner, bench_arch, protocol_for_pct
from repro.runner.store import ResultStore

WORKLOADS = ("tsp", "matmul")
PCTS = (1, 2, 4)


def _runner(**overrides) -> ExperimentRunner:
    params = dict(arch=bench_arch(16), scale="tiny", workloads=WORKLOADS)
    params.update(overrides)
    return ExperimentRunner(**params)


@pytest.fixture(scope="module")
def serial_runner() -> ExperimentRunner:
    runner = _runner()
    runner.prefetch((n, protocol_for_pct(p)) for n in WORKLOADS for p in PCTS)
    return runner


class TestParallelHarness:
    def test_workers_two_matches_serial(self, serial_runner):
        parallel = _runner(workers=2)
        parallel.prefetch((n, protocol_for_pct(p)) for n in WORKLOADS for p in PCTS)
        for name in WORKLOADS:
            for pct in PCTS:
                a = serial_runner.run(name, protocol_for_pct(pct))
                b = parallel.run(name, protocol_for_pct(pct))
                assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
                    b.to_dict(), sort_keys=True
                )

    def test_figure11_identical_serial_vs_parallel(self, serial_runner):
        parallel = _runner(workers=2)
        a = figure11_geomean_sweep(serial_runner, pcts=PCTS)
        b = figure11_geomean_sweep(parallel, pcts=PCTS)
        assert a.data == b.data
        assert a.text == b.text


class TestStoreBackedHarness:
    def test_warm_store_runs_zero_simulations(self, tmp_path, serial_runner):
        cold = _runner(store=ResultStore(tmp_path))
        figure11_geomean_sweep(cold, pcts=PCTS)
        assert cold.simulations == len(WORKLOADS) * len(PCTS)

        warm_store = ResultStore(tmp_path)
        warm = _runner(workers=2, store=warm_store)
        result = figure11_geomean_sweep(warm, pcts=PCTS)
        assert warm.simulations == 0
        assert warm_store.misses == 0
        assert warm_store.hits == len(WORKLOADS) * len(PCTS)
        assert result.data == figure11_geomean_sweep(serial_runner, pcts=PCTS).data
