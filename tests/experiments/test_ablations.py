"""Ablation-generator tests at tiny scale (the registry checks the paper configuration)."""

from __future__ import annotations

import pytest

from repro.common.params import baseline_protocol
from repro.experiments.ablations import (
    ackwise_pointer_sweep,
    core_count_scaling,
    link_model_ablation,
    vote_init_ablation,
)
from repro.experiments.harness import ExperimentRunner, bench_arch


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(
        arch=bench_arch(16), scale="tiny", workloads=("streamcluster", "radix")
    )


class TestLinkModelAblation:
    def test_epoch_is_the_normalization_anchor(self, tiny_runner):
        result = link_model_ablation(tiny_runner, workloads=("streamcluster",))
        assert result.data["streamcluster"]["epoch"] == pytest.approx(1.0)

    def test_contention_models_ordered(self, tiny_runner):
        result = link_model_ablation(tiny_runner, workloads=("streamcluster",))
        row = result.data["streamcluster"]
        assert row["none"] <= row["epoch"] + 1e-9
        assert row["naive"] >= row["epoch"] - 1e-9

    def test_text_contains_all_models(self, tiny_runner):
        result = link_model_ablation(tiny_runner, workloads=("streamcluster",))
        for model in ("none", "epoch", "naive"):
            assert model in result.text


class TestAckwisePointerSweep:
    def test_broadcast_fraction_monotone_in_pointers(self, tiny_runner):
        result = ackwise_pointer_sweep(
            tiny_runner, pointers=(1, 4), workloads=("streamcluster",)
        )
        per_p = result.data["streamcluster"]
        assert per_p[1]["broadcast_fraction"] >= per_p[4]["broadcast_fraction"]

    def test_normalized_to_p4(self, tiny_runner):
        result = ackwise_pointer_sweep(
            tiny_runner, pointers=(1, 4), workloads=("streamcluster",)
        )
        assert result.data["streamcluster"][4]["time_norm"] == pytest.approx(1.0)


class TestCoreCountScaling:
    def test_single_point_runs(self, tiny_runner):
        result = core_count_scaling(
            tiny_runner, core_counts=(16,), workloads=("streamcluster",)
        )
        t, e = result.data["streamcluster"][16]
        assert t > 0 and e > 0

    def test_points_go_through_the_runner(self):
        # Jobs of the figure runner (memo, store, backend) on bench_arch(n):
        # a direct read of one point afterwards simulates nothing.
        runner = ExperimentRunner(arch=bench_arch(16), scale="tiny")
        core_count_scaling(runner, core_counts=(16, 36), workloads=("radix",))
        runner.run_jobs([runner.job("radix", baseline_protocol(), arch=bench_arch(36))])
        assert runner.simulations == 4


class TestVoteInitAblation:
    def test_ratios_positive_and_reported(self, tiny_runner):
        result = vote_init_ablation(tiny_runner, workloads=("streamcluster", "radix"))
        t, e = result.data["geomean"]
        assert t > 0 and e > 0
        assert "geomean" in result.text
