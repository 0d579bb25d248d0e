"""Experiment harness, storage arithmetic and figure-generator tests."""

import pytest

from repro.common.params import (
    ArchConfig, ProtocolConfig, baseline_protocol, dls_protocol, neat_protocol,
)
from repro.experiments.cli import main as experiments_main
from repro.experiments.harness import (
    ExperimentRunner,
    adaptive_protocol,
    bench_arch,
    protocol_for_pct,
)
from repro.experiments.figures import (
    ackwise_vs_fullmap,
    figure1_invalidations,
    figure11_geomean_sweep,
    figure14_one_way,
)
from repro.experiments.report import REGISTRY
from repro.experiments.storage import (
    storage_overheads,
    storage_report,
    utilization_counter_bits,
)


class TestStorageArithmetic:
    """Every number of Section 3.6 must reproduce exactly."""

    def test_l1_utilization_bits(self):
        assert utilization_counter_bits(4) == 2
        report = storage_report()
        assert report.l1_utilization_bytes == pytest.approx(0.19 * 1024, rel=0.02)

    def test_limited3_is_18kb(self):
        report = storage_report(ArchConfig(), ProtocolConfig(classifier="limited", limited_k=3))
        assert report.classifier_bits_per_entry == 36
        assert report.classifier_kb == pytest.approx(18.0)

    def test_complete_is_192kb(self):
        report = storage_report(ArchConfig(), ProtocolConfig(classifier="complete"))
        assert report.classifier_bits_per_entry == 384
        assert report.classifier_kb == pytest.approx(192.0)

    def test_ackwise4_is_12kb(self):
        report = storage_report()
        assert report.sharer_bits_per_entry == 24
        assert report.sharer_kb == pytest.approx(12.0)

    def test_fullmap_is_32kb(self):
        assert storage_report().fullmap_kb == pytest.approx(32.0)

    def test_limited3_plus_ackwise_beats_fullmap(self):
        assert storage_report().beats_fullmap()

    def test_overhead_percentages(self):
        limited = storage_report(ArchConfig(), ProtocolConfig(classifier="limited"))
        complete = storage_report(ArchConfig(), ProtocolConfig(classifier="complete"))
        assert limited.overhead_fraction == pytest.approx(0.057, abs=0.005)
        assert complete.overhead_fraction == pytest.approx(0.60, abs=0.02)

    def test_each_family_charged_what_its_engine_builds(self):
        # Directoryless families keep no sharer bits, and only the adaptive
        # protocol has a classifier and L1 utilization counters.
        expected = [(dls_protocol(), 0), (neat_protocol(), 0), (baseline_protocol(), 24),
                    (baseline_protocol("fullmap"), 64)]
        for proto, sharer_bits in expected:
            report = storage_report(ArchConfig(), proto)
            assert report.sharer_bits_per_entry == sharer_bits, proto
            assert report.classifier_bits_per_entry == 0, proto
            assert report.overhead_fraction == 0.0, proto

    def test_table_renders(self):
        text = storage_overheads().text
        assert "18.00 KB" in text
        assert "192.00 KB" in text


class TestHarness:
    def test_bench_arch_scaled_caches(self):
        arch = bench_arch()
        assert arch.num_cores == 64
        assert arch.l1d.size_kb == 8
        assert arch.l2.size_kb == 64
        assert arch.ackwise_pointers == 4  # Table 1 unchanged

    def test_protocol_for_pct_one_is_baseline(self):
        assert protocol_for_pct(1).protocol == "baseline"
        assert protocol_for_pct(4).protocol == "adaptive"
        assert protocol_for_pct(4).pct == 4

    def test_adaptive_protocol_defaults(self):
        proto = adaptive_protocol()
        assert proto.pct == 4 and proto.limited_k == 3 and proto.rat_max == 16

    def test_runner_memoizes(self):
        runner = ExperimentRunner(
            arch=bench_arch(16), scale="tiny", workloads=("water-sp",)
        )
        first = runner.run("water-sp", protocol_for_pct(1))
        again = runner.run("water-sp", protocol_for_pct(1))
        assert first is again
        assert runner.points == 1


class TestCliSummary:
    def test_label_splits_points_into_store_hits_and_simulations(self, tmp_path, capsys):
        argv = ["--figure", "1", "--workloads", "tsp", "radix", "--cores", "16",
                "--scale", "tiny", "--cache", str(tmp_path / "store")]
        assert experiments_main(argv) == 0  # cold: the store is empty
        assert "2 points, 0 from the result store, 2 simulated]" in capsys.readouterr().out
        assert experiments_main(argv) == 0  # warm: every point is stored
        assert "2 points, 2 from the result store, 0 simulated]" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(
        arch=bench_arch(16), scale="tiny", workloads=("streamcluster", "water-sp")
    )


class TestFigureGenerators:
    def test_registry_covers_all_figures(self):
        assert {entry.id for entry in REGISTRY} >= {
            "1", "2", "8", "9", "10", "11", "12", "13", "14",
            "ackwise-vs-fullmap", "victim-replication", "protocol-families",
        }

    def test_figure1_structure(self, tiny_runner):
        result = figure1_invalidations(tiny_runner)
        assert "streamcluster" in result.data
        buckets = result.data["streamcluster"]
        assert sum(buckets.values()) == pytest.approx(100.0, abs=0.1)

    def test_figure11_normalized_to_one(self, tiny_runner):
        result = figure11_geomean_sweep(tiny_runner, pcts=(1, 2, 4))
        series = result.data["series"]
        assert series[1] == (pytest.approx(1.0), pytest.approx(1.0))
        assert all(t > 0 and e > 0 for t, e in series.values())

    def test_figure14_ratios_positive(self, tiny_runner):
        result = figure14_one_way(tiny_runner)
        assert all(r > 0 for pair in result.data.values() for r in pair)

    def test_ackwise_close_to_fullmap(self, tiny_runner):
        result = ackwise_vs_fullmap(tiny_runner)
        t, e = result.data["geomean"]
        # The paper reports parity within 1%; allow a little slack at tiny scale.
        assert t == pytest.approx(1.0, abs=0.05)
        assert e == pytest.approx(1.0, abs=0.05)


class TestProtocolFamiliesFigure:
    def test_six_way_comparison_structure(self, tiny_runner):
        from repro.experiments.figures import protocol_families_comparison

        result = protocol_families_comparison(tiny_runner)
        labels = {"baseline", "victim", "dls", "neat", "phase", "adaptive"}
        for workload in tiny_runner.workloads:
            row = result.data[workload]
            assert set(row) == labels
            # Normalization anchor: the baseline column is exactly 1.
            assert row["baseline"] == (1.0, 1.0)
            for tr, er in row.values():
                assert tr > 0 and er > 0
        geo = result.data["geomean"]
        assert set(geo) == labels
        assert geo["baseline"] == (1.0, 1.0)
        assert "T(dls)" in result.text and "E(neat)" in result.text
