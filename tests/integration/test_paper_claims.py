"""Integration tests asserting the paper's qualitative claims.

These run real workloads through the full stack (at reduced scale) and check
the *direction* of every headline result - the quantitative claims, checked
at the paper configuration, live in the experiment registry
(``repro.experiments.report``) and EXPERIMENTS.md.
"""

import pytest

from repro.common.params import ProtocolConfig, baseline_protocol
from repro.experiments.harness import ExperimentRunner, adaptive_protocol, bench_arch, protocol_for_pct
from repro.sim.multicore import Simulator
from repro.workloads.registry import WORKLOAD_NAMES, load_workload


@pytest.fixture(scope="module")
def runner():
    """16-core runner at tiny scale: fast but exercises every mechanism."""
    return ExperimentRunner(
        arch=bench_arch(16),
        scale="tiny",
        workloads=("streamcluster", "blackscholes", "water-sp", "tsp", "canneal"),
    )


class TestHeadlineDirection:
    def test_adaptive_saves_energy_on_sharing_workload(self, runner):
        base = runner.run("streamcluster", protocol_for_pct(1))
        adaptive = runner.run("streamcluster", protocol_for_pct(4))
        assert adaptive.energy.total < base.energy.total

    def test_adaptive_converts_misses_to_words(self, runner):
        adaptive = runner.run("streamcluster", protocol_for_pct(4))
        assert adaptive.remote_accesses > 0
        # Demotions happen during the learning (warmup) phase: measure cold.
        cold = Simulator(runner.arch, protocol_for_pct(4)).run(runner.trace("streamcluster"))
        assert cold.demotions > 0

    def test_baseline_has_no_word_misses(self, runner):
        base = runner.run("canneal", protocol_for_pct(1))
        assert base.remote_accesses == 0
        assert base.miss.breakdown()["word"] == 0

    def test_low_miss_rate_workload_is_insensitive(self, runner):
        base = runner.run("water-sp", protocol_for_pct(1))
        adaptive = runner.run("water-sp", protocol_for_pct(4))
        assert adaptive.completion_time == pytest.approx(base.completion_time, rel=0.15)
        assert adaptive.energy.total == pytest.approx(base.energy.total, rel=0.15)

    def test_invalidation_storms_reduced(self, runner):
        base = runner.run("tsp", protocol_for_pct(1))
        adaptive = runner.run("tsp", protocol_for_pct(4))
        base_invals = base.unicast_invalidations + base.broadcast_invalidations
        adaptive_invals = adaptive.unicast_invalidations + adaptive.broadcast_invalidations
        assert adaptive_invals < base_invals

    def test_network_traffic_reduced(self, runner):
        base = runner.run("canneal", protocol_for_pct(1))
        adaptive = runner.run("canneal", protocol_for_pct(4))
        assert adaptive.network_flits < base.network_flits


class TestUtilizationHistograms:
    def test_streamcluster_invalidations_skew_low(self, runner):
        """Figure 1: most streamcluster invalidations are low-utilization."""
        stats = runner.run("streamcluster", baseline_protocol())
        pct = stats.inval_histogram.percentages()
        low = pct["1"] + pct["2-3"]
        assert stats.inval_histogram.total > 0
        assert low > 50.0

    def test_histogram_totals_match_events(self):
        # Small-scale workloads may fit the L1 entirely; canneal at small
        # scale streams far past it, so evictions must be recorded.
        arch = bench_arch(16)
        trace = load_workload("canneal", arch, scale="small")
        cold = Simulator(arch, baseline_protocol()).run(trace)
        assert cold.evict_histogram.total > 0


class TestClassifierVariants:
    def test_limited1_no_worse_than_30pct_vs_limited3(self, runner):
        """k=1 misclassifies; k=3 recovers (Section 5.3 direction)."""
        k1 = runner.run("streamcluster", adaptive_protocol(classifier="limited", limited_k=1))
        k3 = runner.run("streamcluster", adaptive_protocol(classifier="limited", limited_k=3))
        complete = runner.run("streamcluster", adaptive_protocol(classifier="complete"))
        # k=3 should land close to complete; k=1 may drift further.
        drift_k3 = abs(k3.energy.total / complete.energy.total - 1.0)
        drift_k1 = abs(k1.energy.total / complete.energy.total - 1.0)
        assert drift_k3 <= drift_k1 + 0.10

    def test_timestamp_and_rat_both_run(self, runner):
        rat = runner.run("blackscholes", adaptive_protocol(remote_policy="rat"))
        ts = runner.run("blackscholes", adaptive_protocol(remote_policy="timestamp"))
        assert rat.completion_time > 0 and ts.completion_time > 0

    def test_one_way_never_promotes(self, runner):
        stats = runner.run("streamcluster", adaptive_protocol(one_way=True))
        assert stats.promotions == 0


class TestFullSuiteSmoke:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_all_workloads_run_verified(self, name):
        """Every benchmark completes under the adaptive protocol with full
        functional verification (Graphite's correctness requirement)."""
        arch = bench_arch(16)
        trace = load_workload(name, arch, scale="tiny")
        stats = Simulator(arch, ProtocolConfig(pct=4), verify=True).run(trace)
        assert stats.completion_time > 0
        assert stats.miss.accesses == trace.memory_accesses

    @pytest.mark.parametrize("name", ("radix", "dedup", "dijkstra-ss"))
    def test_warmup_runs_verified(self, name):
        arch = bench_arch(16)
        trace = load_workload(name, arch, scale="tiny")
        stats = Simulator(arch, ProtocolConfig(pct=4), verify=True, warmup=True).run(trace)
        assert stats.completion_time > 0
