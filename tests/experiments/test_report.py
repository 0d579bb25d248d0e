"""The experiment registry, its claim checks and the EXPERIMENTS.md it renders."""

from __future__ import annotations

import dataclasses
import numbers
import re

import pytest

from repro.experiments import report
from repro.experiments.cli import main as experiments_main
from repro.common.statsutil import UTILIZATION_BUCKETS
from repro.experiments.figures import ENERGY_COMPONENTS, TIME_COMPONENTS, FigureResult
from repro.experiments.harness import ExperimentRunner, bench_arch
from repro.experiments.report import REGISTRY, Claim, Entry, Ref, render
from repro.runner.store import ResultStore
from repro.workloads.registry import WORKLOAD_NAMES

#: Every workload a claim row names; the other rows read geomeans or counts.
NAMED_WORKLOADS = ("streamcluster", "water-sp", "susan", "lu-nc", "dijkstra-ss")
#: Figure 11's first row: 0.846 at the paper configuration.
FIG11_DATA = {"series": {4: (0.846, 0.676)}}


def _row(entry_id: str, label: str) -> Claim:
    entry = next(entry for entry in REGISTRY if entry.id == entry_id)
    return next(claim for claim in entry.claims if claim.label == label)


class TestExperimentIndex:
    def test_every_paper_figure_is_covered(self):
        titles = {e.title for e in REGISTRY}
        for figure in ("Figure 1", "Figure 2", "Figure 8", "Figure 9",
                       "Figure 10", "Figure 11", "Figure 12", "Figure 13",
                       "Figure 14"):
            assert figure in titles

    def test_storage_and_preamble_covered(self):
        titles = {e.title for e in REGISTRY}
        assert "Section 3.6 (storage)" in titles
        assert "Section 5 preamble" in titles

    def test_every_earlier_experiment_keeps_an_entry(self):
        assert {e.title for e in REGISTRY} >= {
            "Extension: Victim Replication", "Ablation: link model", "Ablation: ACKwise_p",
            "Ablation: core scaling", "Ablation: vote-init",
        }

    def test_entry_ids_unique(self):
        assert len({e.id for e in REGISTRY}) == len({e.title for e in REGISTRY}) == 17
        for entry in REGISTRY:
            labels = [claim.label for claim in entry.claims]
            assert len(labels) == len(set(labels)), entry.title

    def test_no_row_dropped(self):
        # Every row gates, so removing one must be a deliberate change here.
        assert sum(len(entry.claims) for entry in REGISTRY) == 47
        assert [e.id for e in REGISTRY if not e.claims] == ["protocol-families"]


class TestClaims:
    def test_relation_reads_the_same_data(self):
        claim = Claim("a", lambda d: d["a"], ">=", Ref("b - 1", lambda d: d["b"] - 1))
        verdict = claim.check({"a": 2.0, "b": 3.0})
        assert verdict.holds and verdict.bound_text == ">= b - 1 (2)"
        assert not dataclasses.replace(claim, op="<").check({"a": 2.0, "b": 3.0}).holds

    @pytest.mark.parametrize("measured", [0.052, 0.062, 0.0575, 18.0, 18.00001, 18.0001])
    def test_approx_follows_pytest_approx(self, measured):
        for target, tol in ((0.057, 0.005), (18.0, None)):
            claim = Claim("x", lambda d: d, "approx", target, tol=tol)
            assert claim.check(measured).holds is (measured == pytest.approx(target, abs=tol))

    @pytest.mark.parametrize("link, holds", [(1.8, True), (0.4, False)])
    def test_link_router_row_skips_benchmarks_without_traffic(self, link, holds):
        claim = _row("8", "lowest link/router energy ratio at PCT 1, over benchmarks "
                          "with network energy")
        data = {"lu-nc": {1: {"link": link, "router": 0.5}},
                "susan": {1: {"link": 0.0, "router": 0.0}},
                "geomean": {1: 1.0}}
        assert claim.check(data).holds is holds

    def test_deviation_never_exempts(self):
        assert not Claim("x", lambda d: d, "<", 1.0, deviation="known").check(2.0).holds


class TestGeneration:
    def test_renders_measured_tables(self):
        results = [(e, FigureResult(e.title, "t", {}, f"TABLE {e.id}"), []) for e in REGISTRY]
        text = render(results)
        assert "```text\nTABLE 11\n```" in text

    def test_index_table_lists_all_experiments(self):
        text = render([(e, FigureResult(e.title, "t", {}, ""), []) for e in REGISTRY])
        for e in REGISTRY:
            assert f"| {e.title} | `{e.id}` |" in text

    def test_claim_table_columns(self):
        entry = next(entry for entry in REGISTRY if entry.id == "11")
        data = {"series": {4: (0.846, 0.676), 8: (0.9, 0.7), 20: (0.95, 0.7)}}
        verdicts = [claim.check(data) for claim in entry.claims]
        text = render([(entry, FigureResult("Figure 11", "t", data, "T"), verdicts)])
        assert "| Claim | Measured | Bound | Paper | Holds | Deviation |" in text
        assert "| geomean completion time at PCT 4 | 0.846 | < 0.95 | 0.85 | yes |" in text
        assert "energy climbs again" in text
        assert "**5 of 5 claims hold.**" in text


@pytest.fixture(scope="module")
def tiny_runner(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("store"))
    return ExperimentRunner(
        arch=bench_arch(16), scale="tiny", workloads=NAMED_WORKLOADS, store=store
    )


@pytest.mark.parametrize("entry", REGISTRY, ids=lambda entry: entry.id)
def test_generator_feeds_every_row_at_tiny_scale(entry, tiny_runner):
    # The bounds were written for the paper configuration, so only the
    # measures are exercised here: each reads a number from the data.
    result = entry.generate(tiny_runner)
    for claim in entry.claims:
        verdict = claim.check(result.data)
        assert isinstance(verdict.measured, numbers.Real), claim.label
        assert isinstance(verdict.bound, numbers.Real), claim.label


#: Entries whose text prints aggregates only: Figure 11's PCT series,
#: Figure 12's RAT configurations and the storage arithmetic.
AGGREGATE_ONLY = {"11", "12", "storage"}

_FAMILIES = ("baseline", "victim", "dls", "neat", "phase", "adaptive")
#: Each entry's table columns as its generator names them (a name with a
#: space prints as that many words); the storage report has no table.
COLUMNS = {
    "1": ("benchmark", *UTILIZATION_BUCKETS),
    "2": ("benchmark", *UTILIZATION_BUCKETS),
    "8": ("benchmark", "pct", *ENERGY_COMPONENTS, "total"),
    "9": ("benchmark", "pct", *TIME_COMPONENTS, "total"),
    "10": ("benchmark", "pct", "cold", "capacity", "upgrade", "sharing", "word", "total"),
    "11": ("pct", "completion", "energy"),
    "12": ("config", "completion", "energy"),
    "13": ("benchmark", *(f"T(k={k})" for k in (1, 3, 5, 7)),
           *(f"E(k={k})" for k in (1, 3, 5, 7))),
    "14": ("benchmark", "completion", "energy"),
    "ackwise-vs-fullmap": ("benchmark", "T ack/full", "E ack/full"),
    "victim-replication": ("benchmark", "T(vr)", "E(vr)", "T(adapt)", "E(adapt)", "replicas",
                           "rep.hits"),
    "protocol-families": ("benchmark", *(f"T({f})" for f in _FAMILIES),
                          *(f"E({f})" for f in _FAMILIES)),
    "ablation-link-model": ("benchmark", "none", "epoch", "naive"),
    "ablation-ackwise-pointers": ("benchmark", *(f"T(p={p})" for p in (1, 2, 4, 8)),
                                  *(f"bc(p={p})" for p in (1, 2, 4, 8))),
    "ablation-core-scaling": ("benchmark", "cores", "T ratio", "E ratio"),
    "ablation-vote-init": ("benchmark", "T ratio", "E ratio"),
}


class TestRenderedText:
    """The text each generator renders is what ``repro figures``, the
    examples and EXPERIMENTS.md print."""

    @pytest.mark.parametrize("entry", REGISTRY, ids=lambda entry: entry.id)
    def test_opens_with_the_figure_name(self, entry, tiny_runner):
        result = entry.generate(tiny_runner)
        first = next(line for line in result.text.splitlines() if line.strip("="))
        assert first.startswith(result.figure)

    def test_every_table_names_its_columns(self):
        assert set(COLUMNS) == {entry.id for entry in REGISTRY} - {"storage"}

    @pytest.mark.parametrize(
        "entry", [e for e in REGISTRY if e.id in COLUMNS], ids=lambda entry: entry.id
    )
    def test_header_row_splits_into_its_column_names(self, entry, tiny_runner):
        # No label runs into its neighbour: each column is wider than its name.
        lines = entry.generate(tiny_runner).text.splitlines()
        rules = [i for i, line in enumerate(lines) if line and not line.strip("=")]
        header = lines[rules[1] + 1]
        assert header.split() == " ".join(COLUMNS[entry.id]).split()

    @pytest.mark.parametrize("entry", REGISTRY, ids=lambda entry: entry.id)
    def test_prints_only_finite_numbers(self, entry, tiny_runner):
        # At tiny scale susan sends no L2 traffic and few lines are evicted,
        # so many of the normalized components are zero.
        text = entry.generate(tiny_runner).text
        assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)

    @pytest.mark.parametrize(
        "entry", [e for e in REGISTRY if e.id not in AGGREGATE_ONLY], ids=lambda entry: entry.id
    )
    def test_prints_every_benchmark_of_its_data_in_order(self, entry, tiny_runner):
        result = entry.generate(tiny_runner)
        benchmarks = [name for name in result.data if name in WORKLOAD_NAMES]
        labels = [line.split()[0] for line in result.text.splitlines() if line.strip()]
        printed = [label for label in dict.fromkeys(labels) if label in WORKLOAD_NAMES]
        assert benchmarks and printed == benchmarks

    @pytest.mark.parametrize("entry", REGISTRY, ids=lambda entry: entry.id)
    def test_cli_prints_exactly_the_text_from_a_warm_store(self, entry, tiny_runner, capsys):
        text = entry.generate(tiny_runner).text  # stores every point of the entry
        argv = ["--figure", entry.id, "--cores", "16", "--scale", "tiny",
                "--workloads", *NAMED_WORKLOADS, "--cache", str(tiny_runner.store.directory)]
        assert experiments_main(argv) == 0
        out, err = capsys.readouterr()
        assert out == text + "\n\n"
        assert err.endswith(" 0 simulated]\n")


class TestReportCli:
    @pytest.mark.parametrize(
        "extra",
        [["--scale", "tiny"], ["--cores", "16"], ["--workloads", "tsp"], ["--no-warmup"]],
    )
    def test_other_configuration_is_a_usage_error(self, extra):
        with pytest.raises(SystemExit) as exc:
            experiments_main(["--report", *extra])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bound, code", [(0.95, 0), (0.80, 1)])
    def test_exit_code_names_failing_row(self, bound, code, tmp_path, monkeypatch, capsys):
        row = dataclasses.replace(_row("11", "geomean completion time at PCT 4"), bound=bound)
        stub = Entry("11", "Figure 11", lambda runner: FigureResult("F", "t", FIG11_DATA, "T"),
                     "paper", "shape", (row,))
        monkeypatch.setattr(report, "REGISTRY", (stub,))
        monkeypatch.chdir(tmp_path)
        assert experiments_main(["--report", "--workers", "1"]) == code
        out = capsys.readouterr().out
        written = (tmp_path / "EXPERIMENTS.md").read_text()
        failed = "claim failed: Figure 11: geomean completion time at PCT 4: measured 0.846"
        assert (failed in out) is bool(code)
        assert ("| **NO** |" in written) is bool(code)
