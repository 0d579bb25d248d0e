"""The experiment registry, its claim checks and the EXPERIMENTS.md it renders."""

from __future__ import annotations

import dataclasses
import numbers

import pytest

from repro.experiments import report
from repro.experiments.cli import main as experiments_main
from repro.experiments.figures import FigureResult
from repro.experiments.harness import ExperimentRunner, bench_arch
from repro.experiments.report import REGISTRY, Claim, Entry, Ref, render

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
        assert sum(len(entry.claims) for entry in REGISTRY) == 46
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
def tiny_runner():
    return ExperimentRunner(arch=bench_arch(16), scale="tiny", workloads=NAMED_WORKLOADS)


@pytest.mark.parametrize("entry", REGISTRY, ids=lambda entry: entry.id)
def test_generator_feeds_every_row_at_tiny_scale(entry, tiny_runner):
    # The bounds were written for the paper configuration, so only the
    # measures are exercised here: each reads a number from the data.
    result = entry.generate(tiny_runner)
    for claim in entry.claims:
        verdict = claim.check(result.data)
        assert isinstance(verdict.measured, numbers.Real), claim.label
        assert isinstance(verdict.bound, numbers.Real), claim.label


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
