"""SweepGrid expansion semantics and the ``repro sweep``/``cache`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError
from repro.experiments.harness import (
    PCT_SWEEP_WIDE, ExperimentRunner, adaptive_protocol, bench_arch, protocol_for_pct,
)
from repro.runner.cli import main as cli_main
from repro.runner.sweep import FIGURE11_PCTS, SweepGrid, grid_from_args, sweep_rows, sweep_table


class TestSweepGrid:
    def test_default_grid_is_figure11(self):
        grid = SweepGrid()
        assert grid.pcts == FIGURE11_PCTS
        assert len(grid.jobs()) == 21 * len(FIGURE11_PCTS)

    def test_pct_family_treats_one_as_baseline(self):
        grid = SweepGrid(workloads=("tsp",), pcts=(1, 4), arch=bench_arch(16))
        protos = grid.protocols()
        assert [p.protocol for p in protos] == ["baseline", "adaptive"]
        assert protos[1].pct == 4

    def test_adaptive_family_forces_adaptive_at_pct_one(self):
        grid = SweepGrid(
            workloads=("tsp",), families=("adaptive",), pcts=(1, 4), arch=bench_arch(16)
        )
        assert [p.protocol for p in grid.protocols()] == ["adaptive", "adaptive"]

    def test_families_deduplicate(self):
        grid = SweepGrid(
            workloads=("tsp",), families=("pct", "baseline"), pcts=(1, 4),
            arch=bench_arch(16),
        )
        # "baseline" repeats the pct=1 point of the "pct" family.
        assert len(grid.protocols()) == 2

    def test_rat_max_follows_large_pct(self):
        grid = SweepGrid(workloads=("tsp",), pcts=(20,), arch=bench_arch(16))
        assert grid.protocols()[0].rat_max == 20

    def test_victim_family(self):
        grid = SweepGrid(
            workloads=("tsp",), families=("victim",), pcts=(1,), arch=bench_arch(16)
        )
        assert [p.protocol for p in grid.protocols()] == ["victim"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepGrid(workloads=("nope",))
        with pytest.raises(ConfigError):
            SweepGrid(families=("nope",))
        with pytest.raises(ConfigError):
            SweepGrid(pcts=())

    def test_sweep_and_figure_points_share_job_keys(self):
        # One evaluation convention: a `repro sweep` store keeps serving
        # `repro figures`, because both build the same job per point.
        assert FIGURE11_PCTS == PCT_SWEEP_WIDE
        workloads, pcts = ("radix", "tsp"), (1, 2, 4, 20)
        runner = ExperimentRunner(arch=bench_arch(16), scale="tiny", workloads=workloads)
        for family, rule in (("pct", protocol_for_pct), ("adaptive", adaptive_protocol)):
            grid = grid_from_args(workloads, (family,), pcts, 16, "tiny", True, 0)
            assert [job.key for job in grid.jobs()] == [
                runner.job(w, rule(p)).key for w in workloads for p in pcts
            ]

    def test_describe_counts_jobs(self):
        grid = SweepGrid(workloads=("tsp", "matmul"), pcts=(1, 4), arch=bench_arch(16))
        assert "= 4 jobs" in grid.describe()


class TestRendering:
    def test_rows_and_table(self):
        grid = SweepGrid(workloads=("tsp",), pcts=(1,), arch=bench_arch(16), scale="tiny")
        from repro.runner.parallel import ParallelRunner

        jobs = grid.jobs()
        rows = sweep_rows(jobs, ParallelRunner().run(jobs))
        assert rows[0]["workload"] == "tsp"
        assert rows[0]["completion_time"] > 0
        text = sweep_table(rows)
        assert "tsp" in text and "baseline" in text


class TestSweepCli:
    ARGS = [
        "sweep", "--workloads", "tsp", "--pct", "1", "4", "--cores", "16",
        "--scale", "tiny", "--quiet",
    ]

    def test_cold_then_warm_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert cli_main(self.ARGS + ["--cache", cache, "--json", str(cold_json)]) == 0
        cold_err = capsys.readouterr().err
        assert "2 simulated" in cold_err

        assert cli_main(self.ARGS + ["--cache", cache, "--json", str(warm_json)]) == 0
        warm_err = capsys.readouterr().err
        assert "0 simulated" in warm_err
        assert json.loads(cold_json.read_text()) == json.loads(warm_json.read_text())

    def test_table_output(self, tmp_path, capsys):
        assert cli_main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "tsp" in out

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        assert cli_main(["sweep", "--workloads", "nope", "--no-cache"]) == 1
        assert "unknown workloads" in capsys.readouterr().err

    def test_pct_below_one_rejected(self, capsys):
        assert cli_main(["sweep", "--workloads", "tsp", "--pct", "0", "--no-cache"]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_figures_delegation_forwards_leading_optionals(self, capsys):
        # Regression: argparse REMAINDER dropped "--figure 11"-style args.
        assert cli_main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figures" in out and "workloads" in out

    def test_trace_delegation(self, tmp_path, capsys):
        out_file = tmp_path / "t.traceb"
        assert cli_main(
            ["trace", "generate", "tsp", str(out_file), "--scale", "tiny", "--cores", "16"]
        ) == 0
        assert out_file.exists()

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert cli_main(self.ARGS + ["--cache", cache, "--json", "-"]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "info", "--cache", cache]) == 0
        info = capsys.readouterr().out
        assert "2 results" in info and "tsp" in info
        assert cli_main(["cache", "clear", "--cache", cache]) == 0
        assert "cleared 2" in capsys.readouterr().out


class TestComparisonFamilies:
    def test_dls_and_neat_families(self):
        grid = SweepGrid(
            workloads=("tsp",), families=("dls", "neat"), pcts=(1,),
            arch=bench_arch(16),
        )
        protos = grid.protocols()
        assert [p.protocol for p in protos] == ["dls", "neat"]
        assert all(p.directory == "none" for p in protos)

    def test_families_have_no_pct_axis(self):
        # dls/neat are single grid points: the PCT axis must not multiply them.
        grid = SweepGrid(
            workloads=("tsp",), families=("dls", "neat"), pcts=(1, 4, 8),
            arch=bench_arch(16),
        )
        assert len(grid.protocols()) == 2

    def test_six_way_grid_expands(self):
        grid = SweepGrid(
            workloads=("tsp",),
            families=("baseline", "victim", "dls", "neat", "phase", "adaptive"),
            pcts=(4,), arch=bench_arch(16),
        )
        assert [p.protocol for p in grid.protocols()] == [
            "baseline", "victim", "dls", "neat", "phase", "adaptive",
        ]

    def test_phase_family_is_a_single_directory_point(self):
        grid = SweepGrid(
            workloads=("tsp",), families=("phase",), pcts=(1, 4, 8),
            arch=bench_arch(16),
        )
        protos = grid.protocols()
        assert len(protos) == 1  # no PCT axis
        assert protos[0].protocol == "phase"
        assert protos[0].directory != "none"

    def test_cli_accepts_new_families(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        code = cli_main([
            "sweep", "--workloads", "tsp", "--pct", "1", "--protocols", "dls", "neat",
            "--cores", "16", "--scale", "tiny", "--no-cache", "--quiet",
            "--json", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["protocol"] for r in rows] == ["dls", "neat"]
        assert rows[0]["l1d_miss_rate"] == 1.0  # DLS never caches

    def test_six_way_verified_sweep_acceptance(self, tmp_path, capsys):
        """Acceptance: a grid with all six protocols completes under
        golden-verify (any coherence violation would abort the run)."""
        out = tmp_path / "rows.json"
        code = cli_main([
            "sweep", "--workloads", "tsp", "--pct", "4",
            "--protocols", "pct", "baseline", "victim", "dls", "neat", "phase",
            "--verify", "--cores", "16", "--scale", "tiny",
            "--no-cache", "--quiet", "--json", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert sorted({r["protocol"] for r in rows}) == [
            "adaptive", "baseline", "dls", "neat", "phase", "victim",
        ]
