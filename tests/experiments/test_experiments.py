"""Tests for the experiment harness and the light experiments' claims.

The heavy experiments (those that build all 16 filters, including the
>180 k-rule ones) run under the ``slow`` marker and in the benchmark
suite; the quick ones are executed directly here with their shape
assertions.
"""

import pytest

from repro.experiments.registry import (
    ExperimentResult,
    all_experiments,
    experiment,
    get_experiment,
    run_experiment,
)
from repro.util.tables import TextTable

EXPECTED_IDS = {
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "prototype",
    "ablation",
    "baseline-tcam",
}


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert EXPECTED_IDS <= set(all_experiments())

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            experiment("table2")(lambda: ExperimentResult("table2"))

    def test_result_render_and_csv(self, tmp_path):
        result = ExperimentResult(experiment_id="demo")
        table = TextTable(headers=["a"], title="t")
        table.add_row([1])
        result.tables.append(table)
        result.headline["x"] = 1.0
        result.notes.append("note text")
        rendered = result.render()
        assert "demo" in rendered and "note text" in rendered and "x=1" in rendered
        paths = result.write_csvs(tmp_path)
        assert paths[0].name == "demo.csv"
        assert paths[0].exists()

    def test_multiple_tables_get_suffixes(self, tmp_path):
        result = ExperimentResult(experiment_id="multi")
        for _ in range(2):
            table = TextTable(headers=["a"])
            table.add_row([1])
            result.tables.append(table)
        paths = result.write_csvs(tmp_path)
        assert [p.name for p in paths] == ["multi-0.csv", "multi-1.csv"]

    def test_run_experiment_writes_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        run_experiment("table2")
        assert (tmp_path / "table2.csv").exists()


class TestTable2:
    def test_claims(self):
        result = run_experiment("table2", write_csv=False)
        assert result.headline["match_fields_excluding_metadata"] == 39
        assert result.headline["common_fields"] == 15
        assert result.headline["metadata_bits"] == 64
        assert len(result.tables[0].rows) == 15


class TestTable3:
    def test_every_cell_matches_paper(self):
        result = run_experiment("table3", write_csv=False)
        assert result.headline["cell_mismatches_vs_paper"] == 0
        assert len(result.tables[0].rows) == 16


class TestTable1:
    def test_quantified_comparison(self):
        result = run_experiment("table1", write_csv=False)
        assert result.headline["hypercuts_replication"] >= 1.0
        assert result.headline["tcam_kbits"] > 0
        qualitative = result.tables[0]
        assert len(qualitative.rows) == 4


class TestFig3:
    def test_shape_claims(self):
        result = run_experiment("fig3", write_csv=False)
        assert result.headline["max_is_gozb"] == 1.0
        assert result.headline["max_l1_records"] <= 32
        assert result.headline["max_l1_bits"] <= 1024  # "less than 1 Kbit"
        # Paper scale: 983.7 Kbits; full-array must be within a factor ~2.
        assert 500 <= result.headline["max_total_kbits_full_array"] <= 2000


class TestThroughput:
    def test_counters_land_next_to_memory_claims(self):
        result = run_experiment("throughput", write_csv=False)
        # The wide scenario's defining contrast: exact-match caching
        # collapses while the wildcard tier absorbs the trace.
        assert result.headline["uniform_wide_microflow_hit_rate"] <= 0.05
        assert result.headline["uniform_wide_megaflow_hit_rate"] >= 0.5
        assert result.headline["total_mbits"] > 0
        assert result.headline["churn_action_free_hwm"] >= 1
        scenario_table, memory_table = result.tables
        assert len(scenario_table.rows) == 6  # the full catalog
        assert any("free hwm" in str(row) for row in memory_table.rows)
        # Lifecycle columns: timeout-churn must report expiries and the
        # other scenarios (no advance events) must report none.
        assert result.headline["timeout_churn_expired_entries"] > 0
        assert result.headline["timeout_churn_sweep_entry_lanes"] > 0
        # Open-loop streaming: the declared service rate is overloaded
        # (so packets shed and the tail is measured) while the relaxed
        # run — capacity above offered load — sheds nothing.
        assert result.headline["stream_overload_shed_packets"] > 0
        assert result.headline["stream_overload_p99_ticks"] > 0
        assert result.headline["stream_relaxed_shed_packets"] == 0
        assert (
            result.headline["stream_offered_load_pkts_per_tick"] > 0.5
        )  # the declared service rate the bursts overwhelm

    def test_headline_repeats_exactly(self):
        """Every headline value is a count on the virtual clock: wall
        rates belong to the repo benchmark, so the experiment holds no
        stopwatch and two runs agree to the last digit."""
        from repro.experiments import throughput

        assert not hasattr(throughput, "time")
        first = run_experiment("throughput", write_csv=False)
        second = run_experiment("throughput", write_csv=False)
        assert first.headline == second.headline
        assert not any("per_sec" in key for key in first.headline)


class TestRunnerCli:
    def test_list(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig5" in out

    def test_unknown_experiment_errors(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_run_single(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Experiment table2" in out
