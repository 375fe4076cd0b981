"""The CI perf-regression gate must actually gate: a synthetic
regression in a speedup ratio fails the check, measurements inside the
tolerance band pass, and bench-mode churn (keys on one side only) never
blocks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import check_regression  # noqa: E402  (path set up above)


def write_record(path: Path, speedups: dict, streaming: dict | None = None) -> Path:
    record: dict = {"benchmark": "throughput", "speedups": speedups}
    if streaming is not None:
        record["streaming"] = streaming
    path.write_text(json.dumps(record))
    return path


def streaming_section(**overrides) -> dict:
    section = {
        "schedule": "bursty",
        "arrival_count": 2000,
        "shed_packets": 820,
        "shed_packets_rerun": 820,
        "p99_ticks": 40,
    }
    section.update(overrides)
    return section


BASELINE = {
    "cached_batch_vs_decomposition": 20.0,
    "pipelined_vs_serial_shm_small_batch": 1.1,
}


class TestRunChecks:
    def test_within_band_passes(self):
        checks = check_regression.run_checks(
            BASELINE,
            {
                # Smoke ratios legitimately sit below full-run ones; the
                # band absorbs that.
                "cached_batch_vs_decomposition": 6.0,
                "pipelined_vs_serial_shm_small_batch": 1.0,
            },
        )
        assert checks and all(check.ok for check in checks)

    def test_synthetic_regression_fails(self):
        """The demonstration the gate exists for: cached batch collapsing
        from 20x to 2x must trip the check."""
        checks = check_regression.run_checks(
            BASELINE,
            {
                "cached_batch_vs_decomposition": 2.0,
                "pipelined_vs_serial_shm_small_batch": 1.0,
            },
        )
        failed = [check for check in checks if not check.ok]
        assert [check.key for check in failed] == [
            "cached_batch_vs_decomposition"
        ]

    def test_key_churn_is_not_gated(self):
        """A mode only in the baseline (skipped in smoke) or only in the
        current run (newer than the committed record) is ignored."""
        checks = check_regression.run_checks(
            {"old_mode": 5.0, "shared": 2.0},
            {"new_mode": 0.01, "shared": 2.0},
        )
        assert [check.key for check in checks] == ["shared"]
        assert all(check.ok for check in checks)

    def test_absolute_floor_guards_near_unity_ratios(self):
        """Half of a ~1.0x baseline is vacuous; the absolute floor is
        what actually catches a transport turning into a slowdown."""
        checks = check_regression.run_checks(
            {"pipelined_vs_serial_shm_small_batch": 1.07},
            {"pipelined_vs_serial_shm_small_batch": 0.6},
        )
        (check,) = checks
        assert check.floor == pytest.approx(0.8)  # not 0.5 * 1.07
        assert not check.ok

    def test_floor_scales_with_tolerance(self):
        (check,) = check_regression.run_checks(
            {"k": 10.0}, {"k": 7.9}, tolerances={}, default_tolerance=0.8
        )
        assert check.floor == pytest.approx(8.0)
        assert not check.ok


class TestCli:
    def test_exit_codes_and_output(self, tmp_path, capsys):
        baseline = write_record(tmp_path / "baseline.json", BASELINE)
        good = write_record(
            tmp_path / "good.json",
            {"cached_batch_vs_decomposition": 8.0},
        )
        bad = write_record(
            tmp_path / "bad.json",
            {"cached_batch_vs_decomposition": 1.0},
        )
        ok = check_regression.main(
            ["--baseline", str(baseline), "--current", str(good)]
        )
        assert ok == 0
        assert "within tolerance" in capsys.readouterr().out

        failed = check_regression.main(
            ["--baseline", str(baseline), "--current", str(bad)]
        )
        assert failed == 1
        assert "FAIL cached_batch_vs_decomposition" in capsys.readouterr().out

    def test_tolerance_override(self, tmp_path):
        baseline = write_record(tmp_path / "baseline.json", {"k": 10.0})
        current = write_record(tmp_path / "current.json", {"k": 9.0})
        assert (
            check_regression.main(
                [
                    "--baseline",
                    str(baseline),
                    "--current",
                    str(current),
                    "--tolerance",
                    "0.95",
                ]
            )
            == 1
        )
        assert (
            check_regression.main(
                [
                    "--baseline",
                    str(baseline),
                    "--current",
                    str(current),
                    "--tolerance",
                    "0.8",
                ]
            )
            == 0
        )

    def test_empty_speedups_rejected(self, tmp_path):
        empty = write_record(tmp_path / "empty.json", {})
        with pytest.raises(SystemExit):
            check_regression.load_speedups(empty)

    def test_gate_passes_on_the_committed_record_itself(self):
        """Self-check: the committed baseline trivially satisfies its own
        bands (tolerances are all < 1)."""
        baseline = check_regression.load_speedups(
            check_regression.BASELINE_PATH
        )
        checks = check_regression.run_checks(baseline, baseline)
        assert checks and all(check.ok for check in checks)

    def test_every_gated_key_is_in_the_committed_record(self):
        """A bench mode deleted with its record row must take its
        tolerance / floor / cpu-sensitivity rows along."""
        baseline = check_regression.load_speedups(
            check_regression.BASELINE_PATH
        )
        gated = (
            set(check_regression.TOLERANCES)
            | set(check_regression.ABSOLUTE_FLOORS)
            | check_regression.CPU_SENSITIVE_KEYS
        )
        assert gated <= set(baseline), sorted(gated - set(baseline))


class TestStreamingGate:
    def test_identical_sections_pass(self):
        section = streaming_section()
        failures, notes = check_regression.run_streaming_checks(
            section, section
        )
        assert failures == []
        assert any(note.startswith("ok   streaming p99") for note in notes)

    def test_shed_determinism_is_hard(self):
        """A rerun that sheds even one packet differently fails with no
        tolerance — same seed must shed identically."""
        failures, _ = check_regression.run_streaming_checks(
            streaming_section(),
            streaming_section(shed_packets=820, shed_packets_rerun=821),
        )
        assert len(failures) == 1
        assert "not deterministic" in failures[0]

    def test_p99_band(self):
        ok_failures, _ = check_regression.run_streaming_checks(
            streaming_section(p99_ticks=40),
            streaming_section(p99_ticks=55),  # within 1.5x of 40
        )
        assert ok_failures == []
        bad_failures, _ = check_regression.run_streaming_checks(
            streaming_section(p99_ticks=40),
            streaming_section(p99_ticks=70),
        )
        assert len(bad_failures) == 1
        assert "p99 regressed" in bad_failures[0]

    def test_resized_schedule_skips_the_band(self):
        """Virtual-tick percentiles are only comparable on the same
        schedule; a resize skips the band but keeps the determinism
        check."""
        failures, notes = check_regression.run_streaming_checks(
            streaming_section(arrival_count=2000),
            streaming_section(
                arrival_count=4000, p99_ticks=900, shed_packets_rerun=821
            ),
        )
        assert len(failures) == 1  # determinism still gated
        assert any("schedule resized" in note for note in notes)

    def test_missing_sections_skip(self):
        failures, notes = check_regression.run_streaming_checks({}, {})
        assert failures == []
        assert any("no streaming section" in note for note in notes)
        failures, notes = check_regression.run_streaming_checks(
            {}, streaming_section()
        )
        assert failures == []
        assert any("baseline record has no streaming" in n for n in notes)

    def test_cli_fails_on_streaming_regression(self, tmp_path, capsys):
        """End-to-end: healthy speedups but a nondeterministic shed
        ledger must still exit 1."""
        baseline = write_record(
            tmp_path / "base.json", BASELINE, streaming_section()
        )
        current = write_record(
            tmp_path / "cur.json",
            {"cached_batch_vs_decomposition": 8.0},
            streaming_section(shed_packets_rerun=800),
        )
        assert check_regression.main(
            ["--baseline", str(baseline), "--current", str(current)]
        ) == 1
        assert "not deterministic" in capsys.readouterr().out

    def test_cli_passes_without_streaming_sections(self, tmp_path, capsys):
        """Records predating the streaming bench still gate cleanly."""
        baseline = write_record(tmp_path / "base.json", BASELINE)
        current = write_record(
            tmp_path / "cur.json",
            {"cached_batch_vs_decomposition": 8.0},
        )
        assert check_regression.main(
            ["--baseline", str(baseline), "--current", str(current)]
        ) == 0
        assert "skip streaming" in capsys.readouterr().out


class TestCpuStamps:
    def test_cpu_sensitive_key_skipped_across_hosts(self):
        """A sharded ratio recorded on 1 cpu must not gate (or excuse) a
        4-cpu runner — the key is skipped, not compared."""
        skipped: list[str] = []
        checks = check_regression.run_checks(
            {"sharded_vs_single": 0.24, "cached_batch_vs_decomposition": 20.0},
            {"sharded_vs_single": 0.1, "cached_batch_vs_decomposition": 8.0},
            baseline_cpus={
                "sharded_vs_single": 1,
                "cached_batch_vs_decomposition": 1,
            },
            current_cpus={
                "sharded_vs_single": 4,
                "cached_batch_vs_decomposition": 4,
            },
            skipped=skipped,
        )
        assert skipped == ["sharded_vs_single"]
        # The cpu-insensitive key is still gated across hosts.
        assert [check.key for check in checks] == [
            "cached_batch_vs_decomposition"
        ]

    def test_cpu_sensitive_key_gated_on_same_host(self):
        checks = check_regression.run_checks(
            {"sharded_vs_single": 2.0},
            {"sharded_vs_single": 0.1},
            baseline_cpus={"sharded_vs_single": 4},
            current_cpus={"sharded_vs_single": 4},
        )
        (check,) = checks
        assert not check.ok

    def test_load_record_stamps(self, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(
            json.dumps(
                {
                    "cpu_count": 2,
                    "speedups": {"a": 1.0, "sharded_vs_single": 0.5},
                    "speedup_cpus": {"sharded_vs_single": 8},
                }
            )
        )
        speedups, cpus = check_regression.load_record(path)
        assert speedups == {"a": 1.0, "sharded_vs_single": 0.5}
        # Per-key stamp wins; unstamped keys fall back to cpu_count.
        assert cpus == {"a": 2, "sharded_vs_single": 8}

    def test_main_passes_when_everything_cpu_skipped(self, tmp_path, capsys):
        baseline = write_record(
            tmp_path / "base.json",
            {"sharded_vs_single": 0.24},
        )
        current = tmp_path / "cur.json"
        current.write_text(
            json.dumps(
                {
                    "cpu_count": 4,
                    "speedups": {"sharded_vs_single": 0.1},
                }
            )
        )
        # Baseline has no cpu info at all -> stamp None vs 4 -> skip.
        assert check_regression.main(
            ["--baseline", str(baseline), "--current", str(current)]
        ) == 0
        out = capsys.readouterr().out
        assert "skip sharded_vs_single" in out

    def test_absolute_floor_survives_cpu_mismatch(self):
        """Transport-slowdown floors hold on any host: a cpu-mismatched
        pipelined ratio loses only its baseline-relative band."""
        checks = check_regression.run_checks(
            {"pipelined_vs_serial_shm_small_batch": 1.1},
            {"pipelined_vs_serial_shm_small_batch": 0.5},
            baseline_cpus={"pipelined_vs_serial_shm_small_batch": 1},
            current_cpus={"pipelined_vs_serial_shm_small_batch": 4},
        )
        (check,) = checks
        assert check.floor == pytest.approx(0.8)  # the absolute floor
        assert not check.ok
