"""The committed perf record and the docs that quote it cannot drift.

``BENCH_throughput.json`` is one unedited ``python -m benchmarks.e2e run
--seed 1`` set.  These tests check its shape against ``BENCHMARK.json``
(the contract the harness itself is held to) and tie every figure in
README's "Headline numbers" table to the record — never a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RECORD_PATH = REPO_ROOT / "BENCH_throughput.json"
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]

#: One README cell: ``median [q1, q3] n=N``.
_CELL = re.compile(r"(\S+) \[(\S+), (\S+)\] n=(\d+)")


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(RECORD_PATH.read_text())


def _as_printed(value: float, printed: str) -> str:
    """``value`` formatted to as many decimals as ``printed`` shows."""
    decimals = len(printed.partition(".")[2])
    return f"{value:.{decimals}f}"


def test_record_is_a_full_stamped_set(record):
    assert record["schema"] == 1
    stamp = record["provenance"]
    assert stamp["quick"] is False
    assert re.fullmatch(r"[0-9a-f]{40}", stamp["git_sha"])
    assert stamp["cpu_count"] >= 1
    assert stamp["W"] >= 1


def test_every_contract_metric_is_recorded(record):
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for name, workload in record["workloads"].items():
        for metric in END_TO_END:
            stats = workload["end_to_end"][metric]
            assert stats["n"] == len(stats["samples"]) >= 1, (name, metric)
            assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric)
        assert set(workload["per_layer"]) == {
            metric["name"] for metric in SPEC["per_layer"]
        }, name


def test_record_agrees_with_the_oracles(record):
    for name, workload in record["workloads"].items():
        assert workload["attempted"] > 0, name
        assert workload["fail_frac"] == 0, (name, workload["failures"])
        assert workload["end_to_end"]["verified_frac"]["median"] == 1.0, name


def test_record_passes_its_own_gate():
    """The set is well-formed input for the CI gate: compared with
    itself, ``compare`` finds no regressed row."""
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare",
         str(RECORD_PATH), str(RECORD_PATH)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.rstrip().endswith("0 regressed row(s)")


def test_readme_headline_numbers_are_the_record(record):
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Headline numbers", 1)[1].split("\n## ", 1)[0]
    stamp = record["provenance"]
    assert f"`{stamp['git_sha'][:7]}`" in section
    assert f"{stamp['cpu_count']} CPUs" in section
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    header, _rule, *body = rows
    metrics = [cell.strip("`") for cell in header[1:]]
    assert set(metrics) <= set(END_TO_END) and metrics
    assert [row[0].strip("`") for row in body] == WORKLOADS
    for row in body:
        workload = record["workloads"][row[0].strip("`")]
        for metric, cell in zip(metrics, row[1:], strict=True):
            stats = workload["end_to_end"][metric]
            match = _CELL.fullmatch(cell)
            assert match, (row[0], metric, cell)
            *quoted, n = match.groups()
            for key, printed in zip(("median", "q1", "q3"), quoted, strict=True):
                assert printed == _as_printed(stats[key], printed), (row[0], metric, key)
            assert int(n) == stats["n"], (row[0], metric)
