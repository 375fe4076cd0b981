"""Tier-1 smoke of the paper-table benchmark entry points.

Runs one paper benchmark (the update path, whose incremental
install/remove claims this repo's churn fixes serve) under pytest with
``--smoke`` (tiny synthetic inputs) and ``--benchmark-disable`` (each
benchmark body executes exactly once), so regressions in the benchmark
fixtures surface in the fast suite rather than on the next manual
benchmark run.  The perf harness has its own tier-1 smoke,
``benchmarks/e2e/test_e2e_quick.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_benchmarks_smoke_mode():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/bench_update.py",
            "--smoke",
            "--benchmark-disable",
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, (
        "benchmark smoke run failed\n"
        f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    )
    assert " passed" in completed.stdout
