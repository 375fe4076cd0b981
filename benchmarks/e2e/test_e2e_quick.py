"""Tier-1 smoke of the end-to-end benchmark: ``run --quick`` over all five
workloads.  Asserts the output schema, correctness (``fail_frac == 0``)
and that the sharded workload leaves nothing behind — never a timing.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SHM = Path("/dev/shm")


def _shm_segments() -> set[str]:
    """Segments the runtime could have made: Python's default ``psm_``
    names and its own ``repro...`` prefixes."""
    if not SHM.is_dir():
        return set()
    return {name for name in os.listdir(SHM) if name.startswith(("psm_", "repro"))}


def _session_members(session: int) -> set[int]:
    """Live (non-zombie) pids in the given process session."""
    members = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, _pgrp, sid = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue  # the process ended while we were looking
        if state != "Z" and int(sid) == session:
            members.add(int(stat.parent.name))
    return members


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    shm_before = _shm_segments()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # Its own session, so every process the run starts can be found
    # afterwards even once its parent is gone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--seed", "1", "--quick",
         "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=600)
    assert proc.returncode == 0, stdout[-2000:] + stderr[-4000:]
    survivors = _session_members(proc.pid)
    deadline = time.perf_counter() + 10.0
    while survivors and time.perf_counter() < deadline:
        time.sleep(0.1)  # a resource tracker exits a beat after its owner
        survivors = _session_members(proc.pid)
    result = json.loads(out.read_text())
    result["_leaked_shm"] = sorted(_shm_segments() - shm_before)
    result["_leaked_pids"] = sorted(survivors)
    return result


def test_benchmark_json_names_are_well_formed() -> None:
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_workload_reports_every_metric(quick_set: dict) -> None:
    assert set(quick_set["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, workload in quick_set["workloads"].items():
        for metric in SPEC["end_to_end"]:
            stats = workload["end_to_end"][metric["name"]]
            assert stats["n"] >= 1, (name, metric["name"])
            for key in ("median", "q1", "q3"):
                assert math.isfinite(stats[key]), (name, metric["name"], key)
            assert stats["median"] > 0, (name, metric["name"])
        for metric in SPEC["per_layer"]:
            value = workload["per_layer"][metric["name"]]
            assert math.isfinite(value), (name, metric["name"])
        assert set(workload["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert math.isclose(
            sum(workload["trace"]["shares"].values()) + workload["trace"]["residual"], 1.0
        )


def test_outputs_agree_with_the_oracles(quick_set: dict) -> None:
    for name, workload in quick_set["workloads"].items():
        assert workload["attempted"] > 0, name
        assert workload["fail_frac"] == 0, (name, workload["failures"])


def test_workloads_do_what_their_reasons_say(quick_set: dict) -> None:
    # cold's regime (working set 3x the megaflow capacity) does not
    # survive the 16x shrink, so its claim is checked by full runs only.
    layer = {n: w["per_layer"] for n, w in quick_set["workloads"].items()}
    assert layer["hot"]["runtime.megaflow.hit_rate"] >= 0.99
    assert layer["churn"]["runtime.lifecycle.expired"] == 1024
    assert layer["stream"]["runtime.streaming.shed_packets"] == 0
    assert layer["sharded"]["runtime.shard.restarts"] == 0
    assert layer["sharded"]["runtime.shard.workers"] >= 1


def test_provenance_is_stamped(quick_set: dict) -> None:
    stamp = quick_set["provenance"]
    for key in ("seed", "cpu_count", "W", "python", "numpy", "git_sha",
                "loadavg_before", "loadavg_after"):
        assert key in stamp, key


def test_sharded_leaves_nothing_behind(quick_set: dict) -> None:
    assert quick_set["_leaked_shm"] == []
    assert quick_set["_leaked_pids"] == []
