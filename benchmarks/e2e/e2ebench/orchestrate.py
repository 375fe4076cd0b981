"""``run``: all workloads as one set, each in its own resident child.

A child per workload keeps ``peak_rss_mib`` and the cached rule sets from
leaking across workloads.  Children generate their inputs at once, set up
one at a time, then the timed passes go round-robin — pass 1 of every workload, pass 2 of every
workload, ... — so slow drift in host speed lands on every workload's
median alike instead of on whichever ran last.  A child that is not
running a pass blocks on its stdin pipe, so nothing contends.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from . import BENCH_DIR, ROOT, load_spec

FULL_PASSES = 7


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(seed: int, quick: bool) -> dict:
    import numpy

    return {
        "seed": seed,
        "quick": quick,
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
    }


class _Child:
    def __init__(self, workload: str, seed: int, quick: bool) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "1", "--serve",
        ]
        if quick:
            command.append("--quick")
        self.workload = workload
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.workload}: child exited with {self.proc.wait()} mid-protocol"
            )
        return line.strip()

    def ask(self, command: str) -> str:
        self.send(command)
        return self.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def _each(children: list[_Child], command: str, together: bool = False) -> list[str]:
    """Send ``command`` to every child and read each one's reply — one
    child at a time, or (``together``) all of them at once."""
    if together:
        for child in children:
            child.send(command)
        return [child.read() for child in children]
    return [child.ask(command) for child in children]


def run_set(seed: int, workloads: list[str], quick: bool) -> dict:
    """One full set: every workload's result plus provenance.

    Anything timed runs one child at a time.  ``quick`` times nothing
    worth keeping, so its set-ups and verifications overlap.
    """
    stamp = provenance(seed, quick)
    children: list[_Child] = []
    try:
        for name in workloads:
            children.append(_Child(name, seed, quick))
        _each(children, "prepare", together=quick)
        for _ in range(1 if quick else FULL_PASSES):
            _each(children, "pass")
        _each(children, "trace")
        finished = _each(children, "finish", together=quick)
        for child in children:
            child.proc.wait(timeout=60)
    finally:
        for child in children:
            child.stop()
    results = {c.workload: json.loads(line) for c, line in zip(children, finished)}
    stamp["loadavg_after"] = list(os.getloadavg())
    stamp["W"] = results.get("sharded", {}).get("config", {}).get("W")
    return {"schema": 1, "provenance": stamp, "workloads": results}


def print_set(result: dict) -> None:
    spec = load_spec()
    for name, workload in result["workloads"].items():
        for metric in spec["end_to_end"]:
            stats = workload["end_to_end"][metric["name"]]
            print(
                f"{name:8s} {metric['name']:22s} {stats['median']:>14.6g} "
                f"[{stats['q1']:.6g}, {stats['q3']:.6g}] n={stats['n']} {metric['unit']}"
            )
        for wall_name, stats in workload["wall"].items():
            print(
                f"{name:8s} {wall_name:22s} {stats['median']:>14.6g} "
                f"[{stats['q1']:.6g}, {stats['q3']:.6g}] n={stats['n']} (not gated)"
            )
        print(f"{name:8s} {'fail_frac':22s} {workload['fail_frac']:>14.6g} "
              f"({workload['failed']} of {workload['attempted']}) fraction")
        for metric in spec["per_layer"]:
            value = workload["per_layer"][metric["name"]]
            print(f"{name:8s}   {metric['name']:44s} {value:>14.6g} {metric['unit']}")
        trace = workload["trace"]
        shares = "  ".join(f"{k}={v:.3f}" for k, v in trace["shares"].items())
        print(
            f"{name:8s}   self-time shares of a traced replay "
            f"({trace['traced_replay_s']:.4f} s; untraced median "
            f"{trace['untraced_replay_s']:.4f} s): {shares}  residual={trace['residual']:.3f}"
        )
