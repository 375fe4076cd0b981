"""One workload in one process — the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload hot --seed 1 --seconds 10 --trace 0

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero when any output disagreed
with the oracles.

``--serve`` keeps the process resident behind a line protocol on
stdin/stdout (``prepare`` / ``pass`` / ``trace`` / ``finish``) so that
``python -m benchmarks.e2e run`` can interleave the passes of all five
workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

from e2ebench import load_spec, require_library  # noqa: E402

#: A run measures at least this many passes, however short ``--seconds``.
MIN_PASSES = 3


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="16x fewer packets, one timed pass")
    parser.add_argument("--out", type=Path, help="also write the full result here")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _repeat(step, floor: int, budget: float) -> None:
    start = time.perf_counter()
    passes = 0
    while passes < floor or time.perf_counter() - start < budget:
        step()
        passes += 1


def measure(session, seconds: float, quick: bool, trace: bool) -> dict:
    """Timed passes for ``seconds`` — half of them traced when tracing."""
    session.prepare()
    budget = 0.0 if quick else seconds / 2 if trace else seconds
    _repeat(session.timed_pass, 1 if quick else MIN_PASSES, budget)
    if trace:
        _repeat(session.traced_pass, 1, budget)
    return session.finish()


def serve(session) -> dict:
    """Resident mode: one command per stdin line, one JSON reply each."""
    steps = {
        "prepare": session.prepare,
        "pass": session.timed_pass,
        "trace": session.traced_pass,
    }
    for line in sys.stdin:
        command = line.strip()
        if command == "finish":
            break
        if command not in steps:
            raise SystemExit(f"unknown command {command!r}")
        print(json.dumps(steps[command]()), flush=True)
    return session.finish()


def report(result: dict, spec: dict, trace: bool) -> str:
    """Print each metric with its unit; return the driver's JSON line."""
    if trace:
        values = result["per_layer"]
    else:
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{result['workload']:8s} {name:44s} {values[name]:>16.6g} {unit}")
    for name, stats in result["wall"].items():
        print(f"{result['workload']:8s} {name:44s} {stats['median']:>16.6g} (not gated)")
    phases = "  ".join(f"{k}={v:.2f}" for k, v in result["phases"].items())
    print(f"{result['workload']:8s} benchmark phases: {phases}")
    print(f"{result['workload']:8s} {'fail_frac':44s} {result['fail_frac']:>16.6g} fraction"
          f"   ({result['failed']} of {result['attempted']}) {result['failures'] or ''}")
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _stop_resource_tracker() -> None:
    """The shm transport starts multiprocessing's resource tracker; stop
    it and wait for it, so no process of ours outlives this one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_library()
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    from e2ebench.session import Session

    trace = bool(args.trace)
    session = Session(args.workload, args.seed, quick=args.quick, trace=trace)
    if args.serve:
        result = serve(session)
        print(json.dumps(result), flush=True)
    else:
        result = measure(session, args.seconds, args.quick, trace)
        if args.out is not None:
            args.out.write_text(json.dumps(result, indent=1))
        print(report(result, spec, trace), flush=True)
    _stop_resource_tracker()
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
