"""``python -m benchmarks.e2e run|compare`` — whole sets and their verdicts.

    PYTHONPATH=src python -m benchmarks.e2e run --seed 1 --out a.json
    PYTHONPATH=src python -m benchmarks.e2e run --seed 1 --out b.json
    python -m benchmarks.e2e compare a.json b.json

``run`` measures every workload (or the ones named) as one set and
prints every metric by name and unit; ``compare`` applies each metric's
direction and bound.  A single workload in a single process — what
``BENCHMARK.json`` names — is ``python3 benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

from e2ebench import load_spec  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one set of all workloads")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append", choices=names,
                     help="only this workload (repeatable)")
    run.add_argument("--quick", action="store_true",
                     help="16x fewer packets, one timed pass per workload")
    run.add_argument("--out", type=Path, required=True)
    compare = commands.add_parser("compare", help="judge sets against the first")
    compare.add_argument("sets", type=Path, nargs="+")
    args = parser.parse_args(argv)

    if args.command == "compare":
        if len(args.sets) < 2:
            parser.error("compare needs a base set and at least one candidate")
        from e2ebench.compare import compare as compare_sets

        return 1 if compare_sets(args.sets) else 0

    from e2ebench.orchestrate import print_set, run_set

    result = run_set(args.seed, args.workload or names, args.quick)
    args.out.write_text(json.dumps(result, indent=1))
    print_set(result)
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
