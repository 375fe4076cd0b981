"""End-to-end benchmark of the lookup runtime: five workloads, five
end-to-end metrics and a traced per-layer run.

``BENCHMARK.json`` at the repo root names every metric with its unit,
direction and bound; ``benchmarks/e2e/README.md`` is the glossary.
Nothing here is imported by the library or its tests — the benchmark
measures :mod:`repro` from outside, through its public functions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: ``benchmarks/e2e`` — the one directory the benchmark owns.
BENCH_DIR = Path(__file__).resolve().parents[1]
#: Root of the checkout the benchmark runs in.
ROOT = BENCH_DIR.parents[1]


def load_spec() -> dict:
    """The committed ``BENCHMARK.json``: the single source of metric
    names, units, directions and bounds for ``run`` and ``compare``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_library() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit non-zero when
    the program under test is not there to measure."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"e2e benchmark: no program to measure under {src}")
    if str(src) not in sys.path:
        sys.path[:0] = [str(src)]
