"""``compare``: judge result sets against the first one, metric by metric.

Each end-to-end metric has a direction and a bound in ``BENCHMARK.json``.
A row is ``regressed`` when the candidate's median is worse than the
base's by more than the bound; ``unresolved`` when either side's spread
(interquartile range over median) is wider than the bound, unless every
candidate sample beats every base sample; ``unchanged`` otherwise.  Every
ratio is candidate over base, and the base is printed beside it.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import load_spec

#: Per-layer values that must repeat exactly between sets of one commit.
EXACT_PER_LAYER = (
    "runtime.streaming.p99_ticks",
    "runtime.streaming.shed_packets",
    "runtime.lifecycle.expired",
    "runtime.rulestate.sealed_bytes_per_rule",
)


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def judge(base: dict, cand: dict, better: str, bound: float) -> tuple[str, float]:
    """(status, worsening as a share of the base median)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cand["median"] - base["median"]) / base["median"]
    if worse > bound:
        return "regressed", worse
    if max(_spread(base), _spread(cand)) > bound:
        if better == "lower":
            clear = max(cand["samples"]) < min(base["samples"])
        else:
            clear = min(cand["samples"]) > max(base["samples"])
        if not clear:
            return "unresolved", worse
    return "unchanged", worse


def _cell(stats: dict) -> str:
    return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}] n={stats['n']}"


def compare(paths: list[Path]) -> int:
    """Print one row per (workload, metric) per candidate; return the
    number of regressed rows."""
    spec = load_spec()
    base_path, *cand_paths = paths
    base_set = json.loads(base_path.read_text())
    regressions = 0
    for cand_path in cand_paths:
        cand_set = json.loads(cand_path.read_text())
        print(f"base {base_path} (seed {base_set['provenance']['seed']})  vs  "
              f"candidate {cand_path} (seed {cand_set['provenance']['seed']})")
        for name, base in base_set["workloads"].items():
            cand = cand_set["workloads"].get(name)
            if cand is None:
                print(f"{name:8s} missing from candidate: regressed")
                regressions += 1
                continue
            for metric in spec["end_to_end"]:
                b, c = base["end_to_end"][metric["name"]], cand["end_to_end"][metric["name"]]
                status, worse = judge(b, c, metric["better"], metric["bound"])
                regressions += status == "regressed"
                print(
                    f"{name:8s} {metric['name']:20s} {metric['unit']:10s} "
                    f"{metric['better']:6s} bound {metric['bound']:<6g} "
                    f"base {_cell(b)}  cand {_cell(c)}  "
                    f"cand/base {c['median'] / b['median']:.4f} (base {b['median']:.6g})  "
                    f"worse by {worse:+.4f}  {status}"
                )
            status = "regressed" if cand["fail_frac"] > 0 else "unchanged"
            regressions += status == "regressed"
            print(f"{name:8s} {'fail_frac':20s} fraction   lower  bound 0      "
                  f"base {base['fail_frac']:.6g}  cand {cand['fail_frac']:.6g}  {status}")
            for exact in EXACT_PER_LAYER:
                b, c = base["per_layer"].get(exact), cand["per_layer"].get(exact)
                if b is not None and c is not None:
                    print(f"{name:8s}   {exact:44s} base {b!r}  cand {c!r}  "
                          f"{'identical' if b == c else 'differs'}")
    print(f"{regressions} regressed row(s)")
    return regressions
