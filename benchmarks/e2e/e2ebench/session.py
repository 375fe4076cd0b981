"""One workload, one process: set-ups, timed passes, the traced pass,
the staged layer calls and the correctness gate, in that order.

``pkts_per_s`` and ``setup_s`` are reported in seconds of a nominal host
(see :mod:`.calibrate`): the host factor is measured before and after
every timed pass and every set-up.  The wall figures ride along under
``wall``.  Per-layer metrics stay in plain wall time.

The order is chosen so that ``peak_rss_mib`` sees only the program under
test: the parent's high-water mark is read right after the timed passes,
before any tracing, staging or oracle is built; the workers' mark is
read after the last runner closes.  Three cold set-ups are timed — the
first is thrown away, the second carries the timed and traced passes,
the third carries the verification pass — so every runner built is used.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from typing import Any

from . import ROOT, layers, load_spec
from .calibrate import host_factor
from .spans import (
    ADVANCE_SPAN,
    CLASSIFY_SPANS,
    FLOWMOD_SPANS,
    PROCESS_BATCHES_SPAN,
    TracedRunner,
    Tracer,
    percentile,
)
from .verify import verify
from .workloads import BATCH_SIZE, REPLAY_ROOT, STREAM_ROOT, WORKLOADS, Handle, two_tier

TRACE_DIR = ROOT / "results" / "e2e"
#: Layers only some workloads have; their metrics read 0 elsewhere.
OPTIONAL_LAYERS = ("runtime.shard.", "runtime.streaming.")
_CLASSIFY = (*CLASSIFY_SPANS.values(), PROCESS_BATCHES_SPAN)
_FLOWMODS = tuple(FLOWMOD_SPANS.values())


def _summary(values: list[float]) -> dict:
    """Median, quartiles and count; a lone value is its own quartiles."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


class Session:
    def __init__(self, name: str, seed: int, *, quick: bool = False, trace: bool = False):
        self.name = name
        self.seed = seed
        self.quick = quick
        self.trace = trace
        start = time.perf_counter()
        self.bench = WORKLOADS[name](seed, quick)
        #: Where the benchmark's own wall time went, phase by phase.
        self.phases = {"gen_s": time.perf_counter() - start}
        self.setups: list[tuple[float, float]] = []  # (build_s, setup_s)
        self.setup_factors: list[float] = []
        self.untraced: list[float] = []  # seconds per replay
        self.untraced_factors: list[float] = []  # host factor of each replay's pass
        self.traced: list[float] = []
        self.tracer = Tracer()
        self.counts: dict[str, float] = {}
        self.rss_self_kib: int | None = None
        self.handle: Handle
        self.last_runner: Any = None
        self.last_outcome: Any = None
        self.model: dict[str, float] = {}

    # -- protocol ------------------------------------------------------

    def _setup(self) -> Handle:
        gc.collect()
        before = host_factor()
        handle = self.bench.setup()
        self.setup_factors.append((before + host_factor()) / 2)
        self.setups.append((handle.build_s, handle.setup_s))
        return handle

    def prepare(self) -> None:
        """Cold set-ups one and two, the memory model, one warm replay."""
        start = time.perf_counter()
        if not self.quick:  # quick keeps two set-ups: this one and finish()'s
            self.bench.close(self._setup())
        self.handle = self._setup()
        self.model = layers.memory(self.handle.arch, self.bench.rule_count())
        runner, payload = self.bench.prepare_pass(self.handle)
        self.bench.run_pass(runner, payload[:1])  # untimed: fills the caches
        self.phases["prepare_s"] = time.perf_counter() - start

    def timed_pass(self) -> list[float]:
        """One untraced pass; returns its per-replay wall seconds."""
        runner, payload = self.bench.prepare_pass(self.handle)
        gc.collect()
        before = host_factor()
        _, seconds = self.bench.run_pass(runner, payload)
        factor = (before + host_factor()) / 2
        self.untraced.extend(seconds)
        self.untraced_factors.extend([factor] * len(seconds))
        return seconds

    @property
    def _sharded(self) -> bool:
        """Probed the way ``run_stream`` picks its transport."""
        return hasattr(self.handle.runner, "submit_batch")

    def _mark_rss(self) -> None:
        if self.rss_self_kib is None:
            self.rss_self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_pass(self) -> list[float]:
        """One pass through the tracing proxies, counters read around it."""
        self._mark_rss()
        self.tracer.pass_index = len(self.traced)
        runner, payload = self.bench.prepare_pass(self.handle)
        self.last_runner = runner
        before = runner.stats_snapshot()
        scanned = runner.lifecycle.stats.entries_scanned
        gc.collect()
        outcomes, seconds = self.bench.run_pass(
            TracedRunner(runner, self.tracer), payload, self.tracer
        )
        after = runner.stats_snapshot()
        for field in ("batches", "waves", "cache_hits", "cache_misses",
                      "megaflow_hits", "megaflow_misses", "advances", "expired"):
            delta = getattr(after, field) - getattr(before, field)
            self.counts[field] = self.counts.get(field, 0) + delta
        self.counts["entries_scanned"] = self.counts.get("entries_scanned", 0) + (
            runner.lifecycle.stats.entries_scanned - scanned
        )
        self.last_outcome = outcomes[-1]
        self.traced.extend(seconds)
        return seconds

    def finish(self) -> dict:
        """Staged calls, close, third set-up, verification; the result."""
        self._mark_rss()
        bench = self.bench
        start = time.perf_counter()
        per_layer = self._staged() if self.trace else {}
        bench.close(self.handle)
        staged = time.perf_counter()
        last = self._setup()
        verdict = verify(bench, last)
        bench.close(last)
        self.phases["staged_s"] = staged - start
        self.phases["verify_s"] = time.perf_counter() - staged
        self.phases["timed_s"] = sum(self.untraced)
        self.phases["traced_s"] = sum(self.traced)
        children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if self.trace:
            with self.tracer.span("staged.runtime.rulestate"):
                per_layer.update(
                    layers.rulestate(last.arch, bench.rule_count(), bench.packet_dicts())
                )
            per_layer["openflow.table.scan_ns_per_pkt"] = verdict.scan_ns_per_pkt
            per_layer.update(self._traced_metrics())
            for metric in load_spec()["per_layer"]:
                if metric["name"].startswith(OPTIONAL_LAYERS):
                    per_layer.setdefault(metric["name"], 0)
            self._write_trace()

        # The two gated times are in nominal-host seconds: each wall
        # sample scaled by the host factor measured around it.
        wall = {
            "pkts_per_wall_s": [bench.replay_packets / s for s in self.untraced],
            "setup_wall_s": [total for _, total in self.setups],
            "host_factor": self.untraced_factors[:: bench.replays] + self.setup_factors,
        }
        samples = {
            "pkts_per_s": [
                rate / f for rate, f in zip(wall["pkts_per_wall_s"], self.untraced_factors)
            ],
            "setup_s": [
                total * f for (_, total), f in zip(self.setups, self.setup_factors)
            ],
            "peak_rss_mib": [(self.rss_self_kib + children_kib) / 1024],
            "model_bits_per_rule": [self.model["model_bits_per_rule"]],
            "verified_frac": [1.0 - verdict.fail_frac],
        }
        return {
            "workload": self.name,
            "seed": self.seed,
            "quick": self.quick,
            "config": bench.describe(),
            "phases": self.phases,
            "wall": {name: _summary(values) for name, values in wall.items()},
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "fail_frac": verdict.fail_frac,
            "failures": {k: v for k, v in verdict.breakdown.items() if v},
            "end_to_end": {name: _summary(values) for name, values in samples.items()},
            "per_layer": per_layer,
            "trace": self._shares() if self.trace else {},
        }

    # -- the traced run, read back -------------------------------------

    def _shares(self) -> dict:
        """Self-time share of the traced passes per layer, and what no
        span accounts for."""
        wall = sum(self.traced)
        by_layer: dict[str, float] = {}
        for name, seconds in self.tracer.self_times().items():
            layer = name.rsplit(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds / wall
        return {
            "untraced_replay_s": statistics.median(self.untraced),
            "traced_replay_s": statistics.median(self.traced),
            "shares": by_layer,
            "residual": 1.0 - sum(by_layer.values()),
            "spans": len(self.tracer.spans),
        }

    def _traced_metrics(self) -> dict[str, float]:
        """What the spans and counters of the traced passes say."""
        bench, tracer, counts = self.bench, self.tracer, self.counts
        replays = len(self.traced)
        wall = sum(self.traced)
        self_time = tracer.self_times()
        classify = tracer.durations(*_CLASSIFY)
        advance = tracer.durations(ADVANCE_SPAN)
        flowmod = tracer.durations(*_FLOWMODS)
        untraced = statistics.median(self.untraced)
        build_s = statistics.median(build for build, _ in self.setups)

        def rate(hits: str, misses: str) -> float:
            total = counts[hits] + counts[misses]
            return counts[hits] / total if total else 0.0

        optional = {}
        if self._sharded:
            optional["runtime.shard.spinup_s"] = statistics.median(
                total - build for build, total in self.setups
            )
        if bench.root_span == STREAM_ROOT:
            optional["runtime.streaming.self_frac"] = self_time[STREAM_ROOT] / wall
        return {
            **optional,
            **{k: v for k, v in self.model.items() if k.startswith("memory.report.")},
            "core.builder.build_s": build_s,
            "core.builder.rules_per_s": bench.rule_count() / build_s,
            "core.lookup_table.flowmod_us_p50": percentile(flowmod, 0.5) * 1e6,
            "core.lookup_table.flowmods": len(flowmod) / replays,
            "core.lookup_table.flowmod_frac": sum(flowmod) / wall,
            "runtime.cache.hit_rate": rate("cache_hits", "cache_misses"),
            "runtime.megaflow.hit_rate": rate("megaflow_hits", "megaflow_misses"),
            "runtime.batch.classify_us_p50": percentile(classify, 0.5) * 1e6,
            "runtime.batch.classify_us_p99": percentile(classify, 0.99) * 1e6,
            "runtime.batch.classify_frac": sum(classify) / wall,
            "runtime.batch.n_batches": len(classify) / replays,
            "runtime.batch.waves_per_batch": (
                counts["waves"] / counts["batches"] if counts["batches"] else 0.0
            ),
            "runtime.batch.replay_self_frac": self_time.get(REPLAY_ROOT, 0.0) / wall,
            "runtime.lifecycle.advance_us_p50": percentile(advance, 0.5) * 1e6,
            "runtime.lifecycle.advance_frac": sum(advance) / wall,
            "runtime.lifecycle.advances": counts["advances"] / replays,
            "runtime.lifecycle.entries_scanned": counts["entries_scanned"] / replays,
            "runtime.lifecycle.expired": counts["expired"] / replays,
            "trace.overhead_frac": (statistics.median(self.traced) - untraced) / untraced,
        }

    def _staged(self) -> dict[str, float]:
        """Staged layer calls on the runner and tables the passes used,
        recorded as sibling spans outside any pass."""
        bench, tracer = self.bench, self.tracer
        tracer.pass_index = -1
        arch = self.handle.arch
        dicts = bench.packet_dicts()
        out: dict[str, float] = {}
        with tracer.span("staged.packet.batch"):
            packet_metrics, batch = layers.packet_batch(dicts)
        out.update(packet_metrics)
        views = [
            batch[i : i + BATCH_SIZE]
            for i in range(0, min(len(batch), layers.STAGED_BATCHES * BATCH_SIZE), BATCH_SIZE)
        ]
        with tracer.span("staged.core.lookup_table"):
            out.update(layers.lookup_walk(arch, dicts))
        with tracer.span("staged.runtime.cache"):
            out.update(layers.microflow(arch, views))
        with tracer.span("staged.runtime.transport"):
            out.update(layers.transport(views))
        if bench.root_span == STREAM_ROOT:
            out.update(layers.streaming(self.last_outcome))
        tiered = self.last_runner
        if self._sharded:
            # The workers hold the caches; an in-process two-tier twin on
            # the same rules stands in for them and prices the IPC.
            tiered = two_tier(arch)
            sharded_ns = statistics.median(self.untraced) / bench.replay_packets * 1e9
            with tracer.span("staged.runtime.shard"):
                out.update(layers.shard(bench, self.handle, views, sharded_ns, tiered))
        with tracer.span("staged.runtime.megaflow"):
            out.update(layers.megaflow(tiered, views))
        return out

    def _write_trace(self) -> None:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"trace-{self.name}.json"
        path.write_text(json.dumps(self.tracer.records(self.name)))
