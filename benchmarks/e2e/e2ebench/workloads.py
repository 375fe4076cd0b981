"""The five workloads: rule sets, seeded traffic, set-up and one pass.

Rule sets are the fixed calibrated ones; the seed drives flow sampling,
arrival gaps and frame lengths only.  Every workload classifies IMIX
frames in 256-packet batches behind the same cache sizes, so the five
differ in *which layer does the work*, not in configuration.  The
per-workload reasons are recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table, build_prototype
from repro.filters.synthetic import large_rule_set, mac_set, routing_set
from repro.openflow.flow import FlowEntry
from repro.packet.batch import PacketBatch
from repro.packet.generator import PacketGenerator, TraceConfig
from repro.runtime import (
    BatchPipeline,
    ShardedBatchPipeline,
    StreamConfig,
    Workload,
    poisson_arrivals,
    run_stream,
    run_workload,
    timeout_churn_workload,
    zipf_workload,
)
from repro.runtime.scenarios import stamp_frame_lengths

BATCH_SIZE = 256
CACHE_CAPACITY = 4096
MEGAFLOW_CAPACITY = 8192
FLOW_COUNT = 200
#: ``--quick`` divides every packet count by this.
QUICK_DIVISOR = 16

REPLAY_ROOT = "runtime.batch.run_workload"
STREAM_ROOT = "runtime.streaming.run_stream"


@dataclass
class Handle:
    """What one cold set-up produced, and how long it took."""

    arch: MultiTableLookupArchitecture
    runner: Any
    build_s: float
    setup_s: float


def two_tier(arch: MultiTableLookupArchitecture) -> BatchPipeline:
    """The in-process runner every workload's caches are sized by."""
    return BatchPipeline(arch, CACHE_CAPACITY, MEGAFLOW_CAPACITY)


def fresh_entry(entry: FlowEntry) -> FlowEntry:
    """A twin of ``entry`` with zeroed counters and lifecycle stamps."""
    return FlowEntry(
        match=entry.match,
        priority=entry.priority,
        instructions=entry.instructions,
        cookie=entry.cookie,
        idle_timeout=entry.idle_timeout,
        hard_timeout=entry.hard_timeout,
    )


class Bench:
    """What every workload shares: a rule set, a cold set-up, a close."""

    name = ""
    replays = 1
    root_span = REPLAY_ROOT
    #: Set by :meth:`generate`.
    first_batch: Any
    replay_packets: int

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.divisor = QUICK_DIVISOR if quick else 1
        self.generate()

    def rule_set(self):
        return routing_set("yoza")

    def rule_count(self) -> int:
        return len(self.rule_set().rules)

    def generate(self) -> None:
        """Make the seeded inputs (untimed; reported as ``gen_s``)."""
        raise NotImplementedError

    def build_arch(self) -> MultiTableLookupArchitecture:
        return MultiTableLookupArchitecture([build_lookup_table(self.rule_set())])

    def make_runner(self, arch: MultiTableLookupArchitecture) -> Any:
        return two_tier(arch)

    def setup(self) -> Handle:
        """Rule set in hand -> first 256-packet batch answered."""
        start = time.perf_counter()
        arch = self.build_arch()
        built = time.perf_counter()
        runner = self.make_runner(arch)
        answered = runner.process_batch(self.first_batch)
        done = time.perf_counter()
        if len(answered) != len(self.first_batch):
            raise RuntimeError(f"{self.name}: first batch came back short")
        return Handle(arch, runner, built - start, done - start)

    def close(self, handle: Handle) -> None:
        closer = getattr(handle.runner, "close", None)
        if closer is not None:
            closer()

    def prepare_pass(self, handle: Handle) -> tuple[Any, list]:
        """Untimed: the runner and the inputs of the next pass, one
        item per replay."""
        raise NotImplementedError

    def replay(self, runner: Any, item: Any) -> Any:
        """Classify one replay's inputs; returns the runtime's report."""
        raise NotImplementedError

    def run_pass(self, runner: Any, payload: list, tracer=None) -> tuple[list, list[float]]:
        """Timed: classify the whole pass.  Returns each replay's report
        and wall seconds; with a tracer, each replay is a root span."""
        outcomes, seconds = [], []
        for item in payload:
            start = time.perf_counter()
            if tracer is None:
                outcomes.append(self.replay(runner, item))
            else:
                with tracer.span(self.root_span):
                    outcomes.append(self.replay(runner, item))
            seconds.append(time.perf_counter() - start)
        return outcomes, seconds

    def packet_dicts(self) -> list[dict[str, int]]:
        """Every packet of one replay, as field dicts (staged calls)."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "rules": self.rule_count(),
            "packets_per_replay": self.replay_packets,
            "replays_per_pass": self.replays,
            "batch_size": BATCH_SIZE,
        }


class ReplayBench(Bench):
    """Closed loop, one client (the benchmark process): ``replays`` x
    ``run_workload`` per pass on one resident runner."""

    traffic: Workload

    def generate(self) -> None:
        self.traffic = self.make_traffic()
        first = next(e[1] for e in self.traffic.events if e[0] == "packets")
        self.first_batch = first[:BATCH_SIZE]
        self.replay_packets = self.traffic.packet_count

    def make_traffic(self) -> Workload:
        raise NotImplementedError

    def events(self) -> Workload:
        """One replay's events, safe to hand to a runner that has not
        seen them (single-use install twins are re-minted)."""
        return self.traffic

    def prepare_pass(self, handle: Handle) -> tuple[Any, list[Workload]]:
        return handle.runner, [self.events() for _ in range(self.replays)]

    def replay(self, runner: Any, item: Workload) -> Any:
        return run_workload(runner, item, BATCH_SIZE)

    def packet_dicts(self) -> list[dict[str, int]]:
        return [
            fields
            for event in self.traffic.events
            if event[0] == "packets"
            for fields in event[1].dicts()
        ]

    def describe(self) -> dict:
        return {**super().describe(), "traffic": self.traffic.description}


class Hot(ReplayBench):
    """200 zipf flows far inside both caches: the fast-path floor."""

    name = "hot"
    replays = 32

    def make_traffic(self) -> Workload:
        return zipf_workload(
            self.rule_set(),
            packet_count=32768 // self.divisor,
            flow_count=FLOW_COUNT,
            seed=self.seed,
            frame_len="imix",
            columnar=True,
        )


class Cold(ReplayBench):
    """The paper's four-table prototype under a working set 3x the
    megaflow capacity: the decomposition walk does the work."""

    name = "cold"

    def rule_count(self) -> int:
        return len(mac_set("gozb").rules) + len(routing_set("yoza").rules)

    def make_traffic(self) -> Workload:
        macs, routes = mac_set("gozb"), routing_set("yoza")
        flows = packets = 24576 // self.divisor
        generator = PacketGenerator(TraceConfig(seed=self.seed))
        mac_pool = generator.flow_pool(
            [rule.to_match() for rule in macs.rules], macs.field_names
        )
        route_pool = generator.flow_pool(
            [rule.to_match() for rule in routes.rules], routes.field_names
        )
        rng = np.random.default_rng(self.seed ^ 0xC01D)
        # Distinct (MAC rule, Routing rule) pairs -> distinct flows; the
        # routing half goes last so its in_port wins over the filler.
        pairs = rng.choice(len(mac_pool) * len(route_pool), size=flows, replace=False)
        pool = [
            {**mac_pool[int(p) // len(route_pool)], **route_pool[int(p) % len(route_pool)]}
            for p in pairs
        ]
        trace = [pool[int(i)] for i in rng.integers(0, flows, size=packets)]
        trace = stamp_frame_lengths(trace, "imix", self.seed)
        return Workload(
            name="cold",
            description=f"{packets} pkts uniform over {flows} distinct MACxRouting flows",
            events=(("packets", PacketBatch.from_dicts(trace)),),
        )

    def build_arch(self) -> MultiTableLookupArchitecture:
        return build_prototype(mac_set("gozb"), routing_set("yoza"))


class Churn(ReplayBench):
    """Hot's layers used as writes beside reads: flow-mods, version
    bumps, revalidation and expiry sweeps."""

    name = "churn"
    replays = 2

    def make_traffic(self) -> Workload:
        return timeout_churn_workload(
            self.rule_set(),
            packet_count=32768 // self.divisor,
            flow_count=FLOW_COUNT,
            rounds=64,
            mice_per_round=16,
            seed=self.seed,
            frame_len="imix",
            columnar=True,
        )

    def events(self) -> Workload:
        # The built workload is single-use (its install events carry the
        # mice twins, counters and all); re-minting the twins is a fresh
        # same-seed copy without paying trace generation again.
        return Workload(
            name=self.traffic.name,
            description=self.traffic.description,
            events=tuple(
                ("install", event[1], fresh_entry(event[2]))
                if event[0] == "install"
                else event
                for event in self.traffic.events
            ),
        )


class Sharded(Hot):
    """Hot's traffic behind worker processes on 30k rules: pass time is
    IPC, and set-up and memory are large enough to measure."""

    name = "sharded"
    replays = 4

    def __init__(self, seed: int, quick: bool) -> None:
        #: Parent + workers never exceed the cores there are.
        self.workers = max(1, min(3, (os.cpu_count() or 1) - 1))
        super().__init__(seed, quick)

    def rule_set(self):
        return large_rule_set(30000)

    def make_runner(self, arch: MultiTableLookupArchitecture) -> Any:
        return ShardedBatchPipeline(
            arch,
            workers=self.workers,
            cache_capacity=CACHE_CAPACITY,
            megaflow_capacity=MEGAFLOW_CAPACITY,
            transport="shm",
            depth=4,
            shared_rules=True,
        )

    def describe(self) -> dict:
        return {**super().describe(), "W": self.workers}


class Stream(Bench):
    """Open-loop in virtual ticks at offered load 0.5: admission, batch
    formation and the per-tick clock sweep dominate; packets are dicts."""

    name = "stream"
    root_span = STREAM_ROOT
    config = StreamConfig(capacity=512, batch_size=64, service_rate=4.0)

    def generate(self) -> None:
        self.schedule = poisson_arrivals(
            self.rule_set(),
            packet_count=16384 // self.divisor,
            mean_gap=0.5,
            flow_count=FLOW_COUNT,
            seed=self.seed,
            frame_len="imix",
        )
        self.first_batch = self.packet_dicts()[:BATCH_SIZE]
        self.replay_packets = self.schedule.packet_count

    def prepare_pass(self, handle: Handle) -> tuple[Any, list]:
        # A fresh two-tier runner per pass: the virtual clock restarts
        # at 0, so every pass replays the identical tick sequence.
        return self.make_runner(handle.arch), [self.schedule]

    def replay(self, runner: Any, item: Any) -> Any:
        return run_stream(runner, item, self.config)

    def packet_dicts(self) -> list[dict[str, int]]:
        return [e[1] for e in self.schedule.events if e[0] == "packet"]

    def describe(self) -> dict:
        return {
            **super().describe(),
            "batch_size": self.config.batch_size,
            "traffic": self.schedule.description,
            "offered_load": self.schedule.offered_load,
            "service_rate": self.config.service_rate,
        }


WORKLOADS = {cls.name: cls for cls in (Hot, Cold, Churn, Stream, Sharded)}
