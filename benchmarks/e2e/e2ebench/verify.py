"""The correctness gate: the runner under test against two oracles.

1. A cache-free ``BatchPipeline`` on fresh tables replays the same
   events; per-packet results, per-entry counters and the flow-removed
   ledger must agree exactly.
2. A behavioural ``FlowTable`` linear-scan pipeline, driven one packet at
   a time, answers a seeded sample of up to 1,024 packets.

Every disagreement, shed packet and unanswered packet is a failure;
``failed / attempted`` is the run's ``fail_frac``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.openflow.pipeline import OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.runtime import BatchPipeline, LifecycleSweeper, run_stream, run_workload

from .workloads import BATCH_SIZE, Bench, Handle, ReplayBench, fresh_entry

#: The scan oracle costs O(entries) per packet, so the sample shrinks
#: with the rule count: about this many entry visits, 64..1,024 packets.
SCAN_ENTRY_VISITS = 2_000_000


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    #: Failure counts by kind, for the human reading a red run.
    breakdown: dict[str, int] = field(default_factory=dict)
    scan_ns_per_pkt: float = 0.0

    def fail(self, kind: str, count: int) -> None:
        self.breakdown[kind] = count
        self.failed += count

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def _mismatches(got: list, want: list) -> int:
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def _entry_counters(arch: Any) -> Counter:
    """(table, rule identity) -> [packets, bytes] over the live entries."""
    counters: Counter = Counter()
    for table in arch.tables:
        for entry in table:
            key = (table.table_id, entry.match, entry.priority,
                   entry.idle_timeout, entry.hard_timeout)
            counters[key + ("packets",)] += entry.stats.packet_count
            counters[key + ("bytes",)] += entry.stats.byte_count
    return counters


def _counter_diff(got: Counter, want: Counter) -> int:
    return sum(got[key] != want[key] for key in got.keys() | want.keys())


def _scan_pipeline(arch: Any) -> OpenFlowPipeline:
    """The behavioural twin: same entries, linear-scan tables."""
    tables = []
    for table in arch.tables:
        scan = FlowTable(table_id=table.table_id)
        for entry in table:
            scan.add(fresh_entry(entry))
        tables.append(scan)
    return OpenFlowPipeline(tables=tables, miss_policy=arch.miss_policy)


def _sample_positions(seed: int, population: int, scan: OpenFlowPipeline) -> set[int]:
    entries = sum(len(table) for table in scan.tables)
    size = min(population, max(64, min(1024, SCAN_ENTRY_VISITS // entries)))
    rng = np.random.default_rng(seed ^ 0x5CA9)
    return set(rng.choice(population, size=size, replace=False).tolist())


def _verify_replay(bench: ReplayBench, handle: Handle, reference: BatchPipeline,
                   scan: OpenFlowPipeline, verdict: Verdict) -> None:
    got = run_workload(handle.runner, bench.events(), BATCH_SIZE, keep_results=True)
    want = run_workload(reference, bench.events(), BATCH_SIZE, keep_results=True)
    packets = bench.traffic.packet_count
    verdict.attempted += packets
    verdict.fail("unanswered", packets - len(got.results))
    verdict.fail("results", _mismatches(got.results, want.results))
    verdict.fail(
        "flow_removed",
        sum(((Counter(got.flow_removed) - Counter(want.flow_removed))
             + (Counter(want.flow_removed) - Counter(got.flow_removed))).values()),
    )

    # The scan oracle walks the same event list scalar by scalar —
    # flow-mods and clock sweeps included — answering only the sample.
    sample = _sample_positions(bench.seed, packets, scan)
    sweeper = LifecycleSweeper()
    position = mismatched = 0
    scan_time = 0.0
    for event in bench.events().events:
        if event[0] == "packets":
            for offset in range(len(event[1])):
                if position + offset in sample:
                    fields = event[1].fields_at(offset)
                    start = time.perf_counter()
                    answer = scan.process(fields)
                    scan_time += time.perf_counter() - start
                    mismatched += answer != got.results[position + offset]
            position += len(event[1])
        elif event[0] == "install":
            scan.table(event[1]).add(event[2])
        elif event[0] == "uninstall":
            scan.table(event[1]).remove(event[2], event[3])
        else:
            sweeper.advance(scan, event[1])
    verdict.attempted += len(sample)
    verdict.fail("scan_sample", mismatched)
    verdict.scan_ns_per_pkt = scan_time / len(sample) * 1e9


def _verify_stream(bench: Any, handle: Handle, reference: BatchPipeline,
                   scan: OpenFlowPipeline, verdict: Verdict) -> None:
    runner, (schedule,) = bench.prepare_pass(handle)
    got = run_stream(runner, schedule, bench.config)
    want = run_stream(reference, schedule, bench.config)
    got.assert_conserved()
    verdict.attempted += got.admitted_packets
    verdict.fail("shed", got.shed_packets)
    verdict.fail(
        "unanswered", got.admitted_packets - got.completed_packets - got.shed_packets
    )
    verdict.fail("results", _mismatches(list(got.results), list(want.results)))
    verdict.fail("latencies", _mismatches(list(got.latencies), list(want.latencies)))
    verdict.fail("flow_removed", _mismatches(list(got.flow_removed), list(want.flow_removed)))

    answered = {index: result for (index, _), result in zip(got.latencies, got.results)}
    packets = bench.packet_dicts()
    sample = sorted(_sample_positions(bench.seed, len(packets), scan))
    start = time.perf_counter()
    answers = [scan.process(packets[index]) for index in sample]
    scan_time = time.perf_counter() - start
    verdict.attempted += len(sample)
    verdict.fail(
        "scan_sample",
        sum(answered.get(index) != answer for index, answer in zip(sample, answers)),
    )
    verdict.scan_ns_per_pkt = scan_time / len(sample) * 1e9


def verify(bench: Bench, handle: Handle) -> Verdict:
    """Check ``handle``'s runner — fresh from :meth:`Bench.setup`, having
    answered only the first batch — against both oracles."""
    verdict = Verdict()
    ref_arch = bench.build_arch()
    scan = _scan_pipeline(ref_arch)
    reference = BatchPipeline(ref_arch, cache_capacity=None)
    # The runner under test answered the first batch during set-up;
    # the reference answers it too so per-entry counters stay comparable.
    reference.process_batch(bench.first_batch)
    if isinstance(bench, ReplayBench):
        _verify_replay(bench, handle, reference, scan, verdict)
    else:
        _verify_stream(bench, handle, reference, scan, verdict)
    verdict.fail(
        "entry_counters",
        _counter_diff(_entry_counters(handle.arch), _entry_counters(ref_arch)),
    )
    supervision = getattr(handle.runner, "supervision_snapshot", None)
    if supervision is not None:
        # A healthy run recovers from nothing: any crash, wedge or
        # restart means the timings included recovery work.
        verdict.fail("supervision", sum(supervision().values()))
    return verdict
