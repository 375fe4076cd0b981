"""Flow-stats conservation across every runner path.

The conservation laws: every processed packet either misses table 0 or
bumps exactly one table-0 entry's packet counter, and every matched
packet credits its full frame length to that entry, so

    sum(per-entry packet counters) == matched == packets - misses
    sum(per-entry byte counters) == trace bytes - miss bytes

must hold under churn (entries removed and reinstalled mid-trace keep
their counters — the workload reinstalls the *same* objects) and on
every runner: single-process batch runners record on their own entries,
and the sharded runners — lockstep and pipelined — must merge worker
deltas back into the parent's entries (the PR-2 gap: worker hits never
reached the parent, so parent-side stats read zero; the PR-3 gap: byte
counts were wired end-to-end but always zero, because packets carried
no frame lengths).
"""

import copy
import gc
import pickle
import sys
import threading

import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction
from repro.openflow.flow import COUNTERS, UNSTAMPED, FlowEntry, FlowStats
from repro.openflow.instructions import WriteActions
from repro.openflow.match import Match
from repro.openflow.pipeline import OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD, frame_length
from repro.runtime import (
    BatchPipeline,
    LifecycleSweeper,
    ShardedBatchPipeline,
    churn_workload,
    run_workload,
)

PACKETS = 300
FRAME_DIST = "imix"  # per-packet lengths: the harder byte-accounting case


def build_runner(rule_set, entries, kind):
    table = OpenFlowLookupTable(tuple(rule_set.field_names), table_id=0)
    for entry in entries:
        table.add(entry)
    arch = MultiTableLookupArchitecture([table])
    if kind == "batch":
        return BatchPipeline(arch, cache_capacity=None)
    if kind == "cached":
        return BatchPipeline(arch, cache_capacity=256)
    if kind == "megaflow":
        return BatchPipeline(arch, cache_capacity=256, megaflow_capacity=512)
    return ShardedBatchPipeline(
        arch,
        workers=3,
        cache_capacity=256,
        megaflow_capacity=512,
        depth=4 if kind.endswith("-pipelined") else 1,
    )


def replay(rule_set, kind):
    """Fresh entries + a churn workload that mutates those same objects."""
    entries = list(rule_set.to_flow_entries())
    workload = churn_workload(
        rule_set,
        packet_count=PACKETS,
        flow_count=24,
        churn_rules=6,
        rounds=4,
        entries=entries,
        frame_len=FRAME_DIST,
    )
    runner = build_runner(rule_set, entries, kind)
    try:
        stats = run_workload(runner, workload, batch_size=64, keep_results=True)
    finally:
        if isinstance(runner, ShardedBatchPipeline):
            runner.close()
    return entries, stats, workload


ALL_KINDS = (
    "batch",
    "cached",
    "megaflow",
    "sharded-shm",
    "sharded-shm-pipelined",
)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_packet_conservation_under_churn(small_routing_set, kind):
    entries, stats, _ = replay(small_routing_set, kind)
    assert stats.packets == PACKETS
    assert stats.installs == stats.uninstalls > 0
    total = sum(entry.stats.packet_count for entry in entries)
    misses = stats.packets - stats.matched
    assert total == stats.matched, (
        f"{kind}: {total} per-entry packets vs {stats.matched} matched"
    )
    assert total + misses == stats.packets
    # The aggregate counter mirrors the per-entry sum (single table:
    # one matched entry per matched packet).
    assert stats.flow_packets == total


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_byte_conservation_under_churn(small_routing_set, kind):
    """Byte conservation: trace bytes = per-entry byte sum + miss bytes,
    on every runner path, with per-packet (IMIX) frame lengths."""
    entries, stats, workload = replay(small_routing_set, kind)
    per_entry_bytes = sum(entry.stats.byte_count for entry in entries)
    miss_bytes = sum(
        frame_length(result.final_fields)
        for result in stats.results
        if not result.matched_entries
    )
    trace_bytes = workload.byte_count
    assert trace_bytes > 0, "the IMIX trace must carry frame lengths"
    assert per_entry_bytes > 0, f"{kind}: byte counters stayed zero"
    assert per_entry_bytes + miss_bytes == trace_bytes, (
        f"{kind}: {per_entry_bytes} entry bytes + {miss_bytes} miss bytes "
        f"!= {trace_bytes} trace bytes"
    )
    # The aggregate counter mirrors the per-entry sum (single table:
    # one matched entry per matched packet).
    assert stats.flow_bytes == per_entry_bytes


@pytest.mark.parametrize("kind", ("sharded-shm", "sharded-shm-pipelined"))
def test_sharded_flow_stats_match_single_process_exactly(
    small_routing_set, kind
):
    """Acceptance: parent-side per-entry counters after a sharded churn
    replay equal the single-process runner's, entry for entry — packet
    *and* byte counts, lockstep and pipelined."""
    single_entries, single_stats, _ = replay(small_routing_set, "megaflow")
    sharded_entries, sharded_stats, _ = replay(small_routing_set, kind)
    single = {
        (e.match, e.priority): (e.stats.packet_count, e.stats.byte_count)
        for e in single_entries
    }
    sharded = {
        (e.match, e.priority): (e.stats.packet_count, e.stats.byte_count)
        for e in sharded_entries
    }
    assert sharded == single
    assert sharded_stats.flow_packets == single_stats.flow_packets > 0
    assert sharded_stats.flow_bytes == single_stats.flow_bytes > 0


def test_scalar_paths_conserve(small_routing_set):
    """The law holds on the scalar scan/decomposition references too."""
    entries = list(small_routing_set.to_flow_entries())
    table = OpenFlowLookupTable(
        tuple(small_routing_set.field_names), table_id=0
    )
    for entry in entries:
        table.add(entry)
    arch = MultiTableLookupArchitecture([table])
    workload = churn_workload(
        small_routing_set, packet_count=100, flow_count=12, entries=entries
    )
    matched = 0
    packets = 0
    for event in workload.events:
        if event[0] == "packets":
            for fields in event[1]:
                packets += 1
                matched += bool(arch.process(fields).matched_entries)
        elif event[0] == "install":
            arch.table(event[1]).add(event[2])
        else:
            arch.table(event[1]).remove(event[2], event[3])
    assert packets == 100
    total = sum(entry.stats.packet_count for entry in entries)
    assert total == matched
    # Fixed-length frames (the scenario default): every match credits
    # exactly one MTU frame, so bytes are packets * frame length.
    from repro.packet.generator import DEFAULT_FRAME_LEN

    total_bytes = sum(entry.stats.byte_count for entry in entries)
    assert total_bytes == matched * DEFAULT_FRAME_LEN > 0


class TestCounterColumns:
    """An entry's counters and lifecycle stamps are its row of the
    process's counter columns (``COUNTERS``): the row goes wherever the
    entry goes — out of a table and back, into a second table — a copy
    gets a row of its own, and a collected entry's row comes back
    reset."""

    @staticmethod
    def entry(port):
        return FlowEntry.build(
            match=Match.exact(in_port=port),
            priority=1,
            instructions=[WriteActions([OutputAction(port)])],
        )

    @staticmethod
    def classify(runner, port, frames):
        batch = PacketBatch.from_dicts(
            [{"in_port": port, FRAME_LEN_FIELD: frame} for frame in frames]
        )
        return runner.classify_columnar(batch)

    def test_counts_survive_remove_and_reinstall(self):
        entry = self.entry(1)
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        table.add(entry)
        runner = BatchPipeline(
            MultiTableLookupArchitecture([table]), megaflow_capacity=16
        )
        self.classify(runner, 1, (64, 128))
        row = entry.stats.row
        table.remove(entry.match, entry.priority)
        self.classify(runner, 1, (1500,))  # a miss now: credits nothing
        assert (entry.stats.packet_count, entry.stats.byte_count) == (2, 192)
        table.add(entry)
        self.classify(runner, 1, (100,))
        assert entry.stats.row == row
        assert (entry.stats.packet_count, entry.stats.byte_count) == (3, 292)
        assert (COUNTERS.packets[row], COUNTERS.bytes[row]) == (3, 292)

    @staticmethod
    def row_of(stats):
        return (
            stats.packet_count,
            stats.byte_count,
            stats.installed_at,
            stats.last_touched,
            stats.swept_packets,
        )

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))]
    )
    def test_a_copy_counts_in_a_row_of_its_own(self, duplicate):
        entry = self.entry(2)
        entry.stats.installed_at = 2
        entry.touch_packet(byte_count=70, now=5)
        entry.stats.add(2, 30)
        entry.stats.swept_packets = 1  # as a sweep would leave it
        twin = duplicate(entry)
        assert twin.stats.row != entry.stats.row
        assert self.row_of(twin.stats) == self.row_of(entry.stats) == (3, 100, 2, 5, 1)
        twin.stats.record(1)
        twin.stats.installed_at = 8
        twin.stats.last_touched = 9
        assert self.row_of(entry.stats) == (3, 100, 2, 5, 1)
        assert self.row_of(twin.stats) == (4, 101, 8, 9, 1)

    def test_a_collected_entrys_row_is_reused_zeroed(self):
        entry = self.entry(3)
        entry.stats.add(7, 700)
        entry.stats.installed_at = 2
        entry.touch_packet(now=5)
        entry.stats.swept_packets = 8
        row = entry.stats.row
        del entry
        gc.collect()
        assert row in COUNTERS.free
        # Every free row handed out again, the collected one among them.
        reused = {stats.row: stats for stats in [FlowStats() for _ in COUNTERS.free[:]]}
        assert self.row_of(reused[row]) == (0, 0, UNSTAMPED, UNSTAMPED, 0)

    def test_stats_hold_only_their_row(self):
        assert FlowStats.__slots__ == ("row",)

    def test_an_entry_shared_by_two_tables_counts_in_one_row(self):
        """The oracle scan and a decomposition table holding the same
        entry object credit the same counters, as they always have."""
        entry = self.entry(4)
        oracle = FlowTable(table_id=0)
        oracle.add(entry)
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        table.add(entry)
        OpenFlowPipeline([oracle]).process({"in_port": 4, FRAME_LEN_FIELD: 60})
        runner = BatchPipeline(
            MultiTableLookupArchitecture([table]), megaflow_capacity=16
        )
        self.classify(runner, 4, (100, 200))
        assert (entry.stats.packet_count, entry.stats.byte_count) == (3, 360)

    def test_concurrent_allocation_and_credit_lose_nothing(self):
        """Threads building entries — enough to regrow the columns —
        while others credit fixed entries and a sweeper stamps idle-timed
        ones: every credit and every stamp lands, and every live entry
        holds a row of its own."""
        credited = [self.entry(port) for port in range(2)]
        swept = [
            FlowEntry.build(match=Match.exact(in_port=port), priority=1, idle_timeout=10**9)
            for port in range(8)
        ]
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        for entry in swept:
            table.add(entry)
        arch = MultiTableLookupArchitecture([table])
        sweeper = LifecycleSweeper()
        grow = len(COUNTERS.packets) - COUNTERS.used + 64
        built = [[], []]
        rounds = 2000
        sweeps = 200

        def build(out):
            for _ in range(grow // 2 + 1):
                out.append(FlowStats())

        def credit(entry):
            for _ in range(rounds):
                entry.stats.add(1, 3)

        def sweep():
            for _ in range(sweeps):
                for entry in swept:
                    entry.stats.record(3)
                sweeper.advance(arch, 1)

        workers = [threading.Thread(target=build, args=(out,)) for out in built]
        workers += [threading.Thread(target=credit, args=(e,)) for e in credited]
        workers.append(threading.Thread(target=sweep))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for entry in credited:
            assert (entry.stats.packet_count, entry.stats.byte_count) == (
                rounds,
                3 * rounds,
            )
        # The last sweep ran at tick ``sweeps - 1`` and saw every credit.
        for entry in swept:
            assert self.row_of(entry.stats) == (sweeps, 3 * sweeps, 0, sweeps - 1, sweeps)
        live = [stats.row for out in built for stats in out]
        live += [entry.stats.row for entry in credited + swept]
        assert len(set(live)) == len(live)
