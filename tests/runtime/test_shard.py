"""ShardedBatchPipeline: replica snapshots, bitwise-identical results
across the scenario catalog, and the mutation-log catch-up protocol."""

import os
import pickle
import signal
import sys
from collections import deque
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table, build_per_field_pipeline
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import GotoTable, WriteActions
from repro.openflow.match import Match
from repro.openflow.pipeline import OpenFlowPipeline
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    SCENARIOS,
    BatchPipeline,
    FaultPlan,
    FaultSpec,
    LifecycleSweeper,
    PipelineSpec,
    ShardedBatchPipeline,
    run_workload,
)
from repro.runtime import shard, transport
from repro.runtime.protocol import ByeReply, ShmReply
from repro.runtime.transport import SharedBlock

from tests.runtime.conftest import (
    needs_dev_shm,
    replay_path_without_the_action_set,
    shm_mappings,
    shm_segments,
)
from tests.runtime.test_batch import bounded
from tests.runtime.test_megaflow import assert_same_result


def make_arch(rule_set):
    return MultiTableLookupArchitecture([build_lookup_table(rule_set)])


class TestPipelineSpec:
    def test_snapshot_pickles_and_rebuilds(self, small_routing_set):
        arch = make_arch(small_routing_set)
        spec = pickle.loads(pickle.dumps(PipelineSpec.snapshot(arch)))
        replica = spec.build()
        assert isinstance(replica, MultiTableLookupArchitecture)
        assert [len(t) for t in replica.tables] == [
            len(t) for t in arch.tables
        ]
        probe = {"in_port": 1, "ipv4_dst": 0x0A000001}
        assert_same_result(replica.process(probe), arch.process(probe))

    def test_split_pipeline_snapshot(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        replica = PipelineSpec.snapshot(arch).build()
        probe = {"in_port": 2, "ipv4_dst": 0x0B000001}
        assert_same_result(replica.process(probe), arch.process(probe))


#: The one sharded wire path, as a single-valued parameter: it keeps the
#: ``-shm`` suffix in these tests' recorded ids (the argument itself is
#: unused — no runner takes a transport any more).
WIRE = pytest.mark.parametrize("transport", ["shm"])


class TestDifferential:
    @WIRE
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sharded_matches_single_process(
        self, small_routing_set, name, transport
    ):
        """Acceptance: 4 workers, bitwise-identical results on every
        scenario in the catalog (churn included: the mutation log must
        keep replicas sequentially consistent)."""
        workload = SCENARIOS[name](
            small_routing_set, packet_count=200, flow_count=12
        )
        single = BatchPipeline(
            make_arch(small_routing_set),
            cache_capacity=128,
            megaflow_capacity=256,
        )
        expected = run_workload(
            single, workload, batch_size=50, keep_results=True
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=4,
            cache_capacity=128,
            megaflow_capacity=256,
        ) as sharded:
            got = run_workload(
                sharded, workload, batch_size=50, keep_results=True
            )
            stats = sharded.stats_snapshot()
        assert got.packets == expected.packets == 200
        for a, b in zip(got.results, expected.results):
            assert_same_result(a, b)
        assert stats.packets == 200
        assert stats.cache_hits + stats.cache_misses > 0
        # run_workload must surface the workers' cache counters, not the
        # parent's (empty) cache dict.
        assert got.cache_hits + got.cache_misses > 0
        assert got.megaflow_hits + got.megaflow_misses > 0
        # The stats-return protocol: worker flow hits are merged into
        # the parent's counters, matching the single-process totals.
        assert got.flow_packets == expected.flow_packets > 0


class TestMutationCatchUp:
    def entry(self, port: int, priority: int) -> FlowEntry:
        return FlowEntry.build(
            match=Match.exact(in_port=port),
            priority=priority,
            instructions=[WriteActions([OutputAction(100 + port)])],
        )

    def test_install_reaches_all_workers(self, small_routing_set):
        arch = make_arch(small_routing_set)
        with ShardedBatchPipeline(arch, workers=3) as sharded:
            probe = [{"in_port": 5, "ipv4_dst": i} for i in range(12)]
            before = sharded.process_batch(probe)
            # High-priority shadow rule installed through the facade.
            sharded.pipeline.table(0).add(self.entry(5, priority=999))
            after = sharded.process_batch(probe)
        assert any(r.output_ports != [105] for r in before)
        assert all(r.output_ports == [105] for r in after)

    def test_remove_where_through_facade(self, small_routing_set):
        arch = make_arch(small_routing_set)
        with ShardedBatchPipeline(arch, workers=2) as sharded:
            sharded.pipeline.table(0).add(self.entry(6, priority=999))
            removed = sharded.pipeline.table(0).remove_where(
                lambda e: e.priority == 999
            )
            assert removed == 1
            results = sharded.process_batch(
                [{"in_port": 6, "ipv4_dst": 1}]
            )
        assert results[0].output_ports != [106]

    def test_remove_where_is_one_flow_mod(self, small_routing_set, monkeypatch):
        """One lock acquisition spans the scan, all k removals and their
        k log appends, so a batch pinned from another thread sees the
        whole ``remove_where`` or none of it."""
        events = []

        class SpyLock:
            held = False

            def __enter__(self):
                events.append("acquire")
                self.held = True

            def __exit__(self, *exc_info):
                self.held = False
                events.append("release")

        class SpyLog(list):
            def append(self, mutation):
                events.append("log")
                super().append(mutation)

        lock, log = SpyLock(), SpyLog()
        table = make_arch(small_routing_set).tables[0]
        for port in (6, 7, 8):
            table.add(self.entry(port, priority=999))
        remove = table.remove
        monkeypatch.setattr(
            table, "remove", lambda *args: events.append("remove") or remove(*args)
        )
        unlocked_scans = []

        def doomed(entry):
            if not lock.held:
                unlocked_scans.append(entry)
            return entry.priority == 999

        versions = {}
        facade = shard._LoggedTable(table, log, lock, versions)
        assert facade.remove_where(doomed) == 3
        assert unlocked_scans == []
        assert events == ["acquire"] + ["remove", "log"] * 3 + ["release"]
        assert sorted(m.match["in_port"].value for m in log) == [6, 7, 8]
        assert versions == {table.table_id: table.version}

    def test_empty_batch_and_close_idempotent(self, small_routing_set):
        sharded = ShardedBatchPipeline(make_arch(small_routing_set), workers=2)
        assert sharded.process_batch([]) == []
        sharded.close()
        sharded.close()

    def test_reuse_after_close_replays_full_log(self, small_routing_set):
        """Respawned replicas must see every pre-close flow-mod: the
        respawn folds the log into a fresh snapshot, so nothing logged
        before close() vanishes."""
        sharded = ShardedBatchPipeline(make_arch(small_routing_set), workers=2)
        try:
            probe = [{"in_port": 5, "ipv4_dst": 3}]
            sharded.process_batch(probe)
            sharded.pipeline.table(0).add(self.entry(5, priority=999))
            assert sharded.process_batch(probe)[0].output_ports == [105]
            sharded.close()
            assert sharded.process_batch(probe)[0].output_ports == [105]
        finally:
            sharded.close()

    def test_worker_count_validated(self, small_routing_set):
        with pytest.raises(ValueError):
            ShardedBatchPipeline(make_arch(small_routing_set), workers=0)

    def test_transport_validated(self, small_routing_set):
        """``"shm"`` is the only accepted literal; anything else —
        the retired pickle transport included — names the removal."""
        for transport in ("carrier-pigeon", "pickle"):
            with pytest.raises(
                ValueError, match="pickle transport was removed"
            ):
                ShardedBatchPipeline(
                    make_arch(small_routing_set),
                    workers=1,
                    transport=transport,
                )
        sharded = ShardedBatchPipeline(
            make_arch(small_routing_set), workers=1, transport="shm"
        )
        assert not hasattr(sharded, "transport")

    def test_mutation_log_pruned_after_catch_up(self, small_routing_set):
        """Long churn must not grow the log without bound: once every
        worker has replayed it, the snapshot absorbs it.  The log folds
        in one place on both rule settings, so a respawn after close()
        starts from a fresh fold too — never a replay of what was logged
        while the fleet was down.  (Both settings run in one test, so
        its id stays the one the suite has always reported.)"""
        for shared_rules in (False, True):
            self.prune_and_respawn(small_routing_set, shared_rules)

    def prune_and_respawn(self, small_routing_set, shared_rules):
        single = BatchPipeline(make_arch(small_routing_set))
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, shared_rules=shared_rules
        ) as sharded:
            probe = [
                {"in_port": p, "ipv4_dst": d}
                for p in range(4)
                for d in (1, 2, 3)
            ]
            # A live fleet first, so the prune (not the spawn) folds.
            sharded.process_batch(probe)
            for runner in (sharded, single):
                entry = self.entry(7, priority=999)
                for _ in range(550):
                    runner.pipeline.table(0).add(entry)
                    runner.pipeline.table(0).remove(entry.match, entry.priority)
            assert len(sharded._log) == 1100
            sharded.process_batch(probe)  # both workers catch up
            sharded.process_batch(probe)  # prune runs after catch-up
            assert len(sharded._log) == 0
            # Flow-mods while the fleet is down fold at the respawn.
            sharded.close()
            for runner in (sharded, single):
                table = runner.pipeline.table(0)
                table.add(self.entry(2, priority=999))
                table.add(self.entry(3, priority=998))
                table.remove(Match.exact(in_port=3), 998)
            results = sharded.process_batch(probe)
            assert len(sharded._log) == 0
        expected = single.process_batch(probe)
        assert any(r.output_ports == [102] for r in expected)
        for a, b in zip(results, expected, strict=True):
            assert_same_result(a, b)


class ConnProxy:
    """A worker pipe with one end intercepted: subclasses override
    ``send`` or ``recv``; everything else — ``fileno`` for the wait
    included — is the real connection's."""

    def __init__(self, conn):
        self._conn = conn

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _MutatingConn(ConnProxy):
    """Fires a callback before its first send — the deterministic
    stand-in for a controller thread whose flow-mod lands while the
    parent is dispatching sub-batches."""

    def __init__(self, conn, fire):
        super().__init__(conn)
        self._fire = fire

    def send(self, message):
        self._fire()
        self._conn.send(message)


class TestMidBatchMutation:
    """A mutation landing mid-batch must never serve a stale (or mixed)
    PipelineResult: the batch in flight classifies entirely at the
    pre-mutation state, the next batch entirely at the post-mutation
    state — with every worker cache revalidated.

    Guards two mechanisms in ``process_batch``: the single
    mutation-log-length snapshot (without it, workers dispatched after
    the flow-mod would replay it for the *same* batch and the batch
    would mix two table states) and the pinned entry order (without it,
    worker entry refs would resolve against the re-sorted post-mutation
    tables, corrupting matched-entry identity and stats attribution).
    """

    def shadow(self, port: int) -> FlowEntry:
        return FlowEntry.build(
            match=Match.exact(in_port=port),
            priority=999,
            instructions=[WriteActions([OutputAction(100 + port)])],
        )

    @WIRE
    def test_mid_batch_mutation_defers_uniformly(
        self, small_routing_set, transport
    ):
        probe = [
            {"in_port": 5, "ipv4_dst": destination}
            for destination in range(24)
        ]
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            # The probe must actually straddle both workers for the
            # mixed-state hazard to exist.
            assert len({sharded.shard_of(fields) for fields in probe}) == 2
            before = sharded.process_batch(probe)
            sharded.process_batch(probe)  # warm worker caches

            shadow = self.shadow(5)
            fired = []

            def fire():
                if not fired:
                    fired.append(True)
                    sharded.pipeline.table(0).add(shadow)

            sharded._conns = [
                _MutatingConn(conn, fire) for conn in sharded._conns
            ]
            in_flight = sharded.process_batch(probe)
            assert fired, "mutation must land during dispatch"
            # Entirely pre-mutation: no packet of the in-flight batch
            # may observe the shadow rule, on either worker.
            for got, expected in zip(in_flight, before):
                assert_same_result(got, expected)
            assert shadow.stats.packet_count == 0

            after = sharded.process_batch(probe)
            # Entirely post-mutation: megaflow aggregates and microflow
            # records for every probe key were captured pre-mutation on
            # the workers, so any stale replay shows up here.
            assert all(result.output_ports == [105] for result in after)
            assert all(
                (entry.match, entry.priority)
                == (shadow.match, shadow.priority)
                for result in after
                for entry in result.matched_entries[:1]
            )
            # Stats attribution survived the in-flight mutation: the
            # parent's shadow entry counts exactly the post-mutation
            # batch, via refs pinned to the pre-mutation order.
            assert shadow.stats.packet_count == len(probe)

    def test_concurrent_mutator_thread_stress(self, small_routing_set):
        """A real controller thread churning through the facade while
        batches flow: every mutation must be atomic against the batch
        prologue's (log length, entry order) snapshot — misalignment
        shows up as ref resolution errors or mis-attributed flow stats
        (total per-entry counts must still equal total matches).

        The churn is a fixed budget on a seeded schedule: one burst of
        add/remove pairs per batch, released by a barrier the moment
        the batch starts, so mutations race the batch's prologue but
        the mutation log each batch replays to the workers is the same
        size on every host."""
        import random
        import threading

        probe = [
            {"in_port": port, "ipv4_dst": destination}
            for port in range(4)
            for destination in (1, 2, 3)
        ]
        rng = random.Random(7)
        bursts = [rng.randint(1, 12) for _ in range(40)]
        switch_interval = sys.getswitchinterval()
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            shadow = self.shadow(7)
            gate = threading.Barrier(2, timeout=60)
            churned = []

            def churn():
                try:
                    for pairs in bursts:
                        gate.wait()
                        for _ in range(pairs):
                            sharded.pipeline.table(0).add(shadow)
                            sharded.pipeline.table(0).remove(
                                shadow.match, shadow.priority
                            )
                        churned.append(pairs)
                except threading.BrokenBarrierError:
                    pass  # the batch loop failed and aborted the gate

            mutator = threading.Thread(target=churn, daemon=True)
            mutator.start()
            # Switch threads every few bytecodes' worth of time, so a
            # burst interleaves with the prologue instead of following it.
            sys.setswitchinterval(1e-5)
            try:
                total_matched = 0
                for _ in bursts:
                    gate.wait()
                    results = sharded.process_batch(probe)
                    total_matched += sum(
                        len(r.matched_entries) for r in results
                    )
            finally:
                # Past the last gate the mutator never waits again, so
                # this only ever releases it after a failure above.
                gate.abort()
                mutator.join(timeout=60)
                sys.setswitchinterval(switch_interval)
            assert not mutator.is_alive()
            assert churned == bursts  # the whole budget was spent
            # Conservation: every match was credited to some parent
            # entry, exactly once.
            counted = shadow.stats.packet_count + sum(
                entry.stats.packet_count
                for table in sharded._authoritative.tables
                for entry in table
            )
            assert counted == total_matched == sharded.stats.flow_packets


class TestPipelined:
    """The double-buffered dispatch/collect loop: up to ``depth`` batches
    in flight, each classified at its own submission-time log snapshot —
    results must stay bitwise-identical to lockstep, in FIFO order, with
    mutations between submissions landing between batches."""

    def batches(self, rule_set, count=12, size=16):
        workload = SCENARIOS["zipf"](
            rule_set, packet_count=count * size, flow_count=10
        )
        (event,) = workload.events
        trace = event[1]
        return [trace[i : i + size] for i in range(0, len(trace), size)]

    @WIRE
    @pytest.mark.parametrize("depth", [2, 4])
    def test_stream_matches_lockstep(
        self, small_routing_set, transport, depth
    ):
        batches = self.batches(small_routing_set)
        single = BatchPipeline(
            make_arch(small_routing_set), cache_capacity=64
        )
        expected = [single.process_batch(batch) for batch in batches]
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            depth=depth,
        ) as sharded:
            assert sharded.depth == depth
            got = list(sharded.process_batches(batches))
            assert sharded.in_flight == 0
            flow_packets = sharded.stats.flow_packets
            flow_bytes = sharded.stats.flow_bytes
        assert len(got) == len(expected)
        for got_chunk, expected_chunk in zip(got, expected):
            assert len(got_chunk) == len(expected_chunk)
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)
        # Byte-exact stats merge across the pipelined stream.
        assert flow_packets == single.stats.flow_packets > 0
        assert flow_bytes == single.stats.flow_bytes > 0

    def test_submit_collect_fifo(self, small_routing_set):
        batches = self.batches(small_routing_set, count=4)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2, cache_capacity=64
        ) as sharded:
            sharded.submit_batch(batches[0])
            sharded.submit_batch(batches[1])
            assert sharded.in_flight == 2
            with pytest.raises(RuntimeError):
                sharded.submit_batch(batches[2])
            for expected_chunk in expected[:2]:
                for a, b in zip(sharded.collect_batch(), expected_chunk):
                    assert_same_result(a, b)
            with pytest.raises(RuntimeError):
                sharded.collect_batch()
            # process_batch drains nothing outstanding and stays usable.
            for a, b in zip(sharded.process_batch(batches[2]), expected[2]):
                assert_same_result(a, b)

    def test_empty_submit_rejected(self, small_routing_set):
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded, pytest.raises(ValueError, match="empty batch"):
            sharded.submit_batch([])

    def test_process_batch_refuses_to_drop_in_flight_results(
        self, small_routing_set
    ):
        """Mixing the APIs must never silently lose classified packets:
        process_batch with submit_batch results outstanding raises
        instead of draining them into the void."""
        batches = self.batches(small_routing_set, count=2)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            sharded.submit_batch(batches[0])
            with pytest.raises(RuntimeError, match="in flight"):
                sharded.process_batch(batches[1])
            with pytest.raises(RuntimeError, match="in flight"):
                sharded.process_batches([batches[1]])
            sharded.collect_batch()
            assert len(sharded.process_batch(batches[1])) == len(batches[1])

    def test_concurrent_streams_rejected(self, small_routing_set):
        """Two live process_batches() generators would interleave on the
        shared FIFO and swap results between streams; the second must
        raise, and a finished stream frees the slot.  A live stream owns
        its collects too: an explicit collect_batch() between two yields
        would take the stream's oldest batch and shift every later
        result onto the wrong batch."""
        batches = self.batches(small_routing_set, count=5)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches[:3]]
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            stream = sharded.process_batches(batches[:3])
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.process_batches(batches[3:])
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.process_batch(batches[3])
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.submit_batch(batches[3])
            got = [next(stream)]
            assert sharded.in_flight > 0
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.collect_batch()
            got += list(stream)  # exhausting frees the slot
            assert len(list(sharded.process_batches(batches[3:]))) == 2
        assert len(got) == len(expected)
        for got_chunk, expected_chunk in zip(got, expected):
            assert len(got_chunk) == len(expected_chunk)
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)

    def test_large_mutation_backlog_is_not_pipelined(self, small_routing_set):
        """An unbounded mutation suffix inside the 'small' control
        message could fill the pipe while a worker's reply blocks the
        other direction; past the backlog bound the stream must drain
        before submitting and submit_batch must refuse."""
        limit = ShardedBatchPipeline.MAX_PIPELINED_MUTATION_BACKLOG
        batches = self.batches(small_routing_set, count=3)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            sharded.submit_batch(batches[0])
            entry = FlowEntry.build(
                match=Match.exact(in_port=6),
                priority=999,
                instructions=[WriteActions([OutputAction(106)])],
            )
            for _ in range(limit + 1):
                sharded.pipeline.table(0).add(entry)
                sharded.pipeline.table(0).remove(entry.match, entry.priority)
            with pytest.raises(RuntimeError, match="backlog"):
                sharded.submit_batch(batches[1])
            sharded.collect_batch()
            sharded.submit_batch(batches[1])  # empty in-flight: fine
            sharded.collect_batch()
            # The stream path handles the same burst by draining, and
            # stays bitwise-identical.
            for _ in range(limit + 1):
                sharded.pipeline.table(0).add(entry)
                sharded.pipeline.table(0).remove(entry.match, entry.priority)
            got = list(sharded.process_batches(batches))
        expected = [single.process_batch(batch) for batch in batches]
        for got_chunk, expected_chunk in zip(got, expected):
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)

    def test_mutation_between_submissions_lands_between_batches(
        self, small_routing_set
    ):
        """A flow-mod applied after submit(N) but before submit(N+1) must
        be invisible to batch N and authoritative for batch N+1 — the
        per-in-flight log-length snapshot, not a per-drain one."""
        probe = [{"in_port": 5, "ipv4_dst": d} for d in range(16)]
        shadow = FlowEntry.build(
            match=Match.exact(in_port=5),
            priority=999,
            instructions=[WriteActions([OutputAction(105)])],
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            before = sharded.process_batch(probe)
            sharded.submit_batch(probe)
            sharded.pipeline.table(0).add(shadow)
            sharded.submit_batch(probe)
            old_state = sharded.collect_batch()
            new_state = sharded.collect_batch()
        for a, b in zip(old_state, before):
            assert_same_result(a, b)
        assert shadow.stats.packet_count == len(probe)
        assert all(r.output_ports == [105] for r in new_state)

    def test_empty_batches_in_stream(self, small_routing_set):
        batches = self.batches(small_routing_set, count=3)
        stream = [batches[0], [], batches[1], [], [], batches[2]]
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in stream]
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=3
        ) as sharded:
            got = list(sharded.process_batches(stream))
        assert [len(chunk) for chunk in got] == [
            len(chunk) for chunk in expected
        ]
        for got_chunk, expected_chunk in zip(got, expected):
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outcome_outlives_its_ring_slot(self, small_routing_set, workers):
        """A yielded outcome aliases no ring slot: held unread
        while ``depth`` and more further batches reuse every slot, then
        read after the runner — and with it every shared block — is
        closed, it still materialises its own batch's results."""
        depth = 2
        batches = self.batches(small_routing_set, count=3 * depth + 1)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=workers,
            depth=depth,
            cache_capacity=64,
        ) as sharded:
            stream = sharded.process_batches(batches)
            held = next(stream)
            rest = list(stream)
            assert len(rest) == len(batches) - 1
        assert len(held) == len(expected[0])
        for a, b in zip(held, expected[0]):
            assert_same_result(a, b)
        for a, b in zip(rest[-1], expected[-1]):
            assert_same_result(a, b)

    def test_undecodable_reply_fails_closed_and_stays_closable(
        self, small_routing_set, monkeypatch
    ):
        """A reply that does not decode raises its classified error at
        collect, credits nothing, and leaves no in-flight record for
        ``close()`` to wait on — the runner even keeps working."""
        from repro.runtime import shard
        from repro.runtime.transport import ReplyDecodeError

        batches = self.batches(small_routing_set, count=2)
        decode = shard.decode_outcomes
        calls = []

        def corrupt_second_shard(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ReplyDecodeError("codes span [0, 9] over 3 templates")
            return decode(*args)

        arch = make_arch(small_routing_set)
        with ShardedBatchPipeline(arch, workers=2, depth=2) as sharded:
            monkeypatch.setattr(shard, "decode_outcomes", corrupt_second_shard)
            with pytest.raises(ReplyDecodeError, match="codes span"):
                sharded.process_batch(batches[0])
            assert len(calls) == 2, "the batch must straddle both workers"
            assert sharded.in_flight == 0
            assert sharded.stats.flow_packets == sharded.stats.matched == 0
            assert all(entry.stats.packet_count == 0 for entry in arch.tables[0])
            assert len(sharded.process_batch(batches[1])) == len(batches[1])

    def test_depth_validated(self, small_routing_set):
        with pytest.raises(ValueError):
            ShardedBatchPipeline(
                make_arch(small_routing_set), workers=1, depth=0
            )

    def test_close_drains_in_flight(self, small_routing_set):
        batches = self.batches(small_routing_set, count=2)
        sharded = ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        )
        sharded.submit_batch(batches[0])
        sharded.submit_batch(batches[1])
        sharded.close()  # must not deadlock or leave replies queued
        assert sharded.in_flight == 0


class TestSharedMemoryLifecycle:
    """Sharded runs must not strand segments in /dev/shm — neither on a
    clean close nor when the runner is abandoned mid-flight (the
    ``SharedBlock`` finalizer guard).  The directory-wide leak guard
    (``conftest.py``) does the asserting."""

    def run_batches(self, runner, rule_set):
        workload = SCENARIOS["zipf"](rule_set, packet_count=96, flow_count=8)
        run_workload(runner, workload, batch_size=16)

    def test_close_leaves_no_segments(self, small_routing_set):
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=3
        ) as sharded:
            self.run_batches(sharded, small_routing_set)

    def test_abandoned_runner_leaves_no_segments(self, small_routing_set):
        """Interrupted-run stand-in: drop the runner without close();
        collecting it must unlink every segment and reap every worker."""
        import gc

        sharded = ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        )
        self.run_batches(sharded, small_routing_set)
        del sharded
        gc.collect()


class _RecordingConn(ConnProxy):
    """Keeps every reply frame it receives, in arrival order."""

    def __init__(self, conn, frames):
        super().__init__(conn)
        self._frames = frames

    def recv(self):
        frame = self._conn.recv()
        if frame[0] == "ok":
            self._frames.append(frame)
        return frame


class _SlotAuditConn(_RecordingConn):
    """Also records, per request sent, its seq, its member count, the
    size of the reply region it names and the size its ring slot's block
    has at that moment — before the worker can write a byte there."""

    def __init__(self, conn, frames, sent, sharded):
        super().__init__(conn, frames)
        self._sent = sent
        self._sharded = sharded

    def send(self, message):
        if message[0] == "shm":
            block = self._sharded._requests[message.seq % self._sharded.depth]
            assert block.name == message.block_name
            offset, nbytes = message.reply_region
            assert lanes_end(message) <= offset
            assert offset + nbytes <= block.buf.nbytes
            members = next(
                segment.count
                for segment in message.segments
                if segment.key == message.members_key
            )
            self._sent.append((message.seq, members, nbytes, block.buf.nbytes))
        self._conn.send(message)


def leaves(value):
    """Every object in a frame, containers included."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)


def carries_bytes(frames):
    """Per reply, whether any part of its frame is raw bytes — a reply
    whose lanes travelled in the pipe instead of its reply region."""
    return [
        any(
            isinstance(leaf, (bytes, bytearray, memoryview))
            for leaf in leaves(frame)
        )
        for frame in frames
    ]


def lanes_end(frame):
    """One past the last byte a frame's lanes occupy: for a reply,
    counted from the start of its reply region."""
    return max(
        segment.offset + segment.count * np.dtype(segment.dtype).itemsize
        for segment in frame.segments
    )


def reply_buf(sharded, worker, seq):
    """Worker ``worker``'s reply region of in-flight batch ``seq``: the
    bytes its reply's segment offsets count from."""
    offset, nbytes = sharded._inflight[seq].sends[worker].reply_region
    return sharded._requests[seq % sharded.depth].buf[offset : offset + nbytes]


def entry_counts(entries):
    """Per-entry flow stats, order-free, for cross-runner equality."""
    return sorted(
        (str(e.match), e.priority, e.stats.packet_count, e.stats.byte_count)
        for e in entries
    )


@needs_dev_shm
class TestParentOwnsEverySegment:
    """The block ring is the parent's, like the sealed rules: a worker
    attaches, reads its request lanes and writes its reply region; it
    never creates."""

    #: Small enough that the request lanes plus the reply regions of a
    #: 64-packet batch (per region a 4-byte code per position; per
    #: possible traversal an offset and a ref pair; the counters and the
    #: pads) outgrow a fresh block, so every block is sized at submit.
    TINY_BLOCK = 1 << 8

    def batches(self, rule_set, count, size=64):
        trace = SCENARIOS["uniform"](
            rule_set, packet_count=count * size, flow_count=48
        ).events[0][1]
        return [trace[i : i + size] for i in range(0, len(trace), size)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_worker_creates_no_segment(
        self, small_routing_set, monkeypatch, workers
    ):
        """Every segment that appears was created by the parent's own
        ``SharedBlock.ensure`` (the spy cannot see a forked worker's
        calls) — so SIGKILLing the whole fleet strands nothing, and
        ``close()`` leaves nothing (the leak guard checks that)."""
        created = set()
        ensure = SharedBlock.ensure

        def spy(block, nbytes):
            ensure(block, nbytes)
            created.add(block.name)

        monkeypatch.setattr(SharedBlock, "ensure", spy)
        monkeypatch.setattr(transport, "MIN_BLOCK_BYTES", self.TINY_BLOCK)
        before = shm_segments()
        frames = []
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=workers,
            depth=2,
            megaflow_capacity=128,
            shared_rules=True,
        ) as sharded:
            batches = self.batches(small_routing_set, count=5)
            sharded._ensure_started()
            sharded._conns = [
                _RecordingConn(conn, frames) for conn in sharded._conns
            ]
            for results in sharded.process_batches(batches):
                assert len(results) == len(batches[0])
            appeared = shm_segments() - before
            assert appeared and appeared <= created
            assert frames and not any(carries_bytes(frames))
            for proc in sharded._procs:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in sharded._procs:
                proc.join(timeout=10)
            assert shm_segments() - before == appeared

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oversize_reply_is_exact_and_grows_its_slot(
        self, small_routing_set, monkeypatch, workers
    ):
        """With a fresh block far smaller than any batch, every reply
        region is sized for its sub-batch (``transport.reply_nbytes``),
        after the request lanes and inside its grown block, before the
        request naming it is sent; every reply lands inside its region
        and no reply frame carries bytes — and results, per-entry stats
        and runner counters still equal the in-process runner's."""
        monkeypatch.setattr(transport, "MIN_BLOCK_BYTES", self.TINY_BLOCK)
        first, other = self.batches(small_routing_set, count=2)
        batches = [first, first, other]
        ref_arch = make_arch(small_routing_set)
        single = BatchPipeline(ref_arch, cache_capacity=64, megaflow_capacity=128)
        expected = [single.process_batch(batch) for batch in batches]
        arch = make_arch(small_routing_set)
        frames = {}
        sent = {}
        with ShardedBatchPipeline(
            arch,
            workers=workers,
            depth=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [
                _SlotAuditConn(
                    conn,
                    frames.setdefault(worker, []),
                    sent.setdefault(worker, []),
                    sharded,
                )
                for worker, conn in enumerate(sharded._conns)
            ]
            for batch, want in zip(batches, expected):
                for a, b in zip(sharded.process_batch(batch), want, strict=True):
                    assert_same_result(a, b)
            stats = sharded.stats_snapshot()
            assert sharded.supervision_snapshot()["crashes"] == 0
        replies = [frame for worker in frames for frame in frames[worker]]
        assert len(replies) >= len(batches)
        assert not any(carries_bytes(replies))
        tables = len(arch.tables)
        for worker, requests in sent.items():
            assert [seq for seq, *_ in requests] == [
                frame.seq for frame in frames[worker]
            ]
            for (seq, members, size, block), frame in zip(
                requests, frames[worker]
            ):
                # Sized before first use: the block grown past the tiny
                # fresh one, the region to the bound, then written
                # inside the region.
                assert block > self.TINY_BLOCK
                assert size == transport.reply_nbytes(members, tables)
                assert lanes_end(frame) <= size, seq
        counts = entry_counts(arch.tables[0])
        assert counts == entry_counts(ref_arch.tables[0])
        assert sum(count[2] for count in counts) > 0
        for counter in (
            "packets",
            "matched",
            "sent_to_controller",
            "dropped",
            "flow_packets",
            "flow_bytes",
        ):
            assert getattr(stats, counter) == getattr(single.stats, counter), (
                counter
            )


class TestReplyWireShape:
    """What crosses the reply pipe, by shape and count: four lanes in
    the block — codes, entry refs and counters, no per-traversal sum —
    and a frame that is a tag, a seq and segment tuples — entries are
    *named*, and everything they determine is rebuilt from the parent's
    own."""

    LANES = [
        "res/codes",
        "res/matched/offsets",
        "res/matched/values",
        "res/stats",
    ]

    def batches(self, rule_set, count=4, size=32):
        trace = SCENARIOS["uniform"](
            rule_set, packet_count=count * size, flow_count=24
        ).events[0][1]
        return [trace[i : i + size] for i in range(0, len(trace), size)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_reply_names_entries_and_pickles_no_instance(
        self, small_routing_set, workers
    ):
        arch = make_arch(small_routing_set)
        frames = []
        with ShardedBatchPipeline(
            arch, workers=workers, cache_capacity=64, megaflow_capacity=128
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [
                _RecordingConn(conn, frames) for conn in sharded._conns
            ]
            batches = self.batches(small_routing_set)
            results = [
                result
                for outcome in sharded.process_batches(batches)
                for result in outcome
            ]
        assert len(frames) >= len(batches)
        for frame in frames:
            assert frame._fields == ("kind", "seq", "segments")
            assert [segment.key for segment in frame.segments] == self.LANES
            kinds = {
                type(leaf).__name__
                for leaf in leaves(pickle.loads(pickle.dumps(frame)))
            }
            assert kinds <= {
                "ShmReply", "Segment", "tuple", "str", "int",
            }, kinds
        # Every action that came from an entry is that authoritative
        # entry's own object — not an unpickled equal.
        own = {
            id(action)
            for entry in arch.tables[0]
            for action in (
                *entry.instructions.compiled.apply,
                *entry.instructions.compiled.write,
            )
        }
        matched = [result for result in results if result.matched_entries]
        assert matched and all(
            result.applied_actions
            and all(id(action) in own for action in result.applied_actions)
            for result in matched
        )

    def test_decode_builds_its_templates_with_replay_path(
        self, small_routing_set, monkeypatch
    ):
        """Knock the action-set execution out of ``replay_path`` in the
        parent alone (the workers forked with the real one and reply
        with the same refs): the decoded templates lose their outputs.
        ``test_columnar.py`` breaks the walk's templates with the same
        patch — one definition serves both."""
        first, second = self.batches(small_routing_set, count=2)
        reference = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [reference.process_batch(batch) for batch in (first, second)]
        assert any(result.output_ports for result in expected[1])
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, cache_capacity=64
        ) as sharded:
            for a, b in zip(sharded.process_batch(first), expected[0], strict=True):
                assert_same_result(a, b)
            monkeypatch.setattr(
                OpenFlowPipeline, "replay_path", replay_path_without_the_action_set
            )
            got = sharded.process_batch(second)
        assert [r.matched for r in got] == [r.matched for r in expected[1]]
        assert not any(r.output_ports for r in got if r.matched)


def _per_position_distinct(outcomes):
    """The reference deduplication: one path per position,
    deduplicated by reference identity in first-seen order, one
    ``int32`` code built per position."""
    per_position = [outcomes.paths[code] for code in outcomes.codes.tolist()]
    keys = [id(path) for path in per_position]
    first = dict(zip(keys, per_position))
    code_of = dict(zip(first, range(len(first))))
    codes = np.fromiter(
        map(code_of.__getitem__, keys), dtype=np.int32, count=len(keys)
    )
    return list(first.values()), codes


class _PerPositionEncoded:
    """An outcome as the reply encoder sees it, deduplicated the way
    :func:`_per_position_distinct` does."""

    def __init__(self, outcomes):
        self._outcomes = outcomes

    def distinct(self):
        return _per_position_distinct(self._outcomes)


def _shared_path_arch():
    """One table where several megaflow aggregates take one entry path:
    the ``in_port=1, tcp_dst=80`` rule makes every lookup consult
    ``tcp_dst``, so ``in_port=1`` packets on other ports (and every
    ``in_port=2`` packet) key apart but share an outcome."""
    table = OpenFlowLookupTable(("in_port", "tcp_dst"), table_id=0)
    for port, (match, priority) in enumerate(
        [
            (Match.exact(in_port=1, tcp_dst=80), 10),
            (Match.exact(in_port=1), 1),
            (Match.exact(in_port=2), 1),
        ]
    ):
        table.add(
            FlowEntry.build(
                match=match,
                priority=priority,
                instructions=[WriteActions([OutputAction(port)])],
            )
        )
    return MultiTableLookupArchitecture([table])


_shared_path_packet = st.tuples(
    st.sampled_from((1, 2, 3)),
    st.sampled_from((22, 23, 80)),
    st.sampled_from((64, 1500)),
)


class TestDistinctIsPerPositionDedup:
    """``ColumnarOutcomes.distinct()`` over the code lane answers what
    deduplicating one path per position by reference identity
    answered — first-seen order, ``int32`` codes — on mixed hit/miss
    batches, in-process and on a one-worker sharded runner, and the
    sharded reply block is laid out as that deduplication lays it."""

    @needs_dev_shm
    @settings(max_examples=20)
    @given(
        batches=st.lists(
            st.lists(_shared_path_packet, min_size=1, max_size=12),
            min_size=1,
            max_size=4,
        )
    )
    # Two aggregates installed along one path in one batch, then both
    # hit in one batch beside a miss.
    @example(
        batches=[
            [(1, 22, 64), (1, 23, 1500)],
            [(1, 22, 1500), (3, 22, 64), (1, 23, 64), (1, 22, 64)],
        ]
    )
    def test_in_process_and_sharded(self, batches):
        batches = [
            PacketBatch.from_dicts(
                [
                    {"in_port": port, "tcp_dst": dst, FRAME_LEN_FIELD: length}
                    for port, dst, length in packets
                ]
            )
            for packets in batches
        ]
        arch = _shared_path_arch()
        # Capacity 4 of at most 9 aggregates: later batches mix hits,
        # misses and evictions.
        runner = BatchPipeline(arch, cache_capacity=8, megaflow_capacity=4)
        counters = range(len(transport.REPLY_COUNTERS))
        local, blocks = [], []
        for batch in batches:
            outcomes = runner.classify_columnar(batch)
            self.check(outcomes)
            local.append(outcomes.results())
            reference = transport.BlockWriter()
            transport.encode_outcomes(
                reference, _PerPositionEncoded(outcomes), counters
            )
            blocks.append(
                reference.write_to(memoryview(bytearray(reference.nbytes)))
            )
            ours = transport.BlockWriter()
            transport.encode_outcomes(ours, outcomes, counters)
            assert ours.nbytes == reference.nbytes
        frames = []
        with ShardedBatchPipeline(
            _shared_path_arch(), workers=1, cache_capacity=8, megaflow_capacity=4
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [
                _RecordingConn(conn, frames) for conn in sharded._conns
            ]
            for outcomes, results in zip(
                sharded.process_batches(batches), local, strict=True
            ):
                self.check(outcomes)
                assert outcomes.results() == results
        # The one worker saw the in-process runner's batches in order:
        # its replies hold the same lanes at the same sizes.
        assert [
            [(s.key, s.dtype, s.count, s.offset) for s in frame.segments]
            for frame in frames
        ] == [
            [(s.key, s.dtype, s.count, s.offset) for s in block]
            for block in blocks
        ]

    @staticmethod
    def check(outcomes):
        got, codes = outcomes.distinct()
        want, want_codes = _per_position_distinct(outcomes)
        assert [id(path) for path in got] == [id(path) for path in want]
        assert codes.dtype == want_codes.dtype == np.int32
        assert codes.tolist() == want_codes.tolist()


class _StubConn:
    """A connection that has exactly the given frames delivered."""

    def __init__(self, *frames):
        self.frames = deque(frames)

    def poll(self, timeout=0):
        return bool(self.frames)

    def recv(self):
        frame = self.frames.popleft()
        if isinstance(frame, Exception):
            raise frame
        return frame


class TestReplyFramesFailClosed:
    """``_take_frame`` is the one place that knows the reply tags: it
    parks the reply a worker owes next on its batch's in-flight record
    and accepts the shutdown bye; every other frame is refused — never
    parked, never an exception."""

    def reply(self, seq):
        return ShmReply("ok", seq, ())

    def sorter(self, rule_set, *frames, owes=(5,)):
        """A one-worker runner whose worker owes the replies of the
        in-flight records ``owes`` and has ``frames`` delivered."""
        sharded = ShardedBatchPipeline(make_arch(rule_set), workers=1)
        sharded._conns = [_StubConn(*frames)]
        for seq in owes:
            sharded._inflight[seq] = shard._InFlight(
                seq=seq,
                batch=PacketBatch.from_dicts([{}]),
                groups={0: np.zeros(1, dtype=np.int64)},
                pinned={},
                log_len=0,
            )
        return sharded

    @staticmethod
    def parked(sharded):
        return [
            (seq, worker)
            for seq, inflight in sharded._inflight.items()
            for worker in inflight.replies
        ]

    def test_owed_reply_is_parked_under_its_seq(self, small_routing_set):
        sharded = self.sorter(small_routing_set, self.reply(5))
        assert sharded._take_frame(0) is True
        assert self.parked(sharded) == [(5, 0)]
        assert isinstance(sharded._inflight[5].replies[0], ShmReply)
        assert sharded._owed(0) == []

    @pytest.mark.parametrize(
        "frame",
        [
            ("block", 0, "psm_stale"),  # the retired announce tag
            ("inline",),
            ("ok", 5),  # right tag, wrong arity
            ("ok", 5, None, (), (), "extra"),
            ("ok", 5, (), (), "extra"),
            ("bye",),  # only acceptable while closing
            (),
            None,
            b"ok",
            EOFError(),
            BrokenPipeError(),
        ],
        ids=repr,
    )
    def test_anything_else_is_refused(self, small_routing_set, frame):
        sharded = self.sorter(small_routing_set, frame)
        assert sharded._take_frame(0) is False
        assert not self.parked(sharded)
        assert sharded._owed(0) == [5]

    def test_a_reply_nobody_waits_for_is_refused(self, small_routing_set):
        idle = self.sorter(small_routing_set, self.reply(5), owes=())
        assert idle._take_frame(0) is False
        stale = self.sorter(small_routing_set, self.reply(4), owes=(5, 6))
        assert stale._take_frame(0) is False
        assert not self.parked(idle) and not self.parked(stale)
        assert stale._owed(0) == [5, 6]

    def test_dry_pipe_is_refused(self, small_routing_set):
        assert self.sorter(small_routing_set)._take_frame(0) is False

    def test_bye_is_accepted_only_while_closing(self, small_routing_set):
        sharded = self.sorter(
            small_routing_set, ByeReply("bye"), self.reply(5), owes=(5,)
        )
        assert sharded._take_frame(0, closing=True) is True
        assert sharded._take_frame(0, closing=True) is False  # an "ok"
        assert not self.parked(sharded)


class _LaneDroppingConn(ConnProxy):
    """Delivers the first reply it receives with one lane cut out of
    its segment table; every later frame as sent."""

    def __init__(self, conn, key, dropped):
        super().__init__(conn)
        self._key = key
        self._dropped = dropped

    def recv(self):
        frame = self._conn.recv()
        if frame[0] == "ok" and not self._dropped:
            self._dropped.append(frame.seq)
            frame = frame._replace(
                segments=tuple(
                    segment
                    for segment in frame.segments
                    if segment.key != self._key
                )
            )
        return frame


@needs_dev_shm
class TestReplySegmentsFailClosed:
    """A worker-supplied segment table is checked before anything is
    read through it: a reply missing a lane is a ``ReplyDecodeError``
    at collect — never a ``KeyError`` — and ``close()``, which decodes
    nothing, tears everything down with the bad reply still in flight."""

    def start(self, rule_set):
        sharded = ShardedBatchPipeline(make_arch(rule_set), workers=2, depth=2)
        sharded._ensure_started()
        dropped = []
        sharded._conns = [
            _LaneDroppingConn(conn, "res/stats", dropped)
            for conn in sharded._conns
        ]
        trace = SCENARIOS["uniform"](
            rule_set, packet_count=64, flow_count=24
        ).events[0][1]
        return sharded, dropped, [trace[:32], trace[32:]]

    def test_collect_raises_the_classified_error(self, small_routing_set):
        sharded, dropped, batches = self.start(small_routing_set)
        with sharded:
            with pytest.raises(transport.ReplyDecodeError, match="res/stats"):
                sharded.process_batch(batches[0])
            assert dropped == [0] and sharded.in_flight == 0
            assert len(sharded.process_batch(batches[1])) == len(batches[1])

    def test_close_with_the_bad_reply_in_flight(self, small_routing_set):
        import multiprocessing

        before = shm_segments()
        sharded, dropped, batches = self.start(small_routing_set)
        procs = list(sharded._procs)
        for batch in batches:
            sharded.submit_batch(batch)
        sharded.close()
        assert sharded.in_flight == 0
        assert not any(proc.is_alive() for proc in procs)
        assert not multiprocessing.active_children()
        assert not shm_segments() - before


class _SumInflatingConn(ConnProxy):
    """Delivers every reply carrying per-traversal packet and frame-byte
    lanes that disagree with its codes: 1,000 packets and 10**6 bytes
    per traversal, written into the reply region behind the reply's
    last lane (the test widens the regions to make room) and named last
    in its segment table (so they shadow any lanes of those names the
    worker wrote).  ``inflated`` collects the
    seq of every reply so treated."""

    def __init__(self, conn, sharded, worker, inflated):
        super().__init__(conn)
        self._sharded = sharded
        self._worker = worker
        self._inflated = inflated

    def recv(self):
        frame = self._conn.recv()
        if frame[0] != "ok":
            return frame
        buf = reply_buf(self._sharded, self._worker, frame.seq)
        traversals = next(
            s.count - 1 for s in frame.segments if s.key == "res/matched/offsets"
        )
        offset = -(-lanes_end(frame) // 16) * 16
        segments = list(frame.segments)
        for key, value in (("res/packets", 1000), ("res/bytes", 10**6)):
            lane = np.full(traversals, value, dtype="<i8").tobytes()
            assert offset + len(lane) <= buf.nbytes
            buf[offset : offset + len(lane)] = lane
            segments.append(transport.Segment(key, "<i8", traversals, offset))
            offset += -(-len(lane) // 16) * 16
        self._inflated.append(frame.seq)
        return frame._replace(segments=tuple(segments))


@needs_dev_shm
class TestWorkerSumsCannotMoveTheParent:
    """The parent counts each traversal's packets and frame bytes itself,
    from the reply's codes and its own ``frame_len`` lane: a reply whose
    packet and byte lanes disagree with its codes moves no counter, so
    per-entry flow stats and runner totals equal the in-process
    runner's."""

    def test_inflated_sum_lanes_credit_nothing(
        self, small_routing_set, monkeypatch
    ):
        # Regions with room behind the reply for the two planted lanes:
        # at most one int64 per position each, plus a pad.
        bound = transport.reply_nbytes
        monkeypatch.setattr(
            shard,
            "reply_nbytes",
            lambda members, tables: bound(members, tables) + 16 * members + 32,
        )
        trace = SCENARIOS["uniform"](
            small_routing_set, packet_count=128, flow_count=24
        ).events[0][1]
        batches = [trace[i : i + 32] for i in range(0, len(trace), 32)]
        ref_arch = make_arch(small_routing_set)
        single = BatchPipeline(ref_arch, cache_capacity=64, megaflow_capacity=128)
        expected = [single.process_batch(batch) for batch in batches]
        arch = make_arch(small_routing_set)
        inflated = []
        with ShardedBatchPipeline(
            arch, workers=2, cache_capacity=64, megaflow_capacity=128
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [
                _SumInflatingConn(conn, sharded, worker, inflated)
                for worker, conn in enumerate(sharded._conns)
            ]
            for batch, want in zip(batches, expected):
                for a, b in zip(sharded.process_batch(batch), want, strict=True):
                    assert_same_result(a, b)
            stats = sharded.stats_snapshot()
        assert len(inflated) >= len(batches)
        counts = entry_counts(arch.tables[0])
        assert counts == entry_counts(ref_arch.tables[0])
        assert sum(count[3] for count in counts) > 0
        for counter in (
            "packets",
            "matched",
            "sent_to_controller",
            "dropped",
            "flow_packets",
            "flow_bytes",
        ):
            assert getattr(stats, counter) == getattr(single.stats, counter), (
                counter
            )


class _StatsRewritingConn(ConnProxy):
    """Delivers every reply with ``delta`` added to one of its
    ``res/stats`` counters, in place in its reply region.  ``rewritten``
    collects the seq of every reply so treated."""

    def __init__(self, conn, sharded, worker, counter, delta, rewritten):
        super().__init__(conn)
        self._sharded = sharded
        self._worker = worker
        self._counter = counter
        self._delta = delta
        self._rewritten = rewritten

    def recv(self):
        frame = self._conn.recv()
        if frame[0] != "ok":
            return frame
        buf = reply_buf(self._sharded, self._worker, frame.seq)
        stats = next(s for s in frame.segments if s.key == "res/stats")
        lane = np.frombuffer(
            buf, dtype=stats.dtype, count=stats.count, offset=stats.offset
        )
        lane[transport.REPLY_COUNTERS.index(self._counter)] += self._delta
        del lane  # no view may outlive the slot's unmap
        self._rewritten.append(frame.seq)
        return frame


@needs_dev_shm
class TestReplyStatsAreRangeChecked:
    """``res/stats`` is checked like every other reply lane: counts a
    sub-batch could not have caused fail closed at collect, so they
    never reach the runner's record (where an inflated
    ``megaflow_hits`` would break ``hits + misses == packets``)."""

    @pytest.mark.parametrize(
        "counter, delta",
        [
            ("megaflow_hits", 1000),
            ("megaflow_misses", -(10**6)),
            ("cache_misses", 10**6),
            ("waves", 50),
        ],
    )
    def test_impossible_counts_fail_closed(
        self, small_routing_set, counter, delta
    ):
        trace = SCENARIOS["uniform"](
            small_routing_set, packet_count=64, flow_count=24
        ).events[0][1]
        arch = make_arch(small_routing_set)
        rewritten = []
        with ShardedBatchPipeline(
            arch, workers=2, cache_capacity=64, megaflow_capacity=128
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [
                _StatsRewritingConn(conn, sharded, worker, counter, delta, rewritten)
                for worker, conn in enumerate(sharded._conns)
            ]
            with pytest.raises(transport.ReplyDecodeError, match="cannot come"):
                sharded.process_batch(trace)
            assert rewritten and sharded.in_flight == 0
            stats = sharded.stats_snapshot()
        assert stats.megaflow_hits == stats.megaflow_misses == 0
        assert stats.cache_hits == stats.cache_misses == stats.waves == 0
        assert all(count[2] == 0 for count in entry_counts(arch.tables[0]))


@needs_dev_shm
class TestFacadeBypassFailsClosed:
    """A flow-mod made on the authoritative tables behind the logging
    facade never reaches the replicas: the next submission refuses to
    run, naming the table, rather than answer from stale tables."""

    @pytest.mark.parametrize(
        "shared_rules", [False, True], ids=["built", "sealed"]
    )
    def test_direct_removal_raises_at_the_next_submit(
        self, small_routing_set, shared_rules
    ):
        trace = SCENARIOS["uniform"](
            small_routing_set, packet_count=64, flow_count=24
        ).events[0][1]
        arch = make_arch(small_routing_set)
        with ShardedBatchPipeline(
            arch, workers=2, shared_rules=shared_rules
        ) as sharded:
            sharded.process_batch(trace)
            before = sharded.stats_snapshot()
            victim = next(iter(arch.tables[0]))
            assert arch.tables[0].remove(victim.match, victim.priority)
            with pytest.raises(RuntimeError, match=r"table 0 .*runner\.pipeline"):
                sharded.process_batch(trace)
            with pytest.raises(RuntimeError, match="table 0"):
                sharded.submit_batch(trace)
            assert sharded.in_flight == 0
            assert sharded.stats_snapshot() == before

    def test_flow_mods_through_the_facade_pass(self, small_routing_set):
        """Installs, removals and expiries made through the facade keep
        the runner serving, bitwise what the in-process runner says."""
        trace = SCENARIOS["uniform"](
            small_routing_set, packet_count=64, flow_count=24
        ).events[0][1]
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, cache_capacity=64
        ) as sharded:
            for runner in (single, sharded):
                runner.process_batch(trace)
                victim = next(iter(runner.pipeline.table(0)))
                runner.pipeline.table(0).remove(victim.match, victim.priority)
                runner.pipeline.install(
                    0, FlowEntry.build(match=victim.match, priority=victim.priority)
                )
                runner.advance_clock(1)
            for a, b in zip(
                sharded.process_batch(trace), single.process_batch(trace), strict=True
            ):
                assert_same_result(a, b)


class RoutedSharded(ShardedBatchPipeline):
    """Deterministic routing for the out-of-order and chaos tests:
    packets go to the worker named by their ``route_field`` value (mod
    workers), read off the submitted batch's lane."""

    route_field = "in_port"

    def _shard_groups(self, batch):
        lane = batch.column(self.route_field).lanes[0][batch.pick]
        assigned = lane.astype(np.int64) % self.workers
        return {
            worker: np.flatnonzero(assigned == worker)
            for worker in np.unique(assigned).tolist()
        }


class TestFifoCollect:
    """collect_batch() completes batches in submission order, whichever
    shard they landed on, and refuses on an idle runner."""

    def routed_batches(self, rule_set, sizes=(6, 4)):
        """One batch per worker: batch i's packets all carry in_port=i,
        so RoutedSharded pins batch 0 to worker 0 and batch 1 to
        worker 1."""
        workload = SCENARIOS["zipf"](
            rule_set, packet_count=max(sizes) * 4, flow_count=8
        )
        trace = workload.events[0][1]
        batches = []
        cursor = 0
        for worker, size in enumerate(sizes):
            chunk = [
                dict(fields, in_port=worker)
                for fields in trace[cursor : cursor + size]
            ]
            batches.append(chunk)
            cursor += size
        return batches

    def test_collect_unknown_seq_rejected(self, small_routing_set):
        batches = self.routed_batches(small_routing_set)
        with RoutedSharded(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            with pytest.raises(RuntimeError, match="no batch in flight"):
                sharded.collect_batch()
            sharded.submit_batch(batches[0])
            sharded.collect_batch()
            with pytest.raises(RuntimeError, match="no batch in flight"):
                sharded.collect_batch()

    def test_fifo_default_unchanged(self, small_routing_set):
        """collect_batch() keeps the strict FIFO contract."""
        batches = self.routed_batches(small_routing_set)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        with RoutedSharded(
            make_arch(small_routing_set), workers=2, depth=2, cache_capacity=64
        ) as sharded:
            sharded.submit_batch(batches[0])
            sharded.submit_batch(batches[1])
            for expected_chunk in expected:
                for a, b in zip(sharded.collect_batch(), expected_chunk):
                    assert_same_result(a, b)


class TestShardGroups:
    """``_shard_groups``: member positions per worker as ascending
    index arrays, computed in one pass over the lanes — one assignment
    whatever shape the packets were submitted in."""

    def trace(self, rule_set, count=96):
        return SCENARIOS["zipf"](
            rule_set, packet_count=count, flow_count=16
        ).events[0][1]

    @staticmethod
    def assert_partition(groups, size):
        members = np.concatenate(list(groups.values()))
        assert sorted(members.tolist()) == list(range(size))
        for positions in groups.values():
            assert positions.dtype == np.int64
            assert positions.tolist() == sorted(positions.tolist())

    @staticmethod
    def submitted_groups(sharded, batch):
        """The groups ``batch`` is dispatched under (left in flight)."""
        groups = sharded._inflight[sharded.submit_batch(batch)].groups
        return {worker: members.tolist() for worker, members in groups.items()}

    def test_dict_batch_follows_shard_of(self, small_routing_set):
        """A dict submission and a columnar submission of one trace
        land on the same workers, packet for packet — the assignment
        ``shard_of`` names — before traffic and after it."""
        trace = self.trace(small_routing_set)
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=3,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            for _ in range(2):
                by_dicts = self.submitted_groups(sharded, trace)
                by_lanes = self.submitted_groups(
                    sharded, PacketBatch.from_dicts(trace)
                )
                assert by_dicts == by_lanes
                assert len(by_dicts) > 1
                for worker, positions in by_dicts.items():
                    assert {sharded.shard_of(trace[i]) for i in positions} == {
                        worker
                    }
                sharded.collect_batch()
                sharded.collect_batch()

    def test_columnar_batch_keeps_a_flow_on_one_worker(self, small_routing_set):
        trace = self.trace(small_routing_set)
        batch = PacketBatch.from_dicts(trace)
        sharded = ShardedBatchPipeline(make_arch(small_routing_set), workers=3)
        groups = sharded._shard_groups(batch)
        self.assert_partition(groups, len(trace))
        assert len(groups) > 1
        worker_of_row = {}
        for worker, positions in groups.items():
            for row in batch.pick[positions].tolist():
                assert worker_of_row.setdefault(row, worker) == worker

    def test_single_worker_skips_the_hash(self, small_routing_set, monkeypatch):
        def no_hash(*args, **kwargs):
            raise AssertionError("one worker: nothing to hash for")

        monkeypatch.setattr(PacketBatch, "key_hashes", no_hash)
        trace = self.trace(small_routing_set)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=1
        ) as sharded:
            for batch in (trace, PacketBatch.from_dicts(trace)):
                groups = self.submitted_groups(sharded, batch)
                assert groups == {0: list(range(len(trace)))}
                sharded.collect_batch()
            assert sharded.shard_of(trace[0]) == 0


@needs_dev_shm
class TestShardKeyStability:
    """The shard key is the tables' match fields, fixed at construction:
    a flow's worker never moves over the runner's life, however much
    traffic — and megaflow state — the workers build up."""

    def test_a_flows_worker_never_moves(self, small_routing_set):
        trace = SCENARIOS["uniform"](
            small_routing_set, packet_count=120, flow_count=24
        ).events[0][1]
        submitted = TestShardGroups.submitted_groups
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=3,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            workers = [sharded.shard_of(packet) for packet in trace]
            groups = submitted(sharded, trace)
            assert len(groups) == 3
            sharded.collect_batch()
            for _ in range(3):
                sharded.process_batch(trace)
                assert [sharded.shard_of(packet) for packet in trace] == workers
                assert submitted(sharded, trace) == groups
                sharded.collect_batch()
            assert sharded._shard_fields == tuple(
                sorted(small_routing_set.field_names)
            )
            assert FRAME_LEN_FIELD not in sharded._shard_fields


class TestColumnarSharded:
    """Decode-free workers: columnar submissions classify off the block
    columns and stay bitwise-identical to the dict transport."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_columnar_matches_single_process(self, small_routing_set, name):
        from repro.runtime.scenarios import columnar_workload

        workload = SCENARIOS[name](
            small_routing_set, packet_count=300, flow_count=12
        )
        single = BatchPipeline(
            make_arch(small_routing_set),
            cache_capacity=64,
            megaflow_capacity=128,
        )
        expected = run_workload(
            single, workload, batch_size=48, keep_results=True
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=4,
            depth=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            got = run_workload(
                sharded,
                columnar_workload(workload),
                batch_size=48,
                keep_results=True,
            )
        assert len(got.results) == len(expected.results)
        for a, b in zip(got.results, expected.results):
            assert_same_result(a, b)
        assert got.flow_packets == expected.flow_packets
        assert got.flow_bytes == expected.flow_bytes

    def test_dict_and_columnar_twins_share_worker_path(
        self, small_routing_set
    ):
        """Dict and PacketBatch submissions differ only parent-side
        (where the dicts are columnarised): the same trace submitted
        either way yields identical results, per-entry counters and
        worker cache/megaflow/wave counters — across two workers,
        because both shapes are assigned by the one lane hash, so each
        flow warms the same worker's caches either way."""
        trace = SCENARIOS["zipf"](
            small_routing_set, packet_count=96, flow_count=8, frame_len="imix"
        ).events[0][1]
        batches = [trace[i : i + 16] for i in range(0, len(trace), 16)]

        def replay(convert):
            arch = make_arch(small_routing_set)
            with ShardedBatchPipeline(
                arch, workers=2, cache_capacity=64, megaflow_capacity=128
            ) as sharded:
                results = [
                    result
                    for batch in batches
                    for result in sharded.process_batch(convert(batch))
                ]
                stats = sharded.stats_snapshot()
            counters = {
                (entry.match, entry.priority): (
                    entry.stats.packet_count,
                    entry.stats.byte_count,
                )
                for entry in arch.tables[0]
            }
            return results, counters, stats

        dict_results, dict_counters, dict_stats = replay(list)
        col_results, col_counters, col_stats = replay(PacketBatch.from_dicts)
        for a, b in zip(col_results, dict_results, strict=True):
            assert_same_result(a, b)
        assert col_counters == dict_counters
        assert sum(packets for packets, _ in dict_counters.values()) > 0
        # BatchStats equality covers the parent's traffic counters and
        # the worker's cache/megaflow hits and misses and waves.
        assert col_stats == dict_stats
        assert dict_stats.megaflow_hits > 0 and dict_stats.waves > 0


def uniform_batches(rule_set, count, size=32):
    trace = SCENARIOS["uniform"](
        rule_set, packet_count=count * size, flow_count=24
    ).events[0][1]
    return [trace[i : i + size] for i in range(0, len(trace), size)]


class _RegionRewritingConn(ConnProxy):
    """Sends batch ``seq``'s request with its reply region replaced by
    ``rewrite(block_bytes, region)``, after recording in ``sent`` the
    request lanes' bytes as they stand; every other message as given."""

    def __init__(self, conn, sharded, seq, rewrite, sent):
        super().__init__(conn)
        self._sharded = sharded
        self._seq = seq
        self._rewrite = rewrite
        self._sent = sent

    def send(self, message):
        if message[0] == "shm" and message.seq == self._seq:
            block = self._sharded._requests[message.seq % self._sharded.depth]
            self._sent.append(bytes(block.buf[: lanes_end(message)]))
            message = message._replace(
                reply_region=self._rewrite(block.buf.nbytes, message.reply_region)
            )
        self._conn.send(message)


REGION_REWRITES = {
    "outside-the-block": lambda size, region: (size, region[1]),
    "over-the-request-lanes": lambda size, region: (0, region[1]),
}


@needs_dev_shm
class TestWorkerRefusesForeignRegion:
    """A worker writes its reply only into a region that is its own:
    inside the block, after every request lane, sized for its members.
    Any other region kills it before it writes a byte, supervision
    replays the batch — or, when the replay is refused too, serves it
    in-process as poison — and results and per-entry counters equal the
    in-process runner's."""

    @pytest.mark.parametrize("rewrite", REGION_REWRITES.values(), ids=REGION_REWRITES)
    @pytest.mark.parametrize("sticky", [False, True], ids=["replayed", "poison"])
    def test_a_foreign_region_is_refused_unwritten(
        self, small_routing_set, rewrite, sticky
    ):
        batches = uniform_batches(small_routing_set, 3)
        ref_arch = make_arch(small_routing_set)
        single = BatchPipeline(ref_arch, cache_capacity=64, megaflow_capacity=128)
        expected = [single.process_batch(batch) for batch in batches]
        arch = make_arch(small_routing_set)
        sent = []
        with bounded(10), ShardedBatchPipeline(
            arch, workers=2, cache_capacity=64, megaflow_capacity=128
        ) as sharded:
            sharded._ensure_started()
            spawn = sharded._spawn_worker

            def respawn(worker):  # a sticky rewrite greets the replay too
                conn, proc = spawn(worker)
                if sticky:
                    conn = _RegionRewritingConn(conn, sharded, 1, rewrite, sent)
                return conn, proc

            sharded._spawn_worker = respawn
            sharded._conns[0] = _RegionRewritingConn(
                sharded._conns[0], sharded, 1, rewrite, sent
            )
            for seq, (batch, want) in enumerate(zip(batches, expected)):
                for a, b in zip(sharded.process_batch(batch), want, strict=True):
                    assert_same_result(a, b)
                if seq == 1:  # no worker wrote over the request lanes
                    block = sharded._requests[1 % sharded.depth]
                    assert sent and all(
                        bytes(block.buf[: len(lanes)]) == lanes for lanes in sent
                    )
            snapshot = sharded.supervision_snapshot()
        assert len(sent) == 1 + sticky
        assert snapshot["crashes"] == 1 + sticky
        assert snapshot["poison_batches"] == sticky
        assert snapshot["replayed_batches"] == 1
        counts = entry_counts(arch.tables[0])
        assert counts == entry_counts(ref_arch.tables[0])
        assert sum(count[2] for count in counts) > 0


class _NamingConn(ConnProxy):
    """Records the block every request it sends names."""

    def __init__(self, conn, named):
        super().__init__(conn)
        self._named = named

    def send(self, message):
        if message[0] == "shm":
            self._named.add(message.block_name)
        self._conn.send(message)


@needs_dev_shm
class TestSegmentBudget:
    """One shared block per ring slot: a batch's request lanes and its
    reply regions share it.  At W=2, depth=3 the parent owns exactly
    ``depth`` segments during a run (``depth + 1`` with shared rules),
    and no worker maps a block that no request named — bar the sealed
    rules it attaches at spawn — nor, as batches grow, more than
    ``depth`` request blocks."""

    @pytest.mark.parametrize("shared_rules", [False, True], ids=["built", "sealed"])
    def test_one_block_per_ring_slot(self, small_routing_set, shared_rules):
        depth = 3
        batches = uniform_batches(small_routing_set, 4 * depth)
        named = set()
        before = shm_segments()
        owned = []
        with bounded(10), ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            depth=depth,
            megaflow_capacity=128,
            shared_rules=shared_rules,
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [_NamingConn(conn, named) for conn in sharded._conns]
            for outcomes in sharded.process_batches(batches):
                assert len(outcomes) == len(batches[0])
                owned.append(len(shm_segments() - before))
            rules = (
                {sharded._rule_state.layout.block_name} if shared_rules else set()
            )
            mapped = [
                {name for name in shm_mappings(proc.pid) if name.startswith("psm_")}
                for proc in sharded._procs
            ]
        assert max(owned) == owned[-1] == depth + shared_rules
        assert len(named) == depth
        for blocks in mapped:
            assert blocks and blocks <= named | rules

    def test_a_regrown_block_replaces_the_workers_attachment(
        self, small_routing_set
    ):
        """Lockstep batches of 32 … 8,192 packets re-create each ring
        block under a fresh name as it outgrows itself; the worker
        closes the attachment a new name replaces, so it never maps
        more than ``depth`` request blocks, and none the parent has
        unlinked."""
        depth = 2
        sizes = [32 << i for i in range(9)]
        trace = SCENARIOS["uniform"](
            small_routing_set, packet_count=sum(sizes), flow_count=24
        ).events[0][1]
        named = set()
        with bounded(60), ShardedBatchPipeline(
            make_arch(small_routing_set), workers=1, depth=depth, cache_capacity=64
        ) as sharded:
            sharded._ensure_started()
            sharded._conns = [_NamingConn(conn, named) for conn in sharded._conns]
            (proc,) = sharded._procs
            start = 0
            for size in sizes:
                assert len(sharded.process_batch(trace[start : start + size])) == size
                start += size
                mapped = {
                    name for name in shm_mappings(proc.pid) if name.startswith("psm_")
                }
                assert len(mapped) <= depth
                assert mapped <= shm_segments()
        # The blocks did regrow: far more names than slots went out.
        assert len(named) > 2 * depth


@needs_dev_shm
class TestCountAtCollect:
    """A batch counts when it is collected and credited — packets and
    batches beside its traffic — so a reply refused at collect counts
    nothing and ``megaflow_hits + megaflow_misses == packets`` holds
    after it; an empty batch counts one batch on both runners."""

    def test_a_refused_reply_counts_nothing(self, small_routing_set):
        first, second = uniform_batches(small_routing_set, 2)
        dropped = []
        with bounded(10), ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            sharded.process_batch(first)
            before = sharded.stats_snapshot()
            sharded._conns = [
                _LaneDroppingConn(conn, "res/stats", dropped)
                for conn in sharded._conns
            ]
            with pytest.raises(transport.ReplyDecodeError, match="res/stats"):
                sharded.process_batch(second)
            after = sharded.stats_snapshot()
        assert dropped
        assert asdict(after) == asdict(before)
        assert after.packets == len(first)
        assert after.megaflow_hits + after.megaflow_misses == after.packets

    def test_an_empty_batch_counts_one_batch_on_both_runners(
        self, small_routing_set
    ):
        first, second = uniform_batches(small_routing_set, 2)
        batches = [first, [], second]
        single = BatchPipeline(
            make_arch(small_routing_set), cache_capacity=64, megaflow_capacity=128
        )
        for batch in [*batches, []]:
            single.process_batch(batch)
        with bounded(10), ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=1,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            assert [len(got) for got in sharded.process_batches(batches)] == [
                len(batch) for batch in batches
            ]
            assert sharded.process_batch([]) == []
            got = sharded.stats_snapshot()
        assert asdict(got) == asdict(single.stats_snapshot())
        assert got.batches == 4 and got.packets == len(first) + len(second)


def _slot_entry(table_id, port, idle=0):
    """Table 0 matches ``in_port`` (odd ports go on to table 1), table 1
    matches ``tcp_dst``; one builder for every runner, so each runner's
    entries are value-equal twins."""
    if table_id == 0:
        match = Match.exact(in_port=port)
        instructions = [WriteActions([OutputAction(100 + port)])]
        if port % 2:
            instructions.append(GotoTable(1))
    else:
        match = Match.exact(tcp_dst=port)
        instructions = [WriteActions([OutputAction(200 + port)])]
    return FlowEntry.build(
        match=match,
        priority=1 + port,
        instructions=instructions,
        idle_timeout=idle,
    )


#: Traffic over every live port but 8, whose idle entry so expires.
_SLOT_PACKETS = [
    {
        "in_port": (0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14)[i % 13],
        "tcp_dst": (i * 5) % 8,
        FRAME_LEN_FIELD: 60 + i,
    }
    for i in range(40)
]


class _SlotScript:
    """One runner's run of the slot-agreement script: the tables, then
    churn that leaves holes and a trailing free slot, then batches and
    flow-mods that reuse freed slots — the last pair between a batch's
    submission and its collection.  ``made`` lists every entry in
    creation order, so two scripts' entries pair up by index."""

    def __init__(self, tables):
        self.made = []
        self.removed = {}
        for port in range(10):
            self.add(tables[0], 0, port, idle=2 if port in (4, 8) else 0)
        for port in range(6):
            self.add(tables[1], 1, port)
        # Out of slot order, so the free slots' release history is not
        # their order.
        for table_id, port in ((0, 9), (0, 2), (0, 5), (1, 5), (1, 1)):
            self.remove(tables[table_id], table_id, port)

    def add(self, table, table_id, port, idle=0):
        entry = _slot_entry(table_id, port, idle)
        self.made.append(entry)
        table.add(entry)

    def remove(self, table, table_id, port):
        entry = next(e for e in table if e.match == _slot_entry(table_id, port).match)
        assert table.remove(entry.match, entry.priority)
        self.removed[(table_id, port)] = entry

    def run(self, pipeline, submit, collect, tick):
        """The script after construction; ``submit`` classifies a batch
        under the tables as they stand, ``collect`` returns the results
        of the oldest batch submitted."""
        submit(_SLOT_PACKETS)
        results = [collect()]
        # The first flow-mods: each takes its table's lowest hole.
        self.add(pipeline.table(0), 0, 10)
        self.add(pipeline.table(1), 1, 7)
        submit(_SLOT_PACKETS)
        results.append(collect())
        ledger = tick(3)
        self.remove(pipeline.table(0), 0, 3)
        self.add(pipeline.table(0), 0, 12)  # port 3's freed slot
        submit(_SLOT_PACKETS)
        results.append(collect())
        # Between submission and collection, port 1's slot changes hands.
        submit(_SLOT_PACKETS)
        self.remove(pipeline.table(0), 0, 1)
        self.add(pipeline.table(0), 0, 14)
        submit(_SLOT_PACKETS)
        results += [collect(), collect()]
        return results, ledger + tick(3)

    def counters(self):
        return [(e.stats.packet_count, e.stats.byte_count) for e in self.made]


def _slot_tables():
    return [
        OpenFlowLookupTable(("in_port",), table_id=0),
        OpenFlowLookupTable(("tcp_dst",), table_id=1),
    ]


class TestShardedSlotAgreement:
    """An entry's action slot is its one name in every process: a reply
    names matched entries by slot, and every replica — spec-built,
    sealed and thawed by the first flow-mod, respawned after a crash,
    or the parent's inline one — holds each entry at the parent's slot
    and allocates the parent's slots as it replays the log, holes and
    a trailing free slot included.  Results, per-entry counters and
    the ``FlowRemoved`` ledger equal the in-process runner's and the
    scan oracle's, and a batch collected after its matched entry's
    slot changed hands credits the entry pinned at submission."""

    def oracle(self):
        from repro.openflow.table import FlowTable

        pipeline = OpenFlowPipeline([FlowTable(table_id=0), FlowTable(table_id=1)])
        script = _SlotScript(pipeline.tables)
        sweeper = LifecycleSweeper()
        pending = deque()
        results, ledger = script.run(
            pipeline,
            lambda packets: pending.append(
                [pipeline.process(dict(p)) for p in packets]
            ),
            pending.popleft,
            lambda dt: sweeper.advance(pipeline, dt),
        )
        return results, script.counters(), ledger

    def in_process(self):
        pipeline = OpenFlowPipeline(_slot_tables())
        script = _SlotScript(pipeline.tables)
        runner = BatchPipeline(pipeline, cache_capacity=16, megaflow_capacity=32)
        pending = deque()
        results, ledger = script.run(
            pipeline,
            lambda packets: pending.append(runner.process_batch(packets)),
            pending.popleft,
            runner.advance_clock,
        )
        return results, script.counters(), ledger

    def sharded(self, variant):
        pipeline = OpenFlowPipeline(_slot_tables())
        script = _SlotScript(pipeline.tables)
        holes = [list(t.actions.entries) for t in pipeline.tables]
        assert [[e is None for e in slots] for slots in holes] == [
            [False, False, True, False, False, True, False, False, False, True],
            [False, True, False, False, False, True],
        ]
        faults = None
        if variant == "respawn":
            # Worker 0 dies classifying the batch after the first flow-mods.
            faults = FaultPlan(specs=(FaultSpec(0, 1, "mid-classify", "crash"),))
        with bounded(30), ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=2,
            shared_rules=variant in ("sealed", "respawn"),
            fault_plan=faults,
        ) as runner:
            if variant == "inline":
                runner._supervisor.disable(0)
            results, ledger = script.run(
                runner.pipeline,
                runner.submit_batch,
                runner.collect_batch,
                runner.advance_clock,
            )
            supervision = runner.supervision_snapshot()
        if variant == "respawn":
            assert supervision["crashes"] == supervision["restarts"] == 1
        if variant == "inline":
            assert supervision["inline_packets"] > 0
        # Port 1's entry lost its slot to port 14's between the last
        # two submissions: the first of them, collected after, credited
        # port 1's entry (its fourth batch), the second port 14's.
        port1 = script.removed[(0, 1)]
        port14 = script.made[-1]
        assert pipeline.table(0).actions.entries.index(port14) == (
            holes[0].index(port1)
        )
        assert port1.stats.packet_count == 4 * sum(
            p["in_port"] == 1 for p in _SLOT_PACKETS
        )
        assert port14.stats.packet_count == sum(
            p["in_port"] == 14 for p in _SLOT_PACKETS
        )
        return results, script.counters(), ledger

    @pytest.mark.parametrize("variant", ["spec", "sealed", "respawn", "inline"])
    def test_every_replica_names_entries_by_the_parents_slots(self, variant):
        results, counters, ledger = self.oracle()
        local = self.in_process()
        assert local[:2] == (results, counters)
        # The scan table sweeps in priority order, a keyed one in
        # install order: the oracle's ledger is compared as a multiset.
        assert sorted(local[2], key=repr) == sorted(ledger, key=repr)
        assert [e.match["in_port"].value for e in local[2]] == [4, 8]
        assert self.sharded(variant) == local


class TestCollectByAddress:
    """The sharded parent names a decoded entry by its slot: what it
    credits comes off the pinned action table's ``rows`` copy, never
    through a ``FlowStats``.  Counts only, no clocks."""

    def test_collect_reads_no_counter_row(self, monkeypatch):
        """``_collect`` reads ``FlowStats.row`` zero times, over 64
        distinct four-table paths."""
        from repro.openflow.flow import FlowStats

        from tests.runtime.test_columnar import _distinct_path_misses

        arch, packets = _distinct_path_misses(64)
        member = FlowStats.__dict__["row"]
        reads = []
        collecting = []

        class CountedRow:
            """The ``FlowStats.row`` slot, counting its reads while the
            parent collects."""

            def __get__(self, stats, owner=None):
                if stats is None:
                    return self
                reads.extend(collecting)
                return member.__get__(stats, owner)

            def __set__(self, stats, value):
                member.__set__(stats, value)

        collect = ShardedBatchPipeline._collect

        def counted(self, seq):
            collecting.append(1)
            try:
                return collect(self, seq)
            finally:
                collecting.clear()

        monkeypatch.setattr(ShardedBatchPipeline, "_collect", counted)
        with bounded(30), ShardedBatchPipeline(
            arch, workers=1, cache_capacity=64, megaflow_capacity=1024
        ) as runner:
            runner.process_batch(packets[:1])  # the fleet is up
            monkeypatch.setattr(FlowStats, "row", CountedRow())
            outcomes = next(iter(runner.process_batches([packets])))
            assert len(outcomes.paths) == 64
            assert reads == []
            assert outcomes.results() == [arch.process(dict(p)) for p in packets]
