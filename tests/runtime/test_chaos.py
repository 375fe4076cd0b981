"""Chaos harness for the fault-tolerant shard runtime.

Seeded :class:`FaultPlan` schedules kill, hang and delay workers at
named serve-loop steps; every recovery path — respawn + deterministic
replay, wedge escalation, poison-batch quarantine, budget-exhausted
degradation — must leave results, per-entry flow stats and /dev/shm
bitwise-indistinguishable from a run with immortal workers.

The targeted-fault tests route packets to workers by a synthetic
``shard_key`` field (outside every rule's match, so classification is
unaffected) — the faulted worker is guaranteed traffic for the faulted
seq; the seeded differential runs the normal hash sharding.

CI runs this file explicitly (the tier-1 junit guard) so the chaos
coverage cannot silently rot out of the pipeline.
"""

import os
import signal
import sys
import time

import pytest

from repro.runtime import shard
from repro.runtime import (
    SCENARIOS,
    BatchPipeline,
    FaultPlan,
    FaultSpec,
    ShardedBatchPipeline,
    StreamConfig,
    SupervisionConfig,
    bursty_arrivals,
    run_stream,
    run_workload,
)
from repro.runtime.faults import HANG_SECONDS, STEPS
from repro.runtime.transport import SharedBlock

from tests.runtime.conftest import (
    needs_dev_shm,
    shm_segments,
    unlink_segments,
)
from tests.runtime.test_batch import bounded
from tests.runtime.test_columnar import _Spy
from tests.runtime.test_megaflow import assert_same_result
from tests.runtime.test_shard import (
    ConnProxy,
    RoutedSharded,
    entry_counts,
    lanes_end,
    make_arch,
)


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, workers=3, seqs=range(8), faults=3)
        b = FaultPlan.seeded(7, workers=3, seqs=range(8), faults=3)
        assert a == b
        assert len(a.specs) == 3
        assert a

    def test_seeded_clamps_to_population(self):
        plan = FaultPlan.seeded(
            1, workers=1, seqs=[0], steps=("mid-classify",), faults=50
        )
        assert len(plan.specs) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(worker=0, seq=0, step="nope", action="crash")
        with pytest.raises(ValueError):
            FaultSpec(worker=0, seq=0, step=STEPS[0], action="explode")

    def test_pruned_drops_fired_keeps_sticky_and_others(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(0, 0, "mid-classify", "crash"),
                FaultSpec(0, 0, "after-stats", "crash", sticky=True),
                FaultSpec(0, 5, "mid-classify", "crash"),
                FaultSpec(1, 0, "mid-classify", "crash"),
            )
        )
        kept = plan.pruned(worker=0, up_to_seq=0).specs
        assert FaultSpec(0, 0, "mid-classify", "crash") not in kept
        assert FaultSpec(0, 0, "after-stats", "crash", sticky=True) in kept
        assert FaultSpec(0, 5, "mid-classify", "crash") in kept
        assert FaultSpec(1, 0, "mid-classify", "crash") in kept

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()


class _RoutedSharded(RoutedSharded):
    """Packets go to the worker named by their ``shard_key`` field."""

    route_field = "shard_key"


def routed_batches(rule_set, sizes, workers=2):
    """One batch per size; batch i's packets all carry
    ``shard_key = i % workers``, pinning it to that worker under
    :class:`_RoutedSharded` without perturbing any matched field."""
    workload = SCENARIOS["zipf"](
        rule_set, packet_count=sum(sizes), flow_count=8
    )
    trace = workload.events[0][1]
    batches = []
    cursor = 0
    for index, size in enumerate(sizes):
        batches.append(
            [
                dict(fields, shard_key=index % workers)
                for fields in trace[cursor : cursor + size]
            ]
        )
        cursor += size
    return batches


class _FaultRun:
    """Drive the same handcrafted batches through a single-process
    reference and a routed sharded runner under a fault plan, then
    compare results and per-entry flow counters bitwise."""

    def __init__(self, rule_set, sizes, plan, workers=2, **kwargs):
        self.batches = routed_batches(rule_set, sizes, workers=workers)
        ref_arch = make_arch(rule_set)
        self.ref_entries = list(ref_arch.tables[0])
        single = BatchPipeline(
            ref_arch, cache_capacity=64, megaflow_capacity=128
        )
        self.expected = [single.process_batch(b) for b in self.batches]
        arch = make_arch(rule_set)
        self.entries = list(arch.tables[0])
        self.sharded = _RoutedSharded(
            arch,
            workers=workers,
            cache_capacity=64,
            megaflow_capacity=128,
            fault_plan=plan,
            **kwargs,
        )

    def run_and_compare(self):
        with self.sharded:
            for batch, expected in zip(self.batches, self.expected):
                got = self.sharded.process_batch(batch)
                for a, b in zip(got, expected):
                    assert_same_result(a, b)
            snapshot = self.sharded.supervision_snapshot()
            # close() resets per-run supervisor state; capture first.
            self.disabled = set(self.sharded._supervisor.disabled)
        ref_counts = entry_counts(self.ref_entries)
        # Guard against a vacuous comparison: the trace must actually
        # hit rules, or the per-entry check proves nothing.
        assert sum(count[2] for count in ref_counts) > 0
        assert entry_counts(self.entries) == ref_counts
        return snapshot


class _BabblingConn(ConnProxy):
    """Its first ``recv`` yields a frame the worker never sent, leaving
    the genuine traffic queued behind it."""

    def __init__(self, conn, bogus):
        super().__init__(conn)
        self._bogus = [bogus]

    def recv(self):
        if self._bogus:
            return self._bogus.pop()
        return self._conn.recv()


@needs_dev_shm
class TestCrashRecovery:
    """SIGKILL faults: detection via the process sentinel, respawn,
    deterministic replay, crash-safe shm cleanup."""

    @pytest.mark.parametrize("shared_rules", [False, True])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_seeded_chaos_differential(
        self, small_routing_set, seed, shared_rules
    ):
        """The acceptance run: a seeded plan SIGKILLs workers at random
        steps mid-churn; results, stats, per-entry counters and
        /dev/shm must match the single-process run exactly — with and
        without the shared sealed rule state (respawned workers attach
        to the block instead of rebuilding, then replay the log)."""
        workload = SCENARIOS["churn"](
            small_routing_set, packet_count=200, flow_count=12
        )
        ref_arch = make_arch(small_routing_set)
        ref_entries = list(ref_arch.tables[0])
        single = BatchPipeline(
            ref_arch, cache_capacity=64, megaflow_capacity=128
        )
        expected = run_workload(
            single, workload, batch_size=25, keep_results=True
        )
        plan = FaultPlan.seeded(seed, workers=3, seqs=range(8), faults=2)
        arch = make_arch(small_routing_set)
        entries = list(arch.tables[0])
        with ShardedBatchPipeline(
            arch,
            workers=3,
            cache_capacity=64,
            megaflow_capacity=128,
            depth=3,
            fault_plan=plan,
            shared_rules=shared_rules,
        ) as sharded:
            got = run_workload(
                sharded, workload, batch_size=25, keep_results=True
            )
            snapshot = sharded.supervision_snapshot()
        assert got.packets == expected.packets
        for a, b in zip(got.results, expected.results):
            assert_same_result(a, b)
        assert got.flow_packets == expected.flow_packets
        assert got.flow_bytes == expected.flow_bytes
        assert entry_counts(entries) == entry_counts(ref_entries)
        assert snapshot["crashes"] >= 1, "seeded fault never fired"
        assert snapshot["restarts"] == snapshot["crashes"]
        assert snapshot["wedges"] == 0

    def test_external_sigkill_mid_stream(self, small_routing_set):
        """Satellite regression: a worker killed from outside (no fault
        plan at all) is detected, replaced, and strands nothing."""
        plan = FaultPlan()
        run = _FaultRun(small_routing_set, (20,) * 6, plan)
        with run.sharded as sharded:
            for i, (batch, expected) in enumerate(
                zip(run.batches, run.expected)
            ):
                if i == 2:
                    os.kill(sharded._procs[0].pid, signal.SIGKILL)
                got = sharded.process_batch(batch)
                for a, b in zip(got, expected):
                    assert_same_result(a, b)
            snapshot = sharded.supervision_snapshot()
        assert entry_counts(run.entries) == entry_counts(run.ref_entries)
        assert snapshot["crashes"] == 1
        assert snapshot["restarts"] == 1

    def test_unknown_request_tag_is_a_crash_not_a_hang(
        self, small_routing_set
    ):
        """A frame whose tag the worker does not know (here the retired
        pickle transport's ``"batch"``) must kill the worker so the
        sentinel fires: silently ignoring it left the parent waiting
        for a reply that never came — forever, with no wedge deadline."""
        run = _FaultRun(small_routing_set, (20,) * 3, FaultPlan(), workers=1)
        with run.sharded as sharded:
            for i, (batch, expected) in enumerate(
                zip(run.batches, run.expected)
            ):
                if i == 1:
                    sharded._conns[0].send(("batch", 0, (), [], False))
                got = sharded.process_batch(batch)
                for a, b in zip(got, expected):
                    assert_same_result(a, b)
            snapshot = sharded.supervision_snapshot()
        assert entry_counts(run.entries) == entry_counts(run.ref_entries)
        assert snapshot["crashes"] == 1
        assert snapshot["restarts"] == 1

    def test_unexpected_reply_frame_is_a_crash_not_a_result(
        self, small_routing_set
    ):
        """The parent-side mirror: a frame that is not the reply its
        worker owes (here the retired announce rider) is never parked
        as one.  The worker is killed and replaced, the batch replayed,
        and results and per-entry stats still match the single-process
        run — the genuine reply behind the bogus frame is discarded
        with the pipe, not counted twice."""
        run = _FaultRun(small_routing_set, (20,) * 3, FaultPlan(), workers=1)
        with run.sharded as sharded:
            for i, (batch, expected) in enumerate(
                zip(run.batches, run.expected)
            ):
                if i == 1:
                    sharded._conns[0] = _BabblingConn(
                        sharded._conns[0], ("block", 0, "psm_stale")
                    )
                got = sharded.process_batch(batch)
                for a, b in zip(got, expected):
                    assert_same_result(a, b)
            snapshot = sharded.supervision_snapshot()
        assert entry_counts(run.entries) == entry_counts(run.ref_entries)
        assert snapshot["crashes"] == 1
        assert snapshot["restarts"] == 1
        assert snapshot["replayed_batches"] == 1

    def test_close_after_kill_without_collect(self, small_routing_set):
        """close() with corpses holding an uncollected batch tears down
        cleanly: there is nothing of theirs to unlink."""
        batches = routed_batches(small_routing_set, (16, 16))
        sharded = _RoutedSharded(
            make_arch(small_routing_set), workers=2, depth=2, cache_capacity=64
        )
        sharded.process_batch(batches[0])  # spin the fleet up
        sharded.submit_batch(batches[1])
        os.kill(sharded._procs[0].pid, signal.SIGKILL)
        os.kill(sharded._procs[1].pid, signal.SIGKILL)
        sharded.close()
        assert sharded.in_flight == 0

    def test_healthy_run_counts_nothing(self, small_routing_set):
        workload = SCENARIOS["uniform"](
            small_routing_set, packet_count=60, flow_count=6
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            run_workload(sharded, workload, batch_size=20)
            snapshot = sharded.supervision_snapshot()
        assert snapshot == {
            "crashes": 0,
            "wedges": 0,
            "restarts": 0,
            "replayed_batches": 0,
            "poison_batches": 0,
            "inline_packets": 0,
        }


@needs_dev_shm
class TestWedgeDetection:
    def test_hang_detected_within_deadline(self, small_routing_set):
        """A wedged worker (alive, silent) is declared dead within the
        configured deadline, killed, and its batch replayed — the
        collect must return long before the hang would have."""
        plan = FaultPlan(specs=(FaultSpec(0, 0, "mid-classify", "hang"),))
        run = _FaultRun(
            small_routing_set,
            (12, 8),
            plan,
            supervision=SupervisionConfig(deadline=1.0),
        )
        started = time.monotonic()
        snapshot = run.run_and_compare()
        elapsed = time.monotonic() - started
        assert elapsed < HANG_SECONDS / 10, "wedge went undetected"
        assert snapshot["wedges"] == 1
        assert snapshot["restarts"] == 1

    def test_transient_delay_is_not_a_failure(self, small_routing_set):
        """A short stall must ride out the deadline untouched: no kill,
        no respawn, no recovery counters."""
        plan = FaultPlan(
            specs=(FaultSpec(0, 0, "mid-classify", "delay", delay=0.2),)
        )
        run = _FaultRun(
            small_routing_set,
            (12, 8),
            plan,
            supervision=SupervisionConfig(deadline=5.0),
        )
        snapshot = run.run_and_compare()
        assert snapshot["wedges"] == 0
        assert snapshot["crashes"] == 0


@needs_dev_shm
class TestOneDeadline:
    """The wedge deadline has one definition: time since the workers
    owing the awaited replies last delivered one; the suspect is the
    worker owing the oldest."""

    def run(self, rule_set, sizes, key_workers, plan, deadline):
        batches = routed_batches(rule_set, sizes, workers=key_workers)
        single = BatchPipeline(
            make_arch(rule_set), cache_capacity=64, megaflow_capacity=128
        )
        expected = [single.process_batch(batch) for batch in batches]
        with _RoutedSharded(
            make_arch(rule_set),
            workers=2,
            depth=len(batches),
            cache_capacity=64,
            megaflow_capacity=128,
            fault_plan=plan,
            supervision=SupervisionConfig(deadline=deadline),
        ) as sharded:
            for batch in batches:
                sharded.submit_batch(batch)
            got = [sharded.collect_batch() for _ in batches]
            failures = list(sharded._supervisor.failures)
            snapshot = sharded.supervision_snapshot()
        for got_chunk, expected_chunk in zip(got, expected, strict=True):
            for a, b in zip(got_chunk, expected_chunk, strict=True):
                assert_same_result(a, b)
        return snapshot, failures

    def test_slow_replies_each_inside_the_deadline_trip_nothing(
        self, small_routing_set
    ):
        """Four replies from one worker, each 0.5 s late: together they
        outlast the 1.5 s deadline, but none of them does — the clock
        restarts with every delivered reply."""
        plan = FaultPlan(
            specs=tuple(
                FaultSpec(0, seq, "mid-classify", "delay", delay=0.5)
                for seq in range(4)
            )
        )
        snapshot, failures = self.run(
            small_routing_set, (6, 4, 5, 3), 1, plan, 1.5
        )
        assert snapshot["wedges"] == snapshot["crashes"] == 0
        assert failures == [0, 0]

    def test_a_hang_is_one_wedge_on_the_hung_worker(self, small_routing_set):
        plan = FaultPlan(specs=(FaultSpec(0, 0, "mid-classify", "hang"),))
        started = time.monotonic()
        snapshot, failures = self.run(
            small_routing_set, (6, 4), 2, plan, 1.0
        )
        assert time.monotonic() - started < HANG_SECONDS / 10
        assert snapshot["wedges"] == 1
        assert snapshot["crashes"] == 0
        assert snapshot["restarts"] == 1
        assert failures == [1, 0]


@needs_dev_shm
class TestCloseIsBounded:
    """``close()`` forgets what it never collected: with a worker hung
    on a batch in flight and no deadline set, it still returns within
    ``CLOSE_TIMEOUT`` plus a margin — by ``close()``, by a ``with``
    exit and by the garbage collector alike — and the hung worker is
    killed."""

    #: Shortened so the suite does not wait out the default per worker.
    CLOSE_TIMEOUT = 1.0
    MARGIN = 3.0

    def start(self, rule_set, monkeypatch):
        """A two-worker runner with one batch in flight, on worker 0,
        which hangs on it."""
        monkeypatch.setattr(
            ShardedBatchPipeline, "CLOSE_TIMEOUT", self.CLOSE_TIMEOUT
        )
        plan = FaultPlan(specs=(FaultSpec(0, 0, "after-receive", "hang"),))
        sharded = _RoutedSharded(
            make_arch(rule_set), workers=2, cache_capacity=64, fault_plan=plan
        )
        sharded.submit_batch(routed_batches(rule_set, (16,))[0])
        return sharded, list(sharded._procs)

    def check(self, started, procs):
        assert time.monotonic() - started < self.CLOSE_TIMEOUT + self.MARGIN
        assert not any(proc.is_alive() for proc in procs)

    def test_close_returns(self, small_routing_set, monkeypatch):
        sharded, procs = self.start(small_routing_set, monkeypatch)
        with bounded(10):
            started = time.monotonic()
            sharded.close()
        self.check(started, procs)
        assert sharded.in_flight == 0

    def test_with_exit_returns(self, small_routing_set, monkeypatch):
        sharded, procs = self.start(small_routing_set, monkeypatch)
        with bounded(10):
            started = time.monotonic()
            with sharded:
                pass
        self.check(started, procs)
        assert sharded.in_flight == 0

    def test_collected_runner_returns(self, small_routing_set, monkeypatch):
        import gc

        sharded, procs = self.start(small_routing_set, monkeypatch)
        with bounded(10):
            started = time.monotonic()
            del sharded
            gc.collect()
        self.check(started, procs)


@needs_dev_shm
class TestPoisonAndBudgets:
    def test_sticky_fault_is_a_poison_batch(self, small_routing_set):
        """A sticky fault kills the replacement too; the second death
        classifies the batch poison and it completes in-process —
        bitwise-identically — instead of looping replays forever."""
        plan = FaultPlan(
            specs=(FaultSpec(0, 0, "after-receive", "crash", sticky=True),)
        )
        run = _FaultRun(small_routing_set, (12, 8, 10), plan)
        snapshot = run.run_and_compare()
        assert snapshot["poison_batches"] == 1
        assert snapshot["crashes"] == 2
        assert snapshot["restarts"] == 2
        assert snapshot["inline_packets"] == 12

    def test_budget_exhaustion_degrades_to_inline(self, small_routing_set):
        """Past the restart budget the shard is retired and its traffic
        classified in-process — the lost batches and every later batch
        routed to it — with identical results."""
        plan = FaultPlan(
            specs=(
                FaultSpec(0, 0, "after-receive", "crash"),
                FaultSpec(0, 2, "after-receive", "crash"),
            )
        )
        run = _FaultRun(
            small_routing_set,
            (6, 4, 5, 3, 7),  # batches 0, 2, 4 pin to worker 0
            plan,
            supervision=SupervisionConfig(restart_budget=1),
        )
        snapshot = run.run_and_compare()
        assert 0 in run.disabled
        assert snapshot["crashes"] == 2
        assert snapshot["restarts"] == 1
        # Batch 2 is lost to the second crash, batch 4 routed to the
        # retired shard afterwards: both classified in-process.
        assert snapshot["inline_packets"] == 5 + 7



@needs_dev_shm
class TestInlineShardIsAReplica:
    """A degraded shard is a replica like any other: the parent serves
    it through the worker's own serve path, so its reply lands in the
    worker's reply region and says what a live worker would say."""

    def test_inline_reply_is_the_worker_reply(
        self, small_routing_set, monkeypatch
    ):
        # No budget: the crash on seq 0 retires worker 0 for good, so
        # seq 0 (lost) and seq 2 (submitted afterwards) run in-process.
        sizes = (6, 4, 5, 3)
        plan = FaultPlan(specs=(FaultSpec(0, 0, "after-receive", "crash"),))
        run = _FaultRun(
            small_routing_set,
            sizes,
            plan,
            supervision=SupervisionConfig(restart_budget=0),
        )
        # What a live worker 0 replies for the same sub-batches.
        live = {}
        with _RoutedSharded(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as twin:
            for batch in run.batches:
                seq = twin.submit_batch(batch)
                twin._await(seq)
                if 0 in twin._inflight[seq].replies:
                    live[seq] = twin._inflight[seq].replies[0]
                twin.collect_batch()
        assert sorted(live) == [0, 2]

        served, encoders, recreated = [], [], []
        serve, encode = shard._Replica.serve, shard.encode_outcomes
        ensure = SharedBlock.ensure
        parent = os.getpid()

        def spy_serve(replica, request, buf, *rest):
            reply = serve(replica, request, buf, *rest)
            if os.getpid() == parent:  # the forked workers' copies differ
                sharded = run.sharded
                inflight = sharded._inflight[request.seq]
                block = sharded._requests[request.seq % sharded.depth]
                served.append(
                    (
                        reply,
                        request.block_name == block.name
                        and request.reply_region
                        == inflight.sends[0].reply_region,
                        request.reply_region[1],
                    )
                )
            return reply

        def spy_ensure(block, nbytes):
            if block._shm is not None and block._shm.size < nbytes:
                recreated.append(block.name)
            ensure(block, nbytes)

        def spy_encode(*args):
            encoders.append(sys._getframe(1).f_code.co_qualname)
            return encode(*args)

        # Forked workers inherit the spies, but only the parent's own
        # calls land in these lists.
        monkeypatch.setattr(shard._Replica, "serve", spy_serve)
        monkeypatch.setattr(shard, "encode_outcomes", spy_encode)
        monkeypatch.setattr(SharedBlock, "ensure", spy_ensure)
        snapshot = run.run_and_compare()
        assert snapshot["inline_packets"] == sizes[0] + sizes[2]
        assert snapshot["restarts"] == 0
        assert [reply.seq for reply, _, _ in served] == [0, 2]
        # (a) written inside the worker's own reply region;
        for reply, worker_region, region_bytes in served:
            assert worker_region
            assert lanes_end(reply) <= region_bytes
        # (b) with the segment table a live worker writes for that
        # sub-batch;
        for reply, _, _ in served:
            assert reply.segments == live[reply.seq].segments
        # (c) so no block is re-created on its account;
        assert recreated == []
        # (d) and the parent encodes through the replica's serve alone.
        assert encoders and set(encoders) == {"_Replica.serve"}

    @pytest.mark.parametrize("shared_rules", [False, True], ids=["built", "sealed"])
    def test_inline_replica_is_built_from_the_parents_spec(
        self, small_routing_set, monkeypatch, shared_rules
    ):
        """No replica path writes to a ``FlowEntry``, so the parent's
        replica is built from the parent's own spec — no pickle round
        trip — and the authoritative entries still count exactly what
        a single-process run counts."""
        sizes = (6, 4, 5, 3)
        plan = FaultPlan(specs=(FaultSpec(0, 0, "after-receive", "crash"),))
        run = _FaultRun(
            small_routing_set,
            sizes,
            plan,
            supervision=SupervisionConfig(restart_budget=0),
            shared_rules=shared_rules,
        )
        pickles = [_Spy(monkeypatch, shard.pickle, name) for name in ("dumps", "loads")]
        built, inline = [], []
        init, serve_inline = shard._Replica.__init__, run.sharded._serve_inline

        def spy_init(replica, spec, *args):
            built.append(spec)
            init(replica, spec, *args)

        def spy_serve_inline(seq, worker):
            before = sum(spy.calls for spy in pickles)
            serve_inline(seq, worker)
            pickled = sum(spy.calls for spy in pickles) - before
            inline.append((run.sharded._spec, pickled))

        # Forked workers inherit the spies, but only the parent's own
        # calls land in these lists.
        monkeypatch.setattr(shard._Replica, "__init__", spy_init)
        monkeypatch.setattr(run.sharded, "_serve_inline", spy_serve_inline)
        snapshot = run.run_and_compare()
        assert snapshot["inline_packets"] == sizes[0] + sizes[2]
        assert len(inline) == 2 and len(built) == 1
        # Building the replica and serving the shard pickled nothing...
        assert all(pickled == 0 for _, pickled in inline)
        # ...because the replica was built from the parent's own spec.
        assert all(built[0] is spec for spec, _ in inline)
        # run_and_compare held every authoritative entry's flow stats to
        # the single-process run's; say so once more, here.
        assert entry_counts(run.entries) == entry_counts(run.ref_entries)


@needs_dev_shm
class TestCountersAddUp:
    """Each unit of work is counted once: nothing here bypasses the
    megaflow tier, so every packet is one megaflow hit or miss — on the
    runner's snapshot and on ``run_workload``'s result alike — through
    a ``close()`` and reuse, a crash answered by respawn and replay,
    and both shards degraded onto the parent's one inline replica."""

    PACKETS = 256

    def replay(self, rule_set, **kwargs):
        """Two replays of one zipf trace through one two-worker runner,
        ``close()``-d in between; their results, the runner's snapshot
        and its supervision counters."""
        workload = SCENARIOS["zipf"](
            rule_set, packet_count=self.PACKETS, flow_count=24
        )
        with ShardedBatchPipeline(
            make_arch(rule_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
            **kwargs,
        ) as sharded:
            first = run_workload(sharded, workload, batch_size=32)
            sharded.close()
            closed = sharded.stats_snapshot()
            second = run_workload(sharded, workload, batch_size=32)
            stats = sharded.stats_snapshot()
            snapshot = sharded.supervision_snapshot()
        for counts, packets in (
            (first, self.PACKETS),
            (second, self.PACKETS),
            (closed, self.PACKETS),
            (stats, 2 * self.PACKETS),
        ):
            assert counts.packets == packets
            assert counts.megaflow_hits + counts.megaflow_misses == packets
        return snapshot

    def test_close_then_reuse(self, small_routing_set):
        snapshot = self.replay(small_routing_set)
        assert snapshot["crashes"] == 0

    def test_crash_respawn_and_replay(self, small_routing_set):
        """Worker 0 dies after classifying seq 3 and before replying:
        the lost replies count nothing, their replays count once, and
        the replacement's fresh replica erases none of the dead one's
        counts."""
        plan = FaultPlan(specs=(FaultSpec(0, 3, "after-stats", "crash"),))
        snapshot = self.replay(small_routing_set, fault_plan=plan)
        assert snapshot["crashes"] == snapshot["restarts"] == 1
        assert snapshot["replayed_batches"] >= 1

    def test_both_shards_on_the_one_inline_replica(self, small_routing_set):
        """No restart budget: both workers die on seq 0, and every later
        request of either shard is served by the same inline replica."""
        plan = FaultPlan(
            specs=(
                FaultSpec(0, 0, "after-receive", "crash"),
                FaultSpec(1, 0, "after-receive", "crash"),
            )
        )
        snapshot = self.replay(
            small_routing_set,
            fault_plan=plan,
            supervision=SupervisionConfig(restart_budget=0),
        )
        assert snapshot["crashes"] == 2
        assert snapshot["restarts"] == 0
        # close() forgives degraded workers: the second replay is live.
        assert snapshot["inline_packets"] == self.PACKETS


@needs_dev_shm
class TestOutOfOrderUnderFaults:
    """Recovery replays a lost batch without disturbing the collect
    order: batches still complete in submission order."""

    def test_fifo_collect_preserved_after_recovery(self, small_routing_set):
        batches = routed_batches(small_routing_set, (6, 4))
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        plan = FaultPlan(specs=(FaultSpec(0, 0, "after-stats", "crash"),))
        with _RoutedSharded(
            make_arch(small_routing_set),
            workers=2,
            depth=2,
            cache_capacity=64,
            fault_plan=plan,
        ) as sharded:
            sharded.submit_batch(batches[0])
            sharded.submit_batch(batches[1])
            first = sharded.collect_batch()  # FIFO: seq 0, via recovery
            second = sharded.collect_batch()
            snapshot = sharded.supervision_snapshot()
        for got, want in zip(first, expected[0]):
            assert_same_result(got, want)
        for got, want in zip(second, expected[1]):
            assert_same_result(got, want)
        assert snapshot["crashes"] == 1
        assert snapshot["restarts"] == 1
        assert snapshot["replayed_batches"] >= 1


def _orphan_middle(queue):
    """Child entry point: build a tiny fleet, report the worker pids,
    then park — the test SIGKILLs this process and expects the workers
    to notice the orphaning on their own."""
    from repro.filters.synthetic import generate_routing_set

    from tests.conftest import SMALL_ROUTING_STATS

    rule_set = generate_routing_set(SMALL_ROUTING_STATS, seed=13)
    sharded = ShardedBatchPipeline(make_arch(rule_set), workers=2)
    workload = SCENARIOS["uniform"](rule_set, packet_count=8, flow_count=2)
    sharded.process_batch(workload.events[0][1])
    queue.put([proc.pid for proc in sharded._procs])
    time.sleep(HANG_SECONDS)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid
        return True
    return True


class TestOrphanedWorkers:
    def test_workers_exit_when_parent_dies(self):
        """SIGKILL the parent mid-run: the workers' pipes never see EOF
        (siblings inherit the socket ends), so they must detect the
        orphaning via the ppid watch and exit by themselves."""
        import multiprocessing as mp

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        queue = ctx.Queue()
        before = shm_segments()
        middle = ctx.Process(target=_orphan_middle, args=(queue,))
        middle.start()
        try:
            pids = queue.get(timeout=30)
            os.kill(middle.pid, signal.SIGKILL)
            middle.join(timeout=10)
            alive = list(pids)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                alive = [pid for pid in alive if _pid_alive(pid)]
                if not alive:
                    break
                time.sleep(0.05)
            assert not alive, f"orphaned workers survived: {alive}"
        finally:
            if middle.is_alive():  # pragma: no cover - cleanup
                middle.kill()
                middle.join(timeout=5)
            # The one death no guard survives: a SIGKILLed *owner*
            # strands its segments until the session's resource tracker
            # exits.  Reclaim them here so the leak guard stays strict.
            unlink_segments(shm_segments() - before)


@needs_dev_shm
class TestOverloadChaos:
    """Worker crashes during an open-loop *overload* stream: the
    supervisor's respawn + deterministic replay must leave the stream
    report — shed ledger, latency stamps, results, ladder transitions —
    bitwise identical to a fault-free twin, while the admission queue's
    hard capacity holds throughout.

    CI greps the tier-1 junit for this class by name (like the chaos
    differential) so the overload coverage cannot silently rot out of
    the pipeline.
    """

    @pytest.mark.parametrize("seed", [3, 17])
    def test_crash_during_stream_is_invisible(
        self, small_routing_set, seed
    ):
        from tests.runtime.test_streaming import (
            OVERLOAD,
            overload_schedule,
            report_fingerprint,
        )

        schedule = overload_schedule(small_routing_set, packet_count=700)
        clean_arch = make_arch(small_routing_set)
        clean_entries = list(clean_arch.tables[0])
        with ShardedBatchPipeline(
            clean_arch, workers=2, depth=4
        ) as runner:
            clean = run_stream(runner, schedule, OVERLOAD)
        clean.assert_conserved()
        assert clean.shed_packets > 0, "twin run must actually overload"
        plan = FaultPlan.seeded(
            seed, workers=2, seqs=range(clean.batches), faults=2
        )
        chaos_arch = make_arch(small_routing_set)
        chaos_entries = list(chaos_arch.tables[0])
        with ShardedBatchPipeline(
            chaos_arch, workers=2, depth=4, fault_plan=plan
        ) as runner:
            chaotic = run_stream(runner, schedule, OVERLOAD)
            snapshot = runner.supervision_snapshot()
        chaotic.assert_conserved()
        assert snapshot["crashes"] >= 1, "seeded fault never fired"
        assert snapshot["restarts"] == snapshot["crashes"]
        assert snapshot["replayed_batches"] >= 1
        assert snapshot["wedges"] == 0
        assert chaotic.peak_occupancy <= OVERLOAD.capacity
        assert chaotic.shed == clean.shed, (
            "recovery changed the shed ledger"
        )
        assert report_fingerprint(chaotic) == report_fingerprint(clean)
        assert entry_counts(chaos_entries) == entry_counts(clean_entries)

    def test_stream_queue_bounded_under_hang_escalation(
        self, small_routing_set
    ):
        """A hung worker escalates to SIGKILL + replay mid-stream; the
        stream report still matches the fault-free twin and the queue
        never exceeds capacity."""
        schedule = bursty_arrivals(
            small_routing_set, packet_count=300, mean_burst=24.0,
            burst_gap=16.0, seed=11,
        )
        cfg = StreamConfig(
            capacity=64, batch_size=16, form_deadline=8, window=2,
            service_rate=0.5, degrade_after=2,
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=4
        ) as runner:
            clean = run_stream(runner, schedule, cfg)
        # Bursts are single-flow, so a whole batch can hash to one
        # worker; arm the hang on both so seq 2 wedges whoever got it.
        plan = FaultPlan(
            specs=(
                FaultSpec(0, 2, "mid-classify", "hang"),
                FaultSpec(1, 2, "mid-classify", "hang"),
            )
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            depth=4,
            fault_plan=plan,
            supervision=SupervisionConfig(deadline=1.0),
        ) as runner:
            chaotic = run_stream(runner, schedule, cfg)
            snapshot = runner.supervision_snapshot()
        assert snapshot["wedges"] >= 1, "hang never escalated"
        assert chaotic.peak_occupancy <= cfg.capacity
        assert chaotic.shed == clean.shed
        assert chaotic.latencies == clean.latencies
