"""Shared read-only rule state (:mod:`repro.runtime.rulestate`):
seal/attach equivalence, attach-after-seal immutability, crash-safety of
the /dev/shm lifecycle, and bitwise-identical re-seals under churn."""

import gc
import os
import pickle
import signal
from multiprocessing import get_context

import numpy as np
import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.lookup_table import OpenFlowLookupTable
from repro.memory.report import shared_state_report
from repro.openflow.actions import OutputAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import WriteActions
from repro.openflow.match import Match
from repro.packet.batch import PacketBatch
from repro.runtime import (
    SCENARIOS,
    BatchPipeline,
    LifecycleSweeper,
    PipelineSpec,
    ShardedBatchPipeline,
    run_workload,
)
from repro.runtime.rulestate import FrozenLookupTable, SharedRuleState
from repro.runtime.shard import _Replica

from tests.runtime.conftest import needs_dev_shm, serve_one_batch
from tests.runtime.test_columnar import _Spy
from tests.runtime.test_megaflow import assert_same_result
from tests.runtime.test_shard import make_arch


def seal(rule_set):
    """An authoritative pipeline plus its sealed state and spec."""
    arch = make_arch(rule_set)
    spec = PipelineSpec.snapshot(arch)
    state = SharedRuleState.seal(arch, spec)
    return arch, state


def probes(rule_set, count=200):
    workload = SCENARIOS["zipf"](rule_set, packet_count=count, flow_count=10)
    return workload.events[0][1]


class TestSealAttach:
    def test_replica_classifies_identically(self, small_routing_set):
        arch, state = seal(small_routing_set)
        try:
            replica = state.spec.build()
            table = replica.tables[0]
            assert isinstance(table, FrozenLookupTable)
            assert len(table) == len(arch.tables[0])
            for fields in probes(small_routing_set):
                assert_same_result(
                    replica.process(dict(fields)), arch.process(dict(fields))
                )
        finally:
            state.close()

    def test_spec_carries_the_entries_the_block_indexes(
        self, small_routing_set
    ):
        """The block holds structures only: the shared spec's lookup
        entry tuples *are* the authoritative ones, and a pickle round
        trip — the spawn bootstrap and the inline replica's path —
        builds a replica that classifies identically over copies, never
        the parent's own entry objects."""
        arch, state = seal(small_routing_set)
        try:
            live = arch.tables[0]
            (table_spec,) = state.spec.tables
            assert all(
                a is b for a, b in zip(table_spec.entries, live, strict=True)
            )
            replica = pickle.loads(pickle.dumps(state.spec)).build()
            frozen = replica.tables[0]
            assert isinstance(frozen, FrozenLookupTable)
            assert not any(
                a is b for a, b in zip(frozen, live, strict=True)
            )
            for fields in probes(small_routing_set):
                assert_same_result(
                    replica.process(dict(fields)), arch.process(dict(fields))
                )
        finally:
            state.close()

    def test_entries_snapshot_preserves_install_order(
        self, small_routing_set
    ):
        """An attached table holds every entry at its authoritative
        action slot, free slots included — the contract the parent's
        pinned snapshots resolve a reply's slot refs by."""
        arch, state = seal(small_routing_set)
        try:
            replica = state.spec.build()
            table, frozen = arch.tables[0], replica.tables[0]
            assert [
                e if e is None else e.match for e in frozen.actions.entries
            ] == [e if e is None else e.match for e in table.actions.entries]
            assert frozen.actions.rows[: len(table.actions.entries)].tolist() == (
                table.actions.snapshot().rows.tolist()
            )
        finally:
            state.close()


    def test_frozen_table_sweeps_like_its_eager_twin(self):
        """A frozen table derives its lifecycle view from the spec's
        entries; it sweeps like the eager table it was sealed from,
        before and after the first flow-mod thaws it."""

        def entry(port, idle=0, hard=0):
            return FlowEntry.build(
                match=Match.exact(in_port=port),
                priority=1,
                instructions=[WriteActions([OutputAction(1)])],
                idle_timeout=idle,
                hard_timeout=hard,
            )

        arch = MultiTableLookupArchitecture(
            [OpenFlowLookupTable(("in_port",), table_id=0)]
        )
        for port, idle, hard in [(0, 0, 0), (1, 2, 0), (2, 0, 3), (3, 1, 1)]:
            arch.table(0).add(entry(port, idle, hard))
        state = SharedRuleState.seal(arch, PipelineSpec.snapshot(arch))
        try:
            replica = pickle.loads(pickle.dumps(state.spec)).build()
            assert isinstance(replica.tables[0], FrozenLookupTable)
            ledgers = []
            for pipeline in (arch, replica):
                sweeper = LifecycleSweeper()
                assert sweeper.advance(pipeline, 1) == []  # stamped at 0
                pipeline.table(0).add(entry(5, idle=1))  # thaws the replica
                sweeper.advance(pipeline, 2)
                sweeper.advance(pipeline, 2)
                ledgers.append(
                    [
                        (e.match["in_port"].value, e.reason, e.installed_at)
                        for e in sweeper.ledger
                    ]
                )
            assert not replica.tables[0]._frozen
            assert ledgers[0] == ledgers[1] == [
                (1, "idle", 0),
                (3, "hard", 0),
                (5, "idle", 1),
                (2, "hard", 0),
            ]
        finally:
            state.close()


class TestSharedStateReport:
    KINDS = {"trie", "lut", "range", "index", "actions"}

    def test_report_prices_every_segment_as_a_structure(
        self, small_routing_set
    ):
        _, state = seal(small_routing_set)
        try:
            segments = state.layout.segments
            report = shared_state_report(state.layout)
            assert {cost.kind for cost in report.costs} <= self.KINDS
            assert report.total_nbytes == sum(
                segment.count * np.dtype(segment.dtype).itemsize
                for segment in segments
            )
            assert sum(cost.arrays for cost in report.costs) == len(segments)
            for segment in segments:
                assert set(segment.key.split("/")) & self.KINDS, segment.key
        finally:
            state.close()


class TestImmutability:
    def test_frozen_arrays_reject_writes(self, small_routing_set):
        _, state = seal(small_routing_set)
        try:
            table = state.spec.build().tables[0]
            for owner, name in (
                (table.index, "_final"),
                (table.index, "_priority"),
            ):
                array = getattr(owner, name)
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
            # Don't let raw views (or their owners) outlive the table's
            # attachment handles: frame locals tear down in unspecified
            # order, and an exported view makes SharedMemory.__del__
            # noisy.
            del array, owner
        finally:
            state.close()

    def test_mutation_thaws_without_touching_siblings(
        self, small_routing_set
    ):
        """add() on one attached replica thaws that replica only: the
        sibling keeps its frozen mapping and still matches the
        authoritative table bit for bit."""
        arch, state = seal(small_routing_set)
        try:
            thawed = state.spec.build()
            sibling = state.spec.build()
            entry = FlowEntry.build(
                match=Match.exact(in_port=3),
                priority=999,
                instructions=[WriteActions([OutputAction(42)])],
            )
            before = len(sibling.tables[0])
            thawed.tables[0].add(entry)
            assert not thawed.tables[0]._frozen
            assert sibling.tables[0]._frozen
            assert len(thawed.tables[0]) == before + 1
            assert len(sibling.tables[0]) == before
            for fields in probes(small_routing_set, count=50):
                assert_same_result(
                    sibling.process(dict(fields)), arch.process(dict(fields))
                )
            # The thawed replica diverged exactly by the new entry.
            hit = thawed.process({"in_port": 3})
            assert 42 in hit.output_ports
        finally:
            state.close()


class TestSealedStateCostShape:
    """The sealed block carries lookup structures, not entries: sealing,
    attaching, serving a batch and thawing pickle nothing."""

    def test_seal_attach_serve_thaw_pickle_nothing(
        self, small_routing_set, monkeypatch
    ):
        arch = make_arch(small_routing_set)
        spec = PipelineSpec.snapshot(arch)
        dicts = [dict(fields) for fields in probes(small_routing_set, 64)]
        spies = {
            name: _Spy(monkeypatch, pickle, name)
            for name in ("dumps", "loads")
        }
        state = SharedRuleState.seal(arch, spec)
        try:
            replica = _Replica(state.spec, 64, 128)
            table = replica.runner.pipeline.tables[0]
            assert isinstance(table, FrozenLookupTable) and table._frozen
            reply = serve_one_batch(replica, PacketBatch.from_dicts(dicts))
            assert reply.kind == "ok" and reply.segments
            doomed = next(iter(table))
            assert table.remove(doomed.match, doomed.priority)
            assert not table._frozen
            assert len(table) == len(arch.tables[0]) - 1
            assert {name: spy.calls for name, spy in spies.items()} == {
                "dumps": 0,
                "loads": 0,
            }
        finally:
            state.close()


class TestThawCostShape:
    """ROADMAP item 4: a mutation against sealed state should cost what
    it changes.  Counts, not clocks."""

    @pytest.mark.xfail(
        strict=True,
        reason="thaw rebuilds the whole table — ROADMAP item 4",
    )
    def test_one_remove_makes_at_most_one_add(
        self, small_routing_set, monkeypatch
    ):
        _, state = seal(small_routing_set)
        try:
            table = state.spec.build().tables[0]
            doomed = next(iter(table))
            # Every entry a table indexes, by add or by a thaw's load,
            # goes through _install.
            adds = _Spy(monkeypatch, OpenFlowLookupTable, "_install")
            assert table.remove(doomed.match, doomed.priority)
            assert adds.calls <= 1
        finally:
            state.close()


def _attach_then_die(spec) -> None:
    """Child target: attach to the sealed block, classify one packet,
    then die without any cleanup (``SIGKILL`` skips finalizers) — the
    stand-in for a worker crashing while mapped."""
    replica = spec.build()
    replica.process({"in_port": 1, "ipv4_dst": 0x0A000001})
    os.kill(os.getpid(), signal.SIGKILL)


@needs_dev_shm
class TestShmLifecycle:
    """What each of these leaves in /dev/shm — nothing — is asserted by
    the directory-wide leak guard (``conftest.py``)."""

    def test_seal_close_leaves_no_segments(self, small_routing_set):
        _, state = seal(small_routing_set)
        replica = state.spec.build()
        replica.process({"in_port": 1, "ipv4_dst": 1})
        del replica
        gc.collect()
        state.close()

    def test_crashed_attacher_leaves_no_segments(self, small_routing_set):
        """A SIGKILLed attacher unlinks nothing itself; the owner's
        close() (or finalizer) must still leave /dev/shm clean — the
        PR-7 crash-recovery path depends on exactly this."""
        _, state = seal(small_routing_set)
        child = get_context("fork").Process(
            target=_attach_then_die, args=(state.spec,)
        )
        child.start()
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL
        state.close()

    def test_abandoned_state_unlinks_via_finalizer(self, small_routing_set):
        _, state = seal(small_routing_set)
        del state
        gc.collect()


class TestResealUnderChurn:
    def entry(self, port: int, priority: int) -> FlowEntry:
        return FlowEntry.build(
            match=Match.exact(in_port=port),
            priority=priority,
            instructions=[WriteActions([OutputAction(100 + port)])],
        )

    def test_reseal_after_log_fold_is_bitwise_identical(
        self, small_routing_set
    ):
        """The shared-rules twin of the mutation-log prune test: once
        every worker catches up, the fold point re-seals a fresh block
        (new name, old one unlinked) and classification stays identical
        to the single-process runner throughout."""
        probe = [
            {"in_port": p, "ipv4_dst": d} for p in range(4) for d in (1, 2, 3)
        ]
        single = BatchPipeline(make_arch(small_routing_set))

        def churn(runner):
            entry = self.entry(7, priority=999)
            for _ in range(550):
                runner.pipeline.table(0).add(entry)
                runner.pipeline.table(0).remove(entry.match, entry.priority)

        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, shared_rules=True
        ) as sharded:
            first_block = sharded._rule_state.layout.block_name
            churn(sharded)
            churn(single)
            assert len(sharded._log) == 1100
            got = sharded.process_batch(probe)
            expected = single.process_batch(probe)
            for a, b in zip(got, expected):
                assert_same_result(a, b)
            got = sharded.process_batch(probe)  # prune + re-seal point
            expected = single.process_batch(probe)
            assert len(sharded._log) == 0
            assert sharded._rule_state.layout.block_name != first_block
            for a, b in zip(got, expected):
                assert_same_result(a, b)
            # Close-and-reuse re-seals from the folded snapshot.
            sharded.close()
            got = sharded.process_batch(probe)
            expected = single.process_batch(probe)
            for a, b in zip(got, expected):
                assert_same_result(a, b)

    @needs_dev_shm
    def test_reseal_churn_leaves_no_segments(self, small_routing_set):
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, shared_rules=True
        ) as sharded:
            workload = SCENARIOS["churn"](
                small_routing_set, packet_count=120, flow_count=8
            )
            run_workload(sharded, workload, batch_size=20)


class TestSharedScenarioDifferential:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_shared_rules_match_single_process(
        self, small_routing_set, name
    ):
        """Every scenario in the catalog, classified by shared-state
        workers, must equal the single-process runner bit for bit —
        flow stats included."""
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
            workers=2,
            cache_capacity=128,
            megaflow_capacity=256,
            shared_rules=True,
        ) as sharded:
            got = run_workload(
                sharded, workload, batch_size=50, keep_results=True
            )
            assert sharded.stats.flow_packets == single.stats.flow_packets
            assert sharded.stats.flow_bytes == single.stats.flow_bytes
        assert len(got.results) == len(expected.results)
        for a, b in zip(got.results, expected.results):
            assert_same_result(a, b)
