"""BatchPipeline differential tests: the batched (and cached) runtime
must reproduce the scalar pipeline's results packet for packet."""

import contextlib
import multiprocessing
import signal
from dataclasses import asdict

import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table, build_per_field_pipeline
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.errors import PipelineError
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import GotoTable
from repro.openflow.match import Match
from repro.openflow.pipeline import MissPolicy, OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.runtime import (
    SCENARIOS,
    BatchPipeline,
    MicroflowCache,
    ShardedBatchPipeline,
    SupervisionConfig,
    Workload,
    churn_workload,
    run_workload,
)
from tests.runtime.conftest import needs_dev_shm, shm_segments


def assert_results_equal(batched, scalar):
    assert len(batched) == len(scalar)
    for a, b in zip(batched, scalar):
        assert a.output_ports == b.output_ports
        assert a.sent_to_controller == b.sent_to_controller
        assert a.dropped == b.dropped
        assert a.metadata == b.metadata
        assert a.tables_visited == b.tables_visited
        assert len(a.matched_entries) == len(b.matched_entries)


@pytest.fixture()
def split_trace(small_routing_set, generator):
    matches = [r.to_match() for r in small_routing_set.rules[:64]]
    flows = generator.flow_pool(
        matches, fill_fields=small_routing_set.field_names
    )
    return generator.sample_trace(flows, 400)


class TestDifferential:
    @pytest.mark.parametrize("cache_capacity", [None, 128])
    def test_split_pipeline_agrees_with_scalar(
        self, small_routing_set, split_trace, cache_capacity
    ):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        runner = BatchPipeline(arch, cache_capacity=cache_capacity)
        batched = []
        for start in range(0, len(split_trace), 100):
            batched.extend(
                runner.process_batch(split_trace[start : start + 100])
            )

        reference = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        scalar = [reference.process(f) for f in split_trace]
        assert_results_equal(batched, scalar)

    def test_single_packet_process(self, small_routing_set, split_trace):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        runner = BatchPipeline(arch)
        result = runner.process(split_trace[0])
        assert result.tables_visited[0] == 0

    def test_stats_snapshot_counts_outcomes(self, small_routing_set, split_trace):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        runner = BatchPipeline(arch)
        results = runner.process_batch(split_trace)
        stats = runner.stats_snapshot()
        assert stats.packets == len(split_trace)
        assert stats.matched == sum(bool(r.matched) for r in results) > 0
        assert stats.sent_to_controller == sum(
            r.sent_to_controller for r in results
        )
        assert stats.dropped == sum(r.dropped for r in results)

    def test_empty_batch(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        assert BatchPipeline(arch).process_batch([]) == []


class _Forwarding:
    """A proxy that forwards every attribute to the table it wraps."""

    def __init__(self, table):
        self._table = table

    def __getattr__(self, name):
        return getattr(self._table, name)


@contextlib.contextmanager
def bounded(seconds):
    """Fail the block with ``TimeoutError`` once ``seconds`` pass: a
    walk that loops must fail its test, never hang the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestForwardOnlyGoto:
    """A backward Goto-Table sent as a workload ``install`` event is
    refused at the table's ``add`` — on the in-process runner and
    behind the sharded runner's logging facade alike — so no later
    batch can loop on it."""

    @staticmethod
    def pipeline():
        tables = [
            OpenFlowLookupTable(("in_port",), table_id=table_id)
            for table_id in (0, 1)
        ]
        tables[0].add(
            FlowEntry.build(
                match=Match.exact(in_port=1),
                priority=1,
                instructions=[GotoTable(1)],
            )
        )
        return OpenFlowPipeline(tables)

    @pytest.mark.parametrize(
        "sharded", [False, pytest.param(True, marks=needs_dev_shm)]
    )
    def test_backward_goto_install_event_is_refused(self, sharded):
        backward = FlowEntry.build(
            match=Match.exact(in_port=1),
            priority=1,
            instructions=[GotoTable(0)],
        )
        workload = Workload(
            "loop",
            "a backward Goto installed mid-trace",
            (("install", 1, backward), ("packets", [{"in_port": 1}] * 4)),
        )
        # A looping worker is a wedge the deadline retires, so its
        # shard then runs in-process, where the alarm can stop it.
        runner = (
            ShardedBatchPipeline(
                self.pipeline(),
                workers=1,
                supervision=SupervisionConfig(deadline=5.0, restart_budget=0),
            )
            if sharded
            else BatchPipeline(self.pipeline())
        )
        with contextlib.closing(runner) if sharded else contextlib.nullcontext():
            with bounded(10):
                with pytest.raises(PipelineError, match="later table"):
                    run_workload(runner, workload)
                assert len(runner.pipeline.table(1)) == 0
                (result,) = runner.process_batch([{"in_port": 1}])
            assert result.tables_visited == [0, 1]
            assert result.sent_to_controller


class TestKeyedTablesOnly:
    """The runtime runs tables with a keyed lookup only: each door
    refuses any other table — the behavioural ``FlowTable`` scan is the
    oracle the runtime is tested against — before it builds anything.
    The check is duck-typed, so a forwarding proxy passes."""

    REFUSED = r"table 1 \(FlowTable\)"

    def pipeline_with_a_scan_table(self, small_routing_set):
        return OpenFlowPipeline(
            [build_lookup_table(small_routing_set), FlowTable(table_id=1)],
            miss_policy=MissPolicy.DROP,
        )

    @pytest.mark.parametrize("cache_capacity", [None, 64])
    def test_batch_pipeline_refuses_a_flow_table(
        self, small_routing_set, cache_capacity
    ):
        pipeline = self.pipeline_with_a_scan_table(small_routing_set)
        with pytest.raises(TypeError, match=self.REFUSED):
            BatchPipeline(
                pipeline, cache_capacity=cache_capacity, megaflow_capacity=64
            )

    def test_microflow_cache_refuses_a_flow_table(self):
        with pytest.raises(TypeError, match=self.REFUSED):
            MicroflowCache(FlowTable(table_id=1))

    def test_sharded_runner_refuses_before_it_builds_anything(
        self, small_routing_set
    ):
        pipeline = self.pipeline_with_a_scan_table(small_routing_set)
        before = shm_segments()
        for shared_rules in (False, True):
            with pytest.raises(TypeError, match=self.REFUSED):
                ShardedBatchPipeline(
                    pipeline, workers=2, shared_rules=shared_rules
                )
        assert shm_segments() == before
        assert multiprocessing.active_children() == []

    def test_a_table_without_a_version_counter_is_refused(self):
        """A keyed table whose mutations cannot be detected would have
        its caches serve stale results."""
        unversioned = OpenFlowLookupTable(("in_port",), table_id=0)
        del unversioned.version
        for door in (
            MicroflowCache,
            lambda table: BatchPipeline(OpenFlowPipeline([table])),
        ):
            with pytest.raises(
                TypeError, match=r"table 0 \(OpenFlowLookupTable\) has no version"
            ):
                door(unversioned)

    def test_a_forwarding_proxy_is_accepted(self, small_routing_set, split_trace):
        table = build_lookup_table(small_routing_set)
        bare, proxied = (
            BatchPipeline(
                OpenFlowPipeline([wrapped], miss_policy=MissPolicy.DROP),
                cache_capacity=64,
                megaflow_capacity=64,
            )
            for wrapped in (table, _Forwarding(table))
        )
        assert isinstance(proxied.caches[0].table, _Forwarding)
        for _ in range(2):  # cold, then from the caches
            for start in range(0, len(split_trace), 100):
                chunk = PacketBatch.from_dicts(split_trace[start : start + 100])
                assert (
                    proxied.classify_columnar(chunk).results()
                    == bare.classify_columnar(chunk).results()
                )
        assert proxied.stats_snapshot() == bare.stats_snapshot()
        assert bare.stats_snapshot().megaflow_hits > 0


class TestCacheWiring:
    def test_caches_attach_to_schema_tables(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        runner = BatchPipeline(arch, cache_capacity=64)
        assert set(runner.caches) == {t.table_id for t in arch.tables}

    def test_mid_trace_mutation_not_stale(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            [build_lookup_table(small_routing_set)]
        )
        runner = BatchPipeline(arch, cache_capacity=64)
        fields = {"in_port": 1, "ipv4_dst": 0x0A000001}
        table = arch.lookup_tables[0]
        # Prime the cache, then install a wildcard rule shadowing every
        # entry (priority 99, no instructions -> the packet is dropped).
        runner.process(fields)
        table.add(FlowEntry.build(match=Match({}), priority=99))
        after = runner.process(fields)
        assert after.matched_entries[-1].priority == 99
        assert after.dropped and not after.output_ports


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios_replay(self, small_routing_set, name):
        workload = SCENARIOS[name](
            small_routing_set, packet_count=300, flow_count=24
        )
        assert workload.packet_count == 300
        arch = MultiTableLookupArchitecture(
            [build_lookup_table(small_routing_set)]
        )
        stats = run_workload(
            BatchPipeline(arch), workload, batch_size=64
        )
        assert stats.packets == 300
        assert stats.matched + stats.sent_to_controller + stats.dropped >= 300

    def test_churn_workload_differential(self, small_routing_set):
        workload = churn_workload(
            small_routing_set, packet_count=300, flow_count=24, rounds=4
        )
        assert workload.packet_count == 300

        def run(cache_capacity):
            arch = MultiTableLookupArchitecture(
                [build_lookup_table(small_routing_set)]
            )
            stats = run_workload(
                BatchPipeline(arch, cache_capacity=cache_capacity),
                workload,
                batch_size=64,
                keep_results=True,
            )
            return arch, stats

        arch_cached, cached = run(128)
        _, plain = run(None)
        assert_results_equal(cached.results, plain.results)
        assert cached.installs == cached.uninstalls > 0
        # churn must not strand action-table slots
        table = arch_cached.lookup_tables[0]
        assert (
            table.actions.allocated_slots - table.actions.free_slots
            == len(table)
        )

    def test_reused_runner_stats_are_per_replay(self, small_routing_set):
        workload = SCENARIOS["zipf"](
            small_routing_set, packet_count=200, flow_count=16
        )
        arch = MultiTableLookupArchitecture(
            [build_lookup_table(small_routing_set)]
        )
        runner = BatchPipeline(arch, cache_capacity=128)
        first = run_workload(runner, workload, batch_size=50)
        second = run_workload(runner, workload, batch_size=50)
        # Counters are per replay, not the runner's lifetime totals.
        assert first.cache_hits + first.cache_misses == 200
        assert second.cache_hits + second.cache_misses == 200
        # The cache is warm on the second replay.
        assert second.cache_hits >= first.cache_hits

    def test_bad_event_rejected(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            [build_lookup_table(small_routing_set)]
        )
        workload = Workload(name="bad", description="", events=(("boom",),))
        with pytest.raises(ValueError):
            run_workload(BatchPipeline(arch), workload)

    def test_bad_batch_size_rejected(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            [build_lookup_table(small_routing_set)]
        )
        workload = Workload(name="w", description="", events=())
        with pytest.raises(ValueError):
            run_workload(BatchPipeline(arch), workload, batch_size=0)


def _one_record_workload():
    """``cold`` in small: the four-table prototype's 95 distinct flows,
    three times its runner's megaflow capacity, with a timed rule
    installed mid-trace and one clock advance that expires it.  Built
    fresh per runner: the install event carries a mutable entry."""
    from tests.runtime.test_columnar import _prototype

    arch, trace = _prototype()
    timed = FlowEntry.build(
        match=Match.exact(in_port=4000), priority=9, hard_timeout=1
    )
    workload = Workload(
        name="one-record",
        description="cold-like replay, one expiry",
        events=(
            ("packets", trace[:300]),
            ("install", 2, timed),
            ("packets", trace[300:]),
            ("advance", 5),
        ),
    )
    return arch, workload


class TestOneRecord:
    """A runner counts every figure it reports once, in ``runner.stats``:
    ``stats_snapshot()`` is a copy of that record, on both runners, and
    a one-worker sharded runner's record equals the in-process one's."""

    RUNNER = {"cache_capacity": 16, "megaflow_capacity": 32}

    def single(self):
        arch, workload = _one_record_workload()
        runner = BatchPipeline(arch, **self.RUNNER)
        run_workload(runner, workload, batch_size=64)
        return runner

    def test_in_process_record_is_the_snapshot(self):
        runner = self.single()
        stats = runner.stats
        snapshot = runner.stats_snapshot()
        assert snapshot == stats and snapshot is not stats
        assert stats.packets == 600
        assert stats.megaflow_hits + stats.megaflow_misses == stats.packets
        assert stats.megaflow_hits > 0
        assert stats.cache_hits > 0
        assert (stats.advances, stats.expired) == (1, 1)

    @needs_dev_shm
    def test_sharded_record_equals_in_process(self):
        single = self.single()
        arch, workload = _one_record_workload()
        with ShardedBatchPipeline(arch, workers=1, **self.RUNNER) as sharded:
            run_workload(sharded, workload, batch_size=64)
            assert asdict(sharded.stats) == asdict(single.stats)
            assert sharded.stats_snapshot() == sharded.stats
