"""The columnar fast path: batch key hashing, vectorized cache tiers.

Covers the satellite guarantees of the columnar PR: presence bytes are
part of every key hash (value 0 != field absent), ``frame_len`` can
never enter a key or mask, and both cache tiers agree with the scalar
lookups they stand in front of — plus a small microbenchmark pinning
the vectorized hash against the per-packet tuple build.

``TestMissPathCostShape`` pins what a megaflow *miss* may cost on the
columnar path with call-counting spies (no timing): no scalar table
lookups, no row dicts, one bulk install per batch, at most one engine
probe per distinct ``(partition, key)`` pair per wave, and nothing at
all for a batch the wildcard tier answers whole.
``TestShardedReplyCostShape`` does the same for the sharded parent: an
unread ``process_batches`` stream builds one ``PathOutcome`` per
distinct traversal per batch, no ``PipelineResult`` and no row dict.
``TestHitPathCostShape`` pins what an all-hit batch costs around its
probes: each mask keyed once per column store, one write to the LRU
stamp lane, one scatter into the counter columns and no ``FlowStats``
call (no ``credit_traversal`` call either) and no ``PipelineResult``.
``TestCreditOnceCostShape`` pins that classifying only computes: one
counter-column scatter and no ``FlowStats.add`` or ``record`` per
``classify_columnar``, nothing at all from a replica's serve.
``TestMissPathAllocationShape`` pins what a miss leaves cached: one
immutable outcome per distinct entry path, with no list or dict in it;
``TestMaterialisedResultsAreTheReaders`` that mutating a materialised
result reaches nothing shared.  ``TestDictDoorCostShape``
pins where a dict batch goes: through one conversion into the columnar
path on a runner with a cache tier, through ``table.lookup_batch`` wave
by wave on a runner with none.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.builder import build_lookup_table, build_prototype
from repro.core.action_table import ActionTable
from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.field_engine import PartitionEngine, TriePartitionEngine
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import Action, OutputAction
from repro.openflow.flow import CounterColumns, FlowEntry, FlowStats
from repro.openflow.instructions import GotoTable, WriteActions, WriteMetadata
from repro.openflow.match import ExactMatch, FieldMaskSink, Match, PrefixMatch
from repro.openflow.table import FlowTable
from repro.openflow.pipeline import (
    OpenFlowPipeline,
    PathOutcome,
    PipelineResult,
    path_entries,
)
from repro.packet import batch as packet_batch_module
from repro.packet.batch import PacketBatch
from repro.packet.generator import PacketGenerator, TraceConfig
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    BatchPipeline,
    MicroflowCache,
    PipelineSpec,
    ShardedBatchPipeline,
    run_workload,
    uniform_wide_workload,
    widen_rule_set,
    zipf_workload,
)
from repro.runtime import batch as batch_module
from repro.runtime.megaflow import MegaflowCache
from repro.runtime.rulestate import FrozenLookupTable, SharedRuleState
from repro.runtime.scenarios import columnar_workload
from repro.runtime.shard import _Replica
from repro.runtime.walk import ColumnarWalk

from tests.runtime.conftest import (
    needs_dev_shm,
    replay_path_without_the_action_set,
    serve_one_batch,
)
from tests.runtime.test_cache import count_probes


@pytest.fixture(scope="module")
def rule_set():
    from repro.filters.paper_data import RoutingFilterStats
    from repro.filters.synthetic import generate_routing_set

    return generate_routing_set(
        RoutingFilterStats("columnar", 200, 12, 40, 90), seed=23
    )


# ----------------------------------------------------------------------
# batch key hashing
# ----------------------------------------------------------------------


class TestKeyHashes:
    FIELDS = ("ipv4_src", "ipv4_dst", "tcp_dst")

    def test_equal_keys_equal_hashes_distinct_keys_distinct(self):
        """Collision sanity: equal field tuples hash equal; across a few
        thousand distinct keys the 64-bit hash shows no collision."""
        packets = [
            {"ipv4_src": i, "ipv4_dst": i * 7, "tcp_dst": i % 1024}
            for i in range(4096)
        ]
        batch = PacketBatch.from_dicts(packets + packets[:100])
        hashes = batch.key_hashes(self.FIELDS)
        assert len(hashes) == 4096  # rows, not positions
        assert len(set(hashes.tolist())) == 4096

    def test_presence_byte_sensitivity(self):
        """A field carrying 0 and a missing field are different keys."""
        batch = PacketBatch.from_dicts(
            [
                {"ipv4_src": 0, "ipv4_dst": 1},
                {"ipv4_dst": 1},
            ]
        )
        hashes = batch.key_hashes(("ipv4_src", "ipv4_dst"))
        assert hashes[0] != hashes[1]

    def test_frame_len_excluded_from_keys(self):
        """Two packets differing only in frame_len share key and hash —
        the schema never names the metadata field."""
        batch = PacketBatch.from_dicts(
            [
                {"ipv4_src": 9, FRAME_LEN_FIELD: 64},
                {"ipv4_src": 9, FRAME_LEN_FIELD: 1500},
            ]
        )
        hashes = batch.key_hashes(self.FIELDS)
        assert hashes[0] == hashes[1]
        # ... but the lengths still flow into byte accounting.
        assert batch.frame_lengths().tolist() == [64, 1500]

    def test_frame_len_excluded_from_masks(self):
        """Megaflow masks are recorder-built from match fields only; even
        a hand-built mask naming frame_len cannot arise from capture —
        assert the recorder's signature never contains it."""
        from repro.runtime.megaflow import MegaflowRecorder

        recorder = MegaflowRecorder()
        recorder.consult("ipv4_src", 0xFF)
        recorder.consult("tcp_dst", 0x3)
        assert FRAME_LEN_FIELD not in dict(recorder.mask_signature())

    def test_wide_values_hash_all_lanes(self):
        low = {"ipv6_src": 5}
        high = {"ipv6_src": 5 | (1 << 100)}
        batch = PacketBatch.from_dicts([low, high])
        hashes = batch.key_hashes(("ipv6_src",))
        assert hashes[0] != hashes[1]


# ----------------------------------------------------------------------
# the vectorized tiers
# ----------------------------------------------------------------------


class TestColumnarMicroflow:
    def test_matches_dict_path_and_stats(self, rule_set):
        """The columnar probe against the table looked up one dict at a
        time, past any cache: same outcomes, same per-entry packet/byte
        stats — and hit/miss counters that move per *position* (every
        packet of a key first seen in a batch is a miss)."""
        trace = zipf_workload(
            rule_set, packet_count=3000, flow_count=64, frame_len="imix"
        ).events[0][1]
        table_dict = build_lookup_table(rule_set)
        table_col = build_lookup_table(rule_set)
        cache_col = MicroflowCache(table_col, capacity=128)  # no eviction
        seen_col = count_probes(cache_col)
        batch = PacketBatch.from_dicts(trace)
        got_dict = [table_dict.lookup(fields) for fields in trace]
        got_col: list = []
        seen: set = set()
        misses = 0
        for start in range(0, len(trace), 256):
            got_col.extend(
                cache_col.lookup_batch_columnar(batch[start : start + 256])
            )
            keys = [
                tuple(fields.get(name) for name in cache_col.field_names)
                for fields in trace[start : start + 256]
            ]
            misses += sum(key not in seen for key in keys)
            seen.update(keys)
        assert len(got_dict) == len(got_col)
        for a, b in zip(got_dict, got_col):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.match == b.match and a.priority == b.priority
        stats_dict = sorted(
            (str(e.match), e.priority, e.stats.packet_count, e.stats.byte_count)
            for e in table_dict
        )
        stats_col = sorted(
            (str(e.match), e.priority, e.stats.packet_count, e.stats.byte_count)
            for e in table_col
        )
        assert stats_dict == stats_col
        assert len(seen) <= cache_col.capacity
        assert seen_col["misses"] == misses
        assert seen_col["hits"] == len(trace) - misses

    def test_revalidates_after_mutation(self, rule_set):
        table = build_lookup_table(rule_set)
        cache = MicroflowCache(table)
        trace = zipf_workload(
            rule_set, packet_count=128, flow_count=16
        ).events[0][1]
        batch = PacketBatch.from_dicts(trace)
        first = cache.lookup_batch_columnar(batch)
        entry = next(e for e in first if e is not None)
        # Remove + reinstall bumps the version; stale records must
        # re-resolve instead of serving the old outcome.
        assert table.remove(entry.match, entry.priority)
        table.add(entry)
        again = cache.lookup_batch_columnar(batch)
        for a, b in zip(first, again):
            assert (a is None) == (b is None)

    def test_columnar_counts_revalidations(self, rule_set):
        table = build_lookup_table(rule_set)
        cache = MicroflowCache(table)
        trace = zipf_workload(
            rule_set, packet_count=64, flow_count=8
        ).events[0][1]
        batch = PacketBatch.from_dicts(trace)
        cache.lookup_batch_columnar(batch)
        assert cache.revalidations == 0
        entry = next(e for e in table)
        assert table.remove(entry.match, entry.priority)
        table.add(entry)  # version bump; cached stamps now stale
        cache.lookup_batch_columnar(batch)
        assert cache.revalidations > 0

    def test_duplicate_miss_rows_insert_once(self):
        inserts = []

        class _CountingTable:
            field_names = ("a",)
            version = 0
            actions = ActionTable()

            def lookup_keys(self, keys, capture):
                return [-1] * len(keys), [None] * len(keys)

        cache = MicroflowCache(_CountingTable())
        seen = count_probes(cache)
        original = cache._insert

        def counting_insert(key, *args, **kwargs):
            inserts.append(key)
            return original(key, *args, **kwargs)

        cache._insert = counting_insert
        flow = {"a": 7}
        batch = PacketBatch.from_dicts([flow] * 32 + [{"a": 9}])
        cache.lookup_batch_columnar(batch)
        assert seen["misses"] == 33  # per-position, dict-path parity
        assert sorted(inserts) == [(7,), (9,)]  # per distinct row


class TestMixedPaths:
    def test_dict_warmed_cache_serves_columnar_without_table(self, rule_set):
        """A cache warmed one key at a time (a wave's keyed probe, one
        packet per call) must serve columnar traffic from the same
        records, not re-resolve the working set through the table."""
        table = build_lookup_table(rule_set)
        cache = MicroflowCache(table)
        trace = zipf_workload(
            rule_set, packet_count=256, flow_count=16
        ).events[0][1]
        for fields in trace:  # one-key warm-up
            key = tuple(fields.get(name) for name in cache.field_names)
            cache.lookup_keys([key], [1], False)
        resolved = []
        table_lookup_keys = table.lookup_keys

        def spy(keys, capture=False):
            resolved.extend(keys)
            return table_lookup_keys(keys, capture)

        table.lookup_keys = spy
        batch = PacketBatch.from_dicts(trace)
        outcomes = cache.lookup_batch_columnar(batch)
        assert resolved == [], (
            "columnar probe re-resolved warmed keys through the table"
        )
        expected = [build_lookup_table(rule_set).lookup(f) for f in trace]
        for a, b in zip(outcomes, expected):
            assert (a is None) == (b is None)
        # A second columnar pass hits too.
        seen = count_probes(cache)
        cache.lookup_batch_columnar(batch)
        assert seen["misses"] == 0


class TestColumnarMegaflow:
    def test_probe_batch_standalone(self, rule_set):
        """The public probe surface: entry paths per position,
        bookkeeping done, no replay materialisation."""
        wide = widen_rule_set(rule_set)
        runner = BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(wide)]),
            cache_capacity=64,
            megaflow_capacity=128,
        )
        trace = uniform_wide_workload(
            wide, packet_count=200, flow_count=8
        ).events[0][1]
        batch = PacketBatch.from_dicts(trace)
        runner.process_batch(batch)  # populate aggregates
        megaflow = runner.megaflow
        entries = megaflow.probe_batch(batch)
        assert len(entries) == len(batch)
        hit_count = sum(entry is not None for entry in entries)
        assert hit_count > 0
        _, _, _, missed = megaflow.probe(batch)
        assert len(batch) - len(missed) == hit_count
        for entry in entries:
            if entry is not None:
                assert path_entries(entry)
    def test_uniform_wide_equivalence(self, rule_set):
        wide = widen_rule_set(rule_set)
        workload = uniform_wide_workload(wide, packet_count=1500, flow_count=40)

        def runner():
            return BatchPipeline(
                MultiTableLookupArchitecture([build_lookup_table(wide)]),
                cache_capacity=256,
                megaflow_capacity=512,
            )

        dict_runner, col_runner = runner(), runner()
        dict_stats = run_workload(
            dict_runner, workload, batch_size=128, keep_results=True
        )
        col_stats = run_workload(
            col_runner, columnar_workload(workload), batch_size=128,
            keep_results=True,
        )
        assert len(dict_stats.results) == len(col_stats.results)
        for a, b in zip(dict_stats.results, col_stats.results):
            assert a.final_fields == b.final_fields
            assert a.output_ports == b.output_ports
            assert a.tables_visited == b.tables_visited
            assert a.applied_actions == b.applied_actions
            assert a.dropped == b.dropped
            assert a.sent_to_controller == b.sent_to_controller
            assert a.metadata == b.metadata
        assert dict_stats.megaflow_hits == col_stats.megaflow_hits
        assert dict_stats.megaflow_misses == col_stats.megaflow_misses
        assert dict_stats.flow_packets == col_stats.flow_packets
        assert dict_stats.flow_bytes == col_stats.flow_bytes
        assert (dict_stats.matched, dict_stats.dropped) == (
            col_stats.matched,
            col_stats.dropped,
        )

    def test_skip_materialisation_counters_identical(self, rule_set):
        """keep_results=False rides the no-materialisation path; every
        counter and flow stat still matches the materialising replay."""
        wide = widen_rule_set(rule_set)
        workload = columnar_workload(
            uniform_wide_workload(wide, packet_count=800, flow_count=32)
        )

        def replay(keep):
            runner = BatchPipeline(
                MultiTableLookupArchitecture([build_lookup_table(wide)]),
                cache_capacity=256,
                megaflow_capacity=512,
            )
            stats = run_workload(
                runner, workload, batch_size=96, keep_results=keep
            )
            entry_stats = sorted(
                (e.stats.packet_count, e.stats.byte_count)
                for table in runner.pipeline.tables
                for e in table
            )
            return stats, entry_stats

        kept, kept_entries = replay(True)
        skipped, skipped_entries = replay(False)
        assert kept_entries == skipped_entries
        for field in (
            "packets",
            "matched",
            "dropped",
            "sent_to_controller",
            "megaflow_hits",
            "megaflow_misses",
            "flow_packets",
            "flow_bytes",
        ):
            assert getattr(kept, field) == getattr(skipped, field), field

    def test_stale_aggregate_dropped_on_columnar_probe(self, rule_set):
        wide = widen_rule_set(rule_set)
        runner = BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(wide)]),
            cache_capacity=64,
            megaflow_capacity=128,
        )
        workload = uniform_wide_workload(wide, packet_count=400, flow_count=16)
        trace = workload.events[0][1]
        runner.process_batch(PacketBatch.from_dicts(trace[:200]))
        assert runner.megaflow is not None and len(runner.megaflow)
        invalidated_before = runner.megaflow.invalidated
        # Any mutation bumps the visited table's version.
        table = runner.pipeline.tables[0]
        entry = next(iter(table))
        table.remove(entry.match, entry.priority)
        table.add(entry)
        runner.process_batch(PacketBatch.from_dicts(trace[200:]))
        assert runner.megaflow.invalidated > invalidated_before


# ----------------------------------------------------------------------
# the columnar miss path: cost shape, by spies
# ----------------------------------------------------------------------


def _prototype(seed=11):
    """A small instance of the paper's four-table prototype plus a
    seeded trace of (MAC rule x Routing rule) flows over it."""
    from repro.filters.paper_data import MacFilterStats, RoutingFilterStats
    from repro.filters.synthetic import generate_mac_set, generate_routing_set

    macs = generate_mac_set(MacFilterStats("shape", 40, 3, 4, 20, 40), seed=seed)
    routes = generate_routing_set(
        RoutingFilterStats("shape", 120, 8, 24, 60), seed=seed
    )
    arch = build_prototype(macs, routes)
    generator = PacketGenerator(TraceConfig(seed=seed))
    mac_pool = generator.flow_pool(
        [rule.to_match() for rule in macs.rules], macs.field_names
    )
    route_pool = generator.flow_pool(
        [rule.to_match() for rule in routes.rules], routes.field_names
    )
    rng = np.random.default_rng(seed)
    flows = [
        {
            **mac_pool[int(m)],
            **route_pool[int(r)],
            FRAME_LEN_FIELD: 64 + int(m),
        }
        for m, r in zip(
            rng.integers(0, len(mac_pool), 96),
            rng.integers(0, len(route_pool), 96),
        )
    ]
    trace = [flows[int(i)] for i in rng.integers(0, len(flows), 600)]
    return arch, trace


class _Spy:
    """Count calls to ``owner.name`` while the patch is active."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class TestMissPathCostShape:
    def test_misses_stay_on_the_lanes(self, monkeypatch):
        """A seeded four-table trace through ``classify_columnar``:
        zero scalar table lookups, zero materialised rows, one bulk
        install per batch — and every miss is still installed."""
        arch, trace = _prototype()
        runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=48)
        batch = PacketBatch.from_columns(
            *_columns_only(PacketBatch.from_dicts(trace))
        )
        spies = {
            name: _Spy(monkeypatch, owner, name)
            for owner, name in (
                (OpenFlowLookupTable, "lookup"),
                (OpenFlowLookupTable, "lookup_batch"),
                (PacketBatch, "fields_at"),
                (PacketBatch, "row_fields"),
            )
        }
        installs = _Spy(monkeypatch, MegaflowCache, "install_batch")
        for start in range(0, len(batch), 100):
            runner.classify_columnar(batch[start : start + 100])
        assert {name: spy.calls for name, spy in spies.items()} == dict.fromkeys(
            spies, 0
        )
        stats = runner.stats_snapshot()
        assert installs.calls == stats.batches
        assert stats.megaflow_misses > 100  # the walk really ran
        assert runner.megaflow.installs == stats.megaflow_misses
        assert stats.waves == 4 * stats.batches

    def test_engine_probes_bounded_by_distinct_partition_keys(self, monkeypatch):
        """Per wave, no engine is asked about the same key twice: probes
        never exceed the distinct ``(partition, key)`` pairs of the one
        ``search_keys`` call the wave makes."""
        arch, trace = _prototype()
        runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=48)
        probes = [0]
        for engine_class in (PartitionEngine, TriePartitionEngine):
            original = engine_class.probe

            def counted(self, key, _original=original):
                probes[0] += 1
                return _original(self, key)

            monkeypatch.setattr(engine_class, "probe", counted)
        waves: list[tuple[int, int]] = []
        search_keys = OpenFlowLookupTable.search_keys

        def audited(self, key_rows, capture=False):
            before = probes[0]
            found = search_keys(self, key_rows, capture)
            distinct = sum(len(set(column)) for column in zip(*key_rows))
            waves.append((probes[0] - before, distinct))
            return found

        monkeypatch.setattr(OpenFlowLookupTable, "search_keys", audited)
        batch = PacketBatch.from_dicts(trace)
        for start in range(0, len(batch), 100):
            runner.classify_columnar(batch[start : start + 100])
        assert waves and all(made <= distinct for made, distinct in waves)
        assert sum(made for made, _ in waves) > 0
        # One search per (batch, table) at most: the residual of a wave
        # goes to the table in a single call.
        assert len(waves) <= runner.stats_snapshot().waves

    def test_all_hit_batch_never_enters_the_miss_path(self, monkeypatch):
        """``hot``'s floor: a batch the megaflow tier answers whole
        returns before any miss-path state exists."""
        arch, trace = _prototype()
        runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=4096)
        batch = PacketBatch.from_dicts(trace)
        runner.classify_columnar(batch)  # installs every aggregate
        built = _Spy(monkeypatch, ColumnarWalk, "__init__")
        installs = runner.megaflow.installs
        outcomes = runner.classify_columnar(batch)
        assert built.calls == 0
        assert runner.megaflow.installs == installs
        assert runner.stats.megaflow_misses == installs  # only the first pass missed
        assert len(outcomes.results()) == len(batch)

    def test_bypass_runs_the_same_walk_without_capture(self, monkeypatch):
        """Megaflow off or bypassed: the same path, no capture, no
        install — and the same answers."""
        arch, trace = _prototype()
        expected = BatchPipeline(arch, cache_capacity=None).process_batch(trace)
        captures: list[bool] = []
        run = ColumnarWalk.run

        def audited(self, missed):
            captures.append(self.capture)
            return run(self, missed)

        monkeypatch.setattr(ColumnarWalk, "run", audited)
        for megaflow_capacity in (None, 48):
            runner = BatchPipeline(
                arch, cache_capacity=64, megaflow_capacity=megaflow_capacity
            )
            captures.clear()
            got = runner.classify_columnar(
                PacketBatch.from_dicts(trace), bypass=True
            ).results()
            assert got == expected
            assert captures == [False]
            if runner.megaflow is not None:
                assert runner.megaflow.installs == 0
                assert runner.stats.megaflow_hits + runner.stats.megaflow_misses == 0

    def test_metadata_register_feeds_later_keys(self):
        """The override lane carries the *register* — partial-mask
        Write-Metadata composes across tables, and a packet's own
        ``metadata`` field is only what table 0 matches on."""
        tables = [
            OpenFlowLookupTable(("metadata", "in_port"), table_id=0),
            OpenFlowLookupTable(("metadata",), table_id=1),
            OpenFlowLookupTable(("metadata",), table_id=2),
        ]

        def entry(match, priority, *instructions):
            return FlowEntry.build(
                match=Match(match), priority=priority, instructions=instructions
            )

        label = lambda value: ExactMatch(value=value, bits=64)  # noqa: E731
        tables[0].add(
            entry({"metadata": label(5)}, 2, WriteMetadata(2, mask=3), GotoTable(1))
        )
        tables[0].add(entry({}, 0, GotoTable(1)))
        tables[1].add(
            entry({"metadata": label(2)}, 1, WriteMetadata(1, mask=1), GotoTable(2))
        )
        tables[1].add(entry({"metadata": label(7)}, 1, GotoTable(2)))
        tables[2].add(
            entry({"metadata": label(3)}, 1, WriteActions([OutputAction(33)]))
        )
        tables[2].add(
            entry({"metadata": label(7)}, 1, WriteActions([OutputAction(77)]))
        )
        arch = MultiTableLookupArchitecture(tables)
        packets = [
            {"metadata": 5, "in_port": 1, FRAME_LEN_FIELD: 64},  # 5 -> 2 -> 3
            {"metadata": 7, "in_port": 1, FRAME_LEN_FIELD: 64},  # rides along
            {"in_port": 1, FRAME_LEN_FIELD: 64},  # no metadata: misses table 1
            {"metadata": 5, "in_port": 2, FRAME_LEN_FIELD: 64},
        ]
        runner = BatchPipeline(arch, cache_capacity=8, megaflow_capacity=8)
        got = runner.process_batch(PacketBatch.from_dicts(packets))
        assert [result.output_ports for result in got] == [
            [33],
            [77],
            [0xFFFFFFFD],
            [33],
        ]
        assert [result.metadata for result in got] == [3, 0, 0, 3]
        assert got == [arch.process(fields) for fields in packets]

    def test_walk_builds_its_templates_with_replay_path(self, monkeypatch):
        """The miss-path test above fails once the action-set execution
        is knocked out of ``OpenFlowPipeline.replay_path``: the walk has
        no executor of its own (``test_shard.py`` breaks the sharded
        decode with the same patch)."""
        monkeypatch.setattr(
            OpenFlowPipeline, "replay_path", replay_path_without_the_action_set
        )
        with pytest.raises(AssertionError):
            self.test_metadata_register_feeds_later_keys()


class TestShardedReplyCostShape:
    """What the sharded parent may build for a stream nobody reads: no
    outcome at all — the reply names each distinct path's entries and
    the yielded outcomes replay a path only when it is read, once per
    distinct path — and never a row dict."""

    def test_unread_stream_builds_one_result_per_distinct_traversal(
        self, monkeypatch, rule_set
    ):
        size = 256
        event = zipf_workload(
            rule_set, packet_count=6 * size, flow_count=200, seed=3, columnar=True
        ).events[0][1]
        views = [event[i : i + size] for i in range(0, len(event), size)]

        def make_arch():
            return MultiTableLookupArchitecture([build_lookup_table(rule_set)])

        # An in-process twin with the worker's cache sizes sees the same
        # batches in the same order, so its distinct-traversal count per
        # batch is the lone worker's.
        twin = BatchPipeline(make_arch(), cache_capacity=64, megaflow_capacity=512)
        distinct = [
            len(twin.classify_columnar(view).distinct()[0]) for view in views
        ]
        assert all(1 < count < size for count in distinct)

        with ShardedBatchPipeline(
            make_arch(),
            workers=1,
            cache_capacity=64,
            megaflow_capacity=512,
            depth=3,
        ) as sharded:
            # A path's outcome is built by one constructor, once per
            # distinct traversal; a per-packet result is cloned from one
            # by ``replay_template`` and never constructed.  Patched
            # before the fork, so the worker counts too — in its own
            # copy; these are the parent's alone.
            built = _Spy(monkeypatch, PathOutcome, "__init__")
            constructed = _Spy(monkeypatch, PipelineResult, "__init__")
            replayed = _Spy(monkeypatch, batch_module, "replay_template")
            rows = [
                _Spy(monkeypatch, PacketBatch, name)
                for name in ("row_fields", "fields_at", "dicts")
            ]
            per_batch = []
            outcomes = []
            for outcome in sharded.process_batches(views):
                per_batch.append(built.calls - sum(per_batch))
                outcomes.append(outcome)
            # An unread batch replays no path at all.
            assert per_batch == [0] * len(views)
            assert replayed.calls == 0
            assert [spy.calls for spy in rows] == [0, 0, 0]
            assert sharded.stats_snapshot().packets == len(event)
            # Reading one outcome costs exactly its packets, and one
            # outcome per distinct path of that batch.
            results = list(outcomes[2])
            assert replayed.calls == len(results) == len(views[2])
            assert built.calls == distinct[2]
            assert constructed.calls == 0
        reference = BatchPipeline(make_arch(), cache_capacity=None)
        assert results == reference.process_batch(views[2])


def _distinct_path_misses(count, seed=11):
    """The paper's four-table prototype and ``count`` packets, each
    taking an entry path no other one takes (the scan of ``process``
    decides; its flow-stats credit is on a twin, so the returned
    architecture is untouched)."""
    from repro.filters.paper_data import MacFilterStats, RoutingFilterStats
    from repro.filters.synthetic import generate_mac_set, generate_routing_set

    macs = generate_mac_set(MacFilterStats("shape", 40, 3, 4, 20, 40), seed=seed)
    routes = generate_routing_set(
        RoutingFilterStats("shape", 120, 8, 24, 60), seed=seed
    )
    twin = build_prototype(macs, routes)
    generator = PacketGenerator(TraceConfig(seed=seed))
    mac_pool = generator.flow_pool(
        [rule.to_match() for rule in macs.rules], macs.field_names
    )
    route_pool = generator.flow_pool(
        [rule.to_match() for rule in routes.rules], routes.field_names
    )
    rng = np.random.default_rng(seed)
    paths, packets = set(), []
    for pick in rng.permutation(len(mac_pool) * len(route_pool)).tolist():
        m, r = divmod(pick, len(route_pool))
        fields = {**mac_pool[m], **route_pool[r], FRAME_LEN_FIELD: 64 + m}
        path = tuple(map(id, twin.process(fields).matched_entries))
        if path not in paths:
            paths.add(path)
            packets.append(fields)
            if len(packets) == count:
                return build_prototype(macs, routes), packets
    raise AssertionError(f"the prototype has fewer than {count} paths")


def _owned(outcome):
    """Every object reachable from ``outcome`` through
    ``gc.get_referents``, stopping at the flow entries and actions it
    names (the rule set's own objects, built at install, not per miss)
    and at classes."""
    seen, stack = {}, [outcome]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (type, FlowEntry, Action)):
            continue
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestMissPathAllocationShape:
    """What a megaflow miss leaves behind: one path reference per
    distinct entry path, shared by the walk and every aggregate the
    batch installed along it — linked tuples of table ids and the
    entries themselves, no list, no dict and no outcome — and the
    outcome replayed from one for whoever reads it is immutable.
    Counts and types only, no clocks."""

    SIZE = 256

    def classify(self, monkeypatch):
        arch, packets = _distinct_path_misses(self.SIZE)
        runner = BatchPipeline(
            arch, cache_capacity=64, megaflow_capacity=4 * self.SIZE
        )
        walks = []
        run = ColumnarWalk.run

        def recorded(walk, missed):
            walks.append(walk)
            return run(walk, missed)

        monkeypatch.setattr(ColumnarWalk, "run", recorded)
        runner.classify_columnar(PacketBatch.from_dicts(packets))
        (walk,) = walks
        megaflow = runner.megaflow
        cached = [
            megaflow._paths[row]
            for row, key in enumerate(megaflow._keys)
            if key is not None
        ]
        assert runner.stats.megaflow_misses == len(walk.paths) == self.SIZE
        # A masked key pins its path, so no two installs collided.
        assert len(cached) == self.SIZE
        return runner, walk, cached

    def test_cached_outcomes_hold_no_list_or_dict(self, monkeypatch):
        _, walk, cached = self.classify(monkeypatch)
        assert {id(path) for path in cached} == set(map(id, walk.paths))
        kinds = Counter()
        for path in walk.paths:
            for obj in _owned(path):
                kinds[type(obj)] += 1
        assert kinds[list] == kinds[dict] == kinds[PathOutcome] == 0
        # Past the rules it names, a path is tuples of scalars.
        assert {
            kind
            for kind in kinds
            if not issubclass(kind, (type, FlowEntry, Action))
        } <= {tuple, int}, kinds

    def test_outcomes_refuse_writes(self, monkeypatch):
        runner, _, cached = self.classify(monkeypatch)
        for path in cached:
            outcome = runner.pipeline.replay_path(path_entries(path))
            for name in PathOutcome.__slots__:
                with pytest.raises(AttributeError):
                    setattr(outcome, name, getattr(outcome, name))
                with pytest.raises(AttributeError):
                    delattr(outcome, name)
            for name in (
                "matched_entries",
                "applied_actions",
                "output_ports",
                "tables_visited",
                "overrides",
            ):
                with pytest.raises(AttributeError):
                    getattr(outcome, name).append(None)


class TestMissPathByAddress:
    """A matched entry is addressed by its action slot on the miss
    path: what the walk credits comes off the action table's slot
    lanes, so classifying a ``cold``-shaped batch — the paper's four
    tables, every position a miss on a path of its own — reads no
    ``FlowStats.row`` at all; and the megaflow tier installs a batch's
    misses in bulk, so the calls an install makes into the cache do not
    grow with the misses it installs.  Counts only, no clocks."""

    def test_classify_reads_no_counter_row(self, monkeypatch):
        arch, packets = _distinct_path_misses(256)
        runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=1024)
        batch = PacketBatch.from_dicts(packets)
        member = FlowStats.__dict__["row"]
        reads = []

        class CountedRow:
            """The ``FlowStats.row`` slot, counting its reads."""

            def __get__(self, stats, owner=None):
                if stats is None:
                    return self
                reads.append(1)
                return member.__get__(stats, owner)

            def __set__(self, stats, value):
                member.__set__(stats, value)

        monkeypatch.setattr(FlowStats, "row", CountedRow())
        outcome = runner.classify(batch)
        assert len(reads) == 0
        assert runner.stats.megaflow_misses == len(outcome.paths) == 256
        assert len(reads) == 0

    def test_install_calls_do_not_grow_with_misses(self, monkeypatch):
        """The calls into :class:`MegaflowCache` methods one
        ``install_batch`` makes, by name, are the same at 64 and at 256
        distinct-path misses, at a capacity below both (so it evicts)."""
        methods = {
            value.__code__
            for value in vars(MegaflowCache).values()
            if hasattr(value, "__code__")
        }
        calls = Counter()

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code in methods:
                calls[frame.f_code.co_name] += 1

        install = MegaflowCache.install_batch

        def profiled(self, *args):
            sys.setprofile(profiler)
            try:
                return install(self, *args)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(MegaflowCache, "install_batch", profiled)
        made = {}
        for size in (64, 256):
            arch, packets = _distinct_path_misses(size)
            runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=48)
            calls.clear()
            runner.classify_columnar(PacketBatch.from_dicts(packets))
            megaflow = runner.megaflow
            assert megaflow.installs == size
            assert megaflow.evicted == size - megaflow.capacity
            made[size] = dict(calls)
        assert made[64]["install_batch"] == 1
        assert made[64] == made[256]


class TestFreedSlotReuse:
    """Records hold action slots, and slots are reused: between two
    batches an entry is removed and another installed into the slot it
    freed (the free list is LIFO) — on a live table, and on a sealed
    one, whose first mutation thaws it.  The microflow record stamped
    with the old slot revalidates instead of serving the new entry, the
    megaflow aggregates over the removed entry drop, and the results
    and both entries' counters are the ``FlowTable`` oracle's."""

    @staticmethod
    def entries():
        """Fresh entries: ``(table, entry)`` installed up front, then
        the removed one's replacement."""

        def entry(match, *instructions):
            return FlowEntry.build(
                match=Match.exact(**match), priority=5, instructions=instructions
            )

        removed = entry({"in_port": 1}, GotoTable(1))
        installed = [
            (0, removed),
            (0, entry({"in_port": 2}, WriteActions([OutputAction(20)]))),
            (1, entry({"tcp_dst": 80}, WriteActions([OutputAction(80)]))),
        ]
        return installed, entry({"in_port": 3}, WriteActions([OutputAction(30)]))

    @pytest.mark.parametrize(
        "sealed", [False, pytest.param(True, marks=needs_dev_shm)]
    )
    def test_reused_slot_revalidates(self, sealed):
        installed, replacement = self.entries()
        tables = [
            OpenFlowLookupTable(("in_port",), table_id=0),
            OpenFlowLookupTable(("tcp_dst",), table_id=1),
        ]
        for table_id, entry in installed:
            tables[table_id].add(entry)
        arch = MultiTableLookupArchitecture(tables)
        state = None
        if sealed:
            state = SharedRuleState.seal(arch, PipelineSpec.snapshot(arch))
            arch = state.spec.build()
            assert isinstance(arch.table(0), FrozenLookupTable)
        oracle_installed, oracle_replacement = self.entries()
        oracle = OpenFlowPipeline([FlowTable(table_id=0), FlowTable(table_id=1)])
        for table_id, entry in oracle_installed:
            oracle.table(table_id).add(entry)
        runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=64)
        packets = [
            {"in_port": port, "tcp_dst": 80, FRAME_LEN_FIELD: 64 + port}
            for port in (1, 2, 3, 1)
        ]
        removed = installed[0][1]
        try:
            table = arch.table(0)
            got = runner.process_batch(PacketBatch.from_dicts(packets))
            assert got == [oracle.process(dict(p)) for p in packets]
            record = runner.caches[0]._entries[(1,)]
            assert table.actions.entries[record.slot] is removed
            megaflow = runner.megaflow
            over_removed = [
                row
                for row, path in enumerate(megaflow._paths)
                if path is not None and removed in path_entries(path)
            ]
            assert over_removed

            assert table.remove(removed.match, removed.priority)
            freed = table.actions._free[0]  # the lowest free slot
            table.add(replacement)
            assert table.actions.entries[freed] is replacement
            # A thawed table holds every entry at its sealed slot.
            assert freed == record.slot
            oracle.table(0).remove(removed.match, removed.priority)
            oracle.table(0).add(oracle_replacement)
            revalidations = runner.caches[0].revalidations
            invalidated = megaflow.invalidated

            got = runner.process_batch(PacketBatch.from_dicts(packets))
            assert got == [oracle.process(dict(p)) for p in packets]
            assert runner.caches[0].revalidations > revalidations
            assert megaflow.invalidated >= invalidated + len(over_removed)
            assert not [
                path
                for path in megaflow._paths
                if path is not None and removed in path_entries(path)
            ]
            for entry, twin in (
                (removed, oracle_installed[0][1]),
                (replacement, oracle_replacement),
            ):
                assert (entry.stats.packet_count, entry.stats.byte_count) == (
                    twin.stats.packet_count,
                    twin.stats.byte_count,
                )
        finally:
            del runner, arch
            if state is not None:
                state.close()


class TestUnreadMissCostShape:
    """What a ``cold``-shaped batch — the paper's four tables, every
    position a megaflow miss on a path of its own — costs when nobody
    reads its outcome: no ``replay_path`` call, no
    :class:`PathOutcome`, no per-packet result, and no runtime object
    per aggregate or per path — only the linked path references, at
    most one tuple per table a path matched in.  Reading every position
    then replays each distinct path once, however often it is read.
    Counts and types only, no clocks."""

    SIZE = 256

    @staticmethod
    def spies(monkeypatch):
        return {
            "replayed": _Spy(monkeypatch, OpenFlowPipeline, "replay_path"),
            "built": _Spy(monkeypatch, PathOutcome, "__init__"),
            "constructed": _Spy(monkeypatch, PipelineResult, "__init__"),
        }

    def classify(self, monkeypatch):
        arch, packets = _distinct_path_misses(self.SIZE)
        runner = BatchPipeline(
            arch, cache_capacity=64, megaflow_capacity=4 * self.SIZE
        )
        batch = PacketBatch.from_dicts(packets)
        spies = self.spies(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            before = {id(obj) for obj in gc.get_objects()}
            outcome = runner.classify_columnar(batch)
            grown = Counter(
                type(obj)
                for obj in gc.get_objects()
                if id(obj) not in before
            )
        finally:
            gc.enable()
        assert runner.stats.megaflow_misses == len(outcome.paths) == self.SIZE
        return runner, outcome, spies, grown

    def test_unread_outcome_replays_nothing(self, monkeypatch):
        runner, _, spies, grown = self.classify(monkeypatch)
        assert {name: spy.calls for name, spy in spies.items()} == {
            "replayed": 0,
            "built": 0,
            "constructed": 0,
        }
        tables = len(runner.pipeline.tables)
        assert grown[tuple] <= (tables + 1) * self.SIZE
        assert grown[dict] + grown[list] + grown[set] < 16
        # No megaflow, walk or outcome object per aggregate or path:
        # the one outcome object is the batch's.
        runtime = {
            kind.__name__: count
            for kind, count in grown.items()
            if kind.__module__
            in ("repro.runtime.megaflow", "repro.runtime.walk", "repro.runtime.batch")
        }
        assert runtime == {"ColumnarOutcomes": 1}

    def test_reading_replays_each_distinct_path_once(self, monkeypatch):
        _, outcome, spies, _ = self.classify(monkeypatch)
        distinct = len({id(path) for path in outcome.paths})
        assert outcome.results() == outcome.results()
        assert [outcome[i] for i in range(len(outcome))] == outcome.results()
        assert spies["replayed"].calls == spies["built"].calls == distinct
        assert spies["constructed"].calls == 0


class TestMaterialisedResultsAreTheReaders:
    """A materialised result is its reader's own: appending to its
    lists or rewriting its fields reaches neither the other positions of
    its batch, nor the outcome they share, nor a later megaflow hit on
    the same aggregate — in-process and sharded alike."""

    @staticmethod
    def traffic():
        """The four-table prototype, two flows of it on six positions
        (repeats are the same packet object: one batch row each), and
        the scan oracle's results for them off a twin."""
        arch, trace = _prototype()
        first = trace[0]
        second = next(fields for fields in trace if fields != first)
        packets = [first, second, first, first, second, first]
        twin = _prototype()[0]
        return arch, packets, [twin.process(fields) for fields in packets]

    @staticmethod
    def check(arch, classify, packets, oracle):
        """Classify twice; vandalise position 0's result in between."""
        first = classify(packets)
        shared = first.outcome(first.codes[0])
        vandalised = first[0]
        vandalised.output_ports.append(9)
        vandalised.matched_entries.append(vandalised.matched_entries[0])
        vandalised.applied_actions.append(OutputAction(9))
        name = next(iter(vandalised.final_fields))
        vandalised.final_fields[name] += 1
        assert shared == arch.replay_path(shared.matched_entries)
        assert [first[i] for i in range(1, len(packets))] == oracle[1:]
        assert first.results()[1:] == oracle[1:]
        # The same flows again, every position a megaflow hit.
        second = classify(packets)
        assert second.results() == oracle
        assert second.outcome(second.codes[0]) == shared
        return first, second

    def test_in_process(self):
        arch, packets, oracle = self.traffic()
        runner = BatchPipeline(arch, cache_capacity=64, megaflow_capacity=48)
        first, second = self.check(
            arch,
            lambda packets: runner.classify_columnar(
                PacketBatch.from_dicts(packets)
            ),
            packets,
            oracle,
        )
        assert runner.stats.megaflow_hits == len(packets)
        # The hit served the very path the vandalised result came from.
        assert second.paths[second.codes[0]] is first.paths[first.codes[0]]

    @needs_dev_shm
    def test_sharded(self):
        arch, packets, oracle = self.traffic()
        with ShardedBatchPipeline(
            arch, workers=1, cache_capacity=64, megaflow_capacity=48
        ) as sharded:

            def classify(packets):
                (outcome,) = sharded.process_batches(
                    [PacketBatch.from_dicts(packets)]
                )
                return outcome

            self.check(arch, classify, packets, oracle)
            assert sharded.stats_snapshot().megaflow_hits == len(packets)


class TestDictDoorCostShape:
    """Where a dict batch goes.  A runner with any cache tier converts
    it once, at its door, and classifies it columnar; a runner with no
    tier at all walks it wave by wave through ``table.lookup_batch`` —
    the seam ``benchmarks/e2e`` times ``core.lookup_table.walk_ns_per_pkt``
    through (``layers.py::lookup_walk``), so it may not be folded into
    the columnar walk before the harness is re-pointed.  Counts only."""

    @staticmethod
    def spies(monkeypatch):
        return {
            name: _Spy(monkeypatch, owner, name)
            for owner, name in (
                (PacketBatch, "from_dicts"),
                (BatchPipeline, "classify_columnar"),
                (OpenFlowLookupTable, "lookup_batch"),
            )
        }

    @pytest.mark.parametrize(
        "tiers",
        [
            {"cache_capacity": 64, "megaflow_capacity": 48},
            {"cache_capacity": 64},
            {"cache_capacity": None, "megaflow_capacity": 48},
        ],
        ids=["two-tier", "microflow-only", "megaflow-only"],
    )
    def test_tiered_runner_converts_once_per_batch(self, monkeypatch, tiers):
        arch, trace = _prototype()
        twin, _ = _prototype()
        expected = [twin.process(fields) for fields in trace]
        runner = BatchPipeline(arch, **tiers)
        batches = [trace[start : start + 100] for start in range(0, len(trace), 100)]
        calls = self.spies(monkeypatch)
        results = [
            result for batch in batches for result in runner.process_batch(batch)
        ]
        assert {name: spy.calls for name, spy in calls.items()} == {
            "from_dicts": len(batches),
            "classify_columnar": len(batches),
            "lookup_batch": 0,
        }
        assert results == expected

    def test_tier_free_runner_walks_lookup_batch_per_wave(self, monkeypatch):
        arch, trace = _prototype()
        twin, _ = _prototype()
        expected = [twin.process(fields) for fields in trace]
        runner = BatchPipeline(arch, cache_capacity=None)
        assert not runner.caches and runner.megaflow is None
        batches = [trace[start : start + 100] for start in range(0, len(trace), 100)]
        calls = self.spies(monkeypatch)
        results = [
            result for batch in batches for result in runner.process_batch(batch)
        ]
        waves = runner.stats_snapshot().waves
        assert waves == 4 * len(batches)
        assert {name: spy.calls for name, spy in calls.items()} == {
            "from_dicts": 0,
            "classify_columnar": 0,
            "lookup_batch": waves,
        }
        assert results == expected


class _CountingIndex(dict):
    """One mask's megaflow index, counting its probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


class _CountingLane(np.ndarray):
    """A megaflow stamp lane that counts the writes made to it."""

    writes = 0

    def __setitem__(self, key, value):
        type(self).writes += 1
        super().__setitem__(key, value)


def _count_stamps(monkeypatch, megaflow):
    """Swap ``megaflow``'s stamp lane for a counting view of itself;
    returns the view's class, whose ``writes`` counts the writes."""
    lane = type("_Lane", (_CountingLane,), {})
    monkeypatch.setattr(megaflow, "_stamp", megaflow._stamp.view(lane))
    return lane


class _VersionReads:
    """Stands in for a table in ``version_checks``; counts validations."""

    def __init__(self, table):
        self._table = table
        self.reads = 0

    @property
    def version(self):
        self.reads += 1
        return self._table.version


def _all_hit_views(rule_set, size=256):
    """Four ``size``-packet views of one stamped zipf store (every packet
    its own row) and a runner that has seen each once, so a second pass
    over any of them is all megaflow hits."""
    event = zipf_workload(
        rule_set,
        packet_count=4 * size,
        flow_count=200,
        seed=3,
        frame_len="imix",
        columnar=True,
    ).events[0][1]
    assert event.rows == len(event)
    views = [event[i : i + size] for i in range(0, len(event), size)]
    runner = BatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(rule_set)]),
        cache_capacity=64,
        megaflow_capacity=512,
    )
    for view in views:
        runner.classify_columnar(view)
    return runner, views


class TestMegaflowProbeCostShape:
    """What the megaflow fast path may do for an all-hit batch: Python
    work per distinct masked key, never per position — stamped frame
    lengths make every packet its own row, so the tier cannot lean on
    row dedup — and its LRU stamped with one vectorised write, never a
    call per aggregate."""

    def test_all_hit_batch_probes_and_credits_per_distinct_aggregate(
        self, monkeypatch, rule_set
    ):
        size = 256
        runner, views = _all_hit_views(rule_set, size)
        megaflow = runner.megaflow
        masks = list(megaflow._by_mask)
        assert len(masks) == megaflow.mask_count
        for mask in masks:
            megaflow._by_mask[mask] = _CountingIndex(megaflow._by_mask[mask])
        stamps = _count_stamps(monkeypatch, megaflow)
        (table,) = runner.pipeline.tables
        watch = _VersionReads(table)
        for row, key in enumerate(megaflow._keys):
            if key is not None:
                versions = megaflow._versions[row]
                assert [t for t, _ in versions] == [table]
                megaflow._versions[row] = tuple(
                    (watch, version) for _, version in versions
                )

        def tally():
            probes = sum(megaflow._by_mask[mask].probes for mask in masks)
            return np.array(
                [probes, watch.reads, stamps.writes, runner.stats.megaflow_misses]
            )

        counted = []
        for view in views:
            before = tally()
            outcome = runner.classify_columnar(view)
            probes, reads, stamped, misses = (tally() - before).tolist()
            assert misses == 0
            distinct_keys = [
                len(set(view.masked_key_codes(mask).codes[view.pick].tolist()))
                for mask in masks
            ]
            aggregates = len(outcome.paths)
            assert aggregates <= probes <= sum(distinct_keys) < size
            # One validation per aggregate hit, one LRU write per batch.
            assert reads == aggregates
            assert stamped == 1
            counted.append((probes, aggregates))
        # Counts, not timings: they repeat exactly for the seed.
        assert len(masks) == 3
        assert counted == [(112, 69), (112, 65), (104, 69), (122, 77)]


class TestHitPathCostShape:
    """What an all-hit batch may cost around the probes: a mask's keys
    are coded once per column store (never once per view), the LRU is
    stamped with one write, and the credit is one scatter into the
    counter columns — no ``FlowStats.add`` or ``record`` call, no
    ``credit_traversal`` call — and no per-packet result for a batch
    nobody reads."""

    #: What one all-hit ``classify_columnar`` calls, whatever its size.
    ALL_HIT = {
        "keyed": 0,
        "credited": 0,
        "folded": 0,
        "recorded": 0,
        "scattered": 1,
        "stamped": 1,
        "constructed": 0,
        "replayed": 0,
    }

    @staticmethod
    def spies(monkeypatch, runner):
        return {
            "keyed": _Spy(monkeypatch, packet_batch_module, "_key_codes"),
            "credited": _Spy(monkeypatch, batch_module, "credit_traversal"),
            "folded": _Spy(monkeypatch, FlowStats, "add"),
            "recorded": _Spy(monkeypatch, FlowStats, "record"),
            "scattered": _Spy(monkeypatch, CounterColumns, "credit"),
            "stamped": _count_stamps(monkeypatch, runner.megaflow),
            "constructed": _Spy(monkeypatch, PipelineResult, "__init__"),
            "replayed": _Spy(monkeypatch, batch_module, "replay_template"),
        }

    @staticmethod
    def calls(spies):
        return {
            name: spy.writes if name == "stamped" else spy.calls
            for name, spy in spies.items()
        }

    def classify(self, runner, spies, batch):
        """Classify an all-hit batch; the spies' growth and the
        outcome."""
        before = self.calls(spies)
        misses = runner.stats.megaflow_misses
        outcome = runner.classify_columnar(batch)
        assert runner.stats.megaflow_misses == misses
        grown = {name: calls - before[name] for name, calls in self.calls(spies).items()}
        return grown, outcome

    def test_views_of_one_store_key_each_mask_once(self, monkeypatch, rule_set):
        keyed = _Spy(monkeypatch, packet_batch_module, "_key_codes")
        runner, views = _all_hit_views(rule_set)
        masks = runner.megaflow.mask_count
        # The warm-up (misses and installs included) coded each mask of
        # the shared store once.
        assert keyed.calls == masks == 3
        spies = self.spies(monkeypatch, runner)
        for view in views:
            grown, outcome = self.classify(runner, spies, view)
            assert 1 < len(outcome.paths) < len(view)
            assert grown == self.ALL_HIT
        assert spies["keyed"].calls == 0

    def test_one_packet_batch(self, monkeypatch, rule_set):
        runner, views = _all_hit_views(rule_set)
        spies = self.spies(monkeypatch, runner)
        # A one-packet view of the warm store costs no keying at all...
        grown, outcome = self.classify(runner, spies, views[1][7:8])
        assert len(outcome) == len(outcome.paths) == 1
        assert grown == self.ALL_HIT
        # ...and a store of its own keys each mask it probes once.
        single = PacketBatch.from_dicts([views[1].fields_at(7)])
        first, _ = self.classify(runner, spies, single)
        assert 1 <= first["keyed"] <= runner.megaflow.mask_count
        again, _ = self.classify(runner, spies, single)
        assert again == self.ALL_HIT
        assert {**first, "keyed": 0} == self.ALL_HIT


class TestCreditOnceCostShape:
    """Classifying only computes; one function credits and counts.
    Around one ``classify_columnar`` call, the counter columns take one
    scatter (``CounterColumns.credit``), ``FlowStats.add`` and
    ``record`` run never, and ``PacketBatch.frame_lengths`` once — the
    credit reading the batch's byte lane — on an all-hit batch and a
    mixed hit/miss batch alike; a replica serving the same batch (its
    misses, then its hits) calls none of them.  Counts only."""

    @staticmethod
    def check(monkeypatch, pipeline, warm, batch):
        """Warm a runner on ``warm``, classify ``batch`` under the
        spies, then serve ``batch`` twice through a fresh replica of
        ``pipeline``; returns the runner's megaflow hits and misses on
        ``batch``."""
        runner = BatchPipeline(pipeline, cache_capacity=64, megaflow_capacity=512)
        for dicts in warm:
            runner.classify_columnar(PacketBatch.from_dicts(dicts))
        replica = _Replica(PipelineSpec.snapshot(pipeline), 64, 512)
        spies = {name: _Spy(monkeypatch, FlowStats, name) for name in ("add", "record")}
        spies["credit"] = _Spy(monkeypatch, CounterColumns, "credit")
        spies["frame_lengths"] = _Spy(monkeypatch, PacketBatch, "frame_lengths")
        hits, misses = runner.stats.megaflow_hits, runner.stats.megaflow_misses
        outcome = runner.classify_columnar(batch)
        assert any(map(path_entries, outcome.paths))
        expected = {"add": 0, "record": 0, "credit": 1, "frame_lengths": 1}
        assert {name: spy.calls for name, spy in spies.items()} == expected
        for _ in range(2):
            reply = serve_one_batch(replica, batch)
            assert reply.kind == "ok"
        assert {name: spy.calls for name, spy in spies.items()} == expected
        return (
            runner.stats.megaflow_hits - hits,
            runner.stats.megaflow_misses - misses,
        )

    def test_all_hit_batch(self, monkeypatch):
        arch, trace = _prototype()
        batch = PacketBatch.from_dicts(trace)
        hits, misses = self.check(monkeypatch, arch, [trace], batch)
        assert (hits, misses) == (len(batch), 0)

    def test_mixed_hit_miss_batch(self, monkeypatch):
        arch, trace = _prototype()
        batch = PacketBatch.from_dicts(trace[300:])
        hits, misses = self.check(monkeypatch, arch, [trace[:300]], batch)
        assert hits > 0 and misses > 0


def _entry_at(table, slot):
    """The flow entry at an action slot a keyed lookup answered."""
    return None if slot < 0 else table.actions.entries[slot]


def _columns_only(batch: PacketBatch):
    """The batch's raw columns — as the shm attach path builds it, with
    no row-dict cache behind it."""
    return (
        batch.rows,
        {name: batch.column(name) for name in batch.field_names()},
        batch.pick,
    )


class TestBatchedCapture:
    """``lookup_keys(capture=True)`` against the scalar definitions, on
    a live table and its sealed twin."""

    SCHEMA = ("in_port", "ipv4_dst", "ipv4_src", "tcp_dst")

    def tables(self):
        live = OpenFlowLookupTable(self.SCHEMA, table_id=0)
        for index, (length, port) in enumerate(
            [(8, 1), (16, 1), (24, 2), (32, 3), (12, 2), (20, 1)]
        ):
            value = (0x0A0B0C0D >> (32 - length)) << (32 - length)
            live.add(
                FlowEntry.build(
                    match=Match(
                        {
                            "in_port": ExactMatch(value=port, bits=32),
                            "ipv4_dst": PrefixMatch(value=value, length=length, bits=32),
                            # a default-route-only trie pair: /0 canonicalises
                            # away, so ipv4_src's tries stay completely empty
                            # while its schema slot is still probed
                            "ipv4_src": PrefixMatch(value=0, length=0, bits=32),
                        }
                    ),
                    priority=index,
                    instructions=[WriteActions([OutputAction(index)])],
                )
            )
        # tcp_dst: in the schema, matched by no rule — an empty engine.
        arch = MultiTableLookupArchitecture([live])
        state = SharedRuleState.seal(arch, PipelineSpec.snapshot(arch))
        frozen = state.spec.build().tables[0]
        assert isinstance(frozen, FrozenLookupTable)
        return live, frozen, state

    def keys(self):
        rng = np.random.default_rng(5)
        keys = [
            (1, 0x0A0B0C0D, 7, 80),
            (1, 0x0A0B0C0D, None, 80),
            (None, 0x0A0B0000, 7, None),
            (2, None, None, None),
            (None, None, None, None),
        ]
        for _ in range(200):
            key = [
                int(rng.integers(0, 4)),
                int(rng.integers(0, 1 << 32))
                if rng.random() < 0.5
                else 0x0A0B0C0D ^ int(rng.integers(0, 1 << int(rng.integers(1, 24)))),
                int(rng.integers(0, 1 << 32)),
                int(rng.integers(0, 1 << 16)),
            ]
            for slot in range(4):
                if rng.random() < 0.15:
                    key[slot] = None
            keys.append(tuple(key))
        return keys

    @needs_dev_shm
    def test_capture_equals_scalar_consulted_mask(self):
        live, frozen, state = self.tables()
        try:
            keys = self.keys() * 2  # duplicates share one resolution
            for table in (live, frozen):
                slots, masks = table.lookup_keys(keys, capture=True)
                bare, no_masks = table.lookup_keys(keys)
                assert bare == slots and no_masks == [None] * len(keys)
                entries = [_entry_at(table, slot) for slot in slots]
                for key, entry, mask in zip(keys, entries, masks):
                    fields = {
                        name: value
                        for name, value in zip(self.SCHEMA, key)
                        if value is not None
                    }
                    sink = FieldMaskSink()
                    assert entry is table.lookup(fields, mask=sink)
                    assert mask == sink.fields, key
            # and the twin agrees with the table it was sealed from
            live_slots, live_masks = live.lookup_keys(keys, capture=True)
            frozen_slots, frozen_masks = frozen.lookup_keys(keys, capture=True)
            live_entries = [_entry_at(live, slot) for slot in live_slots]
            frozen_entries = [_entry_at(frozen, slot) for slot in frozen_slots]
            assert live_masks == frozen_masks
            assert [e and (e.match, e.priority) for e in live_entries] == [
                e and (e.match, e.priority) for e in frozen_entries
            ]
        finally:
            del frozen
            state.close()

    def test_default_route_only_trie_consults_nothing(self):
        table = OpenFlowLookupTable(("ipv4_dst",), table_id=0)
        engine = table._flat_engines[0]
        assert isinstance(engine, TriePartitionEngine)
        engine.insert_entry((0, 0))  # the /0 entry, and nothing else
        for key in (0, 0xFFFF, None):
            labels, bits = engine.probe(key)
            assert labels == engine.search(key)
            assert bits == engine.consulted_mask(key)
        assert engine.probe(0x1234) == ((1,), 0)


# ----------------------------------------------------------------------
# microbenchmark
# ----------------------------------------------------------------------


def test_key_hash_microbench(rule_set):
    """Vectorized per-row hashing must beat per-packet tuple keying by a
    wide margin (loose 1.0x floor so CI scheduler noise cannot flake; the
    typical ratio is >10x)."""
    trace = zipf_workload(
        rule_set, packet_count=20_000, flow_count=256
    ).events[0][1]
    table = build_lookup_table(rule_set)
    cache = MicroflowCache(table)
    batch = PacketBatch.from_dicts(trace)
    names = cache.field_names

    start = time.perf_counter()
    tuple_keys = [tuple(fields.get(name) for name in names) for fields in trace]
    tuple_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    hashes = batch.key_hashes(names)
    vector_elapsed = time.perf_counter() - start

    assert len(tuple_keys) == len(trace)
    assert len(hashes) == batch.rows
    ratio = tuple_elapsed / max(vector_elapsed, 1e-9)
    print(
        f"\nkey build: tuples {len(trace) / tuple_elapsed:,.0f}/s, "
        f"vectorized rows {batch.rows / vector_elapsed:,.0f}/s "
        f"({ratio:.1f}x per-packet cost)"
    )
    assert ratio > 1.0, f"vectorized hashing slower than tuples ({ratio:.2f}x)"
