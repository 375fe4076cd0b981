"""Megaflow wildcard-cache behaviour: mask capture, aggregate replay,
incremental invalidation, and stacked-cache differential fuzzing."""

from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.flow import SINK, FlowEntry
from repro.openflow.instructions import ApplyActions, GotoTable, WriteActions
from repro.openflow.match import ExactMatch, Match, PrefixMatch
from repro.openflow.pipeline import OpenFlowPipeline, PathOutcome
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD, frame_length
from repro.runtime import (
    BatchPipeline,
    MegaflowCache,
    MegaflowRecorder,
    MicroflowCache,
    uniform_wide_workload,
    widen_rule_set,
)
from repro.runtime.batch import BatchStats, ColumnarOutcomes, credit_outcomes


def assert_same_result(a, b):
    assert a.output_ports == b.output_ports
    assert a.sent_to_controller == b.sent_to_controller
    assert a.dropped == b.dropped
    assert a.metadata == b.metadata
    assert a.tables_visited == b.tables_visited
    assert a.final_fields == b.final_fields
    assert [(e.match, e.priority) for e in a.matched_entries] == [
        (e.match, e.priority) for e in b.matched_entries
    ]


def output_entry(match: Match, priority: int, port: int, goto=None) -> FlowEntry:
    instructions = [WriteActions([OutputAction(port)])]
    if goto is not None:
        instructions = [GotoTable(goto)]
    return FlowEntry.build(match=match, priority=priority, instructions=instructions)


class TestMaskCapture:
    def test_unconstrained_schema_field_stays_wild(self):
        """An empty engine (no rule constrains the field) consults
        nothing, so the noise field never enters the mask."""
        table = OpenFlowLookupTable(("in_port", "tcp_src"))
        table.add(output_entry(Match.exact(in_port=7), 1, 10))
        recorder = MegaflowRecorder()
        table.lookup({"in_port": 7, "tcp_src": 1234}, mask=recorder)
        assert "tcp_src" not in recorder.fields
        assert recorder.fields["in_port"] == (1 << 32) - 1

    def test_trie_mask_stops_at_walk_depth(self):
        """A /8-only trie never allocates below level 2, so consulted
        bits stop at the 10-bit boundary — host bits stay wild."""
        table = OpenFlowLookupTable(("ipv4_dst",))
        table.add(
            output_entry(
                Match({"ipv4_dst": PrefixMatch(0x0A000000, 8, 32)}), 1, 10
            )
        )
        recorder = MegaflowRecorder()
        assert table.lookup({"ipv4_dst": 0x0A012345}, mask=recorder) is not None
        mask = recorder.fields["ipv4_dst"]
        # The high 16-bit partition consulted at most its level-2
        # boundary (10 bits); the low partition's trie is empty.
        assert mask & 0xFFFF == 0, "low partition must stay wild"
        assert mask >> (32 - 8) == 0xFF, "prefix bits must be consulted"

    def test_rewritten_field_not_consulted(self):
        """A field rewritten by table 0 is traversal-derived; consulting
        it in table 1 must not widen the mask over the original packet."""
        t0 = FlowTable(table_id=0)
        t0.add(
            FlowEntry.build(
                match=Match.exact(in_port=1),
                priority=1,
                instructions=[
                    ApplyActions([SetFieldAction("vlan_vid", 42)]),
                    GotoTable(1),
                ],
            )
        )
        t1 = FlowTable(table_id=1)
        t1.add(output_entry(Match.exact(vlan_vid=42), 1, 10))
        pipeline = OpenFlowPipeline([t0, t1])
        recorder = MegaflowRecorder()
        result = pipeline.process({"in_port": 1, "vlan_vid": 7}, mask=recorder)
        assert result.output_ports == [10]
        assert "vlan_vid" not in recorder.fields
        assert "vlan_vid" in recorder.rewritten

    def test_microflow_hit_replays_mask(self):
        """Masks survive the microflow tier: a cache hit feeds the same
        consulted bits into the recorder as the original table walk."""
        table = OpenFlowLookupTable(("in_port", "tcp_src"))
        table.add(output_entry(Match.exact(in_port=3), 1, 10))
        cache = MicroflowCache(table)
        walk = MegaflowRecorder()
        table.lookup({"in_port": 3, "tcp_src": 5}, mask=walk)
        _, (first,), _ = cache.lookup_keys([(3, 5)], [1], True)
        _, (second,), missed = cache.lookup_keys([(3, 5)], [1], True)
        assert missed == 0
        assert first == second == walk.fields


class TestReplay:
    def test_aggregate_replay_matches_scalar(self, small_routing_set):
        wide = widen_rule_set(small_routing_set)
        workload = uniform_wide_workload(wide, packet_count=600, flow_count=32)
        trace = workload.events[0][1]
        runner = BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(wide)]),
            cache_capacity=256,
            megaflow_capacity=512,
        )
        reference = MultiTableLookupArchitecture([build_lookup_table(wide)])
        for start in range(0, len(trace), 128):
            chunk = trace[start : start + 128]
            for got, fields in zip(runner.process_batch(chunk), chunk):
                assert_same_result(got, reference.process(fields))
        megaflow = runner.megaflow
        assert runner.stats.megaflow_hits > 0, "wide traffic must hit the megaflow tier"
        # Exact-match would need ~one entry per packet; aggregates need
        # roughly one per flow.
        assert len(megaflow) < len(trace) / 4

    def test_setfield_override_applied_to_new_packet(self):
        """A replayed rewrite must overwrite the new packet's own value,
        even when the capture packet already carried the target value."""
        t0 = OpenFlowLookupTable(("in_port",), table_id=0)
        t0.add(
            FlowEntry.build(
                match=Match.exact(in_port=1),
                priority=1,
                instructions=[
                    ApplyActions(
                        [SetFieldAction("vlan_vid", 42), OutputAction(10)]
                    ),
                ],
            )
        )
        pipeline = OpenFlowPipeline([t0])
        runner = BatchPipeline(pipeline, cache_capacity=None, megaflow_capacity=64)
        # Capture packet already has vlan_vid=42: a naive before/after
        # diff would record no rewrite.
        runner.process({"in_port": 1, "vlan_vid": 42})
        replayed = runner.process({"in_port": 1, "vlan_vid": 7})
        assert runner.stats.megaflow_hits == 1
        assert replayed.final_fields["vlan_vid"] == 42

    def test_replay_records_flow_stats(self):
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        entry = output_entry(Match.exact(in_port=1), 1, 10)
        table.add(entry)
        runner = BatchPipeline(
            OpenFlowPipeline([table]), cache_capacity=None, megaflow_capacity=16
        )
        runner.process({"in_port": 1})
        runner.process({"in_port": 1})
        assert entry.stats.packet_count == 2


class TestIncrementalInvalidation:
    def build_runner(self):
        t0 = OpenFlowLookupTable(("in_port",), table_id=0)
        t0.add(output_entry(Match.exact(in_port=1), 1, 10))
        t0.add(
            FlowEntry.build(
                match=Match.exact(in_port=2),
                priority=1,
                instructions=[GotoTable(1)],
            )
        )
        t1 = OpenFlowLookupTable(("eth_type",), table_id=1)
        t1.add(output_entry(Match.exact(eth_type=0x0800), 1, 20))
        pipeline = OpenFlowPipeline([t0, t1])
        return BatchPipeline(pipeline, cache_capacity=None, megaflow_capacity=64)

    def test_mutation_invalidates_only_consulting_entries(self):
        """Acceptance regression: a flow-mod on table 1 must kill only
        the aggregates whose traversal consulted table 1."""
        runner = self.build_runner()
        short = {"in_port": 1, "eth_type": 0x0800}  # visits table 0 only
        deep = {"in_port": 2, "eth_type": 0x0800}  # visits tables 0 and 1
        runner.process(short)
        runner.process(deep)
        megaflow = runner.megaflow
        assert len(megaflow) == 2 and megaflow.invalidated == 0

        # Mutate table 1: the short aggregate must survive untouched.
        runner.pipeline.table(1).add(output_entry(Match.exact(eth_type=0x86DD), 2, 30))
        assert runner.process(short).output_ports == [10]
        assert runner.stats.megaflow_hits == 1 and megaflow.invalidated == 0

        # The deep aggregate was invalidated and re-captured.
        runner.process(deep)
        assert megaflow.invalidated == 1
        assert runner.stats.megaflow_hits == 1

    def test_mutating_first_table_invalidates_all(self):
        runner = self.build_runner()
        short = {"in_port": 1, "eth_type": 0x0800}
        deep = {"in_port": 2, "eth_type": 0x0800}
        runner.process(short)
        runner.process(deep)
        runner.pipeline.table(0).add(output_entry(Match.exact(in_port=9), 1, 40))
        runner.process(short)
        runner.process(deep)
        assert runner.megaflow.invalidated == 2
        assert runner.stats.megaflow_hits == 0

    def test_lru_capacity_bounds_entries(self):
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        for port in range(8):
            table.add(output_entry(Match.exact(in_port=port), 1, port))
        cache = MegaflowCache(OpenFlowPipeline([table]), capacity=4)
        runner = BatchPipeline(OpenFlowPipeline([table]), cache_capacity=None)
        runner.megaflow = cache  # drive the bounded cache directly
        for port in range(8):
            runner.process({"in_port": port})
        assert len(cache) == 4
        assert cache.evicted == 4

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            MegaflowCache(OpenFlowPipeline([FlowTable()]), capacity=0)


# ----------------------------------------------------------------------
# columnar probe-and-credit == a per-packet model of the same cache
# ----------------------------------------------------------------------

#: Overlapping wildcard masks: a packet carrying all three fields is
#: covered under each of them, so which aggregate answers is decided by
#: mask order alone.
_PROBE_MASKS = (
    (("in_port", 0xFFFFFFFF),),
    (("in_port", 0xFFFFFFFF), ("ipv4_dst", 0xFF000000)),
    (("ipv4_dst", 0xFFFF0000), ("tcp_dst", 0xFFFF)),
)

#: Small domains (0 is a value, absence is a draw of its own), so equal
#: headers, shared aggregates and missing fields all recur in 24 packets.
_probe_packet = st.fixed_dictionaries(
    {},
    optional={
        "in_port": st.sampled_from((0, 1, 2)),
        "ipv4_dst": st.sampled_from((0x0A000001, 0x0A000002, 0x0A010001, 0x0B000001)),
        "tcp_dst": st.sampled_from((80, 443)),
        FRAME_LEN_FIELD: st.sampled_from((64, 576, 1500)),
    },
)

#: (mask index, representative packet, traversal also visits table 1)
_probe_aggregate = st.tuples(
    st.integers(0, len(_PROBE_MASKS) - 1), _probe_packet, st.booleans()
)


class _PerPacketMegaflow:
    """What the megaflow tier means, one packet at a time — the model
    ``probe`` (with its outcome credited) / ``install_batch`` are held
    to.  Aggregates live in one ``OrderedDict`` (the LRU) keyed
    ``(mask, value & mask tuple)``, ``None`` standing for an absent
    field; masks are probed in first-install order (a mask leaves with
    its last aggregate and re-enters at the back); the first *valid*
    hit wins and a stale aggregate drops on probe; an install beyond
    ``capacity`` evicts the least recently used aggregate."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lru = OrderedDict()
        self.masks = {}
        self.invalidated = self.installs = 0
        self.evicted = 0
        #: The runner's traffic counters, as one packet at a time
        #: credits them.
        self.stats = BatchStats()

    @staticmethod
    def key(mask, fields):
        return tuple(
            None if (value := fields.get(name)) is None else value & bits
            for name, bits in mask
        )

    def install(self, mask, fields, outcome, checks):
        slot = (mask, self.key(mask, fields))
        self.lru[slot] = {"outcome": outcome, "checks": checks}
        self.lru.move_to_end(slot)
        self.masks.setdefault(mask, set()).add(slot)
        self.installs += 1
        if len(self.lru) > self.capacity:
            old, _ = self.lru.popitem(last=False)
            self.forget(old)
            self.evicted += 1

    def forget(self, slot):
        mask = slot[0]
        self.masks[mask].remove(slot)
        if not self.masks[mask]:
            del self.masks[mask]

    def lookup(self, fields):
        """The hit aggregate's outcome, or ``None``."""
        for mask in list(self.masks):
            slot = (mask, self.key(mask, fields))
            aggregate = self.lru.get(slot)
            if aggregate is None:
                continue
            if any(table.version != seen for table, seen in aggregate["checks"]):
                del self.lru[slot]
                self.forget(slot)
                self.invalidated += 1
                continue
            self.lru.move_to_end(slot)
            outcome = aggregate["outcome"]
            for matched in outcome.matched_entries:
                matched.stats.record(frame_length(fields))
            self.stats.packets += 1
            if outcome.matched_entries:
                self.stats.matched += 1
            self.stats.flow_packets += len(outcome.matched_entries)
            self.stats.flow_bytes += len(outcome.matched_entries) * frame_length(
                fields
            )
            self.stats.sent_to_controller += outcome.sent_to_controller
            self.stats.dropped += outcome.dropped
            return outcome
        return None

    def state(self):
        return {
            "counters": (self.invalidated, self.installs, self.evicted),
            "lru": [
                (mask, aggregate["outcome"].metadata)
                for (mask, _), aggregate in self.lru.items()
            ],
            "index": {
                mask: sorted(self.lru[slot]["outcome"].metadata for slot in slots)
                for mask, slots in self.masks.items()
            },
            "probe_order": list(self.masks),
        }


def _lru(cache):
    """A real cache's aggregate rows, least recently used first: its
    live rows in stamp order."""
    live = [row for row, key in enumerate(cache._keys) if key is not None]
    assert len(live) == len(cache) <= cache.capacity
    return sorted(live, key=lambda row: cache._stamp[row])


def _credit_lanes(outcomes, width):
    """What each path outcome credits, as the cache keeps it per row:
    the counter rows of the entries it matched, padded to ``width``
    with ``SINK``, then its kind, ``4 * entries matched + 2 * sent to
    controller + dropped``."""
    return np.array(
        [
            [entry.stats.row for entry in outcome.matched_entries]
            + [SINK] * (width - len(outcome.matched_entries))
            + [
                len(outcome.matched_entries) << 2
                | outcome.sent_to_controller << 1
                | outcome.dropped
            ]
            for outcome in outcomes
        ],
        dtype=np.int64,
    ).reshape(len(outcomes), width + 1)


def _cache_state(cache, outcomes):
    """:meth:`_PerPacketMegaflow.state` of a real :class:`MegaflowCache`
    (``metadata`` names the install, see :meth:`_ProbeWorld.install`;
    ``outcomes`` maps each installed path reference's ``id`` to the
    outcome it stands for)."""

    def name(row):
        return outcomes[id(cache._paths[row])].metadata

    return {
        "counters": (cache.invalidated, cache.installs, cache.evicted),
        "lru": [
            (cache._mask_sigs[cache._mask_of[row]], name(row)) for row in _lru(cache)
        ],
        "index": {
            mask: sorted(map(name, index.values()))
            for mask, index in cache._by_mask.items()
        },
        "probe_order": list(cache._by_mask),
    }


class _ProbeWorld:
    """A two-table pipeline and a megaflow tier holding hand-installed
    aggregates; built twice per example — around the real cache and
    around the per-packet model."""

    def __init__(self, aggregates, model=False, capacity=64):
        self.tables = [FlowTable(table_id=0), FlowTable(table_id=1)]
        self.flow_entries = []
        for table in self.tables:
            entry = output_entry(Match.exact(in_port=table.table_id), 1, 10)
            table.add(entry)
            self.flow_entries.append(entry)
        self.model = model
        self.cache = (
            _PerPacketMegaflow(capacity)
            if model
            else MegaflowCache(OpenFlowPipeline(self.tables), capacity=capacity)
        )
        self.installed = 0
        #: The outcome each path reference handed to the real cache
        #: stands for, by ``id`` (``paths`` keeps the ids unique).
        self.outcomes, self.paths = {}, []
        for mask_index, fields, deep in aggregates:
            self.install([(_PROBE_MASKS[mask_index], fields, deep)])

    def install(self, aggregates):
        """Install ``(mask, fields, deep)`` aggregates: one by one into
        the model, as one ``install_batch`` into the real cache."""
        visited, masks, outcomes = [], {}, []
        for mask, fields, deep in aggregates:
            visited.append(self.tables[: 2 if deep else 1])
            masks.setdefault(mask, len(masks))
            outcomes.append(self.outcome(visited[-1]))
        if self.model:
            for (mask, fields, _), path, outcome in zip(aggregates, visited, outcomes):
                self.cache.install(
                    mask, fields, outcome, [(table, table.version) for table in path]
                )
            return
        positions = np.arange(len(aggregates))
        paths = []
        for outcome in outcomes:
            path = ()
            for table_id, entry in zip(
                outcome.tables_visited, outcome.matched_entries
            ):
                path = (path, table_id, 0, entry)  # each table's one slot
            self.outcomes[id(path)] = outcome
            paths.append(path)
        self.paths += paths
        self.cache.install_batch(
            PacketBatch.from_dicts([fields for _, fields, _ in aggregates]),
            positions,
            list(masks),
            np.array([masks[mask] for mask, _, _ in aggregates], dtype=np.int64),
            paths,
            positions,
            _credit_lanes(outcomes, len(self.tables)),
            [tuple((table, table.version) for table in path) for path in visited],
        )

    def outcome(self, visited):
        deep = len(visited) == 2
        self.installed += 1
        return PathOutcome(
            matched_entries=tuple(self.flow_entries[: len(visited)]),
            applied_actions=(),
            output_ports=(),
            # Either flag set on one path shape, so the probe's traffic
            # credit is held to both.
            sent_to_controller=not deep,
            dropped=deep,
            # Names the aggregate in whatever shape a probe answers.
            metadata=self.installed,
            tables_visited=tuple(table.table_id for table in visited),
            overrides=(),
        )

    def state(self):
        state = (
            self.cache.state()
            if self.model
            else _cache_state(self.cache, self.outcomes)
        )
        state["flow_stats"] = [
            (entry.stats.packet_count, entry.stats.byte_count)
            for entry in self.flow_entries
        ]
        return state


#: Covered under both of the first two masks.
_BOTH = {"in_port": 1, "ipv4_dst": 0x0A000001, FRAME_LEN_FIELD: 64}


class TestProbeCreditEquivalence:
    """``probe`` over a columnar batch, with the outcome it returns
    credited, leaves exactly what probing the same packets one by one
    leaves (:class:`_PerPacketMegaflow`); the probe's own sums are each
    aggregate's packets and frame bytes, and the probe alone credits
    no flow stats.  The misses then install as one batch, which leaves
    what installing them one by one leaves — LRU order, index, probe
    order and every counter, evictions included — at capacities below
    one batch's installs too."""

    @settings(max_examples=300)
    @given(
        aggregates=st.lists(_probe_aggregate, min_size=1, max_size=8),
        pool=st.lists(_probe_packet, min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=24),
        stale=st.booleans(),
        capacity=st.sampled_from((1, 2, 3, 5, 64)),
    )
    # Equal headers under distinct frame lengths, one of them aliased.
    @example(
        aggregates=[(0, {"in_port": 1}, False)],
        pool=[
            {"in_port": 1, FRAME_LEN_FIELD: 64},
            {"in_port": 1, FRAME_LEN_FIELD: 1500},
            {"in_port": 1},
        ],
        picks=[0, 1, 0, 2, 1],
        stale=False,
        capacity=64,
    )
    # Absent fields: presence bit 0 is a key of its own, not value 0.
    @example(
        aggregates=[(0, {}, False), (0, {"in_port": 0}, False)],
        pool=[{"tcp_dst": 80}, {"in_port": 0}, {"in_port": 2}],
        picks=[0, 1, 2, 0],
        stale=False,
        capacity=64,
    )
    # Two masks cover the packet: the first in probe order wins,
    # whichever way round they were installed.
    @example(
        aggregates=[(1, _BOTH, False), (0, _BOTH, False)],
        pool=[_BOTH],
        picks=[0, 0],
        stale=False,
        capacity=64,
    )
    @example(
        aggregates=[(0, _BOTH, False), (1, _BOTH, False)],
        pool=[_BOTH],
        picks=[0, 0],
        stale=False,
        capacity=64,
    )
    # A stale aggregate shared by several positions, shadowing a fresh
    # one under a later mask: one invalidation, the sharers fall through.
    @example(
        aggregates=[(1, _BOTH, True), (0, _BOTH, False)],
        pool=[_BOTH, {"in_port": 1, "ipv4_dst": 0x0A000002}, {"in_port": 2}],
        picks=[0, 1, 2, 0, 1],
        stale=True,
        capacity=64,
    )
    # ... and with nothing behind it: every sharer misses.
    @example(
        aggregates=[(2, {"ipv4_dst": 0x0A000001, "tcp_dst": 80}, True)],
        pool=[{"ipv4_dst": 0x0A000002, "tcp_dst": 80, FRAME_LEN_FIELD: 576}],
        picks=[0, 0, 0],
        stale=True,
        capacity=64,
    )
    # One batch installs more than the capacity, and an aggregate
    # evicted earlier in the batch is installed again later in it: a
    # fresh install (one more eviction), not a replacement.
    @example(
        aggregates=[(0, {"in_port": 2}, False)],
        pool=[{"in_port": 0}, {"in_port": 1}, {"in_port": 0}],
        picks=[0, 1, 2, 0, 1, 2],
        stale=False,
        capacity=1,
    )
    # A mask loses its last aggregate to an eviction mid-batch and
    # re-enters at the back of the probe order.
    @example(
        aggregates=[(0, {"in_port": 2}, False), (2, {"tcp_dst": 80}, False)],
        pool=[{"ipv4_dst": 0x0B000001}, {"in_port": 1}, {"tcp_dst": 443}],
        picks=[0, 1, 2],
        stale=False,
        capacity=2,
    )
    def test_matches_per_packet_lookup(
        self, aggregates, pool, picks, stale, capacity
    ):
        packets = [pool[pick % len(pool)] for pick in picks]
        columnar = _ProbeWorld(aggregates, capacity=capacity)
        scalar = _ProbeWorld(aggregates, model=True, capacity=capacity)
        if stale:
            for world in (columnar, scalar):
                world.tables[1].add(output_entry(Match.exact(in_port=9), 2, 30))
        # Round two re-probes after the misses were re-installed, so a
        # drop that left the index or the LRU behind would show.
        stats = BatchStats()
        for credits in (1, 2):
            batch = PacketBatch.from_dicts(packets)
            flow_stats = columnar.state()["flow_stats"]
            found, gathered, codes, missed = columnar.cache.probe(batch)
            assert columnar.state()["flow_stats"] == flow_stats
            replayed = [scalar.cache.lookup(fields) for fields in packets]
            outcomes = [columnar.outcomes[id(path)] for path in found]
            assert [
                None if code < 0 else outcomes[code].metadata
                for code in codes.tolist()
            ] == [None if result is None else result.metadata for result in replayed]
            assert missed.tolist() == [
                i for i, result in enumerate(replayed) if result is None
            ]
            # Every aggregate found is hit, once in the list.
            assert sorted(set(codes[codes >= 0].tolist())) == list(range(len(found)))
            assert len({id(entry) for entry in found}) == len(found)
            # The hit positions credited as the runner credits them:
            # per aggregate, from the code lane and the frame_len lane.
            hit = np.flatnonzero(codes >= 0)
            # A hit's credit lanes come off its row: what the outcome says.
            assert np.array_equal(gathered, _credit_lanes(outcomes, 2))
            credit_outcomes(
                stats,
                ColumnarOutcomes(
                    batch.select(hit),
                    columnar.cache.pipeline,
                    found,
                    codes[hit],
                    gathered,
                ),
            )
            # The model credits one packet at a time, so it counts no
            # batch; each credit counts one.
            assert stats == replace(scalar.cache.stats, batches=credits)
            assert columnar.state() == scalar.state()
            misses = [
                (_PROBE_MASKS[position % len(_PROBE_MASKS)], packets[position], False)
                for position in missed.tolist()
            ]
            if misses:
                for world in (columnar, scalar):
                    world.install(misses)
            assert columnar.state() == scalar.state()

    def test_stale_aggregate_shared_by_positions_drops_once(self):
        world = _ProbeWorld([(2, {"ipv4_dst": 0x0A000001, "tcp_dst": 80}, True)])
        world.tables[1].add(output_entry(Match.exact(in_port=9), 2, 30))
        packets = [
            {"ipv4_dst": 0x0A000002, "tcp_dst": 80, FRAME_LEN_FIELD: length}
            for length in (64, 576, 1500)
        ]
        batch = PacketBatch.from_dicts(packets)
        found, _, codes, missed = world.cache.probe(batch)
        assert found == [] and codes.tolist() == [-1, -1, -1]
        assert missed.tolist() == [0, 1, 2]
        assert world.state()["flow_stats"] == [(0, 0), (0, 0)]
        cache = world.cache
        assert (cache.invalidated, len(missed), len(batch) - len(missed)) == (1, 3, 0)
        assert len(cache) == 0 and not cache._by_mask


def _fuzz_rule_pool():
    """A small overlapping rule pool over (in_port, ipv4_dst)."""
    pool = []
    prefixes = [
        (0x0A000000, 8),
        (0x0A010000, 16),
        (0x0A010100, 24),
        (0x0B000000, 8),
        (0x00000000, 0),
    ]
    port = 1
    for value, length in prefixes:
        for in_port in (None, 1, 2):
            fields = {"ipv4_dst": PrefixMatch(value, length, 32)}
            if in_port is not None:
                fields["in_port"] = ExactMatch(in_port, 32)
            pool.append(
                FlowEntry.build(
                    match=Match(fields),
                    priority=length + (2 if in_port is not None else 0),
                    instructions=[WriteActions([OutputAction(port)])],
                )
            )
            port += 1
    return pool


def _fuzz_packets(rng, count):
    bases = [0x0A000000, 0x0A010000, 0x0A010100, 0x0B000000, 0x0C000000]
    packets = []
    for _ in range(count):
        base = bases[int(rng.integers(0, len(bases)))]
        noise = int(rng.integers(0, 1 << 16))
        packets.append(
            {
                "in_port": int(rng.integers(1, 4)),
                "ipv4_dst": base | noise,
                "tcp_src": int(rng.integers(0, 1 << 16)),
            }
        )
    return packets


def test_stacked_cache_churn_differential_fuzz():
    """Differential churn fuzz (ISSUE satellite): megaflow+microflow
    stacked over the decomposition table must agree with the reference
    scan table under interleaved add/remove/lookup, packet for packet."""
    rng = np.random.default_rng(0xF00D)
    pool = _fuzz_rule_pool()
    schema = ("in_port", "ipv4_dst", "tcp_src")

    lookup_table = OpenFlowLookupTable(schema, table_id=0)
    scan_table = FlowTable(table_id=0)
    cached = BatchPipeline(
        MultiTableLookupArchitecture([lookup_table]),
        cache_capacity=64,
        megaflow_capacity=128,
    )
    reference = OpenFlowPipeline([scan_table])

    installed: list[FlowEntry] = []
    for entry in pool[: len(pool) // 2]:
        lookup_table.add(entry)
        scan_table.add(entry)
        installed.append(entry)

    for _ in range(60):
        op = rng.random()
        if op < 0.25 and len(installed) < len(pool):
            candidates = [e for e in pool if e not in installed]
            entry = candidates[int(rng.integers(0, len(candidates)))]
            lookup_table.add(entry)
            scan_table.add(entry)
            installed.append(entry)
        elif op < 0.45 and installed:
            entry = installed.pop(int(rng.integers(0, len(installed))))
            assert lookup_table.remove(entry.match, entry.priority)
            assert scan_table.remove(entry.match, entry.priority)
        batch = _fuzz_packets(rng, 24)
        got = cached.process_batch(batch)
        expected = [reference.process(fields) for fields in batch]
        for a, b in zip(got, expected):
            assert_same_result(a, b)
    stats = cached.stats_snapshot()
    assert stats.megaflow_hits > 0, "fuzz must exercise the megaflow tier"
    assert cached.megaflow.invalidated > 0, "fuzz must exercise invalidation"
