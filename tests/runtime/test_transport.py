"""Shared-memory transport: codec roundtrips, block growth, entry refs
and the flow-stats delta protocol — all in-process (no workers), so
failures localise to the transport rather than the sharded runner."""

import numpy as np
import pytest

from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import CONTROLLER_PORT, OutputAction, SetFieldAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match
from repro.openflow.pipeline import MissPolicy, OpenFlowPipeline
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD, transport_schema
from repro.runtime.batch import (
    BatchPipeline,
    BatchStats,
    ColumnarOutcomes,
    credit_outcomes,
)
from repro.runtime.transport import (
    BlockReader,
    BlockWriter,
    MIN_BLOCK_BYTES,
    PacketBlockCodec,
    REPLY_COUNTERS,
    ReplyDecodeError,
    SharedBlock,
    decode_outcomes,
    encode_outcomes,
)


def pin(pipeline):
    """Every table's entry order, frozen as the sharded runner pins it
    at submission."""
    return {table.table_id: table.entries_snapshot() for table in pipeline.tables}


def roundtrip(batch, positions=None):
    codec = PacketBlockCodec()
    writer = BlockWriter()
    layout = codec.encode_batch(
        writer, PacketBatch.from_dicts(batch, codec.field_bits), "pkt"
    )
    block = SharedBlock()
    try:
        block.ensure(writer.nbytes)
        segments = writer.write_to(block.buf)
        reader = BlockReader(block.buf, segments)
        decoded = codec.decode(reader, layout, positions)
        del reader  # release numpy views before unmapping
        return decoded
    finally:
        block.close()


class TestPacketBlockCodec:
    def test_roundtrip_identity(self):
        batch = [
            {"in_port": 3, "ipv4_dst": 0x0A000001, "tcp_dst": 80},
            {"in_port": 4, "ipv4_dst": 0xFFFFFFFF, "tcp_dst": 65535},
        ]
        assert roundtrip(batch) == batch

    def test_missing_fields_roundtrip(self):
        batch = [
            {"in_port": 1, "ipv4_dst": 2},
            {"in_port": 2},  # no ipv4_dst: non-IP packet
            {"eth_type": 0x0806},
        ]
        assert roundtrip(batch) == batch

    def test_wide_fields_use_multiple_lanes(self):
        """IPv6 addresses (128 bits) exceed one uint64 lane."""
        batch = [
            {"ipv6_src": (1 << 127) | 5, "ipv6_dst": (1 << 128) - 1},
            {"ipv6_src": 7, "ipv6_dst": 0},
        ]
        assert roundtrip(batch) == batch

    def test_unknown_field_wider_than_advertised(self):
        """A field outside the schema defaults to one lane but must
        still roundtrip when its values need more."""
        batch = [{"x_custom": (1 << 100) + 3}, {"x_custom": 1}]
        assert roundtrip(batch) == batch

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            roundtrip([{"x_custom": 1 << 70}, {"x_custom": -1}])

    def test_duplicate_dicts_encoded_once_and_realiased(self):
        flow = {"in_port": 9, "ipv4_dst": 1}
        other = {"in_port": 9, "ipv4_dst": 1}  # equal but distinct object
        batch = [flow, flow, other, flow]
        codec = PacketBlockCodec()
        writer = BlockWriter()
        layout = codec.encode_batch(
            writer, PacketBatch.from_dicts(batch, codec.field_bits), "pkt"
        )
        assert layout.rows == 2  # identity-deduped, not value-deduped
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            reader = BlockReader(block.buf, writer.write_to(block.buf))
            decoded = codec.decode(reader, layout)
            del reader
        finally:
            block.close()
        assert decoded == batch
        # Aliasing is rebuilt: duplicates share one dict object, so
        # downstream per-batch memoization sees the same shape.
        assert decoded[0] is decoded[1] is decoded[3]
        assert decoded[2] is not decoded[0]

    def test_position_subset_decodes_members_only(self):
        batch = [{"in_port": i} for i in range(10)]
        members = [7, 2, 2, 9]
        assert roundtrip(batch, np.asarray(members)) == [
            batch[i] for i in members
        ]

    def test_empty_batch(self):
        assert roundtrip([]) == []

    def test_schema_orders_canonical_fields_first(self):
        schema = list(transport_schema())
        assert schema.index("eth_dst") < schema.index("in_port")
        codec = PacketBlockCodec()
        writer = BlockWriter()
        batch = PacketBatch.from_dicts(
            [{"zzz_extra": 1, "eth_dst": 2, "in_port": 3}], codec.field_bits
        )
        layout = codec.encode_batch(writer, batch, "pkt")
        names = [column.name for column in layout.fields]
        assert names == ["eth_dst", "in_port", "zzz_extra"]


class TestSharedBlock:
    def test_grows_by_recreation(self):
        block = SharedBlock()
        try:
            block.ensure(10)
            first = block.name
            assert len(block.buf) >= MIN_BLOCK_BYTES
            block.ensure(MIN_BLOCK_BYTES * 3)
            assert block.name != first
            assert len(block.buf) >= MIN_BLOCK_BYTES * 3
        finally:
            block.close()

    def test_close_idempotent(self):
        block = SharedBlock()
        block.ensure(10)
        block.close()
        block.close()

    def test_close_unlinks_the_segment(self):
        import multiprocessing.shared_memory as shared_memory

        block = SharedBlock()
        block.ensure(10)
        name = block.name
        block.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_abandoned_block_is_unlinked_by_the_finalizer(self):
        """The interrupted-run guard: dropping a block without close()
        must still unlink the segment at GC, not strand it in /dev/shm
        until reboot."""
        import gc
        import multiprocessing.shared_memory as shared_memory

        block = SharedBlock()
        block.ensure(10)
        name = block.name
        del block
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_growth_unlinks_the_outgrown_segment(self):
        import multiprocessing.shared_memory as shared_memory

        block = SharedBlock()
        try:
            block.ensure(10)
            first = block.name
            block.ensure(MIN_BLOCK_BYTES * 3)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first)
        finally:
            block.close()


class TestResultBlocks:
    """The worker reply path in-process: ``classify_columnar`` →
    ``encode_outcomes`` → ``decode_outcomes``, the replica standing in
    for a worker and a second, identically built pipeline for the
    parent — whose pinned entries the refs must resolve to, whose
    executor the decode replays them through, and whose own ``process``
    is the oracle every decoded result is compared with."""

    FRAME = 100
    POLICIES = [MissPolicy.SEND_TO_CONTROLLER, MissPolicy.DROP]

    def make_pipeline(self, miss_policy=MissPolicy.SEND_TO_CONTROLLER):
        """Three tables, every way a path can end: a terminal match
        (with and without rewrites, with and without an output), a
        goto chain that rewrites a field the next table matches on and
        clears the action set on the way, a miss *after* a match (the
        accumulated set is discarded) and a first-table miss."""
        tables = [
            OpenFlowLookupTable(schema, table_id=i)
            for i, schema in enumerate(
                [("in_port",), ("vlan_vid", "tcp_dst"), ("metadata",)]
            )
        ]
        entries = [
            FlowEntry.build(
                match=Match.exact(in_port=1),
                priority=1,
                instructions=[WriteActions([OutputAction(101)])],
            ),
            FlowEntry.build(
                match=Match.exact(in_port=2),
                priority=2,
                instructions=[
                    WriteActions(
                        [SetFieldAction("vlan_vid", 42), OutputAction(102)]
                    ),
                    WriteMetadata(9),
                ],
            ),
            # Matches, executes nothing: an empty path outcome (no
            # action, no output port: dropped) must survive the codec.
            FlowEntry.build(match=Match.exact(in_port=3), priority=3),
            FlowEntry.build(
                match=Match.exact(in_port=4),
                priority=4,
                instructions=[
                    ApplyActions([SetFieldAction("vlan_vid", 5)]),
                    WriteActions([OutputAction(104)]),
                    WriteMetadata(0x30, 0xF0),
                    GotoTable(1),
                ],
            ),
        ]
        for entry in entries:
            tables[0].add(entry)
        # Matches the value table 0 *rewrote*; drops table 0's output.
        tables[1].add(
            FlowEntry.build(
                match=Match.exact(vlan_vid=5, tcp_dst=80),
                priority=1,
                instructions=[
                    ClearActions(),
                    WriteActions([SetFieldAction("ip_dscp", 7)]),
                    WriteMetadata(0x1, 0xF),
                    GotoTable(2),
                ],
            )
        )
        tables[2].add(
            FlowEntry.build(
                match=Match.exact(metadata=0x31),
                priority=1,
                instructions=[WriteActions([OutputAction(301)])],
            )
        )
        return OpenFlowPipeline(tables, miss_policy=miss_policy), entries

    def packets(self):
        return [
            {"in_port": 1, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            {"in_port": 2, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            {"in_port": 9, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            {"in_port": 1, "vlan_vid": 8, FRAME_LEN_FIELD: 3 * self.FRAME},
            {"in_port": 3, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            # 0 -> 1 -> 2, every table matching.
            {"in_port": 4, "vlan_vid": 7, "tcp_dst": 80, FRAME_LEN_FIELD: 60},
            # 0 -> 1, missing there after table 0 wrote an output.
            {"in_port": 4, "vlan_vid": 7, "tcp_dst": 22, FRAME_LEN_FIELD: 60},
        ]

    def reply(self, runner, packets, parent, pinned):
        """One worker round: classify, encode into a block, decode
        against ``pinned`` through ``parent``; returns the outcomes the
        worker encoded from, the block's lane keys, the decoded reply,
        and the outcomes the parent would hand back."""
        batch = PacketBatch.from_dicts(packets)
        before = runner.stats_snapshot()
        outcomes = runner.classify_columnar(batch)
        caused = runner.stats_snapshot().since(before)
        writer = BlockWriter()
        encode_outcomes(
            writer,
            outcomes,
            runner.pipeline,
            [getattr(caused, name) for name in REPLY_COUNTERS],
        )
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            segments = writer.write_to(block.buf)
            reader = BlockReader(block.buf, segments)
            decoded = decode_outcomes(reader, parent, pinned, len(packets))
            del reader  # release numpy views before unmapping
        finally:
            block.close()
        rebuilt = ColumnarOutcomes(batch, decoded.traversals, decoded.codes)
        return outcomes, [segment.key for segment in segments], decoded, rebuilt

    def test_results_roundtrip_via_entry_refs(self):
        for miss_policy in self.POLICIES:
            self.roundtrip_via_entry_refs(miss_policy)

    def roundtrip_via_entry_refs(self, miss_policy):
        """Wave-classified rows (cold caches) and megaflow-hit rows (the
        same batch again) both decode to exactly what the parent's own
        ``process`` returns — the parent's own entries included, through
        an order pinned *before* a mutation — positions sharing a
        traversal decode to one shared object, and crediting the decoded
        outcome grows the parent's entries exactly as classifying grew
        the replica's."""
        replica, replica_entries = self.make_pipeline(miss_policy)
        parent, parent_entries = self.make_pipeline(miss_policy)
        runner = BatchPipeline(replica, cache_capacity=16, megaflow_capacity=32)
        pinned = pin(parent)
        # Moves in_port=1's entry from position 0 to the end of the
        # parent's table; the pinned order must not care.
        parent.table(0).remove(parent_entries[0].match, 1)
        parent.table(0).add(parent_entries[0])
        packets = self.packets()
        oracle = [parent.process(packet) for packet in packets]
        def counts(entries):
            return [(e.stats.packet_count, e.stats.byte_count) for e in entries]

        def growth(was, entries):
            return [
                (now[0] - then[0], now[1] - then[1])
                for then, now in zip(was, counts(entries))
            ]

        for expect_hits in (False, True):
            replica_was = counts(replica_entries)
            hits_before = runner.megaflow.hits
            outcomes, keys, decoded, rebuilt = self.reply(
                runner, packets, parent, pinned
            )
            # Hits and misses share one outcome shape; the tier's own
            # counter says which round this was.
            assert runner.megaflow.hits - hits_before == (
                len(packets) if expect_hits else 0
            )
            assert keys == [
                "res/codes",
                "res/matched/offsets",
                "res/matched/values",
                "res/stats",
            ]
            # The counts the request caused, in REPLY_COUNTERS order:
            # every position a megaflow hit or miss, by round.
            hits, misses = decoded.counters[2:4]
            assert (hits, misses) == (
                (len(packets), 0) if expect_hits else (0, len(packets))
            )
            got_results = rebuilt.results()
            assert got_results == oracle
            for original, got, want in zip(
                outcomes.results(), got_results, oracle, strict=True
            ):
                # The worker's own view differs only in whose entries
                # its results name: the replica's, rule for rule.
                assert (
                    [(e.match, e.priority) for e in original.matched_entries]
                    == [(e.match, e.priority) for e in got.matched_entries]
                )
                # Matched entries resolved to the *pinned* (parent)
                # objects, and every action an entry contributed is
                # that entry's own object — nothing was unpickled.
                assert all(
                    a is b
                    for a, b in zip(
                        got.matched_entries, want.matched_entries, strict=True
                    )
                )
                own = {
                    id(action)
                    for entry in got.matched_entries
                    for action in (
                        *entry.instructions.compiled.apply,
                        *entry.instructions.compiled.write,
                    )
                }
                assert all(
                    id(action) in own
                    for action in got.applied_actions
                    if action != OutputAction(CONTROLLER_PORT)  # the policy's
                )
            # Six distinct traversals over seven positions: positions 0
            # and 3 took the same path and decode to ONE shared object.
            assert len(decoded.traversals) == 6
            assert decoded.codes.tolist() == [0, 1, 2, 0, 3, 4, 5]
            assert rebuilt.traversals[rebuilt.codes[0]] is rebuilt.traversals[
                rebuilt.codes[3]
            ]
            assert rebuilt[0].matched_entries[0] is parent_entries[0]
            assert rebuilt[1].matched_entries[0] is parent_entries[1]
            assert rebuilt[3].matched_entries[0] is parent_entries[0]
            assert rebuilt[4].matched_entries[0] is parent_entries[2]
            # A first-table miss: no matched entry (an empty ragged
            # row); the miss policy alone decides the outcome.
            assert rebuilt[2].matched_entries == []
            to_controller = miss_policy is MissPolicy.SEND_TO_CONTROLLER
            assert rebuilt[2].sent_to_controller is to_controller
            assert rebuilt[2].dropped is not to_controller
            # A match that executes nothing: empty action and port
            # lists, dropped.
            assert rebuilt[4].applied_actions == []
            assert rebuilt[4].output_ports == []
            assert rebuilt[4].dropped
            # The full chain: table 1 cleared table 0's output, table 2
            # matched the metadata both earlier tables composed.
            assert rebuilt[5].tables_visited == [0, 1, 2]
            assert rebuilt[5].output_ports == [301]
            assert rebuilt[5].metadata == 0x31
            assert rebuilt[5].final_fields == dict(
                packets[5], vlan_vid=5, ip_dscp=7, metadata=0x31
            )
            # A miss after a match discards the accumulated action set:
            # table 0's Output(104) never runs, its applied set-field
            # did.
            assert rebuilt[6].tables_visited == [0, 1]
            assert rebuilt[6].matched_entries == [parent_entries[3]]
            assert 104 not in rebuilt[6].output_ports
            assert rebuilt[6].final_fields["vlan_vid"] == 5
            # The parent counts packets and frame bytes itself, from the
            # codes and its own frame_len lane: its entries grow exactly
            # as the replica's did.
            parent_was = counts(parent_entries)
            credit_outcomes(BatchStats(), rebuilt)
            assert (
                growth(parent_was, parent_entries)
                == growth(replica_was, replica_entries)
                == [
                    (2, 4 * self.FRAME),
                    (1, self.FRAME),
                    (1, self.FRAME),
                    (2, 120),
                ]
            )

    def test_results_against_inputs_ship_only_overrides(self):
        for miss_policy in self.POLICIES:
            self.rewrites_come_from_the_replay(miss_policy)

    def rewrites_come_from_the_replay(self, miss_policy):
        """Final fields do not travel at all: a traversal's rewrites
        are what replaying its entries from empty fields leaves behind,
        and materialisation rebuilds each packet from the parent's own
        copy plus those — from the walk's path on a miss, from the
        megaflow entry's recorded path on a hit."""
        replica, _ = self.make_pipeline(miss_policy)
        parent, _ = self.make_pipeline(miss_policy)
        runner = BatchPipeline(replica, cache_capacity=16, megaflow_capacity=32)
        pinned = pin(parent)
        packets = [self.packets()[i] for i in (0, 1, 5, 6)] * 2
        oracle = [parent.process(packet) for packet in packets]
        for _ in ("waves", "megaflow hits"):
            _, _, decoded, rebuilt = self.reply(
                runner, packets, parent, pinned
            )
            assert len(rebuilt) == 8
            # First-write order: Write-Metadata runs at its entry, a
            # Write-Actions set-field only once the path ends.
            assert [t.outcome.overrides for t in decoded.traversals] == [
                (),
                (("metadata", 9), ("vlan_vid", 42)),
                (("vlan_vid", 5), ("metadata", 0x31), ("ip_dscp", 7)),
                (("vlan_vid", 5), ("metadata", 0x30)),
            ]
            assert rebuilt.results() == oracle
            assert rebuilt[0].final_fields == packets[0]
            assert rebuilt[0].final_fields is not packets[0]  # fresh dict
            assert rebuilt[5].final_fields == dict(
                packets[1], vlan_vid=42, metadata=9
            )

    def test_all_distinct_batch_roundtrips(self):
        for miss_policy in self.POLICIES:
            self.all_distinct_batch_roundtrips(miss_policy)

    def all_distinct_batch_roundtrips(self, miss_policy):
        """The codec's worst case — every position its own traversal —
        is just T == n: codes are the identity and nothing is shared."""
        first = OpenFlowLookupTable(("in_port",), table_id=0)
        second = OpenFlowLookupTable(("metadata",), table_id=1)
        for port in range(1, 9):
            first.add(
                FlowEntry.build(
                    match=Match.exact(in_port=port),
                    priority=port,
                    instructions=[
                        WriteActions([OutputAction(100 + port)]),
                        WriteMetadata(port),
                        GotoTable(1),
                    ],
                )
            )
            if port % 2:  # even ports miss in the second table
                second.add(
                    FlowEntry.build(
                        match=Match.exact(metadata=port),
                        priority=port,
                        instructions=[
                            ApplyActions([SetFieldAction("vlan_vid", port)])
                        ],
                    )
                )
        pipeline = OpenFlowPipeline([first, second], miss_policy=miss_policy)
        runner = BatchPipeline(pipeline, cache_capacity=16, megaflow_capacity=32)
        packets = [
            {"in_port": port, FRAME_LEN_FIELD: 60 + port}
            for port in range(1, 9)
        ]
        outcomes, _, decoded, rebuilt = self.reply(
            runner, packets, pipeline, pin(pipeline)
        )
        assert decoded.codes.tolist() == list(range(8))
        assert len(decoded.traversals) == 8
        was = [(e.stats.packet_count, e.stats.byte_count) for e in first]
        credit_outcomes(BatchStats(), rebuilt)
        assert [
            (e.stats.packet_count - packets, e.stats.byte_count - octets)
            for e, (packets, octets) in zip(first, was)
        ] == [(1, 61 + i) for i in range(8)]
        assert rebuilt.results() == outcomes.results()
        assert rebuilt.results() == [pipeline.process(p) for p in packets]


class TestReplyFailsClosed:
    """A reply block that does not fit its batch raises one classified
    error at decode — never an ``IndexError`` at first read, never a
    silently wrong template."""

    def encoded(self):
        """Two tables.  Port 1 chains 0 -> 1 and ends there; port 7
        misses table 0; table 0's port-2 entry (which outranks port 1's,
        so it is position 0) ends its path at once and no packet takes
        it.  Intact, the matched lane reads ``[0, 1, 1, 0]`` for the
        chain and nothing for the miss."""
        first = OpenFlowLookupTable(("in_port",), table_id=0)
        second = OpenFlowLookupTable(("in_port",), table_id=1)
        first.add(
            FlowEntry.build(
                match=Match.exact(in_port=2),
                priority=2,
                instructions=[WriteActions([OutputAction(102)])],
            )
        )
        first.add(
            FlowEntry.build(
                match=Match.exact(in_port=1),
                priority=1,
                instructions=[WriteActions([OutputAction(101)]), GotoTable(1)],
            )
        )
        second.add(FlowEntry.build(match=Match.exact(in_port=1), priority=1))
        pipeline = OpenFlowPipeline([first, second])
        runner = BatchPipeline(pipeline, cache_capacity=16, megaflow_capacity=32)
        packets = [{"in_port": 1}, {"in_port": 7}, {"in_port": 1}]
        outcomes = runner.classify_columnar(PacketBatch.from_dicts(packets))
        stats = runner.stats_snapshot()
        writer = BlockWriter()
        encode_outcomes(
            writer,
            outcomes,
            pipeline,
            [getattr(stats, name) for name in REPLY_COUNTERS],
        )
        block = bytearray(writer.nbytes)
        segments = writer.write_to(memoryview(block))
        return block, segments, pipeline, pin(pipeline)

    def decode(self, block, segments, pipeline, pinned, expected=3):
        return decode_outcomes(
            BlockReader(memoryview(block), segments), pipeline, pinned, expected
        )

    def lane(self, block, segments, key):
        return BlockReader(memoryview(block), segments).get(key)

    def clipped(self, segments, key):
        return tuple(
            segment._replace(count=segment.count - 1)
            if segment.key == key
            else segment
            for segment in segments
        )

    def test_intact_block_decodes(self):
        block, segments, *rest = self.encoded()
        decoded = self.decode(block, segments, *rest)
        assert decoded.codes.tolist() == [0, 1, 0]
        assert self.lane(block, segments, "res/matched/values").tolist() == [
            0, 1, 1, 0
        ]
        assert decoded.traversals[0].outcome.tables_visited == (0, 1)
        assert decoded.traversals[1].outcome.tables_visited == (0,)
        # Cold caches: five microflow misses (three positions at table
        # 0, two at table 1), three megaflow misses, two waves.
        assert decoded.counters == [0, 5, 0, 3, 2]

    @pytest.mark.parametrize(
        "counter, value",
        [
            ("cache_hits", -1),
            ("megaflow_hits", 1),
            ("megaflow_misses", 2),
            ("cache_misses", 7),
            ("waves", 3),
        ],
    )
    def test_counters_the_sub_batch_could_not_cause(self, counter, value):
        """Three positions through two tables: the megaflow tier probed
        all three or none, the microflow caches saw at most six
        lookups, the walk ran at most two waves, and nothing counts
        below zero."""
        block, segments, *rest = self.encoded()
        self.lane(block, segments, "res/stats")[
            REPLY_COUNTERS.index(counter)
        ] = value
        with pytest.raises(ReplyDecodeError, match="cannot come from 3 positions"):
            self.decode(block, segments, *rest)

    @pytest.mark.parametrize("bad", [-1, 2, 1 << 20])
    def test_code_outside_the_templates(self, bad):
        block, segments, *rest = self.encoded()
        self.lane(block, segments, "res/codes")[1] = bad
        with pytest.raises(ReplyDecodeError, match="codes span"):
            self.decode(block, segments, *rest)

    @pytest.mark.parametrize("expected", [2, 4])
    def test_code_lane_length_differs_from_member_count(self, expected):
        with pytest.raises(ReplyDecodeError, match="code lane"):
            self.decode(*self.encoded(), expected=expected)

    def test_truncated_code_lane(self):
        """The lane itself shorter than the sub-batch (a stale or
        clipped segment), member count notwithstanding."""
        block, segments, *rest = self.encoded()
        with pytest.raises(ReplyDecodeError, match="code lane"):
            self.decode(block, self.clipped(segments, "res/codes"), *rest)

    @pytest.mark.parametrize("ref", [(0, 2), (0, -1), (3, 0)])
    def test_matched_ref_outside_the_pinned_snapshot(self, ref):
        block, segments, *rest = self.encoded()
        self.lane(block, segments, "res/matched/values")[:2] = ref
        with pytest.raises(ReplyDecodeError, match="pinned snapshot"):
            self.decode(block, segments, *rest)

    @pytest.mark.parametrize(
        "values, offsets",
        [([1, 0, 0, 1], [0, 2, 4]), ([0, 1, 0, 0], [0, 4, 4])],
        ids=["path-starts-past-the-first-table", "goto-not-followed"],
    )
    def test_matched_refs_that_do_not_chain(self, values, offsets):
        """Ref k must sit in the table the path has reached: the first
        table, then each entry's own Goto-Table.  Every ref here names
        a real pinned entry — one of them in the wrong table."""
        block, segments, *rest = self.encoded()
        self.lane(block, segments, "res/matched/values")[:] = values
        self.lane(block, segments, "res/matched/offsets")[:] = offsets
        with pytest.raises(ReplyDecodeError, match="do not chain"):
            self.decode(block, segments, *rest)

    def test_matched_ref_after_the_path_has_ended(self):
        """Table 0's port-2 entry has no Goto-Table: a ref behind it
        names an entry no packet on that path could have reached."""
        block, segments, *rest = self.encoded()
        self.lane(block, segments, "res/matched/values")[1] = 0
        with pytest.raises(ReplyDecodeError, match="past the end"):
            self.decode(block, segments, *rest)

    def test_matched_refs_that_are_not_pairs(self):
        """One value shaved off the ref lane (and the offsets with it):
        a lone table id must not resolve to anything."""
        block, segments, *rest = self.encoded()
        offsets = self.lane(block, segments, "res/matched/offsets")
        offsets[1:] -= 1
        with pytest.raises(ReplyDecodeError, match="pairs"):
            self.decode(
                block, self.clipped(segments, "res/matched/values"), *rest
            )

    def test_template_lane_of_the_wrong_length(self):
        """The counter lane must hold one value per counter — with every
        code naming traversal 0, so only its length is wrong.  The
        traversal count is what the offsets lane partitions, so no other
        lane can disagree with it."""
        block, segments, *rest = self.encoded()
        self.lane(block, segments, "res/codes")[:] = 0
        with pytest.raises(ReplyDecodeError, match="the reply needs"):
            self.decode(block, self.clipped(segments, "res/stats"), *rest)

    def test_empty_offsets_lane(self):
        """An offsets lane holds at least its closing offset: an empty
        one is refused, never read as a reply with no traversals."""
        block, segments, *rest = self.encoded()
        with pytest.raises(ReplyDecodeError, match="res/matched offsets"):
            self.decode(
                block,
                self.patched(segments, "res/matched/offsets", count=0),
                *rest,
            )

    LANES = (
        "res/codes",
        "res/matched/offsets",
        "res/matched/values",
        "res/stats",
    )

    def patched(self, segments, key, **fields):
        return tuple(
            segment._replace(**fields) if segment.key == key else segment
            for segment in segments
        )

    @pytest.mark.parametrize("key", LANES)
    def test_missing_lane(self, key):
        """A segment table that leaves a lane out names no view to read."""
        block, segments, *rest = self.encoded()
        kept = tuple(segment for segment in segments if segment.key != key)
        with pytest.raises(ReplyDecodeError, match=f"no .* {key} lane"):
            self.decode(block, kept, *rest)

    @pytest.mark.parametrize("key", LANES)
    def test_offset_past_the_block(self, key):
        block, segments, *rest = self.encoded()
        with pytest.raises(ReplyDecodeError, match=f"{key} lies outside"):
            self.decode(
                block, self.patched(segments, key, offset=len(block)), *rest
            )

    @pytest.mark.parametrize("key", LANES)
    def test_count_past_the_block(self, key):
        block, segments, *rest = self.encoded()
        with pytest.raises(ReplyDecodeError, match=f"{key} lies outside"):
            self.decode(
                block, self.patched(segments, key, count=len(block)), *rest
            )

    @pytest.mark.parametrize("dtype", ["<f4", "<u4", "<i8", ">i4", "|u1"])
    @pytest.mark.parametrize("key", LANES)
    def test_wrong_dtype(self, key, dtype):
        """A retyped lane would read the same bytes as other numbers —
        a float code lane over ``[0, 1, 0]`` reads ``[0, 0, 0]`` — so a
        lane in any dtype but its own is refused, never reinterpreted."""
        block, segments, *rest = self.encoded()
        original = next(s.dtype for s in segments if s.key == key)
        if dtype == original:
            dtype = "<f8"
        with pytest.raises(ReplyDecodeError, match=f"no .* {key} lane"):
            self.decode(
                block, self.patched(segments, key, dtype=dtype), *rest
            )

    def test_ragged_offsets_that_do_not_partition(self):
        for at, bad in ((1, 9), (0, 2), (2, 2)):
            block, segments, *rest = self.encoded()
            self.lane(block, segments, "res/matched/offsets")[at] = bad
            with pytest.raises(ReplyDecodeError, match="res/matched offsets"):
                self.decode(block, segments, *rest)


class TestEntryIndex:
    """Entry refs resolve through the table's one ``id(entry) ->
    position`` map (``entry_positions()``), kept beside the
    ``entries_snapshot()`` it indexes and rebuilt once per version."""

    def test_refs_track_mutations(self):
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        first = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        second = FlowEntry.build(match=Match.exact(in_port=2), priority=2)
        table.add(first)
        table.add(second)
        positions = table.entry_positions()
        assert positions == {id(first): 0, id(second): 1}
        assert table.entry_positions() is positions  # one map per version
        table.remove(first.match, first.priority)
        # Refreshed on version: the map follows the new snapshot.
        assert table.entry_positions() == {id(second): 0}
        assert table.entries_snapshot()[0] is second

    def test_pin_freezes_order_across_mutation(self):
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        pipeline = OpenFlowPipeline([table])
        entry = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        table.add(entry)
        pinned = pin(pipeline)
        # Removing the entry and installing another *after* the pin
        # moves position 0, but ref resolution against the pin is
        # unaffected.
        table.remove(entry.match, entry.priority)
        table.add(FlowEntry.build(match=Match.exact(in_port=2), priority=99))
        assert table.entries_snapshot()[0] is not entry
        assert pinned[0][0] is entry

    def test_delta_apply_updates_pinned_entries(self):
        """A reply's delta lanes (packets, frame bytes per traversal)
        fold into the pinned — authoritative — entries the traversals
        matched, and into the parent runner's own flow counters.  The
        shard is degraded, so the reply is the inline one: the same
        block a worker would write, in the same reply region."""
        from repro.runtime.shard import ShardedBatchPipeline

        table = OpenFlowLookupTable(("in_port",), table_id=0)
        pipeline = OpenFlowPipeline([table])
        entry = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        table.add(entry)
        packets = [
            {"in_port": 1, FRAME_LEN_FIELD: 100},
            {"in_port": 2, FRAME_LEN_FIELD: 150},
            {"in_port": 1, FRAME_LEN_FIELD: 600},
        ]
        with ShardedBatchPipeline(pipeline, workers=1) as parent:
            parent._supervisor.disable(0)
            results = parent.process_batch(packets)
            assert parent.supervision_snapshot()["inline_packets"] == 3
            assert results[0].matched_entries[0] is entry
            assert (entry.stats.packet_count, entry.stats.byte_count) == (2, 700)
            stats = parent.stats
            assert (stats.flow_packets, stats.flow_bytes) == (2, 700)
            assert (stats.matched, stats.sent_to_controller) == (2, 1)
