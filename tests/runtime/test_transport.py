"""Shared-memory transport: codec roundtrips, block growth, entry refs
and the flow-stats delta protocol — all in-process (no workers), so
failures localise to the transport rather than the sharded runner."""

import numpy as np
import pytest

from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import WriteActions, WriteMetadata
from repro.openflow.match import Match
from repro.openflow.pipeline import OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD, transport_schema
from repro.runtime.batch import BatchPipeline
from repro.runtime.transport import (
    BlockReader,
    BlockWriter,
    EntryIndex,
    FlowStatsDelta,
    MIN_BLOCK_BYTES,
    PacketBlockCodec,
    SharedBlock,
    decode_results,
    encode_outcomes,
)


def roundtrip(batch, positions=None):
    codec = PacketBlockCodec()
    writer = BlockWriter()
    layout = codec.encode(writer, batch, "pkt")
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
        layout = codec.encode(writer, batch, "pkt")
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
        layout = codec.encode(
            writer, [{"zzz_extra": 1, "eth_dst": 2, "in_port": 3}], "pkt"
        )
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
    ``encode_outcomes`` → ``decode_results``, the replica standing in
    for a worker and a second, identically built pipeline for the
    parent whose pinned entries the refs must resolve to."""

    FRAME = 100

    def make_pipeline(self):
        table = FlowTable(table_id=0)
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
        ]
        for entry in entries:
            table.add(entry)
        return OpenFlowPipeline([table]), entries

    def packets(self):
        return [
            {"in_port": 1, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            {"in_port": 2, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            {"in_port": 9, "vlan_vid": 7, FRAME_LEN_FIELD: self.FRAME},
            {"in_port": 1, "vlan_vid": 8, FRAME_LEN_FIELD: self.FRAME},
        ]

    def reply(self, runner, index, packets, pinned):
        """One worker round: classify, encode into a block, decode
        against ``pinned``; returns what the parent would see plus the
        outcomes the worker encoded from."""
        outcomes = runner.classify_columnar(PacketBatch.from_dicts(packets))
        writer = BlockWriter()
        layout, vocabulary, delta = encode_outcomes(writer, outcomes, index)
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            reader = BlockReader(block.buf, writer.write_to(block.buf))
            decoded = decode_results(
                reader,
                layout,
                vocabulary,
                lambda table_id, position: pinned[table_id][position],
                inputs=packets,
            )
            del reader  # release numpy views before unmapping
        finally:
            block.close()
        return outcomes, layout, delta, decoded

    def test_results_roundtrip_via_entry_refs(self):
        """Wave-classified rows (cold caches) and megaflow-hit rows (the
        same batch again) both round-trip, refs resolve to the parent's
        own entries through an order pinned *before* a mutation, and
        each reply's delta is exactly what the replica's entries
        accrued."""
        replica, replica_entries = self.make_pipeline()
        parent, parent_entries = self.make_pipeline()
        runner = BatchPipeline(replica, cache_capacity=16, megaflow_capacity=32)
        index = EntryIndex(replica)
        pinned = EntryIndex(parent).pin()
        # Re-sorts the parent's table; the pinned order must not care.
        parent.table(0).add(
            FlowEntry.build(match=Match.exact(in_port=5), priority=99)
        )
        packets = self.packets()
        credited = [(0, 0)] * len(replica_entries)
        for expect_hits in (False, True):
            hits_before = runner.megaflow.hits
            outcomes, _, delta, decoded = self.reply(
                runner, index, packets, pinned
            )
            # Hits and misses share one outcome shape; the tier's own
            # counter says which round this was.
            assert runner.megaflow.hits - hits_before == (
                len(packets) if expect_hits else 0
            )
            for original, rebuilt in zip(outcomes.results(), decoded):
                assert rebuilt.output_ports == original.output_ports
                assert (
                    rebuilt.sent_to_controller == original.sent_to_controller
                )
                assert rebuilt.dropped == original.dropped
                assert rebuilt.metadata == original.metadata
                assert rebuilt.tables_visited == original.tables_visited
                assert rebuilt.final_fields == original.final_fields
                assert rebuilt.applied_actions == original.applied_actions
            # Matched entries resolved to the *pinned* (parent) objects.
            assert decoded[0].matched_entries[0] is parent_entries[0]
            assert decoded[1].matched_entries[0] is parent_entries[1]
            assert decoded[2].matched_entries == []
            assert decoded[2].sent_to_controller
            assert decoded[3].matched_entries[0] is parent_entries[0]
            # The delta is the replica entries' packet/byte growth.
            after = [
                (e.stats.packet_count, e.stats.byte_count)
                for e in replica_entries
            ]
            growth = {
                index.ref(0, entry): (now[0] - was[0], now[1] - was[1])
                for entry, was, now in zip(replica_entries, credited, after)
            }
            assert delta.counts == growth
            assert sorted(growth.values()) == [
                (1, self.FRAME),
                (2, 2 * self.FRAME),
            ]
            credited = after

    def test_results_against_inputs_ship_only_overrides(self):
        """Final fields travel as rewrite overrides (mostly None) and
        the decoder rebuilds them from its own copies of the packets —
        from the wave results on a miss, from the megaflow entry's
        recorded overrides on a hit."""
        replica, _ = self.make_pipeline()
        runner = BatchPipeline(replica, cache_capacity=16, megaflow_capacity=32)
        index = EntryIndex(replica)
        pinned = index.pin()
        packets = self.packets()[:2]
        for _ in ("waves", "megaflow hits"):
            _, layout, _, decoded = self.reply(runner, index, packets, pinned)
            assert layout.overrides == (None, {"vlan_vid": 42, "metadata": 9})
            assert decoded[0].final_fields == packets[0]
            assert decoded[0].final_fields is not packets[0]  # fresh dict
            assert decoded[1].final_fields == dict(
                packets[1], vlan_vid=42, metadata=9
            )


class TestEntryIndex:
    def test_refs_track_mutations(self):
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        first = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        second = FlowEntry.build(match=Match.exact(in_port=2), priority=2)
        table.add(first)
        table.add(second)
        assert index.ref(0, second) == (0, 1)
        table.remove(first.match, first.priority)
        assert index.ref(0, second) == (0, 0)  # cache refreshed on version

    def test_pin_freezes_order_across_mutation(self):
        table = FlowTable(table_id=0)
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        entry = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        table.add(entry)
        pinned = index.pin()
        # A high-priority entry added *after* the pin re-sorts the
        # table, but ref resolution against the pin is unaffected.
        table.add(FlowEntry.build(match=Match.exact(in_port=2), priority=99))
        assert pinned[0][0] is entry

    def test_delta_apply_updates_pinned_entries(self):
        table = FlowTable(table_id=0)
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        entry = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        table.add(entry)
        pinned = index.pin()
        delta = FlowStatsDelta(counts={(0, 0): (5, 700)})
        assert delta.apply(pinned) == (5, 700)
        assert entry.stats.packet_count == 5
        assert entry.stats.byte_count == 700
