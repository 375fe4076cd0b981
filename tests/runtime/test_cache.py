"""Microflow-cache behaviour: LRU bounds, invalidation, negative hits."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.flow import FlowEntry
from repro.openflow.match import ExactMatch, FieldMaskSink, Match, PrefixMatch
from repro.packet.batch import PacketBatch
from repro.packet.generator import IMIX_FRAME_LENGTHS
from repro.packet.headers import FRAME_LEN_FIELD, frame_length
from repro.runtime.cache import MicroflowCache


def entry(port: int, priority: int = 1) -> FlowEntry:
    return FlowEntry.build(match=Match.exact(in_port=port), priority=priority)


def probe(cache: MicroflowCache, port: int) -> FlowEntry | None:
    """One ``in_port`` packet through the cache's one probe: the entry
    at the action slot it answers."""
    (slot,), _, _ = cache.lookup_keys([(port,)], [1], False)
    return None if slot < 0 else cache.table.actions.entries[slot]


def count_probes(cache: MicroflowCache) -> Counter:
    """The packets ``cache`` answers (``"hits"``) and passes on to its
    table (``"misses"``) from now on, counted off what each of its
    ``lookup_keys`` probes hands back — :meth:`lookup_batch_columnar`'s
    too.  The cache keeps no such count; a runner's walk counts the
    same into ``runner.stats``."""
    seen: Counter = Counter()
    lookup_keys = cache.lookup_keys

    def counted(keys, counts, capture):
        slots, masks, missed = lookup_keys(keys, counts, capture)
        seen["hits"] += sum(counts) - missed
        seen["misses"] += missed
        return slots, masks, missed

    cache.lookup_keys = counted
    return seen


@pytest.fixture()
def table() -> OpenFlowLookupTable:
    table = OpenFlowLookupTable(("in_port",))
    for port in range(8):
        table.add(entry(port))
    return table


class TestBasics:
    def test_hit_after_miss(self, table):
        cache = MicroflowCache(table)
        seen = count_probes(cache)
        first = probe(cache, 3)
        second = probe(cache, 3)
        assert first is second is not None
        assert seen["misses"] == 1 and seen["hits"] == 1

    def test_negative_caching(self, table):
        cache = MicroflowCache(table)
        seen = count_probes(cache)
        assert probe(cache, 99) is None
        assert probe(cache, 99) is None
        assert seen["hits"] == 1

    def test_hit_records_flow_stats(self, table):
        cache = MicroflowCache(table)
        seen = count_probes(cache)
        packet = PacketBatch.from_dicts([{"in_port": 2}])
        (hit,) = cache.lookup_batch_columnar(packet)
        cache.lookup_batch_columnar(packet)
        assert seen["hits"] == 1
        assert hit.stats.packet_count == 2

    def test_capacity_bounds_lru(self, table):
        cache = MicroflowCache(table, capacity=2)
        seen = count_probes(cache)
        for port in range(5):
            probe(cache, port)
        assert len(cache) == 2
        # Least-recently-used keys were evicted; the last two remain.
        probe(cache, 4)
        assert seen["hits"] == 1

    def test_version_counter_required(self):
        class VersionlessTable:
            field_names = ("in_port",)

            def lookup_keys(self, keys, capture):
                return [None] * len(keys), [None] * len(keys)

        with pytest.raises(TypeError, match="has no version"):
            MicroflowCache(VersionlessTable())

    def test_positive_capacity_required(self, table):
        with pytest.raises(ValueError):
            MicroflowCache(table, capacity=0)


class TestInvalidation:
    def test_add_revalidates_stale_entry(self, table):
        cache = MicroflowCache(table)
        assert probe(cache, 1).priority == 1
        table.add(entry(1, priority=9))
        assert probe(cache, 1).priority == 9
        # The stale record was refreshed in place, not flushed away.
        assert cache.revalidations == 1

    def test_mutation_keeps_working_set(self, table):
        cache = MicroflowCache(table)
        for port in range(4):
            probe(cache, port)
        table.add(entry(99))
        # The keys survive the version bump; each revalidates on touch.
        assert len(cache) == 4
        assert probe(cache, 2) is not None
        assert cache.revalidations == 1

    def test_remove_invalidates(self, table):
        cache = MicroflowCache(table)
        assert probe(cache, 1) is not None
        table.remove(Match.exact(in_port=1), 1)
        assert probe(cache, 1) is None

    def test_remove_where_invalidates(self, table):
        cache = MicroflowCache(table)
        warm = PacketBatch.from_dicts([{"in_port": p} for p in range(4)])
        assert None not in cache.lookup_batch_columnar(warm)
        table.remove_where(lambda e: True)
        assert cache.lookup_batch_columnar(warm[1:2]) == [None]

    def test_negative_entry_invalidated_by_install(self, table):
        cache = MicroflowCache(table)
        assert probe(cache, 50) is None
        table.add(entry(50))
        assert probe(cache, 50) is not None


class TestBatch:
    def test_batch_mixes_hits_and_misses(self, table):
        cache = MicroflowCache(table)
        seen = count_probes(cache)
        probe(cache, 0)
        results = cache.lookup_batch_columnar(
            PacketBatch.from_dicts(
                [{"in_port": 0}, {"in_port": 1}, {"in_port": 0}, {"in_port": 99}]
            )
        )
        assert [r is not None for r in results] == [True, True, True, False]
        assert seen["hits"] >= 2  # the two {"in_port": 0} repeats


# ----------------------------------------------------------------------
# one probe, three input shapes
# ----------------------------------------------------------------------

#: Ports 0-5 match on port + an IPv4 prefix, 6-7 on the port alone, 8-9
#: nothing (negative records); every fourth flow lacks ``ipv4_dst``.
_SHAPE_FLOWS = [
    {"in_port": i % 10, **({} if i % 4 == 3 else {"ipv4_dst": 0x0A000000 + i})}
    for i in range(20)
]


def _shape_table() -> OpenFlowLookupTable:
    table = OpenFlowLookupTable(("in_port", "ipv4_dst"))
    for port in range(8):
        fields = {"in_port": ExactMatch(port, 32)}
        if port < 6:
            fields["ipv4_dst"] = PrefixMatch(0x0A000000, 8, 32)
        table.add(FlowEntry.build(match=Match(fields), priority=port + 1))
    return table


def _drive(shape, trace, chunk, capacity, mod_chunk, mod_port, capture):
    """Replay ``trace`` in ``chunk``-sized batches through a fresh cache
    via one input shape — or, for ``"table"``, past the cache, one
    scalar lookup per packet on the table itself; everything observable
    afterwards."""
    table = _shape_table()
    cache = MicroflowCache(table, capacity=capacity)
    seen = count_probes(cache)
    columnar = PacketBatch.from_dicts(trace)
    outcomes, consulted = [], []
    for number, start in enumerate(range(0, len(trace), chunk)):
        if number == mod_chunk:
            victim = next(e for e in table if e.priority == mod_port + 1)
            assert table.remove(victim.match, victim.priority)
            table.add(victim)
        batch = trace[start : start + chunk]
        if shape == "table":
            sinks = [FieldMaskSink() if capture else None for _ in batch]
            found = [
                table.lookup(fields, mask=sink)
                for fields, sink in zip(batch, sinks)
            ]
            if capture:
                consulted += [sink.fields for sink in sinks]
        elif shape == "columnar":
            found = cache.lookup_batch_columnar(columnar[start : start + chunk])
        else:
            code_of = {}
            codes = [
                code_of.setdefault(
                    tuple(fields.get(name) for name in cache.field_names),
                    len(code_of),
                )
                for fields in batch
            ]
            by_key, masks, _ = cache.lookup_keys(
                list(code_of), [codes.count(c) for c in range(len(code_of))], capture
            )
            slots = cache.table.actions.entries
            found = [None if by_key[code] < 0 else slots[by_key[code]] for code in codes]
            for fields, entry in zip(batch, found):
                if entry is not None:
                    entry.stats.record(frame_length(fields))
            if capture:
                consulted += [masks[code] for code in codes]
        outcomes += [None if e is None else e.priority for e in found]
    return {
        "outcomes": outcomes,
        "consulted": consulted,
        "flow stats": sorted(
            (e.priority, e.stats.packet_count, e.stats.byte_count) for e in table
        ),
        "counters": (seen["hits"], seen["misses"], cache.revalidations),
        "lru order": list(cache._entries),
    }


@settings(max_examples=150, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(_SHAPE_FLOWS) - 1), min_size=8, max_size=80),
    lengths=st.lists(st.sampled_from(IMIX_FRAME_LENGTHS), min_size=80, max_size=80),
    chunk=st.integers(1, 16),
    capacity=st.integers(2, 6),
    mod_chunk=st.integers(1, 4),
    mod_port=st.integers(0, 7),
    capture=st.booleans(),
)
def test_three_input_shapes_share_one_probe(
    picks, lengths, chunk, capacity, mod_chunk, mod_port, capture
):
    """``lookup_batch_columnar`` and ``lookup_keys`` (the caller
    crediting flow stats) are one probe behind two input shapes: over a
    trace that evicts, revalidates across a flow-mod and carries IMIX
    frame lengths they leave identical hit/miss/revalidation counters
    and LRU order — and the outcomes, consulted masks and per-entry
    packet/byte stats of the uncached table looked up packet by
    packet."""
    packets = {}
    trace = [
        packets.setdefault(
            (pick, length), {**_SHAPE_FLOWS[pick], FRAME_LEN_FIELD: length}
        )
        for pick, length in zip(picks, lengths)
    ]
    args = (trace, chunk, capacity, mod_chunk, mod_port, capture)
    table = _drive("table", *args)
    columnar = _drive("columnar", *args)
    keys = _drive("keys", *args)
    for name in ("outcomes", "consulted", "flow stats"):
        assert keys[name] == table[name], f"lookup_keys {name} diverges"
        if name != "consulted":  # the columnar shape takes no mask sinks
            assert columnar[name] == table[name], f"columnar {name} diverges"
    for name in ("counters", "lru order"):
        assert columnar[name] == keys[name], f"{name} diverges"
    assert sum(keys["counters"][:2]) == len(trace)


def test_capture_hit_backfills_the_tables_mask():
    """A record cached by a non-capturing probe, then hit by a
    capturing one, gets the mask the table's capturing ``lookup_keys``
    returns for its key — and the backfill moves no flow stats and no
    cache counter beyond the hit itself."""
    table = _shape_table()
    cache = MicroflowCache(table)
    seen = count_probes(cache)
    keys = [(3, 0x0A000001), (7, None), (9, 0x0B000000), (None, 0x0A0000FF)]
    _, masks, _ = cache.lookup_keys(keys, [1] * len(keys), False)
    assert masks == [None] * len(keys)
    counters = (seen["hits"], seen["misses"], cache.revalidations)
    flow_stats = sorted(
        (e.priority, e.stats.packet_count, e.stats.byte_count) for e in table
    )
    found, masks, _ = cache.lookup_keys(keys, [2] * len(keys), True)
    want_found, want_masks = table.lookup_keys(keys, True)
    assert found == want_found
    assert masks == want_masks
    assert all(mask is not None for mask in masks)
    assert (seen["hits"], seen["misses"], cache.revalidations) == (
        counters[0] + 2 * len(keys),
        counters[1],
        counters[2],
    )
    assert flow_stats == sorted(
        (e.priority, e.stats.packet_count, e.stats.byte_count) for e in table
    )
    # The record keeps what it was given: the next capture replays it.
    assert cache.lookup_keys(keys, [1] * len(keys), True)[1] == masks
