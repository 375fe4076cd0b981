"""Differential tests: the decomposition table vs the behavioural oracle.

The central correctness claim of the reproduction — the Fig. 1
architecture computes exactly OpenFlow highest-priority-match — is
checked here by running the same flow entries and the same packets
through :class:`OpenFlowLookupTable` and the linear
:class:`~repro.openflow.table.FlowTable`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_lookup_table
from repro.core.lookup_table import OpenFlowLookupTable
from repro.filters.rule import Application, Rule, RuleSet
from repro.openflow.errors import PipelineError
from repro.openflow.flow import FlowEntry
from repro.openflow.fields import REGISTRY, MatchMethod
from repro.openflow.instructions import GotoTable
from repro.openflow.match import (
    ExactMatch,
    FieldMaskSink,
    Match,
    PrefixMatch,
    RangeMatch,
)
from repro.openflow.table import FlowTable
from repro.util.bits import canonical_prefix, mask_of


def assert_tables_agree(rule_set: RuleSet, trace) -> None:
    decomposition = build_lookup_table(rule_set)
    oracle = FlowTable()
    for entry in rule_set.to_flow_entries():
        oracle.add(entry)
    for fields in trace:
        got = decomposition.lookup(fields)
        want = oracle.lookup(fields)
        if want is None:
            assert got is None, f"false positive on {fields}"
        else:
            assert got is not None, f"false negative on {fields}"
            assert got.priority == want.priority
            assert got.match == want.match


class TestAgainstOracle:
    def test_mac_set(self, small_mac_set, generator):
        matches = [r.to_match() for r in small_mac_set]
        trace = generator.field_trace(matches, 300, hit_rate=0.7)
        assert_tables_agree(small_mac_set, trace)

    def test_routing_set(self, small_routing_set, generator):
        matches = [r.to_match() for r in small_routing_set]
        trace = generator.field_trace(matches, 300, hit_rate=0.7)
        assert_tables_agree(small_routing_set, trace)

    def test_acl_set(self, small_acl_set, generator):
        matches = [r.to_match() for r in small_acl_set]
        trace = generator.field_trace(matches, 300, hit_rate=0.7)
        assert_tables_agree(small_acl_set, trace)

    def test_tiny_routing_exact_cases(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        cases = {
            (1, 0x0A141E05): 24,  # /24 wins
            (1, 0x0A140005): 16,  # /16 wins
            (1, 0x0A990000): 8,  # /8 wins
            (1, 0xC0000000): 0,  # default route
            (2, 0x0A141E05): 8,  # port 2 only has the /8
        }
        for (port, address), expected_priority in cases.items():
            hit = table.lookup({"in_port": port, "ipv4_dst": address})
            assert hit is not None and hit.priority == expected_priority

    def test_miss_when_port_unknown(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        assert table.lookup({"in_port": 9, "ipv4_dst": 0x0A141E05}) is None

    def test_full_tie_resolves_by_creation_order_not_install_order(self):
        """Two overlapping rules with equal priority *and* equal
        specificity (a near-full range quantises to 0 constrained bits,
        same as the empty match): the behavioural table breaks the tie
        by entry creation order, so the decomposition must too — even
        when the rules are installed in the opposite order."""
        first = FlowEntry.build(match=Match({}), priority=0)
        second = FlowEntry.build(
            match=Match({"tcp_dst": RangeMatch(low=80, high=65535, bits=16)}),
            priority=0,
        )
        packet = {"tcp_dst": 443}
        for install_order in ((first, second), (second, first)):
            oracle = FlowTable()
            decomposition = OpenFlowLookupTable(("tcp_dst",))
            for entry in install_order:
                oracle.add(entry)
                decomposition.add(entry)
            want = oracle.lookup(packet)
            got = decomposition.lookup(packet)
            assert want is first, "oracle must prefer the earlier-built entry"
            assert got is not None
            assert (got.match, got.priority) == (want.match, want.priority)


# Random two-field rule generator exercising prefix nesting + wildcards.
random_rules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # port (small domain -> overlap)
        st.tuples(
            st.integers(min_value=0, max_value=mask_of(32)),
            st.integers(min_value=0, max_value=32),
        ),
        st.booleans(),  # wildcard port?
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(random_rules, st.data())
def test_random_rule_sets_agree(specs, data):
    rule_set = RuleSet("h", Application.ROUTING, ("in_port", "ipv4_dst"))
    for port, (raw, length), wild_port in specs:
        value, length = canonical_prefix(raw, length, 32)
        fields = {"ipv4_dst": PrefixMatch(value=value, length=length, bits=32)}
        if not wild_port:
            fields["in_port"] = ExactMatch(value=port, bits=32)
        rule_set.add(Rule(fields=fields, priority=length))

    port = data.draw(st.integers(min_value=0, max_value=3))
    address = data.draw(st.integers(min_value=0, max_value=mask_of(32)))
    # Bias probes toward stored prefixes so hits are common.
    if specs and data.draw(st.booleans()):
        _, (raw, length), _ = data.draw(st.sampled_from(specs))
        value, length = canonical_prefix(raw, length, 32)
        address = value | (address & mask_of(32 - length))

    trace = [{"in_port": port, "ipv4_dst": address}]
    assert_tables_agree(rule_set, trace)


class TestManagement:
    def test_schema_enforced(self):
        table = OpenFlowLookupTable(("in_port",))
        with pytest.raises(ValueError):
            table.add(FlowEntry.build(match=Match.exact(eth_type=5)))

    def test_add_replaces_same_match_priority(self):
        table = OpenFlowLookupTable(("in_port",))
        table.add(FlowEntry.build(match=Match.exact(in_port=1), priority=1))
        table.add(FlowEntry.build(match=Match.exact(in_port=1), priority=1))
        assert len(table) == 1

    def test_remove_clears_structures(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        for rule in tiny_routing_set:
            assert table.remove(rule.to_match(), rule.priority)
        assert len(table) == 0
        assert table.lookup({"in_port": 1, "ipv4_dst": 0x0A141E05}) is None
        assert all(
            len(engine.trie) == 0 for engine in table.tries().values()
        )
        assert all(len(engine.lut) == 0 for engine in table.luts().values())

    def test_remove_keeps_shared_entries(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        # Two rules share the 10/8 prefix (ports 1 and 2); removing one
        # must keep the trie entry alive for the other.
        rule = tiny_routing_set.rules[0]  # port 1, 10/8
        assert table.remove(rule.to_match(), rule.priority)
        hit = table.lookup({"in_port": 2, "ipv4_dst": 0x0A000001})
        assert hit is not None and hit.priority == 8

    def test_remove_where(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        removed = table.remove_where(lambda e: e.priority == 8)
        assert removed == 2
        assert len(table) == len(tiny_routing_set) - 2

    def test_remove_missing_false(self):
        table = OpenFlowLookupTable(("in_port",))
        assert not table.remove(Match.exact(in_port=1), 5)

    def test_iteration_and_miss_entry(self):
        table = OpenFlowLookupTable(("in_port",))
        miss = FlowEntry.build(match=Match({}), priority=0)
        table.add(miss)
        table.add(FlowEntry.build(match=Match.exact(in_port=1), priority=1))
        assert table.table_miss_entry is miss
        assert len(list(iter(table))) == 2

    def test_search_exposes_labels(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        ((entry, label_sets, _),) = table.search_keys(
            table.partitioner.split_keys([(1, 0x0A141E05)])
        )
        assert entry is not None
        assert len(label_sets) == 3  # in_port, ip/hi, ip/lo
        # hi labels: the /8 entry plus (0x0A14, 16) — shared by the /16
        # and /24 rules, stored (and labelled) once by the label method.
        assert len(label_sets[1]) == 2

    def test_range_engines_accessor(self, small_acl_set):
        table = build_lookup_table(small_acl_set)
        assert set(table.range_engines()) == {"tcp_src", "tcp_dst"}


class TestChurn:
    """Action-table and index behaviour under add/remove churn."""

    def entry(self, port: int, priority: int = 1) -> FlowEntry:
        return FlowEntry.build(
            match=Match.exact(in_port=port), priority=priority
        )

    def test_replacement_reuses_action_slot(self):
        table = OpenFlowLookupTable(("in_port",))
        for _ in range(50):
            table.add(self.entry(1))
        assert len(table) == 1
        # Same-match replacement releases the old slot before allocating,
        # so the array never exceeds the live entry count by more than
        # the transient slot.
        assert table.actions.allocated_slots <= 2
        assert table.actions.free_slots <= 1

    def test_remove_reinstall_bounds_action_table(self):
        table = OpenFlowLookupTable(("in_port",))
        entries = [self.entry(port) for port in range(20)]
        for e in entries:
            table.add(e)
        for _ in range(10):
            for e in entries:
                assert table.remove(e.match, e.priority)
            for e in entries:
                table.add(e)
        assert len(table) == 20
        assert table.actions.allocated_slots == 20
        assert table.actions.free_slots == 0

    def test_free_slots_reported(self):
        from repro.memory.report import table_memory_report

        table = OpenFlowLookupTable(("in_port",))
        for port in range(8):
            table.add(self.entry(port))
        table.remove_where(lambda e: True)
        assert table.actions.free_slots == 8
        report = table_memory_report(table)
        by_name = {s.name: s for s in report.structures}
        assert by_name["actions"].entries == 0
        assert by_name["actions (free)"].entries == 8
        assert (
            by_name["actions (free)"].bits
            == 8 * table.actions.entry_bits
        )

    def test_shadowed_duplicate_removal_restores_survivor(self):
        # Two entries with the identical match region map to the same
        # label tuple; removing the higher-priority one must fall back to
        # the survivor, not keep serving a stale action index.
        table = OpenFlowLookupTable(("in_port",))
        low = self.entry(1, priority=1)
        high = self.entry(1, priority=2)
        table.add(low)
        table.add(high)
        assert table.lookup({"in_port": 1}) is high
        assert table.remove(high.match, high.priority)
        hit = table.lookup({"in_port": 1})
        assert hit is low

    def test_bulk_remove_where_scales(self):
        # The dict-backed installed set makes bulk deletion linear; this
        # is a smoke-scale check that 2k removals complete instantly.
        table = OpenFlowLookupTable(("in_port",))
        for port in range(2000):
            table.add(self.entry(port))
        assert table.remove_where(lambda e: True) == 2000
        assert len(table) == 0
        assert table.actions.free_slots == 2000


class TestBatchLookup:
    def test_search_batch_matches_scalar(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        trace = [
            {"in_port": 1, "ipv4_dst": 0x0A141E05},
            {"in_port": 1, "ipv4_dst": 0x0A141E05},  # duplicate header
            {"in_port": 2, "ipv4_dst": 0x0A141E05},
            {"in_port": 9, "ipv4_dst": 0x0A141E05},  # miss
            {"in_port": 1},  # field absent entirely
        ]
        batch = table.lookup_batch(trace)
        reference = build_lookup_table(tiny_routing_set)
        scalar = [reference.lookup(f) for f in trace]
        for got, want in zip(batch, scalar):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.match == want.match
                assert got.priority == want.priority

    def test_batch_counters_count_every_packet(self, tiny_routing_set):
        table = build_lookup_table(tiny_routing_set)
        fields = {"in_port": 1, "ipv4_dst": 0x0A141E05}
        table.lookup_batch([fields] * 5)
        hit = table.lookup(fields)
        assert hit.stats.packet_count == 6

    def test_field_engine_search_batch_matches_scalar(self, tiny_routing_set):
        """``search_keys`` — the batch search in use — gives every row
        the label sets its partition engines' scalar ``search`` gives,
        resolving duplicate rows once."""
        table = build_lookup_table(tiny_routing_set)
        rows = table.partitioner.split_keys(
            [
                (1, 0x0A141E05),
                (1, 0x0A141E05),  # duplicate
                (2, 0xC0000001),
                (1, None),
            ]
        )
        found = table.search_keys(rows)
        for row, (_, label_sets, _) in zip(rows, found, strict=True):
            assert label_sets == tuple(
                engine.search(key)
                for engine, key in zip(table._flat_engines, row, strict=True)
            )
        assert found[0] is found[1]  # one resolution per distinct row


# ----------------------------------------------------------------------
# one search: the scalar lookup's mask is its partitions' probes
# ----------------------------------------------------------------------

#: An exact LUT, a partitioned LPM trie and a range structure side by
#: side, and an IPv6 table (eight 16-bit partitions, keys past 64 bits).
_SEARCH_SCHEMAS = (("in_port", "ipv4_dst", "tcp_dst"), ("in_port", "ipv6_dst"))


@st.composite
def _search_cases(draw):
    """A schema, flow entries over it (unique match and priority) and
    packets near the entries' values, some lacking a field."""
    names = draw(st.sampled_from(_SEARCH_SCHEMAS))
    width = {name: REGISTRY[name].bits for name in names}
    pools = {
        name: draw(
            st.lists(st.integers(0, mask_of(width[name])), min_size=1, max_size=4)
        )
        for name in names
    }

    def predicate(name):
        value = draw(st.sampled_from(pools[name]))
        method = REGISTRY[name].method
        if method is MatchMethod.EXACT:
            return ExactMatch(value, width[name])
        if method is MatchMethod.PREFIX:
            length = draw(st.integers(0, width[name]))
            return PrefixMatch(
                canonical_prefix(value, length, width[name])[0],
                length,
                width[name],
            )
        other = draw(st.integers(0, mask_of(width[name])))
        return RangeMatch(min(value, other), max(value, other), width[name])

    entries = {}
    for _ in range(draw(st.integers(1, 10))):
        match = Match(
            {name: predicate(name) for name in names if draw(st.booleans())}
        )
        priority = draw(st.integers(0, 4))
        entries[(match, priority)] = FlowEntry.build(match=match, priority=priority)
    packets = []
    for _ in range(draw(st.integers(1, 12))):
        fields = {}
        for name in names:
            if draw(st.integers(0, 5)) == 0:
                continue  # the packet lacks the field
            noise = mask_of(draw(st.integers(0, width[name])))
            fields[name] = draw(st.sampled_from(pools[name])) ^ draw(
                st.integers(0, noise)
            )
        packets.append(fields)
    return names, list(entries.values()), packets


class TestOneSearchMask:
    @settings(max_examples=80, deadline=None)
    @given(case=_search_cases())
    def test_lookup_mask_is_the_or_of_partition_probes(self, case):
        """``lookup(fields, mask=sink)`` reports, per field, exactly the
        OR over the field's partitions of ``engine.probe(key)[1]``
        shifted to the partition's place in the field — partition keys
        sliced here from the field values, not by the table — and
        returns the entry the ``FlowTable`` scan returns."""
        names, entries, packets = case
        table = OpenFlowLookupTable(names)
        oracle = FlowTable()
        for entry in entries:
            table.add(entry)
            oracle.add(entry)
        for fields in packets:
            want: dict[str, int] = {}
            for engine in table._flat_engines:
                part = engine.partition
                shift = REGISTRY[part.field_name].bits - part.offset - part.bits
                value = fields.get(part.field_name)
                key = None if value is None else (value >> shift) & mask_of(part.bits)
                bits = engine.probe(key)[1] << shift
                if bits:
                    want[part.field_name] = want.get(part.field_name, 0) | bits
            sink = FieldMaskSink()
            assert table.lookup(fields, mask=sink) is oracle.lookup(fields)
            assert sink.fields == want, fields


class TestForwardOnlyGoto:
    """The decomposition table refuses a Goto-Table that does not point
    to a later table at ``add`` — the door a workload's ``install``
    event and the sharded runner's replicas both use."""

    @staticmethod
    def goto(target):
        return FlowEntry.build(
            match=Match.exact(in_port=1),
            priority=1,
            instructions=[GotoTable(target)],
        )

    @pytest.mark.parametrize("target", [0, 1])
    def test_backward_or_self_goto_refused(self, target):
        table = OpenFlowLookupTable(("in_port",), table_id=1)
        with pytest.raises(PipelineError, match="must point to a later table"):
            table.add(self.goto(target))
        assert len(table) == 0 and table.version == 0
        assert table.lookup({"in_port": 1}) is None

    def test_forward_goto_accepted(self):
        table = OpenFlowLookupTable(("in_port",), table_id=1)
        entry = self.goto(2)
        table.add(entry)
        assert table.lookup({"in_port": 1}) is entry
