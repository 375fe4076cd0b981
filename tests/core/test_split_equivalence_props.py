"""Property test: the per-field table split preserves classification.

The prototype's defining transformation — splitting a two-field table
into (field A -> metadata label) -> (metadata, field B) — must be
semantics-preserving for *any* rule set, including wildcards and
overlapping priorities.  hypothesis generates adversarial rule sets and
probes; the split pipeline must agree with the monolithic table on every
packet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table, build_per_field_pipeline
from repro.filters.rule import Application, Rule, RuleSet
from repro.openflow.actions import OutputAction
from repro.openflow.instructions import WriteActions
from repro.openflow.match import ExactMatch, PrefixMatch
from repro.util.bits import canonical_prefix, mask_of

rule_specs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),  # port
        st.tuples(
            st.integers(min_value=0, max_value=mask_of(32)),
            st.integers(min_value=0, max_value=32),
        ),
        st.integers(min_value=0, max_value=63),  # action port
    ),
    min_size=1,
    max_size=20,
)


def build_rule_set(specs) -> RuleSet:
    rules = RuleSet("prop", Application.ROUTING, ("in_port", "ipv4_dst"))
    for port, (raw, length), action in specs:
        value, length = canonical_prefix(raw, length, 32)
        fields = {"ipv4_dst": PrefixMatch(value=value, length=length, bits=32)}
        if port is not None:
            fields["in_port"] = ExactMatch(value=port, bits=32)
        rules.add(Rule(fields=fields, priority=length, action_port=action))
    return rules


def monolithic_port(table, fields) -> int | None:
    hit = table.lookup(fields)
    if hit is None:
        return None
    write = hit.instructions.get(WriteActions)
    assert isinstance(write, WriteActions)
    (action,) = write.actions
    assert isinstance(action, OutputAction)
    return action.port


@settings(max_examples=80, deadline=None)
@given(rule_specs, st.data())
def test_split_pipeline_equals_monolithic(specs, data):
    rules = build_rule_set(specs)
    monolithic = build_lookup_table(rules)
    split = MultiTableLookupArchitecture(build_per_field_pipeline(rules))

    port = data.draw(st.integers(min_value=0, max_value=3))
    address = data.draw(st.integers(min_value=0, max_value=mask_of(32)))
    if data.draw(st.booleans()):
        _, (raw, length), _ = data.draw(st.sampled_from(specs))
        value, length = canonical_prefix(raw, length, 32)
        address = value | (address & mask_of(32 - length))
    fields = {"in_port": port, "ipv4_dst": address}

    want = monolithic_port(monolithic, fields)
    got = split.process(fields)
    if want is None:
        assert got.sent_to_controller
    else:
        assert got.output_ports == [want]


@settings(max_examples=40, deadline=None)
@given(rule_specs)
def test_split_table_a_size_is_unique_port_count(specs):
    rules = build_rule_set(specs)
    tables = build_per_field_pipeline(rules)
    unique_ports = {
        predicate
        for rule in rules
        if (predicate := rule.fields.get("in_port")) is not None
    }
    # One entry per unique first-field value + the table-miss entry.
    assert len(tables[0]) == len(unique_ports) + 1
    # Table B holds one entry per distinct (match, priority): duplicate
    # rules collapse under OpenFlow flow-mod replacement semantics.
    distinct = {(rule.to_match(), rule.priority) for rule in rules}
    assert len(tables[1]) == len(distinct)


# ---------------------------------------------------------------------------
# Differential churn fuzzing: interleaved add/remove/lookup over identical
# rule sequences on the behavioural FlowTable (reference scan), the
# decomposition OpenFlowLookupTable, and the microflow-cached batch path.
# The cache must never serve a stale result across mutations.
# ---------------------------------------------------------------------------

from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.runtime.cache import MicroflowCache

FIELDS = ("in_port", "ipv4_dst")

churn_rule = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),  # port
    st.tuples(
        st.integers(min_value=0, max_value=mask_of(32)),
        st.integers(min_value=0, max_value=32),
    ),
    st.integers(min_value=0, max_value=7),  # priority
)

churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "purge", "lookup"]),
        st.integers(min_value=0, max_value=1_000_000),
    ),
    min_size=4,
    max_size=50,
)


def churn_entry(spec) -> FlowEntry:
    port, (raw, length), priority = spec
    value, length = canonical_prefix(raw, length, 32)
    fields = {"ipv4_dst": PrefixMatch(value=value, length=length, bits=32)}
    if port is not None:
        fields["in_port"] = ExactMatch(value=port, bits=32)
    return FlowEntry.build(
        match=Match(fields),
        priority=priority,
        instructions=[WriteActions([OutputAction(priority)])],
    )


def assert_same_hit(fields, want, *results):
    for got in results:
        if want is None:
            assert got is None, f"false positive on {fields}"
        else:
            assert got is not None, f"false negative on {fields}"
            assert got.priority == want.priority
            assert got.match == want.match


def slot_entry(cache, slot):
    """The flow entry at the action slot a cache probe answered."""
    return None if slot < 0 else cache.table.actions.entries[slot]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(churn_rule, min_size=1, max_size=12),
    churn_ops,
    st.data(),
)
def test_churn_differential_fuzz(universe, ops, data):
    entries = [churn_entry(spec) for spec in universe]
    oracle = FlowTable()
    decomposition = OpenFlowLookupTable(FIELDS)
    cached_table = OpenFlowLookupTable(FIELDS)
    cache = MicroflowCache(cached_table, capacity=64)

    def probe_fields():
        port = data.draw(st.integers(min_value=0, max_value=3))
        address = data.draw(st.integers(min_value=0, max_value=mask_of(32)))
        if data.draw(st.booleans()):
            _, (raw, length), _ = data.draw(st.sampled_from(universe))
            value, length = canonical_prefix(raw, length, 32)
            address = value | (address & mask_of(32 - length))
        return {"in_port": port, "ipv4_dst": address}

    def check(fields):
        want = oracle.lookup(fields)
        assert_same_hit(
            fields,
            want,
            decomposition.lookup(fields),
            slot_entry(
                cache,
                cache.lookup_keys(
                    [tuple(fields.get(name) for name in FIELDS)], [1], False
                )[0][0],
            ),
            cache.lookup_batch_columnar(PacketBatch.from_dicts([fields]))[0],
        )

    for op, pick in ops:
        if op == "add":
            entry = entries[pick % len(entries)]
            oracle.add(entry)
            decomposition.add(entry)
            cached_table.add(entry)
        elif op == "remove":
            entry = entries[pick % len(entries)]
            removed = oracle.remove(entry.match, entry.priority)
            assert decomposition.remove(entry.match, entry.priority) == removed
            assert cached_table.remove(entry.match, entry.priority) == removed
        elif op == "purge":
            priority = pick % 8
            predicate = lambda e: e.priority == priority
            count = oracle.remove_where(predicate)
            assert decomposition.remove_where(predicate) == count
            assert cached_table.remove_where(predicate) == count
        else:  # lookup
            check(probe_fields())
        assert len(oracle) == len(decomposition) == len(cached_table)

    # Final sweep: a probe per universe rule after all the churn.
    for _ in range(min(len(universe), 4)):
        check(probe_fields())
    # Churn must not strand action-table slots beyond the free list,
    # and the free list itself stays bounded by the table's high water.
    for table in (decomposition, cached_table):
        assert table.actions.allocated_slots - table.actions.free_slots == len(table)
