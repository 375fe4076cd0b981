"""Differential property harness over every runner path.

Random rule sets, mutation sequences and traffic traces (hypothesis
strategies, deterministic per example) are replayed through all ten
classification paths —

1. behavioural scan (``FlowTable`` pipeline, scalar),
2. decomposition (``OpenFlowLookupTable`` pipeline, scalar),
3. batched (``BatchPipeline``, caches off),
4. microflow-cached batch,
5. two-tier megaflow batch,
6. sharded shared-memory, pipelined (``ShardedBatchPipeline``,
   depth=3 — bursts stream through the double-buffered
   dispatch/collect loop),
7. sharded with shared sealed rule state (``shared_rules=True`` —
   workers attach read-only :mod:`repro.runtime.rulestate` snapshots
   instead of rebuilding replicas, mutations replay from the log),
8. columnar microflow-cached batch (``PacketBatch`` input, keys read
   off the lanes),
9. columnar two-tier megaflow batch (vectorized masked-key probes),
10. columnar sharded shared-memory pipelined (decode-free workers
    classifying straight off the request block's columns) —

and every path must produce identical :class:`PipelineResult`\\ s per
packet **and** identical post-run per-entry flow-stats counters —
packets and bytes: every trace packet carries a deterministic frame
length, so byte accounting is exercised on every example.  Rules also
draw idle/hard timeouts and event scripts interleave ``("advance",
dt)`` virtual-clock ticks, so entries expire mid-replay on every path:
the scalar paths sweep through their own
:class:`~repro.runtime.lifecycle.LifecycleSweeper`, the runners
through ``advance_clock``, and the resulting flow-removed ledgers
(reason, final counters, install/removal ticks) must agree as
multisets — the scan table iterates in priority order while the
decomposed tables iterate in insertion order, so expiries landing on
the same tick may be *emitted* in a different order, but never differ
in content.  The scan path anchors correctness (it is the spec);
everything else is an optimisation that must be observationally
invisible.

The sharded runner's ``process_batches`` yields *lazy* outcomes (one
template per distinct traversal, per-packet results built on read), so
its paths are additionally replayed two ways the eager harness cannot
see (``test_sharded_lazy_outcomes_equivalent``, W in {1, 2, 3}, and the
chaos example): drained **without reading** a single result — runner
counters, per-entry stats and ledgers must already be complete — and
read only **after** the whole script, later mutations included, has
run — results must still be the ones pinned at submission.

CI runs this file explicitly and fails if it was skipped (e.g. a
missing ``hypothesis``), so the property coverage cannot silently rot
out of the pipeline.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table, build_prototype
from repro.core.lookup_table import OpenFlowLookupTable
from repro.filters.paper_data import MacFilterStats, RoutingFilterStats
from repro.filters.synthetic import generate_mac_set, generate_routing_set
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import ExactMatch, Match, PrefixMatch, RangeMatch
from repro.openflow.pipeline import MissPolicy, OpenFlowPipeline, path_entries
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.generator import PacketGenerator, TraceConfig
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    ARRIVALS,
    BatchPipeline,
    FaultPlan,
    LifecycleSweeper,
    MegaflowRecorder,
    ShardedBatchPipeline,
    StreamConfig,
    SupervisionConfig,
    run_stream,
)
from repro.runtime.megaflow import replay_template
from repro.runtime.transport import (
    REPLY_COUNTERS,
    BlockWriter,
    encode_outcomes,
    reply_nbytes,
)
from repro.runtime.streaming import SHED_REASONS

from tests.packet.test_packet_batch import packed_masked_key
from tests.runtime.stream_reference import run_stream_reference

#: Match schema: one exact, two prefix, one range, one exact field — all
#: three engine kinds of the decomposition participate in every example.
SCHEMA = ("in_port", "ipv4_dst", "ipv4_src", "tcp_dst", "eth_type")

BATCH_SIZE = 7  # deliberately odd: chunk boundaries land mid-burst


# ----------------------------------------------------------------------
# strategies (specs are plain tuples: hashable, picklable, shrinkable)
# ----------------------------------------------------------------------

_ports = st.integers(min_value=0, max_value=7)
_prefix_len = st.sampled_from((0, 8, 16, 24, 32))
_port_edges = st.sampled_from((0, 80, 443, 1023, 1024, 65535))


def _prefix_spec():
    return st.tuples(
        st.just("prefix"), st.integers(0, 3), _prefix_len
    )


_field_spec = {
    "in_port": st.tuples(st.just("exact"), _ports),
    "ipv4_dst": _prefix_spec(),
    "ipv4_src": _prefix_spec(),
    "tcp_dst": st.tuples(st.just("range"), _port_edges, _port_edges),
    "eth_type": st.tuples(
        st.just("exact"), st.sampled_from((0x0800, 0x0806, 0x86DD))
    ),
}

_rule_spec = st.tuples(
    st.integers(0, 1),  # table id
    st.lists(
        st.sampled_from(SCHEMA), unique=True, min_size=0, max_size=3
    ).flatmap(
        lambda names: st.tuples(
            *[st.tuples(st.just(name), _field_spec[name]) for name in names]
        )
    ),
    st.integers(0, 3),  # priority (small: forces tiebreak coverage)
    st.integers(1, 200),  # output port
    st.booleans(),  # goto table 1 (only meaningful from table 0)
    st.booleans(),  # rewrite eth_type before the goto
    st.integers(0, 3),  # idle timeout (0 = permanent)
    st.integers(0, 3),  # hard timeout (0 = permanent)
)

_example = st.fixed_dictionaries(
    {
        "rules": st.lists(_rule_spec, min_size=1, max_size=8),
        "initial": st.lists(st.integers(0, 7), min_size=1, max_size=8),
        "events": st.lists(
            st.one_of(
                st.tuples(st.just("burst"), st.integers(1, 3)),
                st.tuples(st.just("add"), st.integers(0, 7)),
                st.tuples(st.just("remove"), st.integers(0, 7)),
                st.tuples(st.just("advance"), st.integers(1, 3)),
            ),
            min_size=1,
            max_size=6,
        ),
        "packets": st.lists(
            st.tuples(
                st.sampled_from(("rule", "random")),
                st.integers(0, 7),  # rule index (mod len) or drop-field pick
                st.booleans(),  # drop one field from the packet
            ),
            min_size=1,
            max_size=12,
        ),
        "dup_picks": st.lists(st.integers(0, 11), min_size=4, max_size=30),
        "seed": st.integers(0, 2**16),
    }
)


def _build_predicate(spec):
    kind = spec[0]
    if kind == "exact":
        return ExactMatch(value=spec[1], bits=32 if spec[1] <= 7 else 16)
    if kind == "prefix":
        base, length = spec[1], spec[2]
        value = (base << (32 - length)) if length else 0
        return PrefixMatch(value=value, length=length, bits=32)
    low, high = sorted(spec[1:])
    return RangeMatch(low=low, high=high, bits=16)


def _build_match(field_specs) -> Match:
    return Match(
        {name: _build_predicate(spec) for name, spec in field_specs}
    )


def _build_entry(rule_spec) -> tuple[int, FlowEntry]:
    table_id, field_specs, priority, port, goto, rewrite, idle, hard = (
        rule_spec
    )
    instructions = []
    if rewrite and goto and table_id == 0:
        instructions.append(ApplyActions([SetFieldAction("eth_type", 0x0800)]))
    instructions.append(WriteActions([OutputAction(port)]))
    if goto and table_id == 0:
        instructions.append(GotoTable(1))
    return table_id, FlowEntry.build(
        match=_build_match(field_specs),
        priority=priority,
        instructions=instructions,
        idle_timeout=idle,
        hard_timeout=hard,
    )


def _build_trace(example) -> list[dict[str, int]]:
    """One shared packet pool; duplicate picks alias the same dicts
    (exactly how the scenario generators build traces).  Every pool
    entry carries a deterministic per-flow frame length, so byte
    counters accrue distinct (conservation-checkable) values on every
    example."""
    generator = PacketGenerator(TraceConfig(seed=example["seed"]))
    pool: list[dict[str, int]] = []
    rules = example["rules"]
    for index, (kind, pick, drop) in enumerate(example["packets"]):
        if kind == "rule":
            match = _build_match(rules[pick % len(rules)][1])
            fields = generator.fields_matching(match, fill_fields=SCHEMA)
        else:
            fields = generator.random_fields(SCHEMA)
        if drop:
            fields.pop(SCHEMA[pick % len(SCHEMA)], None)
        fields[FRAME_LEN_FIELD] = 64 + 97 * index  # distinct per flow
        pool.append(fields)
    return [pool[pick % len(pool)] for pick in example["dup_picks"]]


class Replayer:
    """Drives one runner through the example's event script.

    Each replayer owns *fresh* entry objects built from the shared rule
    specs, so per-entry flow-stats counters are per-runner and directly
    comparable afterwards.
    """

    #: Rule spec -> ``(table_id, FlowEntry)``; subclasses swap the rule
    #: vocabulary without touching the event machinery.
    build_entry = staticmethod(_build_entry)

    def __init__(self, example, make_tables, runner_factory=None, columnar=False):
        self.columnar = columnar
        self.entries = [self.build_entry(spec) for spec in example["rules"]]
        tables = make_tables()
        self.tables = {t.table_id: t for t in tables}
        for pick in example["initial"]:
            table_id, entry = self.entries[pick % len(self.entries)]
            self.tables[table_id].add(entry)
        self.pipeline = (
            MultiTableLookupArchitecture(tables)
            if isinstance(tables[0], OpenFlowLookupTable)
            else OpenFlowPipeline(tables)
        )
        self.runner = runner_factory(self.pipeline) if runner_factory else None
        # Scalar paths (no runner) sweep through their own sweeper; the
        # runners carry one already and expose it via advance_clock.
        self.sweeper = LifecycleSweeper() if self.runner is None else None
        self.flow_removed = []
        self.results = []

    def advance(self, dt):
        """One virtual-clock tick: sweep, collect the expiry events."""
        if self.runner is not None:
            self.flow_removed.extend(self.runner.advance_clock(dt))
        else:
            self.flow_removed.extend(self.sweeper.advance(self.pipeline, dt))

    def mutate(self, kind, pick):
        table_id, entry = self.entries[pick % len(self.entries)]
        surface = (
            self.runner.pipeline if self.runner is not None else self.pipeline
        )
        if kind == "add":
            surface.table(table_id).add(entry)
        else:
            surface.table(table_id).remove(entry.match, entry.priority)

    def classify(self, burst):
        if self.runner is None:
            self.results.extend(self.pipeline.process(p) for p in burst)
            return
        chunks = self.chunks(burst)
        process_batches = getattr(self.runner, "process_batches", None)
        if process_batches is not None:
            # The pipelined dispatch/collect loop: multi-chunk bursts
            # genuinely overlap in flight.
            for chunk_results in process_batches(chunks):
                self.results.extend(chunk_results)
        else:
            for chunk in chunks:
                self.results.extend(self.runner.process_batch(chunk))

    def chunks(self, burst):
        """The burst in BATCH_SIZE chunks; columnar replayers build one
        columnar batch per burst and slice it into views — the shape
        scenario builders emit through columnar_workload."""
        packets = PacketBatch.from_dicts(burst) if self.columnar else burst
        return [
            packets[start : start + BATCH_SIZE]
            for start in range(0, len(burst), BATCH_SIZE)
        ]

    def replay(self, example, trace):
        cursor = 0
        for event in example["events"]:
            if event[0] == "burst":
                take = min(event[1] * BATCH_SIZE, len(trace) - cursor)
                self.classify(trace[cursor : cursor + take])
                cursor += take
            elif event[0] == "advance":
                self.advance(event[1])
            else:
                self.mutate(event[0], event[1])
        if cursor < len(trace):
            self.classify(trace[cursor:])

    def flow_counts(self) -> list[tuple[int, int]]:
        """(packets, bytes) per rule spec, dead or alive — churned-out
        entries keep their history, so conservation survives removal."""
        return [
            (entry.stats.packet_count, entry.stats.byte_count)
            for _, entry in self.entries
        ]

    def removed_events(self):
        """The flow-removed ledger as a sorted multiset: expiries
        landing on the same tick are emitted in snapshot order, which
        differs between the priority-sorted scan tables and the
        insertion-ordered decomposed tables; the *events* themselves
        (identity, reason, final counters, ticks) must still agree
        exactly.  FlowRemoved is frozen with a value repr, so repr is a
        total order over equal-content ledgers."""
        return sorted(self.flow_removed, key=repr)

    def close(self):
        if isinstance(self.runner, ShardedBatchPipeline):
            self.runner.close()


class LazyReplayer(Replayer):
    """A sharded replayer that collects every ``process_batches``
    outcome *unread*: nothing is materialised while the script runs.
    :meth:`read` materialises them all afterwards — after every later
    burst has reused the block ring and every later mutation has
    landed — or is never called at all."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outcomes = []

    def classify(self, burst):
        self.outcomes.extend(self.runner.process_batches(self.chunks(burst)))

    def read(self):
        self.results = [
            result for outcome in self.outcomes for result in outcome
        ]


def _flow_tables():
    return [FlowTable(table_id=0), FlowTable(table_id=1)]


def _lookup_tables():
    return [
        OpenFlowLookupTable(SCHEMA, table_id=0),
        OpenFlowLookupTable(SCHEMA, table_id=1),
    ]


def assert_same_result(a, b, context):
    assert a.output_ports == b.output_ports, context
    assert a.sent_to_controller == b.sent_to_controller, context
    assert a.dropped == b.dropped, context
    assert a.metadata == b.metadata, context
    assert a.tables_visited == b.tables_visited, context
    assert a.final_fields == b.final_fields, context
    assert [(e.match, e.priority) for e in a.matched_entries] == [
        (e.match, e.priority) for e in b.matched_entries
    ], context
    assert a.applied_actions == b.applied_actions, context


RUNNERS = {
    "scan": (_flow_tables, None),
    "decomposed": (_lookup_tables, None),
    "batched": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(pipeline, cache_capacity=None),
    ),
    "cached": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(pipeline, cache_capacity=16),
    ),
    "megaflow": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(
            pipeline, cache_capacity=16, megaflow_capacity=32
        ),
    ),
    "sharded-shm-pipelined": (
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        ),
    ),
    "sharded-shared-rules": (
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
            shared_rules=True,
        ),
    ),
    "columnar-cached": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(pipeline, cache_capacity=16),
        True,
    ),
    "columnar-megaflow": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(
            pipeline, cache_capacity=16, megaflow_capacity=32
        ),
        True,
    ),
    "columnar-sharded": (
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        ),
        True,
    ),
}


def _batch_count(example, trace_len):
    """How many batches the replayer will submit — sizes the seeded
    fault schedule so chaos faults land on seqs that actually run."""
    cursor = 0
    count = 0
    for event in example["events"]:
        if event[0] == "burst":
            take = min(event[1] * BATCH_SIZE, trace_len - cursor)
            count += (take + BATCH_SIZE - 1) // BATCH_SIZE
            cursor += take
    if cursor < trace_len:
        count += (trace_len - cursor + BATCH_SIZE - 1) // BATCH_SIZE
    return count


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_example)
def test_sharded_equivalent_under_chaos(example):
    """Chaos mode: the pipelined sharded path with a seeded fault plan
    SIGKILLing workers at random serve steps must stay observationally
    identical to the scan path — results and per-entry flow counters —
    across random rule sets, churn scripts and traces.  Three runners
    take the same plan: one reads results as they land and recovers by
    respawn + replay; one recovers the same way but reads every outcome
    only after the script has finished; one has no restart budget, so a
    crashed shard's batches are classified inline — a replayed shard
    and an inline shard must merge into the same lazy outcomes."""
    trace = _build_trace(example)
    reference = Replayer(example, _flow_tables)
    reference.replay(example, trace)
    seqs = range(max(1, _batch_count(example, len(trace))))
    plan = FaultPlan.seeded(example["seed"], workers=2, seqs=seqs, faults=2)

    def sharded(supervision=None):
        return lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
            fault_plan=plan,
            supervision=supervision,
        )

    inline = SupervisionConfig(restart_budget=0)
    for name, chaotic in (
        ("eager", Replayer(example, _lookup_tables, sharded())),
        ("late", LazyReplayer(example, _lookup_tables, sharded())),
        ("inline", LazyReplayer(example, _lookup_tables, sharded(inline))),
    ):
        try:
            chaotic.replay(example, trace)
            if name != "eager":
                chaotic.read()
            snapshot = chaotic.runner.supervision_snapshot()
            assert len(chaotic.results) == len(reference.results)
            for i, (got, expected) in enumerate(
                zip(chaotic.results, reference.results)
            ):
                assert_same_result(got, expected, f"chaos/{name} packet {i}")
            assert chaotic.flow_counts() == reference.flow_counts(), (
                f"chaos/{name}: per-entry flow stats diverge from the scan path"
            )
            assert chaotic.removed_events() == reference.removed_events(), (
                f"chaos/{name}: flow-removed ledger diverges from the scan path"
            )
            # Every packet probed the megaflow tier once (nothing here
            # bypasses it), so each reply was counted exactly once —
            # lost ones never, replayed or inline ones once.
            stats = chaotic.runner.stats_snapshot()
            assert stats.packets == len(trace)
            assert stats.megaflow_hits + stats.megaflow_misses == stats.packets, (
                f"chaos/{name}: megaflow hits + misses != packets"
            )
            # Crashes (if the schedule hit a live (worker, seq) pair)
            # must all have been absorbed — by respawn + replay, or with
            # no budget by serving the shard in-process — never a wedge.
            assert snapshot["wedges"] == 0
            if name == "inline":
                assert snapshot["restarts"] == 0
                assert bool(snapshot["inline_packets"]) == bool(snapshot["crashes"])
            else:
                assert snapshot["restarts"] == snapshot["crashes"]
        finally:
            chaotic.close()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_example)
def test_all_paths_equivalent(example):
    trace = _build_trace(example)
    replayers: dict[str, Replayer] = {}
    try:
        for name, (make_tables, factory, *flags) in RUNNERS.items():
            replayer = Replayer(
                example, make_tables, factory, columnar=bool(flags and flags[0])
            )
            replayers[name] = replayer
            replayer.replay(example, trace)
        reference = replayers["scan"]
        assert len(reference.results) == len(trace)
        for name, replayer in replayers.items():
            if name == "scan":
                continue
            assert len(replayer.results) == len(reference.results)
            for i, (got, expected) in enumerate(
                zip(replayer.results, reference.results)
            ):
                assert_same_result(got, expected, f"{name} packet {i}")
            assert replayer.flow_counts() == reference.flow_counts(), (
                f"{name}: per-entry flow stats diverge from the scan path"
            )
            assert replayer.removed_events() == reference.removed_events(), (
                f"{name}: flow-removed ledger diverges from the scan path"
            )
    finally:
        for replayer in replayers.values():
            replayer.close()


_COUNTERS = (
    "packets",
    "batches",
    "matched",
    "sent_to_controller",
    "dropped",
    "flow_packets",
    "flow_bytes",
    "advances",
    "expired",
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    example=_example,
    workers=st.sampled_from((1, 2, 3)),
    columnar=st.booleans(),
)
def test_sharded_lazy_outcomes_equivalent(example, workers, columnar):
    """``process_batches`` outcomes are lazy; laziness must be
    unobservable.  Against the single-process two-tier runner: a stream
    drained *without reading a result* has already merged every runner
    counter, per-entry packet/byte count and flow-removed event; and
    outcomes read only after the whole script ran — later bursts
    through the same ring slots, later flow-mods and expiries on the
    same tables — still materialise the results pinned at submission."""
    trace = _build_trace(example)

    def two_tier(pipeline):
        return BatchPipeline(pipeline, cache_capacity=16, megaflow_capacity=32)

    def sharded(pipeline):
        return ShardedBatchPipeline(
            pipeline,
            workers=workers,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        )

    single = Replayer(example, _lookup_tables, two_tier, columnar=columnar)
    single.replay(example, trace)
    expected = single.runner.stats_snapshot()
    for read in (False, True):
        lazy = LazyReplayer(example, _lookup_tables, sharded, columnar=columnar)
        try:
            lazy.replay(example, trace)
            got = lazy.runner.stats_snapshot()
            assert {n: getattr(got, n) for n in _COUNTERS} == {
                n: getattr(expected, n) for n in _COUNTERS
            }, "runner counters diverge from single-process"
            assert lazy.flow_counts() == single.flow_counts()
            assert lazy.removed_events() == single.removed_events()
            assert sum(map(len, lazy.outcomes)) == len(trace)
            if read:
                lazy.read()
                for i, (a, b) in enumerate(zip(lazy.results, single.results)):
                    assert_same_result(a, b, f"late-read packet {i}")
        finally:
            lazy.close()


# ----------------------------------------------------------------------
# The columnar miss path: multi-table misses against the scalar spec
# ----------------------------------------------------------------------
#
# Megaflow misses walk the tables as index arrays
# (``repro.runtime.walk``) — ``PacketBatch`` input directly, dict input
# converted at the runner's door; a runner with no cache tier still
# walks dict batches packet by packet (``BatchPipeline._run_waves``);
# the ``FlowTable`` scan is the spec.
# The rule vocabulary here is the one the single-schema harness above
# cannot reach: three tables with *different* schemas chained by
# forward Goto-Table, a ``metadata`` register written by one table and
# matched by the next (with partial masks), Apply-Actions set-fields on
# a field a later table matches (the override lane), Clear-Actions
# ahead of Write-Actions, Write-Actions set-fields (rewrites that must
# *not* reach a later lookup), and table-miss entries.

_MISS_SCHEMAS = {
    0: ("in_port", "vlan_vid"),
    1: ("metadata", "eth_type", "ipv4_dst"),
    2: ("metadata", "vlan_vid", "tcp_dst"),
}
#: Header fields a trace packet may carry (``metadata`` rides along only
#: when the example says so: the register still starts at zero).
_MISS_FIELDS = ("in_port", "vlan_vid", "eth_type", "ipv4_dst", "tcp_dst")

_miss_field_spec = {
    "in_port": st.tuples(st.just("exact"), _ports),
    "vlan_vid": st.tuples(st.just("vlan"), st.integers(1, 3)),
    "metadata": st.tuples(st.just("label"), st.integers(1, 3)),
    "eth_type": _field_spec["eth_type"],
    "ipv4_dst": _prefix_spec(),
    "tcp_dst": _field_spec["tcp_dst"],
}


def _miss_rule_spec(table_id):
    schema = _MISS_SCHEMAS[table_id]
    later = [t for t in _MISS_SCHEMAS if t > table_id]
    return st.tuples(
        st.just(table_id),
        st.lists(
            st.sampled_from(schema), unique=True, min_size=0, max_size=2
        ).flatmap(
            lambda names: st.tuples(
                *[
                    st.tuples(st.just(name), _miss_field_spec[name])
                    for name in names
                ]
            )
        ),
        st.integers(0, 2),  # priority; 0 + empty match = table-miss entry
        st.sampled_from((None, "vlan_vid", "eth_type")),  # apply set-field
        st.booleans(),  # clear-actions
        st.sampled_from((None, "output", "set-vlan", "both")),  # write-actions
        st.sampled_from((None, (1, 3), (2, 3), (3, 1), (0, 2))),  # metadata
        st.sampled_from([None, *later]),  # goto
        st.integers(1, 200),  # output port
        st.integers(0, 3),  # idle timeout
        st.integers(0, 3),  # hard timeout
    )


_miss_example = st.fixed_dictionaries(
    {
        "rules": st.lists(
            st.one_of(*[_miss_rule_spec(t) for t in _MISS_SCHEMAS]),
            min_size=2,
            max_size=10,
        ),
        "initial": st.lists(st.integers(0, 9), min_size=2, max_size=10),
        "events": st.lists(
            st.one_of(
                st.tuples(st.just("burst"), st.integers(1, 3)),
                st.tuples(st.just("add"), st.integers(0, 9)),
                st.tuples(st.just("remove"), st.integers(0, 9)),
                st.tuples(st.just("advance"), st.integers(1, 3)),
            ),
            min_size=1,
            max_size=6,
        ),
        "packets": st.lists(
            st.tuples(
                st.sampled_from(("rule", "random")),
                st.integers(0, 9),  # rule index (mod len) / drop-field pick
                st.booleans(),  # drop one field from the packet
                st.sampled_from((None, None, 1, 2)),  # packet-borne metadata
            ),
            min_size=1,
            max_size=12,
        ),
        "dup_picks": st.lists(st.integers(0, 11), min_size=4, max_size=30),
        "megaflow_capacity": st.sampled_from((3, 8, 64)),
        "seed": st.integers(0, 2**16),
    }
)


def _build_miss_predicate(spec):
    if spec[0] == "vlan":
        return ExactMatch(value=spec[1], bits=13)
    if spec[0] == "label":
        return ExactMatch(value=spec[1], bits=64)
    return _build_predicate(spec)


def _build_miss_entry(rule_spec) -> tuple[int, FlowEntry]:
    (table_id, field_specs, priority, applied, clear, written, metadata,
     goto, port, idle, hard) = rule_spec
    instructions = []
    if applied == "vlan_vid":
        instructions.append(ApplyActions([SetFieldAction("vlan_vid", 2)]))
    elif applied == "eth_type":
        instructions.append(
            ApplyActions([SetFieldAction("eth_type", 0x0806), OutputAction(port + 1)])
        )
    if clear:
        instructions.append(ClearActions())
    actions = []
    if written in ("set-vlan", "both"):
        actions.append(SetFieldAction("vlan_vid", 3))
    if written in ("output", "both"):
        actions.append(OutputAction(port))
    if actions:
        instructions.append(WriteActions(actions))
    if metadata is not None:
        instructions.append(WriteMetadata(value=metadata[0] & metadata[1], mask=metadata[1]))
    if goto is not None:
        instructions.append(GotoTable(goto))
    return table_id, FlowEntry.build(
        match=Match(
            {name: _build_miss_predicate(spec) for name, spec in field_specs}
        ),
        priority=priority,
        instructions=instructions,
        idle_timeout=idle,
        hard_timeout=hard,
    )


class MissReplayer(Replayer):
    build_entry = staticmethod(_build_miss_entry)


def _build_miss_trace(example) -> list[dict[str, int]]:
    generator = PacketGenerator(TraceConfig(seed=example["seed"]))
    pool: list[dict[str, int]] = []
    rules = example["rules"]
    for index, (kind, pick, drop, metadata) in enumerate(example["packets"]):
        if kind == "rule":
            match = _build_miss_entry(rules[pick % len(rules)])[1].match
            fields = generator.fields_matching(
                {n: p for n, p in match.items() if n != "metadata"},
                fill_fields=_MISS_FIELDS,
            )
        else:
            fields = generator.random_fields(_MISS_FIELDS)
        fields["vlan_vid"] &= 3  # keep the tiny VLAN space hit-prone
        if drop:
            fields.pop(_MISS_FIELDS[pick % len(_MISS_FIELDS)], None)
        if metadata is not None:
            fields["metadata"] = metadata
        fields[FRAME_LEN_FIELD] = 64 + 97 * index
        pool.append(fields)
    return [pool[pick % len(pool)] for pick in example["dup_picks"]]


def _miss_lookup_tables():
    return [
        OpenFlowLookupTable(schema, table_id=table_id)
        for table_id, schema in _MISS_SCHEMAS.items()
    ]


def _miss_flow_tables():
    return [FlowTable(table_id=table_id) for table_id in _MISS_SCHEMAS]


def _hold_capture_to_spec(runner):
    """Hold the runner's one batched megaflow capture to its scalar
    specification, install by install.

    Every aggregate :meth:`MegaflowCache.install_batch` stores is
    checked, as it is stored, against
    ``pipeline.process(fields, mask=MegaflowRecorder())`` on a replica
    of the runner's pipeline at the same log position (a deep copy taken
    at install time: same entries, same engine structures, same version
    counters — and the spec's own flow-stats bumps land on the copy):
    mask signature, visited-table route with its version tags, rewrite
    overrides, and the packed key under that mask.  Returns a
    one-element list counting the aggregates checked.
    """
    megaflow = runner.megaflow
    install_batch = megaflow.install_batch
    checked = [0]

    def audited(
        batch, positions, masks, mask_codes, paths, path_codes, credits, versions
    ):
        install_batch(
            batch, positions, masks, mask_codes, paths, path_codes, credits, versions
        )
        replica = copy.deepcopy(runner.pipeline)
        for position, mask_code, code in zip(
            positions.tolist(), mask_codes.tolist(), path_codes.tolist()
        ):
            mask = masks[mask_code]
            keys, row_codes = batch.masked_key_codes(mask)
            key = keys[row_codes[batch.pick[position]]]
            fields = batch.fields_at(position)
            recorder = MegaflowRecorder()
            result = replica.process(fields, mask=recorder)
            context = f"aggregate of {fields}"
            assert mask == recorder.mask_signature(), context
            assert [
                (table.table_id, version) for table, version in versions[code]
            ] == recorder.tables, context
            outcome = runner.pipeline.replay_path(path_entries(paths[code]))
            assert dict(outcome.overrides) == {
                name: result.final_fields[name]
                for name in recorder.rewritten
                if name in result.final_fields
            }, context
            assert key == packed_masked_key(mask, fields), context
        checked[0] += len(positions)

    megaflow.install_batch = audited
    return checked


def _assert_miss_paths_agree(replayers, trace_len, captures):
    reference = replayers["scan"]
    assert len(reference.results) == trace_len
    for name, replayer in replayers.items():
        if name == "scan":
            continue
        assert len(replayer.results) == trace_len
        for i, (got, expected) in enumerate(
            zip(replayer.results, reference.results)
        ):
            assert_same_result(got, expected, f"{name} packet {i}")
        assert replayer.flow_counts() == reference.flow_counts(), (
            f"{name}: per-entry flow stats diverge from the scan path"
        )
        assert replayer.removed_events() == reference.removed_events(), (
            f"{name}: flow-removed ledger diverges from the scan path"
        )
    # Every megaflow miss was captured, installed and held to the spec.
    for name, checked in captures.items():
        runner = replayers[name].runner
        cache = runner.megaflow
        assert checked[0] == cache.installs == runner.stats.megaflow_misses, (
            f"{name}: installs went around the capture oracle"
        )
        assert len(cache) <= cache.capacity


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_miss_example)
def test_columnar_miss_path_equivalent(example):
    """Hand-built three-table pipelines: the columnar miss path (given
    columnar batches, or dict batches through the runner's door), the
    tier-free dict wave loop and the scan agree on results, per-entry
    counters and the flow-removed ledger; and every aggregate the
    two-tier columnar runner installs carries the mask, route, version
    tags, overrides and key the scalar capture specification gives its
    packet."""
    trace = _build_miss_trace(example)
    capacity = example["megaflow_capacity"]

    def two_tier(pipeline):
        return BatchPipeline(
            pipeline, cache_capacity=16, megaflow_capacity=capacity
        )

    def tier_free(pipeline):
        return BatchPipeline(pipeline, cache_capacity=None)

    runners = {
        "scan": (_miss_flow_tables, None, False),
        "dict": (_miss_lookup_tables, two_tier, False),
        "dict-uncached": (_miss_lookup_tables, tier_free, False),
        "columnar": (_miss_lookup_tables, two_tier, True),
        "columnar-uncached": (_miss_lookup_tables, tier_free, True),
    }
    replayers = {
        name: MissReplayer(example, make_tables, factory, columnar=columnar)
        for name, (make_tables, factory, columnar) in runners.items()
    }
    captures = {"columnar": _hold_capture_to_spec(replayers["columnar"].runner)}
    for replayer in replayers.values():
        replayer.replay(example, trace)
    _assert_miss_paths_agree(replayers, len(trace), captures)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_miss_example, miss_policy=st.sampled_from(list(MissPolicy)))
def test_replay_path_is_process_without_the_packet(example, miss_policy):
    """An outcome is a pure function of (entry path, miss policy):
    replaying the entries ``process`` matched — no packet, no lookup —
    gives the processed result field for field once materialised onto
    the packet's own fields; what the replay carries as ``overrides`` is
    exactly what the path rewrote.  Over the scan tables and the
    decomposition architecture alike: this is the one function the
    columnar walk and the sharded decode both build their outcomes
    with."""
    trace = _build_miss_trace(example)
    for make_tables in (_miss_flow_tables, _miss_lookup_tables):
        pipeline = MissReplayer(example, make_tables).pipeline
        pipeline.miss_policy = miss_policy
        for fields in trace:
            processed = pipeline.process(fields)
            replayed = pipeline.replay_path(processed.matched_entries)
            assert {**fields, **dict(replayed.overrides)} == processed.final_fields
            assert (
                replay_template(replayed, fields) == processed
            ), f"{make_tables.__name__}: {fields}"
            assert replayed.matched_entries is not processed.matched_entries


_prototype_example = st.fixed_dictionaries(
    {
        "rules_seed": st.integers(0, 2**16),
        "mac_rules": st.integers(4, 24),
        "route_rules": st.integers(20, 60),
        "flows": st.integers(2, 24),
        "picks": st.lists(st.integers(0, 23), min_size=8, max_size=60),
        "events": st.lists(
            st.one_of(
                st.tuples(st.just("burst"), st.integers(1, 3)),
                st.tuples(st.just("remove"), st.integers(0, 3), st.integers(0, 80)),
                st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 80)),
            ),
            min_size=1,
            max_size=6,
        ),
        "megaflow_capacity": st.sampled_from((4, 16, 256)),
        "seed": st.integers(0, 2**16),
    }
)


class PrototypeReplayer(Replayer):
    """The paper's four-table prototype (VLAN LUT -> Ethernet tries ->
    in-port LUT -> IPv4 tries) over small generated rule sets; flow-mods
    remove and re-add entries the builder installed."""

    def __init__(self, example, scan, runner_factory=None, columnar=False):
        seed = example["rules_seed"]
        macs = example["mac_rules"]
        arch = build_prototype(
            generate_mac_set(
                MacFilterStats("proto", macs, min(3, macs), min(3, macs), macs, macs),
                seed=seed,
            ),
            generate_routing_set(
                RoutingFilterStats("proto", example["route_rules"], 4, 8, 16),
                seed=seed,
            ),
        )
        self.columnar = columnar
        # Fresh twins of the built entries, so counters are per-replayer.
        self.by_table = {
            table.table_id: [_fresh(entry) for entry in table]
            for table in arch.tables
        }
        self.entries = [
            (table_id, entry)
            for table_id, entries in self.by_table.items()
            for entry in entries
        ]
        if scan:
            tables = [FlowTable(table_id=t.table_id) for t in arch.tables]
            self.pipeline = OpenFlowPipeline(tables, miss_policy=arch.miss_policy)
        else:
            tables = [
                OpenFlowLookupTable(t.field_names, table_id=t.table_id)
                for t in arch.tables
            ]
            self.pipeline = MultiTableLookupArchitecture(tables)
        self.tables = {t.table_id: t for t in tables}
        for table_id, entry in self.entries:
            self.tables[table_id].add(entry)
        self.runner = runner_factory(self.pipeline) if runner_factory else None
        self.sweeper = LifecycleSweeper() if self.runner is None else None
        self.flow_removed = []
        self.results = []
        self.matches = {t.table_id: t.field_names for t in arch.tables}
        self.arch = arch

    def replay(self, example, trace):
        cursor = 0
        for event in example["events"]:
            if event[0] == "burst":
                take = min(event[1] * BATCH_SIZE, len(trace) - cursor)
                self.classify(trace[cursor : cursor + take])
                cursor += take
            else:
                entries = self.by_table[event[1]]
                entry = entries[event[2] % len(entries)]
                surface = self.runner.pipeline if self.runner else self.pipeline
                if event[0] == "add":
                    surface.table(event[1]).add(entry)
                else:
                    surface.table(event[1]).remove(entry.match, entry.priority)
        if cursor < len(trace):
            self.classify(trace[cursor:])


def _fresh(entry: FlowEntry) -> FlowEntry:
    return FlowEntry(
        match=entry.match,
        priority=entry.priority,
        instructions=entry.instructions,
    )


def _prototype_trace(example, arch) -> list[dict[str, int]]:
    generator = PacketGenerator(TraceConfig(seed=example["seed"]))
    mac_matches = [e.match for e in arch.table(1) if "eth_dst" in e.match]
    route_matches = [e.match for e in arch.table(3) if "ipv4_dst" in e.match]
    vlans = [e.match for e in arch.table(0) if "vlan_vid" in e.match]
    ports = [e.match for e in arch.table(2) if "in_port" in e.match]
    pool = []
    for index in range(example["flows"]):
        fields: dict[str, int] = {}
        for matches in (vlans, mac_matches, ports, route_matches):
            match = matches[(index * 7 + len(fields)) % len(matches)]
            fields.update(
                generator.fields_matching(
                    {n: p for n, p in match.items() if n != "metadata"}
                )
            )
        if index % 5 == 4:
            fields.pop(("vlan_vid", "eth_dst", "ipv4_dst")[index % 3], None)
        fields[FRAME_LEN_FIELD] = 64 + 97 * index
        pool.append(fields)
    return [pool[pick % len(pool)] for pick in example["picks"]]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_prototype_example)
def test_columnar_miss_path_prototype(example):
    """The ``cold`` benchmark's shape in miniature: small
    ``build_prototype`` pipelines, duplicate-heavy traces and mid-trace
    flow-mods — columnar walk, tier-free dict wave loop and scan agree,
    and every aggregate the walk installs matches the scalar capture
    specification."""
    capacity = example["megaflow_capacity"]

    def two_tier(pipeline):
        return BatchPipeline(
            pipeline, cache_capacity=8, megaflow_capacity=capacity
        )

    def tier_free(pipeline):
        return BatchPipeline(pipeline, cache_capacity=None)

    replayers = {
        "scan": PrototypeReplayer(example, scan=True),
        "dict": PrototypeReplayer(example, False, two_tier),
        "dict-uncached": PrototypeReplayer(example, False, tier_free),
        "columnar": PrototypeReplayer(example, False, two_tier, columnar=True),
    }
    captures = {"columnar": _hold_capture_to_spec(replayers["columnar"].runner)}
    trace = _prototype_trace(example, replayers["scan"].arch)
    for replayer in replayers.values():
        replayer.replay(example, trace)
    _assert_miss_paths_agree(replayers, len(trace), captures)


# ----------------------------------------------------------------------
# A reply fits the slot the parent sized for it
# ----------------------------------------------------------------------


def _chain_pipeline(tables, ports):
    """``tables`` lookup tables chained by Goto-Table, each with one
    entry per port: ``ports`` distinct packets are a reply's worst case
    — every position its own traversal, one ref per table each."""
    chain = [
        OpenFlowLookupTable(("in_port",), table_id=table_id)
        for table_id in range(tables)
    ]
    for table in chain:
        last = table.table_id == tables - 1
        for port in range(ports):
            table.add(
                FlowEntry.build(
                    match=Match.exact(in_port=port),
                    priority=1,
                    instructions=[
                        WriteActions([OutputAction(port)])
                        if last
                        else GotoTable(table.table_id + 1)
                    ],
                )
            )
    return OpenFlowPipeline(chain)


def _encoded_reply(runner, packets):
    """One sub-batch as a worker answers it: classified without credit,
    then encoded; returns the outcomes and the encoded block's size."""
    outcomes = runner.classify(PacketBatch.from_dicts(packets))
    writer = BlockWriter()
    encode_outcomes(writer, outcomes, range(len(REPLY_COUNTERS)))
    return outcomes, writer.nbytes


class TestReplyNbytesBoundsEveryReply:
    """A reply region is sized to ``reply_nbytes`` before any worker
    writes into it, and nothing else may carry the reply, so the bound
    must hold for every block ``encode_outcomes`` can write: over the
    harness's random pipelines and traces — sliced one packet, a
    runner's batch and the whole trace at a time, caches cold then
    warm — and over chains where every position is its own traversal
    through every table."""

    @staticmethod
    def assert_bounded(runner, trace):
        tables = len(runner.pipeline.tables)
        for size in (1, BATCH_SIZE, len(trace)):
            for start in range(0, len(trace), size):
                members = trace[start : start + size]
                _, nbytes = _encoded_reply(runner, members)
                assert nbytes <= reply_nbytes(len(members), tables)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(example=_example)
    def test_random_single_table_pipelines(self, example):
        pipeline = Replayer(example, _lookup_tables).pipeline
        runner = BatchPipeline(pipeline, cache_capacity=8, megaflow_capacity=8)
        self.assert_bounded(runner, _build_trace(example))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(example=_miss_example)
    def test_random_multi_table_chains(self, example):
        pipeline = MissReplayer(example, _miss_lookup_tables).pipeline
        runner = BatchPipeline(
            pipeline,
            cache_capacity=16,
            megaflow_capacity=example["megaflow_capacity"],
        )
        self.assert_bounded(runner, _build_miss_trace(example))

    @settings(max_examples=40, deadline=None)
    @given(tables=st.integers(1, 4), ports=st.integers(1, 48))
    def test_every_position_its_own_traversal(self, tables, ports):
        runner = BatchPipeline(
            _chain_pipeline(tables, ports),
            cache_capacity=16,
            megaflow_capacity=64,
        )
        packets = [
            {"in_port": port, FRAME_LEN_FIELD: 64 + port}
            for port in range(ports)
        ]
        for _ in ("walked", "megaflow hits"):
            outcomes, nbytes = _encoded_reply(runner, packets)
            paths, _ = outcomes.distinct()
            assert len(paths) == ports
            assert all(len(path_entries(path)) == tables for path in paths)
            assert nbytes <= reply_nbytes(ports, tables)


# ----------------------------------------------------------------------
# Open-loop streaming: conservation and determinism as properties
# ----------------------------------------------------------------------

#: One modest rule set shared by every streaming example (the law under
#: test quantifies over arrival processes and configs, not rules — the
#: rule-set dimension is covered by the path-equivalence suite above).
_STREAM_RULES = generate_routing_set(
    RoutingFilterStats("streamprop", 200, 10, 30, 70), seed=5
)

_stream_example = st.fixed_dictionaries(
    {
        "process": st.sampled_from(sorted(ARRIVALS)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "packet_count": st.integers(min_value=20, max_value=120),
        "capacity": st.integers(min_value=4, max_value=96),
        "batch_size": st.integers(min_value=1, max_value=24),
        "window": st.integers(min_value=1, max_value=4),
        "form_deadline": st.integers(min_value=1, max_value=12),
        "service_rate": st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=4.0)
        ),
        "deadline": st.one_of(
            st.none(), st.integers(min_value=1, max_value=48)
        ),
        "degrade_after": st.integers(min_value=1, max_value=4),
    }
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_stream_example)
def test_stream_conservation_and_determinism(example):
    """For every arrival process, queue capacity and service rate the
    strategies draw: admitted == completed + shed (packets AND bytes),
    occupancy never exceeds the hard capacity, every shed record names
    a known reason, and an identically-configured rerun reproduces the
    shed ledger, latency stamps and ladder transitions exactly."""
    schedule, config = _stream_schedule_and_config(example)

    def one_run():
        runner = BatchPipeline(
            _make_stream_arch(), cache_capacity=16, megaflow_capacity=32
        )
        return run_stream(runner, schedule, config)

    report = one_run()
    report.assert_conserved()
    assert report.admitted_packets == schedule.packet_count
    assert report.admitted_bytes == schedule.byte_count
    assert report.peak_occupancy <= config.capacity
    assert all(record.reason in SHED_REASONS for record in report.shed)
    # Completed + shed indices partition the arrival index space.
    completed = {i for i, _ in report.latencies}
    dropped = {record.index for record in report.shed}
    assert not completed & dropped
    assert completed | dropped == set(range(schedule.packet_count))
    again = one_run()
    assert again.shed == report.shed
    assert again.latencies == report.latencies
    assert again.transitions == report.transitions
    assert again.batches == report.batches
    assert again.stalls == report.stalls


def _make_stream_arch():
    return MultiTableLookupArchitecture(
        [build_lookup_table(_STREAM_RULES)]
    )


def _stream_schedule_and_config(example):
    schedule = ARRIVALS[example["process"]](
        _STREAM_RULES,
        packet_count=example["packet_count"],
        seed=example["seed"],
    )
    config = StreamConfig(
        capacity=example["capacity"],
        batch_size=example["batch_size"],
        form_deadline=example["form_deadline"],
        window=example["window"],
        deadline=example["deadline"],
        service_rate=example["service_rate"],
        degrade_after=example["degrade_after"],
    )
    return schedule, config


def _timed_stream_arch():
    """The stream rule set with idle and hard timeouts sprinkled over
    it, so entries expire mid-stream (``flow_removed`` is not trivially
    empty and later packets of an expired flow miss); returns the arch
    and its entries, dead or alive, for counter comparison."""
    table = OpenFlowLookupTable(
        field_names=tuple(_STREAM_RULES.field_names), table_id=0
    )
    entries = [
        FlowEntry(
            match=entry.match,
            priority=entry.priority,
            instructions=entry.instructions,
            idle_timeout=24 if position % 3 == 0 else 0,
            hard_timeout=90 if position % 7 == 0 else 0,
        )
        for position, entry in enumerate(_STREAM_RULES.to_flow_entries())
    ]
    for entry in entries:
        table.add(entry)
    return MultiTableLookupArchitecture([table]), entries


def _entry_counters(entries):
    return [(e.stats.packet_count, e.stats.byte_count) for e in entries]


def _assert_stream_matches_reference(example, make_runner):
    """``run_stream`` on a fresh runner from ``make_runner(arch)`` vs the
    per-packet loop it replaced on a fresh two-tier ``BatchPipeline``:
    the whole report (shed ledger, latencies, transitions, batches,
    peak occupancy, results, ``flow_removed``) and every entry's
    packet/byte counters."""
    schedule, config = _stream_schedule_and_config(example)
    arch, entries = _timed_stream_arch()
    want = run_stream_reference(
        BatchPipeline(arch, cache_capacity=16, megaflow_capacity=32),
        schedule,
        config,
    )
    want_counters = _entry_counters(entries)

    arch, entries = _timed_stream_arch()
    runner = make_runner(arch)
    try:
        got = run_stream(runner, schedule, config)
        assert runner.stats.flow_packets == sum(p for p, _ in want_counters)
        assert runner.stats.flow_bytes == sum(b for _, b in want_counters)
    finally:
        if isinstance(runner, ShardedBatchPipeline):
            runner.close()
    assert len(got.results) == len(want.results) == got.completed_packets
    for index, (a, b) in enumerate(zip(got.results, want.results)):
        assert_same_result(a, b, f"stream result {index}")
    # Only the pipelined transport exerts window backpressure.
    assert dataclasses.replace(got, stalls=0) == want
    assert _entry_counters(entries) == want_counters
    return got


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_stream_example)
def test_stream_matches_per_packet_reference(example):
    """The columnar front-end (bulk admission up to the next decision
    point, ring queue, store views, lazy results) decides exactly what
    the per-packet loop decided, in the same order, for every arrival
    process, capacity (incl. ``capacity < batch_size``), batch size
    (incl. 1), service rate and drop policy the strategy draws."""
    got = _assert_stream_matches_reference(
        example,
        lambda arch: BatchPipeline(arch, cache_capacity=16, megaflow_capacity=32),
    )
    assert got.stalls == 0


#: A fixed handful for the sharded transport (a worker fleet per
#: example is too slow to draw forty of): underload, overload that
#: climbs the ladder, deadline policy, batch_size 1, capacity below
#: the batch size.
_SHARDED_STREAM_EXAMPLES = [
    dict(process="poisson", seed=3, packet_count=120, capacity=96,
         batch_size=8, window=4, form_deadline=6, service_rate=None,
         deadline=None, degrade_after=4),
    dict(process="bursty", seed=11, packet_count=120, capacity=24,
         batch_size=6, window=2, form_deadline=8, service_rate=0.4,
         deadline=None, degrade_after=1),
    dict(process="diurnal", seed=5, packet_count=100, capacity=16,
         batch_size=4, window=3, form_deadline=3, service_rate=0.25,
         deadline=12, degrade_after=2),
    dict(process="bursty", seed=23, packet_count=60, capacity=32,
         batch_size=1, window=1, form_deadline=1, service_rate=2.0,
         deadline=None, degrade_after=3),
    dict(process="poisson", seed=8, packet_count=80, capacity=5,
         batch_size=24, window=4, form_deadline=12, service_rate=1.5,
         deadline=30, degrade_after=1),
]


@pytest.mark.parametrize(
    "example", _SHARDED_STREAM_EXAMPLES, ids=lambda e: f"{e['process']}-{e['seed']}"
)
def test_sharded_stream_matches_per_packet_reference(example):
    """The same oracle through the pipelined transport: a W=2 fleet
    fed store views by ``submit_batch`` answers, sheds, stamps and
    credits exactly as the per-packet inline loop did."""
    _assert_stream_matches_reference(
        example,
        lambda arch: ShardedBatchPipeline(
            arch, workers=2, depth=4, cache_capacity=16, megaflow_capacity=32
        ),
    )
