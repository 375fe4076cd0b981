"""Flow-entry lifecycle suite: virtual clock, expiry semantics, ledger
conservation.

Complements the differential property harness (which asserts the
*paths agree*) with pinned, human-readable claims about what the
lifecycle actually does: POX ``flow_table.py`` expiry parity (strict
``>`` deadlines, hard from install, idle from last touch, zero =
permanent, hard-before-idle reason precedence), ``touch_packet``
refreshing the idle timer, the conservation law tying every credited
packet to either a live entry or a flow-removed event, and the
revalidation pin — after an entry expires, traffic that used to hit it
must reach the controller, never a stale microflow/megaflow cache
line.

CI parses the junit output and fails if this file was skipped, so the
lifecycle coverage cannot silently rot out of the pipeline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.action_table import ActionTable
from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction
from repro.openflow.flow import UNSTAMPED, FlowEntry, FlowStats
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.pipeline import OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    BatchPipeline,
    LifecycleSweeper,
    ShardedBatchPipeline,
    VirtualClock,
    Workload,
    columnar_workload,
    run_workload,
)

SCHEMA = ("in_port",)
FRAME = 100


def _entry(
    port: int, priority: int = 1, idle: int = 0, hard: int = 0, cookie: int = 0
):
    return FlowEntry.build(
        match=Match.exact(in_port=port),
        priority=priority,
        instructions=[ApplyActions([OutputAction(1)])],
        cookie=cookie,
        idle_timeout=idle,
        hard_timeout=hard,
    )


def _pkt(port: int) -> dict[str, int]:
    return {"in_port": port, FRAME_LEN_FIELD: FRAME}


def _pipeline() -> MultiTableLookupArchitecture:
    return MultiTableLookupArchitecture(
        [OpenFlowLookupTable(SCHEMA, table_id=0)]
    )


def _scan_pipeline() -> OpenFlowPipeline:
    return OpenFlowPipeline([FlowTable(table_id=0)])


#: Both swept table kinds: the decomposition table (iteration order =
#: install order) and the scan oracle (iteration order = ``sort_key``).
_PIPELINES = {"lookup": _pipeline, "scan": _scan_pipeline}


class TestVirtualClock:
    def test_advance_returns_prev_and_now(self):
        clock = VirtualClock()
        assert clock.advance(3) == (0, 3)
        assert clock.advance(2) == (3, 5)
        assert clock.now == 5

    def test_zero_advance_allowed(self):
        clock = VirtualClock(now=7)
        assert clock.advance(0) == (7, 7)

    def test_rewind_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestPoxExpirySemantics:
    """Scalar parity with POX ``TableEntry.is_expired``."""

    def test_deadlines_are_strict(self):
        entry = _entry(0, idle=2, hard=5)
        entry.stats.installed_at = 0
        entry.stats.last_touched = 0
        assert not entry.is_expired(2)  # idle deadline itself: alive
        assert entry.is_expired(3)

    def test_hard_measured_from_install_despite_touches(self):
        entry = _entry(0, hard=3)
        entry.stats.installed_at = 0
        entry.touch_packet(byte_count=FRAME, now=3)  # touch can't help
        assert not entry.is_expired(3)
        assert entry.is_expired(4)

    def test_touch_packet_resets_idle_timer(self):
        entry = _entry(0, idle=2)
        entry.stats.installed_at = 0
        entry.stats.last_touched = 0
        assert entry.is_expired(3)
        entry.touch_packet(byte_count=FRAME, now=3)
        assert entry.stats.packet_count == 1
        assert entry.stats.byte_count == FRAME
        assert entry.last_touched == 3
        assert not entry.is_expired(5)  # deadline moved to 3 + 2
        assert entry.is_expired(6)

    def test_zero_timeout_is_permanent(self):
        entry = _entry(0)
        entry.stats.installed_at = 0
        entry.stats.last_touched = 0
        assert not entry.is_expired(10**9)

    def test_new_entries_start_unstamped(self):
        entry = _entry(0, idle=1)
        assert entry.installed_at == UNSTAMPED
        assert entry.last_touched == UNSTAMPED


class TestSweeper:
    def test_hard_wins_when_both_deadlines_passed(self):
        pipeline = _pipeline()
        entry = _entry(0, idle=1, hard=1)
        pipeline.table(0).add(entry)
        sweeper = LifecycleSweeper()
        assert sweeper.advance(pipeline, 1) == []  # stamps at prev=0
        removed = sweeper.advance(pipeline, 1)  # now=2 > both deadlines
        assert [event.reason for event in removed] == ["hard"]
        assert sweeper.stats.expired_hard == 1
        assert sweeper.stats.expired_idle == 0
        assert len(pipeline.table(0)) == 0

    def test_lazy_install_stamp_is_previous_tick(self):
        pipeline = _pipeline()
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 4)  # clock at 4
        entry = _entry(0, hard=2)
        pipeline.table(0).add(entry)
        assert sweeper.advance(pipeline, 1) == []  # stamped at prev=4
        assert entry.installed_at == 4
        removed = sweeper.advance(pipeline, 2)  # now=7 > 4 + 2
        assert [event.installed_at for event in removed] == [4]
        assert removed[0].removed_at == 7
        assert removed[0].duration == 3

    def test_fresh_twin_restarts_the_lifecycle(self):
        """A reinstalled (match, priority) twin is a *new* entry: zero
        counters, its own install stamp, its own deadlines."""
        pipeline = _pipeline()
        sweeper = LifecycleSweeper()
        original = _entry(3, idle=1)
        pipeline.table(0).add(original)
        sweeper.advance(pipeline, 2)  # original expires (installed 0)
        assert [e.packet_count for e in sweeper.ledger] == [0]
        twin = _entry(3, idle=1)
        pipeline.table(0).add(twin)
        assert sweeper.advance(pipeline, 1) == []  # stamped at prev=2
        assert twin.installed_at == 2
        removed = sweeper.advance(pipeline, 1)  # now=4 > 2 + 1
        assert [event.installed_at for event in removed] == [2]
        assert original.stats.packet_count == 0
        assert len(sweeper.ledger) == 2

    def test_ledger_counters_are_final(self):
        """Count-delta touch detection: traffic between sweeps refreshes
        the idle timer to the previous sweep's tick, and the removal
        event snapshots the entry's final counters."""
        pipeline = _pipeline()
        entry = _entry(0, idle=1)
        pipeline.table(0).add(entry)
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 1)  # stamp at 0, clock at 1
        entry.stats.record(FRAME)  # hot-path credit, no touch call
        entry.stats.record(FRAME)
        assert sweeper.advance(pipeline, 1) == []  # touched at 1, alive
        assert entry.last_touched == 1
        removed = sweeper.advance(pipeline, 1)  # now=3 > 1 + 1
        assert [(e.reason, e.packet_count, e.byte_count) for e in removed] == [
            ("idle", 2, 2 * FRAME)
        ]


def _stamp_path(path: str, entry: FlowEntry):
    """Install ``entry`` on one of the four ways a clock is advanced;
    returns ``(advance one tick, send one packet to the entry, clock,
    runner or None)``."""
    pipeline = _PIPELINES["scan" if path == "scan" else "lookup"]()
    pipeline.table(0).add(entry)
    if path in _PIPELINES:
        sweeper = LifecycleSweeper()

        def advance():
            return sweeper.advance(pipeline, 1)

        def send():
            entry.stats.record(FRAME)

        return advance, send, sweeper.clock, None
    if path == "batched":
        runner = BatchPipeline(pipeline, cache_capacity=16, megaflow_capacity=32)
    else:
        runner = ShardedBatchPipeline(
            pipeline, workers=1, cache_capacity=16, megaflow_capacity=32
        )

    def advance_runner():
        return runner.advance_clock(1)

    def send_runner():
        runner.process_batch([_pkt(0)])

    return advance_runner, send_runner, runner.lifecycle.clock, runner


@pytest.mark.parametrize("path", ["lookup", "scan", "batched", "sharded"])
class TestStampsAreCurrent:
    """An entry's lifecycle stamps are its counter row's, and every
    sweep writes them: with traffic between sweeps and the timed set
    fixed (so no lane rebuild runs), ``last_touched`` reads the sweep's
    previous tick right after the sweep, and POX's ``is_expired``
    predicts the sweeper's next removal — on both swept table kinds
    and through both runners' ``advance_clock``."""

    def test_stamps_track_every_sweep(self, path):
        entry = _entry(0, idle=3)
        advance, send, clock, runner = _stamp_path(path, entry)
        busy = [True] * 4 + [False] * 3
        expect_removal = None
        try:
            for step, traffic in enumerate(busy):
                if traffic:
                    send()
                prev = clock.now
                removed = advance()
                if not traffic:
                    assert bool(removed) == expect_removal, step
                if removed:
                    break
                if traffic:
                    touched_at = prev
                assert entry.installed_at == 0, step
                assert entry.last_touched == touched_at, step
                assert entry.stats.swept_packets == entry.stats.packet_count
                expect_removal = entry.is_expired(clock.now + 1)
        finally:
            if isinstance(runner, ShardedBatchPipeline):
                runner.close()
        assert [(e.reason, e.removed_at, e.packet_count) for e in removed] == [
            ("idle", touched_at + 3 + 1, 4)
        ]


class TestTimedLanes:
    """The sweep's cost model: lanes exist only for entries that can
    expire, so permanent rules cost nothing and hard-only rules cost one
    scalar compare until a deadline is due."""

    def test_permanent_table_is_never_rescanned(self, monkeypatch):
        pipeline = _pipeline()
        table = pipeline.table(0)
        for port in range(8):
            table.add(_entry(port))
        runner = BatchPipeline(pipeline, cache_capacity=None)
        sweeper = runner.lifecycle
        runner.advance_clock(1)  # the one pass for this version
        calls = []
        snapshot = table.actions.snapshot
        monkeypatch.setattr(
            table.actions,
            "snapshot",
            lambda: calls.append(None) or snapshot(),
        )
        for _ in range(50):
            assert runner.advance_clock(1) == []
        assert calls == []
        assert runner.stats.advances == sweeper.stats.sweeps == 51
        assert sweeper.stats.entries_scanned == 0
        assert len(table) == 8

    def test_permanent_entry_is_still_stamped_lazily(self):
        pipeline = _pipeline()
        sweeper = LifecycleSweeper()
        pipeline.table(0).add(_entry(0))
        sweeper.advance(pipeline, 3)  # clock at 3
        late = _entry(1)
        pipeline.table(0).add(late)
        assert late.installed_at == UNSTAMPED
        sweeper.advance(pipeline, 2)  # stamped at prev=3
        assert late.installed_at == 3
        assert late.last_touched == 3
        assert sweeper.stats.entries_scanned == 0

    def test_hard_only_entry_expires_after_early_out_sweeps(self):
        pipeline = _pipeline()
        pipeline.table(0).add(_entry(0))
        entry = _entry(1, hard=5)
        pipeline.table(0).add(entry)
        sweeper = LifecycleSweeper()
        for tick in range(1, 6):  # now = 1..5, deadline 0 + 5 not passed
            entry.stats.record(FRAME)  # traffic cannot postpone hard
            assert sweeper.advance(pipeline, 1) == [], tick
        # Nothing was due, so no lane was examined: one compare each.
        assert sweeper.stats.entries_scanned == 0
        removed = sweeper.advance(pipeline, 1)  # now = 6 = 0 + 5 + 1
        assert [(e.reason, e.installed_at, e.removed_at) for e in removed] == [
            ("hard", 0, 6)
        ]
        assert removed[0].packet_count == 5
        assert sweeper.stats.entries_scanned == 1
        assert len(pipeline.table(0)) == 1

    def test_ledger_keeps_snapshot_order_across_reasons(self):
        """Hard hits are settled before idle ones, but the ledger stays
        in snapshot order whichever lane found the expiry."""
        pipeline = _pipeline()
        for port, idle, hard in [(0, 1, 0), (1, 0, 1), (2, 0, 0), (3, 1, 0)]:
            pipeline.table(0).add(_entry(port, idle=idle, hard=hard))
        sweeper = LifecycleSweeper()
        removed = sweeper.advance(pipeline, 2)
        assert [(e.match["in_port"].value, e.reason) for e in removed] == [
            (0, "idle"),
            (1, "hard"),
            (3, "idle"),
        ]

    def test_scanned_lanes_count_the_idle_subset(self):
        pipeline = _pipeline()
        for port in range(4):
            pipeline.table(0).add(_entry(port))
        pipeline.table(0).add(_entry(4, idle=9))
        pipeline.table(0).add(_entry(5, idle=9, hard=9))
        pipeline.table(0).add(_entry(6, hard=9))
        sweeper = LifecycleSweeper()
        for _ in range(3):
            sweeper.advance(pipeline, 1)
        assert sweeper.stats.entries_scanned == 3 * 2


@pytest.mark.parametrize("kind", sorted(_PIPELINES))
class TestSweepCostShape:
    """A flow-mod costs the next sweep what it changed: the table's own
    add/remove keep the sweep's view, so an advance after a mutation
    never walks the table.  Call counts only, no clocks."""

    def test_advance_after_a_flow_mod_never_walks_the_table(
        self, kind, monkeypatch
    ):
        pipeline = _PIPELINES[kind]()
        table = pipeline.table(0)
        for port in range(4096):
            table.add(_entry(port))
        for port in range(4096, 4104):
            table.add(_entry(port, idle=100 if port % 2 else 0, hard=100))
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 1)
        added = _entry(5000, idle=100)
        table.add(added)
        assert table.remove(Match.exact(in_port=7), 1)
        calls: dict[str, int] = {}
        cls = type(table)
        # The scan oracle has no action table: walking it iterates.
        walks = [(cls, "__iter__")]
        if kind != "scan":
            walks.append((ActionTable, "snapshot"))
        for owner, name in walks:
            original = getattr(owner, name)

            def spy(self, _original=original, _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self)

            monkeypatch.setattr(owner, name, spy)
        assert sweeper.advance(pipeline, 1) == []
        assert calls == {}
        assert added.installed_at == 1
        # Only the idle-timed lanes were examined: 4, then 4 + the add.
        assert sweeper.stats.entries_scanned == 4 + 5
        assert len(table) == 4096 + 8


    def test_rebuild_and_sweep_read_no_stats_property(self, kind, monkeypatch):
        """Stamping, a lane rebuild, touch detection and an expiry read
        and write the counter columns by row: not one ``FlowStats``
        property is read per entry."""
        pipeline = _PIPELINES[kind]()
        table = pipeline.table(0)
        for port in range(64):
            table.add(_entry(port, idle=2 if port % 2 else 0, hard=9 * (port % 3)))
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 1)
        table.add(_entry(100, idle=2))  # moves the timed membership
        reads: dict[str, int] = {}
        for name in (
            "packet_count",
            "byte_count",
            "installed_at",
            "last_touched",
            "swept_packets",
        ):
            original = getattr(FlowStats, name)

            def spy(self, _original=original, _name=name):
                reads[_name] = reads.get(_name, 0) + 1
                return _original.fget(self)

            monkeypatch.setattr(FlowStats, name, property(spy, original.fset))
        for entry in tuple(table)[:16]:
            entry.stats.record(FRAME)
        assert sweeper.advance(pipeline, 1) == []  # stamp, rebuild, touches
        removed = sweeper.advance(pipeline, 1)  # the untouched idle entries
        assert len(removed) == 32 - 8
        assert reads == {}


@pytest.mark.parametrize("kind", sorted(_PIPELINES))
class TestSweepViewSemantics:
    """What the sweep's view must not change: lazy stamps, ledger order
    under a replacing add, and a bounded view on a never-swept table."""

    def test_installed_and_removed_between_sweeps_stays_unstamped(self, kind):
        pipeline = _PIPELINES[kind]()
        table = pipeline.table(0)
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 2)
        transient = _entry(1, idle=1, hard=1)
        table.add(transient)
        assert table.remove(transient.match, transient.priority)
        kept = _entry(2, idle=5)
        table.add(kept)
        assert sweeper.advance(pipeline, 1) == []
        assert transient.installed_at == UNSTAMPED
        assert transient.last_touched == UNSTAMPED
        assert kept.installed_at == 2

    def test_replacing_add_keeps_snapshot_ledger_order(self, kind):
        """The twin of a replacing add (same match and priority) is a
        new entry: last in install order on the decomposition table,
        where its ``sort_key`` puts it on the scan table."""
        pipeline = _PIPELINES[kind]()
        table = pipeline.table(0)
        table.add(_entry(0, priority=5, idle=1))
        table.add(_entry(1, priority=1, hard=1))
        table.add(_entry(2, priority=3, idle=1))
        sweeper = LifecycleSweeper()
        assert sweeper.advance(pipeline, 1) == []  # stamped at 0
        table.add(_entry(0, priority=5, idle=1, cookie=7))
        removed = sweeper.advance(pipeline, 2)  # now = 3: all are due
        got = [
            (e.match["in_port"].value, e.cookie, e.reason, e.installed_at)
            for e in removed
        ]
        twin, hard, idle = (0, 7, "idle", 1), (1, 0, "hard", 0), (2, 0, "idle", 0)
        assert got == {"lookup": [hard, idle, twin], "scan": [twin, idle, hard]}[
            kind
        ]
        assert len(table) == 0

    def test_unswept_churn_keeps_the_view_bounded(self, kind):
        pipeline = _PIPELINES[kind]()
        table = pipeline.table(0)
        table.add(_entry(0))
        for i in range(10_000):
            entry = _entry(1 + i % 7, idle=i % 2, hard=i % 3)
            table.add(entry)
            assert table.remove(entry.match, entry.priority)
        view = table.sweep_view
        assert len(view.unstamped) <= len(table) == 1
        assert len(view.timed) == 0


@pytest.mark.parametrize("name", ["batched", "megaflow", "sharded-shm"])
def test_runner_that_never_advances_keeps_the_view_bounded(name):
    """``hot``, ``cold`` and ``sharded`` never advance the clock: their
    flow-mods must not pile up pending stamps."""
    runner = _runners()[name]()
    try:
        table = runner.pipeline.table(0)
        table.add(_entry(0))
        for i in range(500):
            entry = _entry(1 + i % 3, idle=1)
            table.add(entry)
            runner.process_batch([_pkt(0), _pkt(1 + i % 3)])
            assert table.remove(entry.match, entry.priority)
        view = table.sweep_view
        assert len(view.unstamped) <= len(table) == 1
        assert len(view.timed) == 0
    finally:
        if isinstance(runner, ShardedBatchPipeline):
            runner.close()


_timeouts = st.integers(min_value=0, max_value=3)
_ports = st.integers(min_value=0, max_value=4)
_lifecycle_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _ports, _timeouts, _timeouts),
        st.tuples(st.just("uninstall"), _ports),
        st.tuples(st.just("credit"), _ports, st.integers(1, 3)),
        st.tuples(st.just("advance"), st.integers(0, 4)),
    ),
    max_size=40,
)


def _priority_of(port: int) -> int:
    """A fixed priority per port that puts the scan table's ``sort_key``
    order out of step with install order."""
    return 1 + (port * 3) % 5


@pytest.mark.parametrize("kind", sorted(_PIPELINES))
@settings(max_examples=200)
@given(ops=_lifecycle_ops)
def test_sweeper_matches_scalar_reference_model(kind, ops):
    """Random mixes of permanent / idle / hard / both entries under
    random credits, installs, uninstalls and advances (``dt == 0``
    included): the sweeper's ledger and survivors must equal a model
    that stamps eagerly, touches through ``FlowEntry.touch_packet`` and
    expires through ``FlowEntry.is_expired`` — none of the lanes, lazy
    stamps or count deltas — on both table kinds, each in its own
    snapshot order."""
    pipeline = _PIPELINES[kind]()
    table = pipeline.table(0)
    sweeper = LifecycleSweeper()
    live: dict[int, FlowEntry] = {}  # port -> entry in the real table
    model: dict[int, FlowEntry] = {}  # port -> eagerly stamped twin
    expected: list[tuple] = []
    now = 0
    for op in ops:
        if op[0] == "install":
            _, port, idle, hard = op
            priority = _priority_of(port)
            live[port] = _entry(port, priority, idle=idle, hard=hard)
            table.add(live[port])
            model[port] = _entry(port, priority, idle=idle, hard=hard)
            model[port].stats.installed_at = now
            model[port].stats.last_touched = now
        elif op[0] == "uninstall":
            if op[1] in live:
                entry = live.pop(op[1])
                assert table.remove(entry.match, entry.priority)
                del model[op[1]]
        elif op[0] == "credit":
            if op[1] in live:
                for _ in range(op[2]):
                    live[op[1]].stats.record(FRAME)
                    model[op[1]].touch_packet(FRAME, now=now)
        else:
            now += op[1]
            for entry in tuple(table):
                port = entry.match["in_port"].value
                twin = model[port]
                if not twin.is_expired(now):
                    continue
                hard_due = twin.hard_timeout > 0 and (
                    now > twin.installed_at + twin.hard_timeout
                )
                expected.append(
                    (
                        port,
                        "hard" if hard_due else "idle",
                        twin.installed_at,
                        now,
                        twin.stats.packet_count,
                        twin.stats.byte_count,
                    )
                )
                del model[port], live[port]
            sweeper.advance(pipeline, op[1])
            assert sweeper.clock.now == now
    assert [
        (
            e.match["in_port"].value,
            e.reason,
            e.installed_at,
            e.removed_at,
            e.packet_count,
            e.byte_count,
        )
        for e in sweeper.ledger
    ] == expected
    assert sweeper.stats.expired_idle + sweeper.stats.expired_hard == len(expected)
    assert sorted(map(id, tuple(table))) == sorted(
        map(id, live.values())
    )
    sweeper.advance(pipeline, 0)  # stamp anything installed since
    for port, entry in live.items():
        twin = model[port]
        assert not twin.is_expired(now)
        assert entry.stats.packet_count == twin.stats.packet_count
        assert entry.installed_at == twin.installed_at
        if entry.idle_timeout > 0:
            assert entry.last_touched == twin.last_touched


# ----------------------------------------------------------------------
# conservation across every runner path
# ----------------------------------------------------------------------

def _lifecycle_workload() -> Workload:
    """Every removal happens via expiry (no uninstall events), so the
    conservation law is exact: each credited packet is accounted for by
    a live entry or a flow-removed event, and each trace packet either
    credited an entry or went to the controller."""
    events = (
        ("install", 0, _entry(0)),  # permanent
        ("install", 0, _entry(1, idle=1)),
        ("install", 0, _entry(2, hard=2)),
        ("packets", [_pkt(0), _pkt(1), _pkt(2)] * 3),
        ("advance", 1),  # t=1: deadlines not strictly exceeded, all live
        ("packets", [_pkt(0), _pkt(1), _pkt(2)] * 2),
        ("advance", 2),  # t=3: idle (touched at 1) and hard (installed 0)
        ("packets", [_pkt(0), _pkt(1), _pkt(2)] * 2),  # flows 1, 2 miss
        ("advance", 1),
    )
    return Workload(
        name="lifecycle-conservation",
        description="mixed-timeout pool where only the sweeps remove",
        events=events,
    )


def _runners():
    return {
        "batched": lambda: BatchPipeline(_pipeline(), cache_capacity=None),
        "cached": lambda: BatchPipeline(_pipeline(), cache_capacity=16),
        "megaflow": lambda: BatchPipeline(
            _pipeline(), cache_capacity=16, megaflow_capacity=32
        ),
        "sharded-shm": lambda: ShardedBatchPipeline(
            _pipeline(),
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        ),
    }


class TestConservation:
    @pytest.mark.parametrize("columnar", [False, True], ids=["dict", "columnar"])
    @pytest.mark.parametrize("name", sorted(_runners()))
    def test_packets_conserved_on_every_path(self, name, columnar):
        # The workload is rebuilt per replay: install events carry the
        # mutable entry objects, so replaying one workload object twice
        # would leak the first run's counters into the second.
        workload = _lifecycle_workload()
        if columnar:
            workload = columnar_workload(workload)
        runner = _runners()[name]()
        try:
            stats = run_workload(runner, workload, batch_size=4)
            live = (
                runner._authoritative
                if isinstance(runner, ShardedBatchPipeline)
                else runner.pipeline
            )
            assert stats.packets == 21
            assert stats.expired == 2
            assert [e.reason for e in stats.flow_removed] == ["idle", "hard"]
            # Final counters on the removal events: 3 + 2 packets each.
            assert [e.packet_count for e in stats.flow_removed] == [5, 5]
            assert [e.byte_count for e in stats.flow_removed] == [
                5 * FRAME,
                5 * FRAME,
            ]
            # Conservation: every credited packet is in a live entry or
            # a removal event, and every trace packet either credited
            # exactly one entry (single table) or reached the
            # controller after its flow expired.
            ledger_packets = sum(e.packet_count for e in stats.flow_removed)
            ledger_bytes = sum(e.byte_count for e in stats.flow_removed)
            assert stats.flow_packets == 17
            assert stats.matched == stats.flow_packets
            assert stats.sent_to_controller == 4
            assert stats.packets == stats.matched + stats.sent_to_controller
            assert stats.flow_bytes == stats.flow_packets * FRAME
            live_entries = list(live.table(0))
            assert len(live_entries) == 1  # only the permanent flow
            live_packets = sum(e.stats.packet_count for e in live_entries)
            live_bytes = sum(e.stats.byte_count for e in live_entries)
            assert live_packets + ledger_packets == stats.flow_packets
            assert live_bytes + ledger_bytes == stats.flow_bytes
        finally:
            if isinstance(runner, ShardedBatchPipeline):
                runner.close()

    def test_ledgers_identical_across_paths(self):
        ledgers = {}
        for name, factory in _runners().items():
            runner = factory()
            try:
                stats = run_workload(
                    runner, _lifecycle_workload(), batch_size=4
                )
            finally:
                if isinstance(runner, ShardedBatchPipeline):
                    runner.close()
            ledgers[name] = stats.flow_removed
        reference = ledgers["batched"]
        assert len(reference) == 2
        for name, ledger in ledgers.items():
            assert ledger == reference, name


class TestRevalidationPin:
    def test_expired_flow_must_miss_the_caches(self):
        """The pin the two-tier runner earns its keep on: packets that
        warmed the microflow and megaflow tiers before their entry
        expired must go to the controller afterwards — an expiry is a
        table-version bump like any uninstall, and stale cache lines
        must not keep a dead flow alive."""
        runner = BatchPipeline(
            _pipeline(), cache_capacity=16, megaflow_capacity=32
        )
        runner.pipeline.table(0).add(_entry(5, idle=1))
        warm = runner.process_batch([_pkt(5), _pkt(5), _pkt(5)])
        assert all(not r.sent_to_controller for r in warm)
        removed = runner.advance_clock(2)  # idle deadline 0 + 1 < 2
        assert [e.reason for e in removed] == ["idle"]
        cold = runner.process_batch([_pkt(5), _pkt(5)])
        assert all(r.sent_to_controller for r in cold)
        assert removed[0].packet_count == 3  # final counters, frozen
