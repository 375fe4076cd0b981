"""Deterministic flow-entry lifecycle: virtual clock + vectorized expiry.

Real OpenFlow switches expire entries against wall time; replaying the
same trace twice then removes different entries and every cross-runner
comparison in this repo (scan == cached == megaflow == columnar ==
sharded, the whole differential harness) would dissolve.  Time here is
therefore *virtual*: a :class:`VirtualClock` that only moves when a
workload says so (``("advance", dt)`` events), so every runner path
observes the identical tick sequence and lifecycle behaviour is a pure
function of the trace.

The clock moving only at sweep boundaries buys a second, bigger
invariant: every packet credited between two sweeps was credited at one
single virtual time — the tick the previous sweep ended on.  The
sweeper exploits that to detect idle-timer touches from *packet-count
deltas* instead of stamping ``last_touched`` on the hot path: no credit
site (the scalar lookups' ``stats.record``, and the runtime's one
batch credit, :func:`~repro.runtime.batch.credit_outcomes`, which is
one :meth:`~repro.openflow.flow.CounterColumns.credit` scatter per
batch in-process and on the sharded parent alike) changes at all,
which is what keeps aggregated and per-packet crediting
bitwise-identical.  For the same reason ``installed_at`` is stamped
lazily: an entry installed anywhere between two sweeps was installed at
the previous sweep's tick, so the sweep stamps
:data:`~repro.openflow.flow.UNSTAMPED` entries with exactly that tick
when it first sees them.

The stamps are columns of :data:`~repro.openflow.flow.COUNTERS` beside
the traffic counts (``installed_at``, ``last_touched``, ``swept``), so
the sweep reads and writes them by counter row — one gather or scatter
per column — and keeps no copy of its own: after every sweep an
entry's :class:`~repro.openflow.flow.FlowStats` reads exactly what the
sweep decided on.

The sweep costs what *can expire* and what *changed*, not what is
installed.  Each table keeps a :class:`~repro.openflow.flow.SweepView`
that its own ``add`` / ``remove`` update in O(1): the timed entries (a
non-zero idle or hard timeout — entries are frozen, so membership is
fixed at install) in snapshot order, and the entries installed since
the last sweep that still await their lazy stamp.  A sweep drains the
second — O(installs since the last sweep) — and rebuilds its per-table
numpy lanes from the first only when the timed membership moved —
O(timed); a flow-mod on a permanent entry costs the sweep nothing but
its stamp.  Hard deadlines (``installed + hard``, read from the
``installed_at`` column) are settled at rebuild with their minimum kept
as a scalar, so until something is due they cost one integer compare
per sweep; the packet-count gather, touch detection and idle deadline
test run over the idle-timed subset only — O(timed) per sweep — with
Python-level work only for the entries actually expiring (which leave
the table anyway).  A table with no timed entries and no fresh installs
costs O(1) per advance: no walk, no numpy.  The narrowing this buys is
stated, not hidden: ``last_touched`` and the ``swept`` column are
maintained only for entries with an idle timeout — the only entries any
decision reads them for; permanent and hard-only entries keep their
install stamp.

Expired entries are removed through the tables the sweep iterates
(``table.remove(match, priority)``), so the pipeline a runner hands the
sweep decides what a removal is: the single-process runner hands its
own pipeline and removes directly (bumping the table version exactly
like an explicit uninstall — microflow/megaflow tiers revalidate
through the machinery they already have), while the sharded runner
hands its logging facade, so every expiry is a logged removal; workers
never consult a clock.

Expiry semantics are POX ``flow_table.py`` parity: strict ``>``
deadline comparisons, hard timeout measured from install, idle from the
last touch, zero timeout = permanent, and hard-before-idle precedence
for the removal reason.  Each removal emits a :class:`FlowRemoved`
event carrying the entry's *final* packet/byte counters (the
``ofp_flow_removed`` the POX exemplar's ``process_flow_removed``
consumes) into the sweeper's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.openflow.flow import COUNTERS, FlowEntry, SweepView, UNSTAMPED
from repro.openflow.match import Match

#: int64 stand-in for "no deadline" — ``now`` never exceeds it.
_NEVER = np.iinfo(np.int64).max


class SweptTable(Protocol):
    """The table surface a sweep reads and removes through —
    ``FlowTable``, ``OpenFlowLookupTable`` and the sharded runner's
    logging facade all satisfy it structurally.  A sweep never walks
    the table: everything it needs is in the view the table's own
    mutations keep."""

    table_id: int

    @property
    def sweep_view(self) -> SweepView: ...

    def remove(self, match: Match, priority: int) -> bool: ...


class SweptPipeline(Protocol):
    """The pipeline surface :meth:`LifecycleSweeper.advance` walks."""

    @property
    def tables(self) -> Sequence[SweptTable]: ...


class VirtualClock:
    """Monotonic integer clock that only moves via :meth:`advance`.

    No wall-clock source anywhere (the ``wall-clock-ban`` lint rule
    enforces that for the whole runtime layer): ticks are abstract
    "seconds" whose meaning a workload defines by where it places its
    ``("advance", dt)`` events.
    """

    def __init__(self, now: int = 0) -> None:
        self.now = now

    def advance(self, dt: int) -> tuple[int, int]:
        """Move time forward by ``dt`` ticks; returns ``(prev, now)``.

        ``dt == 0`` is allowed (sweep without moving time); negative
        ``dt`` is rejected — virtual time never rewinds, replay depends
        on it.
        """
        if dt < 0:
            raise ValueError(f"virtual clock cannot rewind (dt={dt})")
        prev = self.now
        self.now = prev + dt
        return prev, self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self.now})"


@dataclass(frozen=True)
class FlowRemoved:
    """One expiry's ``ofp_flow_removed``: identity, reason and final
    counters, POX-style.  Frozen and fully value-comparable so the
    differential harness can assert whole ledgers equal across runner
    paths."""

    table_id: int
    match: Match
    priority: int
    cookie: int
    #: ``"hard"`` or ``"idle"`` — hard wins when both deadlines passed.
    reason: str
    idle_timeout: int
    hard_timeout: int
    installed_at: int
    removed_at: int
    #: Final traffic counters at removal time.
    packet_count: int
    byte_count: int

    @property
    def duration(self) -> int:
        """Ticks the entry lived, install to removal."""
        return self.removed_at - self.installed_at


class _TableLanes:
    """One table's lifecycle lanes, cached against its view's timed
    membership.

    Lanes exist only for *timed* entries, read from the table's
    :class:`~repro.openflow.flow.SweepView` in snapshot (= ledger)
    order and rebuilt — O(timed) — only when that membership moved
    (``timed_version``, or a different view: a thawed frozen table
    brings its own).  They hold the entries, their counter rows and
    their timeouts, nothing that changes between rebuilds: hard
    deadlines are settled once per rebuild, and the idle timers live in
    the counter columns, so mutations of untimed entries do not touch
    the lanes at all and a rebuild has nothing to write back.
    """

    def __init__(self) -> None:
        self.view: SweepView | None = None
        self.version = -1
        #: Entries that can expire, in snapshot (= ledger) order, and
        #: their rows of the counter columns (:data:`COUNTERS`).
        self.timed: tuple[FlowEntry, ...] = ()
        self.rows = np.zeros(0, dtype=np.intp)
        #: ``installed + hard`` per timed entry (``_NEVER`` without a
        #: hard timeout) and its minimum: no hard expiry is possible
        #: until ``now`` passes ``hard_due``.
        self.hard_deadline = np.zeros(0, dtype=np.int64)
        self.hard_due = _NEVER
        #: The idle-timed subset: positions within ``timed``, counter
        #: rows and idle timeouts.
        self.idle_pos = np.zeros(0, dtype=np.intp)
        self.idle_rows = np.zeros(0, dtype=np.intp)
        self.idle = np.zeros(0, dtype=np.int64)

    @staticmethod
    def _stamp(view: SweepView, prev: int) -> None:
        # Lazy stamping: anything installed since the last sweep was
        # installed while the clock sat at ``prev``, so that tick is the
        # exact install time (and initial touch) for unstamped entries.
        # Drained one item at a time, so an install racing the sweep is
        # stamped now or left for the next sweep, never dropped.
        unstamped = view.unstamped
        drained: list[int] = []
        while unstamped:
            drained.append(unstamped.popitem()[1].stats.row)
        rows = np.array(drained, dtype=np.intp)
        with COUNTERS.lock:
            rows = rows[COUNTERS.installed_at[rows] == UNSTAMPED]
            COUNTERS.installed_at[rows] = prev
            COUNTERS.last_touched[rows] = prev

    def _rebuild(self, view: SweepView) -> None:
        self.view = view
        self.version = view.timed_version
        timed = self.timed = view.timed_entries()
        # One list, then one array, per lane: cheaper than ``fromiter``
        # over a generator, whose per-call cost dominates small lanes.
        rows = self.rows = np.array([e.stats.row for e in timed], dtype=np.intp)
        hard = np.array([e.hard_timeout for e in timed], dtype=np.int64)
        idle = np.array([e.idle_timeout for e in timed], dtype=np.int64)
        self.hard_deadline = np.where(
            hard > 0, COUNTERS.installed_at[rows] + hard, _NEVER
        )
        self.hard_due = int(self.hard_deadline.min(initial=_NEVER))
        idle_pos = self.idle_pos = np.flatnonzero(idle > 0)
        self.idle_rows = rows[idle_pos]
        self.idle = idle[idle_pos]

    def sweep(
        self, table: SweptTable, prev: int, now: int
    ) -> tuple[list[FlowRemoved], int]:
        """Expire what is due at ``now``, removing each entry through
        ``table``; returns the events and the number of entry lanes the
        sweep examined."""
        view = table.sweep_view
        if view.unstamped:
            self._stamp(view, prev)
        if view is not self.view or view.timed_version != self.version:
            self._rebuild(view)
        timed = self.timed
        if not timed:
            return [], 0
        examined = 0
        # position in ``timed`` -> removal reason; hard is settled
        # first, so it wins when both deadlines have passed.
        due: dict[int, str] = {}
        if now > self.hard_due:
            examined += len(timed)
            due = dict.fromkeys(
                np.nonzero(now > self.hard_deadline)[0].tolist(), "hard"
            )
        rows = self.idle_rows
        if len(rows):
            examined += len(rows)
            # Count-delta touch detection: every credit since the last
            # sweep happened at tick ``prev`` (the clock never moved in
            # between).  Counts only grow, so an entry was touched iff
            # its count passed the one this sweep last saw.
            with COUNTERS.lock:
                counts = COUNTERS.packets[rows]
                touched = counts > COUNTERS.swept[rows]
                if touched.any():
                    COUNTERS.swept[rows[touched]] = counts[touched]
                    COUNTERS.last_touched[rows[touched]] = prev
                idle_hit = now > COUNTERS.last_touched[rows] + self.idle
            for i in self.idle_pos[idle_hit].tolist():
                due.setdefault(i, "idle")
        if not due:
            return [], examined
        order = sorted(due)
        # The final counters and install stamps of what expires: one
        # gather per column (a removal credits nothing).
        due_rows = self.rows[order]
        finals = zip(
            COUNTERS.installed_at[due_rows].tolist(),
            COUNTERS.packets[due_rows].tolist(),
            COUNTERS.bytes[due_rows].tolist(),
        )
        events: list[FlowRemoved] = []
        for i, (installed_at, packets, octets) in zip(order, finals):
            entry = timed[i]
            events.append(
                FlowRemoved(
                    table_id=table.table_id,
                    match=entry.match,
                    priority=entry.priority,
                    cookie=entry.cookie,
                    reason=due[i],
                    idle_timeout=entry.idle_timeout,
                    hard_timeout=entry.hard_timeout,
                    installed_at=installed_at,
                    removed_at=now,
                    packet_count=packets,
                    byte_count=octets,
                )
            )
            table.remove(entry.match, entry.priority)
        return events, examined


@dataclass
class LifecycleStats:
    """What only the sweeper knows: the sweeps it made, the entry lanes
    it examined and how its expiries split between idle and hard.  The
    runner counts its advances and the entries they expired in its own
    record (``runner.stats``), from the events each advance returns."""

    sweeps: int = 0
    #: Total entry lanes examined across all sweeps — the work measure
    #: the throughput experiment reports as sweep cost.
    entries_scanned: int = 0
    expired_idle: int = 0
    expired_hard: int = 0


class LifecycleSweeper:
    """Drives expiry for one runner: owns the clock, the per-table
    lanes and the flow-removed ledger.

    ``advance`` walks the pipeline's tables in id order and sweeps each
    against the new tick, removing through those tables — so the
    sharded parent, which hands its logging facade, logs every expiry
    as a mutation.  The ledger preserves
    (table order, snapshot order) — deterministic, hence comparable
    across runner paths.
    """

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.ledger: list[FlowRemoved] = []
        self.stats = LifecycleStats()
        self._lanes: dict[int, _TableLanes] = {}

    def advance(self, pipeline: SweptPipeline, dt: int) -> list[FlowRemoved]:
        """Advance the clock by ``dt`` and sweep every table; returns
        (and appends to the ledger) the expiries this advance caused."""
        prev, now = self.clock.advance(dt)
        removed: list[FlowRemoved] = []
        for table in pipeline.tables:
            lanes = self._lanes.get(table.table_id)
            if lanes is None:
                lanes = self._lanes[table.table_id] = _TableLanes()
            self.stats.sweeps += 1
            events, examined = lanes.sweep(table, prev, now)
            self.stats.entries_scanned += examined
            removed.extend(events)
        for event in removed:
            if event.reason == "hard":
                self.stats.expired_hard += 1
            else:
                self.stats.expired_idle += 1
        self.ledger.extend(removed)
        return removed
