"""Flow entries.

A flow entry binds a match to an instruction set at a priority, with the
bookkeeping OpenFlow switches keep per entry (cookie, timeouts, counters).
Entries are ordered by (priority desc, specificity desc, insertion order)
— priority decides, the rest make lookup deterministic for equal-priority
overlapping entries, which the OpenFlow spec leaves undefined.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

import numpy as np

from repro.openflow.errors import PipelineError
from repro.openflow.instructions import Instruction, InstructionSet
from repro.openflow.match import Match

_sequence = itertools.count()

#: Sentinel for lifecycle timestamps that have not been stamped yet.
#: The lifecycle sweeper stamps them lazily: the virtual clock only
#: moves at sweep boundaries, so every event between two sweeps happened
#: at the clock value the previous sweep ended on, and stamping at the
#: *next* sweep is exact (see :mod:`repro.runtime.lifecycle`).
UNSTAMPED = -1


#: The counter row no :class:`FlowStats` holds (see :class:`CounterColumns`).
SINK = 0

#: What a row holds when it is handed out — ``packets``, ``bytes``,
#: ``installed_at``, ``last_touched``, ``swept``: no traffic, no stamps.
_FRESH = (0, 0, UNSTAMPED, UNSTAMPED, 0)


class CounterColumns:
    """The counters and lifecycle stamps of every live
    :class:`FlowStats` in the process, as int64 columns with one row
    per stats object: ``packets`` / ``bytes`` (traffic),
    ``installed_at`` / ``last_touched`` (virtual-clock ticks,
    :data:`UNSTAMPED` until the first sweep) and ``swept`` (the packet
    count as of the entry's last expiry sweep).

    A row is handed out when a ``FlowStats`` is built, reset as it is
    handed out, and goes back on the free list when the object is
    collected, so a counter lives exactly as long as its entry — in
    every table that holds the entry, never per table.  The batched
    runtime credits a whole batch with one scatter per column
    (:meth:`credit`) and the expiry sweep reads and writes its timed
    entries' rows with one gather or scatter per column.  The columns
    double when they run out of rows, so callers index them through
    this object, never through a kept reference to an array.  Row
    :data:`SINK` belongs to no stats object: a scatter pads ragged row
    lists with it, and nothing reads it.
    """

    __slots__ = ("table", "packets", "bytes", "installed_at", "last_touched", "swept",
                 "free", "used", "lock")

    def __init__(self, rows: int = 1024) -> None:
        self._adopt(np.zeros((len(_FRESH), rows), dtype=np.int64))
        #: Rows of collected stats, reset again when handed out.
        self.free: list[int] = []
        #: Rows ever handed out (the columns' high-water mark), the
        #: sink included.
        self.used = SINK + 1
        #: Held to hand out a row or to write one, so that an entry
        #: built on another thread cannot regrow the columns under a
        #: write (reentrant: a collection may run inside it).  A
        #: collected row goes back on ``free`` without it.
        self.lock = threading.RLock()

    def _adopt(self, table: np.ndarray) -> None:
        # One array holds every column, a row each (in ``_FRESH``
        # order); the named columns are views of its rows.
        self.table = table
        self.packets, self.bytes, self.installed_at, self.last_touched, self.swept = table

    def allocate(self, values: tuple[int, ...] = _FRESH) -> int:
        """Hand out a row holding ``values``, one per column."""
        with self.lock:
            if self.free:
                row = self.free.pop()
            else:
                row = self.used
                if row == self.table.shape[1]:
                    self._adopt(np.concatenate([self.table, np.zeros_like(self.table)], axis=1))
                self.used = row + 1
            self.table[:, row] = values
            return row

    def credit(self, rows: np.ndarray, packets: np.ndarray, octets: np.ndarray) -> None:
        """Add ``packets`` / ``octets`` to ``rows``, element by element
        as numpy broadcasts them; repeated rows accumulate."""
        with self.lock:
            np.add.at(self.packets, rows, packets)
            np.add.at(self.bytes, rows, octets)


#: The process's one set of counter columns.
COUNTERS = CounterColumns()


def _column_property(column: str) -> property:
    """A :class:`FlowStats` property that reads and writes the stats
    object's row of the ``column`` column of :data:`COUNTERS`."""

    def read(stats: FlowStats) -> int:
        return int(getattr(COUNTERS, column)[stats.row])

    def write(stats: FlowStats, value: int) -> None:
        with COUNTERS.lock:
            getattr(COUNTERS, column)[stats.row] = value

    return property(read, write)


class FlowStats:
    """Per-entry counters maintained by the switch: a view over the
    entry's row of :data:`COUNTERS`, and nothing else.

    Mirrors the POX ``TableEntry.counters`` dict: traffic counters plus
    the two lifecycle timestamps (``installed_at`` ~ POX ``created``,
    ``last_touched``).  Timestamps are virtual-clock ticks, never wall
    time.  ``swept_packets`` is lifecycle-sweeper bookkeeping — the
    packet count as of the entry's last expiry sweep.  The sweeper
    writes ``last_touched`` / ``swept_packets`` at every sweep, straight
    into the row, only for entries with an idle timeout; on any other
    entry ``last_touched`` stays at the install stamp.

    Every property reads the row as a Python int.  A copy — pickle or
    deepcopy, e.g. a snapshot shipped to a worker — gets a row of its
    own carrying the same counts and stamps.
    """

    __slots__ = ("row",)

    def __init__(
        self,
        packet_count: int = 0,
        byte_count: int = 0,
        installed_at: int = UNSTAMPED,
        last_touched: int = UNSTAMPED,
        swept_packets: int = 0,
    ) -> None:
        #: This entry's row of :data:`COUNTERS`.
        self.row = COUNTERS.allocate(
            (packet_count, byte_count, installed_at, last_touched, swept_packets)
        )

    def __del__(self, _release=COUNTERS.free.append) -> None:
        _release(self.row)

    def __reduce__(self) -> tuple:
        return (FlowStats, tuple(COUNTERS.table[:, self.row].tolist()))

    @property
    def packet_count(self) -> int:
        return int(COUNTERS.packets[self.row])

    @property
    def byte_count(self) -> int:
        return int(COUNTERS.bytes[self.row])

    installed_at = _column_property("installed_at")
    last_touched = _column_property("last_touched")
    swept_packets = _column_property("swept")

    def record(self, byte_count: int = 0) -> None:
        self.add(1, byte_count)

    def add(self, packets: int, byte_count: int = 0) -> None:
        """Fold an aggregated delta in (one traversal's packets and
        frame bytes, as a cache tier counts them)."""
        with COUNTERS.lock:
            COUNTERS.packets[self.row] += packets
            COUNTERS.bytes[self.row] += byte_count


@dataclass(frozen=True)
class FlowEntry:
    """One OpenFlow flow entry.

    Attributes:
        match: the multi-field match.
        priority: matching precedence (higher wins).
        instructions: the validated instruction set.
        cookie: opaque controller-chosen identifier.
        idle_timeout / hard_timeout: virtual-clock ticks, 0 = permanent.
        stats: mutable counters (excluded from equality).
    """

    match: Match
    priority: int = 0
    instructions: InstructionSet = field(default_factory=InstructionSet)
    cookie: int = 0
    idle_timeout: int = 0
    hard_timeout: int = 0
    stats: FlowStats = field(default_factory=FlowStats, compare=False, repr=False)
    _seq: int = field(default_factory=lambda: next(_sequence), compare=False, repr=False)

    def __post_init__(self) -> None:
        # Canonicalize raw instruction iterables so every entry carries a
        # validated InstructionSet and executes in OpenFlow type order
        # (v1.3 §5.9), regardless of the order the caller listed them in.
        if not isinstance(self.instructions, InstructionSet):
            object.__setattr__(
                self, "instructions", InstructionSet(self.instructions)
            )

    @classmethod
    def build(
        cls,
        match: Match,
        priority: int = 0,
        instructions: Iterable[Instruction] = (),
        cookie: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
    ) -> FlowEntry:
        """Convenience constructor accepting a plain instruction iterable."""
        return cls(
            match=match,
            priority=priority,
            instructions=InstructionSet(instructions),
            cookie=cookie,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
        )

    def matches(self, packet_fields: Mapping[str, int]) -> bool:
        return self.match.matches(packet_fields)

    def require_forward_goto(self, table_id: int) -> None:
        """Refuse installing this entry into table ``table_id`` unless
        its Goto-Table, if any, points to a later table: pipelines are
        forward-only, so every table's ``add`` calls this, and a
        backward Goto can never make a walk loop."""
        goto = self.instructions.goto_table
        if goto is not None and goto.table_id <= table_id:
            raise PipelineError(
                f"goto_table:{goto.table_id} from table {table_id} "
                "must point to a later table"
            )

    @property
    def installed_at(self) -> int:
        """Virtual-clock tick the entry was installed at
        (:data:`UNSTAMPED` until the first lifecycle sweep sees it)."""
        return self.stats.installed_at

    @property
    def last_touched(self) -> int:
        """Virtual-clock tick of the entry's last credited packet, as of
        the most recent lifecycle sweep (the sweeper detects touches
        from packet-count deltas and writes this stamp into the entry's
        counter row at every sweep, so it lags live traffic by at most
        one sweep; :data:`UNSTAMPED` before the first sweep).

        The sweeper maintains it only for entries with an
        ``idle_timeout`` — the only entries whose expiry reads it;
        permanent and hard-only entries keep their install stamp."""
        return self.stats.last_touched

    def touch_packet(self, byte_count: int = 0, now: int = 0) -> None:
        """Credit one packet and refresh the idle timer — the POX
        ``TableEntry.touch_packet`` semantics (bytes += byte_count,
        packets += 1, last_touched = now) for scalar callers that manage
        time themselves.  The batched runners never call this: they
        credit the counter columns a batch at a time
        (:meth:`CounterColumns.credit`) and leave the idle timer to the
        sweep's count-delta detection."""
        self.stats.record(byte_count)
        self.stats.last_touched = now

    def is_expired(self, now: int) -> bool:
        """POX ``TableEntry.is_expired``: strict ``>`` comparisons, hard
        deadline measured from install, idle from the last touch; a zero
        timeout never expires.  Hard is checked first, which is also the
        removal-reason precedence when both deadlines have passed."""
        if self.hard_timeout > 0 and now > self.stats.installed_at + self.hard_timeout:
            return True
        return (
            self.idle_timeout > 0
            and now > self.stats.last_touched + self.idle_timeout
        )

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """Descending-priority sort key with deterministic tiebreaks."""
        return (-self.priority, -self.match.specificity(), self._seq)

    @property
    def is_table_miss(self) -> bool:
        """OpenFlow table-miss = priority-0 entry with the empty match."""
        return self.priority == 0 and self.match.is_table_miss


class SweepView:
    """What an expiry sweep reads of one table, kept by the table's own
    mutations so that a sweep never walks the table.

    ``timed`` holds the entries that can expire — a non-zero idle or
    hard timeout; entries are frozen, so membership is fixed at install
    — and ``unstamped`` the entries installed still carrying
    :data:`UNSTAMPED`, which the next sweep stamps and drains.  Both are
    keyed by the table's own entry key, so an install or a removal is
    O(1), an entry installed and removed between two sweeps is never
    stamped, and neither outgrows the table however long it goes
    unswept.  ``timed_version`` moves only when the timed membership
    does: a sweep rebuilds its lanes on that, not on every flow-mod.
    """

    __slots__ = ("timed", "unstamped", "timed_version", "_by_sort_key")

    def __init__(self, by_sort_key: bool = False) -> None:
        self.timed: dict[object, FlowEntry] = {}
        self.unstamped: dict[object, FlowEntry] = {}
        self.timed_version = 0
        #: Snapshot order: :attr:`FlowEntry.sort_key` for the scan
        #: table, insertion order (the ``timed`` dict's own) otherwise.
        self._by_sort_key = by_sort_key

    @classmethod
    def of(cls, entries: Iterable[FlowEntry]) -> SweepView:
        """The view of entries installed in this (snapshot) order."""
        view = cls()
        for position, entry in enumerate(entries):
            view.installed(position, entry)
        return view

    def installed(self, key: object, entry: FlowEntry) -> None:
        if entry.idle_timeout > 0 or entry.hard_timeout > 0:
            self.timed[key] = entry
            self.timed_version += 1
        if entry.stats.installed_at == UNSTAMPED:
            self.unstamped[key] = entry

    def removed(self, key: object) -> None:
        if self.timed.pop(key, None) is not None:
            self.timed_version += 1
        self.unstamped.pop(key, None)

    def timed_entries(self) -> tuple[FlowEntry, ...]:
        """The timed entries in the table's snapshot order."""
        if self._by_sort_key:
            return tuple(sorted(self.timed.values(), key=lambda e: e.sort_key))
        return tuple(self.timed.values())
