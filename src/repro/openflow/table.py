"""A single OpenFlow flow table with highest-priority-match semantics.

This is the behavioural reference model: a sorted list searched linearly.
It is deliberately simple — the paper's contribution (the decomposition
architecture in :mod:`repro.core`) is differential-tested against this
table, so its correctness anchors everything else.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from repro.openflow.errors import TableFullError
from repro.openflow.flow import FlowEntry, SweepView
from repro.openflow.match import ConsultSink, Match
from repro.packet.headers import frame_length


class FlowTable:
    """An ordered set of flow entries.

    Entries are kept sorted by :attr:`FlowEntry.sort_key`, so
    :meth:`lookup` is a linear scan returning the first hit — exactly the
    OpenFlow "highest priority matching entry" semantics.
    """

    def __init__(self, table_id: int = 0, max_entries: int | None = None) -> None:
        if table_id < 0:
            raise ValueError(f"invalid table id {table_id}")
        self.table_id = table_id
        self.max_entries = max_entries
        self._entries: list[FlowEntry] = []
        self._by_key: dict[tuple[Match, int], FlowEntry] = {}
        self._dirty = False  # entries appended but not yet re-sorted
        self.lookup_count = 0
        self.matched_count = 0
        #: Mutation counter; bumped on every add/remove so a capturing
        #: ``OpenFlowPipeline.process`` (the megaflow capture
        #: specification) tags each visited table with the state it saw.
        self.version = 0
        #: Timed and unstamped entries, kept by add/remove for the
        #: lifecycle sweep (see :class:`~repro.openflow.flow.SweepView`).
        self.sweep_view = SweepView(by_sort_key=True)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FlowEntry]:
        self._ensure_sorted()
        return iter(self._entries)

    def _ensure_sorted(self) -> None:
        # Adds mark the table dirty and sorting is deferred to the next
        # read, so bulk installation stays O(n log n) overall.
        if self._dirty:
            self._entries.sort(key=lambda e: e.sort_key)
            self._dirty = False

    def add(self, entry: FlowEntry) -> None:
        """Insert an entry, replacing an identical-match same-priority one.

        OpenFlow flow-mod ADD semantics: an entry with the same match and
        priority overwrites the existing entry.  An entry whose Goto-Table
        does not point to a later table raises ``PipelineError``.
        """
        entry.require_forward_goto(self.table_id)
        if (
            self.max_entries is not None
            and len(self._entries) >= self.max_entries
            and self._find(entry.match, entry.priority) is None
        ):
            raise TableFullError(
                f"table {self.table_id} full ({self.max_entries} entries)"
            )
        key = (entry.match, entry.priority)
        existing = self._by_key.get(key)
        if existing is not None:
            self._entries.remove(existing)
            self.sweep_view.removed(key)
        self._entries.append(entry)
        self._by_key[key] = entry
        self.sweep_view.installed(key, entry)
        self._dirty = True
        self.version += 1

    def remove(self, match: Match, priority: int) -> bool:
        """Delete the entry with the exact match and priority; True if found."""
        existing = self._find(match, priority)
        if existing is None:
            return False
        self._entries.remove(existing)
        del self._by_key[(match, priority)]
        self.sweep_view.removed((match, priority))
        self.version += 1
        return True

    def remove_where(self, predicate: Callable[[FlowEntry], bool]) -> int:
        """Delete all entries satisfying ``predicate``; returns count."""
        kept: list[FlowEntry] = []
        for entry in self._entries:
            if predicate(entry):
                key = (entry.match, entry.priority)
                del self._by_key[key]
                self.sweep_view.removed(key)
            else:
                kept.append(entry)
        removed = len(self._entries) - len(kept)
        self._entries = kept
        if removed:
            self.version += 1
        return removed

    def lookup(
        self,
        packet_fields: Mapping[str, int],
        mask: ConsultSink | None = None,
    ) -> FlowEntry | None:
        """Return the highest-priority entry matching the packet, if any,
        and credit the packet to its flow stats.

        ``mask``, when given, is a consulted-bits sink (an object with a
        ``consult(field_name, bitmask)`` method): every entry the scan
        evaluates folds its predicates' consulted bits in — a packet
        agreeing on all of them fails (or matches) exactly the same
        entries, so the scan outcome is pinned.  Entries below the first
        hit are never evaluated and contribute nothing.
        """
        self._ensure_sorted()
        self.lookup_count += 1
        for entry in self._entries:
            if mask is not None:
                for name, predicate in entry.match.items():
                    mask.consult(name, predicate.consulted_mask())
            if entry.matches(packet_fields):
                self.matched_count += 1
                entry.stats.record(frame_length(packet_fields))
                return entry
        return None

    def _find(self, match: Match, priority: int) -> FlowEntry | None:
        return self._by_key.get((match, priority))

    @property
    def table_miss_entry(self) -> FlowEntry | None:
        """The table-miss entry (priority 0, empty match), if installed."""
        for entry in self._entries:
            if entry.is_table_miss:
                return entry
        return None
