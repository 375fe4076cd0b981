"""Action tables (Fig. 1, final stage).

The index produced by the index calculation addresses an action table
whose entries carry the matched flow entry's OpenFlow instructions — in
the paper's prototype, a Write-Actions (e.g. output port) and optionally
a Goto-Table; a miss yields "send to controller" at the architecture
level instead.

That address — the slot — is the one coordinate of a matched entry on
the batched miss path: a table's keyed search hands back slots, and
what the walk needs of an entry it gathers off ``int64`` lanes indexed
by slot, one gather per wave: its counter row
(:attr:`~repro.openflow.flow.FlowStats.row`, lane
:attr:`ActionTable.rows`), its step's place in the counted-facts fold
(:attr:`~repro.openflow.instructions.CompiledStep.counted`, lane
:attr:`ActionTable.counted`) and its *walk step* (lane
:attr:`ActionTable.walk`): which of the table's distinct
:class:`~repro.openflow.instructions.CompiledStep` s, as far as the
walk reads one — set-fields, Write-Metadata, Goto-Table, the fields
rewritten — it has, so a wave acts once per distinct walk step rather
than once per entry.  A step is compiled on first use, so the step
lanes of a slot are filled the first time a walk matches it
(:meth:`ActionTable.compile`).  The lanes are runtime state, 24 bytes
per allocated slot; the memory model prices the encoded entry
(:attr:`ActionTable.entry_bits`), not them.

The slot is also a matched entry's one name across processes: a table
laid out from another's slot tuple (:meth:`ActionTable.lay_out`) holds
every entry at the same slot and, taking the lowest free slot, allocates
alike under the same adds, so a sharded reply names entries by slot and
the parent resolves them against the :class:`ActionSnapshot` it pinned.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.openflow.flow import SINK, FlowEntry
from repro.openflow.instructions import CompiledStep
from repro.util.bits import bits_needed

#: Encoded width of one action-table entry, following the prototype's
#: instruction repertoire: a 32-bit output port, an 8-bit next-table id,
#: and 2 flag bits (goto-valid, output-valid).
OUTPUT_PORT_BITS = 32
NEXT_TABLE_BITS = 8
FLAG_BITS = 2


#: The walk lane of a slot whose step lanes are not filled yet.
UNCOMPILED = -1


class ActionSnapshot(NamedTuple):
    """An action table as of one mutation: the entry at each slot
    (``None`` on a free one) and a copy of the ``rows`` lane over those
    slots — what a reply naming slots is resolved and credited against
    after the live table has moved on."""

    entries: tuple[FlowEntry | None, ...]
    rows: np.ndarray


class ActionTable:
    """An array of action entries addressed by slot, with slot reuse.

    The array only ever grows when no freed slot is available: releasing
    an entry (rule removal / flow-mod replacement) frees its slot, and
    the next allocation takes the lowest free one (a heap).  Without
    reuse, every same-match replacement would strand a slot forever and
    the table would grow without bound under churn, skewing the memory
    cost model; taking the lowest makes the slot an add receives depend
    only on which slots are occupied, so two tables holding the same
    entries at the same slots allocate alike whatever their release
    histories.

    Beside the entries, three ``int64`` lanes indexed by slot:
    :attr:`rows`, each entry's counter row
    (:data:`~repro.openflow.flow.SINK` on a free slot), written by
    :meth:`allocate` and :meth:`release`; and the step lanes,
    :attr:`counted`, its compiled step's counted facts, and
    :attr:`walk`, the index of its walk step in :attr:`walks`
    (:data:`UNCOMPILED` until :meth:`compile` fills them, and on a
    free slot).  The lanes double when they run out of slots, so
    readers index them through this object.
    """

    def __init__(self) -> None:
        #: The flow entry at each slot, ``None`` on a free one.
        self.entries: list[FlowEntry | None] = []
        self._free: list[int] = []
        self._free_high_water = 0
        self.rows = np.full(16, SINK, dtype=np.int64)
        self.counted = np.zeros(16, dtype=np.int64)
        self.walk = np.full(16, UNCOMPILED, dtype=np.int64)
        #: The distinct walk steps, each the first compiled step
        #: :meth:`compile` met with its Apply-Actions, Write-Metadata,
        #: Goto-Table and rewritten fields — all the columnar walk
        #: reads of a step (Clear/Write-Actions and the counted facts
        #: are a replay's).
        self.walks: list[CompiledStep] = []
        self._walk_ids: dict[tuple, int] = {}
        self._snapshot: ActionSnapshot | None = None

    def lay_out(self, entries: Sequence[FlowEntry | None]) -> None:
        """Hold ``entries`` — another table's slot tuple
        (:attr:`ActionSnapshot.entries`) — each at its own slot, its
        ``None`` slots free; the step lanes start uncompiled."""
        self.entries = list(entries)
        self._free = [slot for slot, e in enumerate(self.entries) if e is None]
        self._free_high_water = len(self._free)
        size = max(len(self.entries), 16)
        self.rows = np.full(size, SINK, dtype=np.int64)
        self.rows[: len(self.entries)] = [
            SINK if e is None else e.stats.row for e in self.entries
        ]
        self.counted = np.zeros(size, dtype=np.int64)
        self.walk = np.full(size, UNCOMPILED, dtype=np.int64)
        self._snapshot = None

    def snapshot(self) -> ActionSnapshot:
        """The table as it stands, built once per mutation and shared
        until the next :meth:`allocate` or :meth:`release`."""
        if self._snapshot is None:
            self._snapshot = ActionSnapshot(
                tuple(self.entries), self.rows[: len(self.entries)].copy()
            )
        return self._snapshot

    def allocate(self, flow_entry: FlowEntry) -> int:
        """Place an entry in the lowest free slot, growing the array
        only if full; returns the slot."""
        if self._free:
            slot = heapq.heappop(self._free)
            self.entries[slot] = flow_entry
        else:
            slot = len(self.entries)
            self.entries.append(flow_entry)
            if slot == len(self.rows):
                self.rows = np.concatenate([self.rows, np.full_like(self.rows, SINK)])
                self.counted = np.concatenate([self.counted, np.zeros_like(self.counted)])
                self.walk = np.concatenate([self.walk, np.full_like(self.walk, UNCOMPILED)])
        self.rows[slot] = flow_entry.stats.row
        self._snapshot = None
        return slot

    def release(self, index: int) -> None:
        """Free one slot for reuse by a later allocation."""
        if self.entries[index] is None:
            raise IndexError(f"action slot {index} is already free")
        self.entries[index] = None
        self.rows[index] = SINK
        self.walk[index] = UNCOMPILED
        heapq.heappush(self._free, index)
        if len(self._free) > self._free_high_water:
            self._free_high_water = len(self._free)
        self._snapshot = None

    def compile(self, slots: np.ndarray) -> None:
        """Fill the step lanes of those of ``slots`` (live slots) not
        filled yet, from their entries' compiled steps."""
        for slot in slots[self.walk[slots] == UNCOMPILED].tolist():
            step = self.entries[slot].instructions.compiled  # type: ignore[union-attr]
            key = (step.apply, step.metadata, step.goto, step.written)
            walk = self._walk_ids.setdefault(key, len(self._walk_ids))
            if walk == len(self.walks):
                self.walks.append(step)
            self.counted[slot], self.walk[slot] = step.counted, walk

    def __len__(self) -> int:
        """Number of live entries (allocated slots minus free slots)."""
        return len(self.entries) - len(self._free)

    @property
    def allocated_slots(self) -> int:
        """High-water slot count — the memory the hardware array occupies."""
        return len(self.entries)

    @property
    def free_slots(self) -> int:
        """Slots currently on the free list (allocated but unused)."""
        return len(self._free)

    @property
    def free_high_water(self) -> int:
        """Peak free-list depth over the table's lifetime.

        Under long churn this is the compaction headroom: the hardware
        array must have held this many simultaneously-dead slots at some
        point even if later allocations re-filled them.
        """
        return self._free_high_water

    @property
    def index_bits(self) -> int:
        """Bits needed to address any allocated slot."""
        return bits_needed(len(self.entries))

    @property
    def entry_bits(self) -> int:
        """Encoded width of one entry under the prototype's repertoire."""
        return OUTPUT_PORT_BITS + NEXT_TABLE_BITS + FLAG_BITS

    @property
    def total_bits(self) -> int:
        """Memory of the whole array, free slots included."""
        return len(self.entries) * self.entry_bits

    @property
    def live_bits(self) -> int:
        """Memory attributable to live entries only."""
        return len(self) * self.entry_bits
