"""Action tables (Fig. 1, final stage).

The index produced by the index calculation addresses an action table
whose entries carry the matched flow entry's OpenFlow instructions — in
the paper's prototype, a Write-Actions (e.g. output port) and optionally
a Goto-Table; a miss yields "send to controller" at the architecture
level instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.openflow.flow import FlowEntry
from repro.util.bits import bits_needed

#: Encoded width of one action-table entry, following the prototype's
#: instruction repertoire: a 32-bit output port, an 8-bit next-table id,
#: and 2 flag bits (goto-valid, output-valid).
OUTPUT_PORT_BITS = 32
NEXT_TABLE_BITS = 8
FLAG_BITS = 2


@dataclass(frozen=True)
class ActionTableEntry:
    """One addressable action entry.

    Wraps the source :class:`FlowEntry` so executing the entry reuses the
    OpenFlow instruction machinery unchanged.
    """

    index: int
    flow_entry: FlowEntry

    @property
    def priority(self) -> int:
        return self.flow_entry.priority

    @property
    def goto_table(self) -> int | None:
        goto = self.flow_entry.instructions.goto_table
        return goto.table_id if goto is not None else None

    def describe(self) -> str:
        return f"[{self.index}] {self.flow_entry.instructions.describe()}"


class ActionTable:
    """An array of action entries addressed by index, with slot reuse.

    The array only ever grows when no freed slot is available: releasing
    an entry (rule removal / flow-mod replacement) pushes its index onto a
    free list, and the next allocation reuses it.  Without this, every
    same-match replacement would strand a slot forever and the table would
    grow without bound under churn, skewing the memory cost model.
    """

    def __init__(self) -> None:
        self._slots: list[ActionTableEntry | None] = []
        self._free: list[int] = []
        self._free_high_water = 0

    def allocate(self, flow_entry: FlowEntry) -> ActionTableEntry:
        """Place an entry in a freed slot, growing the array only if full."""
        if self._free:
            index = self._free.pop()
            entry = ActionTableEntry(index=index, flow_entry=flow_entry)
            self._slots[index] = entry
        else:
            entry = ActionTableEntry(index=len(self._slots), flow_entry=flow_entry)
            self._slots.append(entry)
        return entry

    def release(self, index: int) -> None:
        """Free one slot for reuse by a later allocation."""
        if self._slots[index] is None:
            raise IndexError(f"action slot {index} is already free")
        self._slots[index] = None
        self._free.append(index)
        if len(self._free) > self._free_high_water:
            self._free_high_water = len(self._free)

    def __getitem__(self, index: int) -> ActionTableEntry:
        entry = self._slots[index]
        if entry is None:
            raise IndexError(f"action slot {index} is free")
        return entry

    def __len__(self) -> int:
        """Number of live entries (allocated slots minus free slots)."""
        return len(self._slots) - len(self._free)

    def __iter__(self) -> Iterator[ActionTableEntry]:
        return iter(e for e in self._slots if e is not None)

    @property
    def allocated_slots(self) -> int:
        """High-water slot count — the memory the hardware array occupies."""
        return len(self._slots)

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
        return bits_needed(len(self._slots))

    @property
    def entry_bits(self) -> int:
        """Encoded width of one entry under the prototype's repertoire."""
        return OUTPUT_PORT_BITS + NEXT_TABLE_BITS + FLAG_BITS

    @property
    def total_bits(self) -> int:
        """Memory of the whole array, free slots included."""
        return len(self._slots) * self.entry_bits

    @property
    def live_bits(self) -> int:
        """Memory attributable to live entries only."""
        return len(self) * self.entry_bits
