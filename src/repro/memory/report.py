"""Whole-table and whole-architecture memory reports.

The prototype experiment needs the paper's Section V.A inventory: per
lookup table, the memory of every engine structure (LUTs, trie levels),
the index-calculation tables and the action tables; per architecture,
the grand total ("5 Mb of total memory", of which ~2 Mb is the MBTs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.lookup_table import OpenFlowLookupTable
from repro.memory.cost_model import (
    MemoryModel,
    TrieCost,
    action_table_cost,
    action_table_free_cost,
    index_cost,
    lut_cost,
    range_cost,
    trie_group_cost,
)
from repro.memory.fpga import BlockRamPlan, StratixVModel, plan_memory
from repro.memory.node_format import TrieNodeFormat
from repro.util.tables import TextTable
from repro.util.units import format_bits, kbits, mbits


@dataclass(frozen=True)
class StructureCost:
    """One structure's contribution to a table's memory."""

    name: str
    kind: str  # "lut" | "trie" | "range" | "index" | "actions"
    entries: int
    bits: int

    @property
    def kbits(self) -> float:
        return kbits(self.bits)


@dataclass
class TableMemoryReport:
    """Memory breakdown of one lookup table."""

    table_id: int
    structures: list[StructureCost] = field(default_factory=list)
    trie_costs: dict[str, TrieCost] = field(default_factory=dict)
    node_format: TrieNodeFormat | None = None
    #: Peak free-list depth of the action table (slots, not bits); a
    #: churn-headroom line item, *not* part of :attr:`total_bits` —
    #: current free slots are already costed by "actions (free)".
    action_free_high_water: int = 0
    action_free_high_water_bits: int = 0
    #: Aggregate per-entry flow-stats counters over the table's live
    #: entries (packets/bytes) — the monitoring substrate the sharded
    #: runtime's stats-return protocol keeps exact.  Reported alongside
    #: the memory lines, excluded from the totals (counters, not bits).
    flow_packets: int = 0
    flow_bytes: int = 0
    live_entries: int = 0

    @property
    def total_bits(self) -> int:
        return sum(s.bits for s in self.structures)

    @property
    def trie_bits(self) -> int:
        return sum(s.bits for s in self.structures if s.kind == "trie")

    def block_ram_plans(self) -> list[BlockRamPlan]:
        """One memory block per structure / trie level, as in the paper."""
        plans: list[BlockRamPlan] = []
        for cost in self.trie_costs.values():
            for level in cost.levels:
                plans.append(
                    plan_memory(
                        f"t{self.table_id}/{cost.name}/L{level.level}",
                        depth=level.records,
                        width=level.record_bits,
                    )
                )
        for structure in self.structures:
            if structure.kind == "trie":
                continue  # already planned per level above
            if structure.entries and structure.bits:
                width = max(1, structure.bits // max(structure.entries, 1))
                plans.append(
                    plan_memory(
                        f"t{self.table_id}/{structure.name}",
                        depth=structure.entries,
                        width=width,
                    )
                )
        return plans


def table_memory_report(
    table: OpenFlowLookupTable,
    model: MemoryModel = MemoryModel.SPARSE,
) -> TableMemoryReport:
    """Compute the full memory breakdown of one lookup table."""
    report = TableMemoryReport(table_id=table.table_id)

    tries = {name: engine.trie for name, engine in table.tries().items()}
    if tries:
        trie_costs, node_format = trie_group_cost(tries, model)
        report.trie_costs = trie_costs
        report.node_format = node_format
        for name, cost in trie_costs.items():
            report.structures.append(
                StructureCost(
                    name=name,
                    kind="trie",
                    entries=sum(level.records for level in cost.levels),
                    bits=cost.total_bits,
                )
            )
    for name, engine in table.luts().items():
        size = lut_cost(engine.lut)
        report.structures.append(
            StructureCost(name=name, kind="lut", entries=size.entries, bits=size.bits)
        )
    for name, engine in table.range_engines().items():
        size = range_cost(engine.ranges)
        report.structures.append(
            StructureCost(name=name, kind="range", entries=size.entries, bits=size.bits)
        )
    index_size = index_cost(table.index, table.actions.index_bits)
    report.structures.append(
        StructureCost(
            name="index", kind="index", entries=index_size.entries, bits=index_size.bits
        )
    )
    actions_size = action_table_cost(table.actions)
    report.structures.append(
        StructureCost(
            name="actions",
            kind="actions",
            entries=actions_size.entries,
            bits=actions_size.bits,
        )
    )
    # Freed slots (from rule churn, awaiting reuse) still occupy the
    # hardware array; report them as their own line so churn-induced
    # overhead is visible rather than folded into the live entries.
    free_size = action_table_free_cost(table.actions)
    if free_size.entries:
        report.structures.append(
            StructureCost(
                name="actions (free)",
                kind="actions",
                entries=free_size.entries,
                bits=free_size.bits,
            )
        )
    # Free-list high-water mark (ROADMAP: compaction metrics under long
    # churn): the worst transient slot waste, reported as its own line
    # but excluded from the total — those slots are costed above when
    # still free, and live again when reused.
    report.action_free_high_water = table.actions.free_high_water
    report.action_free_high_water_bits = (
        table.actions.free_high_water * table.actions.entry_bits
    )
    for entry in table:
        report.live_entries += 1
        report.flow_packets += entry.stats.packet_count
        report.flow_bytes += entry.stats.byte_count
    return report


@dataclass
class ArchitectureMemoryReport:
    """Memory breakdown of a whole architecture."""

    tables: list[TableMemoryReport]

    @property
    def total_bits(self) -> int:
        return sum(t.total_bits for t in self.tables)

    @property
    def total_mbits(self) -> float:
        return mbits(self.total_bits)

    @property
    def trie_bits(self) -> int:
        return sum(t.trie_bits for t in self.tables)

    @property
    def trie_mbits(self) -> float:
        return mbits(self.trie_bits)

    def block_ram(self) -> StratixVModel:
        plans: list[BlockRamPlan] = []
        for table in self.tables:
            plans.extend(table.block_ram_plans())
        return StratixVModel(plans=plans)

    def to_table(self) -> TextTable:
        text = TextTable(
            headers=["table", "structure", "kind", "entries", "memory"],
            title="Architecture memory breakdown",
        )
        for table in self.tables:
            for structure in table.structures:
                text.add_row(
                    [
                        table.table_id,
                        structure.name,
                        structure.kind,
                        structure.entries,
                        format_bits(structure.bits),
                    ]
                )
            if table.action_free_high_water:
                text.add_row(
                    [
                        table.table_id,
                        "actions (free hwm)",
                        "peak",
                        table.action_free_high_water,
                        format_bits(table.action_free_high_water_bits),
                    ]
                )
            if table.flow_packets:
                text.add_row(
                    [
                        table.table_id,
                        "flow counters",
                        "stats",
                        table.live_entries,
                        f"{table.flow_packets} pkts",
                    ]
                )
        text.add_row(["-", "TOTAL", "-", "-", format_bits(self.total_bits)])
        return text


def architecture_memory_report(
    architecture: MultiTableLookupArchitecture,
    model: MemoryModel = MemoryModel.SPARSE,
) -> ArchitectureMemoryReport:
    """Memory report over every table of an architecture."""
    return ArchitectureMemoryReport(
        tables=[
            table_memory_report(table, model)
            for table in architecture.lookup_tables
        ]
    )


@dataclass(frozen=True)
class SharedSegmentCost:
    """One structure kind's share of a sealed shared-rule block."""

    table_id: int
    kind: str  # "trie" | "lut" | "range" | "index" | "actions"
    arrays: int
    nbytes: int


#: Path component -> structure kind for sealed segment keys, which look
#: like ``t0/ipv4_dst:p1/trie/len24/values`` or ``t0/index/final``.
_SEGMENT_KINDS = ("trie", "lut", "range", "index", "actions")


@dataclass
class SharedStateMemoryReport:
    """Byte inventory of one sealed generation of shared rule state.

    Built from a :class:`~repro.runtime.rulestate.SharedRuleLayout`'s
    segment table alone — no attach needed — and grouped by the same
    structure kinds as :class:`TableMemoryReport`, so the paper's
    bit-cost model (what the hardware would spend) sits next to what
    the runtime actually mapped into ``/dev/shm``.  The flow entries
    are not in the block (workers read them from their pipeline spec),
    so every kind has a line in the model.  See docs/memory-model.md
    for how to read the two side by side.
    """

    costs: list[SharedSegmentCost]

    @property
    def total_nbytes(self) -> int:
        return sum(cost.nbytes for cost in self.costs)

    def to_table(self) -> TextTable:
        text = TextTable(
            headers=["table", "kind", "arrays", "memory"],
            title="Sealed shared-state segments",
        )
        for cost in self.costs:
            text.add_row(
                [
                    cost.table_id,
                    cost.kind,
                    cost.arrays,
                    format_bits(cost.nbytes * 8),
                ]
            )
        text.add_row(["-", "TOTAL", "-", format_bits(self.total_nbytes * 8)])
        return text


def shared_state_report(layout) -> SharedStateMemoryReport:
    """Group a sealed layout's segments into per-table structure costs.

    ``layout`` is duck-typed (anything with a ``segments`` tuple of
    :class:`~repro.runtime.transport.Segment`), so this module stays
    import-independent of the runtime layer.
    """
    import numpy as np

    totals: dict[tuple[int, str], list[int]] = {}
    for segment in layout.segments:
        parts = segment.key.split("/")
        table_id = int(parts[0].lstrip("t"))
        kind = next((p for p in parts[1:] if p in _SEGMENT_KINDS), parts[1])
        bucket = totals.setdefault((table_id, kind), [0, 0])
        bucket[0] += 1
        bucket[1] += segment.count * np.dtype(segment.dtype).itemsize
    return SharedStateMemoryReport(
        costs=[
            SharedSegmentCost(
                table_id=table_id, kind=kind, arrays=arrays, nbytes=nbytes
            )
            for (table_id, kind), (arrays, nbytes) in sorted(totals.items())
        ]
    )
