"""One OpenFlow lookup table implemented by decomposition.

:class:`OpenFlowLookupTable` is a drop-in replacement for the behavioural
:class:`repro.openflow.table.FlowTable`: same ``add`` / ``remove`` /
``lookup`` interface, same highest-priority-match semantics — but backed
by the paper's architecture (parallel per-partition engines, label
aggregation, action table) instead of a linear scan.  Because it is
interface-compatible, the unmodified OpenFlow pipeline runs on top of it,
and every behavioural test of the pipeline doubles as a differential test
of the decomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping, Sequence

from repro.algorithms.base import NO_LABEL
from repro.core.config import ArchitectureConfig, DEFAULT_CONFIG
from repro.core.action_table import ActionTable
from repro.core.field_engine import (
    FieldEngine,
    LutPartitionEngine,
    RangePartitionEngine,
    TriePartitionEngine,
    build_field_engine,
)
from repro.core.index import IndexCalculator
from repro.core.partition import HeaderPartitioner
from repro.openflow.fields import REGISTRY
from repro.openflow.flow import FlowEntry, SweepView
from repro.openflow.match import Match
from repro.packet.headers import frame_length


@dataclass
class _InstalledEntry:
    """Bookkeeping for one installed flow entry (for exact removal)."""

    flow_entry: FlowEntry
    labels: tuple[int, ...]
    action_index: int


class OpenFlowLookupTable:
    """Decomposition-backed OpenFlow flow table (Fig. 1, one table)."""

    def __init__(
        self,
        field_names: tuple[str, ...],
        table_id: int = 0,
        config: ArchitectureConfig = DEFAULT_CONFIG,
    ):
        self.table_id = table_id
        self.config = config
        self.field_names = field_names
        self.partitioner = HeaderPartitioner(field_names, config.part_bits)
        self.engines: dict[str, FieldEngine] = {
            name: build_field_engine(name, config) for name in field_names
        }
        self.index = IndexCalculator(self.partitioner.partition_names)
        self.actions = ActionTable()
        #: The one index of installed entries, keyed by ``(match,
        #: priority)`` (``Match`` caches its hash): the dict's insertion
        #: order is install order — a replacement re-inserts at the end
        #: — and it gives O(1) exact removal.
        self._by_key: dict[tuple[Match, int], _InstalledEntry] = {}
        self._label_refs: Counter[tuple[str, int]] = Counter()
        #: Flattened partition engines, aligned with
        #: ``partitioner.partition_names`` (:meth:`search_keys` indexes
        #: them positionally instead of by name).
        self._flat_engines = tuple(
            engine
            for name in field_names
            for engine in self.engines[name].engines
        )
        assert (
            tuple(e.name for e in self._flat_engines)
            == self.partitioner.partition_names
        )
        #: Per flat engine, ``(field name, left shift)`` aligning its
        #: partition mask inside the field: partitions are MSB-first
        #: slices, so a mask shifts left by the bits to its right — the
        #: arithmetic :class:`HeaderPartitioner` slices keys out with.
        self._mask_shifts = tuple(
            (
                engine.partition.field_name,
                REGISTRY[engine.partition.field_name].bits
                - engine.partition.offset
                - engine.partition.bits,
            )
            for engine in self._flat_engines
        )
        #: Field-aligned consulted masks by per-partition consulted bits
        #: — one shared dict per distinct combination (a handful: each
        #: partition consults nothing, a trie depth, or everything).
        self._consulted_masks: dict[tuple[int, ...], dict[str, int]] = {}
        #: Mutation counter; bumped on every add/remove so lookup caches
        #: (e.g. :class:`repro.runtime.cache.MicroflowCache`) can detect
        #: staleness cheaply.
        self.version = 0
        self._sweep_view = SweepView()

    # ------------------------------------------------------------------
    # FlowTable-compatible interface
    # ------------------------------------------------------------------

    def add(self, entry: FlowEntry) -> None:
        """Install a flow entry (replacing any same-match same-priority
        one); an entry whose Goto-Table does not point to a later table
        raises ``PipelineError``."""
        entry.require_forward_goto(self.table_id)
        stray = set(entry.match) - set(self.field_names)
        if stray:
            raise ValueError(
                f"table {self.table_id} cannot match fields {sorted(stray)}; "
                f"schema is {self.field_names}"
            )
        existing = self._find(entry.match, entry.priority)
        if existing is not None:
            self._remove_installed(existing)
        self._install(entry)

    def load(self, entries: Sequence[FlowEntry | None]) -> None:
        """Fill an empty table from an action table's slot tuple
        (:attr:`~repro.core.action_table.ActionSnapshot.entries`,
        ``None`` on a free slot), each entry at its own slot — so the
        slots later adds take are the ones the source table's take."""
        self.actions.lay_out(entries)
        for slot, entry in enumerate(entries):
            if entry is not None:
                self._install(entry, slot)

    def _install(self, entry: FlowEntry, slot: int | None = None) -> None:
        """Index ``entry`` — its partition labels, its index rule and
        its entry key — at action ``slot``, which it already holds, or
        at the slot it is allocated once its labels are in."""
        labels: list[int] = []
        for name in self.field_names:
            engine = self.engines[name]
            predicate = entry.match.get(name)
            if predicate is None:
                labels.extend(NO_LABEL for _ in engine.partition_names)
            else:
                labels.extend(engine.insert_rule(predicate))
        if slot is None:
            slot = self.actions.allocate(entry)
        key = tuple(labels)
        self.index.add_rule(
            key,
            slot,
            entry.priority,
            specificity=entry.match.specificity(),
            # Full ties (priority and specificity) must fall the same way
            # as FlowEntry.sort_key: entry creation order, not the order
            # the rules happened to be installed in.
            sequence=entry._seq,
        )
        entry_key = (entry.match, entry.priority)
        self._by_key[entry_key] = _InstalledEntry(
            flow_entry=entry, labels=key, action_index=slot
        )
        self._sweep_view.installed(entry_key, entry)
        for part_name, label in zip(self.partitioner.partition_names, key):
            if label != NO_LABEL:
                self._label_refs[(part_name, label)] += 1
        self.version += 1

    def remove(self, match: Match, priority: int) -> bool:
        """Delete the entry with the exact match and priority."""
        existing = self._find(match, priority)
        if existing is None:
            return False
        self._remove_installed(existing)
        return True

    def remove_where(self, predicate: Callable[[FlowEntry], bool]) -> int:
        doomed = [
            e for e in self._by_key.values() if predicate(e.flow_entry)
        ]
        for installed in doomed:
            self._remove_installed(installed)
        return len(doomed)

    def lookup(
        self, packet_fields: Mapping[str, int], mask=None
    ) -> FlowEntry | None:
        """Highest-priority matching entry: :meth:`search_keys` over the
        packet's table key, crediting the entry's flow stats.

        ``mask``, when given, is a consulted-bits sink (an object with a
        ``consult(field_name, bitmask)`` method, e.g. a
        :class:`~repro.runtime.megaflow.MegaflowRecorder`): it is told,
        once per field, which bits of that field the search outcome
        depended on — the OR of the field's partition engines' consulted
        bits — enabling wildcard-cache capture.
        """
        key = tuple(packet_fields.get(name) for name in self.field_names)
        ((slot, _, consulted),) = self.search_keys(
            self.partitioner.split_keys([key]), mask is not None
        )
        if consulted:
            for field_name, bits in consulted.items():
                mask.consult(field_name, bits)
        if slot < 0:
            return None
        entry = self.actions.entries[slot]
        entry.stats.record(frame_length(packet_fields))
        return entry

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(e.flow_entry for e in self._by_key.values())

    @property
    def sweep_view(self) -> SweepView:
        """Timed and unstamped entries, kept by add/remove for the
        lifecycle sweep (see :class:`~repro.openflow.flow.SweepView`);
        keyed by ``(match, priority)`` like the table's own index and
        filled in install order."""
        return self._sweep_view

    @property
    def table_miss_entry(self) -> FlowEntry | None:
        return next((entry for entry in self if entry.is_table_miss), None)

    # ------------------------------------------------------------------
    # architecture-level interface
    # ------------------------------------------------------------------

    def _field_mask(self, consulted: tuple[int, ...]) -> dict[str, int]:
        """The field-aligned mask for per-partition consulted bits
        (flat-engine order), interned: equal bits share one dict."""
        mask = self._consulted_masks.get(consulted)
        if mask is None:
            mask = self._consulted_masks[consulted] = {}
            for bits, (field_name, shift) in zip(consulted, self._mask_shifts):
                if bits:
                    mask[field_name] = mask.get(field_name, 0) | (bits << shift)
        return mask

    def search_keys(
        self,
        key_rows: Sequence[tuple[int | None, ...]],
        capture: bool = False,
    ) -> list[tuple[int, tuple[tuple[int, ...], ...], dict[str, int] | None]]:
        """Decomposition lookup over partition-key rows — the table's
        one search: :meth:`lookup`, :meth:`lookup_batch` and
        :meth:`lookup_keys` all go through it, each with
        :meth:`HeaderPartitioner.split_keys` rows.

        One ``(action slot, label sets, consulted mask)`` triple per
        row, keys in :attr:`HeaderPartitioner.partition_names` order;
        the slot is the index calculation's answer, an address into
        :attr:`actions`, or ``-1`` for a miss.
        It has no side effect (no counter, no flow stats), so a cache
        may call it just to read a mask.  Every engine is probed once
        per *distinct* key of its partition across the whole call (with
        ``capture``, labels and consulted bits come from the same
        :meth:`PartitionEngine.probe`), and rows sharing a full key
        tuple share one index calculation and one triple.  The
        consulted mask is ``None`` without ``capture``; keys that
        consulted the same bits share one mask dict (interned on the
        table, so callers comparing masks mostly compare identities).
        """
        probes: list[dict[int | None, tuple[tuple[int, ...], int]]] = []
        for engine, column in zip(self._flat_engines, zip(*key_rows)):
            if capture:
                probe = engine.probe
                probes.append({key: probe(key) for key in dict.fromkeys(column)})
            else:
                search = engine.search
                probes.append(
                    {key: (search(key), 0) for key in dict.fromkeys(column)}
                )
        lookup = self.index.lookup
        row_memo: dict[tuple[int | None, ...], tuple] = {}
        found = []
        for row in key_rows:
            cached = row_memo.get(row)
            if cached is None:
                hits = [probe[key] for probe, key in zip(probes, row)]
                label_sets = tuple([labels for labels, _ in hits])
                index = lookup(label_sets)
                cached = row_memo[row] = (
                    -1 if index is None else index,
                    label_sets,
                    self._field_mask(tuple([bits for _, bits in hits]))
                    if capture
                    else None,
                )
            found.append(cached)
        return found

    def lookup_batch(
        self, batch_fields: Sequence[Mapping[str, int]]
    ) -> list[FlowEntry | None]:
        """Batched :meth:`lookup`: one matched entry (or None) per
        packet, the whole batch through one :meth:`search_keys` call."""
        names = self.field_names
        found = self.search_keys(
            self.partitioner.split_keys(
                [tuple(f.get(name) for name in names) for f in batch_fields]
            )
        )
        entries = self.actions.entries
        hits: list[FlowEntry | None] = []
        for fields, (slot, _, _) in zip(batch_fields, found):
            if slot < 0:
                hits.append(None)
            else:
                entry = entries[slot]
                entry.stats.record(frame_length(fields))
                hits.append(entry)
        return hits

    def lookup_keys(
        self,
        field_keys: Sequence[tuple[int | None, ...]],
        capture: bool = False,
    ) -> tuple[list[int], list[dict[str, int] | None]]:
        """The matched entry's action slot (``-1`` for a miss) and the
        consulted mask per table key, as two aligned lists.

        ``field_keys`` are value tuples in :attr:`field_names` order
        (``None`` = the packet lacks the field) — the microflow key —
        so the columnar miss path resolves a wave's residual keys in
        one call without a field dict per packet.  Unlike
        :meth:`lookup` this credits **no** flow stats: the caller knows
        how many packets share each key and credits them per entry,
        reading what it needs of an entry off the action table's slot
        lanes (:attr:`actions`).
        """
        found = self.search_keys(
            self.partitioner.split_keys(field_keys), capture
        )
        return (
            [slot for slot, _, _ in found],
            [mask for _, _, mask in found],
        )

    def partition_engines(self):
        """Iterate every partition engine (for memory accounting)."""
        for name in self.field_names:
            yield from self.engines[name].structures()

    def tries(self) -> dict[str, TriePartitionEngine]:
        """All trie partition engines, keyed by partition name."""
        return {
            engine.name: engine
            for engine in self.partition_engines()
            if isinstance(engine, TriePartitionEngine)
        }

    def luts(self) -> dict[str, LutPartitionEngine]:
        return {
            engine.name: engine
            for engine in self.partition_engines()
            if isinstance(engine, LutPartitionEngine)
        }

    def range_engines(self) -> dict[str, RangePartitionEngine]:
        return {
            engine.name: engine
            for engine in self.partition_engines()
            if isinstance(engine, RangePartitionEngine)
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _find(self, match: Match, priority: int) -> _InstalledEntry | None:
        return self._by_key.get((match, priority))

    def _remove_installed(self, installed: _InstalledEntry) -> None:
        self.index.remove_rule(installed.labels, installed.action_index)
        self._release_engine_entries(installed)
        entry = installed.flow_entry
        entry_key = (entry.match, entry.priority)
        del self._by_key[entry_key]
        self._sweep_view.removed(entry_key)
        # The slot returns to the action table's free list so churn does
        # not grow the array without bound.
        self.actions.release(installed.action_index)
        self.version += 1

    def _release_engine_entries(self, installed: _InstalledEntry) -> None:
        """Drop label references; evict entries no other rule shares."""
        label_cursor = 0
        for name in self.field_names:
            engine = self.engines[name]
            for part_engine in engine.engines:
                label = installed.labels[label_cursor]
                label_cursor += 1
                if label == NO_LABEL:
                    continue
                ref_key = (part_engine.name, label)
                self._label_refs[ref_key] -= 1
                if self._label_refs[ref_key] == 0:
                    del self._label_refs[ref_key]
                    self._evict(part_engine, label)

    @staticmethod
    def _evict(part_engine, label: int) -> None:
        if isinstance(part_engine, TriePartitionEngine):
            value, length = part_engine.allocator.key_of(label)
            part_engine.trie.remove(value, length)
        elif isinstance(part_engine, LutPartitionEngine):
            part_engine.lut.remove(part_engine.allocator.key_of(label))
        elif isinstance(part_engine, RangePartitionEngine):
            low, high = part_engine.allocator.key_of(label)
            part_engine.ranges.remove(low, high)
        # MetadataEngine has no storage to evict.
