"""Shared read-only rule state for million-rule sharded tables.

The sharded runtime's construction-time ``PipelineSpec`` replays every
flow entry into every worker, so each worker pays O(rules) memory and
O(rules) spin-up time for its private replica of structures that never
change between mutations.  At the scale the paper's memory model is
about — 10^5..10^6 rules — that replica dominates both the respawn
latency of the supervision layer and the per-worker RSS.

This module freezes the *static* lookup state of a table at a known
mutation-log position into one numpy-backed shared-memory block (the
``SharedBlock`` machinery from :mod:`repro.runtime.transport`, so the
finalize/unlink lifecycle guards apply unchanged):

- per-partition structures: multibit-trie prefix tables and level
  occupancy maps, exact-match LUT slots, elementary range intervals;
- the index calculation's aggregation network, as sorted hash arrays
  per tuple-prefix depth plus exact label columns and best-rule ranks
  at the final depth, whose rule column holds action slots.

The block holds structures, not entries: a sealed action slot indexes
the table's slot tuple in the ``PipelineSpec`` a worker is started with
(inherited under ``fork``, pickled once per worker under ``spawn``) —
the parent's action table, ``None`` on a free slot, taken at the same
instant as the seal — which an attached table lays its action table out
from, each entry at its own slot.

Workers *attach*: :class:`FrozenLookupTable` subclasses the eager
:class:`~repro.core.lookup_table.OpenFlowLookupTable`, builds the cheap
empty shell, then grafts frozen twins over the partition engines' search
structures and the index, and lays its action table out from the
spec's slot tuple.  The table's one inherited
search (``search_keys``, behind ``lookup``, ``lookup_batch`` and
``lookup_keys``, mask capture included), and so microflow and megaflow
caching, run unchanged over the grafted structures, which is what keeps
sharded results bitwise-identical to the single-process paths.  Per-worker incremental memory for the static state is the page
tables, not the data — O(1) in rules.

Mutations keep flowing through the mutation log.  The first ``add`` /
``remove`` / ``remove_where`` against a frozen table *thaws* it: the
table spec rebuilds a private eager table with each entry at its own
slot (entry ``_seq`` values survive pickling, so index tiebreaks agree
with every other path), after which the table behaves
exactly like the replica it replaced.  Unmutated tables stay frozen for
the worker's lifetime; a POSIX unlink of a superseded seal generation
leaves their mappings valid.

See ``docs/architecture.md`` (layer stack and invariants) and
``docs/memory-model.md`` (what each frozen array corresponds to in the
paper's cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.algorithms.base import NO_LABEL
from repro.core.field_engine import (
    LutPartitionEngine,
    RangePartitionEngine,
    TriePartitionEngine,
)
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.flow import SweepView
from repro.runtime.transport import (
    BlockAttachments,
    BlockReader,
    BlockWriter,
    Segment,
    SharedBlock,
)
from repro.util.bits import mask_of, prefix_mask

_MASK64 = (1 << 64) - 1
#: FNV-1a offset basis / prime, the incremental tuple-hash backbone.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: Golden-ratio odd multiplier; spreads small consecutive labels before
#: the FNV fold (an odd multiplier is bijective mod 2^64, so distinct
#: labels stay distinct going into the mix).
_LABEL_SPREAD = 0x9E3779B97F4A7C15


def _extend_hash(h: int, label: int) -> int:
    """Fold one more label into an incremental tuple hash."""
    h ^= (label * _LABEL_SPREAD + 1) & _MASK64
    return (h * _FNV_PRIME) & _MASK64


def _tuple_hash(labels: tuple[int, ...]) -> int:
    h = _FNV_OFFSET
    for label in labels:
        h = _extend_hash(h, label)
    return h


def _readonly(reader: BlockReader, key: str) -> np.ndarray:
    """A zero-copy view with the write flag dropped.

    ``BlockReader.get`` inherits writability from the mapping; sealed
    state must not be mutable through an attached replica, so every
    frozen structure goes through this helper (the attach-after-seal
    immutability contract the lifecycle tests pin down).
    """
    array = reader.get(key)
    array.setflags(write=False)
    return array


# ----------------------------------------------------------------------
# layout records (picklable, travel inside PipelineSpec)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenTableLayout:
    """Per-table scalars that do not fit in a numpy lane."""

    table_id: int
    #: (partition name, default /0 label, stored-entry count) per trie.
    tries: tuple[tuple[str, int, int], ...]
    #: (partition name, stored-range count) per range structure.
    ranges: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class SharedRuleLayout:
    """Everything a worker needs to attach to one seal generation."""

    block_name: str
    segments: tuple[Segment, ...]
    tables: tuple[FrozenTableLayout, ...]


# ----------------------------------------------------------------------
# frozen structure twins
# ----------------------------------------------------------------------


class FrozenTrie:
    """Read-only multibit-trie twin backed by sorted shared arrays.

    Mirrors :class:`~repro.algorithms.multibit_trie.MultibitTrie`'s
    ``lookup_all`` / ``consulted_bits`` semantics exactly: per-length
    sorted prefix tables replace the entry dict, per-level sorted path
    arrays (with a has-child flag lane) replace the sparse record maps.
    """

    def __init__(
        self,
        reader: BlockReader,
        key: str,
        key_bits: int,
        boundaries: tuple[int, ...],
        default_label: int,
        entry_count: int,
    ) -> None:
        self.key_bits = key_bits
        self.boundaries = boundaries
        self._default_label = default_label
        self._entry_count = entry_count
        self._values = tuple(
            _readonly(reader, f"{key}/trie/len{length}/values")
            for length in range(1, key_bits + 1)
        )
        self._labels = tuple(
            _readonly(reader, f"{key}/trie/len{length}/labels")
            for length in range(1, key_bits + 1)
        )
        self._level_paths = tuple(
            _readonly(reader, f"{key}/trie/lvl{level}/paths")
            for level in range(len(boundaries))
        )
        self._level_child = tuple(
            _readonly(reader, f"{key}/trie/lvl{level}/child")
            for level in range(len(boundaries))
        )
        self._key_mask = mask_of(key_bits)
        #: ``(prefix mask, values, labels)`` for the lengths that hold
        #: an entry, longest first — the masks are computed once and
        #: empty lengths are never probed.
        self._tables = tuple(
            (
                prefix_mask(length, key_bits),
                self._values[length - 1],
                self._labels[length - 1],
            )
            for length in range(key_bits, 0, -1)
            if self._values[length - 1].size
        )

    def _check_key(self, value: int) -> None:
        if not 0 <= value <= self._key_mask:
            raise ValueError(f"key {value:#x} wider than {self.key_bits} bits")

    def lookup_all(self, value: int) -> tuple[int, ...]:
        self._check_key(value)
        labels = []
        for mask, values, table_labels in self._tables:
            candidate = value & mask
            slot = int(np.searchsorted(values, np.uint64(candidate)))
            if slot < values.size and int(values[slot]) == candidate:
                labels.append(int(table_labels[slot]))
        if self._default_label != NO_LABEL:
            labels.append(self._default_label)
        return tuple(labels)

    def consulted_bits(self, value: int) -> int:
        self._check_key(value)
        consulted = 0
        for level, boundary in enumerate(self.boundaries):
            paths = self._level_paths[level]
            if not paths.size:
                break
            consulted = boundary
            path = value >> (self.key_bits - boundary)
            slot = int(np.searchsorted(paths, np.uint64(path)))
            if slot >= paths.size or int(paths[slot]) != path:
                break
            if not int(self._level_child[level][slot]):
                break
        return consulted

    def descend(self, value: int) -> tuple[tuple[int, ...], int]:
        """``(lookup_all, consulted_bits)`` in one call — the surface
        mask-capturing searches use on live and frozen tries alike."""
        return self.lookup_all(value), self.consulted_bits(value)

    def __len__(self) -> int:
        return self._entry_count


class FrozenLut:
    """Read-only exact-match LUT twin (sorted keys + label column)."""

    def __init__(self, reader: BlockReader, key: str) -> None:
        self._keys = _readonly(reader, f"{key}/lut/keys")
        self._labels = _readonly(reader, f"{key}/lut/labels")

    def lookup(self, value: int) -> int:
        slot = int(np.searchsorted(self._keys, np.uint64(value)))
        if slot < self._keys.size and int(self._keys[slot]) == value:
            return int(self._labels[slot])
        return NO_LABEL

    def lookup_all(self, value: int) -> tuple[int, ...]:
        label = self.lookup(value)
        return () if label == NO_LABEL else (label,)

    def __len__(self) -> int:
        return int(self._keys.size)


class FrozenRange:
    """Read-only elementary-interval twin (narrowest-first, ragged)."""

    def __init__(
        self, reader: BlockReader, key: str, key_bits: int, range_count: int
    ) -> None:
        self.key_bits = key_bits
        self._range_count = range_count
        self._bounds = _readonly(reader, f"{key}/range/bounds")
        self._offsets = _readonly(reader, f"{key}/range/offsets")
        self._labels = _readonly(reader, f"{key}/range/labels")

    def lookup_all(self, value: int) -> tuple[int, ...]:
        if not 0 <= value <= mask_of(self.key_bits):
            raise ValueError(f"key {value} wider than {self.key_bits} bits")
        if not self._bounds.size:
            return ()
        index = int(np.searchsorted(self._bounds, np.uint64(value), side="right")) - 1
        if index < 0:
            return ()
        low = int(self._offsets[index])
        high = int(self._offsets[index + 1])
        return tuple(int(label) for label in self._labels[low:high])

    def __len__(self) -> int:
        return self._range_count


class FrozenIndex:
    """Read-only index-calculation twin.

    Intermediate aggregation stages are sorted 64-bit hash arrays over
    truncated label tuples — a hash false positive there only widens the
    candidate set the original DCFL pruning would have narrowed, which
    is a performance detail, never a correctness one.  The final depth
    is *exact*: stored tuples keep their full label columns, and a
    candidate only wins after an element-wise label comparison, so the
    frozen lookup returns precisely what
    :meth:`repro.core.index.IndexCalculator.lookup` returns.
    """

    def __init__(self, reader: BlockReader, key: str, depth: int) -> None:
        self._depth = depth
        self._stems = tuple(
            _readonly(reader, f"{key}/index/d{k}") for k in range(depth - 1)
        )
        self._final = _readonly(reader, f"{key}/index/final")
        self._columns = tuple(
            _readonly(reader, f"{key}/index/key{j}") for j in range(depth)
        )
        self._priority = _readonly(reader, f"{key}/index/priority")
        self._specificity = _readonly(reader, f"{key}/index/specificity")
        self._sequence = _readonly(reader, f"{key}/index/sequence")
        self._action = _readonly(reader, f"{key}/index/action")

    def lookup(self, label_sets: tuple[tuple[int, ...], ...]) -> int | None:
        if len(label_sets) != self._depth:
            raise ValueError(
                f"expected {self._depth} label sets, got {len(label_sets)}"
            )
        candidates: list[tuple[int, tuple[int, ...]]] = [(_FNV_OFFSET, ())]
        for k in range(self._depth - 1):
            options = tuple(label_sets[k]) + (NO_LABEL,)
            stems = self._stems[k]
            extended: list[tuple[int, tuple[int, ...]]] = []
            for h, stem in candidates:
                for label in options:
                    h2 = _extend_hash(h, label)
                    slot = int(np.searchsorted(stems, np.uint64(h2)))
                    if slot < stems.size and int(stems[slot]) == h2:
                        extended.append((h2, stem + (label,)))
            if not extended:
                return None
            candidates = extended
        options = tuple(label_sets[self._depth - 1]) + (NO_LABEL,)
        best_rank: tuple[int, int, int] | None = None
        best_action: int | None = None
        for h, stem in candidates:
            for label in options:
                h2 = _extend_hash(h, label)
                target = np.uint64(h2)
                lo = int(np.searchsorted(self._final, target, side="left"))
                hi = int(np.searchsorted(self._final, target, side="right"))
                for row in range(lo, hi):
                    if not self._row_matches(row, stem, label):
                        continue
                    rank = (
                        int(self._priority[row]),
                        int(self._specificity[row]),
                        -int(self._sequence[row]),
                    )
                    if best_rank is None or rank > best_rank:
                        best_rank = rank
                        best_action = int(self._action[row])
                    break  # one stored row per distinct tuple
        return best_action

    def _row_matches(
        self, row: int, stem: tuple[int, ...], last_label: int
    ) -> bool:
        for j, label in enumerate(stem):
            if int(self._columns[j][row]) != label:
                return False
        return int(self._columns[self._depth - 1][row]) == last_label

    def __len__(self) -> int:
        return int(self._final.size)


# ----------------------------------------------------------------------
# frozen lookup table
# ----------------------------------------------------------------------


class FrozenLookupTable(OpenFlowLookupTable):
    """An :class:`OpenFlowLookupTable` attached to sealed shared state.

    Construction builds the normal *empty* table (partition engines,
    partitioner, caches — all O(fields), not O(rules)), then grafts the
    frozen twins over each engine's search structure and the index, and
    lays the action table out from the table spec's slot tuple
    (``spec.entries``), which the sealed index's slots address.  The
    inherited search, ``search_keys`` — behind the scalar, batch and
    keyed lookups and masked megaflow capture alike — runs unchanged.

    ``__len__`` counts the laid-out action table, and ``__iter__``
    walks the slot tuple's entries, so the inherited
    ``table_miss_entry`` does too.  The lifecycle sweep's view is
    derived from the same entries on first read (workers never sweep,
    so an attach never pays for it).

    The first mutation thaws: ``spec.build`` loads the entries into a
    fresh eager table, each at its own slot, whose ``__dict__`` replaces this one's, so
    post-thaw the object *is* the private replica the worker would have
    built at spawn.  ``version`` stays 0 while frozen and jumps to the
    replay count on thaw, so microflow/megaflow caches invalidate
    exactly as they would across real mutations.
    """

    def __init__(
        self,
        spec: Any,
        layout: FrozenTableLayout,
        reader: BlockReader,
        attachments: BlockAttachments,
        config: Any,
    ) -> None:
        super().__init__(
            spec.field_names, table_id=layout.table_id, config=config
        )
        prefix = f"t{layout.table_id}"
        self._spec = spec
        trie_meta = {name: (default, count) for name, default, count in layout.tries}
        range_meta = dict(layout.ranges)
        for engine in self._flat_engines:
            engine_any: Any = engine
            key = f"{prefix}/{engine.name}"
            if isinstance(engine, TriePartitionEngine):
                default, count = trie_meta[engine.name]
                engine_any.trie = FrozenTrie(
                    reader,
                    key,
                    key_bits=engine.trie.key_bits,
                    boundaries=engine.trie.boundaries,
                    default_label=default,
                    entry_count=count,
                )
            elif isinstance(engine, LutPartitionEngine):
                engine_any.lut = FrozenLut(reader, key)
            elif isinstance(engine, RangePartitionEngine):
                engine_any.ranges = FrozenRange(
                    reader,
                    key,
                    key_bits=engine.ranges.key_bits,
                    range_count=range_meta[engine.name],
                )
        self.index = FrozenIndex(  # type: ignore[assignment]
            reader, prefix, depth=len(self.partitioner.partition_names)
        )
        self.actions.lay_out(spec.entries)
        self._frozen = True
        self._frozen_view: SweepView | None = None
        # Inserted last on purpose: attribute dicts drop references in
        # insertion order at teardown, so the views above die before the
        # attachment cache (and its SharedMemory handles) do.
        self._attachments = attachments

    # -- read paths ----------------------------------------------------

    def __iter__(self) -> Any:
        if self._frozen:
            return (e for e in self._spec.entries if e is not None)
        return super().__iter__()

    @property
    def sweep_view(self) -> SweepView:
        if not self._frozen:
            return super().sweep_view
        if self._frozen_view is None:
            self._frozen_view = SweepView.of(self)
        return self._frozen_view

    # -- mutation paths (thaw first) -----------------------------------

    def add(self, entry: Any) -> None:
        if self._frozen:
            self._thaw()
        super().add(entry)

    def remove(self, match: Any, priority: int) -> bool:
        if self._frozen:
            self._thaw()
        return super().remove(match, priority)

    def remove_where(self, predicate: Any) -> int:
        if self._frozen:
            self._thaw()
        return super().remove_where(predicate)

    def _thaw(self) -> None:
        """Replace the frozen state with a private eager replica.

        The spec's own ``build`` is the table a spec-built worker would
        hold: every entry at its own slot, so later adds allocate the
        parent's slots, and entry ``_seq`` values survive pickling, so
        every index tiebreak lands identically.
        """
        attachments = self._attachments
        rebuilt = self._spec.build(self.config)
        self.__dict__.clear()
        self.__dict__.update(rebuilt.__dict__)
        self._frozen = False
        # Keep the mapping alive: sibling tables of this pipeline may
        # still be frozen on the same block, and an early unmap of a
        # superseded generation is the one lifecycle hazard here.
        self._attachments = attachments


# ----------------------------------------------------------------------
# sealing (parent side)
# ----------------------------------------------------------------------


class SharedRuleState:
    """Owner of one sealed generation of shared rule state.

    ``seal`` walks the *live* authoritative tables (always at a
    mutation-log fold point, under the runner's mutation lock) into one
    shared block and returns a state whose :attr:`spec` is the input
    spec with the attach layout threaded through ``PipelineSpec.shared``
    — its slot tuples are the ones the sealed index's slots address.

    ``close`` unlinks the block through the standard finalize guard —
    attached workers keep valid mappings; nothing survives in
    ``/dev/shm``.
    """

    def __init__(
        self, block: SharedBlock, layout: SharedRuleLayout, spec: Any
    ) -> None:
        self._block = block
        self.layout = layout
        self.spec = spec

    @classmethod
    def seal(cls, pipeline: Any, spec: Any) -> SharedRuleState:
        """Freeze ``pipeline``'s lookup tables as described by ``spec``.

        ``spec`` must be a ``PipelineSpec`` snapshot of ``pipeline`` taken
        at the current instant: its per-table slot tuples are the live
        action tables, whose slots the sealed index stores.
        """
        writer = BlockWriter()
        layouts = []
        for table_spec in spec.tables:
            table = pipeline.table(table_spec.table_id)
            layouts.append(_seal_table(writer, table))
        block = SharedBlock()
        block.ensure(writer.nbytes)
        segments = writer.write_to(block.buf)
        layout = SharedRuleLayout(
            block_name=block.name,
            segments=segments,
            tables=tuple(layouts),
        )
        return cls(block=block, layout=layout, spec=replace(spec, shared=layout))

    def close(self) -> None:
        self._block.close()


def _seal_table(writer: BlockWriter, table: Any) -> FrozenTableLayout:
    prefix = f"t{table.table_id}"
    trie_meta: list[tuple[str, int, int]] = []
    range_meta: list[tuple[str, int]] = []
    for engine in table._flat_engines:
        key = f"{prefix}/{engine.name}"
        if isinstance(engine, TriePartitionEngine):
            default, count = _seal_trie(writer, key, engine.trie)
            trie_meta.append((engine.name, default, count))
        elif isinstance(engine, LutPartitionEngine):
            _seal_lut(writer, key, engine.lut)
        elif isinstance(engine, RangePartitionEngine):
            range_meta.append((engine.name, _seal_range(writer, key, engine.ranges)))

    _seal_index(writer, prefix, table.index)
    return FrozenTableLayout(
        table_id=table.table_id,
        tries=tuple(trie_meta),
        ranges=tuple(range_meta),
    )


def _seal_trie(writer: BlockWriter, key: str, trie: Any) -> tuple[int, int]:
    """Write one trie's prefix tables and level maps; return (default, len)."""
    default = NO_LABEL
    buckets: dict[int, list[tuple[int, int]]] = {
        length: [] for length in range(1, trie.key_bits + 1)
    }
    for value, length, label in trie.entries():
        if length == 0:
            default = label
            continue
        buckets[length].append((value, label))
    for length, pairs in buckets.items():
        pairs.sort()
        writer.put(
            f"{key}/trie/len{length}/values",
            np.array([value for value, _ in pairs], dtype=np.uint64),
        )
        writer.put(
            f"{key}/trie/len{length}/labels",
            np.array([label for _, label in pairs], dtype=np.int64),
        )
    for level in range(trie.level_count):
        records = sorted(trie.level_records(level))
        writer.put(
            f"{key}/trie/lvl{level}/paths",
            np.array([path for path, _ in records], dtype=np.uint64),
        )
        writer.put(
            f"{key}/trie/lvl{level}/child",
            np.array(
                [1 if has_child else 0 for _, has_child in records],
                dtype=np.uint8,
            ),
        )
    return default, len(trie)


def _seal_lut(writer: BlockWriter, key: str, lut: Any) -> None:
    items = sorted(lut.items())
    writer.put(
        f"{key}/lut/keys",
        np.array([value for value, _ in items], dtype=np.uint64),
    )
    writer.put(
        f"{key}/lut/labels",
        np.array([label for _, label in items], dtype=np.int64),
    )


def _seal_range(writer: BlockWriter, key: str, ranges: Any) -> int:
    bounds, interval_labels = ranges.elementary_intervals()
    offsets = np.zeros(len(interval_labels) + 1, dtype=np.int64)
    np.cumsum(
        np.array([len(labels) for labels in interval_labels], dtype=np.int64),
        out=offsets[1:],
    )
    flat = [label for labels in interval_labels for label in labels]
    writer.put(f"{key}/range/bounds", np.array(bounds, dtype=np.uint64))
    writer.put(f"{key}/range/offsets", offsets)
    writer.put(f"{key}/range/labels", np.array(flat, dtype=np.int64))
    return len(ranges)


def _seal_index(writer: BlockWriter, prefix: str, index: Any) -> None:
    depth = len(index.partition_names)
    for k in range(depth - 1):
        hashes = sorted(_tuple_hash(t) for t in index.prefix_tuples(k))
        writer.put(
            f"{prefix}/index/d{k}", np.array(hashes, dtype=np.uint64)
        )
    rows = sorted(
        ((_tuple_hash(labels), labels, ref) for labels, ref in index.best_refs()),
        key=lambda row: (row[0], row[1]),
    )
    writer.put(
        f"{prefix}/index/final",
        np.array([h for h, _, _ in rows], dtype=np.uint64),
    )
    for j in range(depth):
        writer.put(
            f"{prefix}/index/key{j}",
            np.array([labels[j] for _, labels, _ in rows], dtype=np.int64),
        )
    for column, pick in (
        ("priority", 0),
        ("specificity", 1),
        ("sequence", 2),
        ("action", 3),
    ):
        writer.put(
            f"{prefix}/index/{column}",
            np.array([ref[pick] for _, _, ref in rows], dtype=np.int64),
        )


# ----------------------------------------------------------------------
# attaching (worker side)
# ----------------------------------------------------------------------


def attach_shared_tables(spec: Any) -> list[Any]:
    """Build the table list for a spec carrying a ``SharedRuleLayout``:
    every table attaches as a :class:`FrozenLookupTable` over its spec's
    entries and the layout ``SharedRuleState.seal`` wrote for it (one
    per spec table, in spec order).
    """
    layout: SharedRuleLayout = spec.shared
    attachments = BlockAttachments()
    reader = BlockReader(attachments.buf(layout.block_name), layout.segments)
    return [
        FrozenLookupTable(
            table_spec, table_layout, reader, attachments, spec.config
        )
        for table_spec, table_layout in zip(
            spec.tables, layout.tables, strict=True
        )
    ]
