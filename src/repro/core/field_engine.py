"""Per-field search engines (Fig. 1, "Algorithm Set" stage).

A :class:`FieldEngine` owns the search structures for one match field:

- EM fields -> one hash :class:`~repro.algorithms.exact_lut.ExactMatchLut`;
- LPM fields -> one :class:`~repro.algorithms.multibit_trie.MultibitTrie`
  per 16-bit partition (3 tries for Ethernet addresses, 2 for IPv4);
- RM fields -> one :class:`~repro.algorithms.range_lookup.RangeLookup`;
- the pipeline ``metadata`` register -> a zero-storage identity engine,
  because metadata values *are already labels* written by an earlier
  table of the pipeline.

Every structure pairs with a :class:`~repro.algorithms.labels.LabelAllocator`
implementing the label method: rule predicates insert *unique* entries
only, and both rules and packets are reduced to per-partition labels.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.algorithms.base import NO_LABEL
from repro.algorithms.exact_lut import ExactMatchLut
from repro.algorithms.labels import LabelAllocator
from repro.algorithms.multibit_trie import MultibitTrie
from repro.algorithms.range_lookup import RangeLookup
from repro.core.config import ArchitectureConfig, DEFAULT_CONFIG
from repro.filters.partitions import (
    FieldPartition,
    partition_entries,
    partition_scheme,
)
from repro.openflow.fields import REGISTRY, MatchMethod
from repro.openflow.match import (
    ExactMatch,
    FieldMatch,
    PrefixMatch,
    RangeMatch,
    WildcardMatch,
)
from repro.util.bits import mask_of, prefix_mask


class PartitionEngine:
    """One partition's search structure plus its label allocator."""

    kind: str = "abstract"

    def __init__(self, partition: FieldPartition):
        self.partition = partition
        self.allocator: LabelAllocator = LabelAllocator()

    @property
    def name(self) -> str:
        return self.partition.name

    def rule_label(self, predicate: FieldMatch) -> int:
        """Insert the predicate's entry for this partition; return its label
        (NO_LABEL when the predicate leaves the partition wild)."""
        raise NotImplementedError

    def search(self, key: int | None) -> tuple[int, ...]:
        """All labels matching the partition key (empty on miss/absence)."""
        raise NotImplementedError

    def consulted_mask(self, key: int | None) -> int:
        """Bitmask over the partition's bits that :meth:`search` consulted.

        The soundness contract for wildcard (megaflow) caching: two keys
        agreeing on every masked bit — including both lacking the field,
        which a ``None`` key encodes — produce identical label sets.  An
        engine with no stored entries consults nothing; a populated
        exact/range structure consults the whole partition; tries consult
        only down to the level their walk terminates at.
        """
        if self._storage_empty():
            return 0
        return mask_of(self.partition.bits)

    def probe(self, key: int | None) -> tuple[tuple[int, ...], int]:
        """``(search(key), consulted_mask(key))`` — one distinct key's
        labels and the bits that pinned them, for mask-capturing
        searches.  This generic form serves every structure, sealed
        twins included; the trie engine answers both from one descent.
        """
        return self.search(key), self.consulted_mask(key)

    def _storage_empty(self) -> bool:
        """True when search outcomes cannot depend on the key."""
        raise NotImplementedError

    def entry_count(self) -> int:
        return len(self.allocator)


class LutPartitionEngine(PartitionEngine):
    """Exact-match partition served by a hash LUT."""

    kind = "lut"

    def __init__(self, partition: FieldPartition, occupancy: float):
        super().__init__(partition)
        self.lut = ExactMatchLut(key_bits=partition.bits, occupancy=occupancy)

    def rule_label(self, predicate: FieldMatch) -> int:
        if isinstance(predicate, WildcardMatch):
            return NO_LABEL
        if isinstance(predicate, ExactMatch):
            value = predicate.value
        elif isinstance(predicate, PrefixMatch) and predicate.length == predicate.bits:
            value = predicate.value
        else:
            raise TypeError(
                f"partition {self.name} is exact-match; got "
                f"{type(predicate).__name__}"
            )
        label = self.allocator.label_for(value)
        self.lut.insert(value, label)
        return label

    def search(self, key: int | None) -> tuple[int, ...]:
        if key is None:
            return ()
        return self.lut.lookup_all(key)

    def _storage_empty(self) -> bool:
        return len(self.lut) == 0


class TriePartitionEngine(PartitionEngine):
    """LPM partition served by a multi-bit trie."""

    kind = "trie"

    def __init__(self, partition: FieldPartition, strides: tuple[int, ...]):
        super().__init__(partition)
        self.trie = MultibitTrie(key_bits=partition.bits, strides=strides)
        #: ``prefix_mask(depth, bits)`` per consulted depth.
        self._depth_masks = tuple(
            prefix_mask(depth, partition.bits)
            for depth in range(partition.bits + 1)
        )

    def insert_entry(self, entry: tuple[int, int]) -> int:
        """Insert one canonical (value, length) partition entry."""
        label = self.allocator.label_for(entry)
        self.trie.insert(entry[0], entry[1], label)
        return label

    def rule_label(self, predicate: FieldMatch) -> int:
        raise NotImplementedError(
            "trie partitions are fed per-partition entries by FieldEngine"
        )

    def search(self, key: int | None) -> tuple[int, ...]:
        if key is None:
            return ()
        return self.trie.lookup_all(key)

    def _storage_empty(self) -> bool:
        return len(self.trie) == 0

    def consulted_mask(self, key: int | None) -> int:
        if self._storage_empty():
            return 0
        if key is None:
            return self._depth_masks[-1]
        return self._depth_masks[self.trie.consulted_bits(key)]

    def probe(self, key: int | None) -> tuple[tuple[int, ...], int]:
        if key is None:
            return (), self.consulted_mask(None)
        # An empty trie descends to ((), 0): no labels, nothing consulted.
        labels, depth = self.trie.descend(key)
        return labels, self._depth_masks[depth]


class RangePartitionEngine(PartitionEngine):
    """RM partition served by the elementary-interval structure."""

    kind = "range"

    def __init__(self, partition: FieldPartition):
        super().__init__(partition)
        self.ranges = RangeLookup(key_bits=partition.bits)

    def rule_label(self, predicate: FieldMatch) -> int:
        if isinstance(predicate, WildcardMatch):
            return NO_LABEL
        if isinstance(predicate, RangeMatch):
            if predicate.is_full:
                return NO_LABEL
            low, high = predicate.low, predicate.high
        elif isinstance(predicate, ExactMatch):
            low = high = predicate.value
        else:
            raise TypeError(
                f"partition {self.name} is range-match; got "
                f"{type(predicate).__name__}"
            )
        label = self.allocator.label_for((low, high))
        self.ranges.insert(low, high, label)
        return label

    def search(self, key: int | None) -> tuple[int, ...]:
        if key is None:
            return ()
        return self.ranges.lookup_all(key)

    def _storage_empty(self) -> bool:
        return len(self.ranges) == 0


class MetadataEngine(PartitionEngine):
    """Identity engine for the pipeline metadata register.

    Metadata carries a label written by an earlier table (the paper's
    Section III.A: "the system uses the metadata internally to pass
    information between lookup tables"), so no search structure — and no
    memory — is needed: the value *is* the label.
    """

    kind = "metadata"

    def rule_label(self, predicate: FieldMatch) -> int:
        if isinstance(predicate, WildcardMatch):
            return NO_LABEL
        if not isinstance(predicate, ExactMatch):
            raise TypeError("metadata predicates must be exact labels")
        if predicate.value < 1:
            raise ValueError(
                "metadata rules must carry labels >= 1 (0 is the wildcard)"
            )
        return predicate.value

    def search(self, key: int | None) -> tuple[int, ...]:
        if key is None or key == NO_LABEL:
            return ()
        return (key,)

    def _storage_empty(self) -> bool:
        # The value *is* the label; whether it matters is decided by the
        # index calculation, which this engine cannot see — stay
        # conservative and always claim the whole register.
        return False


class FieldEngine:
    """All partition engines of one match field, in MSB-first order."""

    def __init__(self, field_name: str, engines: tuple[PartitionEngine, ...]):
        self.field_name = field_name
        self.engines = engines

    @property
    def partition_names(self) -> tuple[str, ...]:
        return tuple(engine.name for engine in self.engines)

    def insert_rule(self, predicate: FieldMatch) -> tuple[int, ...]:
        """Insert one rule's predicate; return its per-partition labels."""
        first = self.engines[0]
        if isinstance(first, TriePartitionEngine):
            scheme = tuple(engine.partition for engine in self.engines)
            labels = []
            for engine, entry in zip(
                self.engines, partition_entries(predicate, scheme)
            ):
                assert isinstance(engine, TriePartitionEngine)
                labels.append(
                    NO_LABEL if entry is None else engine.insert_entry(entry)
                )
            return tuple(labels)
        return tuple(engine.rule_label(predicate) for engine in self.engines)

    def structures(self) -> Iterator[PartitionEngine]:
        return iter(self.engines)


def build_field_engine(
    field_name: str, config: ArchitectureConfig = DEFAULT_CONFIG
) -> FieldEngine:
    """Create the appropriate engine stack for a field, by match method."""
    definition = REGISTRY[field_name]
    if field_name == "metadata":
        scheme = partition_scheme(field_name, definition.bits, definition.bits)
        return FieldEngine(field_name, (MetadataEngine(scheme[0]),))
    if definition.method is MatchMethod.PREFIX:
        scheme = partition_scheme(field_name, definition.bits, config.part_bits)
        return FieldEngine(
            field_name,
            tuple(
                TriePartitionEngine(part, config.strides) for part in scheme
            ),
        )
    if definition.method is MatchMethod.EXACT:
        scheme = partition_scheme(field_name, definition.bits, definition.bits)
        return FieldEngine(
            field_name,
            (LutPartitionEngine(scheme[0], config.lut_occupancy),),
        )
    scheme = partition_scheme(field_name, definition.bits, definition.bits)
    return FieldEngine(field_name, (RangePartitionEngine(scheme[0]),))
