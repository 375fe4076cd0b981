"""Packet-header partitioner/selector (Fig. 1, first stage).

"For the lookup process, the packet header is split into the selected
fields used for the first table lookup.  Each field partition is sent to
the corresponding single-field algorithm." — paper Section IV.A.

Given a table's field schema, the partitioner slices a table key — the
tuple of the packet's field values in schema order — into per-partition
keys: LPM fields into their 16-bit partition values, every other field
whole.  :meth:`HeaderPartitioner.split_keys` is the one extractor; every
search of a decomposition table runs on its rows.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.filters.partitions import FieldPartition, partition_scheme
from repro.openflow.fields import REGISTRY, MatchMethod


class HeaderPartitioner:
    """Slices table keys into per-partition key values for a fixed
    field schema."""

    def __init__(self, field_names: tuple[str, ...], part_bits: int = 16):
        self.field_names = field_names
        self.part_bits = part_bits
        self._schemes: dict[str, tuple[FieldPartition, ...]] = {}
        for name in field_names:
            definition = REGISTRY[name]
            if definition.method is MatchMethod.PREFIX:
                self._schemes[name] = partition_scheme(
                    name, definition.bits, part_bits
                )
            else:
                self._schemes[name] = partition_scheme(name, definition.bits, definition.bits)
        #: Per field, its partitions' ``(shift, mask)`` slicing constants
        #: (partitions are MSB-first slices of the field).
        self._slices: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(
                (
                    REGISTRY[name].bits - part.offset - part.bits,
                    (1 << part.bits) - 1,
                )
                for part in self._schemes[name]
            )
            for name in field_names
        )

    @property
    def partition_names(self) -> tuple[str, ...]:
        """All partition names, in schema order."""
        return tuple(
            part.name for name in self.field_names for part in self._schemes[name]
        )

    def scheme(self, field_name: str) -> tuple[FieldPartition, ...]:
        return self._schemes[field_name]

    def split_keys(
        self, field_keys: Sequence[tuple[int | None, ...]]
    ) -> list[tuple[int | None, ...]]:
        """Slice field-value tuples (schema order, ``None`` = the packet
        lacks the field, which engines treat as "no match") into
        partition-key tuples in :attr:`partition_names` order.  Plain
        Python integers, so fields wider than 64 bits (IPv6) slice like
        any other."""
        rows: list[tuple[int | None, ...]] = []
        slices = self._slices
        for key in field_keys:
            row: list[int | None] = []
            for value, parts in zip(key, slices):
                if value is None:
                    row.extend([None] * len(parts))
                else:
                    row.extend(
                        [(value >> shift) & mask for shift, mask in parts]
                    )
            rows.append(tuple(row))
        return rows
