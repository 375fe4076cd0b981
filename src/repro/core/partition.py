"""Packet-header partitioner/selector (Fig. 1, first stage).

"For the lookup process, the packet header is split into the selected
fields used for the first table lookup.  Each field partition is sent to
the corresponding single-field algorithm." — paper Section IV.A.

Given a table's field schema, the partitioner extracts each field from a
packet's field dictionary and slices LPM fields into their 16-bit
partition values, producing the per-partition keys the engines search.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.filters.partitions import FieldPartition, partition_scheme
from repro.openflow.fields import REGISTRY, MatchMethod


class HeaderPartitioner:
    """Extracts per-partition key values for a fixed field schema."""

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

    def extract(self, packet_fields: Mapping[str, int]) -> dict[str, int | None]:
        """Slice a packet's fields into partition keys.

        Returns a mapping from partition name to the partition's key
        value, or ``None`` when the packet lacks the field entirely (e.g.
        ``ipv4_dst`` on a non-IP packet) — engines treat that as "no
        match".
        """
        keys: dict[str, int | None] = {}
        for name, slices in zip(self.field_names, self._slices):
            value = packet_fields.get(name)
            for part, (shift, mask) in zip(self._schemes[name], slices):
                keys[part.name] = (
                    None if value is None else (value >> shift) & mask
                )
        return keys

    def split_keys(
        self, field_keys: Sequence[tuple[int | None, ...]]
    ) -> list[tuple[int | None, ...]]:
        """Slice field-value tuples (schema order, ``None`` = the packet
        lacks the field) into partition-key tuples in
        :attr:`partition_names` order — :meth:`extract` for callers that
        already hold the table key instead of a field dict."""
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

    def extract_batch(
        self, batch: Sequence[Mapping[str, int]]
    ) -> list[tuple[int | None, ...]]:
        """Slice a batch of packets into partition-key tuples.

        Returns one tuple per packet, with keys in
        :attr:`partition_names` order (``None`` where the packet lacks
        the field).  The per-partition shift/mask arithmetic runs
        vectorized over the whole batch with numpy for fields up to 64
        bits; wider fields (IPv6) fall back to Python integers, which
        have no width limit.
        """
        if not batch:
            return []
        columns: list[list[int | None]] = []
        for name in self.field_names:
            field_bits = REGISTRY[name].bits
            raw = [fields.get(name) for fields in batch]
            values: np.ndarray | None = None
            if field_bits <= 64:
                try:
                    values = np.array(
                        [0 if v is None else v for v in raw], dtype=np.uint64
                    )
                except (OverflowError, TypeError):
                    values = None  # out-of-range value; take the slow path
            for part in self._schemes[name]:
                shift = field_bits - part.offset - part.bits
                mask = (1 << part.bits) - 1
                if values is not None:
                    keys = (
                        (values >> np.uint64(shift)) & np.uint64(mask)
                    ).tolist()
                    columns.append(
                        [
                            None if v is None else key
                            for v, key in zip(raw, keys)
                        ]
                    )
                else:
                    columns.append(
                        [
                            None if v is None else (v >> shift) & mask
                            for v in raw
                        ]
                    )
        return list(zip(*columns))
