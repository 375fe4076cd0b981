"""Columnar packet batches — the runtime's decode-free representation.

A :class:`PacketBatch` holds one batch of extracted-field dicts as dense
numpy columns: per field, one ``uint64`` lane per 64 bits of value width
plus an optional presence byte, exactly the layout the shared-memory
:class:`~repro.runtime.transport.PacketBlockCodec` ships between
processes.  Identical packet *objects* are stored once as a **row**; a
``pick`` indirection array maps batch positions onto rows, so aliased
dicts keep their aliasing.  Rows dedupe by dict *identity* only: a
per-packet frame-length distribution
(:func:`~repro.runtime.scenarios.stamp_frame_lengths` with ``"imix"`` /
``"pareto"``) gives every packet its own dict, so on stamped traffic
every packet is its own row (``packet.batch.distinct_row_frac`` reads
1.0 on all five workloads of ``BENCH_throughput.json``) and the lookup
tiers therefore dedupe by *key* — distinct masked keys in the megaflow
probe, distinct exact keys in the microflow probe and the miss-path
walk — never by row.

The point of the container is that the hot lookup tiers never leave it:

- :meth:`key_hashes` folds a field subset's lanes (and presence bytes)
  into one ``uint64`` hash per row with numpy — the sharded runtime's
  worker assignment keys on it;
- :meth:`masked_key_codes` / :meth:`masked_keys` produce the exact
  ``value & mask`` key per row under a mask (for the megaflow index: the
  store's distinct packed keys once, plus one dense ``int`` code per
  row; for the microflow tier: value tuples), so cache keys are
  compared exactly, never by hash;
- :meth:`row_fields` / :meth:`fields_at` materialise plain dicts lazily,
  one distinct row at a time, only for whoever reads a result (and for
  tables that have no keyed lookup).

Batches slice into cheap views (`batch[a:b]`) that share the underlying
column store — and therefore share the per-row dict cache *and* the
per-row key/hash memos, so chunking one workload event into
pipeline-sized batches vectorises each key computation once for the
whole event.

``frame_len`` (:data:`~repro.packet.headers.FRAME_LEN_FIELD`) rides
along as one more column for byte accounting (:meth:`frame_lengths`)
but is **never** part of a key or mask: :meth:`key_hashes` and friends
take explicit field-name lists, and no match schema or megaflow mask
contains it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from repro.packet.headers import FRAME_LEN_FIELD, transport_schema

_LANE_MASK = 0xFFFFFFFFFFFFFFFF

#: FNV-1a style constants for the vectorized hash combine (wraparound
#: uint64 arithmetic; numpy integer ops wrap silently, which is exactly
#: the semantics a hash mix wants).
_HASH_SEED = np.uint64(0xCBF29CE484222325)
_HASH_PRIME = np.uint64(0x100000001B3)
_HASH_MISSING = np.uint64(0x9E3779B97F4A7C15)


#: One 64-bit slice of a field's values, one element per distinct row.
UIntLane = NDArray[np.uint64]

#: Presence bytes (0/1) per distinct row.
PresenceLane = NDArray[np.uint8]

#: Row indices — the ``pick`` indirection and all gather/scatter maps.
IndexArray = NDArray[np.int64]


class FieldLanes(NamedTuple):
    """One field's per-row storage: uint64 lanes and presence bytes."""

    lanes: tuple[UIntLane, ...]
    present: PresenceLane | None  # 0/1 per row; None = all present


class MaskedKeyCodes(NamedTuple):
    """A store's packed ``value & mask`` keys under one mask, keyed once:
    each distinct key once, and per row the code of its key
    (``keys[codes[row]]`` is the row's key)."""

    keys: list[bytes]
    codes: IndexArray


def _lanes_for(bits: int) -> int:
    return max(1, (bits + 63) // 64)


class _ColumnStore:
    """Shared row storage behind one or more :class:`PacketBatch` views.

    Holds the distinct rows' columns plus every lazy per-row memo (dict
    materialisation, key hashes, masked key codes), so sliced views of
    one batch amortise each computation across all of them.
    """

    __slots__ = (
        "rows",
        "columns",
        "row_cache",
        "key_memo",
        "mask_memo",
    )

    def __init__(self, rows: int, columns: dict[str, FieldLanes]) -> None:
        self.rows = rows
        self.columns = columns
        #: row index -> materialised field dict (aliased across picks).
        self.row_cache: dict[int, dict[str, int]] = {}
        #: field-name tuple -> uint64 key hash per row.
        self.key_memo: dict[tuple[str, ...], NDArray[np.uint64]] = {}
        #: mask signature -> distinct packed masked keys + code per row.
        self.mask_memo: dict[tuple, MaskedKeyCodes] = {}


class PacketBatch:
    """A columnar view over (a slice of) one batch of packets."""

    __slots__ = ("_store", "pick")

    def __init__(self, store: _ColumnStore, pick: np.ndarray) -> None:
        self._store = store
        self.pick = pick

    # -- construction --------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        batch: Sequence[Mapping[str, int]],
        schema: Mapping[str, int] | None = None,
    ) -> PacketBatch:
        """Build a columnar batch from field dicts.

        Packets that are the *same dict object* become one row (the
        ``pick`` column rebuilds the aliasing, and :meth:`row_fields`
        hands the original dicts back), mirroring the transport codec's
        identity dedup.  ``schema`` defaults to
        :func:`~repro.packet.headers.transport_schema`; fields outside
        it are appended in sorted order with a 64-bit default width
        (widened automatically when a value needs more lanes).
        """
        field_bits = dict(schema if schema is not None else transport_schema())
        row_of: dict[int, int] = {}
        rows: list[Mapping[str, int]] = []
        pick = np.empty(len(batch), dtype=np.int64)
        for position, packet in enumerate(batch):
            row = row_of.get(id(packet))
            if row is None:
                row = row_of[id(packet)] = len(rows)
                rows.append(packet)
            pick[position] = row

        present_names: dict[str, None] = {}
        for row in rows:
            for name in row:
                present_names.setdefault(name, None)
        names = [name for name in field_bits if name in present_names]
        names += sorted(
            name for name in present_names if name not in field_bits
        )

        columns: dict[str, FieldLanes] = {}
        for name in names:
            columns[name] = _encode_column(
                name, [row.get(name) for row in rows], field_bits.get(name, 64)
            )
        store = _ColumnStore(len(rows), columns)
        # The originals *are* the row dicts: the dict fallback hands the
        # caller's own aliased objects back, byte-for-byte.
        store.row_cache = dict(enumerate(rows))
        return cls(store, pick)

    @classmethod
    def from_columns(
        cls,
        rows: int,
        columns: dict[str, FieldLanes],
        pick: np.ndarray,
    ) -> PacketBatch:
        """Wrap pre-built columns (the shared-memory attach path)."""
        return cls(_ColumnStore(rows, columns), np.asarray(pick, dtype=np.int64))

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.pick)

    def __getitem__(
        self, index: int | slice
    ) -> PacketBatch | dict[str, int]:
        if isinstance(index, slice):
            return PacketBatch(self._store, self.pick[index])
        return self.fields_at(int(index))

    def __iter__(self) -> Iterator[dict[str, int]]:
        for row in self.pick.tolist():
            yield self.row_fields(row)

    def select(self, positions: Sequence[int]) -> PacketBatch:
        """A view of the given batch positions (shares the store)."""
        return PacketBatch(
            self._store, self.pick[np.asarray(positions, dtype=np.int64)]
        )

    def compacted(self) -> PacketBatch:
        """A batch whose store holds only the rows this view picks.

        Sliced views share their event's (possibly huge) column store;
        encoding one into a transport block must ship the view's rows,
        not the whole event.  Returns ``self`` when every store row is
        already in use; otherwise gathers the needed rows (the write-
        side twin of the codec's ``attach`` subsetting).  Key memos and
        the row-dict cache are *not* carried over — compacted batches
        are transient encode inputs.
        """
        store = self._store
        needed, inverse = np.unique(self.pick, return_inverse=True)
        if len(needed) == store.rows:
            return self
        columns = {
            name: FieldLanes(
                tuple(lane[needed] for lane in lanes),
                None if present is None else present[needed],
            )
            for name, (lanes, present) in store.columns.items()
        }
        return PacketBatch(
            _ColumnStore(len(needed), columns), inverse.astype(np.int64)
        )

    @property
    def rows(self) -> int:
        """Distinct rows behind the *whole* store (views included)."""
        return self._store.rows

    def field_names(self) -> tuple[str, ...]:
        return tuple(self._store.columns)

    def column(self, name: str) -> FieldLanes | None:
        return self._store.columns.get(name)

    # -- lazy dict materialisation -------------------------------------

    def row_fields(self, row: int) -> dict[str, int]:
        """The field dict for one distinct row (materialised once and
        aliased across every position that picks it)."""
        cached = self._store.row_cache.get(row)
        if cached is None:
            cached = self._store.row_cache[row] = self._materialise(row)
        return cached

    def fields_at(self, position: int) -> dict[str, int]:
        return self.row_fields(int(self.pick[position]))

    def dicts(self) -> list[dict[str, int]]:
        """Every position's dict, aliasing preserved (the full decode)."""
        return [self.row_fields(row) for row in self.pick.tolist()]

    def _materialise(self, row: int) -> dict[str, int]:
        fields: dict[str, int] = {}
        for name, (lanes, present) in self._store.columns.items():
            if present is not None and not present[row]:
                continue
            value = int(lanes[0][row])
            for lane_index in range(1, len(lanes)):
                value |= int(lanes[lane_index][row]) << (64 * lane_index)
            fields[name] = value
        return fields

    # -- byte accounting ------------------------------------------------

    def frame_lengths(self) -> np.ndarray:
        """Per-position on-wire frame lengths (0 where absent)."""
        column = self._store.columns.get(FRAME_LEN_FIELD)
        if column is None:
            return np.zeros(len(self.pick), dtype=np.int64)
        # Gather before the cast: a view costs O(view), not O(store).
        lane = column.lanes[0][self.pick].astype(np.int64)
        if column.present is not None:
            lane = lane * column.present[self.pick]
        return lane

    @property
    def byte_total(self) -> int:
        return int(self.frame_lengths().sum())

    # -- vectorized keys ------------------------------------------------

    def key_hashes(self, field_names: Sequence[str]) -> NDArray[np.uint64]:
        """One ``uint64`` hash per *row* over the named fields.

        The combine folds every lane and the presence byte per field, so
        a field carrying value 0 and a missing field hash differently,
        and only the named fields participate — hashing a schema that
        excludes ``frame_len`` provably cannot see it.  Memoized on the
        store, so chunked views of one workload event hash once.
        """
        names = tuple(field_names)
        memo = self._store.key_memo.get(names)
        if memo is None:
            memo = self._store.key_memo[names] = self._compute_hashes(names)
        return memo

    def _compute_hashes(self, names: tuple[str, ...]) -> NDArray[np.uint64]:
        rows = self._store.rows
        hashes = np.full(rows, _HASH_SEED, dtype=np.uint64)
        zeros = ones = None
        for name in names:
            column = self._store.columns.get(name)
            if column is None:
                if zeros is None:
                    zeros = np.zeros(rows, dtype=np.uint64)
                lanes: tuple[np.ndarray, ...] = (zeros,)
                present = zeros
            else:
                lanes = column.lanes
                if column.present is None:
                    if ones is None:
                        ones = np.ones(rows, dtype=np.uint64)
                    present = ones
                else:
                    present = column.present.astype(np.uint64)
            for lane in lanes:
                hashes = (hashes ^ lane) * _HASH_PRIME
            hashes = (hashes ^ (present + _HASH_MISSING)) * _HASH_PRIME
        return hashes

    def masked_key_codes(self, mask: Sequence[tuple[str, int]]) -> MaskedKeyCodes:
        """Packed ``value & mask`` keys under a megaflow mask, as the
        store's distinct keys plus one dense code per *row*.

        The layout is a pure function of the mask (lane counts from each
        field's mask bits, presence bits packed into one trailing
        column), so keys of different batches compare byte for byte —
        the megaflow index installs and probes with them.  Keyed once
        per store and mask, so the probe of every view gathers integer
        codes and touches a ``bytes`` key only per distinct code.
        """
        mask = tuple(mask)
        memo = self._store.mask_memo.get(mask)
        if memo is None:
            memo = self._store.mask_memo[mask] = _key_codes(
                self._masked_lanes(mask), self._store.rows
            )
        return memo

    def _masked_lanes(
        self, mask: tuple[tuple[str, int], ...]
    ) -> list[np.ndarray]:
        assert len(mask) <= 64, "mask wider than the presence word"
        rows = self._store.rows
        stack: list[np.ndarray] = []
        presence = np.zeros(rows, dtype=np.uint64)
        zeros = None
        for bit, (name, bits) in enumerate(mask):
            column = self._store.columns.get(name)
            if column is None:
                if zeros is None:
                    zeros = np.zeros(rows, dtype=np.uint64)
                for _ in range(_lanes_for(bits.bit_length())):
                    stack.append(zeros)
                continue
            lanes, present = column
            if present is None:
                presence |= np.uint64(1 << bit)
            else:
                presence |= present.astype(np.uint64) << np.uint64(bit)
            for lane_index in range(_lanes_for(bits.bit_length())):
                lane_mask = np.uint64((bits >> (64 * lane_index)) & _LANE_MASK)
                if lane_index < len(lanes):
                    stack.append(lanes[lane_index] & lane_mask)
                else:
                    if zeros is None:
                        zeros = np.zeros(rows, dtype=np.uint64)
                    stack.append(zeros)
        stack.append(presence)
        return stack

    def masked_keys(
        self, mask: Sequence[tuple[str, int]], rows: IndexArray
    ) -> list[tuple[int | None, ...]]:
        """The ``value & mask`` tuple key of each given row under a
        mask (``None`` where the row lacks the field), one vectorized
        pass per mask field — the microflow tier's exact keys.  Not
        memoized.
        """
        columns: list[Sequence[int | None]] = []
        for name, bits in mask:
            column = self._store.columns.get(name)
            if column is None:
                columns.append([None] * len(rows))
                continue
            values: list[int] = (
                column.lanes[0][rows] & np.uint64(bits & _LANE_MASK)
            ).tolist()
            for lane_index in range(
                1, min(len(column.lanes), _lanes_for(bits.bit_length()))
            ):
                shift = 64 * lane_index
                lane = column.lanes[lane_index][rows] & np.uint64(
                    (bits >> shift) & _LANE_MASK
                )
                values = [
                    low | (high << shift)
                    for low, high in zip(values, lane.tolist())
                ]
            if column.present is None:
                columns.append(values)
            else:
                columns.append(
                    [
                        value if present else None
                        for value, present in zip(
                            values, column.present[rows].tolist()
                        )
                    ]
                )
        if not columns:
            return [()] * len(rows)
        return list(zip(*columns))


def unique_codes(values: IndexArray) -> tuple[IndexArray, IndexArray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D integer
    array, in a few whole-array calls: the distinct values, ascending,
    and each value's index among them.  The batched runtime groups
    small arrays many times a batch, where ``np.unique``'s general
    machinery costs more than the sort itself."""
    order = values.argsort()
    ordered = values[order]
    fresh = np.empty(len(values), dtype=np.bool_)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = fresh.cumsum() - 1
    return ordered[fresh], inverse


def _key_codes(stack: Sequence[np.ndarray], rows: int) -> MaskedKeyCodes:
    """Key per-row uint64 columns: sort the rows by them, start a code
    wherever a row differs from its predecessor in any column, and pack
    each code's first row into one bytes key."""
    order = np.lexsort(stack)
    fresh = np.zeros(rows, dtype=bool)
    fresh[:1] = True
    for column in stack:
        ordered = column[order]
        fresh[1:] |= ordered[1:] != ordered[:-1]
    codes = np.empty(rows, dtype=np.int64)
    codes[order] = np.cumsum(fresh) - 1
    firsts = order[fresh]
    packed = np.empty((len(firsts), len(stack)), dtype=np.uint64)
    for i, column in enumerate(stack):
        packed[:, i] = column[firsts]
    keys = packed.view(np.dtype((np.void, 8 * len(stack)))).ravel().tolist()
    return MaskedKeyCodes(keys, codes)


def _encode_column(
    name: str, values: Sequence[int | None], bits: int
) -> FieldLanes:
    """Columnarise one field's per-row values (width-fallback mirroring
    the transport codec: values wider than advertised get extra lanes)."""
    has_missing = any(value is None for value in values)
    present = (
        np.fromiter(
            (value is not None for value in values),
            dtype=np.uint8,
            count=len(values),
        )
        if has_missing
        else None
    )
    lanes = _lanes_for(bits)
    if lanes == 1:
        try:
            lane = np.fromiter(
                (0 if value is None else value for value in values),
                dtype=np.uint64,
                count=len(values),
            )
            return FieldLanes((lane,), present)
        except (OverflowError, ValueError, TypeError):
            pass  # wider than advertised; fall through to lane split
    lanes = max(
        lanes,
        max((_value_lanes(name, value) for value in values), default=1),
    )
    arrays = tuple(
        np.fromiter(
            (
                0
                if value is None
                else (value >> (64 * lane_index)) & _LANE_MASK
                for value in values
            ),
            dtype=np.uint64,
            count=len(values),
        )
        for lane_index in range(lanes)
    )
    return FieldLanes(arrays, present)


def _value_lanes(name: str, value: int | None) -> int:
    """Lanes one value needs (rejecting negatives early: lane splitting
    of negative ints would silently corrupt the roundtrip)."""
    if value is None:
        return 1
    if value < 0:
        raise ValueError(f"field {name!r} has negative value {value}")
    return max(1, (value.bit_length() + 63) // 64)
