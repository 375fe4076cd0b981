"""Shared-memory columnar transport for the sharded runtime.

The PR-2 sharded runner pickled whole packet batches (and whole
:class:`~repro.openflow.pipeline.PipelineResult` lists) through a
``multiprocessing`` pipe per worker per batch — on small batches the
serialisation round-trip dominated the workers' useful work (ROADMAP
"Open items").  This module replaces the payload path with shared
memory; only tiny control messages cross the pipe:

**Packet blocks.**  :class:`PacketBlockCodec` lays a batch out as flat
numpy columns — per field, one ``uint64`` lane per 64 bits of width
(widths from the canonical :func:`repro.packet.headers.transport_schema`)
plus a presence byte when some packet lacks the field.  Identical packet
*objects* (the common case: traces sample a flow pool of shared dicts)
are encoded once and reconstructed once, with a per-packet indirection
column — the columnar twin of pickle's memo, at a fraction of the cost.
The parent encodes the whole batch **once** into one parent-owned block;
each worker reads only its member rows (its member-index array lives in
the same block), so fan-out cost no longer scales with worker count.

**Result blocks.**  Workers encode their classification outcomes
(:func:`encode_outcomes`) columnar into the parent-owned response
slot their request names, **once per distinct traversal** of the
sub-batch, not once per packet: per template, fixed-width lanes for flags/metadata, offset+value lanes for
the variable-length lists, rewrite overrides against the input packets
the parent already holds, applied actions as indices into a tiny
per-batch action vocabulary (pickled in the control reply — distinct
actions per batch are few), and matched entries as
``(table_id, position)`` **entry refs** resolved against each side's
own tables; per position, one ``int32`` code naming its template.
:func:`decode_outcomes` is the parent's half and fails closed
(:class:`ReplyDecodeError`) on a block that does not fit its batch.

**Entry refs and the stats return path.**  :class:`EntryIndex` maps
entries to positions in a table's deterministic
``entries_snapshot()`` order.  A worker replica at the same mutation-log
position as the parent agrees on that order (snapshots pickle entries
with their sort keys and replay mutations in program order), so a ref is
a process-independent name for a flow entry.  That makes two things
cheap: the parent rebuilds templates whose ``matched_entries`` are its
*own* authoritative :class:`~repro.openflow.flow.FlowEntry` objects, and
each reply block carries the flow-stats delta as two more per-template
lanes — packets and frame bytes — which the parent folds into those
entries' counters, so flow stats (the substrate for monitoring) are
exact under sharding instead of marooned in worker replicas.

**Blocks.**  :class:`SharedBlock` wraps one growable
``multiprocessing.shared_memory`` segment owned by its creating process
(grown by re-creating under a fresh name; peers attach lazily via
:class:`BlockAttachments`).  The sharded parent creates every block —
request ring, response ring, sealed rules — and workers only attach, so
no worker death can strand a segment.  Layouts travel in the control
messages as :class:`Segment` tuples, so readers construct zero-copy
numpy views.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.openflow.actions import Action
from repro.openflow.flow import FlowEntry
from repro.openflow.pipeline import PipelineResult
from repro.packet.batch import FieldLanes, PacketBatch
from repro.packet.headers import transport_schema
from repro.runtime.megaflow import Traversal

if TYPE_CHECKING:  # runtime.batch imports nothing from here, but the
    # hint stays lazy so module import order never matters
    from repro.runtime.batch import ColumnarOutcomes

#: Smallest block allocated; growth doubles, so churny batch sizes do
#: not thrash the kernel with re-creations.
MIN_BLOCK_BYTES = 1 << 16

_ALIGN = 16


# ----------------------------------------------------------------------
# shared-memory blocks
# ----------------------------------------------------------------------


def ensure_resource_tracker() -> None:
    """Start the resource tracker before forking workers.

    Attaching to a segment registers it with the process's tracker (a
    CPython quirk: attach-only handles register too).  When the tracker
    exists *before* the fork, parent and workers share one tracker, its
    name set deduplicates, and the single owner-side ``unlink``
    unregisters for everyone — no spurious "leaked shared_memory"
    warnings at exit.
    """
    resource_tracker.ensure_running()


class SharedBlock:
    """One growable shared-memory segment owned by this process.

    ``ensure(nbytes)`` re-creates the segment under a fresh name when it
    is too small (shared memory cannot resize in place); the stale
    segment is unlinked immediately — peers still holding it mapped keep
    a valid view until they attach to the new name from the next control
    message.

    **Lifecycle guard.**  Every created segment registers a
    ``weakref.finalize`` unlink callback, so a block abandoned without
    :meth:`close` — an interrupted sharded run, an exception unwinding
    past the owner, a runner that was never closed — is still unlinked
    when the owner object is collected or the interpreter exits, instead
    of lingering in ``/dev/shm`` until reboot.  :meth:`close` remains
    the explicit (idempotent) path and detaches the finalizer.

    Finalize guards die with their process, which is why only the
    sharded runtime's *parent* constructs blocks: a worker attaches
    (:class:`BlockAttachments`) and owns nothing a SIGKILL could strand.
    """

    def __init__(self) -> None:
        self._shm: shared_memory.SharedMemory | None = None
        self._finalizer = None

    @property
    def name(self) -> str:
        assert self._shm is not None, "ensure() before name"
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        assert self._shm is not None, "ensure() before buf"
        return self._shm.buf

    def ensure(self, nbytes: int) -> None:
        if self._shm is not None and self._shm.size >= nbytes:
            return
        size = MIN_BLOCK_BYTES
        while size < nbytes:
            size *= 2
        self.close()
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm
        )

    def close(self) -> None:
        """Unlink and unmap the segment (idempotent)."""
        if self._shm is None:
            return
        finalizer, self._finalizer = self._finalizer, None
        self._shm = None
        if finalizer is not None:
            # The finalizer owns the actual unlink+unmap; calling it here
            # runs it exactly once and disarms the at-exit/at-GC copy.
            finalizer()


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Unlink then unmap one segment.

    Unlink first: even if unmapping is blocked by a still-alive numpy
    view (``BufferError``), the name is gone and the kernel reclaims the
    memory once the last view dies.
    """
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass


class BlockAttachments:
    """Cache of attached (peer-owned) segments, keyed by name."""

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def buf(self, name: str) -> memoryview:
        shm = self._attached.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            self._attached[name] = shm
        return shm.buf

    def close(self) -> None:
        for shm in self._attached.values():
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover - defensive
                pass
        self._attached.clear()


class Segment(NamedTuple):
    """Where one named array lives inside a block."""

    key: str
    dtype: str
    count: int
    offset: int


class BlockWriter:
    """Accumulates named arrays, then lays them out in one block.

    Two-phase on purpose: :attr:`nbytes` sizes the block before any
    byte is written, so one ``ensure`` covers the whole batch.
    """

    def __init__(self) -> None:
        self._arrays: list[tuple[str, np.ndarray]] = []
        self._nbytes = 0

    def put(self, key: str, array: np.ndarray) -> None:
        self._arrays.append((key, array))
        self._nbytes = _aligned(self._nbytes) + array.nbytes

    @property
    def nbytes(self) -> int:
        return max(self._nbytes, 1)

    def write_to(self, buf: memoryview) -> tuple[Segment, ...]:
        segments: list[Segment] = []
        offset = 0
        for key, array in self._arrays:
            offset = _aligned(offset)
            if array.size:
                view = np.frombuffer(
                    buf, dtype=array.dtype, count=array.size, offset=offset
                )
                view[:] = array
            segments.append(
                Segment(key, array.dtype.str, array.size, offset)
            )
            offset += array.nbytes
        return tuple(segments)


class BlockReader:
    """Zero-copy views over a written block."""

    def __init__(
        self, buf: memoryview, segments: Iterable[Segment]
    ) -> None:
        self._buf = buf
        self._segments = {segment.key: segment for segment in segments}

    def get(self, key: str) -> np.ndarray:
        segment = self._segments[key]
        return np.frombuffer(
            self._buf,
            dtype=np.dtype(segment.dtype),
            count=segment.count,
            offset=segment.offset,
        )


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# packet blocks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldColumn:
    """Layout of one field's columns: lane count and presence flag."""

    name: str
    lanes: int
    has_missing: bool


@dataclass(frozen=True)
class PacketBlockLayout:
    """Decode recipe for one encoded batch of packet-field dicts."""

    prefix: str
    count: int  # packets in the batch
    rows: int  # distinct dicts actually encoded
    fields: tuple[FieldColumn, ...]


class PacketBlockCodec:
    """Columnar codec for batches of ``{field name: int}`` dicts.

    Stateless apart from the schema, so the parent and every worker
    construct their own from :func:`transport_schema` and agree on the
    canonical column order without negotiation.
    """

    def __init__(self, field_bits: Mapping[str, int] | None = None) -> None:
        self.field_bits = dict(
            field_bits if field_bits is not None else transport_schema()
        )

    # -- encode --------------------------------------------------------

    def encode_batch(
        self, writer: BlockWriter, batch: PacketBatch, prefix: str
    ) -> PacketBlockLayout:
        """Write a columnar batch's pick/lane/presence arrays.

        A sliced view is compacted first, so a chunk of a large event
        ships only the rows it picks — never the whole backing store.
        """
        batch = batch.compacted()
        writer.put(f"{prefix}/pick", batch.pick.astype(np.int32))
        columns: list[FieldColumn] = []
        for name in batch.field_names():
            lanes, present = batch.column(name)
            if present is not None:
                writer.put(f"{prefix}/{name}/present", present)
            for lane_index, lane in enumerate(lanes):
                writer.put(f"{prefix}/{name}/{lane_index}", lane)
            columns.append(FieldColumn(name, len(lanes), present is not None))
        return PacketBlockLayout(
            prefix=prefix,
            count=len(batch),
            rows=batch.rows,
            fields=tuple(columns),
        )

    # -- decode --------------------------------------------------------

    def attach(
        self,
        reader: BlockReader,
        layout: PacketBlockLayout,
        positions: Sequence[int] | None = None,
    ) -> PacketBatch:
        """A :class:`PacketBatch` over (a subset of) an encoded block.

        Only the rows the selected positions actually pick are gathered
        (copied out of the shared segment, so no view outlives the
        caller's frame); dict materialisation stays lazy — this is the
        decode-free worker's entry point.
        """
        prefix = layout.prefix
        pick = reader.get(f"{prefix}/pick")
        if positions is not None:
            pick = pick[np.asarray(positions, dtype=np.int64)]
        needed = np.unique(pick)
        remap = np.zeros(
            int(needed[-1]) + 1 if len(needed) else 1, dtype=np.int64
        )
        remap[needed] = np.arange(len(needed), dtype=np.int64)
        columns: dict[str, FieldLanes] = {}
        for spec in layout.fields:
            lanes = tuple(
                reader.get(f"{prefix}/{spec.name}/{lane_index}")[needed]
                for lane_index in range(spec.lanes)
            )
            present = (
                reader.get(f"{prefix}/{spec.name}/present")[needed]
                if spec.has_missing
                else None
            )
            columns[spec.name] = FieldLanes(lanes, present)
        return PacketBatch.from_columns(
            len(needed), columns, remap[pick.astype(np.int64)]
        )

    def decode(
        self,
        reader: BlockReader,
        layout: PacketBlockLayout,
        positions: Sequence[int] | None = None,
    ) -> list[dict[str, int]]:
        """Rebuild (a subset of) the batch from its columns.

        ``positions``, when given, selects batch positions (e.g. one
        worker's members); every distinct row is still materialised at
        most once and aliased across its duplicates.
        """
        return self.attach(reader, layout, positions).dicts()


# ----------------------------------------------------------------------
# entry refs
# ----------------------------------------------------------------------


class EntryIndex:
    """Bidirectional ``FlowEntry <-> (table_id, position)`` resolver.

    Positions index the table's ``entries_snapshot()`` order, cached per
    table version so per-batch resolution costs O(1) after the first
    touch following a mutation.
    """

    def __init__(self, pipeline: Any) -> None:
        self.pipeline = pipeline
        #: table_id -> (version, entries, id(entry) -> position)
        self._cache: dict[int, tuple[int, tuple[FlowEntry, ...], dict[int, int]]] = {}

    def _state(
        self, table_id: int
    ) -> tuple[int, tuple[FlowEntry, ...], dict[int, int]]:
        table = self.pipeline.table(table_id)
        cached = self._cache.get(table_id)
        if cached is None or cached[0] != table.version:
            entries = _entries_snapshot(table)
            cached = (
                table.version,
                entries,
                {id(entry): i for i, entry in enumerate(entries)},
            )
            self._cache[table_id] = cached
        return cached

    def entries(self, table_id: int) -> tuple[FlowEntry, ...]:
        return self._state(table_id)[1]

    def ref(self, table_id: int, entry: FlowEntry) -> tuple[int, int]:
        # Frozen shared-state tables (runtime/rulestate.py) know each
        # rehydrated entry's sealed position outright — and the sealed
        # order *is* the parent's pinned snapshot order, because any
        # mutation would have thawed the table (entry_position then
        # returns None and the snapshot path below takes over).
        position_of = getattr(
            self.pipeline.table(table_id), "entry_position", None
        )
        if position_of is not None:
            position = position_of(entry)
            if position is not None:
                return (table_id, position)
        return (table_id, self._state(table_id)[2][id(entry)])

    def pin(self) -> dict[int, tuple[FlowEntry, ...]]:
        """Freeze every table's current entry order.

        The parent pins once per batch *before* dispatching it, then
        resolves worker refs against the pinned tuples — a mutation
        landing while replies are in flight cannot skew resolution onto
        a younger table state than the one the workers classified under.
        """
        return {
            table.table_id: self.entries(table.table_id)
            for table in self.pipeline.tables
        }


def _entries_snapshot(table: Any) -> tuple[FlowEntry, ...]:
    snapshot = getattr(table, "entries_snapshot", None)
    if snapshot is not None:
        return snapshot()
    return tuple(table)


# ----------------------------------------------------------------------
# result blocks
# ----------------------------------------------------------------------


class ReplyDecodeError(ValueError):
    """A reply block does not describe the sub-batch it answers: a code
    lane of the wrong length, a code naming no template, a ragged lane
    that does not cover its templates, or a matched ref or action id
    outside what the parent pinned for the batch."""


@dataclass(frozen=True)
class ResultBlockLayout:
    """Decode recipe for one worker's encoded reply.

    ``count`` is the sub-batch's position count (the code lane's
    length); ``overrides`` holds one rewrite dict per *template*
    (usually ``None``) — final fields are rebuilt parent-side as input
    packet + overrides, exactly like megaflow replay.
    """

    count: int
    overrides: tuple[dict[str, int] | None, ...] = ()


class DecodedReply(NamedTuple):
    """One reply, decoded: the sub-batch's distinct traversals (matched
    entries already the parent's own), the traversal each position
    took, and per traversal the packets and frame bytes it carried."""

    traversals: list[Traversal]
    codes: list[int]
    packets: list[int]
    byte_sums: list[int]


_RESULT_SENT = 1
_RESULT_DROPPED = 2


def encode_outcomes(
    writer: BlockWriter,
    outcomes: ColumnarOutcomes,
    index: EntryIndex,
) -> tuple[ResultBlockLayout, list[Action]]:
    """Encode a :class:`~repro.runtime.batch.ColumnarOutcomes` columnar —
    the decode-free worker's reply path.

    Each *distinct* traversal of the sub-batch is encoded once from its
    template (flags, metadata, tables, ports, matched refs, action ids,
    plus its rewrite ``overrides`` in the layout); every position then
    costs one ``int32`` code.  The flow-stats delta rides in the same
    block as two per-template lanes — packets and frame bytes, summed
    off the batch's ``frame_len`` lane — so no position ever touches a
    dict and nothing per packet is pickled.
    """
    traversals, codes = outcomes.distinct()
    templates = [traversal.template for traversal in traversals]
    count = len(templates)
    writer.put("res/codes", codes)
    writer.put(
        "res/flags",
        np.fromiter(
            (
                template.sent_to_controller * _RESULT_SENT
                | template.dropped * _RESULT_DROPPED
                for template in templates
            ),
            dtype=np.uint8,
            count=count,
        ),
    )
    writer.put(
        "res/metadata",
        np.fromiter(
            (template.metadata for template in templates),
            dtype=np.uint64,
            count=count,
        ),
    )
    _put_ragged(
        writer,
        "res/tables",
        [template.tables_visited for template in templates],
        np.int32,
    )
    _put_ragged(
        writer,
        "res/ports",
        [template.output_ports for template in templates],
        np.uint64,
    )
    _put_ragged(
        writer,
        "res/matched",
        [
            [
                part
                for table_id, entry in zip(
                    template.tables_visited, template.matched_entries
                )
                for part in index.ref(table_id, entry)
            ]
            for template in templates
        ],
        np.int32,
    )
    vocabulary: dict[Action, int] = {}
    _put_ragged(
        writer,
        "res/actions",
        [
            [
                vocabulary.setdefault(action, len(vocabulary))
                for action in template.applied_actions
            ]
            for template in templates
        ],
        np.int32,
    )
    writer.put(
        "res/packets",
        np.bincount(codes, minlength=count).astype(np.int64, copy=False),
    )
    # bincount sums in float64: exact below 2**53 frame bytes a batch.
    writer.put(
        "res/bytes",
        np.bincount(codes, weights=outcomes.frame, minlength=count).astype(
            np.int64
        ),
    )
    layout = ResultBlockLayout(
        count=len(codes),
        overrides=tuple(
            traversal.overrides or None for traversal in traversals
        ),
    )
    return layout, list(vocabulary)


def decode_outcomes(
    reader: BlockReader,
    layout: ResultBlockLayout,
    vocabulary: Sequence[Action],
    pinned: Mapping[int, tuple[FlowEntry, ...]],
    expected: int,
) -> DecodedReply:
    """Rebuild one reply's traversals against ``pinned`` — the entry
    order the parent froze when it submitted the batch — so every
    template references the parent's own authoritative entries.

    ``expected`` is the member count the parent sent.  Fails closed: a
    reply that does not fit it, its own templates or the pinned
    snapshot raises :class:`ReplyDecodeError` here rather than
    mis-resolving a template (or an ``IndexError``) at first read.
    Everything returned is copied out of the block, so the response
    ring slot is free for reuse as soon as this returns.
    """
    count = len(layout.overrides)
    codes = reader.get("res/codes")
    if not len(codes) == layout.count == expected:
        raise ReplyDecodeError(
            f"code lane holds {len(codes)} positions (layout says "
            f"{layout.count}) for a sub-batch of {expected}"
        )
    _require_range(codes, count, "codes")
    _require_range(
        reader.get("res/actions/values"), len(vocabulary), "action ids"
    )
    traversals: list[Traversal] = []
    for refs, action_ids, ports, flags, metadata, tables, overrides in zip(
        _get_ragged(reader, "res/matched", count),
        _get_ragged(reader, "res/actions", count),
        _get_ragged(reader, "res/ports", count),
        _get_lane(reader, "res/flags", count),
        _get_lane(reader, "res/metadata", count),
        _get_ragged(reader, "res/tables", count),
        layout.overrides,
    ):
        if len(refs) % 2:
            raise ReplyDecodeError(
                f"matched refs {refs} are not (table_id, position) pairs"
            )
        traversals.append(
            _traversal(
                [
                    _pinned_entry(pinned, refs[j], refs[j + 1])
                    for j in range(0, len(refs), 2)
                ],
                [vocabulary[action_id] for action_id in action_ids],
                ports,
                flags,
                metadata,
                tables,
                overrides,
            )
        )
    return DecodedReply(
        traversals,
        codes.tolist(),
        _get_lane(reader, "res/packets", count),
        _get_lane(reader, "res/bytes", count),
    )


def _require_range(lane: np.ndarray, bound: int, what: str) -> None:
    if len(lane) and not 0 <= lane.min() <= lane.max() < bound:
        raise ReplyDecodeError(
            f"{what} span [{lane.min()}, {lane.max()}], outside [0, {bound})"
        )


def _pinned_entry(
    pinned: Mapping[int, tuple[FlowEntry, ...]], table_id: int, position: int
) -> FlowEntry:
    entries = pinned.get(table_id)
    if entries is None or not 0 <= position < len(entries):
        raise ReplyDecodeError(
            f"matched ref ({table_id}, {position}) is outside the "
            f"pinned snapshot"
        )
    return entries[position]


def _traversal(
    entries: list[FlowEntry],
    applied: list[Action],
    ports: list[int],
    flags: int,
    metadata: int,
    tables: list[int],
    overrides: dict[str, int] | None,
) -> Traversal:
    """One decoded template — built once per distinct traversal, never
    per position (positions clone it through ``replay_template``)."""
    template = PipelineResult(
        matched_entries=entries,
        applied_actions=applied,
        output_ports=ports,
        sent_to_controller=bool(flags & _RESULT_SENT),
        dropped=bool(flags & _RESULT_DROPPED),
        metadata=metadata,
        tables_visited=tables,
    )
    return Traversal(template, overrides or {}, ())


def _put_ragged(
    writer: BlockWriter,
    key: str,
    rows: Sequence[Sequence[int]],
    dtype: type[np.signedinteger] | type[np.unsignedinteger],
) -> None:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    writer.put(f"{key}/offsets", offsets)
    writer.put(
        f"{key}/values",
        np.fromiter(
            (value for row in rows for value in row),
            dtype=dtype,
            count=int(offsets[-1]),
        ),
    )


def _get_lane(reader: BlockReader, key: str, count: int) -> list[int]:
    lane = reader.get(key)
    if len(lane) != count:
        raise ReplyDecodeError(
            f"{key} holds {len(lane)} values, its layout needs {count}"
        )
    return lane.tolist()


def _get_ragged(reader: BlockReader, key: str, count: int) -> list[list[int]]:
    offsets = _get_lane(reader, f"{key}/offsets", count + 1)
    values = reader.get(f"{key}/values").tolist()
    if offsets != sorted(offsets) or offsets[0] != 0 or offsets[-1] != len(values):
        raise ReplyDecodeError(
            f"{key} offsets do not partition its {len(values)} values"
        )
    return [values[offsets[i] : offsets[i + 1]] for i in range(count)]
