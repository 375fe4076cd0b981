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
(:func:`encode_outcomes`) columnar into the reply region their request
names inside the batch's own block, **once per distinct traversal** of the
sub-batch, not once per packet — and a reply names *entries*, not
outcomes: a traversal ships as the ``(table_id, position)`` **entry
refs** of the entries it matched, resolved against each side's own
tables, and nothing those entries already determine (flags, metadata,
tables visited, output ports, applied actions, rewrites) crosses the
pipe; per position, one ``int32`` code naming its traversal.
:func:`decode_outcomes` is the parent's half: it replays the pinned
entries through the pipeline's own executor
(:meth:`~repro.openflow.pipeline.OpenFlowPipeline.replay_path`, which
the worker's walk built the same outcome with) and fails closed
(:class:`ReplyDecodeError`) on a block that does not fit its batch.

**Entry refs and the stats return path.**  A ref's position indexes
the table's deterministic ``entries_snapshot()`` order, through the
one ``id(entry) -> position`` map the table keeps beside it
(:meth:`~repro.core.lookup_table.OpenFlowLookupTable.entry_positions`).
A worker replica at the same mutation-log position as the parent agrees
on that order (snapshots pickle entries with their sort keys and replay
mutations in program order), so a ref is a process-independent name for
a flow entry.  The parent therefore rebuilds outcomes whose
``matched_entries`` are its *own* authoritative
:class:`~repro.openflow.flow.FlowEntry` objects and credits them itself
— packets and frame bytes counted from the code lane and the batch's
own ``frame_len`` lane — so flow stats (the substrate for monitoring)
are exact under sharding, and no per-traversal sum crosses the pipe
for the parent to trust.

**One home per batch in flight.**  A reply lives in its reply region
and nowhere else: :func:`reply_nbytes` bounds the lanes
:func:`encode_outcomes` writes for a sub-batch, and the parent lays one
region of that size per worker after the batch's request lanes, in the
same block, before naming it in a request — so a batch in flight is one
segment, and only small control frames cross the pipes in either
direction.

**Blocks.**  :class:`SharedBlock` wraps one growable
``multiprocessing.shared_memory`` segment owned by its creating process
(grown by re-creating under a fresh name; peers attach lazily via
:class:`BlockAttachments`).  The sharded parent creates every block —
the block ring and the sealed rules — and workers only attach, so
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
    Iterable,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.openflow.errors import PipelineError
from repro.openflow.flow import FlowEntry
from repro.openflow.pipeline import OpenFlowPipeline
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
        self._nbytes = aligned(self._nbytes) + array.nbytes

    @property
    def nbytes(self) -> int:
        return max(self._nbytes, 1)

    def write_to(self, buf: memoryview) -> tuple[Segment, ...]:
        segments: list[Segment] = []
        offset = 0
        for key, array in self._arrays:
            offset = aligned(offset)
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
    """Zero-copy views over a written block — or over one region of it,
    when ``region`` names its ``(offset, nbytes)``: segment offsets then
    count from the region's start, and :attr:`nbytes` is the region's
    size.  A reader holds the block's own buffer, never a slice of it,
    so a reader kept alive does not keep the segment mapped."""

    def __init__(
        self,
        buf: memoryview,
        segments: Iterable[Segment],
        region: tuple[int, int] | None = None,
    ) -> None:
        self.buf = buf
        self.base, self.nbytes = region if region is not None else (0, buf.nbytes)
        self.segments = {segment.key: segment for segment in segments}

    def get(self, key: str) -> np.ndarray:
        segment = self.segments[key]
        return np.frombuffer(
            self.buf,
            dtype=np.dtype(segment.dtype),
            count=segment.count,
            offset=self.base + segment.offset,
        )


def aligned(offset: int) -> int:
    """``offset`` rounded up to the next lane boundary."""
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
# result blocks
# ----------------------------------------------------------------------


class ReplyDecodeError(ValueError):
    """A reply block does not describe the sub-batch it answers: a lane
    its segment table leaves out, mistypes or places outside its region,
    a code lane of the wrong length, a code naming no traversal, ref
    offsets that do not partition the refs, a counter lane of the wrong
    length or with a count the sub-batch could not have caused
    (:func:`_check_counters`), a matched ref outside what the parent
    pinned for the batch, or refs that do not chain into one path
    through the pipeline."""


#: The counters a reply carries, in ``res/stats`` lane order — the
#: :class:`~repro.runtime.batch.BatchStats` fields only a worker can
#: count, as the counts its own request caused (never the replica's
#: totals), so the parent adds each collected reply in exactly once.
#: The parent counts traffic itself, from the code lane.
REPLY_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "megaflow_hits",
    "megaflow_misses",
    "waves",
)

#: Every lane of a reply block, in write order, with the dtype
#: :func:`encode_outcomes` writes it in: the one thing a decoder
#: believes about a worker's segment table.
_REPLY_LANES = {
    "res/codes": "<i4",
    "res/matched/offsets": "<i8",
    "res/matched/values": "<i4",
    "res/stats": "<i8",
}


class DecodedReply(NamedTuple):
    """One reply, decoded: the sub-batch's distinct traversals (matched
    entries the parent's own, everything else replayed from them), the
    traversal each position took, and the :data:`REPLY_COUNTERS` its
    request caused."""

    traversals: list[Traversal]
    codes: np.ndarray
    counters: list[int]


def reply_nbytes(members: int, tables: int) -> int:
    """An upper bound on the block :func:`encode_outcomes` writes for a
    sub-batch of ``members`` positions through ``tables`` tables — what
    the parent sizes a reply region to before naming it.

    It holds because a sub-batch has at most one distinct traversal per
    position, a traversal matched at most one entry per table (Goto is
    forward-only), so at most one ``int32`` ``(table_id, position)``
    pair per table, and each lane adds at most one alignment pad.
    """
    # Per position its code and, at worst, a traversal of its own: an
    # offset and a ref pair per table.  Then the closing offset, the
    # counters and one pad per lane.
    per_position = 4 + 8 + 8 * tables
    fixed = 8 + 8 * len(REPLY_COUNTERS) + _ALIGN * len(_REPLY_LANES)
    return per_position * members + fixed


def encode_outcomes(
    writer: BlockWriter,
    outcomes: ColumnarOutcomes,
    pipeline: OpenFlowPipeline,
    counters: Sequence[int],
) -> None:
    """Encode a :class:`~repro.runtime.batch.ColumnarOutcomes` columnar —
    the decode-free worker's reply path.

    A traversal is named by the entries it matched and nothing else:
    each *distinct* one of the sub-batch ships once, as its
    ``(table_id, position)`` refs — positions read off each table's
    :meth:`~repro.core.lookup_table.OpenFlowLookupTable.entry_positions`
    — and every position then costs one ``int32`` code.  ``counters``,
    the :data:`REPLY_COUNTERS` this request caused, ride in the same
    block as one more lane, so no position ever touches a dict and
    nothing is pickled.  No per-traversal sum is written: the parent
    counts packets and frame bytes from the codes itself.  Every lane
    is written in its ``_REPLY_LANES`` dtype.
    """
    traversals, codes = outcomes.distinct()
    count = len(traversals)
    positions = {t.table_id: t.entry_positions() for t in pipeline.tables}
    writer.put("res/codes", codes)
    refs = [
        [
            part
            for table_id, entry in zip(
                traversal.outcome.tables_visited,
                traversal.outcome.matched_entries,
            )
            for part in (table_id, positions[table_id][id(entry)])
        ]
        for traversal in traversals
    ]
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum([len(row) for row in refs], out=offsets[1:])
    writer.put("res/matched/offsets", offsets)
    writer.put(
        "res/matched/values",
        np.fromiter(
            (part for row in refs for part in row),
            dtype=np.int32,
            count=int(offsets[-1]),
        ),
    )
    writer.put("res/stats", np.asarray(counters, dtype=np.int64))


def decode_outcomes(
    reader: BlockReader,
    pipeline: OpenFlowPipeline,
    pinned: Mapping[int, tuple[FlowEntry, ...]],
    expected: int,
) -> DecodedReply:
    """Rebuild one reply's traversals: resolve each one's refs against
    ``pinned`` — the entry order the parent froze when it submitted the
    batch — and replay the parent's own entries through ``pipeline``
    (:meth:`~repro.openflow.pipeline.OpenFlowPipeline.replay_path`, the
    function the worker's walk built the same outcome with).

    ``expected`` is the member count the parent sent; the traversal
    count is what the ``res/matched/offsets`` lane partitions.  Fails
    closed: a reply whose segment table does not describe its lanes
    (:func:`_reply_lane`), or that does not fit ``expected``, its own
    lanes, the pinned snapshot or the pipeline's table order raises
    :class:`ReplyDecodeError` here rather than mis-resolving an outcome
    (or an ``IndexError``) at first read.  Only the codes and the
    counters (both range-checked) and the refs (resolved and chained)
    are read; any other lane a reply carries is ignored.  Everything returned is copied out
    of the block, so the ring slot is free for reuse as soon as
    this returns.
    """
    matched = _get_ragged(reader, "res/matched")
    count = len(matched)
    codes = _reply_lane(reader, "res/codes")
    if len(codes) != expected:
        raise ReplyDecodeError(
            f"code lane holds {len(codes)} positions for a sub-batch "
            f"of {expected}"
        )
    _require_range(codes, count, "codes")
    traversals: list[Traversal] = []
    for refs in matched:
        if len(refs) % 2:
            raise ReplyDecodeError(
                f"matched refs {refs} are not (table_id, position) pairs"
            )
        tables = tuple(refs[0::2])
        try:
            outcome = pipeline.replay_path(
                [
                    _pinned_entry(pinned, table_id, position)
                    for table_id, position in zip(tables, refs[1::2])
                ]
            )
        except PipelineError as error:
            raise ReplyDecodeError(
                f"matched refs {refs} run on past the end of their path"
            ) from error
        if outcome.tables_visited[: len(tables)] != tables:
            raise ReplyDecodeError(
                f"matched refs {refs} do not chain: the path visits "
                f"tables {outcome.tables_visited}"
            )
        traversals.append(Traversal(outcome, ()))
    counters = _reply_lane(reader, "res/stats", len(REPLY_COUNTERS)).tolist()
    _check_counters(counters, expected, len(pipeline.tables))
    return DecodedReply(traversals, codes.astype(np.int64), counters)


def _check_counters(counters: list[int], members: int, tables: int) -> None:
    """Refuse :data:`REPLY_COUNTERS` that ``members`` positions through
    ``tables`` forward-only tables could not have caused: every count is
    non-negative, the megaflow tier probed every position once or was
    off, the microflow caches saw each position at most once per table,
    and the walk ran at most one wave per table."""
    count = dict(zip(REPLY_COUNTERS, counters))
    if (
        min(counters) < 0
        or count["megaflow_hits"] + count["megaflow_misses"] not in (0, members)
        or count["cache_hits"] + count["cache_misses"] > members * tables
        or count["waves"] > tables
    ):
        raise ReplyDecodeError(
            f"reply counters {count} cannot come from {members} positions "
            f"through {tables} tables"
        )


def _reply_lane(
    reader: BlockReader, key: str, count: int | None = None
) -> np.ndarray:
    """Reply lane ``key`` as a view, once its worker-supplied segment
    checks out: present, in its ``_REPLY_LANES`` dtype, wholly inside
    the reader's block or region, and ``count`` values long when
    ``count`` is given.  The one validation of a segment table; anything
    else raises :class:`ReplyDecodeError`."""
    segment, dtype = reader.segments.get(key), _REPLY_LANES[key]
    if segment is None or segment.dtype != dtype:
        raise ReplyDecodeError(f"the reply has no {dtype} {key} lane")
    offset, length, size = segment.offset, segment.count, reader.nbytes
    if not isinstance(offset, int) or not isinstance(length, int) or not (
        0 <= offset <= offset + length * np.dtype(dtype).itemsize <= size
    ):
        raise ReplyDecodeError(f"{key} lies outside its {size}-byte region")
    if count is not None and length != count:
        raise ReplyDecodeError(
            f"{key} holds {length} values, the reply needs {count}"
        )
    return reader.get(key)


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


def _get_ragged(reader: BlockReader, key: str) -> list[list[int]]:
    """Ragged lane ``key``, one row per pair of adjacent offsets: the
    offsets must run from 0 up to the value count, so an empty offsets
    lane (not even the closing offset) is refused."""
    offsets = _reply_lane(reader, f"{key}/offsets").tolist()
    values = _reply_lane(reader, f"{key}/values").tolist()
    if (
        not offsets
        or offsets != sorted(offsets)
        or offsets[0] != 0
        or offsets[-1] != len(values)
    ):
        raise ReplyDecodeError(
            f"{key} offsets do not partition its {len(values)} values"
        )
    return [values[start:stop] for start, stop in zip(offsets, offsets[1:])]
