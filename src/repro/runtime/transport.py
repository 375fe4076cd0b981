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
outcomes: a traversal ships as the ``(table_id, slot)`` **entry refs**
of the entries it matched, each read off its path-reference node, and
nothing those entries already determine (flags, metadata, tables
visited, output ports, applied actions, rewrites) crosses the pipe;
per position, one ``int32`` code naming its traversal.
:func:`decode_outcomes` is the parent's half: it links the pinned
entries into path references and folds their credit lanes, as the
worker's walk did — replaying nothing — and fails closed
(:class:`ReplyDecodeError`) on a block that does not fit its batch.

**Entry refs and the stats return path.**  A ref's slot is the matched
entry's action-table address (:mod:`repro.core.action_table`), the
integer the paper's index stage returns.  A worker replica built from
the parent's spec holds each entry at the parent's slot, and an action
table allocates the lowest free slot, so at the same mutation-log
position replica and parent hold every entry at the same slot: a ref is
a process-independent name for a flow entry.  The parent resolves it
against the action tables it pinned at submission
(:class:`~repro.core.action_table.ActionSnapshot`) and so rebuilds
outcomes whose ``matched_entries`` are its *own* authoritative
:class:`~repro.openflow.flow.FlowEntry` objects, gathers their counter
rows off the pinned ``rows`` copy and credits them itself — packets and
frame bytes counted from the code lane and the batch's own
``frame_len`` lane — so flow stats (the substrate for monitoring) are
exact under sharding, and no per-traversal sum crosses the pipe for the
parent to trust.

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

from repro.core.action_table import ActionSnapshot
from repro.openflow.flow import SINK
from repro.openflow.pipeline import (
    OpenFlowPipeline,
    PathRef,
    counted_kind,
    fold_step,
    path_steps,
)
from repro.packet.batch import FieldLanes, PacketBatch
from repro.packet.headers import transport_schema

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
    """Attached (peer-owned) segments, at most one per slot.

    A slot is whatever the owner re-creates a block in — a ring slot
    of the sharded parent, or the segment's own name when ``buf`` is
    given none.  Attaching a new name in a slot closes the segment it
    replaces: the owner unlinked that one when it re-created the block,
    so keeping it mapped would only pin memory nobody can name again.
    """

    def __init__(self) -> None:
        self._attached: dict[object, shared_memory.SharedMemory] = {}

    def buf(self, name: str, slot: object = None) -> memoryview:
        key = name if slot is None else slot
        shm = self._attached.get(key)
        if shm is None or shm.name != name:
            if shm is not None:
                _close_attachment(shm)
            shm = self._attached[key] = shared_memory.SharedMemory(name=name)
        return shm.buf

    def close(self) -> None:
        for shm in self._attached.values():
            _close_attachment(shm)
        self._attached.clear()


def _close_attachment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass


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
    (:func:`_check_counters`), a matched ref past the slots the parent
    pinned for the batch or on a free one, or refs that do not chain
    into one path through the pipeline."""


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
    """One reply, decoded: the sub-batch's distinct entry paths (as
    references to the parent's own entries), their credit lanes (the
    counter rows each matched, then its kind), the path each position
    took, and the :data:`REPLY_COUNTERS` its request caused."""

    paths: list[PathRef]
    credits: np.ndarray
    codes: np.ndarray
    counters: list[int]


def reply_nbytes(members: int, tables: int) -> int:
    """An upper bound on the block :func:`encode_outcomes` writes for a
    sub-batch of ``members`` positions through ``tables`` tables — what
    the parent sizes a reply region to before naming it.

    It holds because a sub-batch has at most one distinct traversal per
    position, a traversal matched at most one entry per table (Goto is
    forward-only), so at most one ``int32`` ``(table_id, slot)``
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
    counters: Sequence[int],
) -> None:
    """Encode a :class:`~repro.runtime.batch.ColumnarOutcomes` columnar —
    the decode-free worker's reply path.

    A traversal is named by the entries it matched and nothing else:
    each *distinct* one of the sub-batch ships once, as the
    ``(table_id, slot)`` refs its path reference's nodes carry — each
    entry's action-table address — and every position then costs one
    ``int32`` code.  ``counters``, the :data:`REPLY_COUNTERS` this
    request caused, ride in the same block as one more lane, so no
    position ever touches a dict and nothing is pickled.  No
    per-traversal sum is written: the parent counts packets and frame
    bytes from the codes itself.  Every lane is written in its
    ``_REPLY_LANES`` dtype.
    """
    paths, codes = outcomes.distinct()
    writer.put("res/codes", codes)
    refs = [
        [part for table_id, slot, _ in path_steps(path) for part in (table_id, slot)]
        for path in paths
    ]
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
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
    pinned: Mapping[int, ActionSnapshot],
    expected: int,
) -> DecodedReply:
    """Rebuild one reply's entry paths: resolve each one's
    ``(table_id, slot)`` refs against ``pinned`` — each table's action
    table as the parent froze it when it submitted the batch — into a
    reference to the parent's own entries, checking that the refs
    chain (the first in the pipeline's first table, each next in the
    table its predecessor's Goto-Table names), gather each matched
    entry's counter row off the pinned ``rows`` copy, and fold the
    path's counted facts from the entries' compiled steps
    (:func:`~repro.openflow.pipeline.counted_kind`, the walk's own
    fold).  Nothing is replayed: a path's outcome is built only if
    somebody reads it.

    ``expected`` is the member count the parent sent; the path count is
    what the ``res/matched/offsets`` lane partitions.  Fails closed: a
    reply whose segment table does not describe its lanes
    (:func:`_reply_lane`), or that does not fit ``expected``, its own
    lanes, the pinned slots (a ref past them or on a free one) or the
    pipeline's table order raises :class:`ReplyDecodeError` here
    rather than mis-resolving an outcome (or an ``IndexError``) at
    first read.  Only the codes and the counters (both range-checked)
    and the refs (resolved and chained) are read; any other lane a
    reply carries is ignored.  Everything returned is copied out of the
    block, so the ring slot is free for reuse as soon as this returns.
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
    first, policy = pipeline.tables[0].table_id, pipeline.miss_policy
    paths: list[PathRef] = []
    credits = np.full((count, len(pipeline.tables) + 1), SINK, dtype=np.int64)
    for row, refs in zip(credits, matched):
        if len(refs) % 2:
            raise ReplyDecodeError(
                f"matched refs {refs} are not (table_id, slot) pairs"
            )
        path: PathRef = ()
        reached: int | None = first
        state = 0
        for depth, (table_id, slot) in enumerate(zip(refs[0::2], refs[1::2])):
            pin = pinned.get(table_id)
            entry = (
                pin.entries[slot]
                if pin is not None and 0 <= slot < len(pin.entries)
                else None
            )
            if pin is None or entry is None:
                raise ReplyDecodeError(
                    f"matched ref ({table_id}, {slot}) names no entry of "
                    f"the pinned snapshot"
                )
            if reached is None:
                raise ReplyDecodeError(
                    f"matched refs {refs} run on past the end of their path"
                )
            if table_id != reached:
                raise ReplyDecodeError(
                    f"matched refs {refs} do not chain: ref {depth} sits in "
                    f"table {table_id}, the path has reached table {reached}"
                )
            path = (path, table_id, slot, entry)
            step = entry.instructions.compiled
            reached, state = step.goto, fold_step(state, step.counted)
            row[depth] = pin.rows[slot]
        row[-1] = counted_kind(len(refs) // 2, state, reached is not None, policy)
        paths.append(path)
    counters = _reply_lane(reader, "res/stats", len(REPLY_COUNTERS)).tolist()
    _check_counters(counters, expected, len(pipeline.tables))
    return DecodedReply(paths, credits, codes.astype(np.int64), counters)


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
