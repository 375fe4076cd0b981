"""Sharded multi-process batch runtime.

The per-table wave structure of :class:`~repro.runtime.batch.BatchPipeline`
is embarrassingly parallel across packets, but the CPython interpreter is
not — so :class:`ShardedBatchPipeline` splits each batch across
``multiprocessing`` workers, each owning a full pipeline **replica**
(rebuilt from a picklable :class:`PipelineSpec` snapshot) with its own
microflow/megaflow cache stack.

**Sharding** hashes each packet onto a worker by its flow key: the
sorted union of the tables' match fields, fixed at construction.  The
decomposition reads nothing else, so every packet of one flow — and of
one megaflow aggregate — lands on the same worker for the runner's whole
life, and a packet-length field (never a match field) cannot scatter a
flow.  Sharding choices never affect results (any worker classifies any
packet identically); they only steer cache locality.

**Consistency** uses a mutation log: the parent applies every flow-mod
to its authoritative pipeline *and* appends it to an ordered log
(mutations must go through :attr:`ShardedBatchPipeline.pipeline`, a
logging facade with the ``table(id).add/remove`` surface that
:func:`~repro.runtime.batch.run_workload` drives).  Each worker tracks a
log cursor; the parent snapshots the log length **once per batch** and
ships each worker the suffix up to that snapshot, so every worker
classifies the batch at the *same* log position — a mutation landing
mid-batch (e.g. from a controller thread) defers uniformly to the next
batch instead of splitting one batch across two table states — and
replicas stay sequentially consistent with the single-process runner,
results bitwise-identical.

**Transport** is shared memory, and there is one path: the parent
encodes each batch once into a columnar
:class:`~repro.runtime.transport.PacketBlockCodec` block (a dict
sequence is columnarised first; a
:class:`~repro.packet.batch.PacketBatch` is written as-is), workers
read their member rows in place and write their reply into the reply
region of the same block that the request names, and only tiny control
messages (mutation suffixes, block names, layouts, regions) cross the
pipes.  **The parent owns every segment** — the ring of ``depth``
blocks and the sealed rules — and a worker only ever attaches, so a
SIGKILLed worker strands nothing by construction.  A batch in flight
has one block: its request lanes, then one aligned reply region per
worker in the batch, each sized for the largest reply that worker's
sub-batch could produce (:func:`~repro.runtime.transport.reply_nbytes`)
before the request names it as ``(offset, nbytes)``, so only small
control frames cross the pipes in either direction.  A worker refuses
a region that is not its own — outside the block, over the request
lanes or too small — by dying before it writes, which the parent
classifies as a crash.  A reply **names each traversal's entries once**:
each *distinct* traversal of the sub-batch ships as the
``(table_id, slot)`` refs of the entries it matched — each entry's
action-table address, the one name an entry has in every process,
because a replica built from the spec holds each entry at the parent's
slot and allocates as the parent did — nothing those entries already
determine; every position costs one ``int32`` code, and the five cache
counts the request caused ride in the same block, so a reply frame
pickles no class instance.
The parent resolves the refs against the action tables it pinned at
submission into path references over its own entries, gathers their
counter rows off the pinned ``rows`` copies and folds their credit
lanes (no path is replayed until somebody reads it), credits its
counters and its authoritative
:class:`~repro.openflow.flow.FlowEntry` stats once per batch, counting
each path's packets and frame bytes itself from the codes and the
batch's own ``frame_len`` lane — a replica credits nothing and the
parent trusts no worker sum, so flow stats match the single-process
run exactly — and hands back the same lazily materialised
:class:`~repro.runtime.batch.ColumnarOutcomes` the in-process runner
returns: :meth:`ShardedBatchPipeline.process_batches` yields it as is
(a stream nobody reads builds no per-packet object),
:meth:`~ShardedBatchPipeline.process_batch` /
:meth:`~ShardedBatchPipeline.collect_batch` return it as a plain list.

**Pipelining** removes the lockstep round-trip: the runner keeps a
ring of ``depth`` shared blocks (batch ``seq`` in slot ``seq % depth``,
its replies included), so the parent encodes and dispatches batch N+1
while the workers are still classifying batch N.
:meth:`ShardedBatchPipeline.process_batches` (or the explicit
:meth:`submit_batch` / :meth:`collect_batch` pair) drives the overlap;
every submitted batch snapshots the mutation-log length and pins the
action tables *at submission*, so pipelined batches see exactly the
serial sequence of table states a lockstep runner would have produced.
A slot is reused only after its batch's replies are decoded (decoding
copies everything out, so a collected outcome never aliases a slot),
which bounds the runner at ``depth`` blocks and keeps in-flight columns
immutable.

**Collection is FIFO.**  Batches complete in submission order:
:meth:`collect_batch` always completes the oldest in-flight batch, so
the in-flight seqs are one contiguous run shorter than ``depth`` and
ring slot ``seq % depth`` is free whenever a submit is allowed.  Each
batch in flight has one record (``_InFlight``), and every fact about
it is read there: its request, its pinned entries and log position,
and the replies that have arrived, parked on the record by worker.  A
worker owes the reply of every record whose groups name it and whose
replies lack it, in seq order — the order its pipe delivers them —
so one wait (``ShardedBatchPipeline._await``) listens for the replies
the oldest batch still lacks and parks whatever arrives on its own
record: a wedged worker's salvaged frames can belong to later batches.
:meth:`close` forgets the records it never collected: nothing a batch
holds is counted before it is collected.

**Workers are decode-free** for every submission: the worker attaches
to the request block's columns in place and classifies through
:meth:`~repro.runtime.batch.BatchPipeline.classify` (which credits
nothing), encoding
its reply straight from the distinct paths' matched entries
(:func:`~repro.runtime.transport.encode_outcomes`) — cache misses walk
the tables as index arrays, so no row is materialised as a dict
worker-side.  Dict
and :class:`~repro.packet.batch.PacketBatch` submissions differ only
in that a dict batch is columnarised once at submit; either way workers
are assigned by hashing the shard fields' lanes in one vectorized pass,
so a flow lands on the same worker whatever shape its packets came in.

**Fault tolerance.**  Workers are supervised
(:mod:`repro.runtime.supervise`): the one collect-side wait is
process-sentinel-aware and deadline-bounded, so a dead worker raises a
*crash* immediately and a silent one becomes a *wedge* when the
configured deadline lapses (the parent kills it) — never an indefinite
block.  The deadline has one definition: time since the workers owing
the awaited replies last delivered one; the suspect is the worker
owing the oldest.  Reply frames fail closed — anything but the reply a
worker owes next is that worker's crash, never parked.  Recovery leans
on the snapshot-at-submission protocol: lost in-flight batches are
*replayed* on a respawned replica (the pinned log prefix plus the
immutable parent-owned request block make the replay
bitwise-identical, a re-send rather than a re-encode), a batch that
kills its worker twice is *poison* and classified in-process, and once
a worker's restart budget runs out its traffic always degrades to
in-process classification — the one degraded mode.  In-process means
the parent's own replica serving the shard through the worker's serve
path (``_Replica.serve``): it reads the members from the batch's block
and writes the reply into the worker's reply region, so a live, a
replayed and an inline shard merge into the same outcomes, results and
flow stats identical.  No fault fires there — it would kill the
parent.  Each worker watches its parent's pid so an orphaned fleet
exits instead of idling forever.  :mod:`repro.runtime.faults` injects deterministic
crashes/hangs into all of this for chaos tests.

Workers are spawned lazily on the first batch (``fork`` start method
when available) and torn down via :meth:`close` / context-manager exit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.action_table import ActionSnapshot
from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.config import ArchitectureConfig, DEFAULT_CONFIG
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match
from repro.openflow.pipeline import (
    MissPolicy,
    OpenFlowPipeline,
    PathRef,
    PipelineResult,
)
from repro.packet.batch import PacketBatch
from repro.runtime.batch import (
    BatchPipeline,
    BatchStats,
    ColumnarOutcomes,
    credit_outcomes,
)
from repro.runtime.cache import DEFAULT_CAPACITY, require_keyed_table
from repro.runtime.faults import FaultPlan
from repro.runtime.lifecycle import (
    FlowRemoved,
    LifecycleSweeper,
    VirtualClock,
)
from repro.runtime.protocol import (
    AddMutation,
    ByeReply,
    CloseRequest,
    Mutation,
    RemoveMutation,
    ShmReply,
    ShmRequest,
)
from repro.runtime.rulestate import (
    SharedRuleLayout,
    SharedRuleState,
    attach_shared_tables,
)
from repro.runtime.supervise import (
    FailureKind,
    SupervisionConfig,
    WorkerSupervisor,
)
from repro.runtime.transport import (
    BlockAttachments,
    BlockReader,
    BlockWriter,
    DecodedReply,
    PacketBlockCodec,
    REPLY_COUNTERS,
    SharedBlock,
    aligned,
    decode_outcomes,
    encode_outcomes,
    ensure_resource_tracker,
    reply_nbytes,
)

# ----------------------------------------------------------------------
# picklable pipeline snapshots
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableSpec:
    """Picklable snapshot of one keyed lookup table — its schema and
    its action table's slot tuple (``None`` on a free slot) — rebuilt
    as an :class:`~repro.core.lookup_table.OpenFlowLookupTable`, the
    only table kind the runtime runs, with every entry back at its own
    slot, so a replica replaying the mutation log allocates exactly the
    slots the parent did."""

    table_id: int
    field_names: tuple[str, ...]
    entries: tuple[FlowEntry | None, ...]

    @classmethod
    def snapshot(cls, table: Any) -> TableSpec:
        return cls(
            table_id=table.table_id,
            field_names=tuple(table.field_names),
            entries=table.actions.snapshot().entries,
        )

    def build(self, config: ArchitectureConfig) -> OpenFlowLookupTable:
        table = OpenFlowLookupTable(
            self.field_names, table_id=self.table_id, config=config
        )
        table.load(self.entries)
        return table


@dataclass(frozen=True)
class PipelineSpec:
    """Picklable snapshot of a whole pipeline, for worker replicas.

    With ``shared`` set (a :class:`~repro.runtime.rulestate.SharedRuleLayout`
    minted by ``SharedRuleState.seal``), :meth:`build` *attaches* frozen
    replicas — the lookup structures live in the sealed shared-memory
    block and index the entry tuples kept here — instead of replaying
    O(rules) adds per worker.
    """

    tables: tuple[TableSpec, ...]
    config: ArchitectureConfig
    miss_policy: str
    architecture: bool
    shared: SharedRuleLayout | None = None

    @classmethod
    def snapshot(cls, pipeline: OpenFlowPipeline) -> PipelineSpec:
        return cls(
            tables=tuple(TableSpec.snapshot(t) for t in pipeline.tables),
            config=getattr(pipeline, "config", DEFAULT_CONFIG),
            miss_policy=pipeline.miss_policy.value,
            architecture=isinstance(pipeline, MultiTableLookupArchitecture),
        )

    def build(self) -> OpenFlowPipeline:
        if self.shared is not None:
            tables = attach_shared_tables(self)
        else:
            tables = [spec.build(self.config) for spec in self.tables]
        if self.architecture:
            return MultiTableLookupArchitecture(tables, config=self.config)
        return OpenFlowPipeline(
            tables=tables, miss_policy=MissPolicy(self.miss_policy)
        )


# ----------------------------------------------------------------------
# mutation-logging facade
# ----------------------------------------------------------------------


class _LoggedTable:
    """Forwards mutations to the authoritative table and logs them.

    Each mutation holds the runner's lock across the table apply *and*
    the log append, and the batch prologue takes the same lock around
    its log-length + action-table pin — so a flow-mod from another
    thread is either entirely before a batch (in its log prefix and its
    pinned slots) or entirely after it, never half-visible.  Each logged
    mutation also records the table's ``version`` in ``versions``, which
    is how the runner tells a flow-mod made behind the facade.
    """

    def __init__(
        self,
        table: Any,
        log: list[Mutation],
        lock: threading.Lock,
        versions: dict[int, int],
    ) -> None:
        self._table = table
        self._log = log
        self._lock = lock
        self._versions = versions

    def add(self, entry: FlowEntry) -> None:
        with self._lock:
            self._table.add(entry)
            self._logged(AddMutation("add", self._table.table_id, entry))

    def remove(self, match: Match, priority: int) -> bool:
        with self._lock:
            return self._remove(match, priority)

    def remove_where(self, predicate: Callable[[FlowEntry], bool]) -> int:
        # Predicates don't pickle; expand to the concrete removals so the
        # log stays replayable on the workers — under one acquisition,
        # so the scan races no other flow-mod and a batch sees all of
        # the removals or none.
        with self._lock:
            doomed = [e for e in self._table if predicate(e)]
            for entry in doomed:
                self._remove(entry.match, entry.priority)
            return len(doomed)

    def _remove(self, match: Match, priority: int) -> bool:
        """Apply and log one removal; the caller holds the lock."""
        removed = self._table.remove(match, priority)
        if removed:
            self._logged(
                RemoveMutation("remove", self._table.table_id, match, priority)
            )
        return removed

    def _logged(self, mutation: Mutation) -> None:
        """Log one applied mutation; the caller holds the lock."""
        self._log.append(mutation)
        self._versions[mutation.table_id] = self._table.version

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self._table)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._table, name)


class _LoggedPipeline:
    """``pipeline``-shaped facade whose mutations reach the log."""

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        log: list[Mutation],
        lock: threading.Lock,
        versions: dict[int, int],
    ) -> None:
        self._pipeline = pipeline
        self._log = log
        self._lock = lock
        self._versions = versions

    def table(self, table_id: int) -> _LoggedTable:
        return _LoggedTable(
            self._pipeline.table(table_id), self._log, self._lock, self._versions
        )

    @property
    def tables(self) -> list[_LoggedTable]:
        return [self.table(t.table_id) for t in self._pipeline.tables]

    def install(self, table_id: int, entry: FlowEntry) -> None:
        with self._lock:
            self._pipeline.install(table_id, entry)
            self.table(table_id)._logged(AddMutation("add", table_id, entry))

    def __len__(self) -> int:
        return len(self._pipeline)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pipeline, name)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _apply_mutations(
    pipeline: OpenFlowPipeline, mutations: Sequence[Mutation]
) -> None:
    for mutation in mutations:
        if isinstance(mutation, AddMutation):
            pipeline.table(mutation.table_id).add(mutation.entry)
        elif isinstance(mutation, RemoveMutation):
            pipeline.table(mutation.table_id).remove(
                mutation.match, mutation.priority
            )
        else:  # pragma: no cover - parent only emits the two kinds
            raise ValueError(f"unknown mutation kind {mutation[0]!r}")


def _reply_region(
    request: ShmRequest, buf: memoryview, tables: int
) -> memoryview:
    """The reply region ``request`` names in ``buf``, once it is this
    request's own: inside the block, at or after the end of the last
    request lane, and at least
    :func:`~repro.runtime.transport.reply_nbytes` for its member count.
    Anything else raises before a byte is written, so the worker dies
    and the parent classifies a crash."""
    offset, nbytes = request.reply_region
    lanes = {segment.key: segment for segment in request.segments}
    lanes_end = max(
        lane.offset + lane.count * np.dtype(lane.dtype).itemsize
        for lane in lanes.values()
    )
    need = reply_nbytes(lanes[request.members_key].count, tables)
    if offset < lanes_end or offset + nbytes > buf.nbytes or nbytes < need:
        raise ValueError(
            f"reply region {request.reply_region} is not batch "
            f"{request.seq}'s: its lanes end at {lanes_end}, its block "
            f"holds {buf.nbytes} bytes and its members need {need}"
        )
    return buf[offset : offset + nbytes]


class _Replica:
    """One pipeline replica at a mutation-log position: a runner built
    from a :class:`PipelineSpec` (each entry at the parent's action
    slot, the name its replies give it), a packet codec, and ``cursor``
    — how many log entries it has applied on top of the spec.

    A worker serves every request through one, and the parent serves a
    shard it classifies in-process (a degraded worker, a poison batch)
    through another: one serve path, so a live, a replayed and an
    inline shard write the same reply into the same reply region.
    No replica path writes to a ``FlowEntry`` — it classifies through
    :meth:`~repro.runtime.batch.BatchPipeline.classify`, which credits
    nothing, and no lifecycle sweeper runs on it — so the parent's
    replica may hold the parent's own entries.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        cache_capacity: int | None,
        megaflow_capacity: int | None,
    ) -> None:
        runner = BatchPipeline(spec.build(), cache_capacity, megaflow_capacity)
        self.runner = runner
        self.codec = PacketBlockCodec()
        self.cursor = 0

    def serve(
        self,
        request: ShmRequest,
        buf: memoryview,
        faults: FaultPlan,
        worker_id: int,
    ) -> ShmReply:
        """Check the reply region the request names (:func:`_reply_region`),
        apply the request's log suffix, classify its members straight
        off the block's request lanes, and write the reply into that
        region, which the parent sized for it.

        Every view over the block is confined to this frame
        (``codec.attach`` gathers copies): they must be garbage before
        ``close()`` can unmap the segment."""
        runner, seq = self.runner, request.seq
        reply_buf = _reply_region(request, buf, len(runner.pipeline.tables))
        faults.fire(worker_id, seq, "after-receive")
        _apply_mutations(runner.pipeline, request.mutations)
        self.cursor += len(request.mutations)
        faults.fire(worker_id, seq, "mid-classify")
        reader = BlockReader(buf, request.segments)
        batch = self.codec.attach(
            reader, request.layout, reader.get(request.members_key)
        )
        # Decode-free: hits and misses alike are encoded as their
        # matched-entry refs, once per distinct traversal.  The replica
        # credits nothing — the parent owns the entries and credits them
        # from the reply's codes — and the reply carries the counts this
        # request caused, read off the replica's record around its
        # classify, not the replica's totals, so the parent can add each
        # reply in exactly once, under the same names.
        stats = runner.stats
        before = [getattr(stats, name) for name in REPLY_COUNTERS]
        outcomes = runner.classify(batch, bypass=request.bypass)
        writer = BlockWriter()
        encode_outcomes(
            writer,
            outcomes,
            [getattr(stats, name) - n for name, n in zip(REPLY_COUNTERS, before)],
        )
        faults.fire(worker_id, seq, "after-stats")
        reply = ShmReply("ok", seq, writer.write_to(reply_buf))
        faults.fire(worker_id, seq, "before-reply")
        return reply


#: How often an idle worker checks that its parent is still alive.
#: With the ``fork`` start method, sibling workers inherit each other's
#: pipe write-ends, so a SIGKILLed parent produces *no* EOF — the pid
#: watch is the only orphan signal that always fires.
_PARENT_POLL_INTERVAL = 0.2


def _worker_main(
    conn: mp_connection.Connection,
    spec: PipelineSpec,
    cache_capacity: int | None,
    megaflow_capacity: int | None,
    worker_id: int = 0,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Worker loop: apply log suffix, classify sub-batch, reply.

    A ``("shm", seq, ...)`` request is the only work item, and every
    request gets exactly one ``"ok"`` reply: entry refs, codes and the
    counts the request caused, written into the reply region the
    request names inside its own block (sized for it by the parent).  A
    region that is not the request's own — outside the block, over the
    request lanes, too small for the members — raises before anything
    is written, and so does an unknown tag: the worker dies, its
    sentinel fires and supervision classifies a crash — the parent
    never waits on a reply that will not come.

    The worker owns no shared segment.  It attaches to the one block
    each message names (a cached dict hit after the first use), one
    attachment per ring slot — a block the parent re-created in a slot
    replaces the old attachment, which is closed — so it maps at most
    ``depth`` request blocks and there is nothing for a SIGKILL to
    strand.  The parent never keeps
    more than ``depth`` batches in flight and decodes a batch's replies
    before reusing its block, so writing the named region cannot race a
    parent-side read of the reply that last used it.

    The receive loop polls rather than blocks so it can watch the
    parent's pid between messages: under ``fork``, sibling workers keep
    each other's pipe write-ends open, so parent death never surfaces
    as EOF here — without the watch, a SIGKILLed parent would leave the
    whole fleet idling forever.
    """
    faults = fault_plan if fault_plan is not None else FaultPlan()
    replica = _Replica(spec, cache_capacity, megaflow_capacity)
    blocks = BlockAttachments()
    parent_pid = os.getppid()
    try:
        while True:
            while not conn.poll(_PARENT_POLL_INTERVAL):
                if os.getppid() != parent_pid:  # orphaned: parent died
                    return
            message = conn.recv()
            kind = message[0]
            if kind == "shm":
                conn.send(
                    replica.serve(
                        message,
                        blocks.buf(message.block_name, message.slot),
                        faults,
                        worker_id,
                    )
                )
            elif kind == "close":
                conn.send(ByeReply("bye"))
                return
            else:
                raise ValueError(f"unknown request tag {kind!r}")
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return  # parent went away
    finally:
        blocks.close()


# ----------------------------------------------------------------------
# the sharded runner
# ----------------------------------------------------------------------


@dataclass
class _InFlight:
    """One submitted-but-not-collected batch, and the one home of every
    fact about it: what :meth:`collect` needs to resolve its replies
    against the table state it was classified under, and which replies
    are still owed — a worker in :attr:`groups` missing from
    :attr:`replies`.

    ``sends`` keeps each worker's request message as a template (with
    an empty mutation suffix): the batch's block is parent-owned and
    its request lanes immutable in flight, so recovering a dead worker
    re-*sends* the template — with the suffix recomputed from the
    replacement's fresh log cursor — instead of re-encoding anything.
    """

    seq: int
    #: Always columnar: a dict submission is columnarised once at
    #: submit, and that batch feeds the request block and the outcomes'
    #: lazy materialisation alike.
    batch: PacketBatch
    #: Worker -> its member positions, ascending.
    groups: dict[int, np.ndarray]
    pinned: Mapping[int, ActionSnapshot]
    log_len: int
    sends: dict[int, ShmRequest] = field(default_factory=dict)
    #: Worker -> its reply, parked as it arrives or is served in-process.
    replies: dict[int, ShmReply] = field(default_factory=dict)


class ShardedBatchPipeline:
    """Drop-in ``process_batch`` runner fanning batches across workers.

    Args:
        pipeline: the authoritative pipeline, of keyed lookup tables
            only (checked, as in
            :class:`~repro.runtime.batch.BatchPipeline`, before any
            worker or segment exists).  Snapshot once at
            construction; afterwards mutate **only** through
            :attr:`pipeline` (the logging facade) so replicas catch up
            — a table mutated behind it fails the next submission.
        workers: process count (default: ``os.cpu_count()``).
        cache_capacity / megaflow_capacity: per-worker cache stack, as
            in :class:`BatchPipeline`.
        transport: only ``"shm"`` (columnar shared-memory blocks) is
            accepted; the whole-payload pickle transport was removed.
        depth: maximum batches in flight (submitted, not yet collected).
            ``depth >= 2`` double-buffers the transport: the parent
            encodes and dispatches batch N+1 while the workers are still
            classifying batch N (the runner keeps a ring of ``depth``
            shared blocks, one per batch in flight with its replies, so
            an in-flight batch's columns are never overwritten).  :meth:`process_batch` is lockstep at
            any depth;
            :meth:`process_batches` (and
            :func:`~repro.runtime.batch.run_workload`, which calls it)
            exploit the ring.

            Control messages (block names, layouts, member keys) are
            small by construction; the one unbounded rider — the
            mutation-log suffix — is bounded by
            :data:`MAX_PIPELINED_MUTATION_BACKLOG`: past it, the stream
            drains in flight before submitting (and
            :meth:`submit_batch` raises), so a big suffix is only ever
            written into empty pipes with the workers parked in recv.
            Replies are always small frames: their lanes go into a
            reply region of the batch's block, sized by the parent.
        supervision: failure policy (see
            :class:`~repro.runtime.supervise.SupervisionConfig`): wedge
            deadline and restart budget per worker; past the budget a
            worker's shard is always served in-process.  The default
            supervises crashes with two respawns per worker; wedge
            detection arms when a ``deadline`` is set.
        fault_plan: deterministic fault injection for chaos tests (see
            :mod:`repro.runtime.faults`); threaded through worker spawn
            and pruned on respawn so a non-sticky fault fires exactly
            once.
    """

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        workers: int | None = None,
        cache_capacity: int | None = DEFAULT_CAPACITY,
        megaflow_capacity: int | None = None,
        transport: str = "shm",
        depth: int = 2,
        supervision: SupervisionConfig | None = None,
        fault_plan: FaultPlan | None = None,
        shared_rules: bool = False,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if transport != "shm":
            raise ValueError(
                f"transport {transport!r} is not available: the pickle "
                'transport was removed and "shm" is the only path'
            )
        if depth < 1:
            raise ValueError(f"pipeline depth must be positive, got {depth}")
        for table in pipeline.tables:
            require_keyed_table(table)
        self.workers = workers or max(1, os.cpu_count() or 1)
        self.depth = depth
        self._authoritative = pipeline
        self._log: list[Mutation] = []
        self._mutation_lock = threading.Lock()
        #: Each table's ``version`` as of the last logged mutation or
        #: fold: a table whose version differs was mutated behind the
        #: facade, and its replicas cannot know.
        self._versions: dict[int, int] = {}
        self.pipeline = _LoggedPipeline(
            pipeline, self._log, self._mutation_lock, self._versions
        )
        #: Shared read-only rule state (see runtime/rulestate.py): the
        #: static lookup structures are sealed into one shared-memory
        #: block and workers attach instead of rebuilding O(rules)
        #: replicas.  Sealed eagerly at the end of construction so the
        #: first spawn is already O(1)-per-worker; re-sealed at log fold
        #: points.
        self._shared_rules = shared_rules
        self._rule_state: SharedRuleState | None = None
        self._cache_capacity = cache_capacity
        self._megaflow_capacity = megaflow_capacity
        #: The shard key: every field any table matches on, so a flow's
        #: worker is fixed for the runner's life.
        self._shard_fields = tuple(
            sorted({name for t in pipeline.tables for name in t.field_names})
        )
        self._conns: list = []
        self._procs: list = []
        self._codec = PacketBlockCodec()
        #: The block ring: slot ``seq % depth`` carries batch ``seq``'s
        #: request lanes and, after them, one reply region per worker in
        #: the batch; reused only after that batch is collected.
        self._requests = [SharedBlock() for _ in range(depth)]
        #: In-flight batches by seq, in submission order (a dict keeps
        #: insertion order): the first key is the oldest, the one
        #: :meth:`collect_batch` completes next.
        self._inflight: dict[int, _InFlight] = {}
        self._seq = 0
        self._supervisor = WorkerSupervisor(
            workers=self.workers,
            config=supervision if supervision is not None else SupervisionConfig(),
        )
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self._mp_ctx: Any = None
        #: Parent-side replica for shards classified in-process: built
        #: lazily from the current spec and advanced along the mutation
        #: log exactly like a worker's.
        self._inline: _Replica | None = None
        #: True while a process_batches() stream is live; guards against
        #: a second stream, a lockstep call or an explicit submit/collect
        #: interleaving on the shared in-flight queue and mislabeling
        #: results.
        self._streaming = False
        #: Counted once per collected batch: packets, batches and
        #: traffic at the credit, the cache, megaflow and wave counters
        #: its replies carry.
        self.stats = BatchStats()
        #: Parent-owned lifecycle: the sweep runs over the authoritative
        #: tables only; workers learn of expiries via the mutation log.
        self.lifecycle = LifecycleSweeper()
        # The replica snapshot (``_spec``, sealed when rules are shared)
        # and the log cursors come from the one fold.
        with self._mutation_lock:
            self._fold_log()

    # -- lifecycle -----------------------------------------------------

    def _spawn_worker(
        self, worker: int
    ) -> tuple[mp_connection.Connection, Any]:
        parent_conn, child_conn = self._mp_ctx.Pipe()
        proc = self._mp_ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._spec,
                self._cache_capacity,
                self._megaflow_capacity,
                worker,
                self._fault_plan,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _fold_log(self) -> None:
        """Fold the mutation log into a fresh replica snapshot — the one
        place the log is folded.  The caller holds the mutation lock and
        guarantees that everything in flight is pinned at the log's end.

        The authoritative tables are snapshotted into ``_spec`` (and,
        with shared rules, sealed into a new block; the old generation
        is closed — long-lived workers keep valid mappings of it, only
        fresh spawns attach to the new one).  The new spec *is* the
        table state at the log's end, so the tables' versions become the
        facade's baseline, the log clears, the cursors
        rewind to zero and every in-flight batch rebases to prefix 0 — a
        recovery replay then applies no suffix at all.  The inline
        replica's cursor dies with the log; it is rebuilt on next use.
        """
        self._spec = PipelineSpec.snapshot(self._authoritative)
        if self._shared_rules:
            old_state = self._rule_state
            self._rule_state = SharedRuleState.seal(
                self._authoritative, self._spec
            )
            self._spec = self._rule_state.spec
            if old_state is not None:
                old_state.close()
        self._versions.update(
            (table.table_id, table.version) for table in self._authoritative.tables
        )
        self._log.clear()
        self._cursors = [0] * self.workers
        for inflight in self._inflight.values():
            inflight.log_len = 0
        self._inline = None

    def _ensure_started(self) -> None:
        if self._procs:
            return
        # One resource tracker shared with the forked workers keeps
        # shared-memory accounting warning-free (see transport module).
        ensure_resource_tracker()
        # A fleet starts from a fresh fold, never a replay: respawn after
        # close() folds whatever was logged in between (and re-seals the
        # block close() released).
        with self._mutation_lock:
            if self._log or (self._shared_rules and self._rule_state is None):
                self._fold_log()
        if self._mp_ctx is None:
            method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            self._mp_ctx = mp.get_context(method)
        for worker in range(self.workers):
            conn, proc = self._spawn_worker(worker)
            self._conns.append(conn)
            self._procs.append(proc)

    #: Longest close() waits for the workers' orderly Byes — all of
    #: them, against one deadline — before escalating to SIGKILL.
    CLOSE_TIMEOUT = 5.0

    def _shutdown_workers(self) -> None:
        """Orderly close of the fleet: every worker is asked to close
        first, then their Byes are awaited together against one
        deadline, sentinel-aware, so close() waits at most
        ``CLOSE_TIMEOUT`` however many workers hang.  A worker that did
        not say Bye by then — or said anything else first, such as a
        reply it still owed — is killed.  A kill is always safe — the
        worker owns nothing."""
        waiting: dict[Any, int] = {}
        for worker, (conn, proc) in enumerate(zip(self._conns, self._procs)):
            try:
                conn.send(CloseRequest("close"))
            except OSError:  # already dead, or retired with its pipe closed
                continue
            waiting[conn] = waiting[proc.sentinel] = worker
        acknowledged = set()
        # A supervision deadline on worker processes, not simulation time.
        deadline = time.monotonic() + self.CLOSE_TIMEOUT  # repro-lint: disable=wall-clock-ban

        def remaining() -> float:
            return max(deadline - time.monotonic(), 0.0)  # repro-lint: disable=wall-clock-ban

        while waiting and (left := remaining()):
            ready = mp_connection.wait(list(waiting), left)
            for worker in {waiting[obj] for obj in ready}:
                if self._take_frame(worker, closing=True):
                    acknowledged.add(worker)
                conn, proc = self._conns[worker], self._procs[worker]
                del waiting[conn], waiting[proc.sentinel]
        for worker, (conn, proc) in enumerate(zip(self._conns, self._procs)):
            conn.close()
            if worker not in acknowledged:
                proc.kill()
        for proc in self._procs:
            proc.join(remaining())
            if proc.is_alive():  # acknowledged, yet not gone by the deadline
                proc.kill()
                proc.join()

    def close(self) -> None:
        """Shut every worker down (idempotent).

        The runner stays usable: a later ``process_batch`` respawns the
        fleet from a fresh fold, on both ``shared_rules`` settings — the
        authoritative tables are snapshotted (and re-sealed when shared),
        the log cleared and the cursors rewound, so no replica replays
        history.  Degraded workers are forgiven on close (the respawned
        fleet is whole again); cumulative supervision stats survive for
        reporting.

        Batches still in flight are forgotten, not collected: nothing
        they hold was counted (a batch counts at its credit), so
        dropping their records is the whole of it, and the one wait
        left is the fleet's shutdown, bounded by one deadline.
        """
        self._inflight.clear()
        self._shutdown_workers()
        self._conns = []
        self._procs = []
        for block in self._requests:
            block.close()
        self._supervisor.reset()
        self._inline = None
        # Release the sealed rule block (zero /dev/shm residue after
        # close).  The spec goes stale with it; the next _ensure_started
        # re-seals from the authoritative tables before spawning.
        if self._rule_state is not None:
            self._rule_state.close()
            self._rule_state = None
        # Recovery path for a stream that was created but abandoned
        # before its first iteration (the generator's finally never ran).
        self._streaming = False

    def __enter__(self) -> ShardedBatchPipeline:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- sharding ------------------------------------------------------

    def shard_of(self, packet_fields: Mapping[str, int]) -> int:
        """Worker index for a packet: the assignment it gets as a
        one-row batch (:meth:`_shard_groups`)."""
        row = PacketBatch.from_dicts([packet_fields], self._codec.field_bits)
        return next(iter(self._shard_groups(row)))

    def _shard_groups(self, batch: PacketBatch) -> dict[int, np.ndarray]:
        """Member positions per worker for one batch, as ascending
        index arrays.

        Workers are assigned by a hash of the shard key — the tables'
        match fields, fixed at construction: one vectorized pass over
        those lanes (per distinct row, fanned out by ``pick``).  The key
        never changes, so a flow's packets land on one worker for the
        runner's whole life, whatever shape they were submitted in —
        sharding steers only cache locality, never results.  A
        single-worker fleet has nothing to steer and skips the hash.
        """
        if self.workers == 1:
            return {0: np.arange(len(batch), dtype=np.int64)}
        hashes = batch.key_hashes(self._shard_fields)
        assigned = (hashes % np.uint64(self.workers)).astype(np.int64)[
            batch.pick
        ]
        return {
            worker: np.flatnonzero(assigned == worker)
            for worker in np.unique(assigned).tolist()
        }

    # -- classification ------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The parent's virtual clock; workers never see one."""
        return self.lifecycle.clock

    @property
    def flow_removed(self) -> list[FlowRemoved]:
        """Parent-side ledger of every expiry swept so far, in order."""
        return self.lifecycle.ledger

    def advance_clock(self, dt: int) -> list[FlowRemoved]:
        """Advance virtual time and expire timed-out entries.

        The sweep runs over the logging facade :attr:`pipeline`: it
        reads the authoritative tables through it (their flow counters
        hold every collected batch's credit) and removes through it, so
        each expiry is logged as an ordinary
        :class:`~repro.runtime.protocol.RemoveMutation` and workers,
        replay recovery and the inline fallback all reconstruct the
        identical post-expiry state from the log without ever consulting
        a clock.  Refuses to run with
        batches in flight — their uncredited traffic would make the idle
        detection (and flow-removed final counters) racy; workload
        replay always drains each packet event first.
        """
        self._guard_idle("advance_clock")
        removed = self.lifecycle.advance(self.pipeline, dt)
        self.stats.advances += 1
        self.stats.expired += len(removed)
        return removed

    def process(self, packet_fields: Mapping[str, int]) -> PipelineResult:
        return self.process_batch([packet_fields])[0]

    def process_batch(
        self, batch: Sequence[Mapping[str, int]] | PacketBatch
    ) -> list[PipelineResult]:
        """Classify a batch across the workers; results in input order,
        bitwise-identical to the single-process :class:`BatchPipeline`.

        Lockstep: submits the batch and collects its replies before
        returning.  Refuses to run while :meth:`submit_batch` batches
        are in flight (draining them here would have to throw their
        results away silently; collect them first) or while a
        :meth:`process_batches` stream is live."""
        self._guard_idle("process_batch")
        if not self._submit(batch):
            return []
        return self._collect_oldest().results()

    def _guard_stream(self, caller: str) -> None:
        if self._streaming:
            raise RuntimeError(
                f"a process_batches() stream is live; exhaust or close "
                f"it before {caller}()"
            )

    def _guard_idle(self, caller: str) -> None:
        self._guard_stream(caller)
        if self._inflight:
            raise RuntimeError(
                f"{len(self._inflight)} submitted batches in flight; "
                f"collect_batch() their results before {caller}()"
            )

    def process_batches(
        self, batches: Iterable[Sequence[Mapping[str, int]] | PacketBatch]
    ) -> Iterator[Sequence[PipelineResult]]:
        """Pipelined classification of a stream of batches.

        Keeps up to :attr:`depth` batches in flight: batch N+1 is
        encoded into its own ring slot and dispatched while the workers
        are still classifying batch N, then replies are collected in
        submission order — the encode/classify overlap the lockstep
        :meth:`process_batch` round-trip serialises away.  A generator:
        yields one result sequence per input batch, in order, each
        bitwise-identical to the single-process runner's, as soon as it
        lands.  The sequences are
        :class:`~repro.runtime.batch.ColumnarOutcomes` — the type
        :meth:`BatchPipeline.classify_columnar
        <repro.runtime.batch.BatchPipeline.classify_columnar>` returns —
        so a per-packet :class:`PipelineResult` exists only once a
        caller indexes or iterates one: counters and flow stats are
        already merged when it is yielded, a stream nobody reads replays
        no path at all, and memory stays
        O(depth x batch), never O(stream).  An outcome stays readable
        after any number of later batches (nothing in it aliases a ring
        slot) and is resolved against the action tables pinned when its
        batch was submitted, whatever has mutated since.

        Like :meth:`process_batch`, refuses to start while
        :meth:`submit_batch` batches are outstanding (their results
        would otherwise be yielded as — and mislabeled as — the new
        stream's first entries) or while another stream is live: two
        streams interleaving on the shared FIFO would silently swap
        results between them.
        """
        self._guard_idle("process_batches")
        self._streaming = True
        return self._stream(batches)

    #: Mutation-log suffixes ride inside the "small" control messages,
    #: but churn can make them arbitrarily large.  Beyond this many
    #: outstanding mutations for the laggiest worker, the stream drains
    #: in flight before submitting — with empty pipes the worker is
    #: parked in recv and consumes the big message as it is written, so
    #: the send-while-reply-blocked deadlock window never opens.  128
    #: pickled FlowEntries sit comfortably under a 64 KiB pipe buffer.
    MAX_PIPELINED_MUTATION_BACKLOG = 128

    def _mutation_backlog(self) -> int:
        log_len = len(self._log)
        live = [
            cursor
            for worker, cursor in enumerate(self._cursors)
            if worker not in self._supervisor.disabled
        ]
        return log_len - min(live, default=log_len)

    def _stream(
        self, batches: Iterable[Sequence[Mapping[str, int]] | PacketBatch]
    ) -> Iterator[Sequence[PipelineResult]]:
        try:
            for batch in batches:
                # The backlog is re-read on every loop pass: the
                # consumer (or a mutator thread) can grow the log while
                # the generator is suspended at a drain yield, and a
                # stale reading would submit a giant suffix into pipes
                # still carrying in-flight replies.
                while self._inflight and (
                    len(self._inflight) >= self.depth
                    or self._mutation_backlog()
                    > self.MAX_PIPELINED_MUTATION_BACKLOG
                ):
                    yield self._collect_oldest()
                if not self._submit(batch):
                    # Empty batches produce empty results but occupy no
                    # ring slot (there is nothing for a worker to do);
                    # splice the placeholder in once the preceding
                    # batches land.
                    while self._inflight:
                        yield self._collect_oldest()
                    yield []
            while self._inflight:
                yield self._collect_oldest()
        finally:
            self._streaming = False

    def submit_batch(
        self,
        batch: Sequence[Mapping[str, int]] | PacketBatch,
        *,
        megaflow_bypass: bool = False,
    ) -> int:
        """Dispatch one non-empty batch without waiting for its results;
        returns its ``seq`` (:meth:`collect_batch` completes batches in
        submission order).  Never blocks or collects internally:
        submitting beyond :attr:`depth` raises, so callers own the
        collect cadence explicitly — and an empty batch raises rather
        than silently occupying no slot and skewing the submit/collect
        pairing.  Also raises while a :meth:`process_batches` stream is
        live, or when the mutation backlog has outgrown what can safely
        share the pipe with in-flight replies (see
        :data:`MAX_PIPELINED_MUTATION_BACKLOG`): collect first, then
        resubmit."""
        if not batch:
            raise ValueError(
                "cannot submit an empty batch (it would occupy no ring "
                "slot and break the submit/collect pairing)"
            )
        self._guard_stream("submit_batch")
        if len(self._inflight) >= self.depth:
            raise RuntimeError(
                f"{len(self._inflight)} batches already in flight "
                f"(depth={self.depth}); collect_batch() first"
            )
        if self._inflight and (
            self._mutation_backlog() > self.MAX_PIPELINED_MUTATION_BACKLOG
        ):
            raise RuntimeError(
                f"mutation backlog ({self._mutation_backlog()}) too large "
                "to pipeline safely alongside in-flight replies; "
                "collect_batch() first"
            )
        seq = self._seq
        self._submit(batch, bypass=megaflow_bypass)
        return seq

    def collect_batch(self) -> list[PipelineResult]:
        """Results of the oldest in-flight batch: batches complete in
        submission order.  Raises on an idle runner, and while a
        :meth:`process_batches` stream is live — the stream owns its
        in-flight batches, and collecting one would shift every later
        result onto the wrong batch."""
        self._guard_stream("collect_batch")
        if not self._inflight:
            raise RuntimeError("no batch in flight")
        return self._collect_oldest().results()

    @property
    def in_flight(self) -> int:
        """Batches submitted but not yet collected."""
        return len(self._inflight)

    # -- dispatch/collect internals ------------------------------------

    def _submit(
        self,
        batch: Sequence[Mapping[str, int]] | PacketBatch,
        bypass: bool = False,
    ) -> bool:
        """Encode, dispatch and register one batch; False when empty.

        ``bypass`` rides in every worker's request template, so replays
        after a crash and in-process shards skip — or keep — the
        megaflow tier exactly as the original submission asked.  Raises
        ``RuntimeError`` when a table was mutated behind the logging
        facade: the replicas never saw that flow-mod, so their answers
        would be wrong.  Nothing is counted here: a batch counts when
        it is collected and credited — an empty one, which has nothing
        to collect, counts its batch at once, as the in-process credit
        of an empty batch does."""
        assert len(self._inflight) < self.depth
        if not len(batch):
            self.stats.batches += 1
            return False
        self._ensure_started()
        # One atomic snapshot per *submitted* batch, under the mutation
        # lock: the log length (every worker catches up to the same
        # point) and the authoritative action tables (worker slot refs
        # resolve against this, not whatever sits at a slot by reply
        # time).  Each in-flight batch carries its own snapshot
        # pair, so a mutation landing between two pipelined submissions
        # is visible to the second batch and not the first — exactly the
        # serial order a lockstep runner would have produced — and a
        # mutation landing while sub-batches are in flight defers
        # uniformly to the next submission.
        with self._mutation_lock:
            tables = self._authoritative.tables
            for table in tables:
                if table.version != self._versions[table.table_id]:
                    raise RuntimeError(
                        f"table {table.table_id} was mutated behind the "
                        "logging facade; mutate through runner.pipeline so "
                        "the workers see every flow-mod"
                    )
            log_len = len(self._log)
            pinned = {t.table_id: t.actions.snapshot() for t in tables}
        seq = self._seq
        if not isinstance(batch, PacketBatch):
            batch = PacketBatch.from_dicts(batch, self._codec.field_bits)
        groups = self._shard_groups(batch)
        sends = self._encode_shm(seq, batch, groups, bypass)
        self._inflight[seq] = _InFlight(
            seq=seq,
            batch=batch,
            groups=groups,
            pinned=pinned,
            log_len=log_len,
            sends=sends,
        )
        self._seq += 1
        for worker in groups:
            if worker in self._supervisor.disabled:
                self._serve_inline(seq, worker)
            else:
                self._dispatch(seq, worker)
        return True

    def _encode_shm(
        self,
        seq: int,
        batch: PacketBatch,
        groups: Mapping[int, np.ndarray],
        bypass: bool = False,
    ) -> dict[int, ShmRequest]:
        """Encode the batch once into its ring slot: the request lanes,
        then one aligned reply region per worker in ``groups``, sized
        for the largest reply its sub-batch could produce
        (:func:`~repro.runtime.transport.reply_nbytes`).  One request
        template (empty mutation suffix) per worker — served by the
        worker or, degraded, in-process alike — names the block and the
        worker's region as ``(offset, nbytes)``.  The slot's last
        occupant (batch ``seq - depth``) has been collected, so this is
        the one moment the block may be re-created to fit."""
        block = self._requests[seq % self.depth]
        writer = BlockWriter()
        layout = self._codec.encode_batch(writer, batch, "pkt")
        for worker, members in groups.items():
            writer.put(f"members/{worker}", members)
        tables = len(self._authoritative.tables)
        regions: dict[int, tuple[int, int]] = {}
        end = writer.nbytes
        for worker, members in groups.items():
            offset = aligned(end)
            end = offset + reply_nbytes(len(members), tables)
            regions[worker] = (offset, end - offset)
        block.ensure(end)
        segments = writer.write_to(block.buf)
        return {
            worker: ShmRequest(
                "shm",
                seq,
                (),
                block.name,
                segments,
                layout,
                f"members/{worker}",
                bypass,
                region,
                seq % self.depth,
            )
            for worker, region in regions.items()
        }

    def _dispatch(self, seq: int, worker: int) -> None:
        """Send batch ``seq``'s template to ``worker`` with the log
        suffix recomputed from its current cursor.  Serves first sends
        and replays alike — the template is immutable, only the suffix
        depends on the cursor.  The reply it owes is read off the
        record (:meth:`_owed`), not noted here.

        A send that trips over a corpse is not recovered here: the
        reply is owed all the same, and the wait that comes to collect
        it finds the sentinel fired and replays it with the rest."""
        inflight = self._inflight[seq]
        template = inflight.sends[worker]
        suffix = tuple(self._log[self._cursors[worker] : inflight.log_len])
        self._cursors[worker] = inflight.log_len
        try:
            self._conns[worker].send(template._replace(mutations=suffix))
        except OSError:
            pass

    def _await(self, seq: int) -> None:
        """Block until batch ``seq`` has every shard's reply parked.
        Returns without a syscall when the replies are already there.

        The one place the parent listens.  It waits on the pipes *and*
        sentinels of the workers owing the awaited replies, hands every
        delivered frame to :meth:`_take_frame`, and classifies what goes
        wrong: a worker whose sentinel fired and whose pipe has run dry
        (everything it managed to send is taken first — a delivered
        reply must never be replayed) or whose frame was unacceptable
        is a *crash*; with a deadline configured, once that long has
        passed since the awaited workers last delivered a reply (or
        since the wait began), the one owing the oldest reply is a
        *wedge*.  Either way the worker is killed, a wedged one's
        last-moment deliveries are salvaged, and
        :meth:`_handle_failure` respawns and replays or degrades — after
        which the wait resumes on whoever owes the replies now.
        """
        inflight = self._inflight[seq]
        deadline = self._supervisor.config.deadline
        progressed: float | None = None
        while True:
            owing = [w for w in inflight.groups if w not in inflight.replies]
            if not owing:
                return
            failed: dict[int, FailureKind] = {}
            remaining = None
            if deadline is not None:
                now = time.monotonic()  # repro-lint: disable=wall-clock-ban
                if progressed is None:
                    progressed = now
                remaining = progressed + deadline - now
            if remaining is not None and remaining <= 0:
                # ``seq`` is the oldest batch in flight and replies
                # arrive in submission order, so it heads what every
                # owing worker owes: the first one is as overdue as any.
                failed[owing[0]] = "wedge"
            else:
                waitables: dict[Any, int] = {}
                for worker in owing:
                    waitables[self._conns[worker]] = worker
                    waitables[self._procs[worker].sentinel] = worker
                ready = mp_connection.wait(list(waitables), remaining)
                if not ready:
                    continue  # the deadline lapsed: next pass names the suspect
                for worker in dict.fromkeys(waitables[obj] for obj in ready):
                    if not self._take_frame(worker):
                        failed[worker] = "crash"
            for worker, kind in failed.items():
                proc = self._procs[worker]
                proc.kill()  # wedged or babbling; a corpse ignores it
                proc.join(timeout=self.CLOSE_TIMEOUT)
                while kind == "wedge" and self._take_frame(worker):
                    pass
                self._handle_failure(worker, kind)
            progressed = None

    def _take_frame(self, worker: int, closing: bool = False) -> bool:
        """Take one delivered frame off ``worker``'s pipe and sort it by
        tag — the only function that knows the reply tags.

        True when the frame is the one the worker owes next
        (:meth:`_owed`): an ``"ok"`` echoing that seq, now parked on the
        batch's record; or, while ``closing``, the ``"bye"``.
        False when the pipe is dry or broken, and — failing closed —
        for anything else: an unknown tag or shape, an ``"ok"`` nobody
        is waiting for.  Callers treat False as the worker's crash; an
        unacceptable frame is never parked."""
        conn = self._conns[worker]
        try:
            if not conn.poll(0):
                return False
            frame = conn.recv()
        except (EOFError, OSError, pickle.UnpicklingError):
            return False
        if closing:
            return isinstance(frame, ByeReply) and frame.kind == "bye"
        owed = self._owed(worker)
        if (
            not isinstance(frame, ShmReply)
            or frame.kind != "ok"
            or not owed
            or frame.seq != owed[0]
        ):
            return False
        self._inflight[owed[0]].replies[worker] = frame
        return True

    def _owed(self, worker: int) -> list[int]:
        """The seqs whose reply ``worker`` still owes, in seq order —
        the order its pipe delivers them: every in-flight record whose
        groups include it and whose replies lack it.  A disabled
        worker's shares are served in-process as they are submitted or
        lost, so it never owes one."""
        return [
            seq
            for seq, inflight in self._inflight.items()
            if worker in inflight.groups and worker not in inflight.replies
        ]

    def _collect_oldest(self) -> ColumnarOutcomes:
        seq = next(iter(self._inflight))
        self._await(seq)
        return self._collect(seq)

    def _collect(self, seq: int) -> ColumnarOutcomes:
        """Decode and merge one in-flight batch whose replies are all
        parked on its record (:meth:`_await` saw to that).

        Each shard's reply is decoded once per distinct traversal —
        its slot refs resolved against the batch's pinned action tables
        into path references, their counter rows gathered off the pinned
        ``rows`` copies, no ``FlowStats`` read; the merged batch
        is then credited once (:func:`~repro.runtime.batch.credit_outcomes`,
        which counts from the merged codes and the batch's own
        ``frame_len`` lane), to the runner's counters and the pinned
        entries' flow stats.  Of a reply the parent takes only the
        codes, the refs and the counts only a worker sees, each read
        through a reader over that worker's reply region alone, so every
        segment it names is bounds-checked against that region.  What
        comes back is unmaterialised: no per-packet object exists until
        the caller reads the outcome.

        The batch is forgotten before anything is decoded, so a reply
        that fails closed
        (:class:`~repro.runtime.transport.ReplyDecodeError`) counts nothing —
        not even its packets — and leaves no record behind.
        """
        inflight = self._inflight.pop(seq)
        batch, pinned = inflight.batch, inflight.pinned
        buf = self._requests[seq % self.depth].buf
        decoded: list[DecodedReply] = []
        for worker, members in inflight.groups.items():
            decoded.append(
                decode_outcomes(
                    BlockReader(
                        buf,
                        inflight.replies[worker].segments,
                        inflight.sends[worker].reply_region,
                    ),
                    self._authoritative,
                    pinned,
                    len(members),
                )
            )
        codes = np.empty(len(batch), dtype=np.int64)
        paths: list[PathRef] = []
        stats = self.stats
        for members, shard in zip(inflight.groups.values(), decoded):
            for name, count in zip(REPLY_COUNTERS, shard.counters):
                setattr(stats, name, getattr(stats, name) + count)
            codes[members] = shard.codes + len(paths)
            paths += shard.paths
        credits = np.concatenate([shard.credits for shard in decoded])
        outcomes = ColumnarOutcomes(
            batch, self._authoritative, paths, codes, credits
        )
        credit_outcomes(stats, outcomes)
        self._maybe_prune_log(inflight.log_len)
        return outcomes

    # -- failure recovery ----------------------------------------------

    def _handle_failure(self, worker: int, kind: FailureKind) -> None:
        """Recover one worker :meth:`_await` found dead (or killed) with
        its pipe drained: every reply it still owes (:meth:`_owed`) is
        lost.

        Classify the failure against the poison ledger and the restart
        budget; then either respawn a replacement and deterministically
        replay every lost seq, or — past the budget — disable the worker
        and serve its shard in-process from then on.  A poison seq is
        served in-process either way.  There is nothing to clean up
        after the corpse: every segment it wrote to is the parent's.
        """
        sup = self._supervisor
        self._conns[worker].close()
        sup.record_failure(worker, kind)
        lost = self._owed(worker)
        poison = (
            lost[0] if lost and sup.record_death_at(lost[0]) else None
        )
        # The replacement (if any) must not re-run non-sticky faults
        # that already fired: workers serve their pipe in order, so
        # everything at or below the oldest lost seq has been reached.
        if self._fault_plan:
            self._fault_plan = self._fault_plan.pruned(
                worker, lost[0] if lost else self._seq
            )
        if not sup.within_budget(worker):
            sup.disable(worker)
            for seq in lost:
                self._serve_inline(seq, worker)
            return
        self._conns[worker], self._procs[worker] = self._spawn_worker(worker)
        self._cursors[worker] = 0
        sup.stats.restarts += 1
        # Deterministic replay: each lost seq re-sent in order, the log
        # suffix recomputed against the fresh replica's zero cursor and
        # the batch's pinned log length — bitwise the same classification
        # the dead worker would have produced.  A poison seq skips the
        # pipe and classifies in-process instead.
        for seq in lost:
            if seq == poison:
                self._serve_inline(seq, worker)
            else:
                self._dispatch(seq, worker)
                sup.stats.replayed_batches += 1

    def _serve_inline(self, seq: int, worker: int) -> None:
        """Serve ``worker``'s share of batch ``seq`` in-process and park
        the reply on the batch's record, exactly as the worker would
        have served it.

        The parent's replica is built from the parent's own spec and
        advanced along the same mutation log to the batch's pinned
        ``log_len``; it reads the members from the batch's block and
        writes the reply into the worker's reply region through the
        worker's own :meth:`_Replica.serve` — so results and stats match
        what the dead shard would have sent, and
        the collect path cannot tell the two apart.  Its tables hold the
        parent's authoritative entries, which is safe because no replica
        path writes to a ``FlowEntry``: a replica classifies without
        crediting, and the lifecycle sweeper runs on the parent's
        tables only.  A replay can demand an older log position than the
        replica has already passed; it is then rebuilt from the spec
        (position 0).  The fault plan stays out: a fault fired here
        would kill the parent.
        """
        inflight = self._inflight[seq]
        replica = self._inline
        if replica is None or replica.cursor > inflight.log_len:
            replica = self._inline = _Replica(
                self._spec, self._cache_capacity, self._megaflow_capacity
            )
        inflight.replies[worker] = replica.serve(
            inflight.sends[worker]._replace(
                mutations=tuple(self._log[replica.cursor : inflight.log_len])
            ),
            self._requests[seq % self.depth].buf,
            FaultPlan(),
            worker,
        )
        self._supervisor.stats.inline_packets += len(inflight.groups[worker])

    def _maybe_prune_log(self, log_len: int) -> None:
        """Bound the mutation log under long churn.

        Once every live worker has replayed the whole log, fold the
        current authoritative state into the replica snapshot and drop
        the log — a later respawn (lazy start, recovery, or
        close()/reuse) then builds from the fresh snapshot instead of
        replaying history.  Pruning waits for full catch-up, so a
        worker the hash never feeds can delay it; steady traffic
        reaches every worker and keeps the log short.  Degraded workers
        are exempt (their cursors are dead), so churn past a disabled
        shard still prunes.
        """
        if log_len < 1024:
            return
        if any(
            cursor != log_len
            for worker, cursor in enumerate(self._cursors)
            if worker not in self._supervisor.disabled
        ):
            return
        # Recovery must be able to replay any in-flight batch at its
        # pinned log position; a batch pinned *before* this prune point
        # would need history the prune is about to drop, so wait for it
        # to land (FIFO streaming collects it first anyway).
        if any(
            inflight.log_len != log_len
            for inflight in self._inflight.values()
        ):
            return
        with self._mutation_lock:
            if len(self._log) != log_len:
                return  # a mutator slipped in; prune on a later batch
            self._fold_log()

    # -- stats ---------------------------------------------------------

    def stats_snapshot(self) -> BatchStats:
        """A copy of the runner's record (:attr:`stats`).

        Every collected reply was added into the record once — its
        traffic counted from its codes, its cache, megaflow and wave
        counts as the growth its own request caused — so a lost reply
        counts nothing, its replay counts once, and a respawn, a
        ``close()`` or an inline replica shared by degraded shards
        changes no total.  Advances and expiries are counted at
        :meth:`advance_clock`.
        """
        return replace(self.stats)

    def supervision_snapshot(self) -> dict[str, int]:
        """Cumulative recovery counters: crashes, wedges, restarts,
        replayed batches, poison batches and inline-classified packets.
        All zero on a healthy run — the benchmark gate records (but
        never bands) these, so any nonzero value in a perf report flags
        a run whose timings included recovery work."""
        return self._supervisor.stats.as_dict()
