"""Batched execution of the OpenFlow multi-table pipeline.

:class:`BatchPipeline` drives packet *batches* through an
:class:`~repro.openflow.pipeline.OpenFlowPipeline` (or the decomposition
:class:`~repro.core.architecture.MultiTableLookupArchitecture`) instead of
one packet at a time, behind a two-tier cache hierarchy:

1. a pipeline-level :class:`~repro.runtime.megaflow.MegaflowCache`
   (opt-in via ``megaflow_capacity``): a wildcard-cache hit replays the
   complete traversal — every table is skipped;
2. per-table :class:`~repro.runtime.cache.MicroflowCache` exact-match
   caches fronting each table's lookup on the megaflow-miss path.

Megaflow misses advance through the pipeline in waves: all packets
currently at the same table are looked up together — through the table's
microflow cache when one is attached, then through the table's keyed
search path.  Because Goto-Table is forward-only, each table is visited
at most once per batch.  Both tiers are columnar-only: the waves run
over index arrays (:class:`~repro.runtime.walk.ColumnarWalk`: one probe
per distinct key per table, one path reference per distinct entry path, the
consulted-bits mask folded per distinct capture state, one bulk
install), and a dict batch is converted once at the runner's door
(:meth:`BatchPipeline.process_batch`).  The one dict loop left,
:meth:`BatchPipeline._run_waves`, serves only a runner with no cache
tier at all.

The semantics are exactly those of ``OpenFlowPipeline.process``: the
per-entry instruction execution, action-set ordering and miss handling
are *reused* from the pipeline (not re-implemented), so every behavioural
property of the scalar path carries over to the batched path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from collections.abc import Iterator, Mapping, Sequence
from typing import Any, Protocol, overload

import numpy as np

from repro.openflow.flow import COUNTERS
from repro.openflow.pipeline import (
    OpenFlowPipeline,
    PathOutcome,
    PathRef,
    PipelineResult,
    path_entries,
)
from repro.packet.batch import PacketBatch
from repro.packet.headers import frame_length
from repro.runtime.cache import (
    DEFAULT_CAPACITY,
    MicroflowCache,
    require_keyed_table,
)
from repro.runtime.lifecycle import (
    FlowRemoved,
    LifecycleSweeper,
    VirtualClock,
)
from repro.runtime.megaflow import MegaflowCache, replay_template
from repro.runtime.walk import ColumnarWalk


@dataclass
class BatchStats:
    """Aggregate counters over everything a runner has processed.

    Each runner keeps one as its live record (``runner.stats``), the
    one place every count it reports is taken, each exactly once, where
    the work lands: ``megaflow_hits`` / ``megaflow_misses`` off the
    missed lane of each megaflow probe, ``cache_hits`` /
    ``cache_misses`` and ``waves`` per walk, ``advances`` / ``expired``
    per clock advance, ``packets`` / ``batches`` and the traffic fields
    as the runner that owns the entries credits a classified batch
    (:func:`credit_outcomes`) — and on the sharded parent the cache,
    megaflow and wave counters as each collected reply adds what its
    own request caused.  The cache tiers count no hit or miss and the
    lifecycle sweeper no advance, so ``stats_snapshot()`` is a copy of
    this record.  With a megaflow tier and no bypass,
    ``megaflow_hits + megaflow_misses == packets`` on the sharded
    parent always, and in process after every credit.
    """

    packets: int = 0
    batches: int = 0
    matched: int = 0
    sent_to_controller: int = 0
    dropped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    megaflow_hits: int = 0
    megaflow_misses: int = 0
    waves: int = 0
    #: Per-entry flow-stats increments attributable to this runner's
    #: traffic: one per (packet, matched table entry) pair, counted
    #: where the entries' :class:`~repro.openflow.flow.FlowStats` are
    #: credited — on the sharded parent too, from its replies' codes.
    flow_packets: int = 0
    flow_bytes: int = 0
    #: Lifecycle counters: virtual-clock advances observed and entries
    #: the expiry sweeps removed (idle + hard).
    advances: int = 0
    expired: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def megaflow_hit_rate(self) -> float:
        total = self.megaflow_hits + self.megaflow_misses
        return self.megaflow_hits / total if total else 0.0

    @property
    def waves_per_batch(self) -> float:
        return self.waves / self.batches if self.batches else 0.0

    def since(self, before: BatchStats) -> BatchStats:
        """What every counter grew by from ``before`` to here."""
        return BatchStats(
            *(
                getattr(self, counter.name) - getattr(before, counter.name)
                for counter in fields(BatchStats)
            )
        )


class BatchPipeline:
    """Batch-oriented runtime over an OpenFlow pipeline.

    Args:
        pipeline: the pipeline to drive; every table must have a keyed
            lookup — a decomposition ``OpenFlowLookupTable`` or a proxy
            for one (:func:`~repro.runtime.cache.require_keyed_table`
            raises ``TypeError`` otherwise).  The behavioural
            ``FlowTable`` is the oracle this runtime is tested against,
            not a table it runs.
        cache_capacity: per-table microflow-cache size; ``0`` / ``None``
            disables caching.
        megaflow_capacity: pipeline-level wildcard-cache size; ``0`` /
            ``None`` (the default) disables the megaflow tier.
    """

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        cache_capacity: int | None = DEFAULT_CAPACITY,
        megaflow_capacity: int | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.caches: dict[int, MicroflowCache] = {}
        for table in pipeline.tables:
            require_keyed_table(table)
            if cache_capacity:
                self.caches[table.table_id] = MicroflowCache(
                    table, capacity=cache_capacity
                )
        self.megaflow: MegaflowCache | None = (
            MegaflowCache(pipeline, capacity=megaflow_capacity)
            if megaflow_capacity
            else None
        )
        self.stats = BatchStats()
        self.lifecycle = LifecycleSweeper()

    @property
    def clock(self) -> VirtualClock:
        """The runner's virtual clock (moves only via
        :meth:`advance_clock`)."""
        return self.lifecycle.clock

    @property
    def flow_removed(self) -> list[FlowRemoved]:
        """Ledger of every expiry this runner has swept, in order."""
        return self.lifecycle.ledger

    def advance_clock(self, dt: int) -> list[FlowRemoved]:
        """Advance virtual time and expire timed-out entries.

        Removals go through the tables' ordinary ``remove`` path, so
        version counters bump and the microflow/megaflow tiers
        revalidate exactly as they do for explicit uninstalls.  Returns
        the flow-removed events this advance caused (also appended to
        :attr:`flow_removed`).
        """
        removed = self.lifecycle.advance(self.pipeline, dt)
        self.stats.advances += 1
        self.stats.expired += len(removed)
        return removed

    def process(self, packet_fields: Mapping[str, int]) -> PipelineResult:
        """Single-packet convenience wrapper over :meth:`process_batch`."""
        return self.process_batch([packet_fields])[0]

    def process_batch(
        self, batch: Sequence[Mapping[str, int]] | PacketBatch
    ) -> list[PipelineResult]:
        """Run a batch of packets through the pipeline.

        ``batch`` is a columnar :class:`~repro.packet.batch.PacketBatch`
        or a dict sequence, which a runner with any cache tier converts
        once, here, and classifies the same way
        (:meth:`classify_columnar`).  Returns one
        :class:`PipelineResult` per packet, in input order — identical
        to mapping ``pipeline.process`` over the batch.
        """
        if not isinstance(batch, PacketBatch):
            if not self.caches and self.megaflow is None:
                return self._run_waves(batch)
            batch = PacketBatch.from_dicts(batch)
        return self.classify_columnar(batch).results()

    def classify_columnar(
        self, batch: PacketBatch, bypass: bool = False
    ) -> ColumnarOutcomes:
        """Classify a columnar batch without leaving the columns
        (:meth:`classify`, ``bypass`` passed on), then credit its
        paths to the entries they matched and to :attr:`stats`
        (:func:`credit_outcomes`) — the one place an in-process batch is
        credited.

        The returned :class:`ColumnarOutcomes` is a code lane over the
        aggregates hit and the paths walked, and defers replay
        materialisation: local callers index or iterate it for
        :class:`PipelineResult` s (bitwise-identical to mapping
        ``pipeline.process`` over the batch).
        """
        outcomes = self.classify(batch, bypass)
        credit_outcomes(self.stats, outcomes)
        return outcomes

    def classify(
        self, batch: PacketBatch, bypass: bool = False
    ) -> ColumnarOutcomes:
        """Classify a columnar batch and credit nothing — not even its
        packets: a replica classifies this way, because the parent owns
        the entries and credits them from the codes its reply carries.

        The megaflow tier is probed with vectorized masked-key compares
        (:meth:`~repro.runtime.megaflow.MegaflowCache.probe`); an
        all-hit batch is done right there.  Residual misses go through
        the columnar miss path (:class:`~repro.runtime.walk.ColumnarWalk`:
        index arrays through every wave, one probe per distinct key per
        table, one path reference per distinct entry path) and are installed
        in bulk, in position order — probe first, install after, so a
        miss never sees an aggregate an earlier position of the same
        batch installed.  With the megaflow tier off or ``bypass`` set
        the same walk runs without probe, capture or install: rung 2 of
        the streaming degradation ladder bypasses it under sustained
        overload, which changes per-packet results never (the megaflow
        serves paths it has already walked), only cache stats and
        cost.  Nothing here reads the ``frame_len`` lane: only the
        credit counts bytes.  The tiers' work is counted into
        :attr:`stats` here — megaflow hits and misses off the probe's
        missed lane, the walk's waves and microflow hits and misses —
        so a replica's record holds what its requests caused.
        """
        megaflow = None if bypass else self.megaflow
        paths: list[PathRef]
        if megaflow is not None:
            paths, credits, codes, missed = megaflow.probe(batch)
            self.stats.megaflow_hits += len(batch) - len(missed)
            self.stats.megaflow_misses += len(missed)
        else:
            paths = []
            credits = np.empty((0, len(self.pipeline.tables) + 1), dtype=np.int64)
            codes = np.empty(len(batch), dtype=np.int64)
            missed = np.arange(len(batch), dtype=np.int64)
        outcomes = ColumnarOutcomes(batch, self.pipeline, paths, codes, credits)
        if len(missed):
            self._walk_misses(outcomes, missed, megaflow)
        return outcomes

    def _walk_misses(
        self,
        outcomes: ColumnarOutcomes,
        missed: np.ndarray,
        megaflow: MegaflowCache | None,
    ) -> None:
        """Walk the ``missed`` positions through the tables, install the
        paths (when a megaflow tier is capturing), append the walk's
        distinct paths and their credit lanes to ``outcomes`` and point
        the missed positions' codes at them.  Nothing is replayed."""
        batch = outcomes.batch
        walk = ColumnarWalk(
            self.pipeline, self.caches, batch, capture=megaflow is not None
        )
        walk.run(missed)
        stats = self.stats
        stats.waves += walk.waves
        stats.cache_hits += walk.cache_hits
        stats.cache_misses += walk.cache_misses
        if megaflow is not None:
            megaflow.install_batch(
                batch,
                missed,
                walk.masks,
                walk.mask_codes,
                walk.paths,
                walk.path_codes,
                walk.credits,
                walk.versions,
            )
        outcomes.codes[missed] = walk.path_codes + len(outcomes.paths)
        outcomes.paths += walk.paths
        outcomes.credits = np.concatenate((outcomes.credits, walk.credits))

    def _run_waves(
        self, batch: Sequence[Mapping[str, int]]
    ) -> list[PipelineResult]:
        """Dict batches on a runner with no cache tier at all: advance
        the packets table by table, one ``lookup_batch`` per wave.

        Kept for ``benchmarks/e2e/`` (frozen), whose
        ``core.lookup_table.walk_ns_per_pkt`` times the span of
        ``table.lookup_batch`` under exactly this call;
        :class:`~repro.runtime.walk.ColumnarWalk` reaches the table
        through ``lookup_keys`` instead.
        """
        pipeline, stats = self.pipeline, self.stats
        stats.packets += len(batch)
        stats.batches += 1
        results = [PipelineResult(final_fields=dict(fields)) for fields in batch]
        action_sets: list[list] = [[] for _ in results]
        #: Packets still in flight, grouped by the table they sit at.
        pending: dict[int, list[int]] = {}
        if results:
            pending[pipeline.tables[0].table_id] = list(range(len(results)))
        #: Packets whose processing ended with a match (no Goto-Table);
        #: their accumulated action sets execute after the waves finish.
        completed: list[int] = []

        while pending:
            # Goto-Table is forward-only, so the smallest pending table id
            # is never re-entered once drained.
            stats.waves += 1
            table_id = min(pending)
            members = pending.pop(table_id)
            table: Any = pipeline.table(table_id)
            entries = table.lookup_batch(
                [results[i].final_fields for i in members]
            )
            for i, entry in zip(members, entries):
                result = results[i]
                result.tables_visited.append(table_id)
                if entry is None:
                    # Miss: the policy acts immediately and the packet's
                    # accumulated action set is discarded, exactly as in
                    # the scalar path.
                    pipeline._handle_miss(result)
                    continue
                result.matched_entries.append(entry)
                next_table = pipeline._execute_instructions(
                    entry, action_sets[i], result
                )
                if next_table is None:
                    completed.append(i)
                else:
                    pending.setdefault(next_table, []).append(i)

        for i in completed:
            pipeline._execute_action_set(action_sets[i], results[i])
        for result in results:
            # frame_len is never rewritten, so final_fields carries the
            # length every stats.record() saw mid-pipeline.
            credit_traversal(
                stats, result, 1, frame_length(result.final_fields)
            )
        return results

    def stats_snapshot(self) -> BatchStats:
        """A copy of the runner's record (:attr:`stats`)."""
        return replace(self.stats)


def credit_outcomes(stats: BatchStats, outcomes: ColumnarOutcomes) -> None:
    """Credit one classified batch: each path's packets and frame
    bytes to the counters of every entry it matched, and the batch —
    one batch, its packets and its traffic — to ``stats``.

    The one credit of the columnar runtime, and the one place a
    path's packets and frame bytes are counted: per batch, one
    ``bincount`` of the code lane and one more weighted by the batch's
    own ``frame_len`` lane.  Only the runner that owns the entries calls
    it — :meth:`BatchPipeline.classify_columnar` after it classifies,
    the sharded parent after it decodes its replies — and a replica
    never does.  The rest is integer work over the outcome's credit
    lanes (:attr:`ColumnarOutcomes.credits`): one scatter of each
    path's counts over its counter rows into the counter columns
    (:meth:`~repro.openflow.flow.CounterColumns.credit`), and the
    totals from two ``bincount`` s of the kind lane.  No path is
    touched or replayed and no ``FlowStats`` method is called."""
    codes, credits = outcomes.codes, outcomes.credits
    rows, kinds = credits[:, :-1], credits[:, -1]
    size = len(kinds)
    packets = np.bincount(codes, minlength=size)
    # bincount sums in float64: exact below 2**53 frame bytes a batch.
    octets = np.bincount(codes, weights=outcomes.batch.frame_lengths(), minlength=size)
    COUNTERS.credit(rows, packets[:, None], octets.astype(np.int64)[:, None])
    stats.packets += len(codes)
    stats.batches += 1
    by_kind = zip(
        np.bincount(kinds, weights=packets).tolist(),
        np.bincount(kinds, weights=octets).tolist(),
    )
    for kind, (count, byte_count) in enumerate(by_kind):
        if count:
            count, matched = int(count), kind >> 2
            stats.matched += count if matched else 0
            stats.flow_packets += matched * count
            stats.flow_bytes += matched * int(byte_count)
            stats.sent_to_controller += count if kind & 2 else 0
            stats.dropped += count if kind & 1 else 0


def credit_traversal(
    stats: BatchStats,
    result: PipelineResult,
    count: int,
    byte_count: int,
) -> None:
    """Credit ``count`` packets (``byte_count`` frame bytes in all) that
    took the path ``result`` records to ``stats``' traffic counters —
    the tier-free dict walk's credit (:meth:`BatchPipeline._run_waves`),
    whose tables credit their entries in ``lookup_batch``."""
    matched_entries = len(result.matched_entries)
    if matched_entries:
        stats.matched += count
        stats.flow_packets += matched_entries * count
        stats.flow_bytes += matched_entries * byte_count
    stats.sent_to_controller += result.sent_to_controller * count
    stats.dropped += result.dropped * count


@dataclass(eq=False)
class ColumnarOutcomes(Sequence[PipelineResult]):
    """One columnar batch's classification: a sequence of per-packet
    results that materialises on access.

    Held as a code lane: ``paths[codes[i]]`` is the entry path
    (:data:`~repro.openflow.pipeline.PathRef`) position ``i`` took — the
    path of the megaflow aggregate it hit, or the distinct path the miss
    path walked (and, with the megaflow tier on, installed) for it —
    and ``credits[codes[i]]`` what that path credits: the counter rows
    it matched, then its kind
    (:func:`~repro.openflow.pipeline.counted_kind`).  It holds no sums:
    the packets and frame bytes that took each path are counted from
    ``codes`` and the batch's ``frame_len`` lane where they are credited
    (:func:`credit_outcomes`), so a slice can never carry another
    batch's totals.

    Nothing is replayed until somebody reads: :meth:`outcome` runs
    :meth:`~repro.openflow.pipeline.OpenFlowPipeline.replay_path` at
    most once per distinct path read and keeps the immutable
    :class:`~repro.openflow.pipeline.PathOutcome` here, and a position
    materialises from it (:func:`~repro.runtime.megaflow.replay_template`),
    hits and misses alike.  A batch nobody reads costs one reference
    and one credit row per aggregate hit or path walked, and nothing
    per packet.

    Both runners hand this type back: :meth:`BatchPipeline.classify_columnar`
    in-process, and the sharded parent from the entry refs its workers
    reply with (:func:`~repro.runtime.transport.encode_outcomes` names
    each distinct path's entries once plus one code per position, see
    :meth:`distinct`), so no row is materialised as a dict on either
    side until somebody indexes or iterates the outcome.
    """

    batch: PacketBatch
    #: The pipeline a read path is replayed through.
    pipeline: OpenFlowPipeline
    paths: list[PathRef]
    codes: np.ndarray
    #: What ``paths`` credit, row for row.
    credits: np.ndarray
    #: The outcomes of the paths read so far, by path identity.
    replayed: dict[int, PathOutcome] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.codes)

    def outcome(self, code: int) -> PathOutcome:
        """The outcome of path ``code``, replayed on its first read."""
        path = self.paths[code]
        outcome = self.replayed.get(id(path))
        if outcome is None:
            outcome = self.replayed[id(path)] = self.pipeline.replay_path(
                path_entries(path)
            )
        return outcome

    def __iter__(self) -> Iterator[PipelineResult]:
        """Materialise the per-packet results, in position order:
        ``final_fields`` is the packet's fields plus the path's rewrite
        overrides (materialising credits nothing)."""
        row_fields, outcome = self.batch.row_fields, self.outcome
        for row, code in zip(self.batch.pick.tolist(), self.codes.tolist()):
            yield replay_template(outcome(code), row_fields(row))

    @overload
    def __getitem__(self, index: int) -> PipelineResult: ...

    @overload
    def __getitem__(self, index: slice) -> list[PipelineResult]: ...

    def __getitem__(
        self, index: int | slice
    ) -> PipelineResult | list[PipelineResult]:
        if isinstance(index, slice):
            view = replace(
                self, batch=self.batch[index], codes=self.codes[index]
            )
            return list(view)
        return replay_template(
            self.outcome(self.codes[index]), self.batch.fields_at(index)
        )

    def results(self) -> list[PipelineResult]:
        """Every position materialised, as a plain list."""
        return list(self)

    def distinct(self) -> tuple[list[PathRef], np.ndarray]:
        """The batch's distinct paths, in first-seen order, and one
        ``int32`` code per position indexing them — the shape the
        sharded reply ships.  Distinct means *one reference*: aggregates
        installed along one path share its reference, so they collapse
        into one path here.  Only the paths are deduplicated in Python;
        positions move as codes."""
        size = len(self.codes)
        first = np.full(len(self.paths), size, dtype=np.int64)
        np.minimum.at(first, self.codes, np.arange(size, dtype=np.int64))
        # A path no position took sorts last and is left out.
        used = np.count_nonzero(first < size)
        code_of: dict[int, int] = {}
        distinct: list[PathRef] = []
        remap = [0] * len(self.paths)
        for code in np.argsort(first)[:used].tolist():
            path = self.paths[code]
            key = id(path)
            if key not in code_of:
                code_of[key] = len(distinct)
                distinct.append(path)
            remap[code] = code_of[key]
        return distinct, np.asarray(remap, dtype=np.int32)[self.codes]


@dataclass(frozen=True)
class Workload:
    """A replayable traffic scenario: packet batches interleaved with
    flow-table mutations.

    Events are tuples tagged by kind:

    - ``("packets", [fields, ...])`` — a burst of packets to classify;
    - ``("install", table_id, flow_entry)`` — add a rule mid-trace;
    - ``("uninstall", table_id, match, priority)`` — remove a rule;
    - ``("advance", dt)`` — move the runner's virtual clock forward
      ``dt`` ticks and sweep idle/hard timeouts (the *only* way time
      passes, so every runner path sees the identical tick sequence).
    """

    name: str
    description: str
    events: tuple[tuple, ...]

    @property
    def packet_count(self) -> int:
        return sum(
            len(event[1]) for event in self.events if event[0] == "packets"
        )

    @property
    def byte_count(self) -> int:
        """Total on-wire bytes in the trace (0 when built with
        ``frame_len=None``) — the numerator of bits/sec reporting."""
        total = 0
        for event in self.events:
            if event[0] != "packets":
                continue
            if isinstance(event[1], PacketBatch):
                total += event[1].byte_total
            else:
                total += sum(frame_length(fields) for fields in event[1])
        return total


@dataclass
class WorkloadStats(BatchStats):
    """Workload-replay outcome: traffic counters plus mutation counts."""

    installs: int = 0
    uninstalls: int = 0
    results: list[PipelineResult] = field(default_factory=list, repr=False)
    flow_removed: list[FlowRemoved] = field(default_factory=list, repr=False)


def _chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


class WorkloadRunner(Protocol):
    """The runner surface workload replay drives.

    :class:`BatchPipeline` and
    :class:`~repro.runtime.shard.ShardedBatchPipeline` both satisfy it;
    optional fast paths (``process_batches``, ``classify_columnar``) are
    discovered dynamically, so they stay off the required surface.
    """

    @property
    def pipeline(self) -> Any: ...

    def process_batch(
        self, batch: Sequence[Mapping[str, int]] | PacketBatch
    ) -> list[PipelineResult]: ...

    def advance_clock(self, dt: int) -> list[FlowRemoved]: ...

    def stats_snapshot(self) -> BatchStats: ...


def run_workload(
    runner: WorkloadRunner,
    workload: Workload,
    batch_size: int = 256,
    keep_results: bool = False,
) -> WorkloadStats:
    """Replay a workload through a :class:`BatchPipeline` (or any runner
    exposing the same ``process_batch`` / ``pipeline`` /
    ``stats_snapshot`` surface, e.g.
    :class:`~repro.runtime.shard.ShardedBatchPipeline`).

    Packet events are classified in ``batch_size`` chunks; mutation events
    apply through ``runner.pipeline`` so sharded runners can log them for
    worker catch-up (caches notice via the tables' version counters and
    revalidate on the next touch).

    Runners exposing ``process_batches`` (the pipelined
    :class:`~repro.runtime.shard.ShardedBatchPipeline` dispatch/collect
    loop) get each packet event's chunks as one pipelined stream, so the
    double-buffered transport overlap is exercised by workload replay;
    mutation events still land between streams, preserving the serial
    event order.  The stream yields lazily materialised
    :class:`ColumnarOutcomes`, so with ``keep_results=False`` the
    sharded runner, too, builds no per-packet object.

    Columnar workloads (packet events carrying a
    :class:`~repro.packet.batch.PacketBatch`, see
    :func:`~repro.runtime.scenarios.columnar_workload`) replay through
    the vectorized fast path; with ``keep_results=False`` a local
    :class:`BatchPipeline` classifies them via
    :meth:`~BatchPipeline.classify_columnar` and skips materialising
    per-packet :class:`PipelineResult` objects nobody will read —
    counters and flow stats are identical either way.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    stats = WorkloadStats()
    process_batches = getattr(runner, "process_batches", None)
    classify_columnar = (
        getattr(runner, "classify_columnar", None)
        if not keep_results and process_batches is None
        else None
    )
    # Every counter is the runner's own, as the growth of its stats
    # snapshot over this replay, so a reused runner reports this replay
    # only.
    before = runner.stats_snapshot()
    for event in workload.events:
        kind = event[0]
        if kind == "packets":
            chunks = _chunks(event[1], batch_size)
            if classify_columnar is not None and isinstance(
                event[1], PacketBatch
            ):
                for chunk in chunks:
                    classify_columnar(chunk)
                continue
            chunk_stream = (
                process_batches(chunks)
                if process_batches is not None
                else map(runner.process_batch, chunks)
            )
            for chunk_results in chunk_stream:
                if keep_results:
                    stats.results.extend(chunk_results)
        elif kind == "install":
            _, table_id, entry = event
            runner.pipeline.table(table_id).add(entry)
            stats.installs += 1
        elif kind == "uninstall":
            _, table_id, match, priority = event
            runner.pipeline.table(table_id).remove(match, priority)
            stats.uninstalls += 1
        elif kind == "advance":
            # Time only moves here; every packet event before this one
            # has fully drained (the chunk stream above is exhausted per
            # event), so even the pipelined sharded runner has merged
            # all flow-stats deltas before the sweep reads counters —
            # flow-removed final counts are exact on every path.
            _, delta = event
            stats.flow_removed.extend(runner.advance_clock(delta))
        else:
            raise ValueError(f"unknown workload event kind {kind!r}")
    return replace(stats, **vars(runner.stats_snapshot().since(before)))
