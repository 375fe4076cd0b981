"""Batched, cached, sharded high-throughput runtime over the lookup
architecture.

The paper's decomposition architecture fixes the *per-lookup* memory
cost; this package fixes the *per-packet software overhead* so the
reproduction can serve traffic-scale workloads.  Four layers compose:

**Batching model.**  :class:`~repro.runtime.batch.BatchPipeline` drives
packet batches through the multi-table pipeline in waves: all packets
currently at the same table are looked up together via the tables'
keyed ``lookup_keys`` / ``search_keys`` APIs (each distinct key and
each distinct partition key resolved once per wave), while instruction
execution reuses the scalar pipeline's machinery unchanged, once per
distinct entry path.  Goto-Table is forward-only, so a batch visits
each table at most once.  Both cache tiers are columnar-only: a dict
batch is converted once, at the runner's door
(:meth:`~repro.runtime.batch.BatchPipeline.process_batch`); only a
runner with *no* tier still walks dict batches packet by packet
through ``lookup_batch`` (the seam the frozen benchmark harness times).

**Two-tier cache hierarchy (microflow → megaflow).**  Mirroring the
Open vSwitch fast path:

- *Tier 2 — per-table microflow.*  A
  :class:`~repro.runtime.cache.MicroflowCache` (LRU, exact-match on the
  table's field tuple) fronts each table.  Invalidation is per-entry
  *revalidation*: records carry the table's ``version`` mutation-counter
  stamp and a stale record re-resolves in place on its next access, so
  a flow-mod no longer evicts the whole working set.
- *Tier 1 — pipeline-level megaflow.*  A
  :class:`~repro.runtime.megaflow.MegaflowCache` keys one entry per
  *traffic aggregate*: a full traversal captures exactly the header
  bits each visited table consulted (trie walk depth, empty-structure
  elision, predicate masks) minus rewritten/derived fields — batched,
  by :class:`~repro.runtime.walk.ColumnarWalk`, and held by the tests
  to the scalar specification
  (:class:`~repro.runtime.megaflow.MegaflowRecorder` as the ``mask``
  sink of ``OpenFlowPipeline.process``); a hit replays the complete
  :class:`~repro.openflow.pipeline.PipelineResult` and skips every
  table.  Entries are tagged ``(table_id, version)`` per visited table
  and invalidate *incrementally* — a rule change in one table only
  kills the aggregates whose traversal consulted that table.

**Sharded parallel execution.**
:class:`~repro.runtime.shard.ShardedBatchPipeline` partitions batches by
a stable hash of the tables' match fields (fixed at construction, so a
flow never changes worker) across ``multiprocessing`` workers,
each owning a pipeline replica rebuilt from a picklable
:class:`~repro.runtime.shard.PipelineSpec` snapshot plus its own cache
stack.  Consistency uses a mutation-log catch-up protocol: flow-mods go
through the runner's logging ``pipeline`` facade (a table mutated
behind it fails the next submission closed); the parent snapshots
the log length once per batch and every worker replays the suffix up to
that snapshot before classifying its sub-batch, so the whole batch sees
one table state and results are bitwise-identical to the single-process
runner.

**Shared-memory transport and stats return.**  Batches cross to the
workers through :mod:`repro.runtime.transport`, the one sharded wire
path: the parent encodes each batch *once* into a columnar
:class:`~repro.runtime.transport.PacketBlockCodec` shared-memory block
(one ``uint64`` lane per 64 field bits, presence bytes, identical
packet dicts encoded once), workers read their member rows in place
and write their reply into the reply region of the same block that the
request names — **once per distinct traversal** of the sub-batch, plus
one ``int32`` code per position; the parent sizes each worker's region
for its sub-batch before naming it as ``(offset, nbytes)``, and a
worker dies rather than write a region that is not its own, so one
block holds a batch in flight and only mutation suffixes, block names,
layouts and regions cross the pipes.  Matched
entries travel as ``(table_id, slot)`` entry refs — each entry's
action-table address, which a replica built from the parent's spec
shares with the parent — that the parent resolves against the action
tables it pinned at submission; it then credits its authoritative flow entries
itself, counting each traversal's packets and frame bytes from the
codes and the batch's own ``frame_len`` lane — no per-traversal sum
crosses the pipe, and flow stats under sharding match the
single-process run exactly.  Beside them the reply carries the cache,
megaflow and wave counts its own request caused, which the parent adds
once into its one :class:`~repro.runtime.batch.BatchStats` record
(``runner.stats``, as on the in-process runner) — a lost reply is never
counted, its replay counted once, and a batch's packets count with its
traffic when it is collected, so a refused reply counts nothing.  A reply that does not fit its batch
fails closed (:class:`~repro.runtime.transport.ReplyDecodeError`).

**Pipelined dispatch/collect.**  The transport is double-buffered: the
runner keeps a ring of ``depth`` shared blocks, one per batch in
flight with its replies, so
:meth:`~repro.runtime.shard.ShardedBatchPipeline.process_batches` (and
:func:`~repro.runtime.batch.run_workload`, which uses it) encodes and
dispatches batch N+1 while the workers still classify batch N.  Every
submitted batch snapshots the mutation-log length and pinned entry
order at submission, so pipelined streams replay the exact serial
sequence of table states — results and flow stats stay
bitwise-identical to the lockstep and single-process runners.  The
stream yields :class:`~repro.runtime.batch.ColumnarOutcomes` — the
in-process runner's own outcome type, a ``Sequence[PipelineResult]``
that materialises on access — so counters and flow stats are merged on
arrival while per-packet results exist only for callers that read them.

**Frame lengths and byte accounting.**  Packets carry an on-wire
``frame_len`` (:data:`repro.packet.headers.FRAME_LEN_FIELD`): switch
metadata outside every match, cache key and megaflow mask, threaded
through every lookup path's ``FlowStats.record`` and the runtime's one
batch credit — per-entry byte counters and
:attr:`~repro.runtime.batch.BatchStats.flow_bytes` count real traffic
volume, and the benches report bits/sec.

**Columnar fast path.**  The hot tiers above also run end-to-end on the
transport's columnar representation, without per-packet dicts.  A
:class:`~repro.packet.batch.PacketBatch` holds a batch as uint64 lanes
plus presence bytes over *rows* (aliased packet dicts share one row
through a ``pick`` indirection; per-packet frame lengths make every
packet its own dict, so the tiers dedupe by key, not by row); scenario
builders emit it directly
(``columnar=True`` /
:func:`~repro.runtime.scenarios.columnar_workload`), and
:func:`~repro.runtime.batch.run_workload` slices events into views that
share each event's vectorized key memos.  The megaflow tier
(:meth:`~repro.runtime.megaflow.MegaflowCache.probe`) applies each
cached wildcard mask as ``lanes & mask`` keys coded once per column
store (:meth:`~repro.packet.batch.PacketBatch.masked_key_codes`: the
distinct packed keys plus one integer code per row), so a probe
gathers integer codes, probes and validates once per *distinct* code,
and does the cache's own bookkeeping — hit count, LRU stamps — with
one write to its stamp lane; the
microflow tier has one index and one batch probe
(:meth:`~repro.runtime.cache.MicroflowCache.lookup_keys`: each distinct
exact key once, the residual in one table call), whatever shape the
batch arrived in.  Hits replay without dict materialisation —
classification only computes, and
:func:`~repro.runtime.batch.credit_outcomes` credits a classified
batch once, per traversal, from sums it counts off the code and
``frame_len`` lanes, on the runner that owns the entries (never on a
replica) — and a replaying
``run_workload`` with ``keep_results=False`` never builds
``PipelineResult`` objects at all.  Packets that miss the megaflow
tier stay columnar too: :class:`~repro.runtime.walk.ColumnarWalk`
carries them through the waves as index arrays — table keys read off
the lanes (plus an override lane for rewritten fields), one microflow
probe and one decomposition search per *distinct* key per table, one
path reference per distinct entry path (linked tuples of the entries
matched, shared by the positions and the megaflow aggregates that took
the path) beside its credit lanes, one bulk
:meth:`~repro.runtime.megaflow.MegaflowCache.install_batch` into rows
of lanes.  Hits and misses come back as one code lane
(:class:`~repro.runtime.batch.ColumnarOutcomes`: the paths of the
aggregates hit and of the misses walked, their credit lanes, plus one
integer code per position; the sharded collect fills it the same way
from its replies), so nothing exists per packet — and no path is
replayed into a :class:`~repro.openflow.pipeline.PathOutcome` — until
somebody reads a position.  The runtime runs only
tables with a keyed lookup: :class:`BatchPipeline`,
:class:`ShardedBatchPipeline` and :class:`MicroflowCache` refuse any
other table (``TypeError``, :func:`~repro.runtime.cache.require_keyed_table`),
so the behavioural ``FlowTable`` scan stays what the runtime is tested
against.  **Dict materialisation still happens** only for a caller
that asks for materialised results
(``keep_results=True`` or ``process_batch``'s return value — built by
:func:`~repro.runtime.megaflow.replay_template` as a fresh, list-typed
:class:`~repro.openflow.pipeline.PipelineResult` per read position:
packet fields + the outcome's rewrite overrides, bitwise-identical
to mapping ``pipeline.process`` over the batch, which the differential
property harness proves across the whole scenario catalog).

**Decode-free worker protocol.**  Dict and ``PacketBatch`` submissions
differ only parent-side (a dict sequence is columnarised at submit;
workers are then assigned by the one lane hash either way); the worker
always *attaches* to the request block's columns
in place (:meth:`~repro.runtime.transport.PacketBlockCodec.attach`)
instead of decoding its member rows, classifies via
:meth:`~repro.runtime.batch.BatchPipeline.classify` (which credits
nothing), and
encodes its reply straight from the path references
(:func:`~repro.runtime.transport.encode_outcomes`): each *distinct*
path of the sub-batch — the aggregate a position hit, or the one
the miss path walked for it — is written once, as its matched-entry
refs and nothing they already determine, and every position adds one
code — so no row is materialised worker-side at all, nothing is
pickled, and the worker never reads the ``frame_len`` lane.
The parent's collect path
(:func:`~repro.runtime.transport.decode_outcomes`) resolves the refs
against its own pinned tables into the same path references and
credit lanes the miss path builds (the Goto chain checked, the counted
facts folded from the entries' compiled steps), replays nothing, and
materialises nothing per packet.

**FIFO collection.**  Batches complete in submission order:
:meth:`~repro.runtime.shard.ShardedBatchPipeline.collect_batch`
completes the oldest in-flight batch (one wait listens for the replies
it still lacks and parks each on its batch's in-flight record, which
is also where what a worker still owes is read; per-worker pipes
deliver in submission order), so the in-flight seqs stay one
contiguous run and a free ring slot is guaranteed by the depth bound
alone.  A live ``process_batches`` stream owns its collects, and
``close()`` forgets what it never collected — nothing of it was
counted — so its one wait is each worker's bounded shutdown.

**Fault tolerance.**  Workers are mortal; results are not.  The one
collect-side wait is process-sentinel-aware and (optionally)
deadline-bounded, classifying failures as *crash* (the process died —
sentinel fired or the pipe broke — or sent a frame other than the
reply it owed), *wedge* (alive, but the awaited replies made no
progress within the
:class:`~repro.runtime.supervise.SupervisionConfig` deadline —
escalated to a kill), or *poison batch* (the same batch killed a
worker twice — classified in-process instead of replayed a third
time).  Recovery rides the pipelining invariants: each submitted batch
pinned its mutation-log prefix and its request block is parent-owned
and immutable in flight, so a replacement worker rebuilt from the
current :class:`~repro.runtime.shard.PipelineSpec` *replays* every
lost seq (a re-send, never a re-encode) and produces bitwise-identical
results and stats.  Each worker carries a restart budget;
past it the shard is always served in-process, by a parent-side
replica that serves the shard's requests through the worker's own
serve path.
Every shared segment — the block ring and the sealed rules — is the
parent's, so a corpse strands nothing; orphaned workers notice the
parent's death themselves and exit.
:mod:`repro.runtime.faults` injects deterministic, seeded
kill/hang/delay faults at named worker-loop steps for chaos testing.

**Flow-entry lifecycle on a virtual clock.**  Entries carry OpenFlow
``idle_timeout`` / ``hard_timeout`` semantics against a
:class:`~repro.runtime.lifecycle.VirtualClock` that only moves via
``("advance", dt)`` workload events — never wall time (the
``wall-clock-ban`` lint rule keeps the whole runtime clock-free), so
every runner path observes the identical tick sequence and lifecycle
behaviour replays bit-for-bit.  ``advance_clock`` runs an expiry sweep
(:class:`~repro.runtime.lifecycle.LifecycleSweeper`) whose cost follows
the entries that *can* expire and the flow-mods since the last sweep —
O(1) for an unchanged table of permanent rules: per-table numpy
deadline lanes over the timed entries only, read from a view the
tables' own add/remove keep (a sweep never walks a table), idle
touches detected from packet-count deltas (no hot-path stamping —
the credit is untouched, which is what keeps aggregated and
per-packet crediting bitwise-identical), POX
``flow_table.py`` expiry semantics (strict ``>``, hard-before-idle
precedence), and a parent-side ledger of
:class:`~repro.runtime.lifecycle.FlowRemoved` events carrying final
packet/byte counters.  Expired entries leave through the tables'
ordinary remove path, so version counters bump and both cache tiers
revalidate exactly as for explicit uninstalls; in the sharded runtime
the parent alone decides expiry, sweeping through its logging facade so
each expiry is an ordinary logged ``RemoveMutation`` — workers never
consult a clock, and replay recovery
applies expiries like any other logged removal.

**Open-loop streaming front-end.**  Every layer above is closed-loop —
callers feed batches as fast as the pipeline drains them.
:mod:`repro.runtime.streaming` adds the open-loop story: seeded
Poisson/bursty/diurnal :class:`~repro.runtime.streaming.ArrivalSchedule`
arrival processes on the virtual clock (replayable bit-for-bit, no wall
time), a hard-capacity
:class:`~repro.runtime.streaming.AdmissionQueue` with tail-drop and
deadline-drop shed policies (every queue in the runtime is
capacity-bounded — the ``bounded-queue`` lint rule enforces it),
size-or-deadline batch formation feeding the pipelined shard transport
behind a bounded in-flight window (backpressure instead of queueing),
and a graduated degradation ladder under sustained overload: shrink the
formation deadline, bypass megaflow capture (the ``bypass`` argument
of ``classify_columnar`` / ``submit_batch(megaflow_bypass=)`` —
observationally invisible), then shed at admission.
:func:`~repro.runtime.streaming.run_stream` self-checks the
conservation law ``admitted == completed + shed`` (packets and bytes)
and reports per-packet enqueue→completion latencies in virtual ticks
with p50/p99/p999 summaries plus the deterministic shed ledger — the
same report, bit-for-bit, on the single-process and sharded paths, with
or without worker crashes.  The front-end is columnar end to end: a
schedule's arrivals are one :class:`~repro.packet.batch.PacketBatch`
store, the queue is a ring of store row indices, batches are views of
the store, and ``StreamReport.results`` materialises a
:class:`~repro.openflow.pipeline.PipelineResult` only for positions a
caller reads.

**Scenario catalog.**  :mod:`repro.runtime.scenarios` builds replayable
:class:`~repro.runtime.batch.Workload` objects from a rule set —
``uniform``, ``uniform-wide`` (per-packet noise in an unconstrained
schema field: microflow-adversarial, megaflow-friendly), ``zipf``,
``bursty``, ``churn``, and ``timeout-churn`` (short-lived mice expiring
under elephant traffic via clock sweeps), each with ``frame_len``
distribution and ``advance=`` clock-cadence knobs — replayed by
:func:`~repro.runtime.batch.run_workload`.
The repo benchmark (``benchmarks/e2e/``, contract in ``BENCHMARK.json``)
replays them for packets/sec next to bits of memory per rule and
records one set in ``BENCH_throughput.json``; CI gates a change against
its parent with ``python -m benchmarks.e2e compare``.
"""

from repro.packet.batch import PacketBatch
from repro.runtime.batch import (
    BatchPipeline,
    BatchStats,
    ColumnarOutcomes,
    Workload,
    WorkloadStats,
    run_workload,
)
from repro.runtime.cache import DEFAULT_CAPACITY, MicroflowCache
from repro.runtime.lifecycle import (
    FlowRemoved,
    LifecycleSweeper,
    VirtualClock,
)
from repro.runtime.megaflow import (
    DEFAULT_MEGAFLOW_CAPACITY,
    MegaflowCache,
    MegaflowRecorder,
)
from repro.runtime.scenarios import (
    SCENARIOS,
    bursty_workload,
    churn_workload,
    columnar_workload,
    timeout_churn_workload,
    uniform_wide_workload,
    uniform_workload,
    widen_rule_set,
    with_clock_advances,
    zipf_weights,
    zipf_workload,
)
from repro.runtime.streaming import (
    ARRIVALS,
    AdmissionQueue,
    ArrivalSchedule,
    ShedRecord,
    StreamConfig,
    StreamReport,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    run_stream,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.shard import (
    PipelineSpec,
    ShardedBatchPipeline,
    TableSpec,
)
from repro.runtime.supervise import (
    SupervisionConfig,
    SupervisionStats,
    WorkerSupervisor,
)
from repro.runtime.transport import PacketBlockCodec

__all__ = [
    "ARRIVALS",
    "AdmissionQueue",
    "ArrivalSchedule",
    "BatchPipeline",
    "BatchStats",
    "ColumnarOutcomes",
    "DEFAULT_CAPACITY",
    "DEFAULT_MEGAFLOW_CAPACITY",
    "FaultPlan",
    "FaultSpec",
    "FlowRemoved",
    "LifecycleSweeper",
    "MegaflowCache",
    "MegaflowRecorder",
    "MicroflowCache",
    "PacketBatch",
    "PacketBlockCodec",
    "PipelineSpec",
    "SCENARIOS",
    "ShardedBatchPipeline",
    "ShedRecord",
    "StreamConfig",
    "StreamReport",
    "SupervisionConfig",
    "SupervisionStats",
    "TableSpec",
    "VirtualClock",
    "WorkerSupervisor",
    "Workload",
    "WorkloadStats",
    "bursty_arrivals",
    "bursty_workload",
    "churn_workload",
    "columnar_workload",
    "diurnal_arrivals",
    "poisson_arrivals",
    "run_stream",
    "run_workload",
    "timeout_churn_workload",
    "uniform_wide_workload",
    "uniform_workload",
    "widen_rule_set",
    "with_clock_advances",
    "zipf_weights",
    "zipf_workload",
]
