"""Open-loop streaming front-end: bounded admission, backpressure and
deterministic load shedding over the batched lookup runtimes.

Every runner below this layer is *closed-loop*: callers feed batches as
fast as the pipeline drains them, so offered load can never exceed
capacity.  Production traffic is an arrival process — packets arrive
whether or not the switch is keeping up — and the robustness property
that matters under overload is graceful, *deterministic* degradation
instead of unbounded queue growth.  This module supplies that front-end:

- :class:`ArrivalSchedule` — a seeded open-loop load shape: Poisson,
  bursty or diurnal arrivals expressed as ``("advance", dt)`` +
  ``("packet", fields)`` events on the runtime's
  :class:`~repro.runtime.lifecycle.VirtualClock`.  No wall time
  anywhere (the ``wall-clock-ban`` lint rule holds here too), so every
  overload scenario replays bit-for-bit.  The events are the public,
  comparable definition; what :func:`run_stream` replays is their
  memoised columnar form (:class:`ArrivalColumns`): every arrival as
  one row of a single :class:`~repro.packet.batch.PacketBatch` store
  plus per-advance lanes, so the front-end works per tick and per
  batch and never touches a packet dict.
- :class:`AdmissionQueue` — a hard-capacity queue with two drop rules:
  *tail-drop* (arrivals beyond capacity are shed on the spot) and, when
  a ``deadline`` is set, *deadline-drop* (per-packet deadlines in
  virtual ticks; entries that age out before forming a batch are shed
  at the next advance).
  A preallocated ring of store row indices: the capacity is the length
  of its lanes, so it is hard by construction (the ``bounded-queue``
  lint rule polices the ``deque`` / list-as-FIFO alternatives).
- size-or-deadline **batch formation** feeding the pipelined shard
  transport through ``submit_batch`` / ``collect_batch`` behind a bounded
  in-flight window — when the window is full the stream *collects*
  (backpressure) instead of queueing unboundedly.
- a graduated **degradation ladder** under sustained overload: shrink
  the formation deadline, then bypass the megaflow tier (no probe, no
  capture, no install), then shed at admission — each rung
  deterministic in (seed, schedule, config).

Conservation law (checked by :meth:`StreamReport.assert_conserved`
before :func:`run_stream` returns): every arrival the generator offered
is accounted for exactly once —

    ``admitted == completed + shed``   (packets *and* bytes)

where *admitted* counts every packet offered to the admission
front-end, *completed* counts packets that finished classification, and
*shed* counts every drop (tail, deadline or degrade), each with a
:class:`ShedRecord` in the ledger.

Determinism under faults: the stream never collects opportunistically.
Completions are taken only at *forced* points — a ``collect_batch``
when the in-flight window is full, and full drains before every clock
advance (and at end of stream) where everything outstanding retires at
the same virtual tick; the runner completes batches in submission
order either way.
Shed decisions, ladder transitions and latency stamps are therefore
pure functions of (seed, schedule, config): a worker crash mid-stream
replays through the PR-7 supervisor and changes *nothing* in the
report.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Any, Protocol, cast, overload

import numpy as np

from repro.filters.rule import RuleSet
from repro.openflow.pipeline import PipelineResult
from repro.packet.batch import IndexArray, PacketBatch
from repro.runtime.lifecycle import FlowRemoved, VirtualClock
from repro.runtime.scenarios import (
    DEFAULT_FLOWS,
    DEFAULT_FRAME_DIST,
    DEFAULT_SEED,
    flow_pool,
    stamp_frame_lengths,
)

#: One schedule event: ``("advance", dt)`` or ``("packet", fields)``.
StreamEvent = tuple[str, object]

#: Shed reasons, in the order the ladder reaches for them.
SHED_REASONS = ("tail", "deadline", "degrade")

#: Degradation-ladder thresholds, as fractions of the admission queue's
#: capacity: an advance ending at or above the high watermark extends
#: the overload streak, one ending below the low watermark resets it,
#: and rung 3 sheds at admission above the shed target.
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.25
SHED_TARGET = 0.5


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalColumns:
    """An :class:`ArrivalSchedule` as lanes — what :func:`run_stream`
    replays.  Arrival ``i`` is position ``i`` of ``store``, so a store
    row index *is* the arrival index the shed ledger and the latency
    stamps report."""

    #: Every arrival, in order.  Built by ``from_dicts``, whose row
    #: cache is the schedule's own dicts: nothing is copied, and a
    #: result materialised from a view hands the original fields back.
    store: PacketBatch
    #: ``frame_len`` per arrival (0 where the trace carries none).
    frame: IndexArray
    #: Ticks between the start of the stream and each arrival.
    offset: IndexArray
    #: Per advance event: its ``dt`` and how many arrivals precede it.
    dt: IndexArray
    before: IndexArray


@dataclass(frozen=True)
class ArrivalSchedule:
    """A replayable open-loop arrival process on the virtual clock.

    ``events`` interleaves ``("advance", dt)`` ticks with
    ``("packet", fields)`` arrivals; several arrivals between two
    advances land on the same tick (a burst).  Time passes *only*
    through the advance events, exactly as in
    :class:`~repro.runtime.batch.Workload`.
    """

    name: str
    description: str
    events: tuple[StreamEvent, ...]

    @cached_property
    def columns(self) -> ArrivalColumns:
        """The events as lanes, built on first use and kept: replaying
        one schedule twice columnarises it once (and the store's key
        memos carry over too)."""
        packets: list[Mapping[str, int]] = []
        dt: list[int] = []
        before: list[int] = []
        for kind, value in self.events:
            if kind == "packet":
                packets.append(cast(Mapping[str, int], value))
            elif kind == "advance":
                dt.append(cast(int, value))
                before.append(len(packets))
            else:
                raise ValueError(f"unknown stream event kind {kind!r}")
        store = PacketBatch.from_dicts(packets)
        elapsed = np.concatenate(([0], np.cumsum(dt, dtype=np.int64)))
        advances_before = np.searchsorted(
            before, np.arange(len(packets), dtype=np.int64), side="right"
        )
        return ArrivalColumns(
            store=store,
            frame=store.frame_lengths(),
            offset=elapsed[advances_before],
            dt=np.asarray(dt, dtype=np.int64),
            before=np.asarray(before, dtype=np.int64),
        )

    @property
    def packet_count(self) -> int:
        return len(self.columns.store)

    @property
    def byte_count(self) -> int:
        return int(self.columns.frame.sum())

    @property
    def duration(self) -> int:
        """Total virtual ticks the schedule spans."""
        return int(self.columns.dt.sum())

    @property
    def offered_load(self) -> float:
        """Mean arrivals per virtual tick."""
        return self.packet_count / max(1, self.duration)


def _interleave(
    trace: Sequence[Mapping[str, int]], gaps: Sequence[int]
) -> tuple[StreamEvent, ...]:
    """Zip a packet trace with per-packet leading gaps into events."""
    events: list[StreamEvent] = []
    for fields, gap in zip(trace, gaps):
        if gap > 0:
            events.append(("advance", int(gap)))
        events.append(("packet", fields))
    return tuple(events)


def poisson_arrivals(
    rule_set: RuleSet,
    packet_count: int = 4096,
    mean_gap: float = 4.0,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> ArrivalSchedule:
    """Poisson arrivals: i.i.d. exponential inter-arrival gaps with the
    given mean (in virtual ticks), rounded to integer ticks — a rounded
    gap of zero is a same-tick pair, which is how a Poisson stream
    naturally produces micro-bursts.  Flows are drawn uniformly from
    the rule set's flow pool."""
    if mean_gap <= 0:
        raise ValueError(f"mean_gap must be positive, got {mean_gap}")
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count), frame_len, seed
    )
    rng = np.random.default_rng(seed ^ 0x0A11)
    gaps = [int(g) for g in np.rint(rng.exponential(mean_gap, size=packet_count))]
    return ArrivalSchedule(
        name="poisson",
        description=(
            f"{packet_count} pkts, exp gaps mean {mean_gap:.1f} ticks "
            f"over {len(flows)} flows"
        ),
        events=_interleave(trace, gaps),
    )


def bursty_arrivals(
    rule_set: RuleSet,
    packet_count: int = 4096,
    mean_burst: float = 16.0,
    burst_gap: float = 48.0,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> ArrivalSchedule:
    """Bursty arrivals: geometric burst sizes, every packet of a burst
    on the same tick and from the same flow (temporal *and* flow
    locality), exponential gaps between bursts.  The admission queue's
    worst case — offered load arrives in spikes far above the mean."""
    if mean_burst < 1:
        raise ValueError(f"mean_burst must be >= 1, got {mean_burst}")
    if burst_gap <= 0:
        raise ValueError(f"burst_gap must be positive, got {burst_gap}")
    _, flows = flow_pool(rule_set, flow_count, seed)
    rng = np.random.default_rng(seed ^ 0xB127)
    trace: list[dict[str, int]] = []
    gaps: list[int] = []
    while len(trace) < packet_count:
        size = min(
            int(rng.geometric(1.0 / mean_burst)), packet_count - len(trace)
        )
        flow = flows[int(rng.integers(len(flows)))]
        gap = int(np.rint(rng.exponential(burst_gap)))
        for position in range(size):
            trace.append(flow)
            gaps.append(gap if position == 0 else 0)
    stamped = stamp_frame_lengths(trace, frame_len, seed)
    return ArrivalSchedule(
        name="bursty",
        description=(
            f"{packet_count} pkts in ~{mean_burst:.0f}-pkt same-tick "
            f"bursts, exp inter-burst gap {burst_gap:.0f} ticks"
        ),
        events=_interleave(stamped, gaps),
    )


def diurnal_arrivals(
    rule_set: RuleSet,
    packet_count: int = 4096,
    base_gap: float = 6.0,
    amplitude: float = 0.8,
    period: int = 2048,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> ArrivalSchedule:
    """Diurnal arrivals: the mean inter-arrival gap follows a sinusoid
    over virtual time — troughs (short gaps) model the daily peak where
    offered load can exceed capacity, crests model the quiet valley.
    ``amplitude`` in [0, 1) scales the swing around ``base_gap``."""
    if base_gap <= 0:
        raise ValueError(f"base_gap must be positive, got {base_gap}")
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if period < 2:
        raise ValueError(f"period must be >= 2 ticks, got {period}")
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count), frame_len, seed
    )
    rng = np.random.default_rng(seed ^ 0xD1A1)
    gaps: list[int] = []
    tick = 0
    for _ in range(packet_count):
        mean = base_gap * (1.0 + amplitude * math.sin(2 * math.pi * tick / period))
        gap = int(np.rint(rng.exponential(mean)))
        gaps.append(gap)
        tick += gap
    return ArrivalSchedule(
        name="diurnal",
        description=(
            f"{packet_count} pkts, sinusoidal mean gap "
            f"{base_gap:.1f}±{amplitude * base_gap:.1f} ticks, "
            f"period {period}"
        ),
        events=_interleave(trace, gaps),
    )


#: Catalog of arrival builders, mirroring ``scenarios.SCENARIOS``.
ARRIVALS = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "diurnal": diurnal_arrivals,
}


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShedRecord:
    """One shed packet: which arrival, when, why, and how many bytes.

    The tuple of these — the *shed ledger* — is part of the replay
    contract: two runs with the same (seed, schedule, config) produce
    identical ledgers, faults or not.
    """

    index: int
    tick: int
    reason: str
    frame_len: int


class AdmissionQueue:
    """Hard-capacity FIFO between the arrival process and the runners.

    A fixed ring of two ``capacity``-long lanes — the store row of each
    waiting packet and the tick it was enqueued at — so occupancy
    cannot exceed the capacity whatever the caller does, which is what
    keeps memory bounded when offered load does not relent.  Everything
    else about a waiter is derived: its frame length from the store
    row, its deadline from the enqueue tick.

    Arrivals that find the queue full are shed (:meth:`admit` takes
    what fits; the rest is the caller's to shed).  With a ``deadline``
    (``None`` means tail-drop only), entries that waited more than
    ``deadline`` ticks before they formed a batch are shed too
    (:meth:`expire` — called after every clock advance; enqueue ticks
    are monotone in FIFO order, so the expired entries are always a
    contiguous head prefix, found by one bisection).
    """

    def __init__(self, capacity: int, deadline: int | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if deadline is not None and deadline < 1:
            raise ValueError(
                f"deadline must be None or >= 1 tick, got {deadline!r}"
            )
        self.capacity = capacity
        self.deadline = deadline
        # Plain lists, not arrays: a tick admits two or three packets,
        # and at that size element stores beat numpy's per-call cost.
        self._rows = [0] * capacity
        self._ticks = [0] * capacity
        self._head = 0
        self._size = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return self._size

    @property
    def head_enqueue_tick(self) -> int | None:
        """Enqueue tick of the oldest waiting packet (None when empty)."""
        return self._ticks[self._head] if self._size else None

    def admit(self, first: int, count: int, tick: int) -> int:
        """Enqueue store rows ``first .. first + count - 1``, all
        arriving at ``tick``, as far as the capacity allows; returns how
        many got in (the remainder met a full queue: tail-drop)."""
        capacity = self.capacity
        if count > capacity - self._size:
            count = capacity - self._size
        tail = (self._head + self._size) % capacity
        run = count if count <= capacity - tail else capacity - tail
        self._rows[tail : tail + run] = range(first, first + run)
        self._ticks[tail : tail + run] = [tick] * run
        if run < count:  # the rest wraps to the front of the lanes
            self._rows[: count - run] = range(first + run, first + count)
            self._ticks[: count - run] = [tick] * (count - run)
        self._size += count
        if self._size > self.peak_occupancy:
            self.peak_occupancy = self._size
        return count

    def expire(self, tick: int) -> IndexArray:
        """Shed the head entries whose deadline passed before ``tick``;
        returns their store rows."""
        head = self.head_enqueue_tick
        # tick > enqueue + deadline  <=>  enqueue < tick - deadline
        if self.deadline is None or head is None or head >= tick - self.deadline:
            return self.take(0)
        return self.take(
            bisect_left(self._span(self._ticks, self._size), tick - self.deadline)
        )

    def take(self, limit: int) -> IndexArray:
        """Pop up to ``limit`` entries from the head for batch formation;
        returns their store rows, oldest first."""
        count = min(limit, self._size)
        rows = np.array(self._span(self._rows, count), dtype=np.int64)
        self._head = (self._head + count) % self.capacity
        self._size -= count
        return rows

    def _span(self, lane: list[int], count: int) -> list[int]:
        """The first ``count`` waiters' slots of ``lane``, oldest first."""
        stop = self._head + count
        if stop <= self.capacity:
            return lane[self._head : stop]
        return lane[self._head :] + lane[: stop - self.capacity]


# ----------------------------------------------------------------------
# Stream configuration and the degradation ladder
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for one open-loop run.

    ``capacity`` and ``deadline`` parameterize the
    :class:`AdmissionQueue`: a full queue tail-drops, and a packet that
    waited more than ``deadline`` ticks is shed (``None``, the default,
    means tail-drop only).  ``batch_size`` and ``form_deadline``
    drive size-or-deadline batch formation: a batch goes out when
    ``batch_size`` packets are waiting, or when the oldest waiter has
    aged ``form_deadline`` ticks.  ``window`` bounds the pipelined
    in-flight batches (backpressure: a full window forces a FIFO
    collect before the next submit).

    ``service_rate`` declares the pipeline's drain capacity in packets
    per virtual tick, as a token bucket of depth ``batch_size *
    window`` that batch formation spends and every clock advance
    refills.  Virtual time cannot *measure* host throughput (that is
    the wall-clock bench's job), so overload — offered load exceeding
    capacity — is declared here; ``None`` means unlimited drain, under
    which the queue can only back up through same-tick bursts.

    ``degrade_after`` sets how fast sustained overload (occupancy >=
    :data:`HIGH_WATERMARK` ``* capacity`` for ``degrade_after``
    consecutive advances per rung) climbs the ladder: shrinking the
    formation deadline (rung 1), bypassing the megaflow tier — probe,
    capture and install alike (rung 2) — and shedding at admission
    above :data:`SHED_TARGET` ``* capacity``
    (rung 3); occupancy below :data:`LOW_WATERMARK` ``* capacity``
    resets it.
    """

    capacity: int = 512
    batch_size: int = 64
    form_deadline: int = 8
    window: int = 4
    deadline: int | None = None
    service_rate: float | None = None
    degrade_after: int = 4

    @property
    def service_burst(self) -> float:
        """Token-bucket depth: the most service the pipeline can owe at
        once — one full in-flight window of batches."""
        return float(self.batch_size * self.window)

    def __post_init__(self) -> None:
        if self.service_rate is not None and self.service_rate <= 0:
            raise ValueError(
                f"service_rate must be positive, got {self.service_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.form_deadline < 1:
            raise ValueError(
                f"form_deadline must be >= 1, got {self.form_deadline}"
            )
        if self.deadline is not None and self.deadline < 1:
            raise ValueError(
                f"deadline must be None or >= 1 tick, got {self.deadline!r}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1, got {self.degrade_after}"
            )


@dataclass
class _Ladder:
    """Graduated degradation state, stepped once per clock advance.

    The overload *streak* counts consecutive advances that ended with
    occupancy at or above the high watermark; it resets below the low
    watermark and holds steady in between (hysteresis).  The rung is a
    pure function of the streak — ``min(3, streak // degrade_after)``
    — so the whole ladder is deterministic in the schedule.
    """

    config: StreamConfig
    streak: int = 0
    level: int = 0
    max_level: int = 0
    transitions: list[tuple[int, int]] = field(default_factory=list)

    def step(self, occupancy: int, tick: int) -> None:
        cfg = self.config
        if occupancy >= HIGH_WATERMARK * cfg.capacity:
            self.streak += 1
        elif occupancy < LOW_WATERMARK * cfg.capacity:
            self.streak = 0
        level = min(3, self.streak // cfg.degrade_after)
        if level != self.level:
            self.level = level
            self.transitions.append((tick, level))
            self.max_level = max(self.max_level, level)

    @property
    def form_deadline(self) -> int:
        """Rung 1: halve the formation deadline to drain sooner."""
        if self.level < 1:
            return self.config.form_deadline
        return max(1, self.config.form_deadline // 2)

    @property
    def bypass_megaflow(self) -> bool:
        """Rung 2: skip the megaflow tier entirely — no probe, no
        capture on the miss path, no install (observationally invisible
        — results never change)."""
        return self.level >= 2

    @property
    def shedding(self) -> bool:
        """Rung 3: shed arrivals at admission above the shed target."""
        return self.level >= 3


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


class StreamableRunner(Protocol):
    """What :func:`run_stream` itself needs from a runner: the virtual
    clock.  Batches go through one of the transports below — the
    single-process :class:`~repro.runtime.batch.BatchPipeline` through
    ``classify_columnar``, a runner that exposes
    ``submit_batch``/``collect_batch`` (the sharded pipeline) through
    those."""

    @property
    def clock(self) -> VirtualClock: ...

    def advance_clock(self, dt: int) -> list[FlowRemoved]: ...


class _InlineTransport:
    """Synchronous facade: a submitted batch is classified on the spot.
    :func:`run_stream` stamps completions only at its drain points —
    the identical points where the pipelined transport retires work —
    so latency stamps are transport-independent by construction."""

    def __init__(self, runner: Any) -> None:
        self._runner = runner
        #: One outcome per submitted batch, in submit order.
        self.outcomes: list[Sequence[PipelineResult]] = []
        self.stalls = 0

    def submit(self, batch: PacketBatch, bypass: bool) -> None:
        self.outcomes.append(self._runner.classify_columnar(batch, bypass))

    def drain(self) -> None:
        """Nothing is ever outstanding."""


class _PipelinedTransport:
    """Bounded-window facade over ``submit_batch``/``collect_batch``.

    Collections happen only at forced points: one when the in-flight
    window is full (counted in :attr:`stalls` — that is the
    backpressure), and a full drain at every clock advance.  Either way
    a batch counts as complete only once :meth:`drain` returned, so
    completion ticks never depend on transport timing.  The runner
    completes batches in submission order, so each collect's results
    append straight onto :attr:`outcomes`.
    """

    def __init__(self, runner: Any, window: int) -> None:
        self._runner = runner
        self.window = max(1, min(window, runner.depth))
        #: One outcome per collected batch, in submit order.
        self.outcomes: list[Sequence[PipelineResult]] = []
        self.stalls = 0

    def submit(self, batch: PacketBatch, bypass: bool) -> None:
        while self._runner.in_flight >= self.window:
            self.stalls += 1
            self.outcomes.append(self._runner.collect_batch())
        self._runner.submit_batch(batch, megaflow_bypass=bypass)

    def drain(self) -> None:
        while self._runner.in_flight:
            self.outcomes.append(self._runner.collect_batch())


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


class StreamResults(Sequence[PipelineResult]):
    """The completed arrivals' results, in arrival order, materialised
    on access.

    A stream's batches leave the FIFO queue in arrival order, so the
    batch outcomes laid end to end *are* the per-packet results sorted
    by arrival index.  The in-process runner's outcomes are lazy
    :class:`~repro.runtime.batch.ColumnarOutcomes`, so a report nobody
    reads holds one traversal reference per packet and builds no
    :class:`PipelineResult`; indexing builds exactly one.  Compares
    element-wise with any sequence of results.
    """

    def __init__(self, outcomes: Sequence[Sequence[PipelineResult]]) -> None:
        self._outcomes = outcomes
        #: Position of each batch's first result, then the total.
        self._starts = list(accumulate(map(len, outcomes), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self) -> Iterator[PipelineResult]:
        return chain.from_iterable(self._outcomes)

    @overload
    def __getitem__(self, index: int) -> PipelineResult: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[PipelineResult, ...]: ...

    def __getitem__(
        self, index: int | slice
    ) -> PipelineResult | tuple[PipelineResult, ...]:
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("stream result index out of range")
        batch = bisect_right(self._starts, index) - 1
        return self._outcomes[batch][index - self._starts[batch]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"StreamResults({len(self)} results in {len(self._outcomes)} batches)"


@dataclass(frozen=True)
class StreamReport:
    """Everything one open-loop run produced, replay-comparable.

    ``latencies`` holds ``(arrival index, enqueue->completion ticks)``
    sorted by arrival index; ``results`` is aligned with it (a
    :class:`StreamResults` from :func:`run_stream`: per-packet results
    exist once somebody reads them).  ``shed`` is the ledger in
    decision order.  Two runs with identical (seed, schedule, config)
    produce equal reports on every field — that equality *is* the
    determinism contract the chaos and differential suites assert.
    """

    schedule: str
    config: StreamConfig
    admitted_packets: int
    admitted_bytes: int
    completed_packets: int
    completed_bytes: int
    shed: tuple[ShedRecord, ...]
    latencies: tuple[tuple[int, int], ...]
    results: Sequence[PipelineResult]
    batches: int
    stalls: int
    peak_occupancy: int
    duration: int
    max_level: int
    transitions: tuple[tuple[int, int], ...]
    flow_removed: tuple[FlowRemoved, ...]

    @property
    def shed_packets(self) -> int:
        return len(self.shed)

    @property
    def shed_bytes(self) -> int:
        return sum(record.frame_len for record in self.shed)

    @property
    def shed_by_reason(self) -> dict[str, int]:
        counts = {reason: 0 for reason in SHED_REASONS}
        for record in self.shed:
            counts[record.reason] += 1
        return counts

    @property
    def shed_rate(self) -> float:
        return self.shed_packets / max(1, self.admitted_packets)

    def latency_percentile(self, quantile: float) -> int:
        """Empirical percentile (ceil rank) of the completion latencies,
        in virtual ticks; 0 when nothing completed."""
        if not 0 < quantile <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        values = sorted(ticks for _, ticks in self.latencies)
        if not values:
            return 0
        rank = max(1, math.ceil(quantile * len(values)))
        return values[min(rank, len(values)) - 1]

    @property
    def p50(self) -> int:
        return self.latency_percentile(0.50)

    @property
    def p99(self) -> int:
        return self.latency_percentile(0.99)

    @property
    def p999(self) -> int:
        return self.latency_percentile(0.999)

    def assert_conserved(self) -> None:
        """The extended conservation law: admitted == completed + shed,
        for packets and bytes."""
        if self.admitted_packets != self.completed_packets + self.shed_packets:
            raise AssertionError(
                f"packet conservation broken: admitted "
                f"{self.admitted_packets} != completed "
                f"{self.completed_packets} + shed {self.shed_packets}"
            )
        if self.admitted_bytes != self.completed_bytes + self.shed_bytes:
            raise AssertionError(
                f"byte conservation broken: admitted {self.admitted_bytes} "
                f"!= completed {self.completed_bytes} + shed "
                f"{self.shed_bytes}"
            )


# ----------------------------------------------------------------------
# The open-loop runner
# ----------------------------------------------------------------------


def run_stream(
    runner: StreamableRunner,
    schedule: ArrivalSchedule,
    config: StreamConfig | None = None,
) -> StreamReport:
    """Drive ``runner`` with ``schedule`` through bounded admission.

    ``runner`` is a single-process
    :class:`~repro.runtime.batch.BatchPipeline` or a
    :class:`~repro.runtime.shard.ShardedBatchPipeline`, whose pipelined
    ``submit_batch``/``collect_batch`` transport is used with the
    bounded in-flight window.  Packets left in the queue at end of
    schedule form final batches and complete at the final tick, so the
    conservation law closes exactly; the report is self-checked with
    :meth:`StreamReport.assert_conserved` before returning.

    The loop runs per tick and per batch, never per packet.  Between
    two advances only the queue's occupancy changes — the tick, the
    service credit's ceiling, the ladder's rung and the head's age are
    all fixed — so a tick's arrivals are admitted (or shed) in runs
    that end exactly where a per-packet loop could next have decided
    something different: the queue filling up, the rung-3 shed floor,
    or the arrival that completes a batch.  Batches are views of the
    schedule's packet store, and per-packet latencies, byte totals and
    results come out of arrays once the stream is over.
    """
    cfg = config if config is not None else StreamConfig()
    arrivals = schedule.columns
    store, frame = arrivals.store, arrivals.frame
    queue = AdmissionQueue(cfg.capacity, deadline=cfg.deadline)
    transport: _InlineTransport | _PipelinedTransport
    if hasattr(runner, "submit_batch"):
        transport = _PipelinedTransport(runner, cfg.window)
    else:
        transport = _InlineTransport(runner)
    ladder = _Ladder(cfg)

    tick = start = runner.clock.now
    shed: list[ShedRecord] = []
    removed: list[FlowRemoved] = []
    #: Per formed batch, in formation order: its store rows and (once a
    #: drain point has passed) the tick it retired at.
    formed: list[IndexArray] = []
    retired: list[int] = []
    capacity, batch_size = cfg.capacity, cfg.batch_size
    #: Occupancy at which rung 3 sheds at admission (an integer
    #: occupancy is >= the float target exactly when it is >= its ceil).
    shed_floor = math.ceil(SHED_TARGET * capacity)
    #: Service-token bucket (see StreamConfig.service_rate); starts
    #: full — an idle pipeline serves the first burst at line rate.
    rate, burst = cfg.service_rate, cfg.service_burst
    credit = burst if rate is not None else math.inf

    def drop(rows: IndexArray, reason: str) -> None:
        shed.extend(
            ShedRecord(row, tick, reason, length)
            for row, length in zip(rows.tolist(), frame[rows].tolist())
        )

    def form_and_submit(limit: int) -> None:
        rows = queue.take(limit)
        formed.append(rows)
        transport.submit(store.select(rows), ladder.bypass_megaflow)

    def batch_due(waiting: int) -> int:
        """Size-or-deadline batch formation: the size of the batch that
        ``waiting`` queued packets make now — a full one, or a partial
        flush once the head has aged past the (possibly ladder-shrunk)
        formation deadline — or 0 when there is none yet."""
        if waiting >= batch_size:
            return batch_size
        head = queue.head_enqueue_tick
        if head is not None and tick - head >= ladder.form_deadline:
            return waiting
        return 0

    def form_ready() -> None:
        """Put every batch that is due on the wire, bounded by service
        credit (a backlog: the pipeline is out of service tokens)."""
        nonlocal credit
        while 0 < (size := batch_due(len(queue))) <= credit:
            credit -= size
            form_and_submit(size)

    def arrive(first: int, stop: int) -> None:
        """Offer arrivals ``first .. stop - 1``, all on the current
        tick, run by run: each run ends where the admission verdict
        could next change or a batch could next form.  Leaves no batch
        due."""
        shedding = ladder.shedding
        while first < stop:
            waiting = len(queue)
            if shedding and waiting >= shed_floor:
                reason = "degrade"
            elif waiting >= capacity:
                reason = "tail"
            else:
                reason = ""
            if reason:
                # A shed leaves the queue as it was: unless a batch can
                # go out right now (the ladder step that follows an
                # advance's formation can shorten the deadline), the
                # rest of the tick meets the same fate.
                forms = 0 < batch_due(waiting) <= credit
                count = 1 if forms else stop - first
                drop(np.arange(first, first + count, dtype=np.int64), reason)
            else:
                room = (shed_floor if shedding else capacity) - waiting
                count = min(stop - first, room)
                # A batch can newly form only on the arrival that fills
                # it — or on the very next one when the head is already
                # due — and only if the credit covers it.
                fills = 1 if batch_due(waiting) else max(1, batch_size - waiting)
                forms = count >= fills and credit >= min(batch_size, waiting + fills)
                if forms:
                    count = fills
                queue.admit(first, count, tick)
            first += count
            if forms:
                form_ready()

    def retire() -> None:
        """A forced drain point: everything outstanding retires at this
        tick, so the sharded runner is idle for an advance and latency
        stamps are transport-independent."""
        transport.drain()
        retired.extend([tick] * (len(formed) - len(retired)))

    arrived = 0
    for dt, before in zip(arrivals.dt.tolist(), arrivals.before.tolist()):
        if before > arrived:
            arrive(arrived, before)  # leaves no batch due
            arrived = before
        else:
            form_ready()
        if len(formed) > len(retired):
            retire()
        removed.extend(runner.advance_clock(dt))
        tick += dt
        if rate is not None:
            credit = min(burst, credit + dt * rate)
        if queue.deadline is not None:
            drop(queue.expire(tick), "deadline")
        # Tokens accrued over dt put freshly serviceable batches on
        # the wire now; they retire at the *next* drain point.
        form_ready()
        ladder.step(len(queue), tick)
    arrive(arrived, len(store))

    # End of schedule: close the books.  The remaining backlog forms
    # final batches regardless of service credit (the conservation law
    # accounts every admitted packet as completed or shed, never
    # "still queued") and everything retires at the final tick.
    while len(queue):
        form_and_submit(batch_size)
    retire()

    # FIFO admission means the batches' rows, end to end, are the
    # completed arrivals in ascending order.
    rows = np.concatenate(formed) if formed else frame[:0]
    done = np.repeat(np.asarray(retired, dtype=np.int64), [len(b) for b in formed])
    waited = done - (start + arrivals.offset[rows])
    report = StreamReport(
        schedule=schedule.name,
        config=cfg,
        admitted_packets=len(store),
        admitted_bytes=schedule.byte_count,
        completed_packets=len(rows),
        completed_bytes=int(frame[rows].sum()),
        shed=tuple(shed),
        latencies=tuple(zip(rows.tolist(), waited.tolist())),
        results=StreamResults(transport.outcomes),
        batches=len(formed),
        stalls=transport.stalls,
        peak_occupancy=queue.peak_occupancy,
        duration=tick - start,
        max_level=ladder.max_level,
        transitions=tuple(ladder.transitions),
        flow_removed=tuple(removed),
    )
    report.assert_conserved()
    return report
