"""The per-packet streaming loop ``run_stream`` replaced, kept verbatim
as the oracle for the columnar rewrite.

This is ``repro.runtime.streaming`` as it stood before the admission
ring: one ``_Queued`` object per admitted arrival in a ``deque``,
``frame_length()`` per packet, ``form_ready`` after every arrival, one
dict conversion per formed batch (what dict ``process_batch`` does on a
cached runner, but through ``classify_columnar`` so the ladder's
megaflow bypass is an argument) and a fully materialised result tuple.  It is slow and allocation-heavy on purpose — nothing here is
shared with the code under test except the value types the two reports
are compared through (:class:`StreamReport`, :class:`ShedRecord`,
:class:`StreamConfig`, the ladder).  Only the inline transport is kept:
the sharded path is compared against this same reference.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, cast

from repro.openflow.pipeline import PipelineResult
from repro.packet.batch import PacketBatch
from repro.packet.headers import frame_length
from repro.runtime.lifecycle import FlowRemoved
from repro.runtime.streaming import (
    SHED_TARGET,
    ArrivalSchedule,
    ShedRecord,
    StreamConfig,
    StreamReport,
    _Ladder,
)


@dataclass(frozen=True)
class _Queued:
    """An admitted arrival waiting for batch formation."""

    index: int
    fields: Mapping[str, int]
    enqueue_tick: int
    deadline_tick: int | None
    frame_len: int


class ReferenceQueue:
    """Hard-capacity FIFO between the arrival process and the runners.

    Arrivals that find the queue full are shed.  With a ``deadline``
    (``None`` means tail-drop only) every admitted packet is stamped
    with ``enqueue_tick + deadline``, and entries whose deadline passed
    before they formed a batch are shed (:meth:`expire` — called after
    every clock advance; deadlines are monotone in FIFO order, so the
    expired entries are always a contiguous head prefix).  Capacity is
    *hard* either way: occupancy never exceeds it, which is what keeps
    memory bounded when offered load does not relent.
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
        # Hard capacity: every append below is guarded by a
        # len(self._queue) check against self.capacity.
        self._queue: deque[_Queued] = deque()
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def head_enqueue_tick(self) -> int | None:
        """Enqueue tick of the oldest waiting packet (None when empty)."""
        return self._queue[0].enqueue_tick if self._queue else None

    def offer(
        self, index: int, fields: Mapping[str, int], tick: int
    ) -> ShedRecord | None:
        """Admit one arrival, or return its tail-drop shed record."""
        frame_len = frame_length(fields)
        if len(self._queue) >= self.capacity:
            return ShedRecord(index, tick, "tail", frame_len)
        deadline_tick = (
            tick + self.deadline if self.deadline is not None else None
        )
        self._queue.append(
            _Queued(index, fields, tick, deadline_tick, frame_len)
        )
        self.peak_occupancy = max(self.peak_occupancy, len(self._queue))
        return None

    def expire(self, tick: int) -> list[ShedRecord]:
        """Shed the head entries whose deadline passed before ``tick``."""
        if self.deadline is None:
            return []
        shed: list[ShedRecord] = []
        while self._queue:
            deadline_tick = self._queue[0].deadline_tick
            if deadline_tick is None or tick <= deadline_tick:
                break
            entry = self._queue.popleft()
            shed.append(
                ShedRecord(entry.index, tick, "deadline", entry.frame_len)
            )
        return shed

    def take(self, limit: int) -> list[_Queued]:
        """Pop up to ``limit`` entries from the head for batch formation."""
        taken: list[_Queued] = []
        while self._queue and len(taken) < limit:
            taken.append(self._queue.popleft())
        return taken



#: Completions returned by a transport call: the queue entries of one
#: batch paired with that batch's per-packet results.
_Completion = tuple[list[_Queued], list[PipelineResult]]



class _InlineTransport:
    """Synchronous facade: a submitted batch is classified on the spot,
    but its completion is *buffered* until the next drain point — the
    identical points where the pipelined transport retires work — so
    latency stamps are transport-independent by construction."""

    def __init__(self, runner: Any) -> None:
        self._runner = runner
        # Flushed at every drain point (each clock advance), so this
        # holds at most one inter-advance interval's batches.
        self._done: list[_Completion] = []
        self.stalls = 0

    def submit(self, entries: list[_Queued], bypass: bool) -> None:
        batch = PacketBatch.from_dicts([entry.fields for entry in entries])
        results = self._runner.classify_columnar(batch, bypass).results()
        self._done.append((entries, results))

    def drain(self) -> list[_Completion]:
        completed = self._done
        self._done = []
        return completed


def run_stream_reference(
    runner: Any,
    schedule: ArrivalSchedule,
    config: StreamConfig | None = None,
) -> StreamReport:
    """Drive an in-process ``runner`` (``classify_columnar``) with
    ``schedule``, one packet event at a time."""
    cfg = config if config is not None else StreamConfig()
    queue = ReferenceQueue(cfg.capacity, deadline=cfg.deadline)
    transport = _InlineTransport(runner)
    ladder = _Ladder(cfg)

    tick = runner.clock.now
    start = tick
    admitted_packets = admitted_bytes = 0
    completed_packets = completed_bytes = 0
    shed: list[ShedRecord] = []
    latencies: dict[int, int] = {}
    results: dict[int, PipelineResult] = {}
    removed: list[FlowRemoved] = []
    batches = 0
    index = 0
    #: Service-token bucket (see StreamConfig.service_rate); starts
    #: full — an idle pipeline serves the first burst at line rate.
    credit = cfg.service_burst if cfg.service_rate is not None else math.inf

    def complete(completions: list[_Completion]) -> None:
        nonlocal completed_packets, completed_bytes
        for entries, batch_results in completions:
            for entry, result in zip(entries, batch_results):
                latencies[entry.index] = tick - entry.enqueue_tick
                results[entry.index] = result
                completed_packets += 1
                completed_bytes += entry.frame_len

    def form_and_submit(limit: int) -> None:
        nonlocal batches
        entries = queue.take(limit)
        batches += 1
        transport.submit(entries, ladder.bypass_megaflow)

    def form_ready() -> None:
        """Size-or-deadline batch formation, bounded by service credit:
        full batches whenever ``batch_size`` waiters have tokens, plus
        a partial flush once the head has aged past the (possibly
        ladder-shrunk) formation deadline."""
        nonlocal credit
        while queue.head_enqueue_tick is not None:
            waiting = len(queue)
            due = tick - queue.head_enqueue_tick >= ladder.form_deadline
            if waiting < cfg.batch_size and not due:
                break
            size = min(cfg.batch_size, waiting)
            if credit < size:
                break  # backlog: the pipeline is out of service tokens
            credit -= size
            form_and_submit(size)

    for event in schedule.events:
        kind = event[0]
        if kind == "packet":
            fields = cast(Mapping[str, int], event[1])
            admitted_packets += 1
            admitted_bytes += frame_length(fields)
            if ladder.shedding and len(queue) >= SHED_TARGET * cfg.capacity:
                shed.append(
                    ShedRecord(index, tick, "degrade", frame_length(fields))
                )
            else:
                record = queue.offer(index, fields, tick)
                if record is not None:
                    shed.append(record)
            index += 1
            form_ready()
        elif kind == "advance":
            dt = cast(int, event[1])
            form_ready()
            # Forced drain point: everything outstanding retires at this
            # tick, so the sharded runner is idle for the advance and
            # latency stamps are transport-independent.
            complete(transport.drain())
            removed.extend(runner.advance_clock(dt))
            tick += dt
            if cfg.service_rate is not None:
                credit = min(
                    cfg.service_burst, credit + dt * cfg.service_rate
                )
            shed.extend(queue.expire(tick))
            # Tokens accrued over dt put freshly serviceable batches on
            # the wire now; they retire at the *next* drain point.
            form_ready()
            ladder.step(len(queue), tick)
        else:
            raise ValueError(f"unknown stream event kind {kind!r}")

    # End of schedule: close the books.  The remaining backlog forms
    # final batches regardless of service credit (the conservation law
    # accounts every admitted packet as completed or shed, never
    # "still queued") and everything retires at the final tick.
    while len(queue):
        form_and_submit(cfg.batch_size)
    complete(transport.drain())

    order = sorted(latencies)
    report = StreamReport(
        schedule=schedule.name,
        config=cfg,
        admitted_packets=admitted_packets,
        admitted_bytes=admitted_bytes,
        completed_packets=completed_packets,
        completed_bytes=completed_bytes,
        shed=tuple(shed),
        latencies=tuple((i, latencies[i]) for i in order),
        results=tuple(results[i] for i in order),
        batches=batches,
        stalls=transport.stalls,
        peak_occupancy=queue.peak_occupancy,
        duration=tick - start,
        max_level=ladder.max_level,
        transitions=tuple(ladder.transitions),
        flow_removed=tuple(removed),
    )
    report.assert_conserved()
    return report
