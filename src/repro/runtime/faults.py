"""Deterministic fault injection for the sharded runtime.

Chaos testing is only useful when a failing run can be replayed: a
:class:`FaultPlan` is a *picklable, seeded schedule* of worker failures
— kill/hang/delay worker W when it reaches step S of batch seq Q —
threaded through worker spawn, so the same plan produces the same
crash at the same instruction boundary on every run.

The instrumented steps mirror the worker serve loop
(:func:`repro.runtime.shard._worker_main`):

- ``"after-receive"`` — the shard-group message has been read off the
  pipe but nothing has been applied yet;
- ``"mid-classify"`` — the mutation suffix is applied, classification
  has not produced results;
- ``"after-stats"`` — results and the request's counts exist
  worker-side but the reply block has not been written;
- ``"before-reply"`` — everything including the reply region of the
  batch's block is written; only the control reply has not been sent.

Together the four boundaries cover every distinct partial-progress
state a crash can leave behind, which is exactly what the parent's
replay recovery must be indifferent to.

Actions:

- ``"crash"`` — ``SIGKILL`` the worker process (no cleanup runs, the
  worst case the supervisor must handle);
- ``"hang"`` — sleep far past any deadline, modelling a wedged worker
  the parent must detect and escalate to a kill;
- ``"delay"`` — a short transient stall that must *not* trip recovery.

A plan is consumed worker-side via :meth:`FaultPlan.fire` and pruned
parent-side via :meth:`FaultPlan.pruned` when a replacement worker is
spawned — a non-sticky fault fires once and must not re-fire on the
replayed batch, while a ``sticky`` fault survives pruning and kills the
replacement too, which is how poison batches are simulated.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

#: Worker-loop boundaries where a fault can fire, in serve order.
STEPS: tuple[str, ...] = (
    "after-receive",
    "mid-classify",
    "after-stats",
    "before-reply",
)

#: What a firing fault does to the worker.
ACTIONS: tuple[str, ...] = ("crash", "hang", "delay")

#: A "hang" sleeps this long — far beyond any test deadline, short
#: enough that a daemon worker leaked by a broken test still dies.
HANG_SECONDS = 600.0


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure: worker ``worker`` executing batch ``seq``
    fails with ``action`` at step ``step``."""

    worker: int
    seq: int
    step: str
    action: str
    delay: float = 0.01
    #: Sticky faults survive :meth:`FaultPlan.pruned` and so re-fire on
    #: the respawned worker's replay — the poison-batch scenario.
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.step not in STEPS:
            raise ValueError(f"unknown step {self.step!r}; expected {STEPS}")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; expected {ACTIONS}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable schedule of :class:`FaultSpec` entries.

    The plan crosses the spawn boundary with the worker and is consulted
    at each instrumented step; matching is exact on
    ``(worker, seq, step)`` so a plan is deterministic by construction —
    randomness enters only through :meth:`seeded`, which derives the
    schedule from an explicit seed.
    """

    specs: tuple[FaultSpec, ...] = field(default=())

    @classmethod
    def seeded(
        cls,
        seed: int,
        workers: int,
        seqs: Sequence[int],
        steps: Sequence[str] = STEPS,
        action: str = "crash",
        faults: int = 1,
        sticky: bool = False,
    ) -> FaultPlan:
        """A reproducible random plan: ``faults`` distinct
        ``(worker, seq, step)`` picks drawn from ``random.Random(seed)``.
        """
        rng = random.Random(seed)
        picks: set[tuple[int, int, str]] = set()
        while len(picks) < min(faults, workers * len(seqs) * len(steps)):
            picks.add(
                (
                    rng.randrange(workers),
                    seqs[rng.randrange(len(seqs))],
                    steps[rng.randrange(len(steps))],
                )
            )
        specs = tuple(
            FaultSpec(worker=w, seq=q, step=s, action=action, sticky=sticky)
            for w, q, s in sorted(picks)
        )
        return cls(specs=specs)

    def fire(self, worker: int, seq: int, step: str) -> None:
        """Execute any fault scheduled for this worker/seq/step (called
        worker-side at each instrumented boundary)."""
        for spec in self.specs:
            if (spec.worker, spec.seq, spec.step) != (worker, seq, step):
                continue
            if spec.action == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.action == "hang":
                time.sleep(HANG_SECONDS)
            else:
                time.sleep(spec.delay)

    def pruned(self, worker: int, up_to_seq: int) -> FaultPlan:
        """The plan a respawned ``worker`` should run under: non-sticky
        faults for seqs at or below ``up_to_seq`` have fired (workers
        serve their pipe in order) and must not re-fire on replay."""
        kept = tuple(
            spec
            for spec in self.specs
            if spec.sticky
            or spec.worker != worker
            or spec.seq > up_to_seq
        )
        return FaultPlan(specs=kept)

    def __bool__(self) -> bool:
        return bool(self.specs)
