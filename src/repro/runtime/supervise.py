"""Worker supervision: failure taxonomy, budgets and the wedge deadline.

The parent-side policy objects the recovery layer in
:mod:`repro.runtime.shard` is built on (the one wait that applies them
is ``ShardedBatchPipeline._await``):

**Failure taxonomy.**  Every worker failure is classified as one of

- *crash* — the process died (its sentinel fired with a dry pipe, or
  the pipe raised ``EOFError``/``OSError``), or it sent a frame the
  parent cannot accept (unknown tag, wrong arity, a reply nobody is
  waiting for) and is killed for it;
- *wedge* — the process is alive but the replies being waited for have
  made no progress within the configured deadline; the parent kills
  the worker owing the oldest one, after which it is handled like a
  crash;
- *poison batch* — the same batch killed a worker twice.  Replaying it
  a third time would loop forever, so it is classified in-process
  instead (results stay bitwise-identical — see the replay invariant
  below).

**Replay invariant.**  Every submitted batch pins its mutation-log
prefix and entry order at submission (PR 4), and request blocks are
parent-owned and immutable while in flight.  A replacement worker
built from the current :class:`~repro.runtime.shard.PipelineSpec`
therefore reproduces the lost worker's replies *bitwise-identically*
by replaying each lost seq in order with the log suffix recomputed
from its fresh cursor — recovery is a re-send, never a re-encode, and
the parent's merged results and flow stats cannot tell a
replayed batch from a first-try one.

**Budgets and degradation.**  Each worker may be respawned
``restart_budget`` times; past that it is disabled and its shard's
traffic is classified in-process on the parent's own replica — the one
degraded mode, which preserves bitwise-identical results by the same
replay invariant.

``docs/architecture.md`` ("Supervision") situates this layer in the
runtime stack; with shared sealed rule state
(:mod:`repro.runtime.rulestate`) respawn is O(1) in rules, so the
recovery path stays cheap at 10^5+ rule tables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Literal

FailureKind = Literal["crash", "wedge"]


@dataclass(frozen=True)
class SupervisionConfig:
    """Parent-side failure policy for one sharded runner.

    Args:
        deadline: seconds a collect wait may go since the workers owing
            the awaited replies last delivered one (or since the wait
            began) before the worker owing the oldest is declared
            *wedged* and killed — one definition for every collect
            call.  ``None`` (the default) waits indefinitely — crash
            detection via the process sentinel stays armed, wedge
            detection is opt-in.
        restart_budget: respawns allowed per worker before its shard
            is permanently served in-process.  ``0`` disables
            respawning — the first failure degrades the shard.
    """

    deadline: float | None = None
    restart_budget: int = 2

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.restart_budget < 0:
            raise ValueError(
                f"restart budget must be >= 0, got {self.restart_budget}"
            )


@dataclass
class SupervisionStats:
    """Cumulative recovery counters (all zero on a healthy run)."""

    crashes: int = 0
    wedges: int = 0
    restarts: int = 0
    replayed_batches: int = 0
    poison_batches: int = 0
    inline_packets: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class WorkerSupervisor:
    """Per-runner supervision state: failure counts, degraded workers
    and the poison-batch ledger."""

    workers: int
    config: SupervisionConfig = field(default_factory=SupervisionConfig)
    stats: SupervisionStats = field(default_factory=SupervisionStats)
    failures: list[int] = field(default_factory=list)
    disabled: set[int] = field(default_factory=set)
    #: seq → how many workers died holding it at the head of their
    #: pending queue; two deaths classify the batch as poison.
    seq_deaths: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.failures:
            self.failures = [0] * self.workers

    def record_failure(self, worker: int, kind: FailureKind) -> None:
        if kind == "wedge":
            self.stats.wedges += 1
        else:
            self.stats.crashes += 1
        self.failures[worker] += 1

    def record_death_at(self, seq: int) -> bool:
        """Note that a worker died with ``seq`` at the head of its
        pending queue; True once that makes the batch poison."""
        deaths = self.seq_deaths.get(seq, 0) + 1
        self.seq_deaths[seq] = deaths
        poisoned = deaths >= 2
        if poisoned:
            self.stats.poison_batches += 1
        return poisoned

    def within_budget(self, worker: int) -> bool:
        return self.failures[worker] <= self.config.restart_budget

    def disable(self, worker: int) -> None:
        self.disabled.add(worker)

    def reset(self) -> None:
        """Forget per-run state (a closed runner respawns a full fleet);
        cumulative :attr:`stats` survive for reporting."""
        self.failures = [0] * self.workers
        self.disabled.clear()
        self.seq_deaths.clear()
