"""The OpenFlow multiple-table pipeline (v1.1+ processing model).

A packet enters at table 0 with an empty action set and zero metadata.
Each table lookup either matches an entry — whose instructions may apply
actions immediately, merge actions into the action set, update metadata
and/or send the packet onwards with Goto-Table — or misses.  On a miss the
table-miss entry (if present) decides; otherwise the configured
:class:`MissPolicy` applies.  The paper's architecture assumes misses go to
the controller ("Send to controller", Section IV.C), so that is the
default policy here.

Processing stops when a matched entry has no Goto-Table instruction; the
accumulated action set is then executed in the OpenFlow-specified order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Any, Protocol, TypeAlias

from repro.openflow.actions import (
    Action,
    CONTROLLER_PORT,
    OutputAction,
    SetFieldAction,
    action_set_order,
)
from repro.openflow.errors import PipelineError
from repro.openflow.flow import FlowEntry
from repro.openflow.match import ConsultSink
from repro.openflow.table import FlowTable


class MaskSink(ConsultSink, Protocol):
    """A consulted-bits sink that also tracks pipeline context: which
    table versions the walk crossed and which fields it rewrote (so
    later consults of rewritten values don't widen the mask).  The
    megaflow recorder is the canonical implementation."""

    def note_table(self, table_id: int, version: int) -> None: ...

    def mark_rewritten(self, field_name: str) -> None: ...


def written_fields(entry: FlowEntry) -> tuple[str, ...]:
    """Fields an entry's *immediately executed* instructions overwrite
    (see :attr:`~repro.openflow.instructions.CompiledStep.written`)."""
    return entry.instructions.compiled.written


class MissPolicy(enum.Enum):
    """What to do when a table has no matching entry and no miss entry."""

    SEND_TO_CONTROLLER = "controller"
    DROP = "drop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class PipelineResult:
    """Outcome of processing one packet through the pipeline.

    Attributes:
        matched_entries: the entry matched in each visited table (in
            visit order); empty on a first-table miss.
        applied_actions: actions executed in order (Apply-Actions
            immediately, then the final action set).
        output_ports: ports the packet was forwarded to.
        sent_to_controller: True if any executed action (or the miss
            policy) sent the packet to the controller.
        dropped: True when processing finished with no output action.
        metadata: final value of the 64-bit metadata register.
        tables_visited: ids of the tables consulted.
        final_fields: the packet fields after any set-field rewrites.
    """

    matched_entries: list[FlowEntry] = field(default_factory=list)
    applied_actions: list[Action] = field(default_factory=list)
    output_ports: list[int] = field(default_factory=list)
    sent_to_controller: bool = False
    dropped: bool = False
    metadata: int = 0
    tables_visited: list[int] = field(default_factory=list)
    final_fields: dict[str, int] = field(default_factory=dict)

    @property
    def matched(self) -> bool:
        return bool(self.matched_entries)


@dataclass(frozen=True, slots=True)
class PathOutcome:
    """What one entry path does to any packet that takes it: a
    :class:`PipelineResult` without the packet, as an immutable value.

    :meth:`OpenFlowPipeline.replay_path` builds it; the batched runtime
    builds one per *distinct* path somebody reads and shares it across
    the positions of the batch that took the path.  Every sequence is a tuple and
    ``overrides`` holds the final value of each field the path rewrote
    as ``(name, value)`` pairs in first-write order, so ``final_fields``
    for a packet of the path is ``packet fields + overrides``.  An
    outcome holds no list and no dict: nothing done to a materialised
    result reaches it, and a cached one gives the cyclic collector no
    container to keep tracking.
    """

    matched_entries: tuple[FlowEntry, ...]
    applied_actions: tuple[Action, ...]
    output_ports: tuple[int, ...]
    sent_to_controller: bool
    dropped: bool
    metadata: int
    tables_visited: tuple[int, ...]
    overrides: tuple[tuple[str, int], ...]


#: An entry path as a reference: its last matched entry linked back to
#: the start, one ``(parent, table_id, slot, entry)`` node per entry —
#: ``slot`` the entry's action-table address in its table — and ``()``
#: for the empty path (a miss at the first table).  Paths that share a
#: prefix share its nodes, and a reference keeps its entries — and so
#: their counter rows — alive.
PathRef: TypeAlias = tuple[Any, ...]


def path_steps(path: PathRef) -> list[tuple[int, int, FlowEntry]]:
    """``(table_id, slot, entry)`` per entry of ``path``, in visit
    order."""
    steps: list[tuple[int, int, FlowEntry]] = []
    while path:
        path, table_id, slot, entry = path
        steps.append((table_id, slot, entry))
    steps.reverse()
    return steps


def path_entries(path: PathRef) -> list[FlowEntry]:
    """The entries ``path`` matched, in visit order."""
    return [entry for _, _, entry in path_steps(path)]


def fold_step(state: Any, counted: Any) -> Any:
    """One entry's step (its compiled ``counted``, ``put << 4 | keep``)
    in the fold of a path's counted facts; ints and ``int64`` lanes
    alike."""
    return state & counted & 15 | counted >> 4


def counted_kind(matched: Any, state: Any, missed: Any, policy: MissPolicy) -> Any:
    """A path's *kind*, ``4 * entries matched + 2 * sent to controller
    + dropped``: the counted facts of a path that matched ``matched``
    entries into fold ``state`` (:func:`fold_step`), then ended in a
    table miss (``missed`` 1) or ran its action set (``missed`` 0).
    The one definition of the two flags, §5.9 and the miss policy
    together: :meth:`OpenFlowPipeline.replay_path` reads its flags off
    it, and the columnar walk applies it to whole ``int64`` lanes
    (hence the arithmetic).  A finished path runs its action set, whose
    one output adds to the Apply-Actions ones, and is dropped when
    nothing output; a missed path keeps its Apply-Actions outputs and
    takes the miss policy."""
    finished = 1 - missed
    # A finished path's action-set bits land on the Apply-Actions ones.
    ends = state | (state >> 2) * finished
    sent = ends >> 1 & 1 | missed * (policy is MissPolicy.SEND_TO_CONTROLLER)
    dropped = finished * (1 - (ends & 1)) | missed * (policy is MissPolicy.DROP)
    return 4 * matched + 2 * sent + dropped


class OpenFlowPipeline:
    """An ordered sequence of flow tables with OpenFlow v1.3 semantics."""

    def __init__(
        self,
        tables: Sequence[FlowTable] | int = 2,
        miss_policy: MissPolicy = MissPolicy.SEND_TO_CONTROLLER,
    ) -> None:
        if isinstance(tables, int):
            if tables < 1:
                raise PipelineError("pipeline needs at least one table")
            tables = [FlowTable(table_id=i) for i in range(tables)]
        ids = [t.table_id for t in tables]
        if ids != sorted(set(ids)):
            raise PipelineError(f"table ids must be unique and ascending: {ids}")
        self._tables: dict[int, FlowTable] = {t.table_id: t for t in tables}
        self._order: list[int] = ids
        self.miss_policy = miss_policy

    def __len__(self) -> int:
        return len(self._order)

    @property
    def tables(self) -> list[FlowTable]:
        return [self._tables[i] for i in self._order]

    def table(self, table_id: int) -> FlowTable:
        try:
            return self._tables[table_id]
        except KeyError:
            raise PipelineError(f"pipeline has no table {table_id}") from None

    def install(self, table_id: int, entry: FlowEntry) -> None:
        """Install a flow entry whose Goto-Table, if any, targets a
        table this pipeline has; the table's ``add`` refuses a Goto that
        is not forward."""
        goto = entry.instructions.goto_table
        if goto is not None and goto.table_id not in self._tables:
            raise PipelineError(
                f"goto_table:{goto.table_id} targets a missing table"
            )
        self.table(table_id).add(entry)

    def process(
        self,
        packet_fields: Mapping[str, int],
        mask: MaskSink | None = None,
    ) -> PipelineResult:
        """Run one packet through the pipeline and execute its actions.

        ``mask``, when given, is a traversal recorder (e.g. a
        :class:`~repro.runtime.megaflow.MegaflowRecorder`) threading
        megaflow capture through the scalar path: each visited table is
        tagged with its mutation version, each lookup folds in the bits
        it consulted, and every header rewrite is marked so later
        consults of derived values stop widening the mask over the
        *original* packet.
        """
        result = PipelineResult(final_fields=dict(packet_fields))
        action_set: list[Action] = []
        table_id: int | None = self._order[0]

        while table_id is not None:
            table = self.table(table_id)
            result.tables_visited.append(table_id)
            if mask is None:
                entry = table.lookup(result.final_fields)
            else:
                mask.note_table(table_id, table.version)
                entry = table.lookup(result.final_fields, mask=mask)
            if entry is None:
                self._handle_miss(result)
                return result
            result.matched_entries.append(entry)
            table_id = self._execute_instructions(entry, action_set, result)
            if mask is not None:
                for name in written_fields(entry):
                    mask.mark_rewritten(name)

        self._execute_action_set(action_set, result)
        if mask is not None:
            # Action-set rewrites run after the last lookup; marking them
            # here (never earlier!) keeps the mask sound while letting
            # capture code derive the full set of overwritten fields.
            for action in action_set:
                if isinstance(action, SetFieldAction):
                    mask.mark_rewritten(action.field_name)
        return result

    def replay_path(self, matched: Sequence[FlowEntry]) -> PathOutcome:
        """The outcome of the entry path ``matched``, with no packet and
        no lookup: what :meth:`process` returns for any packet matching
        exactly these entries, in this order, apart from the packet's
        own fields.

        An outcome is a pure function of (entry path, miss policy), so
        the batched runtime builds one per *distinct* path a reader
        asks for — in-process and sharded alike, from a path reference
        — straight from the entries' compiled steps, in §5.9 order,
        into an immutable :class:`PathOutcome`, its two flags read off
        :func:`counted_kind` (``process`` keeps its own executor: it is
        the oracle the replay is tested against).  A
        path that still owes a table when its entries run out ended in
        a table miss there; entries left over once no Goto-Table
        remains raise :class:`PipelineError`.
        """
        entries = tuple(matched)
        visited: tuple[int, ...] = ()
        applied: tuple[Action, ...] = ()
        action_set: tuple[Action, ...] = ()
        metadata = 0
        state = 0
        rewrites: dict[str, int] = {}
        table_id: int | None = self._order[0]
        for entry in entries:
            if table_id is None:
                raise PipelineError(
                    f"entry path continues past its end: {entry.match} "
                    f"follows an entry with no Goto-Table"
                )
            visited += (table_id,)
            apply, clear, write, write_metadata, table_id, _, counted = (
                entry.instructions.compiled
            )
            state = fold_step(state, counted)
            applied += apply
            _rewrite(apply, rewrites)
            action_set = write if clear else action_set + write
            if write_metadata is not None:
                keep, value = write_metadata
                metadata = (metadata & keep) | value
                rewrites["metadata"] = metadata
        if table_id is None:
            final = action_set_order(action_set)
            applied += final
            _rewrite(final, rewrites)
        else:
            visited += (table_id,)
            if self.miss_policy is MissPolicy.SEND_TO_CONTROLLER:
                applied += (OutputAction(CONTROLLER_PORT),)
        ports = tuple(
            action.port for action in applied if isinstance(action, OutputAction)
        )
        kind = counted_kind(
            len(entries), state, table_id is not None, self.miss_policy
        )
        return PathOutcome(
            entries,
            applied,
            ports,
            bool(kind & 2),
            bool(kind & 1),
            metadata,
            visited,
            tuple(rewrites.items()),
        )

    def _execute_instructions(
        self,
        entry: FlowEntry,
        action_set: list[Action],
        result: PipelineResult,
    ) -> int | None:
        """Run one entry's instructions; returns the next table id, if any.

        OpenFlow v1.3 §5.9 mandates execution by *type* order — Meter,
        Apply-Actions, Clear-Actions, Write-Actions, Write-Metadata,
        Goto-Table — so instructions are fetched by type rather than
        trusting the order the entry happens to iterate in.  In
        particular, Clear-Actions always empties the action set *before*
        this entry's Write-Actions merges into it.
        """
        # FlowEntry.__post_init__ guarantees a validated InstructionSet;
        # its compiled step lists the parts in §5.9 order.
        apply, clear, write, metadata, goto, _, _ = entry.instructions.compiled
        for action in apply:
            self._execute_action(action, result)
        if clear:
            action_set.clear()
        if write:
            action_set.extend(write)
        if metadata is not None:
            keep, value = metadata
            result.metadata = (result.metadata & keep) | value
            result.final_fields["metadata"] = result.metadata
        return goto

    def _execute_action_set(
        self, action_set: list[Action], result: PipelineResult
    ) -> None:
        """The end of a path that matched to its last table: run the
        accumulated action set in the OpenFlow-specified order; a packet
        nothing then output is dropped."""
        for action in action_set_order(tuple(action_set)):
            self._execute_action(action, result)
        if not result.output_ports and not result.sent_to_controller:
            result.dropped = True

    def _execute_action(self, action: Action, result: PipelineResult) -> None:
        result.applied_actions.append(action)
        if isinstance(action, OutputAction):
            result.output_ports.append(action.port)
            if action.to_controller:
                result.sent_to_controller = True
        elif isinstance(action, SetFieldAction):
            action.apply(result.final_fields)

    def _handle_miss(self, result: PipelineResult) -> None:
        if self.miss_policy is MissPolicy.SEND_TO_CONTROLLER:
            action = OutputAction(CONTROLLER_PORT)
            result.applied_actions.append(action)
            result.output_ports.append(CONTROLLER_PORT)
            result.sent_to_controller = True
        else:
            result.dropped = True


def _rewrite(actions: tuple[Action, ...], fields: dict[str, int]) -> None:
    """Apply the set-field rewrites among ``actions`` to ``fields``."""
    for action in actions:
        if isinstance(action, SetFieldAction):
            action.apply(fields)
