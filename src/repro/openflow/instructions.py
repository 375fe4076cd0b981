"""OpenFlow instructions.

Instructions are attached to flow entries and direct pipeline processing.
They were introduced together with multiple tables in OpenFlow v1.1; the
two the paper relies on (Section IV.C) are **Goto-Table** (forward the
packet to a later table) and **Write-Actions** (merge actions into the
accumulated action set).  The remaining v1.3 instructions are implemented
for completeness: Apply-Actions, Clear-Actions, Write-Metadata and Meter.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.openflow.actions import Action, OutputAction, SetFieldAction
from repro.openflow.errors import PipelineError
from repro.util.bits import mask_of

METADATA_BITS = 64


class Instruction:
    """Base class for all instructions.  Immutable value objects."""

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GotoTable(Instruction):
    """Continue processing at a later table of the pipeline."""

    table_id: int

    def __post_init__(self) -> None:
        if self.table_id < 0:
            raise PipelineError(f"invalid table id {self.table_id}")

    def describe(self) -> str:
        return f"goto_table:{self.table_id}"


@dataclass(frozen=True)
class WriteActions(Instruction):
    """Merge actions into the packet's accumulated action set."""

    actions: tuple[Action, ...]

    def __init__(self, actions: Iterable[Action]) -> None:
        object.__setattr__(self, "actions", tuple(actions))

    def describe(self) -> str:
        inner = ",".join(a.describe() for a in self.actions)
        return f"write_actions({inner})"


@dataclass(frozen=True)
class ApplyActions(Instruction):
    """Execute actions immediately, in order, while pipeline continues."""

    actions: tuple[Action, ...]

    def __init__(self, actions: Iterable[Action]) -> None:
        object.__setattr__(self, "actions", tuple(actions))

    def describe(self) -> str:
        inner = ",".join(a.describe() for a in self.actions)
        return f"apply_actions({inner})"


@dataclass(frozen=True)
class ClearActions(Instruction):
    """Empty the accumulated action set."""

    def describe(self) -> str:
        return "clear_actions"


@dataclass(frozen=True)
class WriteMetadata(Instruction):
    """Update the 64-bit metadata register: ``meta = meta & ~mask | value``."""

    value: int
    mask: int = mask_of(METADATA_BITS)

    def __post_init__(self) -> None:
        if self.value & ~mask_of(METADATA_BITS) or self.mask & ~mask_of(METADATA_BITS):
            raise PipelineError("metadata value/mask exceed 64 bits")
        if self.value & ~self.mask:
            raise PipelineError("metadata value has bits outside the mask")

    def apply(self, metadata: int) -> int:
        return (metadata & ~self.mask) | self.value

    def describe(self) -> str:
        return f"write_metadata:{self.value:#x}/{self.mask:#x}"


@dataclass(frozen=True)
class Meter(Instruction):
    """Direct the packet to a meter (rate limiting); modelled as a tag."""

    meter_id: int

    def describe(self) -> str:
        return f"meter:{self.meter_id}"


class CompiledStep(NamedTuple):
    """One entry's instructions flattened for execution, fields in
    OpenFlow v1.3 §5.9 order (Meter is a no-op tag and has no field).

    The single executable form of an :class:`InstructionSet`: the scalar
    pipeline, the dict wave loop and the columnar miss path all advance
    a packet by reading these fields top to bottom, so the type order
    is decided once, in :attr:`InstructionSet.compiled`.
    """

    #: Apply-Actions, executed immediately and in order.
    apply: tuple[Action, ...]
    #: Clear-Actions empties the action set *before* ``write`` merges.
    clear: bool
    #: Write-Actions, merged into the action set.
    write: tuple[Action, ...]
    #: Write-Metadata as ``register = register & keep | value``
    #: (``None`` when the entry leaves the register alone).
    metadata: tuple[int, int] | None
    #: Goto-Table target, or ``None`` when processing ends here.
    goto: int | None
    #: Header fields the immediately executed part overwrites before
    #: the next table's lookup: Apply-Actions set-fields, then
    #: ``metadata`` when Write-Metadata is present.  Write-Actions
    #: set-fields run at pipeline end and are **not** listed — marking
    #: them early would make megaflow masks unsound by suppressing
    #: consults of still-original values.
    written: tuple[str, ...]
    #: This step in the fold of a path's counted facts
    #: (:func:`~repro.openflow.pipeline.fold_step`), as ``put << 4 |
    #: keep``: a path's fold state after the step is ``state & keep |
    #: put``.  One int, so a wave gathers a lane of them in one pass.
    counted: int


#: Fold-state bits of a path's counted facts: an Apply-Actions output
#: ran, and one went to the controller; the action set holds an output,
#: and it goes to the controller.  The action set keeps one output, the
#: latest written (``action_set_order``), so two bits describe it; they
#: are the Apply-Actions bits shifted up by two, which
#: :func:`~repro.openflow.pipeline.counted_kind` relies on.
APPLIED_OUTPUT, APPLIED_TO_CONTROLLER = 1, 2
SET_OUTPUT, SET_TO_CONTROLLER = 4, 8
_APPLIED_BITS = APPLIED_OUTPUT | APPLIED_TO_CONTROLLER


def _counted(
    apply: tuple[Action, ...], clear: bool, write: tuple[Action, ...]
) -> int:
    """One step in the counted-facts fold, as ``put << 4 | keep``: its
    Apply-Actions outputs add bits; Clear-Actions empties the action
    set, then each Write-Actions output replaces the set's one."""
    keep, put = _APPLIED_BITS | SET_OUTPUT | SET_TO_CONTROLLER, 0
    for action in apply:
        if isinstance(action, OutputAction):
            put |= APPLIED_OUTPUT | APPLIED_TO_CONTROLLER * action.to_controller
    if clear:
        keep = _APPLIED_BITS
    for action in write:
        if isinstance(action, OutputAction):
            keep = _APPLIED_BITS
            put = put & _APPLIED_BITS | SET_OUTPUT
            put |= SET_TO_CONTROLLER * action.to_controller
    return put << 4 | keep


class InstructionSet:
    """The validated, ordered instruction list of one flow entry.

    OpenFlow allows at most one instruction of each type per entry and
    defines a fixed execution order: Meter, Apply-Actions, Clear-Actions,
    Write-Actions, Write-Metadata, Goto-Table.  This class enforces both.
    """

    _ORDER: tuple[type, ...] = (
        Meter,
        ApplyActions,
        ClearActions,
        WriteActions,
        WriteMetadata,
        GotoTable,
    )

    __slots__ = ("_by_type", "_compiled")

    def __init__(self, instructions: Iterable[Instruction] = ()) -> None:
        self._by_type: dict[type, Instruction] = {}
        self._compiled: CompiledStep | None = None
        for instruction in instructions:
            kind = type(instruction)
            if kind not in self._ORDER:
                raise PipelineError(f"unknown instruction type {kind.__name__}")
            if kind in self._by_type:
                raise PipelineError(
                    f"duplicate instruction of type {kind.__name__}"
                )
            self._by_type[kind] = instruction

    def __iter__(self) -> Iterator[Instruction]:
        """Iterate in OpenFlow execution order."""
        for kind in self._ORDER:
            if kind in self._by_type:
                yield self._by_type[kind]

    def __len__(self) -> int:
        return len(self._by_type)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstructionSet):
            return NotImplemented
        return self._by_type == other._by_type

    def __repr__(self) -> str:
        return f"InstructionSet([{', '.join(i.describe() for i in self)}])"

    def get(self, kind: type) -> Instruction | None:
        """Return the instruction of the given type, if present."""
        return self._by_type.get(kind)

    def __getstate__(self) -> tuple[None, dict[str, dict[type, Instruction]]]:
        # The compiled step is a per-process cache; snapshots and
        # mutation-log submits ship the instructions alone,
        # byte-for-byte what they shipped before it existed.
        return (None, {"_by_type": self._by_type})

    def __setstate__(
        self, state: tuple[None, dict[str, dict[type, Instruction]]]
    ) -> None:
        self._by_type = state[1]["_by_type"]
        self._compiled = None

    @property
    def compiled(self) -> CompiledStep:
        """The executable form, built on first use and kept: a set is
        immutable once validated, so entries that are never matched
        never pay for one."""
        step = self._compiled
        if step is None:
            by_type = self._by_type
            apply = by_type.get(ApplyActions)
            write = by_type.get(WriteActions)
            metadata = by_type.get(WriteMetadata)
            goto = by_type.get(GotoTable)
            assert apply is None or isinstance(apply, ApplyActions)
            assert write is None or isinstance(write, WriteActions)
            assert metadata is None or isinstance(metadata, WriteMetadata)
            assert goto is None or isinstance(goto, GotoTable)
            applied = apply.actions if apply is not None else ()
            written = [
                action.field_name
                for action in applied
                if isinstance(action, SetFieldAction)
            ]
            if metadata is not None:
                written.append("metadata")
            clear = ClearActions in by_type
            writes = write.actions if write is not None else ()
            step = self._compiled = CompiledStep(
                apply=applied,
                clear=clear,
                write=writes,
                metadata=(
                    None
                    if metadata is None
                    else (
                        ~metadata.mask & mask_of(METADATA_BITS),
                        metadata.value,
                    )
                ),
                goto=goto.table_id if goto is not None else None,
                written=tuple(written),
                counted=_counted(applied, clear, writes),
            )
        return step

    @property
    def goto_table(self) -> GotoTable | None:
        instruction = self._by_type.get(GotoTable)
        assert instruction is None or isinstance(instruction, GotoTable)
        return instruction

    def describe(self) -> str:
        return "; ".join(i.describe() for i in self)
