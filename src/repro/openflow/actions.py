"""OpenFlow actions.

Actions are what a flow entry ultimately does to a packet: forward it,
rewrite a header field, push or pop a VLAN tag, hand it to a group, or send
it to the controller.  The paper's architecture stores these in the action
tables addressed by the index calculation (Section IV.C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.openflow.errors import OpenFlowError
from repro.openflow.fields import REGISTRY, FieldRegistry

#: Reserved port numbers from the OpenFlow 1.3 specification.
MAX_PORT = 0xFFFFFF00
CONTROLLER_PORT = 0xFFFFFFFD
FLOOD_PORT = 0xFFFFFFFB
ALL_PORT = 0xFFFFFFFC
IN_PORT_PORT = 0xFFFFFFF8


class Action:
    """Base class for all actions.  Immutable value objects."""

    #: Order key within an OpenFlow action *set* (spec §5.10: the action
    #: set is executed in a fixed order regardless of insertion order).
    set_order: int = 50

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class OutputAction(Action):
    """Forward the packet to a port (possibly a reserved port)."""

    port: int
    set_order = 100  # output is always last in the action set

    def __post_init__(self) -> None:
        if self.port < 0:
            raise OpenFlowError(f"invalid output port {self.port}")

    @property
    def to_controller(self) -> bool:
        return self.port == CONTROLLER_PORT

    def describe(self) -> str:
        if self.to_controller:
            return "output:CONTROLLER"
        if self.port == FLOOD_PORT:
            return "output:FLOOD"
        return f"output:{self.port}"


@dataclass(frozen=True)
class GroupAction(Action):
    """Process the packet through the given group."""

    group_id: int
    set_order = 90

    def describe(self) -> str:
        return f"group:{self.group_id}"


@dataclass(frozen=True)
class SetQueueAction(Action):
    """Bind the packet to a transmit queue on the output port."""

    queue_id: int
    set_order = 40

    def describe(self) -> str:
        return f"set_queue:{self.queue_id}"


@dataclass(frozen=True)
class SetFieldAction(Action):
    """Rewrite one header field to a fixed value."""

    field_name: str
    value: int
    registry: FieldRegistry = field(
        default_factory=lambda: REGISTRY, compare=False, repr=False
    )
    set_order = 30

    def __post_init__(self) -> None:
        definition = self.registry[self.field_name]
        if not 0 <= self.value <= definition.max_value:
            raise OpenFlowError(
                f"set-field value {self.value:#x} exceeds "
                f"{self.field_name} width {definition.bits}"
            )

    def apply(self, packet_fields: dict[str, int]) -> None:
        """Apply the rewrite to an extracted-field dict in place."""
        packet_fields[self.field_name] = self.value

    def describe(self) -> str:
        return f"set_field:{self.field_name}={self.value:#x}"


@dataclass(frozen=True)
class PushVlanAction(Action):
    """Push a new outermost 802.1Q tag (ethertype 0x8100 or 0x88a8)."""

    ethertype: int = 0x8100
    set_order = 20

    def __post_init__(self) -> None:
        if self.ethertype not in (0x8100, 0x88A8):
            raise OpenFlowError(
                f"push_vlan ethertype must be 0x8100/0x88a8, got {self.ethertype:#x}"
            )

    def describe(self) -> str:
        return f"push_vlan:{self.ethertype:#x}"


@dataclass(frozen=True)
class PopVlanAction(Action):
    """Pop the outermost 802.1Q tag."""

    set_order = 10

    def describe(self) -> str:
        return "pop_vlan"


def action_set_order(actions: tuple[Action, ...]) -> tuple[Action, ...]:
    """Order actions as an OpenFlow action set would execute them.

    Within an action set, at most one action of each type is kept (the
    most recently written wins — OpenFlow spec §5.10) and execution follows
    the fixed type order, with output always last.
    """
    latest: dict[type, Action] = {}
    set_fields: dict[str, Action] = {}
    for action in actions:
        if isinstance(action, SetFieldAction):
            # set-field is per-field: one per field may live in the set.
            set_fields[action.field_name] = action
        else:
            latest[type(action)] = action
    merged = list(latest.values()) + list(set_fields.values())
    if len(merged) < 2:  # nothing to order (the common one-output set)
        return tuple(merged)
    return tuple(sorted(merged, key=lambda a: (a.set_order, a.describe())))
