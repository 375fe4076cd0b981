"""OpenFlow v1.3 data-plane model.

This package is a from-scratch implementation of the parts of the OpenFlow
switch model the paper builds on:

- :mod:`repro.openflow.fields` — the OXM match-field registry, including
  the 15 common fields of the paper's Table II with their widths and
  required matching methods (EM / RM / LPM).
- :mod:`repro.openflow.match` — per-field match predicates (exact, masked,
  prefix, range) and the multi-field :class:`Match`.
- :mod:`repro.openflow.flow` / :mod:`repro.openflow.table` — flow entries
  with priorities, counters and timeouts, and the single flow table with
  highest-priority-match semantics.
- :mod:`repro.openflow.instructions` / :mod:`repro.openflow.actions` — the
  instruction set introduced with multiple tables in OpenFlow v1.1
  (Goto-Table, Write-Actions, ...) and the action vocabulary.
- :mod:`repro.openflow.pipeline` — the multiple-table pipeline: action-set
  accumulation, metadata passing, forward-only Goto-Table, table-miss
  handling (send to controller, as in the paper's Section IV.C).
"""

from repro.openflow.actions import (
    Action,
    GroupAction,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
    SetQueueAction,
    CONTROLLER_PORT,
)
from repro.openflow.errors import (
    OpenFlowError,
    PipelineError,
    TableFullError,
    UnknownFieldError,
)
from repro.openflow.fields import (
    MatchMethod,
    FieldDef,
    FieldRegistry,
    OXM_FIELDS,
    REGISTRY,
    paper_table2_fields,
)
from repro.openflow.flow import FlowEntry, FlowStats
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    Instruction,
    InstructionSet,
    Meter,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import (
    ExactMatch,
    FieldMatch,
    MaskedMatch,
    Match,
    PrefixMatch,
    RangeMatch,
    WildcardMatch,
)
from repro.openflow.pipeline import (
    MissPolicy,
    OpenFlowPipeline,
    PathOutcome,
    PipelineResult,
)
from repro.openflow.table import FlowTable

__all__ = [
    "Action",
    "ApplyActions",
    "ClearActions",
    "CONTROLLER_PORT",
    "ExactMatch",
    "FieldDef",
    "FieldMatch",
    "FieldRegistry",
    "FlowEntry",
    "FlowStats",
    "FlowTable",
    "GotoTable",
    "GroupAction",
    "Instruction",
    "InstructionSet",
    "MaskedMatch",
    "Match",
    "MatchMethod",
    "Meter",
    "MissPolicy",
    "OpenFlowError",
    "OpenFlowPipeline",
    "OutputAction",
    "OXM_FIELDS",
    "PathOutcome",
    "PipelineError",
    "PipelineResult",
    "PopVlanAction",
    "PrefixMatch",
    "PushVlanAction",
    "RangeMatch",
    "REGISTRY",
    "SetFieldAction",
    "SetQueueAction",
    "TableFullError",
    "UnknownFieldError",
    "WildcardMatch",
    "WriteActions",
    "WriteMetadata",
    "paper_table2_fields",
]
