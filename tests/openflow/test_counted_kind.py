"""The counted facts of an entry path have one definition.

A path's *kind* — ``4 * entries matched + 2 * sent to controller +
dropped`` — is what the batched runtime credits.  The columnar walk
folds it from the entries' compiled steps over whole ``int64`` lanes
and the sharded parent folds it per decoded path, neither replaying the
path; ``replay_path`` reads its own two flags off the same fold.  Here
the fold, scalar and on lanes, is held to the kind the replayed
outcome's *output ports* imply, on generated paths: Apply-Actions
outputs to ports and to the controller, Clear-Actions, Write-Actions
outputs that a later entry overwrites, and paths that end in a table
miss partway, under both miss policies.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import CONTROLLER_PORT, OutputAction, SetFieldAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
)
from repro.openflow.match import Match
from repro.openflow.pipeline import (
    MissPolicy,
    OpenFlowPipeline,
    counted_kind,
    fold_step,
)

TABLES = 5

_action = st.one_of(
    st.builds(OutputAction, st.sampled_from((1, 2, CONTROLLER_PORT))),
    st.builds(SetFieldAction, st.just("vlan_vid"), st.integers(0, 7)),
)


@st.composite
def _step(draw, goto):
    """One entry's instructions, Goto-Table ``goto`` (or none)."""
    instructions = []
    apply = draw(st.lists(_action, max_size=3))
    if apply:
        instructions.append(ApplyActions(apply))
    if draw(st.booleans()):
        instructions.append(ClearActions())
    write = draw(st.lists(_action, max_size=3))
    if write:
        instructions.append(WriteActions(write))
    if goto is not None:
        instructions.append(GotoTable(goto))
    return FlowEntry.build(Match.exact(in_port=1), 1, instructions)


@st.composite
def _entry_path(draw):
    """Entries matched in tables 0, 1, ...; the path either runs its
    action set at its last entry or misses at the table that entry's
    Goto-Table names (the empty path misses at table 0)."""
    depth = draw(st.integers(0, TABLES - 1))
    missed = depth == 0 or draw(st.booleans())
    return [
        draw(_step(table + 1 if table + 1 < depth or missed else None))
        for table in range(depth)
    ]


def _fold(entries, policy):
    """The walk's fold over one path, as the sharded decode runs it."""
    state = 0
    for entry in entries:
        state = fold_step(state, entry.instructions.compiled.counted)
    missed = not entries or entries[-1].instructions.compiled.goto is not None
    return counted_kind(len(entries), state, missed, policy), state, missed


class TestCountedKindFold:
    @settings(max_examples=300, deadline=None)
    @given(
        paths=st.lists(_entry_path(), min_size=1, max_size=6),
        policy=st.sampled_from(MissPolicy),
    )
    def test_fold_is_the_kind_replay_path_outputs_imply(self, paths, policy):
        pipeline = OpenFlowPipeline(TABLES, miss_policy=policy)
        folded = [_fold(entries, policy) for entries in paths]
        for entries, (kind, _, missed) in zip(paths, folded):
            outcome = pipeline.replay_path(entries)
            assert (len(outcome.tables_visited) > len(entries)) == missed
            ports = outcome.output_ports
            sent = CONTROLLER_PORT in ports
            dropped = policy is MissPolicy.DROP if missed else not ports
            assert (outcome.sent_to_controller, outcome.dropped) == (sent, dropped)
            assert kind == 4 * len(outcome.matched_entries) + 2 * sent + dropped
        # The walk applies the same function to whole lanes at once.
        lanes = counted_kind(
            np.array([len(entries) for entries in paths], dtype=np.int64),
            np.array([state for _, state, _ in folded], dtype=np.int64),
            np.array([missed for _, _, missed in folded], dtype=np.int64),
            policy,
        )
        assert lanes.tolist() == [kind for kind, _, _ in folded]
