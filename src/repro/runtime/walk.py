"""The columnar miss path: megaflow misses walk the tables as arrays.

:class:`~repro.runtime.batch.BatchPipeline.classify_columnar` hands the
positions of a :class:`~repro.packet.batch.PacketBatch` that missed the
megaflow tier to a :class:`ColumnarWalk`.  The positions advance through
the pipeline in forward-only waves — everything sitting at one table
is looked up together — and they stay **index arrays** throughout; what
a wave costs is set by how many *distinct* things it meets, not by how
many packets:

- a wave's table key is read off the batch's uint64 lanes, with a
  per-position **override lane** standing in for fields an earlier
  entry rewrote (``metadata``, Apply-Actions set-fields);
- each distinct key is probed once — in the table's
  :class:`~repro.runtime.cache.MicroflowCache` when it has one, the
  residual in one mask-capturing ``lookup_keys`` call on the table —
  and answers with an **action slot**, the matched entry's address in
  the table's :class:`~repro.core.action_table.ActionTable` (``-1``
  for a miss);
- members are grouped by slot, with one sort of the keys' slots
  (:func:`~repro.packet.batch.unique_codes`), and moved once per
  distinct *walk step* — which of the table's distinct
  :class:`~repro.openflow.instructions.CompiledStep` s an entry has, as
  far as the walk reads one, gathered off the action table's ``walk``
  lane by slot — not once per entry (metadata register, override
  lanes, next table);
- every position carries three small integer codes — its *entry path*,
  its *route* (the tables visited, with their versions) and its
  *capture state* (consulted bits so far, fields rewritten so far) —
  extended per wave over the distinct ``(code, outcome)`` pairs, and
  its *credit lanes*: each wave gathers, by slot, the matched entry's
  counter row off the action table's ``rows`` lane and writes it at
  the position's depth, and gathers the entry's counted facts off its
  ``counted`` lane and folds them into the position's
  (:func:`~repro.openflow.pipeline.fold_step`) — no entry object is
  read for either.

An entry path is a reference, a linked
:data:`~repro.openflow.pipeline.PathRef` that paths sharing a prefix
share; each node carries its entry's slot, the name a sharded reply
ships it by.  When the waves drain, each distinct path is named by its
reference, its credit lanes (the counter rows it matched, then its kind,
:func:`~repro.openflow.pipeline.counted_kind`) and the version tags of
its route; each distinct capture state becomes a mask signature, and
the caller installs from the per-position codes.  No path is replayed
here: :meth:`~repro.openflow.pipeline.OpenFlowPipeline.replay_path`
runs only for a path somebody reads
(:class:`~repro.runtime.batch.ColumnarOutcomes`).  The walk credits
nothing: the runner that owns the entries credits the credit lanes
after the batch is classified
(:func:`~repro.runtime.batch.credit_outcomes`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import repeat
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.core.action_table import ActionTable
from repro.openflow.actions import SetFieldAction
from repro.openflow.flow import SINK
from repro.openflow.instructions import CompiledStep
from repro.openflow.pipeline import (
    OpenFlowPipeline,
    PathRef,
    counted_kind,
    fold_step,
)
from repro.packet.batch import IndexArray, PacketBatch, UIntLane, unique_codes
from repro.runtime.cache import MicroflowCache
from repro.runtime.megaflow import MaskSig, VersionChecks

_LANE_MASK = 0xFFFFFFFFFFFFFFFF


class _OverrideLane:
    """The rewritten values of one header field, per batch position."""

    __slots__ = ("lanes", "written")

    def __init__(self, size: int) -> None:
        self.lanes: list[UIntLane] = [np.zeros(size, dtype=np.uint64)]
        self.written: NDArray[np.bool_] = np.zeros(size, dtype=np.bool_)

    def assign(self, positions: IndexArray, value: int | UIntLane) -> None:
        """Overwrite the field at ``positions`` — a constant (set-field)
        or one 64-bit value per position (the metadata register)."""
        if isinstance(value, int):
            words = [
                (value >> (64 * k)) & _LANE_MASK
                for k in range(max(1, (value.bit_length() + 63) // 64))
            ]
            while len(self.lanes) < len(words):
                self.lanes.append(np.zeros_like(self.lanes[0]))
            for k, lane in enumerate(self.lanes):
                lane[positions] = np.uint64(words[k] if k < len(words) else 0)
        else:
            self.lanes[0][positions] = value
            for lane in self.lanes[1:]:
                lane[positions] = np.uint64(0)
        self.written[positions] = True


class ColumnarWalk:
    """One batch's megaflow misses, walked table by table as arrays.

    After :meth:`run`, position ``missed[j]`` took ``paths[path_codes[j]]``,
    whose credit lanes are ``credits[path_codes[j]]`` and — with
    ``capture`` — whose route's version tags are
    ``versions[path_codes[j]]``, and it consulted
    ``masks[mask_codes[j]]``; :attr:`waves` counts the table visits the
    walk made, and :attr:`cache_hits` / :attr:`cache_misses` the packets
    the tables' microflow caches answered and passed on.
    """

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        caches: Mapping[int, MicroflowCache],
        batch: PacketBatch,
        capture: bool,
    ) -> None:
        self.pipeline = pipeline
        self.caches = caches
        self.batch = batch
        self.capture = capture
        size = len(batch)
        #: Entry-path code per position: an index into ``_nodes``, the
        #: path references, whose code 0 is the empty path.
        self._path: IndexArray = np.zeros(size, dtype=np.int64)
        self._nodes: list[PathRef] = [()]
        #: Credit lanes per position: the counter row matched at each
        #: depth (:data:`~repro.openflow.flow.SINK` past the path's
        #: end), then a kind column :meth:`run` fills from the entries
        #: matched (``_depth``), the counted-facts fold (``_state``)
        #: and whether the path ended in a table miss (``_missed``).
        self._credits = np.full(
            (size, len(pipeline.tables) + 1), SINK, dtype=np.int64
        )
        self._depth: IndexArray = np.zeros(size, dtype=np.int64)
        self._state: IndexArray = np.zeros(size, dtype=np.int64)
        self._missed: IndexArray = np.zeros(size, dtype=np.int64)
        #: Route code per position: an index into ``_routes``, the
        #: ``(table, version)`` tags of the tables visited so far, each
        #: read at its wave — one tuple per distinct route, shared by
        #: every path along it.
        self._route: IndexArray = np.zeros(size, dtype=np.int64)
        self._routes: list[VersionChecks] = [()]
        #: Capture-state code per position: an index into ``_captures``,
        #: whose items are ``(consulted bits per original field, fields
        #: rewritten so far)``.
        self._capture: IndexArray = np.zeros(size, dtype=np.int64)
        self._captures: list[tuple[dict[str, int], frozenset[str]]] = [
            ({}, frozenset())
        ]
        #: The metadata *register* (starts at 0 whatever the packet's
        #: own ``metadata`` field says, as in ``OpenFlowPipeline.process``).
        self._register: UIntLane = np.zeros(size, dtype=np.uint64)
        self._overrides: dict[str, _OverrideLane] = {}
        self._first_table = pipeline.tables[0].table_id
        self.waves = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.paths: list[PathRef] = []
        self.path_codes: IndexArray = self._path[:0]
        self.credits: np.ndarray = self._credits[:0]
        self.versions: list[VersionChecks] = []
        self.masks: list[MaskSig] = []
        self.mask_codes: IndexArray = self._path[:0]

    def run(self, missed: IndexArray) -> None:
        """Walk ``missed`` (batch positions, ascending) to completion."""
        #: Positions still in flight, grouped by the table they sit at,
        #: in arrival order.
        pending: dict[int, list[IndexArray]] = {self._first_table: [missed]}
        while pending:
            # Goto-Table is forward-only, so the smallest pending table
            # id is never re-entered once drained.
            table_id = min(pending)
            parts = pending.pop(table_id)
            self._wave(
                table_id,
                parts[0] if len(parts) == 1 else np.concatenate(parts),
                pending,
            )
        finished, first, self.path_codes = np.unique(
            self._path[missed], return_index=True, return_inverse=True
        )
        # One position per distinct path speaks for all that took it.
        ends = missed[first]
        self.paths = list(map(self._nodes.__getitem__, finished.tolist()))
        self.credits = self._credits[ends]
        self.credits[:, -1] = counted_kind(
            self._depth[ends],
            self._state[ends],
            self._missed[ends],
            self.pipeline.miss_policy,
        )
        if self.capture:
            self.versions = list(
                map(self._routes.__getitem__, self._route[ends].tolist())
            )
            states, codes = unique_codes(self._capture[missed])
            signature_code: dict[MaskSig, int] = {}
            remap = [
                signature_code.setdefault(
                    tuple(sorted(self._captures[state][0].items())),
                    len(signature_code),
                )
                for state in states.tolist()
            ]
            self.masks = list(signature_code)
            self.mask_codes = np.asarray(remap, dtype=np.int64)[codes]

    # ------------------------------------------------------------------
    # one wave
    # ------------------------------------------------------------------

    def _wave(
        self,
        table_id: int,
        members: IndexArray,
        pending: dict[int, list[IndexArray]],
    ) -> None:
        self.waves += 1
        table: Any = self.pipeline.table(table_id)
        slots: Sequence[int]
        masks: Sequence[Mapping[str, int] | None]
        keys, key_codes = self._keys(table.field_names, members)
        cache = self.caches.get(table_id)
        if cache is not None:
            counts = np.bincount(key_codes, minlength=len(keys)).tolist()
            slots, masks, missed = cache.lookup_keys(keys, counts, self.capture)
            self.cache_hits += len(members) - missed
            self.cache_misses += missed
        else:
            slots, masks = table.lookup_keys(keys, self.capture)

        # Group the distinct keys — and through them the members — by
        # matched slot; a table miss (slot -1, which sorts first) takes
        # the code one past the last.
        matched, codes_by_key = unique_codes(
            np.fromiter(slots, dtype=np.int64, count=len(slots))
        )
        missing = bool(matched[0] < 0)
        if missing:
            matched = matched[1:]
            codes_by_key -= 1
            codes_by_key[codes_by_key < 0] = len(matched)
        entry_codes: IndexArray = codes_by_key[key_codes]

        # The wave acts once per distinct walk step (what an entry's
        # compiled step does to a packet's walk), not once per entry:
        # table-miss members take the trailing code, which does nothing.
        actions = table.actions
        actions.compile(matched)
        walk_ids, walk_codes = unique_codes(actions.walk[matched])
        steps = list(map(actions.walks.__getitem__, walk_ids.tolist()))
        step_codes = np.concatenate((walk_codes, [len(steps)]))[entry_codes]
        if not missing:
            self._extend_paths(table_id, members, entry_codes, actions, matched)
        else:
            hit = entry_codes < len(matched)
            self._missed[members[~hit]] = 1
            if len(matched):
                self._extend_paths(
                    table_id, members[hit], entry_codes[hit], actions, matched
                )
        if self.capture:
            self._extend_routes(members, table)
            self._extend_captures(members, masks, key_codes, steps, step_codes)
        self._advance(members, step_codes, steps, pending)

    def _keys(
        self, field_names: Sequence[str], members: IndexArray
    ) -> tuple[list[tuple[int | None, ...]], IndexArray]:
        """The wave's distinct table keys (first-seen order — the order
        they are resolved and cached in) and each member's index into
        them."""
        rows = self.batch.pick[members]
        columns = [self._values(name, members, rows) for name in field_names]
        code_of: dict[tuple[int | None, ...], int] = {}
        codes = [code_of.setdefault(key, len(code_of)) for key in zip(*columns)]
        return list(code_of), np.asarray(codes, dtype=np.int64)

    def _values(
        self, name: str, members: IndexArray, rows: IndexArray
    ) -> Sequence[int | None]:
        """One field's current value per member: the batch lane, or the
        override lane where an earlier entry rewrote the field."""
        column = self.batch.column(name)
        override = self._overrides.get(name)
        if column is None and override is None:
            return [None] * len(members)
        lanes: list[UIntLane] = (
            [] if column is None else [lane[rows] for lane in column.lanes]
        )
        present: NDArray[np.bool_] | None = None
        if column is None:
            present = np.zeros(len(members), dtype=np.bool_)
        elif column.present is not None:
            present = column.present[rows].astype(np.bool_)
        if override is not None:
            written = override.written[members]
            zeros = np.zeros(len(members), dtype=np.uint64)
            lanes = [
                np.where(
                    written,
                    override.lanes[k][members] if k < len(override.lanes) else zeros,
                    lanes[k] if k < len(lanes) else zeros,
                )
                for k in range(max(len(lanes), len(override.lanes)))
            ]
            if present is not None:
                present = present | written
        values: list[int] = lanes[0].tolist()
        for k in range(1, len(lanes)):
            values = [
                low | (high << (64 * k))
                for low, high in zip(values, lanes[k].tolist())
            ]
        if present is None or present.all():
            return values
        return [
            value if there else None
            for value, there in zip(values, present.tolist())
        ]

    def _extend_paths(
        self,
        table_id: int,
        hit: IndexArray,
        entry_codes: IndexArray,
        actions: ActionTable,
        matched: IndexArray,
    ) -> None:
        """Give every distinct ``(path so far, matched entry)`` pair of
        the wave a path reference of its own and move the ``hit``
        members onto it; gather each member's matched counter row and
        counted facts off the action table's lanes by slot (``matched``
        holds the slot of each entry code), write the row at the
        member's depth and fold the facts into its own."""
        width = len(matched)
        pairs, inverse = unique_codes(self._path[hit] * width + entry_codes)
        nodes = self._nodes
        base = len(nodes)
        parents, codes = np.divmod(pairs, width)
        node_slots = matched[codes].tolist()
        nodes += zip(
            [nodes[parent] for parent in parents.tolist()],
            repeat(table_id),
            node_slots,
            map(actions.entries.__getitem__, node_slots),
        )
        self._path[hit] = base + inverse
        slots = matched[entry_codes]
        depth = self._depth[hit]
        self._credits[hit, depth] = actions.rows[slots]
        self._depth[hit] = depth + 1
        self._state[hit] = fold_step(self._state[hit], actions.counted[slots])

    def _extend_routes(self, members: IndexArray, table: Any) -> None:
        """Tag every distinct route of the wave's members with the
        table's ``(table, version)``, read now, and move the members
        onto the extended routes."""
        routes, inverse = unique_codes(self._route[members])
        tag = ((table, table.version),)
        base = len(self._routes)
        self._routes += [self._routes[route] + tag for route in routes.tolist()]
        self._route[members] = base + inverse

    def _extend_captures(
        self,
        members: IndexArray,
        key_masks: Sequence[Mapping[str, int] | None],
        key_codes: IndexArray,
        steps: Sequence[CompiledStep],
        step_codes: IndexArray,
    ) -> None:
        """Fold the wave's consulted masks into the members' capture
        states: bits of fields rewritten *before* this lookup describe
        derived values and add nothing over the original packet; the
        matched entry's own rewrites (its walk step's, ``step_codes``
        indexing ``steps``) count from the next table on."""
        # Intern the masks by content; keys resolved together share mask
        # objects, so most are recognised by identity first.
        mask_code: dict[tuple[tuple[str, int], ...], int] = {}
        code_by_id: dict[int, int] = {}
        mask_codes: list[int] = []
        for mask in key_masks:
            code = code_by_id.get(id(mask))
            if code is None:
                code = code_by_id[id(mask)] = mask_code.setdefault(
                    tuple((mask or {}).items()), len(mask_code)
                )
            mask_codes.append(code)
        masks = list(mask_code)
        # Likewise the rewrite sets, one per walk step; table-miss
        # members (the trailing code) rewrite nothing.
        written_code: dict[tuple[str, ...], int] = {}
        written_codes = [
            written_code.setdefault(step.written, len(written_code))
            for step in steps
        ]
        written_codes.append(written_code.setdefault((), len(written_code)))
        rewrites = list(written_code)
        triples, inverse = unique_codes(
            (
                self._capture[members] * len(masks)
                + np.asarray(mask_codes, dtype=np.int64)[key_codes]
            )
            * len(rewrites)
            + np.asarray(written_codes, dtype=np.int64)[step_codes]
        )
        base = len(self._captures)
        for triple in triples.tolist():
            rest, rewrite = divmod(triple, len(rewrites))
            state, mask = divmod(rest, len(masks))
            consulted, rewritten = self._captures[state]
            merged = dict(consulted)
            for name, bits in masks[mask]:
                if bits and name not in rewritten:
                    merged[name] = merged.get(name, 0) | bits
            self._captures.append((merged, rewritten.union(rewrites[rewrite])))
        self._capture[members] = base + inverse

    def _advance(
        self,
        members: IndexArray,
        step_codes: IndexArray,
        steps: Sequence[CompiledStep],
        pending: dict[int, list[IndexArray]],
    ) -> None:
        """Apply each walk step (``step_codes`` indexing ``steps``) to
        its members, in §5.9 order: Apply-Actions set-fields,
        Write-Metadata, Goto."""
        # One row per walk step plus a trailing identity row that
        # table-miss members index: nothing written, no next table.
        goto = [-1] * (len(steps) + 1)
        writers: list[tuple[int, tuple[int, int]]] = []
        for code, step in enumerate(steps):
            for action in step.apply:
                if isinstance(action, SetFieldAction):
                    self._override(action.field_name).assign(
                        members[step_codes == code], action.value
                    )
            if step.metadata is not None:
                writers.append((code, step.metadata))
            if step.goto is not None:
                goto[code] = step.goto
        if writers:
            keep = np.full(len(steps) + 1, _LANE_MASK, dtype=np.uint64)
            value = np.zeros(len(steps) + 1, dtype=np.uint64)
            writes = np.zeros(len(steps) + 1, dtype=np.bool_)
            for code, (kept, written) in writers:
                keep[code], value[code], writes[code] = kept, written, True
            writing = writes[step_codes]
            positions, codes = members[writing], step_codes[writing]
            register = (self._register[positions] & keep[codes]) | value[codes]
            self._register[positions] = register
            self._override("metadata").assign(positions, register)
        onward = np.asarray(goto, dtype=np.int64)[step_codes]
        for table_id in sorted(set(goto) - {-1}):
            pending.setdefault(table_id, []).append(members[onward == table_id])

    def _override(self, name: str) -> _OverrideLane:
        lane = self._overrides.get(name)
        if lane is None:
            lane = self._overrides[name] = _OverrideLane(len(self.batch))
        return lane
