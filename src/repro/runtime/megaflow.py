"""Pipeline-level megaflow (wildcard) cache — the second OVS cache tier.

The microflow cache (:mod:`repro.runtime.cache`) is exact-match on a
table's full field tuple, so it only pays off when the *same* header
recurs.  Open vSwitch's answer to wide traffic is the **megaflow**: one
cached entry keyed only by the bits the lookup actually consulted, so a
single entry covers an entire traffic aggregate — every packet that
agrees with the original on the consulted bits provably classifies
identically, whole-pipeline.

Capture has one scalar specification and one batched implementation.
The specification is ``OpenFlowPipeline.process(fields, mask=recorder)``
with a :class:`MegaflowRecorder` as the sink:

- every visited table is tagged ``(table_id, version)`` — the table's
  mutation counter at lookup time;
- every table lookup folds in a per-field bitmask of the bits the
  search outcome depended on.  The decomposition path reports once
  per field, the OR of its *partition engines'* consulted bits from
  the table's one search, ``search_keys`` (an empty LUT/range structure
  consults nothing, a trie consults down to the level its walk
  terminates at — see ``PartitionEngine.probe``); the behavioural scan
  reports each evaluated entry's predicate masks;
- header rewrites (Apply-Actions set-field, Write-Metadata) are marked
  as *derived*: consulting a derived value adds nothing to the mask
  over the original packet, because the rewrite itself is pinned by the
  bits already in the mask.

The runtime never runs it: :class:`~repro.runtime.walk.ColumnarWalk`
captures the same mask and table route for a whole batch of misses at
once, per distinct capture state, and the tests hold the two equal.

What is cached per aggregate is a row: its path's reference
(:data:`~repro.openflow.pipeline.PathRef`, shared by the aggregates the
installing batch put along the path), the route's version tags and the
path's credit lanes — no object per aggregate.  Whoever reads a hit
replays the path once (:class:`~repro.runtime.batch.ColumnarOutcomes`)
and materialises it onto the packet (:func:`replay_template`): original
fields, plus the outcome's ``overrides``, the recorded final values of
every rewritten field.

**Invalidation is incremental.**  Each aggregate carries its
visited-table version tags and is revalidated lazily on hit: a flow-mod
on table *t* bumps only ``t.version``, so aggregates whose path never
consulted *t* keep hitting — no whole-cache flush, unlike the PR-1
microflow rule.  (An aggregate that never *reached* a mutated table is
unaffected by it: its path is fully determined by the tables it did
visit.)

Lookup is tuple-space search over the distinct masks in the cache
(typically a handful — one per table-combination a traversal can
touch); any matching aggregate is sound, so the first hit wins.  The cache
has one index (per mask, the packed ``value & mask`` bytes of
:meth:`~repro.packet.batch.PacketBatch.masked_key_codes`), one probe
(:meth:`MegaflowCache.probe`) and one install
(:meth:`MegaflowCache.install_batch`), all over columnar batches.

**A hit is an integer gather.**  A batch's column store keys each mask
once — its distinct packed keys plus one dense code per row — so the
probe moves positions around as integer codes with numpy, touches a
``bytes`` key once per distinct code, and does the cache's own
bookkeeping (hit and miss counts, LRU stamps) with integer work and no
call per aggregate: aggregates are rows, the LRU is a stamp lane over
them, and what each one credits is a row of lanes the probe gathers.
What it hands back is a code lane over those aggregates, the shape
:class:`~repro.runtime.batch.ColumnarOutcomes` holds.  The probe counts no packets or bytes per aggregate and credits
no flow stats: only the runner that owns the entries does, once per
batch (:func:`~repro.runtime.batch.credit_outcomes`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.openflow.flow import SINK
from repro.openflow.pipeline import (
    OpenFlowPipeline,
    PathOutcome,
    PathRef,
    PipelineResult,
)
from repro.packet.batch import IndexArray, PacketBatch

#: Mask signature: ``((field_name, bitmask), ...)`` sorted by field.
MaskSig = tuple[tuple[str, int], ...]

DEFAULT_MEGAFLOW_CAPACITY = 4096

#: The stamp of a free aggregate row: above every live one.
_FREE = np.iinfo(np.int64).max

#: ``(table, version)`` per visited table: the table object and its
#: mutation counter when the traversal was looked up.
VersionChecks = tuple[tuple[Any, int], ...]


class MegaflowRecorder:
    """Accumulates one traversal's consulted bits, rewrites and tables.

    Duck-typed as the ``mask`` sink accepted by ``FlowTable.lookup``,
    ``OpenFlowLookupTable.lookup`` and ``OpenFlowPipeline.process``.
    """

    __slots__ = ("fields", "rewritten", "tables")

    def __init__(self) -> None:
        #: Consulted bits per *original* packet field.
        self.fields: dict[str, int] = {}
        #: Fields overwritten so far (their values are traversal-derived).
        self.rewritten: set[str] = set()
        #: ``(table_id, version)`` per visited table, in visit order.
        self.tables: list[tuple[int, int]] = []

    def consult(self, field_name: str, bitmask: int) -> None:
        if bitmask and field_name not in self.rewritten:
            self.fields[field_name] = self.fields.get(field_name, 0) | bitmask

    def mark_rewritten(self, field_name: str) -> None:
        self.rewritten.add(field_name)

    def note_table(self, table_id: int, version: int) -> None:
        self.tables.append((table_id, version))

    def mask_signature(self) -> MaskSig:
        return tuple(sorted(self.fields.items()))


def replay_template(
    outcome: PathOutcome, packet_fields: Mapping[str, int]
) -> PipelineResult:
    """Materialise a path's outcome onto one packet: a fresh, mutable
    :class:`PipelineResult` whose ``final_fields`` are the packet's
    fields plus the outcome's rewrite ``overrides``.

    The one place the batched runtime builds a per-packet result
    (:class:`repro.runtime.batch.ColumnarOutcomes`, in-process and
    sharded alike), and only for a position somebody reads — direct
    construction (no ``__init__`` dispatch, no default factories): this
    is the hottest allocation in the runtime.  Every list is the
    result's own, so a reader mutating it never reaches the shared
    outcome.
    """
    final_fields = dict(packet_fields)
    if outcome.overrides:
        final_fields.update(outcome.overrides)
    result = PipelineResult.__new__(PipelineResult)
    result.matched_entries = list(outcome.matched_entries)
    result.applied_actions = list(outcome.applied_actions)
    result.output_ports = list(outcome.output_ports)
    result.sent_to_controller = outcome.sent_to_controller
    result.dropped = outcome.dropped
    result.metadata = outcome.metadata
    result.tables_visited = list(outcome.tables_visited)
    result.final_fields = final_fields
    return result


class MegaflowCache:
    """LRU wildcard cache over whole-pipeline results.

    Args:
        pipeline: the pipeline whose tables' ``version`` counters drive
            incremental invalidation.
        capacity: maximum cached aggregates across all masks.
    """

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        capacity: int = DEFAULT_MEGAFLOW_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.pipeline = pipeline
        self.capacity = capacity
        #: The one index: per mask (in first-install order — the probe
        #: order), packed ``value & mask`` key -> aggregate row.
        self._by_mask: dict[MaskSig, dict[bytes, int]] = {}
        #: The aggregate rows, one lane each: the mask and key that
        #: index the row (``None`` on a free row), its entry path's
        #: reference, its route's ``(table, version)`` tags (one tuple
        #: per route, shared; ``()`` on a free row), and the LRU as a
        #: stamp lane — a row's
        #: stamp is the clock at its last hit or install, a free row's
        #: :data:`_FREE`, so the least recently used aggregate is the
        #: live row with the lowest stamp.
        self._masks: list[MaskSig | None] = []
        self._keys: list[bytes | None] = []
        self._paths: list[PathRef | None] = []
        self._versions: list[VersionChecks] = []
        self._free: list[int] = []
        self._stamp = np.full(16, _FREE, dtype=np.int64)
        self._clock = 0
        #: Each row's credit lanes (the counter rows its path matched,
        #: then its kind), which a hit gathers.
        self._credits = np.full(
            (16, len(pipeline.tables) + 1), SINK, dtype=np.int64
        )
        #: Eviction candidates: the lowest-stamped rows, lowest last,
        #: and the clock when they were chosen (see :meth:`_evict`).
        self._victims: list[int] = []
        self._chosen_at = 0
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.invalidated = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._keys) - len(self._free)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mask_count(self) -> int:
        """Distinct masks probed per lookup (the tuple-space width)."""
        return len(self._by_mask)

    def probe_batch(self, batch: PacketBatch) -> list[PathRef | None]:
        """:meth:`probe` per batch *position*: the entry path of the
        valid aggregate (``None`` on miss), the cache's own bookkeeping
        done.  It credits no flow stats — whoever owns the entries
        credits them from the code lane :meth:`probe` returns — and
        replays nothing (see :class:`repro.runtime.batch.ColumnarOutcomes`).
        """
        found, _, lane, _ = self.probe(batch)
        # Code -1 (a miss) reads the trailing ``None``.
        return list(map([*found, None].__getitem__, lane.tolist()))

    def probe(
        self, batch: PacketBatch
    ) -> tuple[list[PathRef], np.ndarray, IndexArray, IndexArray]:
        """The one probe: vectorized tuple-space search and the cache's
        own hit bookkeeping, with integer gathers per *position* and
        Python work per *distinct masked key* and per *aggregate hit*
        only.

        Per cached mask, in first-install order, the still-unresolved
        positions gather their key codes off the store's memoized
        :meth:`~repro.packet.batch.PacketBatch.masked_key_codes`; each
        distinct code is probed against the mask's index and its
        aggregate version-checked once (a stale one — a visited table's
        version moved — drops on probe, the incremental-invalidation
        path, and every position sharing it goes on to the later
        masks), and the answers scatter back to the positions through
        the code lane, first hit per position winning.

        Then the cache counts its misses (the positions left pending)
        and hits (the rest), and stamps every aggregate hit with the
        clock plus its *last* hit position — one ``np.maximum.at`` and
        one assignment to the stamp lane, leaving the LRU order probing
        the packets one by one would leave.  Nothing is counted per
        aggregate and no flow stats are credited here: the entries'
        owner counts and credits them from the code lane
        (:func:`~repro.runtime.batch.credit_outcomes`).

        Returns the entry paths of the aggregates hit (in first-found
        order), their credit lanes (gathered off their rows), one code
        per position indexing them (``-1`` on a miss) and the missed
        positions (ascending).
        """
        pick = batch.pick
        size = len(pick)
        versions = self._versions
        #: Aggregate rows hit, in first-found order; position code
        #: ``c > 0`` means ``found[c - 1]``, code 0 is the miss bucket.
        found: list[int] = []
        codes = np.zeros(size, dtype=np.int64)
        pending = positions = np.arange(size, dtype=np.int64)
        rows = pick
        # A snapshot: dropping a mask's last aggregate removes the mask.
        for mask, index in tuple(self._by_mask.items()):
            keys, row_codes = batch.masked_key_codes(mask)
            key_codes = row_codes[rows]
            # Positions are unique, so exactly one of each key code's
            # positions reads itself back: one representative per code.
            answer = np.empty(len(keys), dtype=np.int64)
            answer[key_codes] = pending
            distinct = key_codes[answer[key_codes] == pending]
            resolved = []
            before = len(found)
            for code in distinct.tolist():
                row = index.get(keys[code])
                if row is not None:
                    for table, version in versions[row]:
                        if table.version != version:
                            self._drop(row)
                            self.invalidated += 1
                            break
                    else:
                        found.append(row)
                        resolved.append(len(found))
                        continue
                resolved.append(0)
            if len(found) == before:
                continue  # nothing hit: every position stays pending
            answer[distinct] = resolved
            hit = answer[key_codes]
            codes[pending] = hit
            if len(found) - before == len(resolved):
                pending = pending[:0]  # every key hit: nothing pending
                break
            missed = hit == 0
            pending, rows = pending[missed], rows[missed]
        self.misses += len(pending)
        self.hits += size - len(pending)
        rows = np.fromiter(found, np.int64, len(found))
        if found:
            last = np.zeros(len(found) + 1, dtype=np.int64)
            np.maximum.at(last, codes, positions)
            self._stamp[rows] = self._clock + last[1:]
        self._clock += size
        codes -= 1
        paths: list[Any] = list(map(self._paths.__getitem__, found))
        return paths, self._credits[rows], codes, pending

    def install_batch(
        self,
        batch: PacketBatch,
        positions: IndexArray,
        masks: Sequence[MaskSig],
        mask_codes: IndexArray,
        paths: Sequence[PathRef],
        path_codes: IndexArray,
        credits: np.ndarray,
        versions: Sequence[VersionChecks],
    ) -> None:
        """The one install: cache the captured paths of one batch's
        misses, each for its whole aggregate.

        Position ``positions[j]`` of ``batch`` — the *original* packet,
        pre-rewrite — consulted mask ``masks[mask_codes[j]]`` and took
        path ``paths[path_codes[j]]``, whose credit lanes are
        ``credits[path_codes[j]]`` and whose route's version tags are
        ``versions[path_codes[j]]`` (all shared across positions — one
        per distinct entry path, never one per packet).  Keys come off
        the lanes: per distinct mask, the batch's memoized
        :meth:`~repro.packet.batch.PacketBatch.masked_key_codes`,
        gathered per position by code.  Aggregates are stored one per
        position, **in position order**, into rows of lanes — no object
        per aggregate — so installs, same-batch overwrites, LRU order
        and evictions land as if the packets had been installed one by
        one.
        """
        rows = batch.pick[positions]
        keys_of = []
        key_codes = np.empty(len(positions), dtype=np.int64)
        for mask_code, mask in enumerate(masks):
            keys, row_codes = batch.masked_key_codes(mask)
            keys_of.append(keys)
            chosen = mask_codes == mask_code
            key_codes[chosen] = row_codes[rows[chosen]]
        store, size = self._store, len(positions)
        codes = path_codes.tolist()
        stored = [
            store(masks[mask_code], keys_of[mask_code][key_code], paths[code], versions[code], size)
            for mask_code, key_code, code in zip(
                mask_codes.tolist(), key_codes.tolist(), codes
            )
        ]
        self._victims.clear()
        if stored:
            # A row installed twice holds its later install: each row
            # takes the credit lanes of the last position it took.
            last = dict(zip(stored, codes))
            self._credits[list(last)] = credits[list(last.values())]

    def flush(self) -> None:
        """Drop every cached aggregate (explicit only; never automatic)."""
        self._by_mask.clear()
        self._masks.clear()
        self._keys.clear()
        self._paths.clear()
        self._versions.clear()
        self._free.clear()
        self._stamp[:] = _FREE

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _store(
        self,
        mask: MaskSig,
        key: bytes,
        path: PathRef,
        versions: VersionChecks,
        batch: int,
    ) -> int:
        """Put one aggregate in a row of its own (an aggregate replacing
        a same-key one takes over its row), stamp it most recently
        used, count the install and evict the least recently used beyond
        capacity; returns the row.  ``batch`` is the size of the
        install's batch: no more can evict in it."""
        index = self._by_mask.get(mask)
        if index is None:
            index = self._by_mask[mask] = {}
        row = index.get(key)
        new = row is None
        if row is None:
            if self._free:
                row = self._free.pop()
                self._masks[row], self._keys[row] = mask, key
            else:
                row = len(self._keys)
                self._masks.append(mask)
                self._keys.append(key)
                self._paths.append(None)
                self._versions.append(())
                if row == len(self._stamp):
                    self._grow()
            index[key] = row
        self._paths[row], self._versions[row] = path, versions
        self._stamp[row] = self._clock
        self._clock += 1
        self.installs += 1
        # Only a new row can take the cache past its capacity.
        if new and len(self._keys) - len(self._free) > self.capacity:
            self._evict(batch)
            self.evicted += 1
        return row

    def _grow(self) -> None:
        """Double the row lanes."""
        self._stamp = np.concatenate([self._stamp, np.full_like(self._stamp, _FREE)])
        self._credits = np.concatenate(
            [self._credits, np.full_like(self._credits, SINK)]
        )

    def _evict(self, batch: int) -> None:
        """Drop the live row with the lowest stamp.

        Candidates come from one partial sort of the stamp lane: the
        ``batch`` lowest-stamped rows — at least as many as the batch
        can still evict — taken lowest first.  A candidate freed, or stamped since
        it was chosen (at or above the clock then), is skipped; every
        row left out, or stamped since, has a higher stamp than any
        candidate, so the first candidate left is the least recently
        used row.  The sort is redone only when the candidates run
        out."""
        stamp, victims = self._stamp, self._victims
        while True:
            if not victims:
                live = len(self._keys)
                take = min(batch, live - 1)
                chosen = np.argpartition(stamp[:live], take)[: take + 1]
                victims.extend(chosen[np.argsort(stamp[chosen])[::-1]].tolist())
                self._chosen_at = self._clock
            row = victims.pop()
            # Skipped if freed, or stamped since it was chosen.
            if self._keys[row] is not None and stamp[row] < self._chosen_at:
                self._drop(row)
                return

    def _drop(self, row: int) -> None:
        """Free one aggregate row: out of its mask's index, its path
        reference let go (so its entries can be collected)."""
        mask, key = self._masks[row], self._keys[row]
        assert mask is not None and key is not None
        index = self._by_mask[mask]
        del index[key]
        if not index:
            del self._by_mask[mask]
        self._masks[row] = self._keys[row] = self._paths[row] = None
        self._versions[row] = ()
        self._free.append(row)
        self._stamp[row] = _FREE
