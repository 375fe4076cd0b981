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

**An install is one batch's misses, in bulk.**  It leaves the cache
exactly as installing the positions one by one would — LRU order,
probe order, counters, evictions at any capacity — but works out the
batch's distinct aggregates as arrays: which positions create a row
and which rows they evict (an LRU holds the ``capacity`` most recently
used keys, and every row cached before the batch is older than every
install it makes, so the victims are the lowest stamps, one partial
sort), then scatters each row lane once and touches the index once per
aggregate new to it and once per aggregate evicted from it.

**A hit is an integer gather.**  A batch's column store keys each mask
once — its distinct packed keys plus one dense code per row — so the
probe moves positions around as integer codes with numpy, touches a
``bytes`` key once per distinct code, and does the cache's own
bookkeeping (LRU stamps) with integer work and no call per aggregate:
aggregates are rows, the LRU is a stamp lane over them, and what each
one credits is a row of lanes the probe gathers.  What it hands back is
a code lane over those aggregates, the shape
:class:`~repro.runtime.batch.ColumnarOutcomes` holds, and the missed
positions.  The probe counts no hit or miss — the runner counts both
off the missed lane (:meth:`~repro.runtime.batch.BatchPipeline.classify`)
— and no packets or bytes per aggregate, and credits no flow stats:
only the runner that owns the entries does, once per batch
(:func:`~repro.runtime.batch.credit_outcomes`).
"""

from __future__ import annotations

from collections import OrderedDict
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
        #: The aggregate rows, one lane each: the key that indexes the
        #: row under its mask (``None`` on a free row), its entry
        #: path's reference, its route's ``(table, version)`` tags (one
        #: tuple per route, shared; ``()`` on a free row), and the LRU
        #: as a stamp lane — a row's stamp is the clock at its last hit
        #: or install, a free row's :data:`_FREE`, so the least recently
        #: used aggregate is the live row with the lowest stamp.
        self._keys: list[bytes | None] = []
        self._paths: list[PathRef | None] = []
        self._versions: list[VersionChecks] = []
        #: The mask's id per row (-1 on a free row), in the registry of
        #: every mask signature ever installed: its ``_mask_ids`` and,
        #: by id, its one signature object (the key ``_by_mask`` holds).
        self._mask_of = np.full(16, -1, dtype=np.int64)
        self._mask_ids: dict[MaskSig, int] = {}
        self._mask_sigs: list[MaskSig] = []
        self._free: list[int] = []
        self._stamp = np.full(16, _FREE, dtype=np.int64)
        self._clock = 0
        #: Each row's credit lanes (the counter rows its path matched,
        #: then its kind), which a hit gathers.
        self._credits = np.full(
            (16, len(pipeline.tables) + 1), SINK, dtype=np.int64
        )
        self.installs = 0
        self.invalidated = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._keys) - len(self._free)

    @property
    def mask_count(self) -> int:
        """Distinct masks probed per lookup (the tuple-space width)."""
        return len(self._by_mask)

    def probe_batch(self, batch: PacketBatch) -> list[PathRef | None]:
        """:meth:`probe` per batch *position*: the entry path of the
        valid aggregate (``None`` on miss), the LRU stamped.  It counts
        no hit or miss and credits no flow stats — whoever owns the
        entries credits them from the code lane :meth:`probe` returns —
        and replays nothing (see
        :class:`repro.runtime.batch.ColumnarOutcomes`).
        """
        found, _, lane, _ = self.probe(batch)
        # Code -1 (a miss) reads the trailing ``None``.
        return list(map([*found, None].__getitem__, lane.tolist()))

    def probe(
        self, batch: PacketBatch
    ) -> tuple[list[PathRef], np.ndarray, IndexArray, IndexArray]:
        """The one probe: vectorized tuple-space search and the cache's
        own LRU bookkeeping, with integer gathers per *position* and
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

        Then the cache stamps every aggregate hit with the clock plus
        its *last* hit position — one ``np.maximum.at`` and one
        assignment to the stamp lane, leaving the LRU order probing the
        packets one by one would leave.  No hit or miss is counted and
        no flow stats are credited here: the runner counts the hits and
        misses off the missed lane, and the entries' owner credits them
        from the code lane (:func:`~repro.runtime.batch.credit_outcomes`).

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
        misses, each for its whole aggregate, in bulk.

        Position ``positions[j]`` of ``batch`` — the *original* packet,
        pre-rewrite — consulted mask ``masks[mask_codes[j]]`` and took
        path ``paths[path_codes[j]]``, whose credit lanes are
        ``credits[path_codes[j]]`` and whose route's version tags are
        ``versions[path_codes[j]]`` (all shared across positions — one
        per distinct entry path, never one per packet).  Keys come off
        the lanes: per distinct mask, the batch's memoized
        :meth:`~repro.packet.batch.PacketBatch.masked_key_codes`,
        gathered per position by code.

        The cache ends exactly as installing the positions one by one,
        in position order, would leave it — LRU order, index, probe
        order, ``installs`` and ``evicted`` — but the one-by-one
        installs are played over integers only: each aggregate is a
        ``(mask, key)`` code, and every row cached before the call is
        older than every install the call makes (the clock only moves
        forward), so the rows it can evict are its lowest-stamped ones,
        taken from one partial sort of the stamp lane.  Then the
        outcome is applied once: the index changes once per aggregate
        new to it and once per aggregate evicted from it, and each row
        lane is scattered once.
        """
        size = len(positions)
        rows = batch.pick[positions]
        keys_of: list[list[bytes]] = []
        key_codes = np.empty(size, dtype=np.int64)
        for mask_code, mask in enumerate(masks):
            keys, row_codes = batch.masked_key_codes(mask)
            keys_of.append(keys)
            chosen = mask_codes == mask_code
            key_codes[chosen] = row_codes[rows[chosen]]
        # The masks as ids in the registry, and each id's rows now.
        sigs = self._mask_sigs
        ids = [self._mask_ids.setdefault(mask, len(self._mask_ids)) for mask in masks]
        sigs += [mask for mask, i in zip(masks, ids) if i >= len(sigs)]
        counts = [0] * len(sigs)
        indexes: dict[int, dict[bytes, int]] = {}
        for sig, index in self._by_mask.items():
            i = self._mask_ids[sig]
            counts[i], indexes[i] = len(index), index
        # The rows cached now that the batch could evict, least recently
        # used first: it creates at most ``size`` rows and reinstalls at
        # most ``size``, so no more than twice that many are reached —
        # and none unless its creations can outgrow the capacity.
        live = len(self)
        reach = min(live, 2 * size) if live + size > self.capacity else 0
        victims: list[int] = []
        oldest_ids: list[int] = []
        if reach:
            stamps = self._stamp[: len(self._keys)]
            oldest = np.argpartition(stamps, reach - 1)[:reach]
            oldest = oldest[np.argsort(stamps[oldest])]
            victims, oldest_ids = oldest.tolist(), self._mask_of[oldest].tolist()

        # The installs one by one.  ``lru`` holds the aggregates the
        # batch touched, least recently used first, each with its last
        # position; every row cached before the batch and untouched by
        # it is older than all of them.
        width = max(map(len, keys_of))
        lru: OrderedDict[int, int] = OrderedDict()
        held: dict[int, int] = {}  # aggregate -> its row from before (-1: none)
        touched: set[int] = set()  # rows from before the batch reinstalled
        gone: set[int] = set()  # rows from before the batch evicted
        entered: dict[int, int] = {}  # mask id -> its last entry position
        emptied: set[int] = set()
        next_old = evicted = 0
        cached = [indexes.get(i, {}) for i in ids]
        for position, (aggregate, mask_code, key_code) in enumerate(
            zip(
                (mask_codes * width + key_codes).tolist(),
                mask_codes.tolist(),
                key_codes.tolist(),
            )
        ):
            if aggregate in lru:
                lru.move_to_end(aggregate)
                lru[aggregate] = position
                continue
            lru[aggregate] = position
            row = held.get(aggregate, -2)
            if row == -2:
                row = cached[mask_code].get(keys_of[mask_code][key_code], -1)
            if row >= 0 and row not in gone:
                held[aggregate] = row
                touched.add(row)
                continue
            # A new row: its mask may enter the probe order, and past
            # the capacity the least recently used row goes.
            held[aggregate] = -1
            i = ids[mask_code]
            if not counts[i]:
                entered[i] = position
            counts[i] += 1
            live += 1
            if live > self.capacity:
                while next_old < reach and victims[next_old] in touched:
                    next_old += 1
                if next_old < reach:
                    gone.add(victims[next_old])
                    i = oldest_ids[next_old]
                    next_old += 1
                else:
                    victim, _ = lru.popitem(last=False)
                    i = ids[victim // width]
                    if held[victim] >= 0:
                        gone.add(held[victim])
                        held[victim] = -1
                counts[i] -= 1
                if not counts[i]:
                    emptied.add(i)
                live -= 1
                evicted += 1

        # Apply: drop the evicted rows, rebuild the probe order, place
        # the new aggregates, scatter each lane once.
        key_lane, path_lane, version_lane = self._keys, self._paths, self._versions
        if gone:
            freed = np.fromiter(gone, dtype=np.int64, count=len(gone))
            for row, i in zip(freed.tolist(), self._mask_of[freed].tolist()):
                del indexes[i][key_lane[row]]
                key_lane[row] = path_lane[row] = None
                version_lane[row] = ()
            self._mask_of[freed] = -1
            self._stamp[freed] = _FREE
            self._free += freed.tolist()
        kept = {i: self._by_mask.pop(sigs[i], None) for i in entered.keys() | emptied}
        for i in sorted(entered, key=entered.__getitem__):
            if counts[i]:
                self._by_mask[sigs[i]] = indexes[i] = kept[i] or {}

        at = [held[aggregate] for aggregate in lru]
        fresh = [n for n, row in enumerate(at) if row < 0]
        reused = min(len(fresh), len(self._free))
        new_rows = self._free[len(self._free) - reused :][::-1]
        del self._free[len(self._free) - reused :]
        grown = len(fresh) - reused
        new_rows += range(len(key_lane), len(key_lane) + grown)
        key_lane += [None] * grown
        path_lane += [None] * grown
        version_lane += [()] * grown
        if len(key_lane) > len(self._stamp):
            self._grow(len(key_lane))
        aggregates = list(lru)
        fresh_ids = []
        for n, row in zip(fresh, new_rows):
            mask_code, key_code = divmod(aggregates[n], width)
            i, key = ids[mask_code], keys_of[mask_code][key_code]
            indexes[i][key] = at[n] = row
            key_lane[row] = key
            fresh_ids.append(i)
        self._mask_of[np.asarray(new_rows, dtype=np.int64)] = fresh_ids
        rows_at = np.asarray(at, dtype=np.int64)
        installed = np.fromiter(lru.values(), dtype=np.int64, count=len(lru))
        code = path_codes[installed]
        self._stamp[rows_at] = self._clock + installed
        self._credits[rows_at] = credits[code]
        for row, path_code in zip(at, code.tolist()):
            path_lane[row], version_lane[row] = paths[path_code], versions[path_code]
        self._clock += size
        self.installs += size
        self.evicted += evicted

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _grow(self, rows: int) -> None:
        """Double the row lanes until they hold ``rows`` rows."""
        size = len(self._stamp)
        while size < rows:
            size *= 2
        pad = size - len(self._stamp)
        self._stamp = np.concatenate([self._stamp, np.full(pad, _FREE, dtype=np.int64)])
        self._credits = np.concatenate(
            [self._credits, np.full((pad, self._credits.shape[1]), SINK, dtype=np.int64)]
        )
        self._mask_of = np.concatenate(
            [self._mask_of, np.full(pad, -1, dtype=np.int64)]
        )

    def _drop(self, row: int) -> None:
        """Free one aggregate row: out of its mask's index, its path
        reference let go (so its entries can be collected)."""
        mask, key = self._mask_sigs[self._mask_of[row]], self._keys[row]
        assert key is not None
        index = self._by_mask[mask]
        del index[key]
        if not index:
            del self._by_mask[mask]
        self._keys[row] = self._paths[row] = None
        self._versions[row] = ()
        self._mask_of[row] = -1
        self._free.append(row)
        self._stamp[row] = _FREE

