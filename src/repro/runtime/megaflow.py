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

What is cached per aggregate is its path's
:class:`~repro.openflow.pipeline.PathOutcome` — an immutable value built
once per distinct entry path of the installing batch and shared by the
aggregates that batch installed along the path.  A hit replays it
against the new packet (:func:`replay_template`): original fields, plus
the outcome's ``overrides``, the recorded final values of every
rewritten field.

**Invalidation is incremental.**  Each entry carries its visited-table
version tags and is revalidated lazily on hit: a flow-mod on table *t*
bumps only ``t.version``, so entries whose traversal never consulted
*t* keep hitting — no whole-cache flush, unlike the PR-1 microflow
rule.  (An entry that never *reached* a mutated table is unaffected by
it: its aggregate's traversal is fully determined by the tables it did
visit.)

Lookup is tuple-space search over the distinct masks in the cache
(typically a handful — one per table-combination a traversal can
touch); any matching entry is sound, so the first hit wins.  The cache
has one index (per mask, the packed ``value & mask`` bytes of
:meth:`~repro.packet.batch.PacketBatch.masked_key_codes`), one probe
(:meth:`MegaflowCache.probe`) and one install
(:meth:`MegaflowCache.install_batch`), all over columnar batches.

**A hit is an integer gather.**  A batch's column store keys each mask
once — its distinct packed keys plus one dense code per row — so the
probe moves positions around as integer codes with numpy, touches a
``bytes`` key once per distinct code, and does the cache's own
bookkeeping (hit and miss counts, LRU touch) in one pass over the
aggregates hit.  What it hands back is a code lane over those
aggregates, the shape :class:`~repro.runtime.batch.ColumnarOutcomes`
holds.  The probe counts no packets or bytes per aggregate and credits
no flow stats: only the runner that owns the entries does, once per
batch (:func:`~repro.runtime.batch.credit_outcomes`).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.openflow.pipeline import OpenFlowPipeline, PathOutcome, PipelineResult
from repro.packet.batch import IndexArray, PacketBatch

#: Mask signature: ``((field_name, bitmask), ...)`` sorted by field.
MaskSig = tuple[tuple[str, int], ...]

DEFAULT_MEGAFLOW_CAPACITY = 4096

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


class Traversal:
    """One entry path's outcome and the table versions it was built at.

    ``outcome`` is the path's immutable
    :class:`~repro.openflow.pipeline.PathOutcome` — everything a
    :class:`PipelineResult` holds but the packet's own fields, rewrites
    included as its ``overrides``.  ``version_checks`` pairs each
    visited table *object* with its mutation counter at lookup time, so
    a hit revalidates by dereferencing the table directly; the walk
    builds one tuple per route, shared by every traversal along it, and
    a decoded sharded traversal (never cached) carries ``()``.  The
    columnar miss path builds one traversal per *distinct* path and
    shares it across the positions that took it; a
    :class:`MegaflowEntry` is a traversal plus its wildcard key.
    """

    __slots__ = ("outcome", "version_checks")

    def __init__(
        self,
        outcome: PathOutcome,
        version_checks: VersionChecks,
    ) -> None:
        self.outcome = outcome
        self.version_checks = version_checks


class MegaflowEntry(Traversal):
    """One cached aggregate: mask, masked key, and the traversal."""

    __slots__ = ("mask", "key", "slot")

    def __init__(
        self,
        mask: MaskSig,
        key: bytes,
        outcome: PathOutcome,
        version_checks: VersionChecks,
    ) -> None:
        self.mask = mask
        #: The aggregate's exact ``value & mask`` key, packed as
        #: :meth:`~repro.packet.batch.PacketBatch.masked_key_codes`
        #: packs it (absence of a field is part of the key).
        self.key = key
        #: Its LRU key, built once.
        self.slot = (mask, key)
        self.outcome = outcome
        self.version_checks = version_checks


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
        #: order), packed ``value & mask`` key -> entry.
        self._by_mask: dict[MaskSig, dict[bytes, MegaflowEntry]] = {}
        self._lru: OrderedDict[tuple[MaskSig, bytes], MegaflowEntry] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.invalidated = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mask_count(self) -> int:
        """Distinct masks probed per lookup (the tuple-space width)."""
        return len(self._by_mask)

    def probe_batch(self, batch: PacketBatch) -> list[MegaflowEntry | None]:
        """:meth:`probe` per batch *position*: the valid aggregate
        (``None`` on miss), the cache's own bookkeeping done.  It
        credits no flow stats — whoever owns the entries credits them
        from the code lane :meth:`probe` returns — and replay
        materialisation is deferred to the caller (see
        :class:`repro.runtime.batch.ColumnarOutcomes`).
        """
        found, lane, _ = self.probe(batch)
        # Code -1 (a miss) reads the trailing ``None``.
        return list(map([*found, None].__getitem__, lane.tolist()))

    def probe(
        self, batch: PacketBatch
    ) -> tuple[list[MegaflowEntry], IndexArray, IndexArray]:
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
        and hits (the rest), and one pass over the aggregates hit, in
        ascending order of each one's *last* hit position (the LRU order
        probing the packets one by one would leave), touches each LRU
        slot.  Nothing is counted per aggregate and no flow stats are
        credited here: the entries' owner counts and credits them from
        the code lane (:func:`~repro.runtime.batch.credit_outcomes`).

        Returns the aggregates hit (in first-found order), one code per
        position indexing them (``-1`` on a miss) and the missed
        positions (ascending).
        """
        pick = batch.pick
        size = len(pick)
        #: Aggregates hit, in first-found order; position code ``c > 0``
        #: means ``found[c - 1]``, code 0 is the miss bucket.
        found: list[MegaflowEntry] = []
        codes = np.zeros(size, dtype=np.int64)
        pending = positions = np.arange(size, dtype=np.int64)
        rows = pick
        # A snapshot: dropping a mask's last aggregate removes the mask.
        for mask, entries in tuple(self._by_mask.items()):
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
                entry = entries.get(keys[code])
                if entry is not None:
                    for table, version in entry.version_checks:
                        if table.version != version:
                            self._drop(mask, entry.key)
                            self.invalidated += 1
                            break
                    else:
                        found.append(entry)
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
        last = np.zeros(len(found) + 1, dtype=np.int64)
        np.maximum.at(last, codes, positions)
        lru = self._lru
        for code in np.argsort(last).tolist():
            if code:  # not the miss bucket
                lru.move_to_end(found[code - 1].slot)
        codes -= 1
        return found, codes, pending

    def install_batch(
        self,
        batch: PacketBatch,
        positions: IndexArray,
        masks: Sequence[MaskSig],
        mask_codes: IndexArray,
        traversals: Sequence[Traversal],
        traversal_codes: IndexArray,
    ) -> list[MegaflowEntry]:
        """The one install: cache the captured traversals of one
        batch's misses, each for its whole aggregate.

        Position ``positions[j]`` of ``batch`` — the *original* packet,
        pre-rewrite — consulted mask ``masks[mask_codes[j]]`` and took
        ``traversals[traversal_codes[j]]`` (both shared across positions
        — one outcome per distinct entry path, never one per packet).
        Keys come off the lanes: per distinct mask, the batch's memoized
        :meth:`~repro.packet.batch.PacketBatch.masked_key_codes`,
        gathered per position by code.  Entries are stored one per
        position, **in position order**, so installs, same-batch
        overwrites, LRU order and evictions land as if the packets had
        been installed one by one.  Returns the entries, aligned with
        ``positions``.
        """
        rows = batch.pick[positions]
        keys_of = []
        key_codes = np.empty(len(positions), dtype=np.int64)
        for mask_code, mask in enumerate(masks):
            keys, row_codes = batch.masked_key_codes(mask)
            keys_of.append(keys)
            chosen = mask_codes == mask_code
            key_codes[chosen] = row_codes[rows[chosen]]
        installed: list[MegaflowEntry] = []
        for mask_code, key_code, code in zip(
            mask_codes.tolist(), key_codes.tolist(), traversal_codes.tolist()
        ):
            traversal = traversals[code]
            entry = MegaflowEntry(
                masks[mask_code],
                keys_of[mask_code][key_code],
                traversal.outcome,
                traversal.version_checks,
            )
            self._store(entry)
            installed.append(entry)
        return installed

    def flush(self) -> None:
        """Drop every cached aggregate (explicit only; never automatic)."""
        self._by_mask.clear()
        self._lru.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _store(self, entry: MegaflowEntry) -> None:
        """Index a built entry (replacing any same-aggregate one), count
        the install and evict least-recently-used entries beyond
        capacity."""
        self._by_mask.setdefault(entry.mask, {})[entry.key] = entry
        lru = self._lru
        lru[entry.slot] = entry
        lru.move_to_end(entry.slot)
        self.installs += 1
        while len(lru) > self.capacity:
            (old_mask, old_key), _ = lru.popitem(last=False)
            self._drop(old_mask, old_key)
            self.evicted += 1

    def _drop(self, mask: MaskSig, key: bytes) -> None:
        entries = self._by_mask[mask]
        del entries[key]
        if not entries:
            del self._by_mask[mask]
        self._lru.pop((mask, key), None)
