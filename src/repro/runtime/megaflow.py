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
  search outcome depended on.  The decomposition path reports per
  *partition engine* (an empty LUT/range structure consults nothing, a
  trie consults down to the level its walk terminates at — see
  ``PartitionEngine.consulted_mask``); the behavioural scan reports each
  evaluated entry's predicate masks;
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
:meth:`~repro.packet.batch.PacketBatch.masked_packed_keys`), one probe
(:meth:`MegaflowCache.probe_credit`) and one install
(:meth:`MegaflowCache.install_batch`), all over columnar batches.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro.openflow.pipeline import OpenFlowPipeline, PathOutcome, PipelineResult
from repro.packet.batch import IndexArray, PacketBatch

#: Mask signature: ``((field_name, bitmask), ...)`` sorted by field.
MaskSig = tuple[tuple[str, int], ...]

DEFAULT_MEGAFLOW_CAPACITY = 4096


class MegaflowRecorder:
    """Accumulates one traversal's consulted bits, rewrites and tables.

    Duck-typed as the ``mask`` sink accepted by ``FlowTable.lookup``,
    ``OpenFlowLookupTable.search`` and ``OpenFlowPipeline.process``.
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
    included as its ``overrides``.  ``table_versions`` tags each visited
    table with its mutation counter at lookup time.  The columnar miss
    path builds one per *distinct* path and shares it across the
    positions that took it; a :class:`MegaflowEntry` is a traversal plus
    its wildcard key.
    """

    __slots__ = ("outcome", "table_versions")

    def __init__(
        self,
        outcome: PathOutcome,
        table_versions: tuple[tuple[int, int], ...],
    ) -> None:
        self.outcome = outcome
        self.table_versions = table_versions


class MegaflowEntry(Traversal):
    """One cached aggregate: mask, masked key, and the traversal."""

    __slots__ = ("mask", "key", "version_checks", "hits")

    def __init__(
        self,
        mask: MaskSig,
        key: bytes,
        outcome: PathOutcome,
        table_versions: tuple[tuple[int, int], ...],
        version_checks: tuple,
    ) -> None:
        self.mask = mask
        #: The aggregate's exact ``value & mask`` key, packed as
        #: :meth:`~repro.packet.batch.PacketBatch.masked_packed_keys`
        #: packs it (absence of a field is part of the key).
        self.key = key
        self.outcome = outcome
        self.table_versions = table_versions
        #: ``(table_object, version)`` pairs — the hot-path validity
        #: check dereferences the table directly instead of resolving
        #: ids through the pipeline on every hit.
        self.version_checks = version_checks
        self.hits = 0


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

    def mask_fields(self) -> tuple[str, ...]:
        """Union of fields any cached mask constrains (sorted).

        This is the sharding hint :class:`~repro.runtime.shard.ShardedBatchPipeline`
        uses: hashing on exactly these fields sends every packet of an
        aggregate to the same worker.
        """
        fields: set[str] = set()
        for mask in self._by_mask:
            fields.update(name for name, _ in mask)
        return tuple(sorted(fields))

    def probe_batch(self, batch: PacketBatch) -> list[MegaflowEntry | None]:
        """Probe + credit in one call: the valid aggregate per batch
        *position* (``None`` on miss), bookkeeping done.  Replay
        materialisation is deferred to the caller (see
        :class:`repro.runtime.batch.ColumnarOutcomes`); the decode-free
        sharded worker encodes the outcomes directly.
        """
        return self.probe_credit(batch, batch.frame_lengths())[0]

    def probe_credit(
        self, batch: PacketBatch, frame: np.ndarray
    ) -> tuple[
        list[MegaflowEntry | None],
        IndexArray,
        list[tuple[MegaflowEntry, int, int]],
    ]:
        """The one probe: vectorized tuple-space search and hit
        bookkeeping, with the Python work done per *distinct masked
        key*, never per position.

        Per cached mask, in first-install order, the still-unresolved
        positions' packed keys are gathered off the store's memoized
        :meth:`~repro.packet.batch.PacketBatch.masked_packed_keys`; each
        distinct key is probed against the mask's index and its
        aggregate version-checked once (a stale one — a visited table's
        version moved — drops on probe, the incremental-invalidation
        path, and every position sharing it goes on to the later
        masks), first hit per position winning.  Hits are then credited
        per distinct aggregate from one code lane — hit/miss counters,
        per-entry hit counts and the matched flow entries' packet/byte
        stats (``frame`` is the batch's per-position ``frame_len``
        lane: every hit packet counts with its *own* length) — and LRU
        recency is touched in ascending order of each aggregate's
        *last* hit position, which is the order probing the packets one
        by one would leave.

        Returns the aggregate per position (``None`` on miss), the
        missed positions (ascending), and one ``(entry, positions,
        bytes)`` bucket per aggregate hit so callers (the columnar
        :class:`~repro.runtime.batch.BatchPipeline`) fold their own
        counters without another per-packet pass.
        """
        pick = batch.pick
        #: Aggregates hit, in first-found order; position code ``c > 0``
        #: means ``found[c - 1]``, code 0 is the miss bucket.
        found: list[MegaflowEntry] = []
        codes = np.zeros(len(pick), dtype=np.int64)
        pending = np.arange(len(pick), dtype=np.int64)
        # A snapshot: dropping a mask's last aggregate removes the mask.
        for mask, entries in tuple(self._by_mask.items()):
            row_keys = batch.masked_packed_keys(mask)
            keys = list(map(row_keys.__getitem__, pick[pending].tolist()))
            code_of = dict.fromkeys(keys, 0)
            for key in code_of:
                entry = entries.get(key)
                if entry is None:
                    continue
                for table, version in entry.version_checks:
                    if table.version != version:
                        self._drop(mask, key)
                        self.invalidated += 1
                        break
                else:
                    found.append(entry)
                    code_of[key] = len(found)
            resolved = np.fromiter(
                map(code_of.__getitem__, keys), dtype=np.int64, count=len(keys)
            )
            codes[pending] = resolved
            pending = pending[resolved == 0]
            if not pending.size:
                break
        slots: list[MegaflowEntry | None] = [None, *found]
        counts = np.bincount(codes, minlength=len(slots)).tolist()
        byte_sums = np.bincount(
            codes, weights=frame, minlength=len(slots)
        ).tolist()
        self.misses += counts[0]
        self.hits += len(pick) - counts[0]
        position_codes = codes.tolist()
        # Distinct codes walking the batch backwards: most recently hit
        # first.  Touching them in reverse leaves the LRU in the order
        # of each aggregate's last hit packet (``filter`` skips code 0).
        recency = dict.fromkeys(reversed(position_codes))
        lru = self._lru
        buckets = []
        for code in filter(None, reversed(recency)):
            entry = found[code - 1]
            count, byte_count = counts[code], int(byte_sums[code])
            entry.hits += count
            lru.move_to_end((entry.mask, entry.key))
            for matched in entry.outcome.matched_entries:
                matched.stats.add(count, byte_count)
            buckets.append((entry, count, byte_count))
        return list(map(slots.__getitem__, position_codes)), pending, buckets

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
        :meth:`~repro.packet.batch.PacketBatch.masked_packed_keys`.
        Entries are stored one per position, **in position order**, so
        installs, same-batch overwrites, LRU order and evictions land
        as if the packets had been installed one by one.  Returns the
        entries, aligned with ``positions``.
        """
        keys_of = [batch.masked_packed_keys(mask) for mask in masks]
        # Traversals along one table sequence share their version tags.
        checks_of = {
            versions: self._version_checks(versions)
            for versions in {t.table_versions for t in traversals}
        }
        checks = [checks_of[t.table_versions] for t in traversals]
        installed: list[MegaflowEntry] = []
        for row, mask_code, code in zip(
            batch.pick[positions].tolist(),
            mask_codes.tolist(),
            traversal_codes.tolist(),
        ):
            traversal = traversals[code]
            entry = MegaflowEntry(
                masks[mask_code],
                keys_of[mask_code][row],
                traversal.outcome,
                traversal.table_versions,
                checks[code],
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

    def _version_checks(
        self, table_versions: tuple[tuple[int, int], ...]
    ) -> tuple:
        return tuple(
            (self.pipeline.table(table_id), version)
            for table_id, version in table_versions
        )

    def _store(self, entry: MegaflowEntry) -> None:
        """Index a built entry (replacing any same-aggregate one), count
        the install and evict least-recently-used entries beyond
        capacity."""
        slot = (entry.mask, entry.key)
        self._by_mask.setdefault(entry.mask, {})[entry.key] = entry
        lru = self._lru
        lru[slot] = entry
        lru.move_to_end(slot)
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
