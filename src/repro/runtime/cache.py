"""Exact-match microflow cache (the Open vSwitch fast-path pattern).

A :class:`MicroflowCache` sits in front of one flow table and memoizes
full lookups keyed on the *exact* tuple of the table's match-field values
— the definition of a microflow.  Two packets with identical header
fields necessarily classify identically, so a cache hit skips the whole
decomposition (or scan) path.

Invalidation is per-entry **revalidation**, not a wholesale flush: every
cached record is stamped with the table's ``version`` mutation counter —
bumped by ``add`` / ``remove`` / ``remove_where`` on both
:class:`~repro.openflow.table.FlowTable` and
:class:`~repro.core.lookup_table.OpenFlowLookupTable` — at resolution
time.  A later access finding the stamp stale re-resolves just that key
against the table and refreshes the record in place, so a flow-mod costs
one table lookup per *re-touched* key instead of evicting the whole
working set (the PR-1 behaviour).  Mutating the table directly (not
through any wrapper) stays safe.

Misses are cached too (negative caching): a miss is just another
classification outcome, and the stale-stamp rule keeps it correct.

The cache also participates in megaflow capture: pass a consulted-bits
sink (``mask=``, see :mod:`repro.runtime.megaflow`) and the table's raw
consulted-bits masks are captured on miss, stored with the record, and
replayed into the sink on every hit — so a traversal resolved from the
microflow tier still produces a sound wildcard mask.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.openflow.flow import FlowEntry
from repro.openflow.match import ConsultSink, FieldMaskSink
from repro.packet.batch import PacketBatch
from repro.packet.headers import frame_length

#: Sentinel distinguishing a cached miss from an absent key.
_MISS = object()

DEFAULT_CAPACITY = 4096


class _Record:
    """One cached microflow: outcome, version stamp, consulted bits.

    ``key`` is the canonical tuple key; ``chash`` / ``sig`` / ``packed``
    are populated when the record entered (or was touched by) the
    columnar fast path — the vectorized probe keys on the uint64 hash
    and verifies against the exact packed bytes, so hash collisions
    degrade to misses instead of wrong hits.
    """

    __slots__ = ("outcome", "version", "mask", "key", "chash", "sig", "packed")

    def __init__(
        self,
        outcome: FlowEntry | object,  # a FlowEntry or the _MISS sentinel
        version: int,
        mask: dict[str, int] | None,
    ) -> None:
        self.outcome = outcome
        self.version = version
        self.mask = mask
        self.key: tuple = ()
        self.chash: int | None = None
        self.sig = None
        self.packed: bytes | None = None


class MicroflowCache:
    """LRU exact-match cache in front of one flow table.

    Args:
        table: the backing table; must expose ``lookup`` and a
            ``version`` mutation counter.  ``lookup_batch`` is used for
            miss resolution when available.
        capacity: maximum cached microflows; least recently used entries
            are evicted beyond it.
        field_names: the match schema the cache keys on; defaults to the
            table's own ``field_names``.
    """

    def __init__(
        self,
        table: Any,
        capacity: int = DEFAULT_CAPACITY,
        field_names: tuple[str, ...] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        names = field_names if field_names is not None else getattr(
            table, "field_names", None
        )
        if names is None:
            raise ValueError(
                "table has no field_names; pass field_names= explicitly"
            )
        if not hasattr(table, "version"):
            raise ValueError(
                "table exposes no version counter; the cache cannot "
                "detect mutations and would serve stale results"
            )
        self.table = table
        self.capacity = capacity
        self.field_names = tuple(names)
        self._entries: OrderedDict[tuple, _Record] = OrderedDict()
        #: Columnar sidecar index: uint64 key hash -> record (verified
        #: against the record's packed key bytes on every probe).
        self._columnar: dict[int, _Record] = {}
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        #: Stale-stamp accesses that re-resolved an existing key in place.
        self.revalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def key(self, packet_fields: Mapping[str, int]) -> tuple:
        """The microflow key: the exact tuple of schema-field values."""
        return tuple(packet_fields.get(name) for name in self.field_names)

    def flush(self) -> None:
        """Drop every cached microflow (explicit only; mutations do not
        flush — they stale-stamp, and records revalidate on access)."""
        if self._entries:
            self.flushes += 1
        self._entries.clear()
        self._columnar.clear()

    def lookup(
        self,
        packet_fields: Mapping[str, int],
        mask: ConsultSink | None = None,
    ) -> FlowEntry | None:
        """Cached highest-priority match for one packet.

        ``mask``, when given, receives the table's consulted bits for
        this key (captured on miss, replayed from the record on hit).
        """
        version = self.table.version
        key = self.key(packet_fields)
        record = self._entries.get(key)
        if record is not None and record.version == version:
            self.hits += 1
            self._entries.move_to_end(key)
            if mask is not None:
                if record.mask is None:
                    record.mask = self._capture_mask(packet_fields)
                _replay_mask(record.mask, mask)
            return self._outcome(record, packet_fields)
        if record is not None:
            self.revalidations += 1
        self.misses += 1
        outcome, captured = self._resolve(packet_fields, mask is not None)
        if mask is not None:
            assert captured is not None
            _replay_mask(captured, mask)
        self._insert(key, outcome, version, captured)
        return outcome

    def lookup_batch(
        self,
        batch_fields: Sequence[Mapping[str, int]],
        masks: Sequence[ConsultSink] | None = None,
    ) -> list[FlowEntry | None]:
        """Cached batch lookup: hits resolve from the cache, the misses go
        to the table's batch path in one call.

        ``masks``, when given, is one consulted-bits sink per packet,
        aligned with ``batch_fields``; miss resolution then runs
        per-packet through the table's mask-threading scalar path.
        """
        version = self.table.version
        results: list[FlowEntry | None] = [None] * len(batch_fields)
        miss_positions: list[int] = []
        miss_fields: list[Mapping[str, int]] = []
        for i, fields in enumerate(batch_fields):
            key = self.key(fields)
            record = self._entries.get(key)
            if record is not None and record.version == version:
                self.hits += 1
                self._entries.move_to_end(key)
                if masks is not None:
                    if record.mask is None:
                        record.mask = self._capture_mask(fields)
                    _replay_mask(record.mask, masks[i])
                results[i] = self._outcome(record, fields)
            else:
                if record is not None:
                    self.revalidations += 1
                self.misses += 1
                miss_positions.append(i)
                miss_fields.append(fields)
        if miss_fields:
            if masks is not None:
                # Mask capture forces the scalar resolution path, but
                # duplicate keys — the common case in skewed traffic —
                # still resolve once per batch and replay their captured
                # mask (with a stats record per packet, matching the
                # scalar path).
                resolved = []
                memo: dict[tuple, tuple] = {}
                for position, fields in zip(miss_positions, miss_fields):
                    key = self.key(fields)
                    cached = memo.get(key)
                    if cached is None:
                        cached = self._resolve(fields, True)
                        memo[key] = cached
                        self._insert(key, cached[0], version, cached[1])
                    else:
                        if cached[0] is not None:
                            cached[0].stats.record(frame_length(fields))
                    outcome, captured = cached
                    assert captured is not None
                    _replay_mask(captured, masks[position])
                    resolved.append(outcome)
            elif hasattr(self.table, "lookup_batch"):
                resolved = self.table.lookup_batch(miss_fields)
                for fields, outcome in zip(miss_fields, resolved):
                    self._insert(self.key(fields), outcome, version, None)
            else:
                resolved = []
                for fields in miss_fields:
                    outcome = self.table.lookup(fields)
                    self._insert(self.key(fields), outcome, version, None)
                    resolved.append(outcome)
            for position, outcome in zip(miss_positions, resolved):
                results[position] = outcome
        return results

    def lookup_batch_columnar(
        self, batch: PacketBatch
    ) -> list[FlowEntry | None]:
        """Vectorized batch lookup over a columnar
        :class:`~repro.packet.batch.PacketBatch` — the fast path.

        One numpy pass computes a uint64 key hash per distinct *row*
        (lanes and presence bytes of the schema fields, so ``frame_len``
        and other non-match metadata never enter the key); each row is
        then a single hash probe verified against the exact packed key
        bytes.  Hits replay without materialising a dict anywhere: the
        matched entries' stats are credited from the ``frame_len`` lane,
        aggregated per row.  Only rows that miss are materialised (once,
        aliased across duplicates) and resolved through the table's
        batch path, exactly like :meth:`lookup_batch` — so results and
        per-entry flow stats are bitwise-identical to the dict path.
        """
        version = self.table.version
        sig, hashes, packed = batch.probe_keys(self.field_names)
        pick = batch.pick
        probe = self._columnar.get
        move_to_end = self._entries.move_to_end

        # Everything below works in *local* row codes (0..distinct rows
        # of this view), so chunked views of a large store never touch
        # arrays sized by the whole event.
        uniq, inverse = np.unique(pick, return_inverse=True)
        rows = uniq.tolist()
        outcome_of: list = [None] * len(rows)
        hit_records: list[tuple[int, _Record]] = []
        miss_locals: list[int] = []
        for local, row in enumerate(rows):
            record = probe(hashes[row])
            if (
                record is not None
                and record.version == version
                and record.packed == packed[row]
                and (record.sig is sig or record.sig == sig)
            ):
                hit_records.append((local, record))
                if record.outcome is not _MISS:
                    outcome_of[local] = record.outcome
                move_to_end(record.key)
            else:
                miss_locals.append(local)

        if miss_locals:
            # Rescue rows the *dict* path cached (they have no sidecar
            # entry): the tuple key is cheap here because a genuine miss
            # would materialise the row for table resolution anyway.
            # Found records are promoted into the sidecar, so a cache
            # warmed by dict batches serves columnar traffic at full
            # speed after this one touch instead of re-resolving a whole
            # working-set pass through the table.
            still_missing: list[int] = []
            for local in miss_locals:
                row = rows[local]
                key = self.key(batch.row_fields(row))
                record = self._entries.get(key)
                if record is not None and record.version == version:
                    # Drop any previous sidecar slot first (a layout
                    # change re-hashes the same key), so eviction can
                    # always unindex the record it finds.
                    self._unindex(record)
                    record.chash = hashes[row]
                    record.sig = sig
                    record.packed = packed[row]
                    self._columnar[hashes[row]] = record
                    hit_records.append((local, record))
                    if record.outcome is not _MISS:
                        outcome_of[local] = record.outcome
                    move_to_end(key)
                else:
                    if record is not None:
                        # Same semantics as the dict path: a stale stamp
                        # on an existing key re-resolves in place.
                        self.revalidations += 1
                    still_missing.append(local)
            miss_locals = still_missing

        if hit_records:
            # Hit replay without dicts: per-row stats aggregated from the
            # frame_len lane (bincount sums are exact below 2**53 bytes),
            # counters credited per position.
            counts = np.bincount(inverse, minlength=len(rows)).tolist()
            byte_sums = np.bincount(
                inverse, weights=batch.frame_lengths(), minlength=len(rows)
            ).tolist()
            for local, record in hit_records:
                count = counts[local]
                self.hits += count
                if record.outcome is not _MISS:
                    record.outcome.stats.add(count, int(byte_sums[local]))

        if miss_locals:
            local_is_miss = np.zeros(len(rows), dtype=bool)
            local_is_miss[miss_locals] = True
            miss_positions = np.nonzero(local_is_miss[inverse])[0].tolist()
            miss_fields = [batch.fields_at(i) for i in miss_positions]
            self.misses += len(miss_positions)
            if hasattr(self.table, "lookup_batch"):
                resolved = self.table.lookup_batch(miss_fields)
            else:
                resolved = [self.table.lookup(fields) for fields in miss_fields]
            inverse_list = inverse.tolist()
            inserted: set[int] = set()
            for position, fields, outcome in zip(
                miss_positions, miss_fields, resolved
            ):
                local = inverse_list[position]
                if local in inserted:
                    continue  # duplicates of one row share the outcome
                inserted.add(local)
                outcome_of[local] = outcome
                row = rows[local]
                self._insert(
                    self.key(fields),
                    outcome,
                    version,
                    None,
                    chash=hashes[row],
                    sig=sig,
                    packed=packed[row],
                )
            return [outcome_of[local] for local in inverse_list]
        return [outcome_of[local] for local in inverse.tolist()]

    def lookup_keys(
        self,
        keys: Sequence[tuple[int | None, ...]],
        counts: Sequence[int],
        capture: bool,
    ) -> tuple[list[FlowEntry | None], list[dict[str, int] | None]]:
        """Cached lookup of one wave's *distinct* table keys — the
        columnar miss path's probe.

        ``keys`` are this cache's own microflow keys (:meth:`key`
        tuples), each standing for ``counts[i]`` packets; every key is
        probed once and the residual goes to the table's
        ``lookup_keys`` in **one** call.  Returns two aligned lists:
        the matched entry per key and, with ``capture``, its consulted
        mask (captured at resolution, replayed from the record on a
        hit).  Hit and miss counters move per packet, exactly as
        :meth:`lookup_batch` moves them; flow stats are **not** credited
        here — the caller groups packets by matched entry and credits
        each entry once.
        """
        version = self.table.version
        entries = self._entries
        move_to_end = entries.move_to_end
        outcomes: list[FlowEntry | None] = []
        masks: list[dict[str, int] | None] = []
        residual: list[int] = []
        hits = 0
        for i, key in enumerate(keys):
            record = entries.get(key)
            if record is not None and record.version == version:
                hits += counts[i]
                move_to_end(key)
                if capture and record.mask is None:
                    record.mask = self._capture_mask(
                        {
                            name: value
                            for name, value in zip(self.field_names, key)
                            if value is not None
                        }
                    )
                outcome = record.outcome
                outcomes.append(outcome if isinstance(outcome, FlowEntry) else None)
                masks.append(record.mask)
            else:
                if record is not None:
                    self.revalidations += counts[i]
                residual.append(i)
                outcomes.append(None)
                masks.append(None)
        self.hits += hits
        if residual:
            self.misses += sum(counts[i] for i in residual)
            resolved, captured = self.table.lookup_keys(
                [keys[i] for i in residual], capture
            )
            for i, entry, mask in zip(residual, resolved, captured):
                self._insert(keys[i], entry, version, mask)
                outcomes[i] = entry
                masks[i] = mask
        return outcomes, masks

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _outcome(
        self, record: _Record, packet_fields: Mapping[str, int]
    ) -> FlowEntry | None:
        """Resolve a cache hit, recording the *hitting* packet's frame
        length (records are shared across every packet of the microflow,
        but byte counters are per packet)."""
        if record.outcome is _MISS:
            return None
        entry = record.outcome
        assert isinstance(entry, FlowEntry)
        entry.stats.record(frame_length(packet_fields))
        return entry

    def _resolve(
        self, packet_fields: Mapping[str, int], want_mask: bool
    ) -> tuple[FlowEntry | None, dict[str, int] | None]:
        if want_mask:
            sink = FieldMaskSink()
            return self.table.lookup(packet_fields, mask=sink), sink.fields
        return self.table.lookup(packet_fields), None

    def _capture_mask(self, packet_fields: Mapping[str, int]) -> dict[str, int]:
        """Backfill the consulted-bits mask for a record cached without
        one (the cache was used mask-less first); the mask is a pure
        function of the key and the table's current structures.

        Prefers the table's side-effect-free ``consulted_mask`` so a
        cache *hit* never double-counts lookup counters or flow stats;
        the lookup fallback covers schema-only table stand-ins.
        """
        consulted = getattr(self.table, "consulted_mask", None)
        if consulted is not None:
            return consulted(packet_fields)
        sink = FieldMaskSink()
        self.table.lookup(packet_fields, mask=sink)
        return sink.fields

    def _insert(
        self,
        key: tuple,
        entry: FlowEntry | None,
        version: int,
        mask: dict[str, int] | None,
        chash: int | None = None,
        sig: object = None,
        packed: bytes | None = None,
    ) -> None:
        previous = self._entries.get(key)
        if previous is not None:
            self._unindex(previous)
        record = _Record(_MISS if entry is None else entry, version, mask)
        record.key = key
        self._entries[key] = record
        self._entries.move_to_end(key)
        if chash is not None:
            record.chash = chash
            record.sig = sig
            record.packed = packed
            self._columnar[chash] = record
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._unindex(evicted)

    def _unindex(self, record: _Record) -> None:
        if (
            record.chash is not None
            and self._columnar.get(record.chash) is record
        ):
            del self._columnar[record.chash]


def _replay_mask(captured: dict[str, int], mask: ConsultSink) -> None:
    for name, bits in captured.items():
        mask.consult(name, bits)
