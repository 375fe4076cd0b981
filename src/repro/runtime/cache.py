"""Exact-match microflow cache (the Open vSwitch fast-path pattern).

A :class:`MicroflowCache` sits in front of one flow table and memoizes
full lookups keyed on the *exact* tuple of the table's match-field values
— the definition of a microflow.  Two packets with identical header
fields necessarily classify identically, so a cache hit skips the whole
decomposition path.

Invalidation is per-entry **revalidation**, not a wholesale flush: every
cached record is stamped with the table's ``version`` mutation counter —
bumped by every ``add`` / ``remove`` / ``remove_where`` on the
:class:`~repro.core.lookup_table.OpenFlowLookupTable` — at resolution
time.  A later access finding the stamp stale re-resolves just that key
against the table and refreshes the record in place, so a flow-mod costs
one table lookup per *re-touched* key instead of evicting the whole
working set (the PR-1 behaviour).  Mutating the table directly (not
through any wrapper) stays safe.

A record holds the matched entry's **action slot** — the table's
answer, an address into its :class:`~repro.core.action_table.ActionTable`
— or ``-1`` for a miss: misses are cached too (negative caching), a
miss is just another classification outcome.  A slot is only ever read
at the version it was stamped with, so the stale-stamp rule also keeps
a slot freed and reallocated by a flow-mod from being served: the
flow-mod bumped the version, and the record re-resolves.

The cache also participates in megaflow capture: a capturing probe
(:meth:`MicroflowCache.lookup_keys` with ``capture`` — see
:mod:`repro.runtime.megaflow`) captures the table's raw consulted-bits
masks on miss, stores them with the record and hands them back on every
hit — so a traversal resolved from the microflow tier still produces a
sound wildcard mask.

Keys are table keys — the tuple of a packet's field values in the
table's ``field_names`` order — read off a
:class:`~repro.packet.batch.PacketBatch`'s lanes.  The one probe is
:meth:`MicroflowCache.lookup_keys` over distinct keys;
:meth:`MicroflowCache.lookup_batch_columnar` is that probe over a whole
batch, with the flow stats credited.  No probe takes a field dict.  The
cache, like the whole batch runtime, takes only a table with a keyed
lookup (:func:`require_keyed_table`);
the behavioural :class:`~repro.openflow.table.FlowTable` scan is the
oracle the runtime is tested against, not a table it runs.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.openflow.flow import COUNTERS, FlowEntry
from repro.packet.batch import PacketBatch

DEFAULT_CAPACITY = 4096


def require_keyed_table(table: Any) -> None:
    """Refuse, with a ``TypeError``, a table the batch runtime cannot
    run: one without a keyed lookup (``lookup_keys`` over its
    ``field_names``, answering slots of its ``actions``) or without
    the ``version`` counter the caches revalidate against.

    The runtime's one table check — :class:`MicroflowCache`,
    :class:`~repro.runtime.batch.BatchPipeline` and
    :class:`~repro.runtime.shard.ShardedBatchPipeline` call it at
    construction.  Duck-typed, so a proxy forwarding attributes to a
    lookup table passes.
    """
    missing = [
        name
        for name in ("lookup_keys", "field_names", "version", "actions")
        if not hasattr(table, name)
    ]
    if missing:
        raise TypeError(
            f"table {getattr(table, 'table_id', None)} "
            f"({type(table).__name__}) has no {', '.join(missing)}: the "
            "batch runtime runs only tables with a keyed lookup and a "
            "version counter (without one its caches would serve stale "
            "results)"
        )


class _Record:
    """One cached microflow: action slot (``-1``: a miss), version
    stamp, consulted bits."""

    __slots__ = ("slot", "version", "mask")

    def __init__(
        self, slot: int, version: int, mask: dict[str, int] | None
    ) -> None:
        self.slot = slot
        self.version = version
        self.mask = mask


class MicroflowCache:
    """LRU exact-match cache in front of one flow table.

    Args:
        table: the backing table, keyed on its own ``field_names``; its
            ``lookup_keys`` resolves a batch probe's misses in one call
            and its ``version`` counter stamps the records
            (:func:`require_keyed_table`).
        capacity: maximum cached microflows; least recently used entries
            are evicted beyond it.
    """

    def __init__(self, table: Any, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        require_keyed_table(table)
        self.table = table
        self.capacity = capacity
        self.field_names = tuple(table.field_names)
        self._entries: OrderedDict[tuple, _Record] = OrderedDict()
        #: Stale-stamp accesses that re-resolved an existing key in place.
        self.revalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup_batch_columnar(
        self, batch: PacketBatch
    ) -> list[FlowEntry | None]:
        """Cached lookup of every position of a columnar
        :class:`~repro.packet.batch.PacketBatch`: :meth:`lookup_keys` on
        the batch's distinct keys (first-seen order), read off the
        lanes, with each key's packets credited together from the
        ``frame_len`` lane — one scatter into the counter rows the
        action table's ``rows`` lane names — so no dict is built.
        Returns the matched entry (or ``None``) per position.
        """
        code_of: dict[tuple[int | None, ...], int] = {}
        codes = [
            code_of.setdefault(key, len(code_of))
            for key in _lane_keys(batch, self.field_names)
        ]
        lane = np.asarray(codes, dtype=np.int64)
        counts = np.bincount(lane, minlength=len(code_of))
        slots, _, _ = self.lookup_keys(list(code_of), counts.tolist(), False)
        found = np.asarray(slots, dtype=np.int64)
        hit = found >= 0
        # Frame-byte sums per key; bincount's float64 sums are exact
        # below 2**53 bytes.
        octets = np.bincount(
            lane, weights=batch.frame_lengths(), minlength=len(code_of)
        )
        actions = self.table.actions
        COUNTERS.credit(
            actions.rows[found[hit]], counts[hit], octets[hit].astype(np.int64)
        )
        entries: list[FlowEntry | None] = [
            None if slot < 0 else actions.entries[slot] for slot in slots
        ]
        return [entries[code] for code in codes]

    def lookup_keys(
        self,
        keys: Sequence[tuple[int | None, ...]],
        counts: Sequence[int],
        capture: bool,
    ) -> tuple[list[int], list[dict[str, int] | None], int]:
        """Cached lookup of *distinct* table keys — the one batch probe:
        the columnar miss path calls it per wave,
        :meth:`lookup_batch_columnar` per batch.

        ``keys`` are distinct table keys (value tuples in the table's
        ``field_names`` order), each standing for ``counts[i]``
        packets; every key is probed once and the residual goes to the
        table's ``lookup_keys`` in **one** call.  Returns two aligned
        lists — the matched entry's action slot per key (``-1`` for a
        miss; the table's ``actions`` lanes say what it credits) and,
        with ``capture``, its consulted mask (captured at resolution,
        replayed from the record on a hit) — and how many of the
        packets the residual stands for: the cache's misses, which the
        caller counts (the rest of ``counts`` hit).  The revalidation
        counter moves per packet; recency moves per key, hits before
        residual, each in ``keys`` order.  Flow stats are **not**
        credited here — the caller knows each packet's frame length and
        credits the matched entries.
        """
        version = self.table.version
        entries = self._entries
        move_to_end = entries.move_to_end
        slots: list[int] = []
        masks: list[dict[str, int] | None] = []
        residual: list[int] = []
        for i, key in enumerate(keys):
            record = entries.get(key)
            if record is not None and record.version == version:
                move_to_end(key)
                if capture and record.mask is None:
                    record.mask = self._capture_mask(key)
                slots.append(record.slot)
                masks.append(record.mask)
            else:
                if record is not None:
                    self.revalidations += counts[i]
                residual.append(i)
                slots.append(-1)
                masks.append(None)
        if not residual:
            return slots, masks, 0
        resolved, captured = self.table.lookup_keys(
            [keys[i] for i in residual], capture
        )
        for i, slot, mask in zip(residual, resolved, captured):
            self._insert(keys[i], slot, version, mask)
            slots[i] = slot
            masks[i] = mask
        return slots, masks, sum(counts[i] for i in residual)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _capture_mask(self, key: tuple) -> dict[str, int] | None:
        """Backfill the consulted-bits mask for a record cached without
        one (the cache was used mask-less first): the table's capturing
        ``lookup_keys`` of the record's own key, a pure function of the
        key and the table's current structures.  ``lookup_keys``
        credits no flow stats and the search moves no counter, so a
        cache *hit* never double-counts.
        """
        return self.table.lookup_keys([key], True)[1][0]

    def _insert(
        self,
        key: tuple,
        slot: int,
        version: int,
        mask: dict[str, int] | None,
    ) -> None:
        self._entries[key] = _Record(slot, version, mask)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


def _lane_keys(
    batch: PacketBatch, field_names: Sequence[str]
) -> list[tuple[int | None, ...]]:
    """The exact microflow key of every batch position, read off the
    lanes: ``masked_keys`` under an all-ones mask as wide as each
    field's column."""
    mask: list[tuple[str, int]] = []
    for name in field_names:
        column = batch.column(name)
        lanes = 0 if column is None else len(column.lanes)
        mask.append((name, (1 << (64 * lanes)) - 1))
    return batch.masked_keys(mask, batch.pick)
