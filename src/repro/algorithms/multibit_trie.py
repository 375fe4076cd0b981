"""The multi-bit trie (MBT) — the paper's LPM workhorse.

Each 16-bit partition of an address field is searched by a multi-bit trie
"distributed with three levels" (paper Section V.A, citing its reference
[22] for the 3-level trade-off).  This implementation:

- uses configurable strides, default ``(5, 5, 6)`` over 16-bit keys.  The
  5-bit first stride is calibrated to the paper's stated worst case
  ("the maximum stored nodes in L1 are 32 ... 832 bits");
- stores prefixes by **controlled prefix expansion**: a prefix whose
  length falls inside a level's span is expanded to every record of that
  level it covers, with the longest prefix winning shared records;
- keeps records **sparsely** (only allocated paths occupy storage), with
  per-record child reference counts so removals shrink the structure —
  the incremental-update ability the paper lists among its lookup
  efficiency criteria;
- exposes per-level record statistics, which the memory cost model turns
  into the paper's Fig. 2 (stored nodes) and Figs. 3/4 (Kbits per level).

Each stored record models the hardware trie node of Section V.A: "the
trie node data is composed of the child pointer, the label and a flag
bit".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from repro.algorithms.base import NO_LABEL, FieldSearchAlgorithm
from repro.util.bits import mask_of, prefix_mask

#: Default stride distribution: 3 levels over 16 bits with a 32-record L1.
DEFAULT_STRIDES: tuple[int, ...] = (5, 5, 6)


@dataclass
class _Record:
    """One stored trie record (a hardware memory word)."""

    label: int = NO_LABEL
    label_plen: int = -1  # prefix length that owns `label` (-1 = none)
    child_count: int = 0  # number of existing records in the next level
    #: labels of every expanded prefix covering this record, by length;
    #: kept so removals can demote to the next-longest prefix.
    owners: dict[int, int] | None = None

    @property
    def has_child(self) -> bool:
        return self.child_count > 0

    @property
    def occupied(self) -> bool:
        return self.label != NO_LABEL or self.child_count > 0


@dataclass(frozen=True)
class TrieLevelStats:
    """Per-level occupancy of a multi-bit trie."""

    level: int  # 1-based, as in the paper's L1/L2/L3
    stride: int
    boundary: int  # cumulative bits consumed up to this level
    records: int  # stored (sparse) records
    with_label: int
    with_child: int


class MultibitTrie(FieldSearchAlgorithm):
    """Prefix -> label multi-bit trie with controlled prefix expansion."""

    def __init__(self, key_bits: int = 16, strides: Sequence[int] = DEFAULT_STRIDES):
        strides = tuple(strides)
        if not strides or any(s <= 0 for s in strides):
            raise ValueError(f"invalid strides {strides}")
        if sum(strides) != key_bits:
            raise ValueError(
                f"strides {strides} sum to {sum(strides)}, key is {key_bits} bits"
            )
        self.key_bits = key_bits
        self.strides = strides
        self.boundaries: tuple[int, ...] = tuple(
            sum(strides[: i + 1]) for i in range(len(strides))
        )
        self._levels: list[dict[int, _Record]] = [{} for _ in strides]
        self._entries: dict[tuple[int, int], int] = {}
        self._default_label = NO_LABEL
        self._key_mask = mask_of(key_bits)
        #: ``prefix_mask(length, key_bits)`` per length, computed once.
        self._length_masks: tuple[int, ...] = tuple(
            prefix_mask(length, key_bits) for length in range(key_bits + 1)
        )
        #: Stored prefixes per length (``/0``, the default entry, is not
        #: counted), kept by insert/remove, and the non-empty lengths
        #: they imply, longest first: :meth:`lookup_all` probes only
        #: lengths that hold an entry.
        self._length_counts = [0] * (key_bits + 1)
        self._lengths: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # insertion / removal
    # ------------------------------------------------------------------

    def insert(self, value: int, length: int, label: int) -> None:
        """Store canonical prefix ``value/length`` with ``label``.

        ``length = 0`` stores the default (match-everything) entry.
        Re-inserting an existing prefix with its existing label is a
        no-op; with a different label it is an error.
        """
        self._check_prefix(value, length)
        if label == NO_LABEL:
            raise ValueError("cannot insert the reserved NO_LABEL")
        existing = self._entries.get((value, length))
        if existing is not None:
            if existing != label:
                raise ValueError(
                    f"prefix {value:#x}/{length} already has label {existing}"
                )
            return
        if length == 0:
            if self._default_label not in (NO_LABEL, label):
                raise ValueError(
                    f"default entry already has label {self._default_label}"
                )
            self._default_label = label
            self._entries[(value, length)] = label
            return

        level = self._level_of(length)
        boundary = self.boundaries[level]
        self._ensure_path(value, level)
        expand_bits = boundary - length
        base = (value >> (self.key_bits - length)) << expand_bits
        for suffix in range(1 << expand_bits):
            path = base | suffix
            record = self._get_or_create(level, path)
            if record.owners is None:
                record.owners = {}
            record.owners[length] = label
            if length > record.label_plen:
                record.label = label
                record.label_plen = length
        self._entries[(value, length)] = label
        self._length_counts[length] += 1
        if self._length_counts[length] == 1:
            self._refresh_lengths()

    def remove(self, value: int, length: int) -> bool:
        """Delete a stored prefix; returns True if it was present.

        Records owned solely by the removed prefix are demoted to the
        next-longest covering prefix or garbage-collected, cascading up
        through now-empty path records.
        """
        self._check_prefix(value, length)
        if (value, length) not in self._entries:
            return False
        del self._entries[(value, length)]
        if length == 0:
            self._default_label = NO_LABEL
            return True
        self._length_counts[length] -= 1
        if not self._length_counts[length]:
            self._refresh_lengths()

        level = self._level_of(length)
        boundary = self.boundaries[level]
        expand_bits = boundary - length
        base = (value >> (self.key_bits - length)) << expand_bits
        for suffix in range(1 << expand_bits):
            path = base | suffix
            record = self._levels[level][path]
            assert record.owners is not None
            record.owners.pop(length, None)
            if record.label_plen == length:
                if record.owners:
                    best_len = max(record.owners)
                    record.label = record.owners[best_len]
                    record.label_plen = best_len
                else:
                    record.label = NO_LABEL
                    record.label_plen = -1
            self._maybe_collect(level, path)
        self._collect_path(value, level)
        return True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def lookup(self, value: int) -> int:
        """Label of the longest stored prefix covering ``value``."""
        if not 0 <= value <= self._key_mask:
            raise ValueError(f"key {value:#x} wider than {self.key_bits} bits")
        best = self._default_label
        for level, boundary in enumerate(self.boundaries):
            path = value >> (self.key_bits - boundary)
            record = self._levels[level].get(path)
            if record is None:
                break
            if record.label != NO_LABEL:
                best = record.label
            if not record.has_child:
                break
        return best

    def consulted_bits(self, value: int) -> int:
        """Length of the top-bit prefix of ``value`` a lookup consults.

        Any key sharing those top bits probes the same records at every
        visited level and terminates at the same place, so it yields the
        same :meth:`lookup` / :meth:`lookup_all` result — the wildcard
        grain a megaflow-style cache can mask on.  An empty level is
        never probed (its outcome is key-independent), so a trie holding
        only the default ``/0`` entry consults zero bits.
        """
        return self.descend(value)[1]

    def lookup_all(self, value: int) -> tuple[int, ...]:
        """Labels of every stored prefix covering ``value``, longest first.

        Models the architecture's ancestor unrolling: the hardware returns
        the longest match per level and the label table links each label
        to its containment ancestors; unrolled, that is exactly the set of
        covering stored prefixes.
        """
        if not 0 <= value <= self._key_mask:
            raise ValueError(f"key {value:#x} wider than {self.key_bits} bits")
        entries = self._entries
        masks = self._length_masks
        labels = [
            label
            for length in self._lengths
            if (label := entries.get((value & masks[length], length))) is not None
        ]
        if self._default_label != NO_LABEL:
            labels.append(self._default_label)
        return tuple(labels)

    def descend(self, value: int) -> tuple[tuple[int, ...], int]:
        """One walk down the levels: ``(lookup_all, consulted_bits)``.

        Every record carries the labels of the expanded prefixes that
        cover it (``owners``, by length), and a prefix of level *k*
        always has path records at every level above it — so the
        records the consulted-bits walk visits hold exactly the labels
        :meth:`lookup_all` collects, and the walk stops where no deeper
        prefix can cover the key.  Mask-capturing searches use this
        instead of walking the trie once per answer.
        """
        if not 0 <= value <= self._key_mask:
            raise ValueError(f"key {value:#x} wider than {self.key_bits} bits")
        key_bits = self.key_bits
        found: list[int] = []  # shortest first; reversed on the way out
        consulted = 0
        for records, boundary in zip(self._levels, self.boundaries):
            if not records:
                break
            consulted = boundary
            record = records.get(value >> (key_bits - boundary))
            if record is None:
                break
            owners = record.owners
            if owners:
                if len(owners) == 1:
                    found.extend(owners.values())
                else:
                    found.extend(owners[length] for length in sorted(owners))
            if not record.child_count:
                break
        found.reverse()
        if self._default_label != NO_LABEL:
            found.append(self._default_label)
        return tuple(found), consulted

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: tuple[int, int]) -> bool:
        return prefix in self._entries

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """Iterate stored ``(value, length, label)`` triples."""
        for (value, length), label in self._entries.items():
            yield value, length, label

    @property
    def level_count(self) -> int:
        return len(self.strides)

    def level_records(self, level: int) -> Iterator[tuple[int, bool]]:
        """Iterate one level's stored ``(path, has_child)`` pairs.

        The walk-shape projection of the sparse level maps: exactly what
        :meth:`consulted_bits` probes, and therefore all the shared
        read-only runtime state needs to replicate the trie walk
        (:mod:`repro.runtime.rulestate`).
        """
        for path, record in self._levels[level].items():
            yield path, record.has_child

    def stored_nodes(self) -> int:
        """Total sparse records — the paper's "number of stored nodes"."""
        return sum(len(level) for level in self._levels)

    def level_stats(self) -> list[TrieLevelStats]:
        """Occupancy per level (L1 first)."""
        stats = []
        for index, level in enumerate(self._levels):
            stats.append(
                TrieLevelStats(
                    level=index + 1,
                    stride=self.strides[index],
                    boundary=self.boundaries[index],
                    records=len(level),
                    with_label=sum(1 for r in level.values() if r.label != NO_LABEL),
                    with_child=sum(1 for r in level.values() if r.has_child),
                )
            )
        return stats

    def full_array_records(self) -> list[int]:
        """Per-level record counts under full-array child allocation.

        Level 1 is a single complete ``2^s1`` root array; each deeper
        level allocates a complete ``2^s`` array per parent record with
        children.  This is the alternative (classic) layout the memory
        ablation compares against sparse storage.
        """
        counts = [1 << self.strides[0]]
        for index in range(1, len(self.strides)):
            parents = sum(
                1 for r in self._levels[index - 1].values() if r.has_child
            )
            counts.append(parents * (1 << self.strides[index]))
        return counts

    def max_label(self) -> int:
        """Largest label stored (0 when empty)."""
        if not self._entries:
            return max(self._default_label, NO_LABEL)
        return max(max(self._entries.values()), self._default_label)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _refresh_lengths(self) -> None:
        counts = self._length_counts
        self._lengths = tuple(
            length for length in range(self.key_bits, 0, -1) if counts[length]
        )

    def _check_prefix(self, value: int, length: int) -> None:
        if not 0 <= length <= self.key_bits:
            raise ValueError(f"prefix length {length} outside [0, {self.key_bits}]")
        if not 0 <= value <= self._key_mask:
            raise ValueError(f"value {value:#x} wider than {self.key_bits} bits")
        if value & ~self._length_masks[length]:
            raise ValueError(
                f"prefix {value:#x}/{length} is not canonical (host bits set)"
            )

    def _level_of(self, length: int) -> int:
        for index, boundary in enumerate(self.boundaries):
            if length <= boundary:
                return index
        raise AssertionError("unreachable: length validated above")

    def _get_or_create(self, level: int, path: int) -> _Record:
        record = self._levels[level].get(path)
        if record is None:
            record = _Record()
            self._levels[level][path] = record
            if level > 0:
                parent_path = path >> self.strides[level]
                self._levels[level - 1][parent_path].child_count += 1
        return record

    def _ensure_path(self, value: int, level: int) -> None:
        """Create (or reuse) path records at every level above ``level``."""
        for k in range(level):
            path = value >> (self.key_bits - self.boundaries[k])
            self._get_or_create(k, path)

    def _maybe_collect(self, level: int, path: int) -> None:
        record = self._levels[level].get(path)
        if record is None or record.occupied:
            return
        del self._levels[level][path]
        if level > 0:
            parent_path = path >> self.strides[level]
            parent = self._levels[level - 1][parent_path]
            parent.child_count -= 1
            self._maybe_collect(level - 1, parent_path)

    def _collect_path(self, value: int, level: int) -> None:
        for k in range(level - 1, -1, -1):
            path = value >> (self.key_bits - self.boundaries[k])
            self._maybe_collect(k, path)
