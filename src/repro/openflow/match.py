"""Per-field match predicates and the multi-field OpenFlow match.

OpenFlow expresses a flow entry's match as a set of (field, value[, mask])
pairs; absent fields are wildcards.  The paper's filter analysis needs the
same vocabulary at a slightly finer grain, so this module models each field
constraint as one of:

- :class:`ExactMatch` — all bits compared (EM);
- :class:`PrefixMatch` — CIDR-style longest-prefix wildcard (LPM syntax);
- :class:`RangeMatch` — inclusive numeric range (RM syntax, port fields);
- :class:`MaskedMatch` — arbitrary bitmask, the general OXM form;
- :class:`WildcardMatch` — matches anything (explicit wildcard).

A :class:`Match` is a mapping from field name to predicate; its
:meth:`Match.matches` evaluates a packet's extracted header fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Mapping
from typing import Protocol

from repro.openflow.errors import OpenFlowError
from repro.openflow.fields import REGISTRY, FieldRegistry
from repro.util.bits import mask_of, prefix_mask


class ConsultSink(Protocol):
    """Anything that records which header bits a lookup consulted.

    :class:`FieldMaskSink` is the plain implementation; the megaflow
    recorder layers rewrite filtering and table tagging on top of the
    same structural protocol.
    """

    def consult(self, field_name: str, bitmask: int) -> None: ...


class FieldMatch:
    """Base class for single-field predicates.

    Subclasses are immutable, hashable value objects so they can key the
    unique-value analysis and the label allocator directly.
    """

    def matches(self, value: int) -> bool:
        raise NotImplementedError

    def specificity(self) -> int:
        """Number of exactly-constrained bits; used to order overlapping
        predicates (an exact match is more specific than a /8 prefix)."""
        raise NotImplementedError

    def consulted_mask(self) -> int:
        """Bitmask of field bits that can influence :meth:`matches`.

        Two values agreeing on every masked bit get identical verdicts
        from this predicate — the soundness contract megaflow-style
        wildcard caches build on.  Range predicates cannot express their
        dependence as a bitmask, so they conservatively claim the whole
        field.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class WildcardMatch(FieldMatch):
    """Matches every value of a ``bits``-wide field."""

    bits: int

    def matches(self, value: int) -> bool:
        return True

    def specificity(self) -> int:
        return 0

    def consulted_mask(self) -> int:
        return 0


@dataclass(frozen=True)
class ExactMatch(FieldMatch):
    """Matches a single value of a ``bits``-wide field."""

    value: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= mask_of(self.bits):
            raise OpenFlowError(
                f"exact value {self.value:#x} does not fit in {self.bits} bits"
            )

    def matches(self, value: int) -> bool:
        return value == self.value

    def specificity(self) -> int:
        return self.bits

    def consulted_mask(self) -> int:
        return mask_of(self.bits)


@dataclass(frozen=True)
class PrefixMatch(FieldMatch):
    """CIDR prefix predicate: top ``length`` bits of ``value`` must match.

    ``PrefixMatch(value, length=0, bits=w)`` is the full wildcard (the
    paper's ``0.0.0.0/0`` routing entries).
    """

    value: int
    length: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= self.bits:
            raise OpenFlowError(
                f"prefix length {self.length} outside [0, {self.bits}]"
            )
        if self.value & ~prefix_mask(self.length, self.bits) & mask_of(self.bits):
            raise OpenFlowError(
                f"prefix value {self.value:#x}/{self.length} has host bits set"
            )

    def matches(self, value: int) -> bool:
        mask = prefix_mask(self.length, self.bits)
        return (value & mask) == self.value

    def specificity(self) -> int:
        return self.length

    def consulted_mask(self) -> int:
        return prefix_mask(self.length, self.bits)

    @property
    def key(self) -> tuple[int, int]:
        """The ``(value, length)`` pair identifying this prefix."""
        return (self.value, self.length)


@dataclass(frozen=True)
class RangeMatch(FieldMatch):
    """Inclusive numeric range predicate (transport port fields)."""

    low: int
    high: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high <= mask_of(self.bits):
            raise OpenFlowError(
                f"range [{self.low}, {self.high}] invalid for {self.bits} bits"
            )

    def matches(self, value: int) -> bool:
        return self.low <= value <= self.high

    def specificity(self) -> int:
        # A degenerate range is as specific as an exact match; the full
        # range is a wildcard.  Intermediate ranges are ranked by how much
        # of the value space they exclude, quantised to bit granularity.
        span = self.high - self.low + 1
        return self.bits - (span - 1).bit_length() if span > 1 else self.bits

    def consulted_mask(self) -> int:
        # A range boundary is not bit-aligned; only the full range is
        # value-independent.
        return 0 if self.is_full else mask_of(self.bits)

    @property
    def is_full(self) -> bool:
        """True when the range covers the whole field (wildcard)."""
        return self.low == 0 and self.high == mask_of(self.bits)


@dataclass(frozen=True)
class MaskedMatch(FieldMatch):
    """General OXM masked predicate: ``value & mask`` must equal ``value``."""

    value: int
    mask: int
    bits: int

    def __post_init__(self) -> None:
        if self.mask & ~mask_of(self.bits):
            raise OpenFlowError(f"mask {self.mask:#x} wider than {self.bits} bits")
        if self.value & ~self.mask:
            raise OpenFlowError("masked match has value bits outside the mask")

    def matches(self, value: int) -> bool:
        return (value & self.mask) == self.value

    def specificity(self) -> int:
        return bin(self.mask).count("1")

    def consulted_mask(self) -> int:
        return self.mask


class FieldMaskSink:
    """Minimal consulted-bits accumulator (field name -> OR'd bitmask).

    The common sink passed as ``mask=`` to a table's scalar ``lookup``
    when only the raw per-field masks are wanted — e.g. comparing a
    table's capture with what its partition engines or predicates
    consulted.  The megaflow recorder layers rewrite filtering and
    table tagging on top of the same ``consult`` protocol.
    """

    __slots__ = ("fields",)

    def __init__(self) -> None:
        self.fields: dict[str, int] = {}

    def consult(self, field_name: str, bitmask: int) -> None:
        if bitmask:
            self.fields[field_name] = self.fields.get(field_name, 0) | bitmask


class Match(Mapping[str, FieldMatch]):
    """A multi-field OpenFlow match (field name -> predicate).

    Fields not present are wildcards, as in the OXM encoding.  The match
    validates field names and value widths against a registry at
    construction, so downstream code never sees malformed predicates.

    Zero-bit predicates — ``WildcardMatch``, ``PrefixMatch(length=0)``,
    a full ``RangeMatch``, a zero-mask ``MaskedMatch`` — constrain
    nothing and have no OXM encoding (an all-wild field is simply
    omitted from the TLV list), so they are **canonicalised away** here:
    a match constructed with one equals (and hashes as) the match
    without it.  This also keeps the scan and decomposition paths
    observationally identical — the decomposition's engines treat
    zero-bit predicates as unconstrained (``NO_LABEL``), so the
    behavioural model must too, *including* for packets lacking the
    field entirely (found by the differential property harness: a
    ``/0`` route previously failed the scan path on a field-less packet
    but matched through the engines).
    """

    __slots__ = ("_fields", "_registry", "_hash")

    def __init__(
        self,
        fields: Mapping[str, FieldMatch] | None = None,
        registry: FieldRegistry = REGISTRY,
    ) -> None:
        self._registry = registry
        validated: dict[str, FieldMatch] = {}
        for name, predicate in (fields or {}).items():
            definition = registry[name]
            if predicate.bits != definition.bits:  # type: ignore[attr-defined]
                raise OpenFlowError(
                    f"predicate for {name!r} is {predicate.bits} bits, "  # type: ignore[attr-defined]
                    f"field is {definition.bits}"
                )
            if predicate.consulted_mask() == 0:
                continue  # zero-bit predicate: OXM would omit the field
            validated[name] = predicate
        self._fields = validated
        #: Computed on first ``__hash__``: flow-mods and expiries hash
        #: one match several times through the tables' key dicts.
        self._hash: int | None = None

    @classmethod
    def exact(
        cls, registry: FieldRegistry = REGISTRY, **values: int
    ) -> Match:
        """Build an all-exact match from keyword field values.

        >>> m = Match.exact(in_port=3, eth_type=0x0800)
        >>> m.matches({"in_port": 3, "eth_type": 0x0800})
        True
        """
        fields = {
            name: ExactMatch(value, registry[name].bits)
            for name, value in values.items()
        }
        return cls(fields, registry)

    def __getitem__(self, name: str) -> FieldMatch:
        return self._fields[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"Match({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._fields == other._fields

    def __reduce__(self) -> tuple[object, ...]:
        # The default registry is a process-global singleton; pickled by
        # value it copies the whole field schema into every serialised
        # match (~2.4 KB each), which dominates pipeline snapshots,
        # mutation-log submits, and transport payloads.  Ship the fields
        # alone and re-attach the global on load; matches built against
        # a custom registry still travel by value.
        if self._registry is REGISTRY:
            return (_rebuild_match, (self._fields,))
        return (Match, (self._fields, self._registry))

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(frozenset(self._fields.items()))
        return cached

    def matches(self, packet_fields: Mapping[str, int]) -> bool:
        """Evaluate against extracted packet fields.

        A constrained field missing from the packet (e.g. matching
        ``ipv4_src`` on a non-IP packet) fails the match, per the OpenFlow
        prerequisite model.
        """
        for name, predicate in self._fields.items():
            value = packet_fields.get(name)
            if value is None or not predicate.matches(value):
                return False
        return True

    def specificity(self) -> int:
        """Total constrained bits, used as a default priority tiebreak."""
        return sum(p.specificity() for p in self._fields.values())

    @property
    def is_table_miss(self) -> bool:
        """True for the empty match, which OpenFlow uses for table-miss."""
        return not self._fields


def _rebuild_match(fields: Mapping[str, FieldMatch]) -> Match:
    """Unpickle a :class:`Match` against the process-global default
    registry (see ``Match.__reduce__``); ``__init__`` re-validates."""
    return Match(fields, REGISTRY)
