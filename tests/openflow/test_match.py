"""Tests for per-field predicates and the multi-field Match."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.openflow.errors import OpenFlowError
from repro.openflow.match import (
    ExactMatch,
    MaskedMatch,
    Match,
    PrefixMatch,
    RangeMatch,
    WildcardMatch,
)
from repro.util.bits import mask_of, prefix_covers_value


class TestExactMatch:
    def test_matches_only_value(self):
        predicate = ExactMatch(value=7, bits=8)
        assert predicate.matches(7)
        assert not predicate.matches(8)

    def test_width_enforced(self):
        with pytest.raises(OpenFlowError):
            ExactMatch(value=256, bits=8)

    def test_specificity_is_width(self):
        assert ExactMatch(value=1, bits=13).specificity() == 13

    def test_hashable(self):
        assert ExactMatch(1, 8) in {ExactMatch(1, 8)}


class TestPrefixMatch:
    def test_prefix_semantics(self):
        predicate = PrefixMatch(value=0x0A000000, length=8, bits=32)
        assert predicate.matches(0x0A123456)
        assert not predicate.matches(0x0B123456)

    def test_zero_length_is_wildcard(self):
        predicate = PrefixMatch(value=0, length=0, bits=32)
        assert predicate.matches(0) and predicate.matches(mask_of(32))

    def test_host_bits_rejected(self):
        with pytest.raises(OpenFlowError):
            PrefixMatch(value=0x0A000001, length=8, bits=32)

    def test_length_bounds(self):
        with pytest.raises(OpenFlowError):
            PrefixMatch(value=0, length=33, bits=32)

    def test_specificity_is_length(self):
        assert PrefixMatch(value=0x0A000000, length=8, bits=32).specificity() == 8

    @given(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=mask_of(16)),
        st.integers(min_value=0, max_value=mask_of(16)),
    )
    def test_agrees_with_prefix_covers(self, length, raw, probe):
        from repro.util.bits import canonical_prefix

        value, length = canonical_prefix(raw, length, 16)
        predicate = PrefixMatch(value=value, length=length, bits=16)
        assert predicate.matches(probe) == prefix_covers_value(
            value, length, probe, 16
        )


class TestRangeMatch:
    def test_inclusive_bounds(self):
        predicate = RangeMatch(low=10, high=20, bits=16)
        assert predicate.matches(10) and predicate.matches(20)
        assert not predicate.matches(9) and not predicate.matches(21)

    def test_invalid_order_rejected(self):
        with pytest.raises(OpenFlowError):
            RangeMatch(low=5, high=4, bits=16)

    def test_is_full(self):
        assert RangeMatch(low=0, high=65535, bits=16).is_full
        assert not RangeMatch(low=0, high=65534, bits=16).is_full

    def test_specificity_ordering(self):
        exact = RangeMatch(low=80, high=80, bits=16)
        narrow = RangeMatch(low=0, high=1023, bits=16)
        full = RangeMatch(low=0, high=65535, bits=16)
        assert exact.specificity() > narrow.specificity() > full.specificity()


class TestMaskedMatch:
    def test_masked_semantics(self):
        predicate = MaskedMatch(value=0x10, mask=0xF0, bits=8)
        assert predicate.matches(0x1F)
        assert not predicate.matches(0x2F)

    def test_value_outside_mask_rejected(self):
        with pytest.raises(OpenFlowError):
            MaskedMatch(value=0x01, mask=0xF0, bits=8)

    def test_specificity_counts_mask_bits(self):
        assert MaskedMatch(value=0, mask=0b1010, bits=8).specificity() == 2


class TestWildcard:
    def test_matches_everything(self):
        predicate = WildcardMatch(bits=16)
        assert predicate.matches(0) and predicate.matches(65535)

    def test_zero_specificity(self):
        assert WildcardMatch(bits=16).specificity() == 0


class TestMatch:
    def test_exact_builder(self):
        match = Match.exact(in_port=3, eth_type=0x0800)
        assert match.matches({"in_port": 3, "eth_type": 0x0800})
        assert not match.matches({"in_port": 4, "eth_type": 0x0800})

    def test_missing_field_fails_match(self):
        match = Match.exact(ipv4_src=0x0A000001)
        assert not match.matches({"eth_type": 0x0800})

    def test_empty_match_is_table_miss(self):
        assert Match({}).is_table_miss
        assert not Match.exact(in_port=1).is_table_miss

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            Match({"bogus": WildcardMatch(bits=8)})

    def test_zero_bit_predicates_canonicalised_away(self):
        """OXM omits all-wild fields; the match drops them so the scan
        and decomposition paths agree on field-less packets (the /0
        divergence the differential property harness found)."""
        noisy = Match(
            {
                "in_port": ExactMatch(value=3, bits=32),
                "ipv4_dst": PrefixMatch(value=0, length=0, bits=32),
                "tcp_dst": RangeMatch(low=0, high=0xFFFF, bits=16),
                "eth_type": WildcardMatch(bits=16),
            }
        )
        assert set(noisy) == {"in_port"}
        assert noisy == Match.exact(in_port=3)
        assert hash(noisy) == hash(Match.exact(in_port=3))
        # A /0-only match constrains nothing: it matches a packet that
        # lacks the field entirely, exactly like the empty match.
        default_route = Match({"ipv4_dst": PrefixMatch(0, 0, 32)})
        assert default_route.matches({"eth_type": 0x0806})
        assert default_route.is_table_miss

    def test_cached_hash_survives_canonicalisation_and_pickle(self):
        """The hash is computed once and cached; a match built with a
        zero-bit predicate and the same match built without it hash
        equal, and so do their pickle round trips (the cache is not
        shipped: ``__reduce__`` rebuilds through ``__init__``)."""
        noisy = Match(
            {
                "in_port": ExactMatch(value=3, bits=32),
                "ipv4_dst": PrefixMatch(value=0, length=0, bits=32),
            }
        )
        clean = Match.exact(in_port=3)
        assert hash(noisy) == hash(noisy) == hash(clean)
        noisy_copy = pickle.loads(pickle.dumps(noisy))
        clean_copy = pickle.loads(pickle.dumps(clean))
        assert noisy_copy == clean_copy == noisy
        assert hash(noisy_copy) == hash(clean_copy) == hash(clean)
        assert {noisy: 1}[clean_copy] == 1

    def test_wrong_width_rejected(self):
        with pytest.raises(OpenFlowError):
            Match({"vlan_vid": ExactMatch(value=1, bits=16)})

    def test_equality_and_hash(self):
        a = Match.exact(in_port=1)
        b = Match.exact(in_port=1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Match.exact(in_port=2)

    def test_specificity_sums_fields(self):
        match = Match(
            {
                "ipv4_dst": PrefixMatch(value=0x0A000000, length=8, bits=32),
                "in_port": ExactMatch(value=1, bits=32),
            }
        )
        assert match.specificity() == 40

    def test_mapping_interface(self):
        match = Match.exact(in_port=1, eth_type=0x0800)
        assert len(match) == 2
        assert set(match) == {"in_port", "eth_type"}
        assert isinstance(match["in_port"], ExactMatch)

    def test_extra_packet_fields_ignored(self):
        match = Match.exact(in_port=1)
        assert match.matches({"in_port": 1, "eth_type": 0x0800, "vlan_vid": 5})
