"""Trie tests: the unibit oracle, and the multi-bit trie against it.

The multi-bit trie with controlled prefix expansion is the paper's
central structure; its lookup/lookup_all are differential-tested against
the obviously-correct binary trie under hypothesis-generated workloads,
including interleaved removals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import NO_LABEL
from repro.algorithms.binary_trie import BinaryTrie
from repro.algorithms.multibit_trie import DEFAULT_STRIDES, MultibitTrie
from repro.util.bits import canonical_prefix, mask_of

prefixes = st.tuples(
    st.integers(min_value=0, max_value=mask_of(16)),
    st.integers(min_value=0, max_value=16),
).map(lambda t: canonical_prefix(t[0], t[1], 16))

prefix_lists = st.lists(prefixes, min_size=0, max_size=60, unique=True)
keys = st.integers(min_value=0, max_value=mask_of(16))


def build_both(entries):
    binary = BinaryTrie(key_bits=16)
    multibit = MultibitTrie(key_bits=16)
    for label, (value, length) in enumerate(entries, start=1):
        binary.insert(value, length, label)
        multibit.insert(value, length, label)
    return binary, multibit


class TestBinaryTrie:
    def test_lpm_basic(self):
        trie = BinaryTrie(key_bits=16)
        trie.insert(0x0A00, 8, 1)
        trie.insert(0x0A80, 9, 2)
        assert trie.lookup(0x0A90) == 2
        assert trie.lookup(0x0A10) == 1
        assert trie.lookup(0x0B00) == NO_LABEL

    def test_lookup_all_longest_first(self):
        trie = BinaryTrie(key_bits=16)
        trie.insert(0x0A00, 8, 1)
        trie.insert(0x0A80, 9, 2)
        trie.insert(0, 0, 3)
        assert trie.lookup_all(0x0A90) == (2, 1, 3)

    def test_duplicate_same_label_noop(self):
        trie = BinaryTrie(key_bits=16)
        trie.insert(0x0A00, 8, 1)
        trie.insert(0x0A00, 8, 1)
        assert len(trie) == 1

    def test_duplicate_other_label_rejected(self):
        trie = BinaryTrie(key_bits=16)
        trie.insert(0x0A00, 8, 1)
        with pytest.raises(ValueError):
            trie.insert(0x0A00, 8, 2)

    def test_node_counts(self):
        trie = BinaryTrie(key_bits=16)
        trie.insert(0x8000, 1, 1)
        assert trie.node_count() == 2  # root + one child
        assert trie.nodes_per_depth() == [1, 1]


class TestMultibitTrieBasics:
    def test_strides_must_sum(self):
        with pytest.raises(ValueError):
            MultibitTrie(key_bits=16, strides=(5, 5))

    def test_default_strides(self):
        trie = MultibitTrie()
        assert trie.strides == DEFAULT_STRIDES
        assert trie.boundaries == (5, 10, 16)

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            MultibitTrie().insert(0x0001, 8, 1)

    def test_no_label_rejected(self):
        with pytest.raises(ValueError):
            MultibitTrie().insert(0, 0, NO_LABEL)

    def test_default_entry(self):
        trie = MultibitTrie()
        trie.insert(0, 0, 7)
        assert trie.lookup(0x1234) == 7
        assert trie.lookup_all(0xFFFF) == (7,)

    def test_conflicting_default_rejected(self):
        trie = MultibitTrie()
        trie.insert(0, 0, 7)
        with pytest.raises(ValueError):
            trie.insert(0, 0, 8)

    def test_expansion_count(self):
        """A /8 prefix expands to 2^(10-8)=4 records at level 2."""
        trie = MultibitTrie()
        trie.insert(0x0A00, 8, 1)
        stats = trie.level_stats()
        assert stats[0].records == 1  # path record at L1
        assert stats[1].records == 4  # expanded records
        assert stats[2].records == 0

    def test_boundary_prefix_no_expansion(self):
        trie = MultibitTrie()
        trie.insert(0x5000, 5, 1)  # exactly at L1 boundary
        stats = trie.level_stats()
        assert stats[0].records == 1
        assert stats[1].records == 0

    def test_longest_wins_shared_record(self):
        trie = MultibitTrie()
        trie.insert(0x0A00, 7, 1)  # /7 expands over 8 L2 records
        trie.insert(0x0A00, 8, 2)  # /8 expands over 4 of the same records
        assert trie.lookup(0x0A01) == 2  # inside /8: longest wins
        assert trie.lookup(0x0B01) == 1  # outside /8 but inside /7

    def test_level_stats_fields(self):
        trie = MultibitTrie()
        trie.insert(0x0A14, 16, 1)
        stats = trie.level_stats()
        assert [s.level for s in stats] == [1, 2, 3]
        assert [s.boundary for s in stats] == [5, 10, 16]
        assert stats[0].with_child == 1
        assert stats[2].with_label == 1

    def test_full_array_records(self):
        trie = MultibitTrie()
        trie.insert(0x0A14, 16, 1)
        full = trie.full_array_records()
        assert full[0] == 32  # complete root array
        assert full[1] == 32  # one L2 node of 2^5
        assert full[2] == 64  # one L3 node of 2^6

    def test_entries_iterator(self):
        trie = MultibitTrie()
        trie.insert(0x0A00, 8, 1)
        assert list(trie.entries()) == [(0x0A00, 8, 1)]
        assert (0x0A00, 8) in trie

    def test_max_label(self):
        trie = MultibitTrie()
        assert trie.max_label() == 0
        trie.insert(0x0A00, 8, 41)
        assert trie.max_label() == 41

    def test_wide_key_rejected_on_lookup(self):
        with pytest.raises(ValueError):
            MultibitTrie().lookup(1 << 16)


class TestMultibitVsBinary:
    @settings(max_examples=150)
    @given(prefix_lists, keys)
    def test_lookup_matches_oracle(self, entries, key):
        binary, multibit = build_both(entries)
        assert multibit.lookup(key) == binary.lookup(key)

    @settings(max_examples=150)
    @given(prefix_lists, keys)
    def test_lookup_all_matches_oracle(self, entries, key):
        binary, multibit = build_both(entries)
        assert multibit.lookup_all(key) == binary.lookup_all(key)

    @settings(max_examples=100)
    @given(prefix_lists, st.data())
    def test_removal_equivalent_to_never_inserted(self, entries, data):
        if not entries:
            return
        doomed = data.draw(st.sampled_from(entries))
        survivors = [e for e in entries if e != doomed]

        multibit = MultibitTrie(key_bits=16)
        for label, (value, length) in enumerate(entries, start=1):
            multibit.insert(value, length, label)
        assert multibit.remove(*doomed)

        reference = MultibitTrie(key_bits=16)
        for value, length in survivors:
            reference.insert(value, length, multibit._entries[(value, length)])

        key = data.draw(keys)
        assert multibit.lookup(key) == reference.lookup(key)
        assert multibit.lookup_all(key) == reference.lookup_all(key)
        # Garbage collection restores the exact record population.
        assert [s.records for s in multibit.level_stats()] == [
            s.records for s in reference.level_stats()
        ]

    @settings(max_examples=150)
    @given(prefix_lists, st.data())
    def test_descend_is_lookup_all_plus_consulted_bits(self, entries, data):
        """One walk down the levels answers both questions — across
        churn, so the per-length bookkeeping ``lookup_all`` skips empty
        lengths by is exercised through removals and re-inserts."""
        binary, multibit = build_both(entries)
        for doomed in data.draw(
            st.lists(st.sampled_from(entries), max_size=8, unique=True)
            if entries
            else st.just([])
        ):
            assert multibit.remove(*doomed)
            binary = BinaryTrie(key_bits=16)
            for (value, length), label in multibit._entries.items():
                binary.insert(value, length, label)
        stored = sorted({length for _, length in multibit._entries if length})
        assert sorted(multibit._lengths) == stored
        for key in data.draw(st.lists(keys, min_size=1, max_size=8)):
            labels, consulted = multibit.descend(key)
            assert labels == multibit.lookup_all(key) == binary.lookup_all(key)
            assert consulted == multibit.consulted_bits(key)
            # The consulted-bits contract: agreeing on the consulted
            # top bits pins the whole answer.
            twin = key ^ data.draw(
                st.integers(0, mask_of(16 - consulted))
            )
            assert multibit.descend(twin) == (labels, consulted)

    def test_remove_missing_returns_false(self):
        assert not MultibitTrie().remove(0x0A00, 8)

    def test_remove_all_empties_structure(self):
        trie = MultibitTrie()
        entries = [(0x0A00, 8), (0x0A14, 16), (0x8000, 2), (0, 0)]
        for label, (value, length) in enumerate(entries, start=1):
            trie.insert(value, length, label)
        for value, length in entries:
            assert trie.remove(value, length)
        assert trie.stored_nodes() == 0
        assert len(trie) == 0
        assert trie.lookup(0x0A01) == NO_LABEL


class TestAlternativeStrides:
    @settings(max_examples=60)
    @given(
        prefix_lists,
        keys,
        st.sampled_from([(16,), (8, 8), (4, 4, 4, 4), (6, 5, 5), (1,) * 16]),
    )
    def test_any_stride_distribution_correct(self, entries, key, strides):
        binary = BinaryTrie(key_bits=16)
        multibit = MultibitTrie(key_bits=16, strides=strides)
        for label, (value, length) in enumerate(entries, start=1):
            binary.insert(value, length, label)
            multibit.insert(value, length, label)
        assert multibit.lookup(key) == binary.lookup(key)
