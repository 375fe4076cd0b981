"""Tests for the header partitioner and per-field engines."""

import pytest

from repro.algorithms.base import NO_LABEL
from repro.core.config import ArchitectureConfig
from repro.core.field_engine import (
    LutPartitionEngine,
    MetadataEngine,
    RangePartitionEngine,
    TriePartitionEngine,
    build_field_engine,
)
from repro.core.partition import HeaderPartitioner
from repro.openflow.match import (
    ExactMatch,
    PrefixMatch,
    RangeMatch,
    WildcardMatch,
)


def search(field_engine, partition_keys):
    """Per-partition label sets for one packet's partition keys — each
    partition engine's scalar ``search``, in MSB-first order."""
    return tuple(
        engine.search(partition_keys.get(engine.name))
        for engine in field_engine.engines
    )


class TestHeaderPartitioner:
    def test_partition_names(self):
        partitioner = HeaderPartitioner(("vlan_vid", "eth_dst"))
        assert partitioner.partition_names == (
            "vlan_vid",
            "eth_dst/hi",
            "eth_dst/mid",
            "eth_dst/lo",
        )

    def test_extract_slices_prefix_fields(self):
        partitioner = HeaderPartitioner(("in_port", "ipv4_dst"))
        (row,) = partitioner.split_keys([(3, 0x0A141E28)])
        assert dict(zip(partitioner.partition_names, row)) == {
            "in_port": 3,
            "ipv4_dst/hi": 0x0A14,
            "ipv4_dst/lo": 0x1E28,
        }

    def test_missing_field_yields_none(self):
        partitioner = HeaderPartitioner(("in_port", "ipv4_dst"))
        (row,) = partitioner.split_keys([(3, None)])
        keys = dict(zip(partitioner.partition_names, row))
        assert keys["ipv4_dst/hi"] is None and keys["ipv4_dst/lo"] is None

    def test_exact_field_not_partitioned(self):
        """EM fields wider than 16 bits (in_port: 32) stay whole — they go
        to a LUT, not to tries."""
        partitioner = HeaderPartitioner(("in_port",))
        assert partitioner.partition_names == ("in_port",)
        assert partitioner.split_keys([(0xABCD1234,)]) == [(0xABCD1234,)]


class TestEngineConstruction:
    def test_prefix_field_gets_tries(self):
        engine = build_field_engine("eth_dst")
        assert all(isinstance(e, TriePartitionEngine) for e in engine.engines)
        assert len(engine.engines) == 3

    def test_exact_field_gets_lut(self):
        engine = build_field_engine("vlan_vid")
        assert isinstance(engine.engines[0], LutPartitionEngine)
        assert engine.engines[0].partition.bits == 13

    def test_range_field_gets_range_engine(self):
        engine = build_field_engine("tcp_dst")
        assert isinstance(engine.engines[0], RangePartitionEngine)

    def test_metadata_gets_identity(self):
        engine = build_field_engine("metadata")
        assert isinstance(engine.engines[0], MetadataEngine)

    def test_strides_follow_config(self):
        config = ArchitectureConfig(strides=(8, 8))
        engine = build_field_engine("ipv4_dst", config)
        assert engine.engines[0].trie.strides == (8, 8)


class TestInsertAndSearch:
    def test_trie_field_roundtrip(self):
        engine = build_field_engine("ipv4_dst")
        labels = engine.insert_rule(PrefixMatch(0x0A141E00, 24, 32))
        assert labels[0] != NO_LABEL and labels[1] != NO_LABEL
        sets = search(engine, {"ipv4_dst/hi": 0x0A14, "ipv4_dst/lo": 0x1E55})
        assert labels[0] in sets[0] and labels[1] in sets[1]

    def test_trie_field_wildcard_partition(self):
        engine = build_field_engine("ipv4_dst")
        labels = engine.insert_rule(PrefixMatch(0x0A000000, 8, 32))
        assert labels[1] == NO_LABEL

    def test_repeated_value_same_label(self):
        engine = build_field_engine("ipv4_dst")
        a = engine.insert_rule(PrefixMatch(0x0A000000, 8, 32))
        b = engine.insert_rule(PrefixMatch(0x0A000000, 8, 32))
        assert a == b

    def test_lut_engine(self):
        engine = build_field_engine("vlan_vid")
        (label,) = engine.insert_rule(ExactMatch(0x1005, 13))
        assert search(engine, {"vlan_vid": 0x1005}) == ((label,),)
        assert search(engine, {"vlan_vid": 0x1006}) == ((),)
        assert search(engine, {}) == ((),)

    def test_lut_rejects_prefix(self):
        engine = build_field_engine("vlan_vid")
        with pytest.raises(TypeError):
            engine.insert_rule(PrefixMatch(0x1000, 4, 13))

    def test_range_engine(self):
        engine = build_field_engine("tcp_dst")
        (label,) = engine.insert_rule(RangeMatch(0, 1023, 16))
        assert label in search(engine, {"tcp_dst": 80})[0]
        assert search(engine, {"tcp_dst": 2000}) == ((),)

    def test_range_engine_full_range_is_wildcard(self):
        engine = build_field_engine("tcp_dst")
        assert engine.insert_rule(RangeMatch(0, 65535, 16)) == (NO_LABEL,)

    def test_range_engine_exact_degenerates(self):
        engine = build_field_engine("tcp_dst")
        (label,) = engine.insert_rule(ExactMatch(80, 16))
        assert search(engine, {"tcp_dst": 80}) == ((label,),)

    def test_wildcard_inserts_nothing(self):
        engine = build_field_engine("eth_dst")
        assert engine.insert_rule(WildcardMatch(48)) == (
            NO_LABEL,
            NO_LABEL,
            NO_LABEL,
        )
        assert all(e.entry_count() == 0 for e in engine.engines)


class TestMetadataEngine:
    def test_identity_semantics(self):
        engine = build_field_engine("metadata")
        assert engine.insert_rule(ExactMatch(5, 64)) == (5,)
        assert search(engine, {"metadata": 5}) == ((5,),)

    def test_zero_metadata_is_miss(self):
        engine = build_field_engine("metadata")
        assert search(engine, {"metadata": 0}) == ((),)
        assert search(engine, {}) == ((),)

    def test_label_zero_rule_rejected(self):
        engine = build_field_engine("metadata")
        with pytest.raises(ValueError):
            engine.insert_rule(ExactMatch(0, 64))

    def test_non_exact_rejected(self):
        engine = build_field_engine("metadata")
        with pytest.raises(TypeError):
            engine.insert_rule(RangeMatch(0, 5, 64))
