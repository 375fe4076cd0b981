"""Columnar ``PacketBatch``: round-trip, aliasing and key properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.packet.batch import FieldLanes, PacketBatch
from repro.packet.generator import PacketGenerator, TraceConfig
from repro.packet.headers import FRAME_LEN_FIELD
from repro.packet.parser import parse_batch
from repro.packet.builder import build_packet
from repro.runtime.transport import BlockReader, BlockWriter, PacketBlockCodec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# A value pool crossing every lane boundary: zeros, in-width values,
# 64-bit edges and >64-bit (ipv6-sized) values.
_values = st.one_of(
    st.integers(0, 3),
    st.integers(0, 2**16 - 1),
    st.sampled_from((2**63, 2**64 - 1, 2**64, 2**100, 2**127)),
    st.integers(0, 2**128 - 1),
)

_field_names = ("ipv4_src", "tcp_dst", "ipv6_src", "odd_field", FRAME_LEN_FIELD)

_packet = st.dictionaries(
    st.sampled_from(_field_names), _values, max_size=len(_field_names)
)

_example = st.tuples(
    st.lists(_packet, min_size=1, max_size=8),  # distinct packet pool
    st.lists(st.integers(0, 7), min_size=1, max_size=24),  # aliasing picks
)


def _trace(example):
    pool, picks = example
    return [pool[pick % len(pool)] for pick in picks]


@settings(max_examples=60, deadline=None)
@given(example=_example)
def test_columnar_dict_round_trip(example):
    """from_dicts -> dicts() is the identity, aliasing included."""
    trace = _trace(example)
    batch = PacketBatch.from_dicts(trace)
    assert len(batch) == len(trace)
    decoded = batch.dicts()
    assert decoded == trace
    # Aliasing: the very same dict objects come back.
    for got, original in zip(decoded, trace):
        assert got is original


@settings(max_examples=40, deadline=None)
@given(example=_example)
def test_block_round_trip(example):
    """Encoding through a transport block and re-attaching loses nothing
    (the decode-free worker's view of a batch)."""
    trace = _trace(example)
    codec = PacketBlockCodec()
    writer = BlockWriter()
    layout = codec.encode_batch(
        writer, PacketBatch.from_dicts(trace, codec.field_bits), "pkt"
    )
    buf = bytearray(writer.nbytes)
    segments = writer.write_to(memoryview(buf))
    reader = BlockReader(memoryview(buf), segments)
    decoded = codec.attach(reader, layout).dicts()
    assert decoded == trace
    # Duplicate positions decode to one shared dict.
    for i, a in enumerate(trace):
        for j, b in enumerate(trace):
            if a is b:
                assert decoded[i] is decoded[j]


def packed_masked_key(mask, fields):
    """The packed-key layout, spelled out for one packet: per mask
    field the ``value & bits`` words (as many uint64 lanes as the mask
    bits need, low first; zeros where the field is absent), then one
    word of presence bits in mask order."""
    words = []
    presence = 0
    for bit, (name, bits) in enumerate(mask):
        value = fields.get(name)
        if value is not None:
            presence |= 1 << bit
            value &= bits
        else:
            value = 0
        for lane in range(max(1, (bits.bit_length() + 63) // 64)):
            words.append((value >> (64 * lane)) & 0xFFFFFFFFFFFFFFFF)
    words.append(presence)
    return np.asarray(words, dtype=np.uint64).tobytes()


@settings(max_examples=40, deadline=None)
@given(example=_example)
def test_masked_key_scalar_vector_parity(example):
    """The vectorized batch packing is a pure function of the mask and
    the packet — byte-for-byte the scalar layout above on every row and
    mask, whatever else shares the batch — so the megaflow index can
    compare keys installed from one batch with probes from another."""
    trace = _trace(example)
    batch = PacketBatch.from_dicts(trace)
    masks = (
        (("ipv4_src", 0xFF00), ("tcp_dst", 0x0F)),
        (("ipv6_src", (1 << 128) - 1),),
        (("odd_field", 0x3), ("ipv4_src", 0)),
    )
    for mask in masks:
        keys, codes = batch.masked_key_codes(mask)
        assert len(codes) == batch.rows
        assert len(set(keys)) == len(keys), "a key holds two codes"
        for position in range(len(batch)):
            row = int(batch.pick[position])
            assert keys[codes[row]] == packed_masked_key(mask, trace[position])


def test_slice_views_share_rows():
    a = {"ipv4_src": 1, FRAME_LEN_FIELD: 100}
    b = {"ipv4_src": 2, FRAME_LEN_FIELD: 200}
    batch = PacketBatch.from_dicts([a, b, a, b, a])
    view = batch[1:4]
    assert len(view) == 3
    assert view.dicts() == [b, a, b]
    assert view.dicts()[1] is a
    assert view.byte_total == 500
    assert batch.byte_total == 700
    assert batch.frame_lengths().tolist() == [100, 200, 100, 200, 100]


def test_select_and_getitem():
    a = {"ipv4_src": 1}
    b = {"ipv4_src": 2}
    batch = PacketBatch.from_dicts([a, b, a])
    assert batch[0] is a and batch[1] is b
    sub = batch.select([2, 1])
    assert sub.dicts() == [a, b]
    assert list(batch) == [a, b, a]


def test_from_columns_materialises_lazily():
    trace = [{"ipv4_src": 7, "tcp_dst": 80}, {"ipv4_src": 7}]
    codec = PacketBlockCodec()
    writer = BlockWriter()
    layout = codec.encode_batch(
        writer, PacketBatch.from_dicts(trace, codec.field_bits), "pkt"
    )
    buf = bytearray(writer.nbytes)
    segments = writer.write_to(memoryview(buf))
    attached = codec.attach(BlockReader(memoryview(buf), segments), layout)
    # Nothing materialised yet; one access materialises one row only.
    assert attached._store.row_cache == {}
    first = attached.fields_at(0)
    assert first == trace[0]
    assert len(attached._store.row_cache) == 1
    # Presence is honoured: row 1 has no tcp_dst key at all.
    assert attached.fields_at(1) == {"ipv4_src": 7}


def test_parse_batch_emits_columnar():
    generator = PacketGenerator(TraceConfig(seed=7))
    packets = [generator.random_packet() for _ in range(6)]
    frames = [build_packet(packet) for packet in packets]
    batch = parse_batch(frames, in_port=3)
    assert isinstance(batch, PacketBatch)
    assert len(batch) == len(frames)
    for fields, packet in zip(batch.dicts(), packets):
        assert fields["in_port"] == 3
        assert fields[FRAME_LEN_FIELD] == len(build_packet(packet))


def test_sample_batch_matches_sample_trace():
    generator = PacketGenerator(TraceConfig(seed=9))
    flows = [{"ipv4_src": i, FRAME_LEN_FIELD: 64 + i} for i in range(4)]
    batch = generator.sample_batch(flows, 32)
    reference = PacketGenerator(TraceConfig(seed=9)).sample_trace(flows, 32)
    assert batch.dicts() == reference


def test_negative_value_rejected():
    with pytest.raises(ValueError, match="negative"):
        PacketBatch.from_dicts([{"ipv4_src": -1}])


def test_frame_lengths_zero_without_column():
    batch = PacketBatch.from_dicts([{"ipv4_src": 1}])
    assert batch.frame_lengths().tolist() == [0]
    assert batch.byte_total == 0


class _CastSpy(np.ndarray):
    """A lane that records the length of every array cast from it."""

    casts: list[int] = []

    def astype(self, *args, **kwargs):
        self.casts.append(len(self))
        return np.asarray(self).astype(*args, **kwargs)


@pytest.mark.parametrize("some_absent", [False, True])
def test_frame_lengths_of_a_view_cast_the_view_not_the_store(
    monkeypatch, some_absent
):
    lengths = [
        None if some_absent and i % 7 == 0 else 64 + i % 1437 for i in range(5000)
    ]
    trace = [
        {"ipv4_src": i} if length is None else {"ipv4_src": i, FRAME_LEN_FIELD: length}
        for i, length in enumerate(lengths)
    ]
    batch = PacketBatch.from_dicts(trace)
    lanes, present = batch.column(FRAME_LEN_FIELD)
    assert (present is not None) == some_absent
    view = batch[1000:1256]
    expected = [length or 0 for length in lengths[1000:1256]]
    frame = view.frame_lengths()
    assert frame.dtype == np.int64 and frame.tolist() == expected
    assert view.select([5, 0, 5]).frame_lengths().tolist() == [
        expected[5], expected[0], expected[5]
    ]
    assert batch.frame_lengths().tolist() == [length or 0 for length in lengths]

    monkeypatch.setattr(_CastSpy, "casts", [])
    batch._store.columns[FRAME_LEN_FIELD] = FieldLanes(
        (lanes[0].view(_CastSpy),), present
    )
    assert view.frame_lengths().tolist() == expected
    assert _CastSpy.casts == [len(view)]


def test_empty_batch():
    batch = PacketBatch.from_dicts([])
    assert len(batch) == 0
    assert batch.dicts() == []
    assert batch.byte_total == 0
    assert batch.key_hashes(("ipv4_src",)).shape == (0,)
