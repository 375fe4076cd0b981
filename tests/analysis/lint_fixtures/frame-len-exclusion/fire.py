# repro-lint fixture: should FIRE frame-len-exclusion.
# A per-packet length in an exact-match key splinters every flow into
# per-size microflows; in a shard schema it scatters one aggregate
# across shards.
FRAME_LEN_FIELD = "frame_len"


def keyed_by_length(batch, fields):
    return batch.key_hashes((*fields, FRAME_LEN_FIELD))


def literal_in_key(batch, rows):
    return batch.masked_keys((("eth_dst", 0xFF), ("frame_len", 0xFF)), rows)


def length_in_key_codes(batch):
    return batch.masked_key_codes(((FRAME_LEN_FIELD, 0xFFFF),))


def schema_with_length(cache_cls, table):
    return cache_cls(table, field_names=("eth_src", FRAME_LEN_FIELD))
