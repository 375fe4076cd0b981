# repro-lint fixture: should NOT fire frame-len-exclusion.
FRAME_LEN_FIELD = "frame_len"


def keyed_without_length(batch, fields):
    # The exclusion idiom: frame_len appears only inside a comparison
    # that filters it *out* of the key.
    keep = tuple(name for name in fields if name != FRAME_LEN_FIELD)
    return batch.key_hashes(keep)


def filtered_inline(batch, fields, rows):
    return batch.masked_keys(
        tuple((name, 0xFF) for name in fields if name != "frame_len"), rows
    )


def key_codes_without_length(batch, mask):
    return batch.masked_key_codes(tuple(p for p in mask if p[0] != FRAME_LEN_FIELD))


def length_as_metadata(stats, entry, fields):
    # frame_len feeding byte accounting is the whole point.
    stats.record(entry, fields.get(FRAME_LEN_FIELD, 0))


def schema_without_length(cache_cls, table, fields):
    return cache_cls(
        table,
        field_names=tuple(f for f in fields if f != FRAME_LEN_FIELD),
    )
