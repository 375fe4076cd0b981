# repro-lint fixture: should NOT fire hot-path-purity.


def lookup_batch_columnar(self, batch, rows):
    # The fallback for tables without a keyed lookup may materialise
    # rows one at a time (lazy, aliased across duplicates).
    return [self.lookup(batch.row_fields(row)) for row in rows]


def probe(self, batch, frame):
    # Key codes off the lanes, one probe per distinct code: the whole
    # point of the probe tier.
    keys, codes = batch.masked_key_codes(self.mask)
    return [self.index.get(keys[code]) for code in set(codes[batch.pick].tolist())]


def classify_columnar(pipeline, batch, misses):
    # Megaflow misses stay index arrays: keys come off the lanes.
    lanes, _ = batch.column("in_port")
    return pipeline.walk(lanes[0][batch.pick[misses]])


def credit_outcomes(stats, outcomes):
    # One fold per traversal, from its sums: no row is ever read.
    for traversal, count in zip(outcomes.traversals, outcomes.packets):
        stats.add(traversal.outcome, count)


def install_batch(self, batch, positions, mask):
    keys, codes = batch.masked_key_codes(mask)
    return [keys[code] for code in codes[batch.pick[positions]].tolist()]


def _scan_wave(self, table, members):
    # The scalar fallback for schema-less tables is not a hot tier: it
    # may materialise the rows it hands to ``table.lookup``.
    return [table.lookup(self.batch.row_fields(row)) for row in members]


def decode_outcomes(reader, pipeline, pinned):
    # One template per *distinct traversal*, replayed from the entries
    # its refs name; every position costs one code.
    templates = [
        pipeline.replay_path([pinned[ref] for ref in refs])
        for refs in reader.get("res/matched")
    ]
    return templates, reader.get("res/codes").tolist()


def _collect(self, inflight, decoded):
    # Merging stays on the codes: nothing per packet is materialised.
    codes = decoded.codes + len(inflight.traversals)
    return inflight.batch, inflight.traversals + decoded.traversals, codes


def replay_path(self, matched):
    return PipelineResult(final_fields={})


def results(self):
    # Materialising results is the caller's choice, made after the walk.
    return [
        PipelineResult(final_fields=dict(self.batch.fields_at(i)))
        for i in range(len(self.batch))
    ]


def cold_path_report(codec, payload, batch):
    # ...and outside the hot tiers, decode/dicts are fair game.
    decoded = codec.decode(payload)
    return decoded, batch.dicts()


class PipelineResult:
    def __init__(self, final_fields):
        self.final_fields = final_fields
