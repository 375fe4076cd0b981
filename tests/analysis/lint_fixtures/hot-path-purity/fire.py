# repro-lint fixture: should FIRE hot-path-purity.
# Hot-tier functions falling off the lanes into per-row dicts.

from operator import attrgetter


def lookup_batch_columnar(self, batch):
    rows = batch.dicts()  # bulk-materialises every row to key it
    first = batch.row_fields(batch.pick[0])  # even one row is off the lanes
    return self.lookup_batch(rows), first


def probe(self, batch, frame):
    results = []
    for position in range(len(batch)):
        results.append(
            PipelineResult(  # per-position result construction
                final_fields=batch.fields_at(position)
            )
        )
    return results


def classify_columnar(pipeline, codec, payload, misses):
    batch = codec.decode(payload)  # bulk decode on the fast path
    for position in misses:
        pipeline.resolve(batch.fields_at(position))  # a dict per miss
    return pipeline.run(batch)


def _wave(self, table, members):
    # The miss path walks index arrays: no row dict, no result per row.
    return [
        PipelineResult(final_fields=self.batch.row_fields(row))
        for row in members
    ]


def credit_outcomes(stats, outcomes):
    # The credit is per traversal: a row dict per packet is off the lanes.
    return [stats.add(outcomes.batch.fields_at(i)) for i in range(len(outcomes))]


def install_batch(self, batch, positions):
    return [self.install(batch.fields_at(i)) for i in positions]


def decode_outcomes(reader, pipeline, inputs):
    # The sharded reply is per traversal: a result per position is the
    # per-packet rebuild the codec exists to avoid.
    return [PipelineResult(final_fields=dict(packet)) for packet in inputs]


def _collect(self, inflight, decoded):
    results = []
    for position, code in enumerate(decoded.codes):
        fields = inflight.batch.fields_at(position)  # a dict per packet
        results.append((decoded.traversals[code], fields))
    return results


def run(self, missed):
    # The walk replays every distinct path, read or not.
    return [self.pipeline.replay_path(path) for path in self.paths]


def _walk_misses(self, outcomes, missed):
    # The misses' paths are installed and credited as references;
    # replaying them is the reader's business.
    return [self.pipeline.replay_path(path) for path in outcomes.paths]


def _extend_paths(self, hit, entries):
    # The counter row is a lane gathered by action slot, not two
    # attribute hops per matched entry.
    rows = [entry.stats.row for entry in entries]
    return rows, list(map(attrgetter("stats.row"), entries))


def encode_outcomes(writer, outcomes, pipeline, counters):
    # A ref is the slot on the path node, not a row read off the entry.
    writer.put("res/rows", [entry.stats.row for entry in outcomes.entries])


def _decode_rows(pinned, refs):
    return [pinned[table_id].entries[slot] for table_id, slot in refs]


def decode_outcomes(reader, pipeline, pinned, expected):
    # The pinned snapshot carries the rows lane: gather by slot.
    refs = reader.get("res/matched")
    return [entry.stats.row for entry in _decode_rows(pinned, refs)]


def _collect(self, seq):
    # Collecting merges credit lanes; it reads no entry's stats.
    return list(map(attrgetter("stats.row"), self._inflight[seq].entries))


class PipelineResult:
    def __init__(self, final_fields):
        self.final_fields = final_fields
