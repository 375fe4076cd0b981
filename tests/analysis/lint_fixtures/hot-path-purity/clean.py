# repro-lint fixture: should NOT fire hot-path-purity.


def lookup_batch_columnar(self, batch):
    # One keyed probe per distinct microflow key, read off the lanes.
    keys = batch.masked_keys(self.mask, batch.pick)
    return self.lookup_keys(list(dict.fromkeys(keys)), False)


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


def decode_outcomes(reader, pipeline, pinned):
    # One path reference per *distinct traversal*, linked from the
    # entries its refs name; every position costs one code.  Nothing is
    # replayed until somebody reads.
    paths = []
    for refs in reader.get("res/matched"):
        path = ()
        for table_id, slot in refs:
            path = (path, table_id, slot, pinned[table_id].entries[slot])
        paths.append(path)
    return paths, reader.get("res/codes").tolist()


def encode_outcomes(writer, outcomes, pipeline, counters):
    # Refs are the (table_id, slot) pairs the path nodes carry.
    refs = [[(table_id, slot) for _, table_id, slot, _ in outcomes.nodes]]
    writer.put("res/matched/values", refs)


def gather_rows(pinned, table_id, slots):
    # Counter rows come off the pinned rows lane, by slot.
    return pinned[table_id].rows[slots]


def _collect(self, inflight, decoded):
    # Merging stays on the codes: nothing per packet is materialised,
    # and the runner's own record is no entry's stats.
    self.stats.batches += 1
    codes = decoded.codes + len(inflight.traversals)
    return inflight.batch, inflight.traversals + decoded.traversals, codes


def replay_path(self, matched):
    return PipelineResult(final_fields={})


def outcome(self, code):
    # A path is replayed only for a result somebody reads.
    return self.pipeline.replay_path(self.entries(code))


def run(self, missed):
    # The walk names each distinct path by its reference.
    return [self.nodes[code] for code in self.codes[missed].tolist()]


def results(self):
    # Materialising results is the caller's choice, made after the walk.
    return [
        PipelineResult(final_fields=dict(self.batch.fields_at(i)))
        for i in range(len(self.batch))
    ]


def _extend_paths(self, hit, actions, matched):
    # Counter rows and counted facts are slot lanes, gathered once.
    slots = matched[self.codes[hit]]
    return actions.rows[slots], actions.counted[slots]


def entry_counters(entry):
    # Outside the address-only tier an entry's stats are fair game.
    return entry.stats.packet_count


def cold_path_report(codec, payload, batch):
    # ...and outside the hot tiers, decode/dicts are fair game.
    decoded = codec.decode(payload)
    return decoded, batch.dicts()


class PipelineResult:
    def __init__(self, final_fields):
        self.final_fields = final_fields
