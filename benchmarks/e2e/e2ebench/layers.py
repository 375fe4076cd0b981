"""Staged calls: each layer's public functions timed on the workload's
own batches, outside any runner, so a layer the workload bypasses still
gets a number ("predicted flat") next to the layers that carry it.

Every function returns ``{metric name: value}`` for the metrics of one
layer; names and units are those of ``BENCHMARK.json``'s ``per_layer``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from repro.memory.report import architecture_memory_report, shared_state_report
from repro.openflow.pipeline import OpenFlowPipeline
from repro.packet.batch import PacketBatch
from repro.runtime import BatchPipeline, MicroflowCache, PacketBlockCodec, PipelineSpec
from repro.runtime.rulestate import SharedRuleState, attach_shared_tables
from repro.runtime.transport import BlockReader, BlockWriter

from .spans import LOOKUP_SPANS, TracedTable, Tracer
from .workloads import BATCH_SIZE, CACHE_CAPACITY, Bench, Handle

#: Batches a staged call touches — enough for a stable per-packet mean,
#: small enough that the staged block stays a fraction of a pass.
STAGED_BATCHES = 32


def _chunks(items: Any, size: int = BATCH_SIZE) -> list:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _ns_per(seconds: float, packets: int) -> float:
    return seconds / packets * 1e9


def memory(arch: Any, rules: int) -> dict[str, float]:
    """The paper's axis: modelled bits per rule, by structure kind."""
    report = architecture_memory_report(arch)
    bits: dict[str, int] = {}
    for table in report.tables:
        for structure in table.structures:
            bits[structure.kind] = bits.get(structure.kind, 0) + structure.bits
    out = {"model_bits_per_rule": report.total_bits / rules}
    for kind in ("trie", "lut", "index", "actions"):
        out[f"memory.report.{kind}_bits_per_rule"] = bits.get(kind, 0) / rules
    return out


def packet_batch(dicts: list[dict[str, int]]) -> tuple[dict[str, float], PacketBatch]:
    start = time.perf_counter()
    batch = PacketBatch.from_dicts(dicts)
    built = time.perf_counter() - start
    slices = []
    for offset in range(0, len(batch), BATCH_SIZE):
        start = time.perf_counter()
        batch[offset : offset + BATCH_SIZE]
        slices.append(time.perf_counter() - start)
    return {
        "packet.batch.from_dicts_ns_per_pkt": _ns_per(built, len(dicts)),
        "packet.batch.slice_us_p50": statistics.median(slices) * 1e6,
        "packet.batch.distinct_row_frac": batch.rows / len(batch),
    }, batch


def lookup_walk(arch: Any, dicts: list[dict[str, int]]) -> dict[str, float]:
    """The decomposition walk with no cache in front: batched through a
    cache-free runner, then scalar through ``pipeline.process``."""
    tracer = Tracer()
    staged = OpenFlowPipeline(
        tables=[TracedTable(t, tracer, LOOKUP_SPANS) for t in arch.tables],
        miss_policy=arch.miss_policy,
    )
    walker = BatchPipeline(staged, cache_capacity=None)
    sample = dicts[: STAGED_BATCHES * BATCH_SIZE]
    for chunk in _chunks(sample):
        walker.process_batch(chunk)
    scalar = sample[: 4 * BATCH_SIZE]
    for fields in scalar:
        staged.process(fields)
    start = time.perf_counter()
    for fields in scalar:
        arch.process(fields)
    process_s = time.perf_counter() - start
    return {
        "core.lookup_table.walk_ns_per_pkt": _ns_per(
            sum(tracer.durations(LOOKUP_SPANS["lookup_batch"])), len(sample)
        ),
        "core.lookup_table.scalar_ns_per_pkt": _ns_per(
            sum(tracer.durations(LOOKUP_SPANS["lookup"])), len(scalar)
        ),
        "openflow.pipeline.process_ns_per_pkt": _ns_per(process_s, len(scalar)),
    }


def microflow(arch: Any, views: list[PacketBatch]) -> dict[str, float]:
    """A warmed exact-match cache in front of the first table."""
    cache = MicroflowCache(arch.tables[0], capacity=CACHE_CAPACITY)
    for view in views:
        cache.lookup_batch_columnar(view)
    start = time.perf_counter()
    for view in views:
        cache.lookup_batch_columnar(view)
    elapsed = time.perf_counter() - start
    return {
        "runtime.cache.probe_ns_per_pkt": _ns_per(elapsed, sum(map(len, views)))
    }


def megaflow(runner: Any, views: list[PacketBatch]) -> dict[str, float]:
    """The wildcard tier of a runner the workload has already warmed."""
    cache = runner.megaflow
    start = time.perf_counter()
    for view in views:
        cache.probe_batch(view)
    elapsed = time.perf_counter() - start
    return {
        "runtime.megaflow.probe_ns_per_pkt": _ns_per(elapsed, sum(map(len, views))),
        "runtime.megaflow.entries": len(cache),
        "runtime.megaflow.mask_count": cache.mask_count,
    }


def transport(views: list[PacketBatch]) -> dict[str, float]:
    """The shm codec on a plain buffer: encode, attach in place, decode."""
    codec = PacketBlockCodec()
    encode_s = decode_s = 0.0
    attach = []
    nbytes = packets = 0
    for view in views:
        start = time.perf_counter()
        writer = BlockWriter()
        layout = codec.encode_batch(writer, view, "req")
        buf = memoryview(bytearray(writer.nbytes))
        segments = writer.write_to(buf)
        encode_s += time.perf_counter() - start
        reader = BlockReader(buf, segments)
        start = time.perf_counter()
        codec.attach(reader, layout)
        attach.append(time.perf_counter() - start)
        start = time.perf_counter()
        decoded = codec.decode(reader, layout)
        decode_s += time.perf_counter() - start
        if decoded != view.dicts():
            raise RuntimeError("transport codec round trip changed a batch")
        nbytes += writer.nbytes
        packets += len(view)
    return {
        "runtime.transport.encode_ns_per_pkt": _ns_per(encode_s, packets),
        "runtime.transport.attach_us": statistics.median(attach) * 1e6,
        "runtime.transport.decode_ns_per_pkt": _ns_per(decode_s, packets),
        "runtime.transport.request_bytes_per_pkt": nbytes / packets,
    }


def rulestate(arch: Any, rules: int, dicts: list[dict[str, int]]) -> dict[str, float]:
    """Seal the static structures, attach frozen twins, walk them."""
    start = time.perf_counter()
    state = SharedRuleState.seal(arch, PipelineSpec.snapshot(arch))
    seal_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        frozen = attach_shared_tables(state.spec)[0]
        attach_s = time.perf_counter() - start
        nbytes = shared_state_report(state.layout).total_nbytes
        chunks = _chunks(dicts[: STAGED_BATCHES * BATCH_SIZE])
        start = time.perf_counter()
        got = [frozen.lookup_batch(chunk) for chunk in chunks]
        walk_s = time.perf_counter() - start
        live = arch.tables[0]
        if got != [live.lookup_batch(chunk) for chunk in chunks]:
            raise RuntimeError("frozen table disagrees with the live table")
        del frozen, got
    finally:
        state.close()
    return {
        "runtime.rulestate.seal_s": seal_s,
        "runtime.rulestate.attach_s": attach_s,
        "runtime.rulestate.sealed_bytes_per_rule": nbytes / rules,
        "runtime.rulestate.frozen_walk_ns_per_pkt": _ns_per(
            walk_s, sum(map(len, chunks))
        ),
    }


def _timed(sink: list[float], call: Any, *args: Any) -> None:
    start = time.perf_counter()
    call(*args)
    sink.append(time.perf_counter() - start)


def shard(
    bench: Bench,
    handle: Handle,
    views: list[PacketBatch],
    sharded_ns_per_pkt: float,
    twin: BatchPipeline,
) -> dict[str, float]:
    """The IPC seams of the sharded runner, driven by hand: a pipelined
    submit/collect loop at full depth, then lockstep round trips.
    ``twin`` is an in-process two-tier runner on the same rules; what
    the sharded pass costs beyond it is IPC."""
    runner = handle.runner
    submit: list[float] = []
    collect: list[float] = []
    roundtrip: list[float] = []
    for view in views:
        while runner.in_flight >= runner.depth:
            _timed(collect, runner.collect_batch)
        _timed(submit, runner.submit_batch, view)
    while runner.in_flight:
        _timed(collect, runner.collect_batch)
    for view in views:
        _timed(roundtrip, runner.process_batch, view)

    payload = bench.prepare_pass(handle)[1]
    bench.run_pass(twin, payload)  # warm the twin's caches
    _, seconds = bench.run_pass(twin, payload)
    twin_ns_per_pkt = _ns_per(statistics.median(seconds), bench.replay_packets)
    return {
        "runtime.shard.submit_us_p50": statistics.median(submit) * 1e6,
        "runtime.shard.collect_us_p50": statistics.median(collect) * 1e6,
        "runtime.shard.roundtrip_us_p50": statistics.median(roundtrip) * 1e6,
        "runtime.shard.ipc_ns_per_pkt": sharded_ns_per_pkt - twin_ns_per_pkt,
        "runtime.shard.restarts": runner.supervision_snapshot()["restarts"],
        "runtime.shard.workers": runner.workers,
    }


def streaming(report: Any) -> dict[str, float]:
    """What ``run_stream`` says about its own traced replay."""
    return {
        "runtime.streaming.batches": report.batches,
        "runtime.streaming.mean_batch_fill": report.completed_packets / report.batches,
        "runtime.streaming.peak_occupancy": report.peak_occupancy,
        "runtime.streaming.stalls": report.stalls,
        "runtime.streaming.max_level": report.max_level,
        "runtime.streaming.p50_ticks": report.p50,
        "runtime.streaming.p99_ticks": report.p99,
        "runtime.streaming.shed_packets": report.shed_packets,
    }
