"""Open-loop streaming front-end: bounded admission, backpressure,
deterministic shedding and the conservation law.

Unit coverage for the arrival builders, :class:`AdmissionQueue`,
:class:`StreamConfig` validation and the degradation ladder, then
end-to-end :func:`run_stream` runs asserting the conservation law
(``admitted == completed + shed``, packets and bytes), determinism
(identical shed ledgers / latency stamps across reruns) and path
equivalence: the single-process and sharded-shm-pipelined paths must
produce bitwise-identical stream reports.
"""

import sys

import pytest

from repro.packet.batch import PacketBatch
from repro.runtime import (
    ARRIVALS,
    AdmissionQueue,
    BatchPipeline,
    ShardedBatchPipeline,
    StreamConfig,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    run_stream,
)
from repro.runtime.streaming import ArrivalSchedule, _Ladder

from tests.runtime.conftest import needs_dev_shm
from tests.runtime.test_shard import make_arch

#: A config under which the bursty schedule below genuinely overloads:
#: the declared service rate is far below the offered load, so the
#: admission queue fills, tail-drops and climbs the ladder.
OVERLOAD = StreamConfig(
    capacity=64,
    batch_size=16,
    form_deadline=8,
    window=2,
    service_rate=0.5,
    degrade_after=2,
)


def overload_schedule(rule_set, packet_count=900):
    return bursty_arrivals(
        rule_set, packet_count=packet_count, mean_burst=24.0,
        burst_gap=16.0, seed=11,
    )


#: The tail-latency SLO of ``overload_schedule(rules, 2000)`` under
#: ``OVERLOAD``.  Tick percentiles and the shed ledger depend on arrival
#: timing alone — never on rule content or the host — so the report is
#: pinned exactly (the 400-rule fixture and the calibrated ``bbra`` set
#: give these same values).
OVERLOAD_SLO = {
    "p50": 88,
    "p99": 158,
    "p999": 158,
    "shed_by_reason": {"deadline": 0, "degrade": 859, "tail": 584},
    "max_level": 3,
    "peak_occupancy": 64,
    "stalls": 0,
}


class TestArrivalSchedules:
    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    def test_seeded_and_replayable(self, small_routing_set, name):
        build = ARRIVALS[name]
        a = build(small_routing_set, packet_count=64, seed=9)
        b = build(small_routing_set, packet_count=64, seed=9)
        assert a.events == b.events
        assert a.packet_count == 64
        assert a.byte_count > 0
        assert {event[0] for event in a.events} <= {"advance", "packet"}
        assert all(
            event[1] > 0 for event in a.events if event[0] == "advance"
        )
        other = build(small_routing_set, packet_count=64, seed=10)
        assert other.events != a.events

    def test_bursty_packs_same_tick_bursts(self, small_routing_set):
        schedule = bursty_arrivals(
            small_routing_set, packet_count=128, mean_burst=8.0, seed=3
        )
        kinds = [event[0] for event in schedule.events]
        # At least one burst: two packets with no advance between them.
        assert any(
            a == b == "packet" for a, b in zip(kinds, kinds[1:])
        )

    def test_offered_load_reflects_gap(self, small_routing_set):
        dense = poisson_arrivals(
            small_routing_set, packet_count=128, mean_gap=2.0, seed=4
        )
        sparse = poisson_arrivals(
            small_routing_set, packet_count=128, mean_gap=16.0, seed=4
        )
        assert dense.offered_load > sparse.offered_load
        assert dense.duration < sparse.duration

    def test_builder_validation(self, small_routing_set):
        with pytest.raises(ValueError):
            poisson_arrivals(small_routing_set, mean_gap=0)
        with pytest.raises(ValueError):
            bursty_arrivals(small_routing_set, mean_burst=0.5)
        with pytest.raises(ValueError):
            bursty_arrivals(small_routing_set, burst_gap=0)
        with pytest.raises(ValueError):
            diurnal_arrivals(small_routing_set, amplitude=1.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(small_routing_set, base_gap=0)
        with pytest.raises(ValueError):
            diurnal_arrivals(small_routing_set, period=1)


def hand_schedule(*events):
    """A hand-written schedule: ints are advances, dicts are arrivals."""
    return ArrivalSchedule(
        "hand",
        "",
        tuple(
            ("advance", event) if isinstance(event, int) else ("packet", event)
            for event in events
        ),
    )


class TestAdmissionQueue:
    def test_capacity_is_hard(self, small_routing_set):
        queue = AdmissionQueue(capacity=3)
        assert queue.admit(0, 5, tick=0) == 3  # rows 3 and 4 found it full
        assert queue.admit(5, 1, tick=0) == 0
        assert len(queue) == 3
        assert queue.peak_occupancy == 3
        assert queue.take(10).tolist() == [0, 1, 2]
        # ... and run_stream's ledger says what became of the rest: five
        # same-tick arrivals, a queue of three, no batch formed before
        # the end of the schedule.
        packets = [{"in_port": i, "frame_len": 100} for i in range(5)]
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)),
            hand_schedule(*packets),
            StreamConfig(capacity=3, batch_size=4),
        )
        assert [r.reason for r in report.shed] == ["tail", "tail"]
        assert [r.index for r in report.shed] == [3, 4]
        assert [r.frame_len for r in report.shed] == [100, 100]
        assert report.peak_occupancy == 3
        assert [index for index, _ in report.latencies] == [0, 1, 2]

    def test_fifo_take(self):
        queue = AdmissionQueue(capacity=8)
        for i in range(5):
            queue.admit(i, 1, tick=i)
        assert queue.take(3).tolist() == [0, 1, 2]
        assert queue.head_enqueue_tick == 3
        assert queue.take(10).tolist() == [3, 4]
        assert queue.head_enqueue_tick is None

    def test_fifo_survives_wrapping(self):
        """The ring's head and tail travel round the lanes many times;
        order, ticks and the capacity bound hold across every seam."""
        queue = AdmissionQueue(capacity=5, deadline=100)
        taken, next_row = [], 0
        for tick in range(40):
            admitted = queue.admit(next_row, 3, tick)
            assert admitted == min(3, 5 - (len(queue) - admitted))
            next_row += admitted
            assert len(queue) <= 5
            assert queue.head_enqueue_tick <= tick
            taken += queue.take(2).tolist()
        taken += queue.take(5).tolist()
        assert taken == list(range(next_row))
        assert queue.peak_occupancy == 5

    def test_deadline_expiry_sheds_aged_head(self, small_routing_set):
        queue = AdmissionQueue(capacity=8, deadline=4)
        queue.admit(0, 1, tick=0)   # deadline tick 4
        queue.admit(1, 1, tick=3)   # deadline tick 7
        assert queue.expire(4).tolist() == []   # at the deadline: still live
        assert queue.expire(5).tolist() == [0]
        assert len(queue) == 1
        assert queue.expire(20).tolist() == [1]
        # The same two packets through run_stream: the ledger names the
        # reason and the tick each deadline was found passed.
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)),
            hand_schedule({"in_port": 0}, 3, {"in_port": 1}, 1, 1, 15),
            StreamConfig(capacity=8, form_deadline=100, deadline=4),
        )
        assert [(r.index, r.tick, r.reason) for r in report.shed] == [
            (0, 5, "deadline"),
            (1, 20, "deadline"),
        ]
        assert report.completed_packets == 0

    def test_a_deadline_alone_turns_deadline_drop_on(self):
        """``deadline`` is the one knob: set, it is the queue's deadline
        and aged heads expire; no second switch has to agree."""
        queue = AdmissionQueue(capacity=8, deadline=4)
        assert queue.deadline == 4
        queue.admit(0, 2, tick=0)
        assert queue.expire(20).tolist() == [0, 1]
        assert len(queue) == 0

    def test_tail_policy_never_expires(self):
        queue = AdmissionQueue(capacity=4)
        queue.admit(0, 1, tick=0)
        assert queue.expire(10_000).tolist() == []
        assert len(queue) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=4, deadline=0)


class TestStreamConfig:
    def test_defaults_valid(self):
        StreamConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"form_deadline": 0},
            {"window": 0},
            {"service_rate": 0},
            {"service_rate": -1.0},
            {"degrade_after": 0},
            {"deadline": 0},
            {"deadline": -3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)

    def test_service_burst_is_one_window(self):
        cfg = StreamConfig(batch_size=16, window=3)
        assert cfg.service_burst == 48.0


class TestLadder:
    def test_climbs_after_sustained_overload(self):
        cfg = StreamConfig(capacity=100, degrade_after=2)
        ladder = _Ladder(cfg)
        for tick in range(1, 7):
            ladder.step(occupancy=80, tick=tick)  # >= high watermark 75
        assert ladder.level == 3
        assert ladder.max_level == 3
        assert [level for _, level in ladder.transitions] == [1, 2, 3]
        assert ladder.bypass_megaflow and ladder.shedding

    def test_hysteresis_holds_between_watermarks(self):
        cfg = StreamConfig(capacity=100, degrade_after=1)
        ladder = _Ladder(cfg)
        ladder.step(occupancy=80, tick=1)
        assert ladder.level == 1
        ladder.step(occupancy=50, tick=2)  # between the watermarks
        assert ladder.streak == 1 and ladder.level == 1
        ladder.step(occupancy=10, tick=3)  # below low watermark: reset
        assert ladder.streak == 0 and ladder.level == 0

    def test_rung_one_halves_form_deadline(self):
        cfg = StreamConfig(capacity=100, form_deadline=8, degrade_after=1)
        ladder = _Ladder(cfg)
        assert ladder.form_deadline == 8
        ladder.step(occupancy=90, tick=1)
        assert ladder.form_deadline == 4


class TestRunStream:
    def test_underload_sheds_nothing(self, small_routing_set):
        schedule = poisson_arrivals(
            small_routing_set, packet_count=300, mean_gap=4.0, seed=7
        )
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)),
            schedule,
            StreamConfig(capacity=256, batch_size=32, window=4),
        )
        report.assert_conserved()
        assert report.shed_packets == 0
        assert report.max_level == 0
        assert report.completed_packets == schedule.packet_count
        assert report.completed_bytes == schedule.byte_count
        assert len(report.results) == len(report.latencies)
        assert report.p50 <= report.p99 <= report.p999

    def test_overload_sheds_deterministically(self, small_routing_set):
        # Two inputs, looped rather than parametrized so the test keeps
        # its id: the 900-arrival schedule the rest of this class uses,
        # then the 2000-arrival overload SLO with its golden.
        for packet_count, golden in ((900, {}), (2000, OVERLOAD_SLO)):
            schedule = overload_schedule(small_routing_set, packet_count)
            first = run_stream(
                BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
            )
            first.assert_conserved()
            assert first.shed_packets > 0
            assert first.shed_by_reason["tail"] > 0
            assert first.peak_occupancy <= OVERLOAD.capacity
            assert first.max_level >= 1
            assert {name: getattr(first, name) for name in golden} == golden
            again = run_stream(
                BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
            )
            assert again.shed == first.shed
            assert again.latencies == first.latencies
            assert again.transitions == first.transitions
            assert again.batches == first.batches

    def test_ladder_reaches_admission_shedding(self, small_routing_set):
        schedule = overload_schedule(small_routing_set)
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
        )
        assert report.max_level == 3
        assert report.shed_by_reason["degrade"] > 0

    def test_deadline_policy_sheds_by_deadline(self, small_routing_set):
        schedule = overload_schedule(small_routing_set)
        cfg = StreamConfig(
            capacity=64,
            batch_size=16,
            form_deadline=8,
            window=2,
            deadline=24,
            service_rate=0.5,
        )
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, cfg
        )
        report.assert_conserved()
        assert report.shed_by_reason["deadline"] > 0

    def test_megaflow_bypass_rung_skips_capture(self, small_routing_set):
        """Under sustained rung-2+ overload the megaflow tier sees no
        install traffic for bypassed batches — but classification
        results are identical to a fault-free, non-degraded run."""
        schedule = overload_schedule(small_routing_set)
        degraded_runner = BatchPipeline(make_arch(small_routing_set))
        degraded = run_stream(degraded_runner, schedule, OVERLOAD)
        assert degraded.max_level >= 2
        # Reference: unlimited service, nothing shed, no degradation.
        reference = run_stream(
            BatchPipeline(make_arch(small_routing_set)),
            schedule,
            StreamConfig(capacity=2048, batch_size=16, window=2),
        )
        assert reference.max_level == 0
        completed = dict(zip([i for i, _ in degraded.latencies],
                             degraded.results))
        full = dict(zip([i for i, _ in reference.latencies],
                        reference.results))
        for index, result in completed.items():
            assert result_key(result) == result_key(full[index])

    def test_bypass_flag_always_restored(self, small_routing_set):
        """The ladder's bypass is an argument, not runner state: after a
        stream that reached rung 2, the next batch probes the megaflow
        tier again."""
        runner = BatchPipeline(
            make_arch(small_routing_set), megaflow_capacity=128
        )
        schedule = overload_schedule(small_routing_set)
        assert run_stream(runner, schedule, OVERLOAD).max_level >= 2
        probed = runner.stats.megaflow_hits + runner.stats.megaflow_misses
        batch = PacketBatch.from_dicts(
            [event[1] for event in schedule.events if event[0] == "packet"][:16]
        )
        runner.classify_columnar(batch)
        assert runner.stats.megaflow_hits + runner.stats.megaflow_misses == probed + 16

    def test_unknown_event_kind_rejected(self, small_routing_set):
        bogus = ArrivalSchedule("bogus", "", (("tick", 1),))
        with pytest.raises(ValueError):
            run_stream(
                BatchPipeline(make_arch(small_routing_set)), bogus
            )


class TestStreamResults:
    """``StreamReport.results`` reads like the tuple it replaced."""

    def test_sequence_surface(self, small_routing_set):
        schedule = poisson_arrivals(
            small_routing_set, packet_count=90, mean_gap=2.0, seed=3
        )
        config = StreamConfig(capacity=64, batch_size=8)
        results = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, config
        ).results
        eager = tuple(results)
        assert len(results) == len(eager) == 90
        assert [results[i] for i in range(90)] == list(eager)
        assert results[-1] == eager[-1] and results[-90] == eager[0]
        assert results[7:31:5] == eager[7:31:5]
        assert results[85:200] == eager[85:]
        for index in (90, -91):
            with pytest.raises(IndexError):
                results[index]
        assert results == eager and results == list(eager)
        assert eager == results  # reflected: a tuple on the left
        assert results != eager[:-1]
        assert results != eager[1:] + eager[:1]
        assert results != 90
        again = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, config
        ).results
        assert again is not results and again == results


class _CallCount:
    """Count calls to a function wherever ``repro`` imported it by name
    (``from x import f`` gives every importer its own binding)."""

    def __init__(self, monkeypatch, function):
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, function.__name__, None) is function
            ):
                monkeypatch.setattr(module, function.__name__, counted)


class TestStreamCostShape:
    """What ``run_stream`` may do per packet: nothing.  Counts only —
    they repeat exactly for a (seed, schedule, config)."""

    @pytest.mark.parametrize("overloaded", [False, True])
    def test_front_end_works_per_batch_and_results_are_lazy(
        self, monkeypatch, small_routing_set, overloaded
    ):
        from repro.packet.headers import frame_length
        from repro.runtime.megaflow import replay_template

        if overloaded:
            schedule, config = overload_schedule(small_routing_set), OVERLOAD
        else:
            schedule = poisson_arrivals(
                small_routing_set, packet_count=300, mean_gap=4.0, seed=7
            )
            config = StreamConfig(capacity=256, batch_size=32, window=4)
        schedule.columns  # built once per schedule, not per replay
        runner = BatchPipeline(
            make_arch(small_routing_set), cache_capacity=64, megaflow_capacity=128
        )
        classified = []
        classify = runner.classify_columnar
        monkeypatch.setattr(
            runner,
            "classify_columnar",
            lambda batch, bypass=False: classified.append(len(batch))
            or classify(batch, bypass),
        )
        monkeypatch.setattr(
            runner,
            "process_batch",
            lambda batch: pytest.fail("run_stream took the dict path"),
        )
        lengths = _CallCount(monkeypatch, frame_length)
        replays = _CallCount(monkeypatch, replay_template)
        monkeypatch.setattr(
            PacketBatch,
            "from_dicts",
            lambda *_: pytest.fail("the schedule was columnarised again"),
        )

        report = run_stream(runner, schedule, config)

        assert bool(report.shed) is overloaded
        assert len(classified) == report.batches > 0
        assert sum(classified) == report.completed_packets
        assert max(classified) <= config.batch_size
        assert lengths.calls == 0
        assert replays.calls == 0
        assert len(report.results) == report.completed_packets
        assert replays.calls == 0  # len() builds nothing
        middle = report.completed_packets // 2
        one = report.results[middle]
        assert replays.calls == 1  # one index, one PipelineResult
        index, _ = report.latencies[middle]
        packets = [e[1] for e in schedule.events if e[0] == "packet"]
        assert {
            name: one.final_fields[name] for name in packets[index]
        } == packets[index]
        assert list(report.results)[middle] == one
        assert replays.calls == 1 + report.completed_packets
        assert lengths.calls == 0


def result_key(result):
    """A comparable identity for one PipelineResult (the same fields
    :func:`tests.runtime.test_differential_properties.assert_same_result`
    checks, flattened into a tuple)."""
    return (
        tuple(result.output_ports),
        result.sent_to_controller,
        result.dropped,
        result.metadata,
        tuple(result.tables_visited),
        tuple(sorted(result.final_fields.items())),
        tuple((str(e.match), e.priority) for e in result.matched_entries),
        tuple(map(str, result.applied_actions)),
    )


def report_fingerprint(report):
    """Every deterministic field of a stream report, for bitwise
    cross-path comparison (results compared via their public attrs)."""
    return (
        report.admitted_packets,
        report.admitted_bytes,
        report.completed_packets,
        report.completed_bytes,
        report.shed,
        report.latencies,
        report.batches,
        report.peak_occupancy,
        report.duration,
        report.max_level,
        report.transitions,
        tuple(result_key(result) for result in report.results),
    )


@needs_dev_shm
class TestPathEquivalence:
    """The streaming layer is transport-independent: inline and sharded
    shm-pipelined runs of the same (seed, schedule, config) produce
    identical reports — stalls excepted, since only the pipelined
    transport exerts window backpressure."""

    def test_reports_identical_across_paths(self, small_routing_set):
        schedule = overload_schedule(small_routing_set, packet_count=600)
        inline = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=4
        ) as sharded_runner:
            # Every batch, forced collect or drain alike, completes
            # through the one FIFO collect.
            collect, collects = sharded_runner.collect_batch, []

            def counting_collect():
                collects.append(None)
                return collect()

            sharded_runner.collect_batch = counting_collect
            sharded = run_stream(sharded_runner, schedule, OVERLOAD)
        assert len(collects) == sharded.batches
        for report in (inline, sharded):
            report.assert_conserved()
        assert report_fingerprint(inline) == report_fingerprint(sharded), (
            "inline vs sharded diverge"
        )

    def test_window_backpressure_stalls(self, small_routing_set):
        """Bursts wider than the in-flight window force FIFO collects
        (stalls) on the sharded path — without perturbing the latency
        stamps, which stay identical to the inline run."""
        schedule = bursty_arrivals(
            small_routing_set, packet_count=400, mean_burst=80.0,
            burst_gap=32.0, seed=5,
        )
        cfg = StreamConfig(capacity=256, batch_size=16, window=2)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=4
        ) as runner:
            sharded = run_stream(runner, schedule, cfg)
        inline = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, cfg
        )
        assert sharded.stalls > 0
        assert inline.stalls == 0
        assert sharded.latencies == inline.latencies
        assert sharded.shed == inline.shed
