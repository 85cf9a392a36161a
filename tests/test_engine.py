"""Engine contract: ordering, determinism, accounting, exponential draws."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.engine import (
    EVENT_KIND_NAMES,
    EV_TASK_ARRIVAL,
    Engine,
    RngStream,
    ms_to_us,
)
from metafog.errors import ConfigError, EventInPastError, SimulationError


def collecting_engine():
    engine = Engine()
    seen = []
    for kind in range(len(EVENT_KIND_NAMES)):
        engine.on(kind, lambda now, payload, k=kind: seen.append((now, k, payload)))
    return engine, seen


def queue_head(engine):
    """(fire_at_us, seq, kind, payload) of the queue head, read off the engine's slots, or None.

    A lane firing's payload is its member.
    """
    head = engine._heap[0] if engine._heap else None
    offsets = engine._lane_offsets
    if offsets:
        r, u = divmod(engine._lane_next, len(offsets))
        firing = (offsets[u] + r * engine._lane_period, engine._lane_seq[u], engine._lane_kind, u)
        if head is None or firing[:2] < head[:2]:
            return firing
    return head


def accounting_ok(engine):
    """Every scheduled event is dispatched or still queued."""
    return engine.scheduled_count == engine.dispatched_count + engine.queued_count


def test_schedule_singleton_is_queue_head():
    engine, _ = collecting_engine()
    engine.schedule(5_000, EV_TASK_ARRIVAL, "e")
    assert queue_head(engine)[0] == 5_000
    assert queue_head(engine)[3] == "e"


def test_dispatch_in_time_order():
    engine, seen = collecting_engine()
    engine.schedule(5_000, 0, "e1")
    engine.schedule(3_000, 0, "e2")
    engine.run_until(10_000)
    assert [p for _, _, p in seen] == ["e2", "e1"]


def test_insertion_order_breaks_ties():
    engine, seen = collecting_engine()
    engine.schedule(4_000, 0, "first")
    engine.schedule(4_000, 0, "second")
    engine.run_until(10_000)
    assert [p for _, _, p in seen] == ["first", "second"]


def test_run_until_empty_queue_advances_clock():
    engine, _ = collecting_engine()
    assert engine.run_until(100_000) == 0
    assert engine.now == 100_000


def test_run_until_horizon_cut():
    engine, seen = collecting_engine()
    for t in (1_000, 2_000, 3_000):
        engine.schedule(t, 0, t)
    assert engine.run_until(2_000) == 2
    assert engine.now == 2_000
    assert [p for _, _, p in seen] == [1_000, 2_000]
    assert engine.queued_count == 1


def test_reentrant_scheduling_within_horizon():
    engine = Engine()
    seen = []

    def handler(now, payload):
        seen.append((now, payload))
        if payload == "first":
            engine.schedule(now + 1_000, 0, "follow-up")

    engine.on(0, handler)
    engine.schedule(2_000, 0, "first")
    assert engine.run_until(10_000) == 2
    assert seen == [(2_000, "first"), (3_000, "follow-up")]


def test_scheduling_in_the_past_is_fatal():
    engine, _ = collecting_engine()
    engine.schedule(1_000, 0, None)
    engine.run_until(5_000)
    with pytest.raises(EventInPastError):
        engine.schedule(4_999, 0, None)


def test_run_until_before_clock_is_fatal():
    engine, _ = collecting_engine()
    engine.run_until(5_000)
    with pytest.raises(EventInPastError):
        engine.run_until(4_000)


def test_clock_never_decreases_and_accounting_holds():
    engine, seen = collecting_engine()
    for t in (7_000, 1_000, 3_000, 3_000, 9_000):
        engine.schedule(t, 0, t)
    engine.run_until(8_000)
    times = [t for t, _, _ in seen]
    assert times == sorted(times)
    # scheduled == dispatched + still queued (the event at 9ms is beyond horizon)
    assert accounting_ok(engine)
    assert engine.queued_count == 1


def test_transcripts_are_byte_identical_for_same_seed():
    def run_once():
        engine = Engine()
        stream = RngStream(1234, "messaging")
        lines = []
        engine.trace = lambda t, seq, kind: lines.append(f"{t},{seq},{kind}")

        def handler(now, payload):
            if payload < 40:
                engine.schedule(now + stream.exponential_us(0.01), 0, payload + 1)

        engine.on(0, handler)
        engine.schedule(0, 0, 0)
        engine.run_until(10_000_000)
        return "\n".join(lines).encode()

    assert run_once() == run_once()


class TestRngStream:
    def test_same_seed_and_stream_id_repeat_exactly(self):
        a = RngStream(42, "movement")
        b = RngStream(42, "movement")
        assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]

    def test_streams_are_independent(self):
        a = RngStream(42, "movement")
        b = RngStream(42, "messaging")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_identical_exponential_sequences(self):
        a = RngStream(7, "transactions")
        b = RngStream(7, "transactions")
        assert [a.exponential_us(0.5) for _ in range(1000)] == [
            b.exponential_us(0.5) for _ in range(1000)
        ]


class TestDrawExponential:
    def test_u_equal_one_gives_zero_delta(self):
        stream = RngStream(1, "service")
        stream._rng.random = lambda: 0.0  # forces u = 1 - 0.0 = 1
        assert stream.exponential_us(1.0) == 0

    def test_rejects_non_positive_rate(self):
        stream = RngStream(1, "service")
        for rate in (0, -1.5):
            with pytest.raises(ConfigError):
                stream.exponential_us(rate)

    def test_sample_mean_matches_one_over_rate(self):
        # law of large numbers: rate 0.1/ms -> mean 10 ms, 100k draws within 2%
        stream = RngStream(99, "service")
        n = 100_000
        total = sum(stream.exponential_us(0.1) for _ in range(n))
        mean_ms = total / n / 1000
        assert math.isclose(mean_ms, 10.0, rel_tol=0.02)


def test_ms_to_us_rounds_fractions_up():
    assert ms_to_us(2) == 2_000
    assert ms_to_us(2.0) == 2_000
    assert ms_to_us(0.0005) == 1


def test_ms_to_us_is_exact_for_decimal_milliseconds():
    # the float product is one microsecond high for 16.1, 32.2, 32.7, 64.4, 64.9 and 65.4
    for tenths in range(1, 1000):
        assert ms_to_us(tenths / 10) == tenths * 100, tenths / 10


LANE = 1  # the lane's kind in the tests below; heap events use kind 0


@st.composite
def lane_workloads(draw):
    """Lane offsets, heap events and horizons, with many heap events on lane times.

    Each heap event is (fire_at, children): dispatching it schedules an event
    at each child time. Child times are at or after the parent, often on a
    lane firing, and sometimes at the parent's own time.
    """
    period = draw(st.integers(1, 40), label="period")
    n = draw(st.integers(1, 60), label="members")  # n > period gives equal offsets
    first = draw(st.integers(0, 30), label="first")
    offsets = sorted(draw(st.lists(st.integers(first, first + period - 1),
                                   min_size=n, max_size=n), label="offsets"))
    end = first + 6 * period

    def lane_time(t_min):
        u = draw(st.integers(0, n - 1))
        r = max(0, -(-(t_min - offsets[u]) // period)) + draw(st.integers(0, 3))
        return offsets[u] + r * period

    def event_time(t_min):
        if draw(st.booleans()):
            return lane_time(t_min)
        return t_min + draw(st.integers(0, 2 * period))

    def events(t_min, depth):
        out = []
        for _ in range(draw(st.integers(0, 6 if depth == 0 else 2))):
            t = event_time(t_min)
            out.append((t, tuple(events(t, depth + 1)) if depth < 2 else ()))
        return out

    before = events(0, 0)  # scheduled before the lane is set up
    after = events(first, 0)
    horizons = sorted(draw(st.lists(st.integers(0, end), max_size=4))) + [end]
    return period, offsets, before, after, horizons


def _run_lane_workload(period, offsets, before, after, horizons, use_lane):
    """Transcript, dispatched lane members and counters; with or without a lane."""
    engine = Engine()
    transcript = []
    members = []
    counters = []
    engine.trace = lambda t, seq, kind: transcript.append((t, seq, kind))

    def on_event(now, children):
        for t, grandchildren in children:
            engine.schedule(t, 0, grandchildren)

    engine.on(0, on_event)
    if use_lane:
        engine.on(LANE, lambda lo, hi: members.extend(i % len(offsets) for i in range(lo, hi)))
    else:
        def on_firing(now, u):
            members.append(u)
            engine.schedule(now + period, LANE, u)

        engine.on(LANE, on_firing)
    for t, children in before:
        engine.schedule(t, 0, children)
    if use_lane:
        engine.lane(LANE, offsets, period)
    else:
        for u, t in enumerate(offsets):
            engine.schedule(t, LANE, u)
    for t, children in after:
        engine.schedule(t, 0, children)
    for horizon in horizons:
        if horizon >= engine.now:
            counters.append((queue_head(engine)[:2], engine.run_until(horizon)))
        counters.append((engine.scheduled_count, engine.dispatched_count,
                         engine.queued_count, accounting_ok(engine)))
    return transcript, members, counters


class TestLane:
    @settings(max_examples=300, deadline=None)
    @given(lane_workloads())
    def test_lane_dispatches_exactly_as_rescheduled_heap_events(self, workload):
        assert _run_lane_workload(*workload, use_lane=True) == \
            _run_lane_workload(*workload, use_lane=False)

    def test_ties_follow_sequence_numbers(self):
        # Member 0 fires at 10, 20, ... An event scheduled before the lane at
        # 20 precedes the firing at 20, whose number comes from the firing at
        # 10; one scheduled after the lane at 10 follows the firing at 10.
        engine = Engine()
        seen = []
        engine.on(0, lambda now, tag: seen.append(tag))
        engine.on(LANE, lambda lo, hi: seen.extend(("tick", i) for i in range(lo, hi)))
        engine.schedule(20, 0, "early")
        engine.lane(LANE, [10], 10)
        engine.schedule(10, 0, "late")
        engine.run_until(25)
        assert seen == [("tick", 0), "late", "early", ("tick", 1)]
        assert engine.dispatched_count == 4 and engine.scheduled_count == 5
        assert engine.queued_count == 1 and accounting_ok(engine)

    def test_a_run_goes_to_the_handler_in_one_call(self):
        engine = Engine()
        calls = []
        engine.on(0, lambda now, payload: calls.append(payload))
        engine.on(LANE, lambda lo, hi: calls.append((lo, hi)))
        engine.lane(LANE, [5, 6, 7], 10)
        engine.schedule(16, 0, "between")
        engine.run_until(40)
        assert calls == [(0, 4), "between", (4, 12)]

    @pytest.mark.parametrize("offsets, period", [([3, 2], 10), ([0, 10], 10), ([1], 0)])
    def test_bad_lanes_are_refused(self, offsets, period):
        with pytest.raises(SimulationError):
            Engine().lane(LANE, offsets, period)

    def test_one_lane_per_engine(self):
        engine = Engine()
        engine.lane(LANE, [1], 5)
        with pytest.raises(SimulationError):
            engine.lane(LANE, [2], 5)

    def test_lane_in_the_past_is_refused(self):
        engine = Engine()
        engine.run_until(100)
        with pytest.raises(EventInPastError):
            engine.lane(LANE, [99], 5)
