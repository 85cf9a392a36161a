"""Engine contract: ordering, determinism, accounting, exponential draws."""

import math

import pytest

from metafog.engine import (
    EVENT_KIND_NAMES,
    EV_TASK_ARRIVAL,
    Engine,
    RngStream,
    draw_exponential,
    ms_to_us,
)
from metafog.errors import ConfigError, EventInPastError


def collecting_engine():
    engine = Engine()
    seen = []
    for kind in range(len(EVENT_KIND_NAMES)):
        engine.on(kind, lambda now, payload, k=kind: seen.append((now, k, payload)))
    return engine, seen


def test_schedule_singleton_is_queue_head():
    engine, _ = collecting_engine()
    engine.schedule(5_000, EV_TASK_ARRIVAL, "e")
    assert engine.next_event[0] == 5_000
    assert engine.next_event[3] == "e"


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
    assert engine.accounting_ok()
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
        assert draw_exponential(stream, 1.0) == 0

    def test_rejects_non_positive_rate(self):
        stream = RngStream(1, "service")
        for rate in (0, -1.5):
            with pytest.raises(ConfigError):
                draw_exponential(stream, rate)

    def test_sample_mean_matches_one_over_rate(self):
        # law of large numbers: rate 0.1/ms -> mean 10 ms, 100k draws within 2%
        stream = RngStream(99, "service")
        n = 100_000
        total = sum(draw_exponential(stream, 0.1) for _ in range(n))
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
