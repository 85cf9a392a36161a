"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams.

Simulation time is an integer count of microseconds. Keeping time integral makes
event ordering exact and run transcripts identical across platforms; every
public API that accepts milliseconds converts at the boundary and rounds
fractions of a microsecond up, so a positive delay can never collapse to zero.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from decimal import Decimal

from .errors import CausalityError, ConfigError, EventInPastError, SimulationError

US_PER_MS = 1_000
US_PER_S = 1_000_000

# Event kinds. Integers in the queue keep comparisons cheap; EVENT_KIND_NAMES
# maps them back to readable tags for transcripts and debugging.
EV_TASK_ARRIVAL = 0
EV_MOVEMENT_TICK = 1
EV_MESSAGE_SEND = 2
EV_TX_SUBMIT = 3

EVENT_KIND_NAMES = (
    "task-arrival",
    "movement-tick",
    "message-send",
    "tx-submit",
)


def ms_to_us(ms: float | int) -> int:
    """Convert milliseconds to integer microseconds, rounding fractions up.

    A float is scaled as the decimal it prints as, so 16.1 ms is 16100 us;
    the binary product 16.1 * 1000 is 16100.000000000002 and would round up.
    """
    if isinstance(ms, int):
        return ms * US_PER_MS
    return math.ceil(Decimal(repr(ms)) * US_PER_MS)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# Stream labels: one named stream per stochastic process, so adding or
# removing a process never perturbs the draws of the others.
STREAM_MOVEMENT = "movement"
STREAM_MESSAGING = "messaging"
STREAM_TRANSACTIONS = "transactions"


class RngStream:
    """A named pseudo-random stream.

    The underlying generator is seeded from (seed, stream_id) through SHA-256,
    so the same pair always yields the same draw sequence, independent of any
    other stream and of the platform.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed: int, stream_id: str):
        digest = hashlib.sha256(f"{seed}:{stream_id}".encode("ascii")).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def uniforms(self, n: int) -> list[float]:
        """n uniform floats in [0, 1), the next n draws of random() in order."""
        draw = self._rng.random
        return [draw() for _ in range(n)]

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def exponential_us(self, rate_per_ms: float) -> int:
        """Draw -ln(u)/rate with u uniform in (0, 1], returned as microseconds.

        rate_per_ms is the event rate per millisecond of simulated time.
        """
        if rate_per_ms <= 0:
            raise ConfigError(f"exponential draw requires rate > 0, got {rate_per_ms}")
        u = 1.0 - self._rng.random()  # random() is [0,1); u is (0,1]
        return math.ceil(-math.log(u) / rate_per_ms * US_PER_MS)


# u = 1 - random() is at least 2**-53, so no exponential draw exceeds this
# many means.
MAX_EXPONENTIAL_MEANS = -math.log(2.0 ** -53)


class Engine:
    """Single-threaded event loop dispatching events in (fire_at, seq) order.

    Ties on fire_at break by insertion counter, so simultaneous events run
    first-scheduled-first. Handlers are registered per event kind and receive
    (fire_at_us, payload); they may schedule further events at or after the
    current clock.

    Beside the heap the engine keeps at most one periodic lane (see lane()):
    members that fire in a fixed order every period, as if each firing's
    handler rescheduled the member one period on. The lane holds the sequence
    number of each member's pending firing, and a firing's successor takes
    the next number when the firing is dispatched, so the merged dispatch
    order, the transcript and every counter are those of the heap alone.
    """

    __slots__ = (
        "now",
        "_heap",
        "_next_seq",
        "_handlers",
        "dispatched_count",
        "_last_t",
        "_last_seq",
        "trace",
        "_lane_kind",
        "_lane_offsets",
        "_lane_period",
        "_lane_seq",
        "_lane_next",
    )

    def __init__(self):
        self.now = 0
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._handlers: dict[int, object] = {}
        self.dispatched_count = 0
        self._last_t = -1
        self._last_seq = -1
        self.trace = None  # optional callable(fire_at, seq, kind) for transcripts
        self._lane_kind = -1
        self._lane_offsets: list[int] = []  # empty: no lane
        self._lane_period = 0
        self._lane_seq: list[int] = []  # seq of each member's pending firing
        self._lane_next = 0  # index of the lane's next firing

    def on(self, kind: int, handler) -> None:
        self._handlers[kind] = handler

    def schedule(self, fire_at_us: int, kind: int, payload=None) -> None:
        if fire_at_us < self.now:
            raise EventInPastError(
                f"event {EVENT_KIND_NAMES[kind]} scheduled at {fire_at_us} us "
                f"but clock is {self.now} us"
            )
        heapq.heappush(self._heap, (fire_at_us, self._next_seq, kind, payload))
        self._next_seq += 1

    def lane(self, kind: int, offsets: list[int], period_us: int) -> None:
        """Fire kind for members 0..n-1, member u at offsets[u] + r * period_us, r >= 0.

        This is what scheduling each member at offsets[u], in member order,
        with a handler that reschedules it one period on would do. Offsets
        must be non-decreasing and span less than a period, so a round's
        firings come in member order and before the next round's. Firing
        r * n + u is member u's r-th; the handler of kind is called as
        handler(lo, hi) for each maximal run of consecutive firings lo..hi-1
        that no heap event interrupts. While it runs the clock reads the
        run's last firing, whose successors are already numbered.
        """
        if self._lane_offsets:
            raise SimulationError("the engine already has a lane")
        if period_us <= 0:
            raise SimulationError(f"lane period must be > 0 us, got {period_us}")
        if not offsets:
            return
        if offsets[0] < self.now:
            raise EventInPastError(
                f"lane firing at {offsets[0]} us but clock is {self.now} us")
        if any(b < a for a, b in zip(offsets, offsets[1:])) or \
                offsets[-1] - offsets[0] >= period_us:
            raise SimulationError("lane offsets must be non-decreasing and span less than a period")
        self._lane_kind = kind
        self._lane_offsets = list(offsets)
        self._lane_period = period_us
        self._lane_seq = list(range(self._next_seq, self._next_seq + len(offsets)))
        self._next_seq += len(offsets)

    @property
    def scheduled_count(self) -> int:
        """Events scheduled so far: each takes the next sequence number."""
        return self._next_seq

    @property
    def queued_count(self) -> int:
        """Heap events plus the lane's pending firings, one per member."""
        return len(self._heap) + len(self._lane_offsets)

    def run_until(self, horizon_us: int) -> int:
        """Dispatch every event with fire_at <= horizon; clock ends at horizon.

        Returns the number of events dispatched, lane firings included. An
        empty queue just advances the clock.
        """
        if horizon_us < self.now:
            raise EventInPastError(
                f"run_until horizon {horizon_us} us is before clock {self.now} us"
            )
        heap = self._heap
        handlers = self._handlers
        trace = self.trace
        pop = heapq.heappop
        dispatched = 0
        offsets = self._lane_offsets
        seqs = self._lane_seq
        n = len(offsets)
        if n:
            lane_kind = self._lane_kind
            period = self._lane_period
            r, u = divmod(self._lane_next, n)
            base = r * period
            lane_t = offsets[u] + base
        else:
            lane_t = math.inf
        while True:
            if heap:
                head = heap[0]
                head_t = head[0]
                if head_t < lane_t or (head_t == lane_t and head[1] < seqs[u]):
                    if head_t > horizon_us:
                        break
                    fire_at, seq, kind, payload = pop(heap)
                    if fire_at < self._last_t or (fire_at == self._last_t
                                                  and seq < self._last_seq):
                        raise CausalityError(
                            f"event ({fire_at},{seq}) dispatched after "
                            f"({self._last_t},{self._last_seq})"
                        )
                    self._last_t = fire_at
                    self._last_seq = seq
                    self.now = fire_at
                    if trace is not None:
                        trace(fire_at, seq, kind)
                    handlers[kind](fire_at, payload)
                    dispatched += 1
                    continue
                head_seq = head[1]
            else:
                head_t = head_seq = math.inf
            if lane_t > horizon_us:
                break
            # A run of lane firings: each numbers its successor, until the
            # next firing would follow the heap head or pass the horizon.
            seq = seqs[u]
            if lane_t < self._last_t or (lane_t == self._last_t and seq < self._last_seq):
                raise CausalityError(
                    f"lane firing ({lane_t},{seq}) dispatched after "
                    f"({self._last_t},{self._last_seq})"
                )
            limit = head_t if head_t < horizon_us else horizon_us
            first_seq = next_seq = self._next_seq
            while True:
                seq = seqs[u]
                if trace is not None:
                    trace(lane_t, seq, lane_kind)
                seqs[u] = next_seq
                next_seq += 1
                fire_at = lane_t
                u += 1
                if u == n:
                    u = 0
                    base += period
                lane_t = offsets[u] + base
                if lane_t > limit or (lane_t == head_t and seqs[u] > head_seq):
                    break
            self._last_t = self.now = fire_at
            self._last_seq = seq
            self._next_seq = next_seq
            lo = self._lane_next
            hi = self._lane_next = lo + next_seq - first_seq
            handlers[lane_kind](lo, hi)
            dispatched += hi - lo
        self.dispatched_count += dispatched
        self.now = horizon_us
        return dispatched
