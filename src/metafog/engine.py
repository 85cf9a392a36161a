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

from .errors import CausalityError, ConfigError, EventInPastError

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


def us_to_ms(us: int) -> float:
    return us / US_PER_MS


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# Stream labels: one named stream per stochastic process, so adding or
# removing a process never perturbs the draws of the others.
STREAM_MOVEMENT = "movement"
STREAM_MESSAGING = "messaging"
STREAM_TRANSACTIONS = "transactions"
STREAM_SERVICE = "service"


class RngStream:
    """A named pseudo-random stream.

    The underlying generator is seeded from (seed, stream_id) through SHA-256,
    so the same pair always yields the same draw sequence, independent of any
    other stream and of the platform.
    """

    __slots__ = ("seed", "stream_id", "_rng")

    def __init__(self, seed: int, stream_id: str):
        self.seed = seed
        self.stream_id = stream_id
        digest = hashlib.sha256(f"{seed}:{stream_id}".encode("ascii")).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def exponential_us(self, rate_per_ms: float) -> int:
        """Exponentially distributed delay, as integer microseconds."""
        return draw_exponential(self, rate_per_ms)


def draw_exponential(stream: RngStream, rate_per_ms: float) -> int:
    """Draw -ln(u)/rate with u uniform in (0, 1], returned as microseconds.

    rate_per_ms is the event rate per millisecond of simulated time.
    """
    if rate_per_ms <= 0:
        raise ConfigError(f"exponential draw requires rate > 0, got {rate_per_ms}")
    u = 1.0 - stream.random()  # random() is [0,1); u is (0,1]
    delta_ms = -math.log(u) / rate_per_ms
    return math.ceil(delta_ms * US_PER_MS)


class Engine:
    """Single-threaded event loop dispatching events in (fire_at, seq) order.

    Ties on fire_at break by insertion counter, so simultaneous events run
    first-scheduled-first. Handlers are registered per event kind and receive
    (fire_at_us, payload); they may schedule further events at or after the
    current clock.
    """

    __slots__ = (
        "now",
        "_heap",
        "_next_seq",
        "_handlers",
        "scheduled_count",
        "dispatched_count",
        "_last_t",
        "_last_seq",
        "trace",
    )

    def __init__(self):
        self.now = 0
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._handlers: dict[int, object] = {}
        self.scheduled_count = 0
        self.dispatched_count = 0
        self._last_t = -1
        self._last_seq = -1
        self.trace = None  # optional callable(fire_at, seq, kind) for transcripts

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
        self.scheduled_count += 1

    @property
    def queued_count(self) -> int:
        return len(self._heap)

    @property
    def next_event(self) -> tuple | None:
        """(fire_at_us, seq, kind, payload) of the queue head, or None."""
        return self._heap[0] if self._heap else None

    def accounting_ok(self) -> bool:
        """Liveness check: every scheduled event is dispatched or still queued."""
        return self.scheduled_count == self.dispatched_count + len(self._heap)

    def run_until(self, horizon_us: int) -> int:
        """Dispatch every event with fire_at <= horizon; clock ends at horizon.

        Returns the number of events dispatched. An empty queue just advances
        the clock.
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
        while heap and heap[0][0] <= horizon_us:
            fire_at, seq, kind, payload = pop(heap)
            if fire_at < self._last_t or (fire_at == self._last_t and seq < self._last_seq):
                raise CausalityError(
                    f"event ({fire_at},{seq}) dispatched after ({self._last_t},{self._last_seq})"
                )
            self._last_t = fire_at
            self._last_seq = seq
            self.now = fire_at
            if trace is not None:
                trace(fire_at, seq, kind)
            handlers[kind](fire_at, payload)
            dispatched += 1
        self.dispatched_count += dispatched
        self.now = horizon_us
        return dispatched
