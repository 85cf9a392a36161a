"""Host-speed reference for the normalised metrics ``run_norm`` and ``setup_s``.

The host this benchmark runs on changes speed by up to 1.8x within seconds,
because other tenants share its cores; the change shows in CPU time too, so
it is the speed of the core, not time spent waiting for one. A fixed
pure-Python loop, timed right before and right after each run and right
after each set-up, samples that speed. Dividing the phase's time by the
loop's time removes the part of the variation that the two share.

The loop never calls metafog. It mixes what the simulator's hot path does:
heap pushes and pops of tuples, dict lookups and float arithmetic.
"""

from __future__ import annotations

import heapq
import time

REF_ITERATIONS = 120_000
# Set-up time is reported as it would read on a host where one reference
# loop takes this long: raw set-up time * REF_NOMINAL_S / measured loop time.
REF_NOMINAL_S = 0.2

_SEED_HEAP = tuple((float((i * 7919) % 4096) * 0.25, i, i % 8) for i in range(4096))
_WEIGHTS = {k: 1.0 + 0.125 * k for k in range(8)}


def reference_loop(iterations: int = REF_ITERATIONS) -> float:
    """Run the fixed loop; returns its accumulator so the work is consumed."""
    heap = list(_SEED_HEAP)
    heapq.heapify(heap)
    weights = _WEIGHTS
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0.0
    seq = len(heap)
    for _ in range(iterations):
        t, s, k = pop(heap)
        w = weights[k]
        acc += w * 1e-3 + t * 1e-9
        push(heap, (t + w * 3.5, seq, (k + s) & 7))
        seq += 1
    return acc


def time_reference(iterations: int = REF_ITERATIONS) -> float:
    """CPU seconds one reference loop takes on this host, now."""
    t0 = time.process_time()
    reference_loop(iterations)
    return time.process_time() - t0
