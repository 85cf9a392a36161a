"""The M/M/1 queueing-theory validation harness.

One FIFO compute queue is driven with Poisson arrivals and exponential
service and resolved by the same fifo_completions the scenarios use, so its
mean wait can be held against the analytic M/M/1 value rho / (mu - lambda).
"""

import numpy as np

from metafog.engine import STREAM_TRANSACTIONS, RngStream
from metafog.infrastructure import fifo_completions

STREAM_SERVICE = "service"


def simulate_mm1(arrival_rate_per_ms: float, service_rate_per_ms: float,
                 n_tasks: int, seed: int) -> dict:
    """Mean wait of n_tasks at one queue, gaps and service times from their own streams."""
    arrivals = RngStream(seed, STREAM_TRANSACTIONS)
    services = RngStream(seed, STREAM_SERVICE)
    arrival = np.cumsum([arrivals.exponential_us(arrival_rate_per_ms) for _ in range(n_tasks)],
                        dtype=np.int64)
    service = np.array([services.exponential_us(service_rate_per_ms) for _ in range(n_tasks)],
                       dtype=np.int64)
    completion = fifo_completions(np.zeros(n_tasks, dtype=np.int64), arrival, service,
                                  np.zeros(1, dtype=np.int64))
    wait_sum = int((completion - service - arrival).sum())
    return {"tasks": n_tasks, "mean_wait_us": wait_sum / n_tasks}
