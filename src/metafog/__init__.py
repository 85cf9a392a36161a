"""metafog: a deterministic discrete-event simulator of a hybrid fog-edge
metaverse architecture, measured against a cloud-only baseline.

The package simulates a social metaverse workload (avatar navigation,
collision detection, proximity messaging, ledger-validated asset purchases)
over a device/fog/edge/cloud tree and reports end-to-end task latency under
two placement policies.
"""

from .config import resolve_config
from .engine import Engine, RngStream
from .errors import ConfigError, ScenarioError
from .harness import ScenarioRunner, TaskPipeline, run_scenario, sweep
from .ledger import Chain, Transaction
from .reporting import emit, parse_results_csv, plot_series, reduction_table
from .stats import latency_reduction
from .workload import Policy
from .world import World, WorldGrid

__version__ = "0.1.0"
