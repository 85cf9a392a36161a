"""metafog: a deterministic discrete-event simulator of a hybrid fog-edge
metaverse architecture, measured against a cloud-only baseline.

The package simulates a social metaverse workload (avatar navigation,
collision detection, proximity messaging, ledger-validated asset purchases)
over a device/fog/edge/cloud tree and reports end-to-end task latency under
two placement policies.
"""

from .config import DEFAULTS, config_digest, load_config, resolve_config
from .engine import (
    Engine,
    RngStream,
    draw_exponential,
    EVENT_KIND_NAMES,
    STREAM_MESSAGING,
    STREAM_MOVEMENT,
    STREAM_SERVICE,
    STREAM_TRANSACTIONS,
)
from .errors import (
    CausalityError,
    ConfigError,
    EventInPastError,
    SimulationError,
    TopologyError,
)
from .harness import (
    KindStats,
    ScenarioResult,
    ScenarioRunner,
    TaskPipeline,
    run_scenario,
    sweep,
)
from .infrastructure import (
    LatencyRecord,
    Link,
    LinkParams,
    NetworkNode,
    TierParams,
    Tier,
    Topology,
    build_topology,
    build_user_topology,
    service_time_us,
    simulate_mm1,
    transfer_time,
)
from .ledger import Block, Chain, Transaction, validate_transaction, verify_chain
from .reporting import (
    emit,
    parse_results_csv,
    plot_series,
    reduction_table,
    write_plot_data,
    write_results_csv,
)
from .stats import latency_reduction, percentile
from .workload import KIND_LABELS, Policy, Task, TaskKind, TaskProfile, place
from .world import Avatar, World, WorldGrid, movement_tick, region_of

__version__ = "0.1.0"
