"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration: names the offending key/node and the constraint violated."""


class SimulationError(RuntimeError):
    """A contract violation inside a running simulation (logic bug, not bad input)."""


class EventInPastError(SimulationError):
    """An event was scheduled before the current simulation clock."""


class CausalityError(SimulationError):
    """Events were dispatched out of (fire_at, seq) order."""


class ScenarioError(SimulationError):
    """A scenario of a sweep failed; names its swept value, replication and seed."""
