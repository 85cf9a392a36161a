"""Configuration: defaults, exhaustive validation, canonical digest.

The config is a JSON object with five sections (world, topology, workload,
ledger, experiment), resolved in one walk over the defaults into a new config
that shares no section or list with them or the caller. Validation is strict:
unknown keys are hard errors, the walk checks every leaf against one table
keyed by leaf name, a few cross-key checks follow, and the error names the key
path and the constraint it violated; set-up code relies on these checks. Silent
defaults and ignored typos are how simulation results stop being reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .engine import MAX_EXPONENTIAL_MEANS, ms_to_us
from .errors import ConfigError

# Default parameter set. The paper behind this architecture publishes no
# numeric topology, task or rate values, so these are declared defaults tuned
# to make the cloud-only baseline saturate near the top of the default user
# sweep while the fog-edge tiers stay uncongested. All of them are plain
# config keys and are recorded in every output's metadata.
DEFAULTS: dict = {
    "world": {
        "width": 1000.0,
        "height": 1000.0,
        "regions_x": 10,
        "regions_y": 10,
        "cell": 40.0,
        "proximity_radius": 30.0,
        "avatar_speed": 1.5,         # world units per second
        "movement_tick_ms": 1000.0,  # per-avatar tick cadence, phase-staggered
    },
    "topology": {
        "devices_per_fog": 2,
        "edges_per_region": 1,
        "device_mips": 500,
        "fog_mips": 8_000,
        "edge_mips": 20_000,
        "cloud_mips": 100_000,
        "links": {
            "device_fog": {"propagation_ms": 2.0, "bandwidth_mbps": 100},
            "fog_edge": {"propagation_ms": 5.0, "bandwidth_mbps": 1_000},
            "edge_cloud": {"propagation_ms": 15.0, "bandwidth_mbps": 10_000},
        },
    },
    "workload": {
        "user_count": 500,
        "message_rate_per_user_per_s": 0.05,
        "tx_rate_per_user_per_s": 0.01,
        "profiles": {
            "spatial_navigation": {"length_mi": 50, "upload_bytes": 2000, "download_bytes": 1000},
            "collision_detection": {
                "base_length_mi": 20,
                "per_neighbor_mi": 1,
                "upload_bytes": 1000,
                "download_bytes": 500,
            },
            "social_interaction": {"length_mi": 30, "upload_bytes": 1000, "download_bytes": 1000},
            "transaction_validation": {"length_mi": 2000, "upload_bytes": 2000, "download_bytes": 500},
            "universe_simulation": {"length_mi": 10_000, "period_ms": 1000.0,
                                    "upload_bytes": 0, "download_bytes": 0},
        },
    },
    "ledger": {
        "batch_size": 10,
        "tx_amount_max": 1000,
    },
    "experiment": {
        "horizon_ms": 600_000.0,
        "warmup_ms": 100_000.0,
        "replications": 3,
        "base_seed": 42,
        "user_count_sweep": [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
        "tx_rate_sweep": [1, 2, 5, 10, 20, 50],  # aggregate transactions per second
    },
}


def _is_num(v) -> bool:
    """A finite number. JSON as Python reads it admits Infinity and NaN."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _is_rate(v) -> bool:
    """A number >= 0 per second whose exponential gaps, in microseconds, are all finite."""
    if not _is_num(v) or v < 0:
        return False
    if v == 0:
        return True
    rate_per_ms = v / 1000.0
    return rate_per_ms > 0 and math.isfinite(MAX_EXPONENTIAL_MEANS / rate_per_ms * 1000)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# Times in microseconds, payloads in bits, lengths in instructions and
# capacities stay at most 2^53, so the sums a run forms from them fit int64.
_MAX_EXACT = 2**53
# Set-up builds a list entry per grid cell, user and edge server.
_MAX_COUNT = 2**20


def _is_time(v) -> bool:
    """Milliseconds: a finite number >= 0 that is at most 2^53 microseconds."""
    return _is_num(v) and v >= 0 and ms_to_us(v) <= _MAX_EXACT


def _is_scaled(v, scale: int, low: int) -> bool:
    """An integer >= low whose value times scale is at most 2^53."""
    return _is_int(v) and v >= low and v * scale <= _MAX_EXACT


def _is_sweep(v) -> bool:
    """A non-empty, strictly increasing list of finite numbers > 0."""
    return isinstance(v, list) and bool(v) and all(_is_num(x) and x > 0 for x in v) and \
        all(a < b for a, b in zip(v, v[1:]))


_RATE = "0 or a finite number > 0 large enough that exponential gaps stay finite"
_TIME = "finite number >= 0, at most 2^53 us"
_TIME_POSITIVE = "finite number > 0, at most 2^53 us"
_POSITIVE_INT = "integer > 0, at most 2^53"
_LENGTH = "integer > 0 with MI * 10^6 <= 2^53"
_BYTES = "integer >= 0 with bytes * 8 <= 2^53"

# leaf name -> (checker, constraint description), one entry per leaf name of
# DEFAULTS; a name that recurs (length_mi, upload_bytes, ...) means one thing.
_CHECKS = {
    "width": (lambda v: _is_num(v) and v > 0, "finite number > 0"),
    "height": (lambda v: _is_num(v) and v > 0, "finite number > 0"),
    "regions_x": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "regions_y": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "cell": (lambda v: _is_num(v) and v > 0, "finite number > 0"),
    "proximity_radius": (lambda v: _is_num(v) and v > 0, "finite number > 0"),
    "avatar_speed": (lambda v: _is_num(v) and v >= 0, "finite number >= 0"),
    "movement_tick_ms": (lambda v: _is_time(v) and v > 0, _TIME_POSITIVE),
    "devices_per_fog": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "edges_per_region": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "device_mips": (lambda v: _is_scaled(v, 1, 1), _POSITIVE_INT),
    "fog_mips": (lambda v: _is_scaled(v, 1, 1), _POSITIVE_INT),
    "edge_mips": (lambda v: _is_scaled(v, 1, 1), _POSITIVE_INT),
    "cloud_mips": (lambda v: _is_scaled(v, 1, 1), _POSITIVE_INT),
    "propagation_ms": (_is_time, _TIME),
    "bandwidth_mbps": (lambda v: _is_scaled(v, 1, 1), _POSITIVE_INT),
    "user_count": (lambda v: _is_int(v) and 1 <= v <= _MAX_COUNT, "integer >= 1, at most 2^20"),
    "message_rate_per_user_per_s": (_is_rate, _RATE),
    "tx_rate_per_user_per_s": (_is_rate, _RATE),
    "length_mi": (lambda v: _is_scaled(v, 10**6, 1), _LENGTH),
    "base_length_mi": (lambda v: _is_scaled(v, 10**6, 1), _LENGTH),
    "per_neighbor_mi": (lambda v: _is_scaled(v, 10**6, 0), "integer >= 0 with MI * 10^6 <= 2^53"),
    "upload_bytes": (lambda v: _is_scaled(v, 8, 0), _BYTES),
    "download_bytes": (lambda v: _is_scaled(v, 8, 0), _BYTES),
    "period_ms": (lambda v: _is_time(v) and v > 0, _TIME_POSITIVE),
    "batch_size": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "tx_amount_max": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "horizon_ms": (_is_time, _TIME),
    "warmup_ms": (_is_time, _TIME),
    "replications": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "base_seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "integer in [0, 2^64)"),
    "user_count_sweep": (lambda v: _is_sweep(v) and all(map(_is_int, v)),
                         "a non-empty, strictly increasing list of integers > 0"),
    "tx_rate_sweep": (_is_sweep, "a non-empty, strictly increasing list of finite numbers > 0"),
}


def _resolve(defaults: dict, given: dict, prefix: str) -> dict:
    """A new section: each default, or the caller's value, checked; lists copied."""
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown config key {prefix + key!r}")
    section = {}
    for key, default in defaults.items():
        here, value = prefix + key, given.get(key, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a section (object)")
            section[key] = _resolve(default, value, here + ".")
            continue
        if isinstance(value, dict):
            raise ConfigError(f"config key {here!r} must be a value, not a section")
        check, constraint = _CHECKS[key]
        if not check(value):
            raise ConfigError(f"config key {here!r} = {value!r}: must be {constraint}")
        section[key] = list(value) if isinstance(value, list) else value
    return section


def resolve_config(overrides: dict | None = None) -> dict:
    """Merge overrides into the defaults and validate everything.

    None selects every default. Returns a new, fully-populated config dict
    that shares no section or list with the defaults or the overrides.
    Raises ConfigError naming the bad key and the constraint it violates: of
    several faults, the first leaf in the defaults' order, and a cross-key
    check (grid cells, edge servers, warm-up) only once every leaf holds.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be an object")
    cfg = _resolve(DEFAULTS, overrides, "")

    world = cfg["world"]
    sides = [world[side] / world["cell"] for side in ("width", "height")]
    if max(sides) > _MAX_COUNT or \
            math.prod(max(1, math.ceil(n)) for n in sides) > _MAX_COUNT:
        raise ConfigError(
            f"config keys 'world.width' = {world['width']!r}, 'world.height' = "
            f"{world['height']!r} and 'world.cell' = {world['cell']!r}: must give a spatial "
            f"hash of at most 2^20 cells, ceil(width / cell) x ceil(height / cell)"
        )
    edges = world["regions_x"] * world["regions_y"] * cfg["topology"]["edges_per_region"]
    if edges > _MAX_COUNT:
        raise ConfigError(
            f"config keys 'world.regions_x' = {world['regions_x']!r}, 'world.regions_y' = "
            f"{world['regions_y']!r} and 'topology.edges_per_region' = "
            f"{cfg['topology']['edges_per_region']!r}: must give at most 2^20 edge servers, "
            "regions_x x regions_y x edges_per_region"
        )
    exp = cfg["experiment"]
    if exp["warmup_ms"] > exp["horizon_ms"]:
        raise ConfigError(
            f"config key 'experiment.warmup_ms' = {exp['warmup_ms']!r}: "
            f"must be <= experiment.horizon_ms ({exp['horizon_ms']!r})"
        )
    return cfg


def load_config(path: str | Path) -> dict:
    """Read a JSON config file and resolve it against the defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):  # null too: only an object selects the defaults it omits
        raise ConfigError(f"config file {path}: config root must be an object")
    return resolve_config(data)


def config_digest(cfg: dict) -> str:
    """SHA-256 over the canonical JSON rendering of a resolved config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
