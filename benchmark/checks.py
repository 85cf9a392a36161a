"""Correctness checks, run outside the timed region.

Each check either recomputes a figure apart from the program, from the
config and the records the program emits, or tests a property the method
must have. A check returns nothing when it passes and raises CheckError
naming what differs when it does not.
"""

from __future__ import annotations

import hashlib
import random
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

from metafog import parse_results_csv

# Task kinds in the order of the kind field of a latency record; the labels
# are the per-kind rows of results.csv and the profile names of the config.
KIND_PROFILES = (
    "spatial_navigation",
    "collision_detection",
    "social_interaction",
    "transaction_validation",
    "universe_simulation",
)
TRANSACTION_KIND = 3
SYSTEM_OWNER = -1
ZERO_HASH = bytes(32)


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def exact_us(ms) -> int:
    """Milliseconds to whole microseconds, rounded up, in exact decimal arithmetic."""
    us = Decimal(repr(ms)) * 1000
    return int(us.to_integral_value(rounding=ROUND_CEILING))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- conservation and task counts ------------------------------------------

def check_conservation(extras: dict, n_records: int) -> None:
    """Every generated task is either recorded or in flight at the horizon."""
    generated = extras["tasks_generated"]
    in_flight = extras["in_flight_at_horizon"]
    _require(in_flight >= 0, f"negative in-flight count {in_flight}")
    _require(extras["records_emitted"] == n_records,
             f"records_emitted {extras['records_emitted']} != {n_records} records received")
    _require(generated == n_records + in_flight,
             f"tasks_generated {generated} != {n_records} records + {in_flight} in flight")
    _require(sum(extras["generated_by_kind"].values()) == generated,
             "per-kind generated counts do not sum to tasks_generated")


def expected_task_counts(cfg: dict) -> dict[str, int]:
    """Movement and universe task counts from tick phases, period and horizon.

    Avatar u ticks at phase_u + k * tick for k >= 1, with phase_u =
    (u * tick) // n, and each tick emits one navigation and one collision
    task; a universe task fires at every multiple of its period. Events at
    the horizon itself still run.
    """
    horizon = exact_us(cfg["experiment"]["horizon_ms"])
    tick = exact_us(cfg["world"]["movement_tick_ms"])
    period = exact_us(cfg["workload"]["profiles"]["universe_simulation"]["period_ms"])
    n = cfg["workload"]["user_count"]
    ticks = sum(max(0, (horizon - (u * tick) // n) // tick) for u in range(n))
    return {
        "spatial_navigation": ticks,
        "collision_detection": ticks,
        "universe_simulation": horizon // period,
    }


def check_task_counts(cfg: dict, extras: dict) -> None:
    generated = extras["generated_by_kind"]
    for kind, expected in expected_task_counts(cfg).items():
        _require(generated[kind] == expected,
                 f"{kind}: {generated[kind]} tasks generated, config gives {expected}")


# -- transfers -----------------------------------------------------------------

def _hops(cfg: dict, owner: int, placed_on: str, home_fog: list[str]) -> list[dict]:
    """Links between the owner's device and the serving node, from the tree's shape."""
    links = cfg["topology"]["links"]
    device_fog, fog_edge, edge_cloud = links["device_fog"], links["fog_edge"], links["edge_cloud"]
    if owner == SYSTEM_OWNER:
        _require(placed_on == "cloud", f"system task placed on {placed_on}")
        return []
    if placed_on == "cloud":
        return [device_fog, fog_edge, edge_cloud]
    fog = home_fog[owner]
    if placed_on.startswith("fog-"):
        _require(placed_on == fog, f"user {owner} task on {placed_on}, home fog is {fog}")
        return [device_fog]
    _require(placed_on.startswith("edge-"), f"unknown node kind {placed_on}")
    _, rx, ry, _ = fog.split("-")  # fog-RX-RY-i hangs under edge-RX-RY
    if placed_on == f"edge-{rx}-{ry}":
        return [device_fog, fog_edge]
    return [device_fog, fog_edge, edge_cloud, edge_cloud]


def transfer_us(hops: list[dict], payload_bytes: int) -> int:
    """Propagation plus ceil(bits / Mbps) per link; bits / Mbps is microseconds."""
    bits = payload_bytes * 8
    total = 0
    for link in hops:
        total += exact_us(link["propagation_ms"])
        if bits:
            total += _ceil_div(bits, link["bandwidth_mbps"])
    return total


def check_transfers(cfg: dict, records: list, home_fog: list[str]) -> None:
    """Uplink and downlink of every record, recomputed from the link parameters."""
    _require(cfg["topology"]["edges_per_region"] == 1,
             "transfer check assumes one edge server per region")
    profiles = cfg["workload"]["profiles"]
    for rec in records:
        profile = profiles[KIND_PROFILES[rec.kind]]
        hops = _hops(cfg, rec.owner, rec.placed_on, home_fog)
        up = transfer_us(hops, profile["upload_bytes"])
        down = transfer_us(hops, profile["download_bytes"])
        _require(rec.uplink_us == up and rec.downlink_us == down,
                 f"task {rec.task_id} on {rec.placed_on}: uplink/downlink "
                 f"{rec.uplink_us}/{rec.downlink_us} us, link parameters give {up}/{down}")


# -- queueing ----------------------------------------------------------------

def max_downlink_us(cfg: dict) -> int:
    """Upper bound on any downlink: the longest tree path (edge-cloud-edge-fog-device)."""
    links = cfg["topology"]["links"]
    longest = [links["edge_cloud"], links["edge_cloud"], links["fog_edge"], links["device_fog"]]
    biggest = max(p.get("download_bytes", 0) for p in cfg["workload"]["profiles"].values())
    return transfer_us(longest, biggest)


def check_queue_waits(cfg: dict, records: list) -> int:
    """Per-server FIFO waits, recomputed by Lindley's recurrence.

    Records are taken per server in (arrival, task id) order, where arrival =
    created + uplink. Completions are strictly increasing in that order, so a
    task that completed by horizon - max_downlink precedes every task whose
    record is missing because its downlink ended past the horizon. The
    recurrence runs over that complete prefix of each server. Returns the
    number of waits compared.
    """
    horizon = exact_us(cfg["experiment"]["horizon_ms"])
    cutoff = horizon - max_downlink_us(cfg)
    by_server: dict[str, list] = {}
    for rec in records:
        _require(rec.wait_us >= 0, f"task {rec.task_id}: negative wait {rec.wait_us}")
        _require(rec.total_us == rec.uplink_us + rec.wait_us + rec.service_us + rec.downlink_us,
                 f"task {rec.task_id}: total is not uplink + wait + service + downlink")
        by_server.setdefault(rec.placed_on, []).append(
            (rec.created_us + rec.uplink_us, rec.task_id, rec.service_us, rec.wait_us))
    compared = 0
    for server, tasks in by_server.items():
        tasks.sort()
        busy_until = 0
        for arrival, task_id, service, wait in tasks:
            if arrival + wait + service > cutoff:
                break
            start = arrival if arrival > busy_until else busy_until
            _require(start - arrival == wait,
                     f"{server}: task {task_id} waited {wait} us, the recurrence gives "
                     f"{start - arrival} us")
            busy_until = start + service
            compared += 1
    _require(compared > 0, "no queue wait could be compared")
    return compared


# -- ledger -----------------------------------------------------------------------

def _tx_bytes(tx) -> bytes:
    return (f"{tx.tx_id}|{tx.buyer}|{tx.seller}|{tx.asset}|{tx.amount}|"
            f"{tx.submitted_at_us}").encode("ascii")


def block_digest(index: int, prev_hash: bytes, formed_at_us: int, txs) -> bytes:
    """SHA-256 of "index|prev_hash_hex|formed_at_us|n_txs|tx;tx;...", as ledger.py documents."""
    body = f"{index}|{prev_hash.hex()}|{formed_at_us}|{len(txs)}|".encode("ascii")
    return hashlib.sha256(body + b";".join(_tx_bytes(tx) for tx in txs)).digest()


def check_chain(blocks: list, records: list, batch_size: int) -> None:
    """Re-hash the chain, and hold its transactions against the validations recorded."""
    prev = ZERO_HASH
    for i, block in enumerate(blocks):
        _require(block.index == i, f"block {i} carries index {block.index}")
        _require(block.prev_hash == prev, f"block {i}: prev_hash does not link")
        _require(block_digest(i, prev, block.formed_at_us, block.txs) == block.hash,
                 f"block {i}: hash does not recompute")
        last = i == len(blocks) - 1
        _require(len(block.txs) == batch_size or (last and 0 < len(block.txs) < batch_size),
                 f"block {i} holds {len(block.txs)} transactions, batch size is {batch_size}")
        prev = block.hash
    chained = [(tx.buyer, tx.submitted_at_us) for block in blocks for tx in block.txs]
    validated = [(r.owner, r.created_us) for r in records if r.kind == TRANSACTION_KIND]
    _require(chained == validated,
             f"chain holds {len(chained)} transactions, {len(validated)} were validated "
             "(or their order differs)")


# -- world ------------------------------------------------------------------------

def check_nearby(world, radius: float, seed: int, samples: int = 64) -> None:
    """World.nearby_users against brute force, on sampled users at the horizon."""
    avatars = world.avatars
    r2 = radius * radius
    users = random.Random(seed).sample(range(len(avatars)), min(samples, len(avatars)))
    for u in users:
        x, y = avatars[u].x, avatars[u].y
        brute = [v for v, a in enumerate(avatars)
                 if v != u and (a.x - x) ** 2 + (a.y - y) ** 2 <= r2]
        found = sorted(world.nearby_users(u, radius))
        _require(found == brute, f"user {u}: nearby_users gives {len(found)} users, "
                                 f"brute force {len(brute)}")


# -- results ------------------------------------------------------------------------

def check_fog_halves_cloud(results: list) -> None:
    """The paper's claim: at the top user count, fog-edge mean <= half the cloud-only mean."""
    top = max(r.value for r in results)
    means = {r.policy: r.stats["overall"].mean_us for r in results if r.value == top}
    cloud, fog = means.get("cloudonly"), means.get("fogedge")
    _require(cloud is not None and fog is not None, f"no pair of policies at {top} users")
    _require(2 * fog <= cloud,
             f"at {top} users fog-edge mean {fog} us is more than half of cloud-only {cloud} us")


def _csv_fields(r) -> tuple:
    return (r.scenario_id, r.policy, r.param, r.value, r.replication, r.seed,
            r.config_digest, r.stats)


def check_csv_roundtrip(results: list, csv_path: Path) -> None:
    """parse_results_csv(results.csv) gives back the in-memory results."""
    parsed = parse_results_csv(csv_path)
    _require([_csv_fields(r) for r in parsed] == [_csv_fields(r) for r in results],
             f"{csv_path} does not parse back to the results that were emitted")


def check_same_stats(runs: list[list]) -> None:
    """Every run of the same config and seed gives identical statistics."""
    first = [r.stats for r in runs[0]]
    for i, run in enumerate(runs[1:], 1):
        _require([r.stats for r in run] == first, f"run {i} of the same seed differs from run 0")


# -- simulated state ----------------------------------------------------------------

def simulated_state(cfg: dict, records: list) -> dict[str, tuple[float, str]]:
    """Cloud busy share and mean queue wait over the recorded tasks, as (value, unit)."""
    horizon = exact_us(cfg["experiment"]["horizon_ms"])
    cloud_busy = sum(r.service_us for r in records if r.placed_on == "cloud")
    waits = [r.wait_us for r in records]
    return {
        "infrastructure.cloud_utilization": (cloud_busy / horizon if horizon else 0.0, "ratio"),
        "infrastructure.mean_wait_ms": (sum(waits) / len(waits) / 1000 if waits else 0.0, "ms"),
    }
