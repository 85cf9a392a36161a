"""Experiment driver: scenario assembly, execution, aggregation and sweeps.

A scenario wires the engine, world, topology, workload generators and ledger
together for one (config, policy, seed) triple and runs to the horizon in two
phases. The event loop only generates work: movement ticks, messages,
transactions and universe tasks, each placed and submitted as a task. Links
have no contention and no task outcome feeds back into generation, so the
queues are resolved apart from the loop: once per simulated second, every
task that has reached its server is served FIFO by Lindley's recurrence, and
every task whose downlink has landed back at the device is emitted, in the
order of its finish time, to the latency statistics, the record sink and the
ledger. Sweeps run one independent scenario per (value, policy, replication)
and order results deterministically, so serial and parallel execution
produce identical output.
"""

from __future__ import annotations

import json
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import infrastructure as infra
from .config import config_digest, resolve_config
from .engine import (
    EV_MESSAGE_SEND,
    EV_MOVEMENT_TICK,
    EV_TASK_ARRIVAL,
    EV_TX_SUBMIT,
    US_PER_S,
    Engine,
    RngStream,
    STREAM_MESSAGING,
    STREAM_MOVEMENT,
    STREAM_SERVICE,
    STREAM_TRANSACTIONS,
    ceil_div,
    ms_to_us,
)
from .errors import ConfigError
from .infrastructure import LatencyRecord, TierParams, LinkParams
from .ledger import Chain, Transaction, validate_transaction
from .stats import percentile
from .workload import (
    KIND_LABELS,
    Policy,
    SYSTEM_OWNER,
    Task,
    TaskKind,
    place,
)
from .world import World, WorldGrid


class KindStats(NamedTuple):
    count: int
    mean_us: int | None
    p50_us: int | None
    p95_us: int | None
    p99_us: int | None


@dataclass
class ScenarioResult:
    """Aggregated outcome of one scenario run.

    stats maps 'overall' and each task-kind label to its KindStats; extras
    carries the reconciliation counters (conservation, skips, ledger state)
    that go into the run metadata file rather than the CSV.
    """

    scenario_id: str
    policy: str
    param: str
    value: float
    replication: int
    seed: int
    config_digest: str
    stats: dict[str, KindStats]
    extras: dict = field(default_factory=dict)


# The run resolves the queues once per window of simulated time.
WINDOW_US = US_PER_S

# Columns of a task row: the fields submit() buffers, then the completion and
# finish times the resolve pass adds. IDX is the submit index, which breaks
# ties in FIFO and emission order.
(_IDX, _TID, _KIND, _OWNER, _SERVER, _CREATED, _UP, _SERVICE, _DOWN,
 _DONE, _FINISH) = range(11)
_SUBMITTED = _DONE


class TaskPipeline:
    """Queues placed tasks FIFO at their servers and records their latency.

    submit() buffers a task. resolve(cutoff) serves every buffered task that
    reaches its server by the cutoff and emits, in (finish, completion,
    arrival, submit index) order, every task whose downlink lands by it; that
    is the order in which a per-task event loop would finish them. Served
    tasks wait for emission in buckets keyed by finish window, so a long
    backlog is never rescanned.
    """

    __slots__ = (
        "topo", "policy", "warmup_us", "record_sink", "on_validated",
        "node_index", "node_ids", "capacities", "busy_until",
        "totals", "generated", "completed",
        "records_emitted", "tasks_generated",
        "_buffer", "_held", "_buckets", "_txs", "_shared",
    )

    def __init__(self, topo: infra.Topology, policy: Policy,
                 warmup_us: int = 0, record_sink: Callable | None = None):
        self.topo = topo
        self.policy = policy
        self.warmup_us = warmup_us
        self.record_sink = record_sink
        # set by the runner: called (finish_us, txs) per finish time, in emission order
        self.on_validated = None
        self.node_ids = sorted(topo.nodes_by_id)
        self.node_index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.capacities = [topo.nodes_by_id[nid].capacity_mips for nid in self.node_ids]
        self.busy_until = np.zeros(len(self.node_ids), dtype=np.int64)
        self.totals: list[list[np.ndarray]] = [[] for _ in TaskKind]  # post-warm-up latencies
        self.generated = [0] * len(TaskKind)
        self.completed = [0] * len(TaskKind)
        self.records_emitted = 0
        self.tasks_generated = 0
        self._buffer = array("q")  # submitted since the last resolve, _SUBMITTED fields each
        self._held = np.empty((0, _SUBMITTED), dtype=np.int64)  # submitted, not yet arrived
        self._buckets: dict[int, list[np.ndarray]] = {}  # served, by finish // WINDOW_US
        self._txs: dict[int, Transaction] = {}  # by submit index, until validated
        self._shared: dict[int, int] = {}  # one int object per repeated record field value

    def submit(self, task_id: int, kind: int, owner: int, server_idx: int,
               created_us: int, uplink_us: int, service_us: int, downlink_us: int,
               tx: Transaction | None = None) -> None:
        """Buffer a placed task: the uplink transfer starts at created_us."""
        index = self.tasks_generated
        self.tasks_generated = index + 1
        self.generated[kind] += 1
        self._buffer.extend((index, task_id, kind, owner, server_idx, created_us,
                             uplink_us, service_us, downlink_us))
        if tx is not None:
            self._txs[index] = tx

    def dispatch_task(self, task: Task, device_id: str, home_fog: str | None = None,
                      tx: Transaction | None = None) -> str:
        """Place and submit a fully described task; returns the serving node id."""
        server = place(task, self.policy, self.topo, home_fog)
        sidx = self.node_index[server]
        uplink = self.topo.transfer_us(device_id, server, task.upload_bytes)
        downlink = self.topo.transfer_us(server, device_id, task.download_bytes)
        service = infra.service_time_us(task.length_mi, self.capacities[sidx])
        self.submit(task.task_id, int(task.kind), task.owner, sidx,
                    task.created_us, uplink, service, downlink, tx)
        return server

    def resolve(self, cutoff_us: int) -> None:
        """Serve the tasks that arrive by cutoff_us; emit those that finish by it.

        Every task that arrives at its server by cutoff_us must have been
        submitted. A server's future depends on its past only through
        busy_until, so calls with increasing cutoffs compose exactly.
        """
        self._serve(cutoff_us)
        for key in sorted(k for k in self._buckets if k <= cutoff_us // WINDOW_US):
            rows = np.concatenate(self._buckets.pop(key))
            late = rows[:, _FINISH] > cutoff_us
            if late.any():
                self._buckets[key] = [rows[late]]
                rows = rows[~late]
            self._emit(rows)

    def _serve(self, cutoff_us: int) -> None:
        # Work on index arrays and columns: each copy of whole rows adds to peak memory.
        rows = np.concatenate((
            self._held, np.frombuffer(self._buffer, dtype=np.int64).reshape(-1, _SUBMITTED)))
        self._buffer = array("q")
        arrival = rows[:, _CREATED] + rows[:, _UP]
        ready = arrival <= cutoff_us
        self._held = rows[~ready]
        take = np.flatnonzero(ready)
        if not take.size:
            return
        arrival = arrival[take]
        server = rows[take, _SERVER]
        order = np.lexsort((rows[take, _IDX], arrival, server))
        take, arrival, server = take[order], arrival[order], server[order]
        done = infra.fifo_completions(server, arrival, rows[take, _SERVICE], self.busy_until)
        finish = done + rows[take, _DOWN]
        key = finish // WINDOW_US
        order = np.argsort(key, kind="stable")
        served = np.empty((take.size, _FINISH + 1), dtype=np.int64)
        served[:, :_SUBMITTED] = rows[take[order]]
        served[:, _DONE] = done[order]
        served[:, _FINISH] = finish[order]
        key = key[order]
        bounds = np.flatnonzero(key[1:] != key[:-1]) + 1
        for part, k in zip(np.split(served, bounds), key[np.append(0, bounds)].tolist()):
            self._buckets.setdefault(k, []).append(part)

    def _emit(self, rows: np.ndarray) -> None:
        """Count emitted tasks into the statistics; records and transactions go in order."""
        kind = rows[:, _KIND]
        created = rows[:, _CREATED]
        total = rows[:, _FINISH] - created
        warm = created >= self.warmup_us
        for k, n in enumerate(np.bincount(kind, minlength=len(TaskKind)).tolist()):
            if n:
                self.completed[k] += n
                kept = total[warm & (kind == k)]
                if kept.size:
                    self.totals[k].append(kept)
        self.records_emitted += len(rows)
        if self.record_sink is not None:
            self._record(_in_finish_order(rows))
        if self._txs and self.on_validated is not None:
            # dict order is submit order, so the keys come sorted
            keys = np.fromiter(self._txs, dtype=np.int64, count=len(self._txs))
            at = np.searchsorted(keys, rows[:, _IDX]).clip(max=keys.size - 1)
            self._validate(_in_finish_order(rows[keys[at] == rows[:, _IDX]]))

    def _record(self, rows: np.ndarray) -> None:
        sink = self.record_sink
        policy = self.policy.value
        node_ids = self.node_ids
        # A sink may keep every record. Owners, transfer and service times
        # take few distinct values, so records share one int object per value.
        share = self._shared.setdefault
        wait = rows[:, _DONE] - rows[:, _SERVICE] - rows[:, _CREATED] - rows[:, _UP]
        total = rows[:, _FINISH] - rows[:, _CREATED]
        for (tid, kind, owner, server, created, up, service, down), w, t in zip(
                rows[:, _TID:_DONE].tolist(), wait.tolist(), total.tolist()):
            sink(LatencyRecord(tid, kind, share(owner, owner), policy, node_ids[server],
                               created, share(up, up), w, share(service, service),
                               share(down, down), t))

    def _validate(self, rows: np.ndarray) -> None:
        """Hand the emitted transactions over, grouped by equal finish time."""
        txs = self._txs
        group: list[Transaction] = []
        at = None
        for index, finish in rows[:, [_IDX, _FINISH]].tolist():
            if finish != at and group:
                self.on_validated(at, group)
                group = []
            at = finish
            group.append(txs.pop(index))
        if group:
            self.on_validated(at, group)

    def in_flight(self) -> int:
        return self.tasks_generated - self.records_emitted

    def unfinished(self) -> int:
        """Independent in-flight count: tasks buffered, held or served but not emitted."""
        return (len(self._buffer) // _SUBMITTED + len(self._held)
                + sum(len(part) for parts in self._buckets.values() for part in parts))


def _in_finish_order(rows: np.ndarray) -> np.ndarray:
    """Rows sorted by (finish, completion, arrival, submit index): the order in
    which a per-task event loop would see the tasks finish."""
    arrival = rows[:, _CREATED] + rows[:, _UP]
    return rows[np.lexsort((rows[:, _IDX], arrival, rows[:, _DONE], rows[:, _FINISH]))]


def _tier_params(cfg: dict) -> TierParams:
    topo_cfg = cfg["topology"]
    links = topo_cfg["links"]
    return TierParams(
        device_mips=topo_cfg["device_mips"],
        fog_mips=topo_cfg["fog_mips"],
        edge_mips=topo_cfg["edge_mips"],
        cloud_mips=topo_cfg["cloud_mips"],
        device_fog=LinkParams(**links["device_fog"]),
        fog_edge=LinkParams(**links["fog_edge"]),
        edge_cloud=LinkParams(**links["edge_cloud"]),
    )


class ScenarioRunner:
    """One simulation run: builds world, topology and workload, then executes."""

    def __init__(self, cfg: dict, policy: Policy, seed: int,
                 record_sink: Callable | None = None):
        self.cfg = cfg
        self.policy = policy
        self.seed = seed

        world_cfg = cfg["world"]
        wl = cfg["workload"]
        exp = cfg["experiment"]
        self.n_users = wl["user_count"]
        self.horizon_us = ms_to_us(exp["horizon_ms"])
        self.warmup_us = ms_to_us(exp["warmup_ms"])
        self.tick_us = ms_to_us(world_cfg["movement_tick_ms"])
        self.dt_s = self.tick_us / US_PER_S
        self.radius = world_cfg["proximity_radius"]

        self.streams = {
            name: RngStream(seed, name)
            for name in (STREAM_MOVEMENT, STREAM_MESSAGING, STREAM_TRANSACTIONS, STREAM_SERVICE)
        }

        self.grid = WorldGrid(world_cfg["width"], world_cfg["height"],
                              world_cfg["regions_x"], world_cfg["regions_y"],
                              world_cfg["cell"])
        self.world = World(self.grid, self.n_users, world_cfg["avatar_speed"],
                           self.streams[STREAM_MOVEMENT])

        topo, devices, fogs = infra.build_user_topology(
            self.world.regions_of_users(), self.grid.all_regions(), _tier_params(cfg),
            edges_per_region=cfg["topology"]["edges_per_region"],
            devices_per_fog=cfg["topology"]["devices_per_fog"],
        )
        self.topo = topo
        self.device_of_user = devices
        self.home_fog_of_user = fogs
        for user, avatar in enumerate(self.world.avatars):
            avatar.home_fog = fogs[user]

        self.engine = Engine()
        self.pipeline = TaskPipeline(topo, policy, self.warmup_us, record_sink)
        self.pipeline.on_validated = self._tx_validated

        self.chain = Chain()
        self.batch_size = cfg["ledger"]["batch_size"]
        self.tx_amount_max = cfg["ledger"]["tx_amount_max"]
        self.messages_sent = 0
        self.messages_skipped = 0
        self.tx_submitted = 0
        self._next_task_id = 0
        self._next_asset_id = 0

        self._precompute()
        self._register_handlers()
        self._prime_events()

    # -- setup ------------------------------------------------------------

    def _precompute(self) -> None:
        """Resolve per-user servers, transfer times and service times up front.

        Navigation and collision tasks always go to the same node for a given
        user and policy, so the movement-tick handler only does integer work.
        """
        wl = self.cfg["workload"]
        profiles = wl["profiles"]
        topo = self.topo
        index = self.pipeline.node_index
        caps = self.pipeline.capacities
        cloud_idx = index[topo.cloud_id]

        nav = profiles["spatial_navigation"]
        coll = profiles["collision_detection"]
        self._nav_len = nav["length_mi"]
        self._coll_base_num = coll["base_length_mi"] * 1_000_000
        self._coll_per_num = coll["per_neighbor_mi"] * 1_000_000

        # Navigation and collision tasks of a user always land on the same
        # node, so resolve that node through place() once and cache the rest.
        self._nav_server = [0] * self.n_users
        self._nav_service = [0] * self.n_users
        self._nav_up = [0] * self.n_users
        self._nav_down = [0] * self.n_users
        self._coll_up = [0] * self.n_users
        self._coll_down = [0] * self.n_users
        for u in range(self.n_users):
            dev = self.device_of_user[u]
            probe = Task(-1, TaskKind.SPATIAL_NAVIGATION, u, nav["length_mi"],
                         nav["upload_bytes"], nav["download_bytes"], 0)
            server = place(probe, self.policy, topo, self.home_fog_of_user[u])
            sidx = index[server]
            self._nav_server[u] = sidx
            self._nav_service[u] = infra.service_time_us(nav["length_mi"], caps[sidx])
            self._nav_up[u] = topo.transfer_us(dev, server, nav["upload_bytes"])
            self._nav_down[u] = topo.transfer_us(server, dev, nav["download_bytes"])
            self._coll_up[u] = topo.transfer_us(dev, server, coll["upload_bytes"])
            self._coll_down[u] = topo.transfer_us(server, dev, coll["download_bytes"])

        social = profiles["social_interaction"]
        txv = profiles["transaction_validation"]
        self._social_profile = (social["length_mi"], social["upload_bytes"], social["download_bytes"])
        self._txv_profile = (txv["length_mi"], txv["upload_bytes"], txv["download_bytes"])

        uni = profiles["universe_simulation"]
        self._universe_period_us = ms_to_us(uni["period_ms"])
        self._universe_profile = (uni["length_mi"], uni["upload_bytes"], uni["download_bytes"])
        self._cloud_idx = cloud_idx

        self._msg_rate_per_ms = wl["message_rate_per_user_per_s"] / 1000.0
        self._tx_rate_per_ms = wl["tx_rate_per_user_per_s"] / 1000.0

    def _register_handlers(self) -> None:
        eng = self.engine
        eng.on(EV_MOVEMENT_TICK, self._on_movement_tick)
        eng.on(EV_MESSAGE_SEND, self._on_message_send)
        eng.on(EV_TX_SUBMIT, self._on_tx_submit)
        eng.on(EV_TASK_ARRIVAL, self._on_task_arrival)

    def _prime_events(self) -> None:
        n = self.n_users
        tick = self.tick_us
        for u in range(n):
            # stagger tick phases across users so arrivals are not lockstep bursts
            phase = (u * tick) // n
            self.engine.schedule(phase + tick, EV_MOVEMENT_TICK, u)
        if self._msg_rate_per_ms > 0:
            msg_stream = self.streams[STREAM_MESSAGING]
            for u in range(n):
                self.engine.schedule(msg_stream.exponential_us(self._msg_rate_per_ms),
                                     EV_MESSAGE_SEND, u)
        if self._tx_rate_per_ms > 0 and n >= 2:
            tx_stream = self.streams[STREAM_TRANSACTIONS]
            for u in range(n):
                self.engine.schedule(tx_stream.exponential_us(self._tx_rate_per_ms),
                                     EV_TX_SUBMIT, u)
        self.engine.schedule(self._universe_period_us, EV_TASK_ARRIVAL, None)

    # -- event handlers ----------------------------------------------------

    def _on_movement_tick(self, now: int, user: int) -> None:
        world = self.world
        world.tick_avatar(user, self.dt_s)
        candidates = world.collision_candidates(user)
        pipeline = self.pipeline
        tid = self._next_task_id
        self._next_task_id = tid + 2
        sidx = self._nav_server[user]
        pipeline.submit(tid, 0, user, sidx, now,
                        self._nav_up[user], self._nav_service[user], self._nav_down[user])
        coll_service = ceil_div(self._coll_base_num + self._coll_per_num * candidates,
                                pipeline.capacities[sidx])
        pipeline.submit(tid + 1, 1, user, sidx, now,
                        self._coll_up[user], coll_service, self._coll_down[user])
        self.engine.schedule(now + self.tick_us, EV_MOVEMENT_TICK, user)

    def _on_message_send(self, now: int, user: int) -> None:
        stream = self.streams[STREAM_MESSAGING]
        neighbors = self.world.nearby_users(user, self.radius)
        if neighbors:
            stream.randrange(len(neighbors))  # pick the recipient
            self.messages_sent += 1
            length, up_bytes, down_bytes = self._social_profile
            self._submit_region_task(TaskKind.SOCIAL_INTERACTION, user, now,
                                     length, up_bytes, down_bytes)
        else:
            self.messages_skipped += 1
        self.engine.schedule(now + stream.exponential_us(self._msg_rate_per_ms),
                             EV_MESSAGE_SEND, user)

    def _on_tx_submit(self, now: int, user: int) -> None:
        stream = self.streams[STREAM_TRANSACTIONS]
        seller = stream.randrange(self.n_users - 1)
        if seller >= user:
            seller += 1
        amount = 1 + stream.randrange(self.tx_amount_max)
        tx = Transaction(self.tx_submitted, user, seller, self._next_asset_id, amount, now)
        self._next_asset_id += 1
        self.tx_submitted += 1
        validate_transaction(tx)
        length, up_bytes, down_bytes = self._txv_profile
        self._submit_region_task(TaskKind.TRANSACTION_VALIDATION, user, now,
                                 length, up_bytes, down_bytes, tx)
        self.engine.schedule(now + stream.exponential_us(self._tx_rate_per_ms),
                             EV_TX_SUBMIT, user)

    def _submit_region_task(self, kind: TaskKind, user: int, now: int,
                            length_mi: int, up_bytes: int, down_bytes: int,
                            tx: Transaction | None = None) -> None:
        tid = self._next_task_id
        self._next_task_id = tid + 1
        task = Task(tid, kind, user, length_mi, up_bytes, down_bytes, now,
                    region=self.world.avatars[user].region)
        self.pipeline.dispatch_task(task, self.device_of_user[user], tx=tx)

    def _on_task_arrival(self, now: int, payload) -> None:
        # periodic universe-simulation task, originating at the cloud itself
        tid = self._next_task_id
        self._next_task_id = tid + 1
        length, up_bytes, down_bytes = self._universe_profile
        task = Task(tid, TaskKind.UNIVERSE_SIMULATION, SYSTEM_OWNER,
                    length, up_bytes, down_bytes, now)
        self.pipeline.dispatch_task(task, self.topo.cloud_id)
        self.engine.schedule(now + self._universe_period_us, EV_TASK_ARRIVAL, None)

    def _tx_validated(self, now: int, txs: list[Transaction]) -> None:
        """Validate the transactions that finish at `now`, then form every full block."""
        chain = self.chain
        for tx in txs:
            chain.add_validated(tx)
        while chain.form_block(self.batch_size, now) is not None:
            pass

    # -- execution ----------------------------------------------------------

    def run(self) -> None:
        """Generate a window at a time, resolving the queues after each window."""
        engine = self.engine
        pipeline = self.pipeline
        for cutoff in range(WINDOW_US - 1, self.horizon_us, WINDOW_US):
            engine.run_until(cutoff)
            pipeline.resolve(cutoff)
        engine.run_until(self.horizon_us)
        pipeline.resolve(self.horizon_us)
        self.chain.flush(self.horizon_us)

    def collect(self, scenario_id: str, param: str, value, replication: int) -> ScenarioResult:
        pipeline = self.pipeline
        unfinished = pipeline.unfinished()
        in_flight = pipeline.in_flight()
        if unfinished != in_flight:
            raise AssertionError(
                f"conservation violated: {in_flight} tasks unaccounted but "
                f"{unfinished} tasks buffered or queued"
            )
        per_kind = [np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
                    for parts in pipeline.totals]
        stats: dict[str, KindStats] = {"overall": _kind_stats(np.sort(np.concatenate(per_kind)))}
        for kind in TaskKind:
            stats[KIND_LABELS[kind]] = _kind_stats(per_kind[kind])
        extras = {
            "tasks_generated": pipeline.tasks_generated,
            "records_emitted": pipeline.records_emitted,
            "in_flight_at_horizon": in_flight,
            "generated_by_kind": {KIND_LABELS[k]: pipeline.generated[k] for k in TaskKind},
            "completed_by_kind": {KIND_LABELS[k]: pipeline.completed[k] for k in TaskKind},
            "messages_sent": self.messages_sent,
            "messages_skipped_no_neighbor": self.messages_skipped,
            "tx_submitted": self.tx_submitted,
            "blocks_formed": len(self.chain.blocks),
            "chain_tx_count": sum(len(b.txs) for b in self.chain.blocks),
            "chain_valid": self.chain.verify(),
            "events_scheduled": self.engine.scheduled_count,
            "events_dispatched": self.engine.dispatched_count,
            "horizon_ms": self.cfg["experiment"]["horizon_ms"],
            "warmup_ms": self.cfg["experiment"]["warmup_ms"],
            "user_count": self.n_users,
        }
        return ScenarioResult(
            scenario_id=scenario_id,
            policy=self.policy.value,
            param=param,
            value=value,
            replication=replication,
            seed=self.seed,
            config_digest=config_digest(self.cfg),
            stats=stats,
            extras=extras,
        )


def _kind_stats(sorted_totals: np.ndarray) -> KindStats:
    n = int(sorted_totals.size)
    if n == 0:
        return KindStats(0, None, None, None, None)
    total = int(sorted_totals.sum())
    mean_us = (total + n // 2) // n
    return KindStats(
        n, mean_us,
        int(percentile(sorted_totals, 50)),
        int(percentile(sorted_totals, 95)),
        int(percentile(sorted_totals, 99)),
    )


def run_scenario(config: dict | None, policy: Policy | str, seed: int, *,
                 record_sink: Callable | None = None, param: str = "none",
                 value: float | None = None, replication: int = 0) -> ScenarioResult:
    """Run one scenario and aggregate its latency records.

    config may be a partial override dict (merged into the defaults) or None
    for the defaults themselves. The record_sink, when given, receives every
    LatencyRecord as it is emitted.
    """
    cfg = resolve_config(config)
    pol = Policy.parse(policy) if isinstance(policy, str) else policy
    runner = ScenarioRunner(cfg, pol, seed, record_sink)
    runner.run()
    if value is None:
        value = cfg["workload"]["user_count"]
    scenario_id = f"{param}={_fmt_value(value)}/{pol.value}/rep{replication}"
    return runner.collect(scenario_id, param, value, replication)


def _fmt_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


SWEEP_PARAMS = ("user_count", "tx_rate")


def _scenario_overrides(cfg: dict, param: str, value) -> dict:
    """Per-scenario config with the swept parameter applied."""
    scenario_cfg = json.loads(json.dumps(cfg))  # deep copy, JSON-typed by construction
    if param == "user_count":
        scenario_cfg["workload"]["user_count"] = int(value)
    elif param == "tx_rate":
        # swept value is the aggregate transaction arrival rate per second,
        # spread uniformly over the fixed user population
        users = scenario_cfg["workload"]["user_count"]
        scenario_cfg["workload"]["tx_rate_per_user_per_s"] = value / users
    else:
        raise ConfigError(f"unknown sweep parameter {param!r} (expected one of {SWEEP_PARAMS})")
    return scenario_cfg


def _sweep_worker(args: tuple) -> ScenarioResult:
    scenario_cfg, policy_value, seed, param, value, replication = args
    return run_scenario(scenario_cfg, Policy(policy_value), seed,
                        param=param, value=value, replication=replication)


def sweep(config: dict | None, param: str, values: list | None = None,
          replications: int | None = None, *, parallel: bool = False,
          max_workers: int | None = None) -> list[ScenarioResult]:
    """Run both policies over every swept value, replications times each.

    Scenario seeds are base_seed + replication index. Results are ordered by
    (value, policy, replication) no matter how execution was scheduled, and a
    parallel run returns exactly what a serial run returns.
    """
    cfg = resolve_config(config)
    exp = cfg["experiment"]
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r} (expected one of {SWEEP_PARAMS})")
    if values is None:
        values = exp["user_count_sweep"] if param == "user_count" else exp["tx_rate_sweep"]
    if replications is None:
        replications = exp["replications"]
    if replications < 1:
        raise ConfigError("replications must be >= 1")

    jobs = []
    for value in values:
        scenario_cfg = _scenario_overrides(cfg, param, value)
        for policy in (Policy.CLOUD_ONLY, Policy.FOG_EDGE):
            for rep in range(replications):
                jobs.append((scenario_cfg, policy.value, exp["base_seed"] + rep,
                             param, value, rep))

    if parallel:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]
    results.sort(key=lambda r: (r.value, r.policy, r.replication))
    return results
