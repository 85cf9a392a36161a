"""Experiment driver: scenario assembly, execution, aggregation and sweeps.

A scenario wires the engine, world, topology, workload generators and ledger
together for one (config, seed) pair and runs to the horizon in two phases.
The event loop only generates work: movement ticks, messages, transactions
and universe tasks, each submitted as a task. Links have no contention and
no task outcome feeds back into generation, so the queues are resolved apart
from the loop, after each simulated second that leaves RESOLVE_ROWS tasks
buffered and at the horizon: the new tasks are placed by table lookup, every
task that has reached its server is served FIFO by Lindley's recurrence, and
every task whose downlink has landed back at the device is emitted, in the
order of its finish time, to the latency statistics and the record sink. The
pipelines hold task rows only: each emitted validation task goes back to the
runner as its (finish, task id), and the runner, which holds the
transactions by task id, adds that one to the policy's chain. A pass emits
all that finishes by its cutoff from served runs sorted by finish, so the
cadence changes no output. The loop does not depend on the policy, so one
generation feeds every policy of the run. Sweeps run one generation per
(value, replication) for both policies and order results deterministically,
so serial and parallel execution produce identical output.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
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
    STREAM_TRANSACTIONS,
    ms_to_us,
)
from .errors import ConfigError, ScenarioError
from .infrastructure import LatencyRecord
from .ledger import Chain, Transaction
from .stats import percentile
from .workload import KIND_LABELS, SYSTEM_OWNER, Placement, Policy, TaskKind
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
    that go into the run metadata file rather than the CSV. run_scenario sets
    chain to the ledger export; on other results it stays None.
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
    chain: list[str] | None = None


RESOLVE_ROWS = 2_000  # tasks buffered before a resolve pass, whose cost is largely fixed

# Columns of a submitted task: its policy-free fields. REGION indexes the
# world grid's regions, the owner's at creation. The task id is not buffered:
# it is implied by submission order, the task's position in the buffer plus
# the count submitted before it, and breaks ties in FIFO and emission order.
_KIND, _OWNER, _CREATED, _REGION, _CANDIDATES = range(5)
_SUBMITTED = 5
# Columns of a placed task: the submitted fields up to CREATED, the task id,
# the server and times of its placement, then the completion and finish times,
# which stay unset until the task is served.
_TID, _SERVER, _UP, _SERVICE, _DOWN, _DONE, _FINISH = range(3, 10)
_PLACED = _FINISH + 1


class TaskPipeline:
    """Places tasks under one policy, queues them FIFO and records their latency.

    submit() appends a task's policy-free fields to a plain list; its id is
    implied by submission order and is not buffered. resolve(cutoff) packs
    the list with struct into one int64 buffer, views it as rows, numbers
    them and places the tasks, here and in each of peers: the pipelines that
    see the same submissions under other placements. Each then serves every
    placed task that reaches its server by the cutoff, FIFO by a stable
    (server, arrival) sort: the rows still in their uplink precede the new
    ones and both are in task-id order, so ties go by task id. It emits, in
    (finish, completion, arrival, task id) order, every task whose downlink
    lands by the cutoff; that is the order in which a per-task event loop
    would finish them. Served tasks wait as one finish-sorted run per pass,
    and a pass emits the prefix of each run that finishes by its cutoff.
    It holds no transaction: on_validated(finish, task id) is called once
    per emitted transaction-validation task, in emission order.
    """

    __slots__ = (
        "placement", "warmup_us", "record_sink", "on_validated", "peers",
        "busy_until", "totals", "generated", "completed",
        "records_emitted", "tasks_generated",
        "_buffer", "_held", "_served", "_shared",
    )

    def __init__(self, placement: Placement, on_validated: Callable[[int, int], None],
                 warmup_us: int = 0, record_sink: Callable | None = None):
        self.placement = placement
        self.on_validated = on_validated
        self.warmup_us = warmup_us
        self.record_sink = record_sink
        self.peers: list[TaskPipeline] = []
        self.busy_until = np.zeros(len(placement.node_ids), dtype=np.int64)
        self.totals: list[list[np.ndarray]] = [[] for _ in TaskKind]  # post-warm-up latencies
        self.generated = [0] * len(TaskKind)
        self.completed = [0] * len(TaskKind)
        self.records_emitted = 0
        self.tasks_generated = 0  # taken in by resolve; the id of the next task taken in
        self._buffer: list[int] = []  # submitted since the last resolve, _SUBMITTED fields each
        self._held = np.empty((0, _PLACED), dtype=np.int64)  # placed, not yet arrived
        self._served: list[np.ndarray] = []  # served, not yet emitted: runs sorted by finish
        self._shared: dict[int, int] = {}  # one int object per repeated record field value

    def submit(self, kind: int, owner: int, created_us: int, region: int = 0,
               candidates: int = 0) -> None:
        """Buffer a generated task; its id is its submit index, its uplink starts at created_us."""
        self._buffer.extend((kind, owner, created_us, region, candidates))

    def buffered(self) -> int:  # tasks submitted since the last resolve
        return len(self._buffer) // _SUBMITTED

    def resolve(self, cutoff_us: int) -> None:
        """Serve the tasks that arrive by cutoff_us; emit those that finish by it.

        Every task that arrives at its server by cutoff_us must have been
        submitted. A server's future depends on its past only through
        busy_until, so calls with increasing cutoffs compose exactly.
        """
        buffer, self._buffer = self._buffer, []
        submitted = np.frombuffer(struct.pack(f"{len(buffer)}q", *buffer),
                                  dtype=np.int64).reshape(-1, _SUBMITTED)
        for pipeline in (self, *self.peers):
            pipeline._take(submitted)
            pipeline._serve(cutoff_us)
            pipeline._emit_due(cutoff_us)

    def _take(self, submitted: np.ndarray) -> None:
        kind = submitted[:, _KIND]
        first = self.tasks_generated
        self.tasks_generated += len(submitted)
        for k, n in enumerate(np.bincount(kind, minlength=len(TaskKind)).tolist()):
            self.generated[k] += n
        # Place the new tasks straight into their rows of the held block: no copy of them.
        held = len(self._held)
        rows = np.empty((held + len(submitted), _PLACED), dtype=np.int64)
        rows[:held] = self._held
        placed = rows[held:]
        placed[:, :_TID] = submitted[:, :_TID]
        placed[:, _TID] = np.arange(first, self.tasks_generated)
        placed[:, _SERVER], placed[:, _UP], placed[:, _SERVICE], placed[:, _DOWN] = \
            self.placement.apply(kind, submitted[:, _OWNER], submitted[:, _REGION],
                                 submitted[:, _CANDIDATES])
        self._held = rows

    def _serve(self, cutoff_us: int) -> None:
        # Work on index arrays and columns: each copy of whole rows adds to peak memory.
        # Whole rows move by compress and take, which copy them faster than masks and
        # fancy indexing do.
        rows = self._held
        arrival = rows[:, _CREATED] + rows[:, _UP]
        ready = arrival <= cutoff_us
        self._held = rows.compress(~ready, axis=0)
        take = np.flatnonzero(ready)
        if not take.size:
            return
        arrival = arrival[take]
        server = rows[take, _SERVER]
        # Rows are in task-id order, so the stable sort breaks (server, arrival) ties by id.
        order = np.lexsort((arrival, server))
        take, arrival, server = take[order], arrival[order], server[order]
        try:
            done = infra.fifo_completions(server, arrival, rows[take, _SERVICE], self.busy_until)
        except OverflowError as exc:
            raise ConfigError(
                "config keys 'workload.profiles.*.length_mi' and 'topology.*_mips': service "
                f"times queue past the int64 microsecond range ({exc})") from exc
        finish = done + rows[take, _DOWN]
        order = np.argsort(finish, kind="stable")
        served = rows.take(take[order], axis=0)
        served[:, _DONE] = done[order]
        served[:, _FINISH] = finish[order]
        self._served.append(served)

    def _emit_due(self, cutoff_us: int) -> None:
        """Emit the prefix of each run that finishes by the cutoff; keep the rest."""
        due, kept = [], []
        for run in self._served:
            if run[0, _FINISH] > cutoff_us:
                kept.append(run)
                continue
            n = np.searchsorted(run[:, _FINISH], cutoff_us, "right")
            due.append(run[:n])
            if n < len(run):
                kept.append(run[n:])
        self._served = kept
        if due:
            self._emit(np.concatenate(due))

    def _emit(self, rows: np.ndarray) -> None:
        """Count emitted tasks into the statistics; records and validations go in finish order."""
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
        validated = rows.compress(kind == TaskKind.TRANSACTION_VALIDATION, axis=0)
        for finish, task_id in _in_finish_order(validated)[:, [_FINISH, _TID]].tolist():
            self.on_validated(finish, task_id)

    def _record(self, rows: np.ndarray) -> None:
        sink = self.record_sink
        policy = self.placement.policy.value
        node_ids = self.placement.node_ids
        # A sink may keep every record. Owners, transfer and service times
        # take few distinct values, so records share one int object per value.
        share = self._shared.setdefault
        wait = rows[:, _DONE] - rows[:, _SERVICE] - rows[:, _CREATED] - rows[:, _UP]
        total = rows[:, _FINISH] - rows[:, _CREATED]
        for (kind, owner, created, tid, server, up, service, down), w, t in zip(
                rows[:, :_DONE].tolist(), wait.tolist(), total.tolist()):
            sink(LatencyRecord(tid, kind, share(owner, owner), policy, node_ids[server],
                               created, share(up, up), w, share(service, service),
                               share(down, down), t))

    def in_flight(self) -> int:
        return self.tasks_generated - self.records_emitted

    def unfinished(self) -> int:
        """Independent in-flight count: tasks taken in, held or served, but not emitted."""
        return len(self._held) + sum(map(len, self._served))


def _in_finish_order(rows: np.ndarray) -> np.ndarray:
    """Rows sorted by (finish, completion, arrival, task id): the order in
    which a per-task event loop would see the tasks finish."""
    arrival = rows[:, _CREATED] + rows[:, _UP]
    return rows.take(np.lexsort((rows[:, _TID], arrival, rows[:, _DONE], rows[:, _FINISH])),
                     axis=0)


class ScenarioRunner:
    """One simulation run: builds world, topology and workload, then executes.

    policy may be a tuple of policies. The run then generates the workload
    once and resolves it under each, with a TaskPipeline and a Chain per
    policy, so that every policy sees the same avatars, messages and
    transactions. pipeline and chain are those of the first policy. A record
    sink gets each pass's records policy by policy, each in finish order.
    The runner holds every transaction of the run by the id of its
    validation task; a pipeline hands back (finish, task id) per validated
    task, and that transaction goes to the policy's chain.
    """

    def __init__(self, cfg: dict, policy: Policy | tuple[Policy, ...], seed: int,
                 record_sink: Callable | None = None):
        self.cfg = cfg
        self.policies = policy if isinstance(policy, tuple) else (policy,)
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
            for name in (STREAM_MOVEMENT, STREAM_MESSAGING, STREAM_TRANSACTIONS)
        }

        self.grid = WorldGrid(world_cfg["width"], world_cfg["height"],
                              world_cfg["regions_x"], world_cfg["regions_y"],
                              world_cfg["cell"])
        self.world = World(self.grid, self.n_users, world_cfg["avatar_speed"],
                           self.streams[STREAM_MOVEMENT], self.radius)

        grid = self.grid
        self.topo = topo = infra.build_user_topology(
            [avatar.region for avatar in self.world.avatars], grid.regions_x, grid.regions_y,
            cfg["topology"])

        self.engine = Engine()
        self.pipelines: dict[Policy, TaskPipeline] = {}
        self.chains: dict[Policy, Chain] = {}
        for pol in self.policies:
            chain = self.chains[pol] = Chain()
            self.pipelines[pol] = TaskPipeline(Placement(pol, topo, wl["profiles"]),
                                               partial(self._tx_validated, chain),
                                               self.warmup_us, record_sink)
        self.pipeline, *peers = self.pipelines.values()
        self.pipeline.peers = peers
        self.chain = self.chains[self.policies[0]]

        self.batch_size = cfg["ledger"]["batch_size"]
        self.tx_amount_max = cfg["ledger"]["tx_amount_max"]
        self.messages_sent = 0
        self.messages_skipped = 0
        self.tx_submitted = 0
        self._txs: dict[int, Transaction] = {}  # by the task id of its validation
        self._universe_period_us = ms_to_us(wl["profiles"]["universe_simulation"]["period_ms"])
        self._msg_rate_per_ms = wl["message_rate_per_user_per_s"] / 1000.0
        self._tx_rate_per_ms = wl["tx_rate_per_user_per_s"] / 1000.0

        self._register_handlers()
        self._prime_events()

    @property
    def home_fog_of_user(self) -> list[str]:
        """Each user's home fog id, the parent of its device; only the benchmark reads it."""
        return [self.topo.node_ids[fog] for fog in self.topo.parent.take(self.topo.device)]

    # -- setup ------------------------------------------------------------

    def _register_handlers(self) -> None:
        eng = self.engine
        eng.on(EV_MOVEMENT_TICK, self._on_movement_tick)
        eng.on(EV_MESSAGE_SEND, self._on_message_send)
        eng.on(EV_TX_SUBMIT, self._on_tx_submit)
        eng.on(EV_TASK_ARRIVAL, self._on_task_arrival)

    def _prime_events(self) -> None:
        n = self.n_users
        tick = self.tick_us
        # stagger tick phases across users so arrivals are not lockstep bursts
        self._tick_offsets = [(u * tick) // n + tick for u in range(n)]
        self.engine.lane(EV_MOVEMENT_TICK, self._tick_offsets, tick)
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

    def _on_movement_tick(self, lo: int, hi: int) -> None:
        """Lane firings lo..hi-1: firing r * n + u is user u's tick in round r.

        A round is computed once, when its first tick (user 0's) comes due;
        the world applies each run of its ticks, and each tick submits its
        navigation task and its collision task, sized by the candidate count.
        """
        world = self.world
        submit = self.pipeline.submit
        offsets = self._tick_offsets
        n = self.n_users
        r, u = divmod(lo, n)
        while lo < hi:
            if u == 0:
                world.next_round(self.dt_s)
            base = r * self.tick_us
            end = min(n, u + hi - lo)
            for user, candidates in enumerate(world.tick(u, end), u):
                now = base + offsets[user]
                submit(0, user, now)
                submit(1, user, now, 0, candidates)
            lo += end - u
            r += 1
            u = 0

    def _on_message_send(self, now: int, user: int) -> None:
        stream = self.streams[STREAM_MESSAGING]
        neighbors = self.world.nearby_users(user, self.radius)
        if neighbors:
            stream.randrange(len(neighbors))  # pick the recipient
            self.messages_sent += 1
            self._submit_region_task(TaskKind.SOCIAL_INTERACTION, user, now)
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
        # each transaction buys a fresh asset, numbered like the transaction
        tx = Transaction(self.tx_submitted, user, seller, self.tx_submitted, amount, now)
        self.tx_submitted += 1
        pipeline = self.pipeline
        self._txs[pipeline.tasks_generated + pipeline.buffered()] = tx  # the id submit gives it
        self._submit_region_task(TaskKind.TRANSACTION_VALIDATION, user, now)
        self.engine.schedule(now + stream.exponential_us(self._tx_rate_per_ms),
                             EV_TX_SUBMIT, user)

    def _submit_region_task(self, kind: TaskKind, user: int, now: int) -> None:
        self.pipeline.submit(kind, user, now, self.world.avatars[user].region)

    def _on_task_arrival(self, now: int, payload) -> None:
        # periodic universe-simulation task, originating at the cloud itself
        self.pipeline.submit(TaskKind.UNIVERSE_SIMULATION, SYSTEM_OWNER, now)
        self.engine.schedule(now + self._universe_period_us, EV_TASK_ARRIVAL, None)

    def _tx_validated(self, chain: Chain, now: int, task_id: int) -> None:
        """Validate the transaction whose task finishes at `now`; a full batch forms a block."""
        chain.add_validated(self._txs[task_id])
        chain.form_block(self.batch_size, now)

    # -- execution ----------------------------------------------------------

    def run(self) -> None:
        """Generate a second at a time; resolve once RESOLVE_ROWS tasks wait, and at the end."""
        engine = self.engine
        pipeline = self.pipeline
        for cutoff in range(US_PER_S - 1, self.horizon_us, US_PER_S):
            engine.run_until(cutoff)
            if pipeline.buffered() >= RESOLVE_ROWS:
                pipeline.resolve(cutoff)
        engine.run_until(self.horizon_us)
        pipeline.resolve(self.horizon_us)
        for chain in self.chains.values():
            chain.flush(self.horizon_us)

    def collect(self, scenario_id: str, param: str, value, replication: int,
                policy: Policy | None = None) -> ScenarioResult:
        """The result under one policy; by default the first."""
        policy = self.policies[0] if policy is None else policy
        pipeline = self.pipelines[policy]
        chain = self.chains[policy]
        unfinished = pipeline.unfinished()
        in_flight = pipeline.in_flight()
        if unfinished != in_flight:
            raise AssertionError(
                f"conservation violated: {in_flight} tasks unaccounted but "
                f"{unfinished} tasks buffered or queued"
            )
        per_kind = [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
                    for parts in pipeline.totals]
        overall = np.concatenate(per_kind)
        for totals in (*per_kind, overall):
            totals.sort()  # each is a fresh join; np.sort would copy it once more
        stats: dict[str, KindStats] = {"overall": _kind_stats(overall)}
        for label, totals in zip(KIND_LABELS, per_kind):
            stats[label] = _kind_stats(totals)
        extras = {
            "tasks_generated": pipeline.tasks_generated,
            "records_emitted": pipeline.records_emitted,
            "in_flight_at_horizon": in_flight,
            "generated_by_kind": dict(zip(KIND_LABELS, pipeline.generated)),
            "completed_by_kind": dict(zip(KIND_LABELS, pipeline.completed)),
            "messages_sent": self.messages_sent,
            "messages_skipped_no_neighbor": self.messages_skipped,
            "tx_submitted": self.tx_submitted,
            "blocks_formed": len(chain.blocks),
            "chain_tx_count": sum(len(b.txs) for b in chain.blocks),
            "chain_valid": chain.verify(),
            "events_dispatched": self.engine.dispatched_count,
            "horizon_ms": self.cfg["experiment"]["horizon_ms"],
            "warmup_ms": self.cfg["experiment"]["warmup_ms"],
            "user_count": self.n_users,
        }
        return ScenarioResult(
            scenario_id=scenario_id,
            policy=policy.value,
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
                 record_sink: Callable | None = None) -> ScenarioResult:
    """Run one scenario and aggregate its latency records.

    config may be a partial override dict (merged into the defaults) or None
    for the defaults themselves. The record_sink, when given, receives every
    LatencyRecord as it is emitted. The result's id is run/<policy>/seed<seed>,
    with param 'none', the user count as value and replication 0, and it
    carries the ledger export as chain. A seed that is not an integer >= 0 is
    a ConfigError, as results.csv holds no other.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed = {seed!r}: must be an integer >= 0")
    cfg = resolve_config(config)
    pol = Policy.parse(policy) if isinstance(policy, str) else policy
    runner = ScenarioRunner(cfg, pol, seed, record_sink)
    runner.run()
    result = runner.collect(f"run/{pol.value}/seed{seed}", "none", cfg["workload"]["user_count"], 0)
    result.chain = runner.chain.export_lines()
    return result


def value_label(value) -> str:
    """A swept value as scenario ids and outputs print it: integral floats without '.0'."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


SWEEP_PARAMS = ("user_count", "tx_rate")


def _scenario_config(cfg: dict, param: str, value) -> dict:
    """A swept value's resolved config; a ConfigError names the value's first scenario."""
    workload = dict(cfg["workload"])
    if param == "user_count":
        workload["user_count"] = value
    else:  # the aggregate transaction rate per second, spread over the fixed users
        workload["tx_rate_per_user_per_s"] = value / workload["user_count"]
    try:
        return resolve_config({**cfg, "workload": workload})
    except ConfigError as exc:
        raise _named(exc, param, value, 0, cfg["experiment"]["base_seed"]) from exc


def _named(exc: Exception, param: str, value, replication: int, seed: int) -> Exception:
    """exc, named by its sweep scenario; a ConfigError stays a ConfigError."""
    where = f"sweep scenario {param}={value_label(value)} rep{replication} (seed {seed})"
    if isinstance(exc, ConfigError):
        return type(exc)(f"{where}: {exc}")
    return ScenarioError(f"{where} failed: {type(exc).__name__}: {exc}")


def _sweep_worker(job: tuple) -> list[ScenarioResult]:
    """One (value, replication) of a sweep, on its resolved config, under both policies."""
    scenario_cfg, seed, param, value, replication = job
    try:
        runner = ScenarioRunner(scenario_cfg, (Policy.CLOUD_ONLY, Policy.FOG_EDGE), seed)
        runner.run()
        return [runner.collect(f"{param}={value_label(value)}/{pol.value}/rep{replication}",
                               param, value, replication, pol) for pol in runner.policies]
    except Exception as exc:  # a ConfigError here is _serve's FIFO overflow, raised mid-run
        raise _named(exc, param, value, replication, seed) from exc


def sweep(config: dict | None, param: str, values: list | None = None,
          replications: int | None = None, *, parallel: bool = False,
          max_workers: int | None = None) -> list[ScenarioResult]:
    """Run both policies over every swept value, replications times each.

    Each (value, replication) is generated once and resolved under both
    policies. Scenario seeds are base_seed + replication index. Results are
    ordered by (value, policy, replication) no matter how execution was
    scheduled, and a parallel run returns exactly what a serial run returns.
    A scenario that fails raises an error naming its value, replication and
    seed; a ConfigError stays a ConfigError. An empty value list,
    replications that are not an integer >= 1, a value given twice, a
    tx_rate that is not > 0 and a value whose config does not resolve are
    refused before any scenario runs: each value's config is resolved once.
    """
    cfg = resolve_config(config)
    exp = cfg["experiment"]
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r} (expected one of {SWEEP_PARAMS})")
    if values is None:
        values = exp["user_count_sweep"] if param == "user_count" else exp["tx_rate_sweep"]
    if replications is None:
        replications = exp["replications"]
    if isinstance(replications, bool) or not isinstance(replications, int) or replications < 1:
        raise ConfigError(f"sweep replications = {replications!r}: must be integer >= 1")
    if not values:
        raise ConfigError("sweep values: none given")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"sweep values: {value_label(value)} is given more than once")
        if param == "tx_rate" and not value > 0:
            raise ConfigError(f"sweep values: tx_rate {value_label(value)} is not > 0")

    configs = [_scenario_config(cfg, param, value) for value in values]
    jobs = [(scenario_cfg, exp["base_seed"] + rep, param, value, rep)
            for value, scenario_cfg in zip(values, configs) for rep in range(replications)]
    if parallel:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep loads it
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            per_job = list(pool.map(_sweep_worker, jobs))
    else:
        per_job = [_sweep_worker(job) for job in jobs]
    results = [result for pair in per_job for result in pair]
    results.sort(key=lambda r: (r.value, r.policy, r.replication))
    return results
