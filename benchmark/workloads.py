"""The benchmark's workloads and the timed loop that measures them.

Each workload is a config override plus a policy (or, for the sweep, a list
of user counts). The workload seed is the scenario seed, or the sweep's
``base_seed``; the program sees only the config and the seed.

A repetition ("rep") of a single-scenario workload is: several timed
set-ups (``resolve_config`` plus ``ScenarioRunner``), then one timed
``run()`` plus ``collect()`` on the last runner, bracketed by the host-speed
reference loop. A rep of the sweep is: the set-up of every scenario of the
sweep, timed in this process, then one timed ``sweep`` plus ``emit`` plus
``reduction_table``, bracketed the same way. Reps repeat until the run's
time is spent, and every metric is the median over the reps.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REF_ITERATIONS, REF_NOMINAL_S, time_reference
from metafog import (
    Policy,
    ScenarioRunner,
    emit,
    reduction_table,
    resolve_config,
    sweep,
)

MIN_REPS = 3
SETUPS_PER_REP = 3
SETUP_REF_ITERATIONS = 40_000
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    quick_overrides: dict
    policy: Policy | None = None  # None: the user-count sweep under both policies
    sweep_values: tuple[int, ...] = ()
    quick_sweep_values: tuple[int, ...] = ()

    @property
    def is_sweep(self) -> bool:
        return self.policy is None

    def config(self, seed: int, quick: bool) -> dict:
        """Config overrides for one run; the sweep carries its seed in the config."""
        cfg = json.loads(json.dumps(self.quick_overrides if quick else self.overrides))
        if self.is_sweep:
            cfg.setdefault("experiment", {})["base_seed"] = seed
        return cfg

    def values(self, quick: bool) -> list[int]:
        return list(self.quick_sweep_values if quick else self.sweep_values)


def _experiment(horizon_ms: float, warmup_ms: float) -> dict:
    return {"horizon_ms": horizon_ms, "warmup_ms": warmup_ms}


# A dense crowd: 1000 avatars on a 300x300 world put ~30 others within the
# 30-unit proximity radius of each, so every message pays a full 3x3 cell
# scan. One message per user per second keeps World.nearby_users busy.
# Transactions at 0.1/user/s with two per block keep the ledger forming
# blocks all the time, while the 25 edge servers stay below saturation
# (utilization ~0.45), so the event heap stays small.
_CROWD = {
    "world": {"width": 300.0, "height": 300.0, "regions_x": 5, "regions_y": 5},
    "workload": {"user_count": 1000, "message_rate_per_user_per_s": 1.0,
                 "tx_rate_per_user_per_s": 0.1},
    "ledger": {"batch_size": 2},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cloud-saturated",
            overrides={"workload": {"user_count": 1000},
                       "experiment": _experiment(30_000.0, 7_500.0)},
            quick_overrides={"workload": {"user_count": 1000},
                             "experiment": _experiment(5_000.0, 1_000.0)},
            policy=Policy.CLOUD_ONLY,
        ),
        Workload(
            name="fogedge-crowd",
            overrides={**_CROWD, "experiment": _experiment(10_000.0, 2_000.0)},
            quick_overrides={**_CROWD, "experiment": _experiment(3_000.0, 1_000.0)},
            policy=Policy.FOG_EDGE,
        ),
        Workload(
            name="sweep-users",
            overrides={"experiment": _experiment(20_000.0, 5_000.0)},
            quick_overrides={"experiment": _experiment(4_000.0, 1_000.0)},
            sweep_values=(200, 600, 1000),
            quick_sweep_values=(200, 1000),
        ),
    )
}


def sweep_configs(cfg: dict, values: list[int]) -> list[tuple[dict, Policy, int]]:
    """(resolved config, policy, seed) of every scenario the sweep runs."""
    seed = cfg["experiment"]["base_seed"]
    jobs = []
    for value in values:
        over = json.loads(json.dumps(cfg))
        over["workload"]["user_count"] = value
        for policy in (Policy.CLOUD_ONLY, Policy.FOG_EDGE):
            jobs.append((over, policy, seed))
    return jobs


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set in MB; with children, the largest of this process and its workers."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def host_time(include_children: bool = False) -> float:
    """CPU seconds of this process, plus those of its finished workers if asked.

    CPU time leaves out the time the process waits for a core, which on a
    shared host is noise, and it still counts every worker of the sweep.
    """
    t = time.process_time()
    if include_children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += ru.ru_utime + ru.ru_stime
    return t


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    setup_ref_s: list[float] = field(default_factory=list)  # reference right after each set-up
    run_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # mean of the references around each run
    wall_s: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # the result of every rep, for the checks
    scenarios: int = 0
    peak_rss_mb: float = 0.0

    def summary(self) -> dict[str, float]:
        """Medians over the reps, each phase divided by the reference timed beside it."""
        return {
            "setup_s": REF_NOMINAL_S * statistics.median(
                s / r for s, r in zip(self.setup_s, self.setup_ref_s)),
            "run_norm": statistics.median(s / r for s, r in zip(self.run_s, self.ref_s)),
            "peak_rss_mb": self.peak_rss_mb,
            "run_s": statistics.median(self.run_s),
            "raw_setup_s": statistics.median(self.setup_s),
            "ref_s": statistics.median(self.ref_s),
            "wall_s": statistics.median(self.wall_s),
        }


def measure(workload: Workload, seed: int, seconds: float, quick: bool,
            out_dir: Path) -> Measurement:
    """Repeat the workload's rep until `seconds` have passed, after one untimed warm-up rep."""
    overrides = workload.config(seed, quick)
    rep = _sweep_rep if workload.is_sweep else _single_rep
    warm_up = Measurement()
    rep(warm_up, workload, overrides, seed, quick, out_dir)
    m = Measurement(scenarios=warm_up.scenarios)
    deadline = time.perf_counter() + seconds
    while len(m.run_s) < MIN_REPS or time.perf_counter() < deadline:
        rep(m, workload, overrides, seed, quick, out_dir)
    m.peak_rss_mb = peak_rss_mb(include_children=workload.is_sweep)
    return m


def _time_setup(setup) -> tuple[object, float]:
    gc.collect()
    t0 = host_time()
    product = setup()
    return product, host_time() - t0


def _setup_ref() -> float:
    """A short reference, scaled to the full loop, for the set-up sample just taken.

    Set-up takes ~0.04 s per scenario, and the host's speed can change
    between one set-up and the next, so each sample gets its own reference.
    """
    return time_reference(SETUP_REF_ITERATIONS) * REF_ITERATIONS / SETUP_REF_ITERATIONS


def _time_run(m: Measurement, body, include_children: bool = False) -> object:
    """Time body() bracketed by the reference loop."""
    gc.collect()
    ref_before = time_reference()
    w0 = time.perf_counter()
    t0 = host_time(include_children)
    out = body()
    m.run_s.append(host_time(include_children) - t0)
    m.wall_s.append(time.perf_counter() - w0)
    m.ref_s.append((ref_before + time_reference()) / 2)
    return out


def _single_rep(m: Measurement, workload: Workload, overrides: dict, seed: int,
                quick: bool, out_dir: Path) -> None:
    # Several set-up samples per rep, as one would be noisy; the last runner
    # is the one that runs.
    runner = None
    for _ in range(SETUPS_PER_REP):
        runner = None
        runner, setup_s = _time_setup(
            lambda: ScenarioRunner(resolve_config(overrides), workload.policy, seed))
        m.setup_s.append(setup_s)
        m.setup_ref_s.append(_setup_ref())

    def body():
        runner.run()
        return runner.collect(workload.name, "user_count",
                              overrides["workload"]["user_count"], 0)

    m.scenarios += 1
    m.results.append(_time_run(m, body))


def _sweep_rep(m: Measurement, workload: Workload, overrides: dict, seed: int,
               quick: bool, out_dir: Path) -> None:
    values = workload.values(quick)
    cfg = resolve_config(overrides)
    total = 0.0
    for scenario_cfg, policy, scenario_seed in sweep_configs(cfg, values):
        _, setup_s = _time_setup(
            lambda: ScenarioRunner(resolve_config(scenario_cfg), policy, scenario_seed))
        total += setup_s
    m.setup_s.append(total)
    m.setup_ref_s.append(_setup_ref())
    sweep_dir = out_dir / "sweep"

    def body():
        results = sweep(overrides, "user_count", values, replications=1,
                        parallel=True, max_workers=SWEEP_WORKERS)
        emit(results, sweep_dir, cfg, param="user_count")
        reduction_table(results)
        return results

    m.scenarios += 2 * len(values)
    m.results.append(_time_run(m, body, include_children=True))
