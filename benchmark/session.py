"""One benchmark run of one workload: timed reps, checks, and the traced run."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from metafog import (
    Policy,
    ScenarioRunner,
    emit,
    reduction_table,
    resolve_config,
    sweep,
)
from spans import Tracer
from workloads import Workload, host_time, measure, sweep_configs


def _check_scenario(cfg: dict, policy: Policy, seed: int):
    """One untimed scenario with a record sink, for the record-level checks."""
    records: list = []
    runner = ScenarioRunner(cfg, policy, seed, record_sink=records.append)
    runner.run()
    result = runner.collect("check", "user_count", cfg["workload"]["user_count"], 0)
    return runner, result, records


class Checks:
    """Runs each check as one operation and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.failures.append(f"{name}: {exc}")
        except Exception as exc:  # a check that cannot be evaluated has failed
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def _record_checks(ck: Checks, cfg: dict, runner, result, records: list, seed: int) -> None:
    ck.run("conservation", checks.check_conservation, result.extras, len(records))
    ck.run("task_counts", checks.check_task_counts, cfg, result.extras)
    ck.run("transfers", checks.check_transfers, cfg, records, runner.home_fog_of_user)
    ck.run("queue_waits", checks.check_queue_waits, cfg, records)
    ck.run("chain", checks.check_chain, runner.chain.blocks, records, cfg["ledger"]["batch_size"])
    ck.run("nearby_users", checks.check_nearby, runner.world,
           cfg["world"]["proximity_radius"], seed)


def _emit_sized(tracer: Tracer, results: list, out: Path, cfg: dict, param: str | None) -> None:
    written = tracer.wrap("reporting.emit", emit)(results, out, cfg, param=param)
    tracer.count("reporting.bytes", sum(p.stat().st_size for p in written))


def _traced_single(workload: Workload, overrides: dict, seed: int,
                   out: Path) -> tuple[Tracer, float]:
    with Tracer() as tracer:
        cfg = tracer.wrap("config.resolve", resolve_config)(overrides)
        runner = ScenarioRunner(cfg, workload.policy, seed)
        t0 = host_time()
        runner.run()
        result = runner.collect(workload.name, "user_count", cfg["workload"]["user_count"], 0)
        run_s = host_time() - t0
        _emit_sized(tracer, [result], out / "traced", cfg, None)
    return tracer, run_s


def _serial_sweep(overrides: dict, values: list[int], cfg: dict, out: Path) -> float:
    t0 = host_time()
    results = sweep(overrides, "user_count", values, replications=1)
    emit(results, out, cfg, param="user_count")
    reduction_table(results)
    return host_time() - t0


def _traced_sweep(overrides: dict, values: list[int], out: Path) -> tuple[Tracer, float]:
    """The sweep runs serially when traced, so every span is in this process."""
    with Tracer() as tracer:
        cfg = tracer.wrap("config.resolve", resolve_config)(overrides)
        t0 = host_time()
        results = sweep(overrides, "user_count", values, replications=1)
        _emit_sized(tracer, results, out / "traced", cfg, "user_count")
        reduction_table(results)
        run_s = host_time() - t0
    return tracer, run_s


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, quick: bool,
                 out: Path) -> dict:
    """Measure one workload, check its outputs, and return the result line."""
    out.mkdir(parents=True, exist_ok=True)
    overrides = workload.config(seed, quick)
    m = measure(workload, seed, seconds, quick, out)
    ck = Checks()
    scenarios = m.scenarios

    # Record-level checks on one scenario: the workload's own, or for the
    # sweep its top user count under cloud-only, whose stats the sweep must match.
    if workload.is_sweep:
        values = workload.values(quick)
        cfg, policy, _ = sweep_configs(resolve_config(overrides), [max(values)])[0]
    else:
        cfg, policy = resolve_config(overrides), workload.policy
    runner, result, records = _check_scenario(cfg, policy, seed)
    scenarios += 1
    _record_checks(ck, cfg, runner, result, records, seed)
    state = checks.simulated_state(cfg, records)
    runner = records = None

    if workload.is_sweep:
        last = m.results[-1]
        scenario_cfgs = {(c["workload"]["user_count"], p.value): c
                         for c, p, _ in sweep_configs(resolve_config(overrides), values)}
        match = [r for r in last if r.value == max(values) and r.policy == policy.value]
        ck.run("fog_halves_cloud", checks.check_fog_halves_cloud, last)
        ck.run("csv_roundtrip", checks.check_csv_roundtrip, last, out / "sweep" / "results.csv")
        ck.run("same_seed", checks.check_same_stats, m.results)
        ck.run("sweep_matches_single", checks.check_same_stats, [match, [result]])
        ck.run("sweep_conservation", lambda: [
            checks.check_conservation(r.extras, r.extras["records_emitted"]) for r in last])
        ck.run("sweep_task_counts", lambda: [
            checks.check_task_counts(scenario_cfgs[(r.value, r.policy)], r.extras) for r in last])
    else:
        emit([result], out / "check", cfg)
        ck.run("csv_roundtrip", checks.check_csv_roundtrip, [result], out / "check" / "results.csv")
        ck.run("same_seed", checks.check_same_stats, [[r] for r in m.results] + [[result]])

    summary = m.summary()
    layers = {}
    if trace:
        if workload.is_sweep:
            untraced = _serial_sweep(overrides, values, resolve_config(overrides), out / "serial")
            tracer, traced = _traced_sweep(overrides, values, out)
            scenarios += 4 * len(values)
            print(f"{workload.name} serial sweep {untraced:.4g} s CPU; parallel sweep "
                  f"{summary['run_s']:.4g} s CPU, {summary['wall_s']:.4g} s wall (medians)")
        else:
            untraced = summary["run_s"]
            tracer, traced = _traced_single(workload, overrides, seed, out)
            scenarios += 1
        layers.update(tracer.layer_metrics())
        layers.update(state)
        layers["trace.overhead"] = (traced / untraced, "x")
        layers["host.run_s"] = (summary["run_s"], "s")
        layers["host.setup_s"] = (summary["raw_setup_s"], "s")
        layers["host.wall_s"] = (summary["wall_s"], "s")
        layers["host.ref_s"] = (summary["ref_s"], "s")
        (out / "spans.json").write_text(json.dumps(tracer.dump(), indent=1))

    metrics = layers if trace else {
        "setup_s": (summary["setup_s"], "s"),
        "run_norm": (summary["run_norm"], "x"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    for failure in ck.failures:
        print(f"CHECK FAILED {workload.name}: {failure}", file=sys.stderr)
    line = {
        "correct": not ck.failures,
        "attempted": scenarios + ck.attempted,
        "failed": len(ck.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "quick": quick,
              "trace": trace, "reps": len(m.run_s), "setup_s": m.setup_s, "run_s": m.run_s,
              "setup_ref_s": m.setup_ref_s, "ref_s": m.ref_s, "wall_s": m.wall_s,
              "summary": summary,
              "failures": ck.failures, **line}
    (out / f"result-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    for k, (v, u) in metrics.items():
        print(f"{workload.name} {k} {v:.6g} {u}")
    print(f"{workload.name} reps {len(m.run_s)}: run {summary['run_s']:.4g} s, set-up "
          f"{summary['raw_setup_s']:.4g} s, reference loop {summary['ref_s']:.4g} s (CPU, medians)")
    return line
