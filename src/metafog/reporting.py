"""Result emission: results.csv, per-figure plot data, run metadata, reports.

Everything written here is a pure function of the results, so re-running the
same sweep with the same seed reproduces every output file byte for byte.
Times are stored internally as integer microseconds and rendered as
milliseconds with three decimals, which is exact in both directions.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ConfigError
from .harness import KindStats, ScenarioResult
from .stats import latency_reduction
from .workload import KIND_LABEL_LIST

CSV_HEADER = "scenario,policy,param,value,replication,kind,count,mean_ms,p50_ms,p95_ms,p99_ms,seed,config_digest"

_KIND_ROWS = ["overall"] + KIND_LABEL_LIST


def _us_to_ms_str(us: int | None) -> str:
    if us is None:
        return ""
    return f"{us // 1000}.{us % 1000:03d}"


def _ms_str_to_us(text: str) -> int | None:
    if text == "":
        return None
    whole, _, frac = text.partition(".")
    return int(whole) * 1000 + int((frac + "000")[:3])


def _value_str(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def write_results_csv(results: list[ScenarioResult], path: str | Path) -> None:
    """One row per (scenario, kind), kinds with no records included with empty stats."""
    lines = [CSV_HEADER]
    for r in results:
        for kind in _KIND_ROWS:
            s = r.stats.get(kind, KindStats(0, None, None, None, None))
            lines.append(",".join((
                r.scenario_id, r.policy, r.param, _value_str(r.value),
                str(r.replication), kind, str(s.count),
                _us_to_ms_str(s.mean_us), _us_to_ms_str(s.p50_us),
                _us_to_ms_str(s.p95_us), _us_to_ms_str(s.p99_us),
                str(r.seed), r.config_digest,
            )))
    Path(path).write_text("\n".join(lines) + "\n")


def parse_results_csv(path: str | Path) -> list[ScenarioResult]:
    """Reconstruct ScenarioResults (the CSV-carried fields) from results.csv."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        by_scenario: dict[str, ScenarioResult] = {}
        for row in reader:
            key = row["scenario"]
            result = by_scenario.get(key)
            if result is None:
                value = row["value"]
                result = ScenarioResult(
                    scenario_id=key,
                    policy=row["policy"],
                    param=row["param"],
                    value=int(value) if value.lstrip("-").isdigit() else float(value),
                    replication=int(row["replication"]),
                    seed=int(row["seed"]),
                    config_digest=row["config_digest"],
                    stats={},
                )
                by_scenario[key] = result
            result.stats[row["kind"]] = KindStats(
                int(row["count"]),
                _ms_str_to_us(row["mean_ms"]),
                _ms_str_to_us(row["p50_ms"]),
                _ms_str_to_us(row["p95_ms"]),
                _ms_str_to_us(row["p99_ms"]),
            )
    return list(by_scenario.values())


# The figure analogues: latency vs user count uses the overall mean, latency
# vs transaction rate uses the transaction-validation kind (that is the
# transaction latency the sweep varies).
_FIG_METRIC = {"user_count": "overall", "tx_rate": "transaction_validation"}
_FIG_FILE = {"user_count": "fig_latency_vs_users.dat",
             "tx_rate": "fig_latency_vs_tx_rate.dat"}


def plot_series(results: list[ScenarioResult], param: str) -> list[tuple]:
    """(value, cloudonly mean_ms, fogedge mean_ms) per swept value, averaged over reps."""
    metric = _FIG_METRIC.get(param)
    if metric is None:
        raise ConfigError(f"no figure is defined for parameter {param!r}")
    acc: dict[tuple, dict[str, list[int]]] = {}
    for r in results:
        stats = r.stats.get(metric)
        if stats is None or stats.mean_us is None:
            continue
        acc.setdefault((r.value,), {}).setdefault(r.policy, []).append(stats.mean_us)
    rows = []
    for (value,), per_policy in sorted(acc.items()):
        cloud = per_policy.get("cloudonly", [])
        fog = per_policy.get("fogedge", [])
        rows.append((
            value,
            sum(cloud) / len(cloud) / 1000 if cloud else float("nan"),
            sum(fog) / len(fog) / 1000 if fog else float("nan"),
        ))
    return rows


def write_plot_data(results: list[ScenarioResult], param: str, path: str | Path) -> None:
    rows = plot_series(results, param)
    lines = [f"# {param} cloudonly_mean_ms fogedge_mean_ms"]
    for value, cloud_ms, fog_ms in rows:
        lines.append(f"{_value_str(value)} {cloud_ms:.3f} {fog_ms:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


# Extras that count the simulator's own events rather than model outcomes;
# they stay on ScenarioResult.extras but are not part of the run's outputs.
_RUN_COUNTERS = ("events_scheduled", "events_dispatched")


def write_metadata(cfg: dict, results: list[ScenarioResult], path: str | Path,
                   notes: dict | None = None) -> None:
    """Full resolved config plus per-scenario reconciliation counters."""
    payload = {
        "config": cfg,
        "notes": {
            "time_unit": "integer microseconds internally; csv and plot files in ms",
            "tx_rate_sweep_interpretation":
                "swept value is the aggregate transaction arrival rate per second, "
                "divided evenly across the fixed user population",
            **(notes or {}),
        },
        "scenarios": [
            {
                "scenario": r.scenario_id,
                "policy": r.policy,
                "param": r.param,
                "value": r.value,
                "replication": r.replication,
                "seed": r.seed,
                "config_digest": r.config_digest,
                **{k: v for k, v in r.extras.items() if k not in _RUN_COUNTERS},
            }
            for r in results
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit(results: list[ScenarioResult], out_dir: str | Path, cfg: dict,
         param: str | None = None, chain_lines: list[str] | None = None) -> list[Path]:
    """Write the output tree for a run or sweep; returns the files written."""
    if not results:
        raise ConfigError("emit called with no results")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = [out / "results.csv"]
        write_results_csv(results, written[0])
        if param in _FIG_FILE:
            plot_path = out / _FIG_FILE[param]
            write_plot_data(results, param, plot_path)
            written.append(plot_path)
        meta_path = out / "run_metadata.json"
        write_metadata(cfg, results, meta_path)
        written.append(meta_path)
        if chain_lines is not None:
            chain_path = out / "chain.txt"
            chain_path.write_text("\n".join(chain_lines) + ("\n" if chain_lines else ""))
            written.append(chain_path)
        return written
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out}: {exc}") from exc


def reduction_table(results: list[ScenarioResult]) -> str:
    """Cloud-vs-fogedge mean latency and reduction per swept value."""
    by_value: dict = {}
    for r in results:
        stats = r.stats.get("overall")
        if stats is None or stats.mean_us is None:
            continue
        by_value.setdefault(r.value, {}).setdefault(r.policy, []).append(stats.mean_us)
    lines = [f"{'value':>10}  {'cloud_ms':>14}  {'fogedge_ms':>14}  {'reduction':>10}"]
    for value in sorted(by_value):
        per_policy = by_value[value]
        cloud = per_policy.get("cloudonly")
        fog = per_policy.get("fogedge")
        if not cloud or not fog:
            continue
        cloud_ms = sum(cloud) / len(cloud) / 1000
        fog_ms = sum(fog) / len(fog) / 1000
        red = latency_reduction(cloud_ms, fog_ms)
        lines.append(f"{_value_str(value):>10}  {cloud_ms:>14.3f}  {fog_ms:>14.3f}  {red:>9.1%}")
    return "\n".join(lines)
