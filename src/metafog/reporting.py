"""Result emission: results.csv, per-figure plot data, run metadata, reports.

Everything written here is a pure function of the results, so re-running the
same sweep with the same seed reproduces every output file byte for byte.
Times are stored internally as integer microseconds and rendered as
milliseconds with three decimals, which is exact in both directions.
"""

from __future__ import annotations

import csv
import json
import re
from functools import partial
from pathlib import Path

from .errors import ConfigError
from .harness import KindStats, ScenarioResult, value_label
from .stats import latency_reduction
from .workload import KIND_LABELS

CSV_HEADER = "scenario,policy,param,value,replication,kind,count,mean_ms,p50_ms,p95_ms,p99_ms,seed,config_digest"

_KIND_ROWS = ("overall", *KIND_LABELS)


def _us_to_ms_str(us: int | None) -> str:
    if us is None:
        return ""
    whole, frac = divmod(abs(us), 1000)
    return f"{'-' if us < 0 else ''}{whole}.{frac:03d}"


_MS = re.compile(r"-?[0-9]+\.[0-9]{3}")  # as _us_to_ms_str writes them


def _ms_str_to_us(text: str) -> int | None:
    """Exact inverse of _us_to_ms_str; any other text is a ValueError."""
    if text == "":
        return None
    if _MS.fullmatch(text) is None:
        raise ValueError(f"not milliseconds with three decimals: {text!r}")
    return int(text.replace(".", ""))


def _whole(text: str) -> int:
    """A results.csv count, replication or seed: an integer >= 0 in digits only, as written."""
    if not (text.isascii() and text.isdigit()):
        raise ConfigError(f"{text!r} is not an integer >= 0")
    return int(text)


def _latency_us(count: int, text: str) -> int | None:
    """A results.csv latency of count tasks: empty if none, else > 0 ms (each takes >= 1 us)."""
    us = _ms_str_to_us(text)
    if (us is None) != (count == 0):
        raise ConfigError(f"{text!r} disagrees with count {count}")
    if us is not None and us <= 0:
        raise ConfigError(f"{text!r} is not a latency > 0")
    return us


def write_results_csv(results: list[ScenarioResult], path: str | Path) -> None:
    """One row per (scenario, kind), kinds with no records included with empty stats."""
    lines = [CSV_HEADER]
    for r in results:
        for kind in _KIND_ROWS:
            s = r.stats.get(kind, KindStats(0, None, None, None, None))
            lines.append(",".join((
                r.scenario_id, r.policy, r.param, value_label(r.value),
                str(r.replication), kind, str(s.count),
                _us_to_ms_str(s.mean_us), _us_to_ms_str(s.p50_us),
                _us_to_ms_str(s.p95_us), _us_to_ms_str(s.p99_us),
                str(r.seed), r.config_digest,
            )))
    Path(path).write_text("\n".join(lines) + "\n")


def _value(text: str) -> int | float:
    """A results.csv swept value: a finite number > 0, an int if written in digits only."""
    value = int(text) if text.isascii() and text.isdigit() else float(text)
    if not 0 < value < float("inf"):
        raise ConfigError(f"{text!r} is not a finite number > 0")
    return value


# The columns a scenario's rows share, and how each is read.
_SCENARIO_COLUMNS = {"policy": str, "param": str, "value": _value, "replication": _whole,
                     "seed": _whole, "config_digest": str}


def _field(path, line: int, row: dict, column: str, parse=str):
    """One field of a results.csv row, parsed; a ConfigError names what is wrong with it."""
    text = row[column]  # None when the row is short
    if text is None:
        problem = "no value"
    else:
        try:
            return parse(text)
        except ValueError as exc:
            problem = str(exc) if isinstance(exc, ConfigError) else f"cannot read {text!r}"
    raise ConfigError(f"{path}: row {line}, column {column!r}: {problem}")


def parse_results_csv(path: str | Path) -> list[ScenarioResult]:
    """Reconstruct ScenarioResults (the CSV-carried fields) from results.csv.

    A missing column, or a field that is missing or does not parse, is a
    ConfigError that names the file, the row (the header is row 1) and the
    column; so is a count, replication or seed that is not an integer >= 0,
    a value that is not a finite number > 0, a latency <= 0 or one its count
    disagrees with, a kind given twice for a scenario, and a scenario column
    that differs from the scenario's first row.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            columns = reader.fieldnames or ()
            rows = [(reader.line_num, row) for row in reader]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not CSV text ({exc})") from None
    missing = [c for c in CSV_HEADER.split(",") if c not in columns]
    if missing:
        raise ConfigError(f"{path}: row 1: no column {missing[0]!r}")
    by_scenario: dict[str, ScenarioResult] = {}
    for line, row in rows:
        field = partial(_field, path, line, row)
        key = field("scenario")
        given = {column: field(column, parse) for column, parse in _SCENARIO_COLUMNS.items()}
        kind = field("kind")
        count = field("count", _whole)
        stats = KindStats(count, *(field(f"{stat}_ms", partial(_latency_us, count))
                                   for stat in ("mean", "p50", "p95", "p99")))
        result = by_scenario.setdefault(key, ScenarioResult(key, **given, stats={}))
        for column, value in given.items():
            if value != getattr(result, column):
                raise ConfigError(f"{path}: row {line}, column {column!r}: {row[column]!r} "
                                  "differs from the scenario's first row")
        if kind in result.stats:
            raise ConfigError(f"{path}: row {line}, column 'kind': {kind!r} given twice")
        result.stats[kind] = stats
    return list(by_scenario.values())


# The figure analogues: latency vs user count uses the overall mean, latency
# vs transaction rate uses the transaction-validation kind (that is the
# transaction latency the sweep varies).
_FIG_METRIC = {"user_count": "overall", "tx_rate": "transaction_validation"}
_FIG_FILE = {"user_count": "fig_latency_vs_users.dat",
             "tx_rate": "fig_latency_vs_tx_rate.dat"}


def _mean_ms_by_value(results: list[ScenarioResult], metric: str) -> dict:
    """{value: {policy: mean_ms}}, in value order: the metric's mean latency per
    (value, policy), averaged over replications; results without it are left out."""
    acc: dict = {}
    for r in results:
        stats = r.stats.get(metric)
        if stats is None or stats.mean_us is None:
            continue
        acc.setdefault(r.value, {}).setdefault(r.policy, []).append(stats.mean_us)
    return {value: {policy: sum(means) / len(means) / 1000 for policy, means in acc[value].items()}
            for value in sorted(acc)}


def plot_series(results: list[ScenarioResult], param: str) -> list[tuple]:
    """(value, cloudonly mean_ms, fogedge mean_ms) per swept value, averaged over reps."""
    metric = _FIG_METRIC.get(param)
    if metric is None:
        raise ConfigError(f"no figure is defined for parameter {param!r}")
    return [(value, means.get("cloudonly", float("nan")), means.get("fogedge", float("nan")))
            for value, means in _mean_ms_by_value(results, metric).items()]


def write_plot_data(results: list[ScenarioResult], param: str, path: str | Path) -> None:
    rows = plot_series(results, param)
    lines = [f"# {param} cloudonly_mean_ms fogedge_mean_ms"]
    for value, cloud_ms, fog_ms in rows:
        lines.append(f"{value_label(value)} {cloud_ms:.3f} {fog_ms:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_metadata(cfg: dict, results: list[ScenarioResult], path: str | Path) -> None:
    """Full resolved config plus per-scenario reconciliation counters."""
    payload = {
        "config": cfg,
        "notes": {
            "time_unit": "integer microseconds internally; csv and plot files in ms",
            "tx_rate_sweep_interpretation":
                "swept value is the aggregate transaction arrival rate per second, "
                "divided evenly across the fixed user population",
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
                # counts the simulator's own events, not model outcomes: not an output
                **{k: v for k, v in r.extras.items() if k != "events_dispatched"},
            }
            for r in results
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit(results: list[ScenarioResult], out_dir: str | Path, cfg: dict,
         param: str | None = None) -> list[Path]:
    """Write the output tree for a run or sweep, and chain.txt for a single
    result that carries a chain; returns the files written."""
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
        chain = results[0].chain
        if len(results) == 1 and chain is not None:
            chain_path = out / "chain.txt"
            chain_path.write_text("\n".join(chain) + ("\n" if chain else ""))
            written.append(chain_path)
        return written
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out}: {exc}") from exc


def reduction_table(results: list[ScenarioResult]) -> str:
    """Cloud-vs-fogedge mean latency and reduction per swept value with both policies."""
    lines = [f"{'value':>10}  {'cloud_ms':>14}  {'fogedge_ms':>14}  {'reduction':>10}"]
    for value, means in _mean_ms_by_value(results, "overall").items():
        if "cloudonly" not in means or "fogedge" not in means:
            continue
        cloud_ms, fog_ms = means["cloudonly"], means["fogedge"]
        red = latency_reduction(cloud_ms, fog_ms)
        lines.append(f"{value_label(value):>10}  {cloud_ms:>14.3f}  {fog_ms:>14.3f}  {red:>9.1%}")
    if len(lines) == 1:
        raise ConfigError("results hold no value with both cloudonly and fogedge rows")
    return "\n".join(lines)
