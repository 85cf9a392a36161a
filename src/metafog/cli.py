"""Command-line front end: run one scenario, sweep a parameter, report reductions."""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError
from .harness import run_scenario, sweep
from .reporting import emit, parse_results_csv, reduction_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metafog",
        description="Discrete-event simulator comparing a hybrid fog-edge "
                    "metaverse architecture against a cloud-only baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument("--config", required=True, help="path to a JSON config file")
    run_p.add_argument("--policy", required=True, choices=["cloud", "fogedge"])
    run_p.add_argument("--seed", required=True, type=int)
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="sweep a parameter under both policies")
    sweep_p.add_argument("--config", required=True, help="path to a JSON config file")
    sweep_p.add_argument("--param", required=True, choices=["user_count", "tx_rate"])
    sweep_p.add_argument("--values", help="comma-separated values (default: from config)")
    sweep_p.add_argument("--reps", type=int, help="replications (default: from config)")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--parallel", action="store_true",
                         help="run scenarios in parallel processes")

    report_p = sub.add_parser("report", help="print the latency-reduction table")
    report_p.add_argument("--in", dest="in_dir", required=True,
                          help="directory containing results.csv")
    return parser


def _parse_values(text: str, param: str) -> list:
    parse, expected = (int, "an integer") if param == "user_count" else (float, "a number")
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(parse(part))
        except ValueError:
            raise ConfigError(f"--values: {part!r} is not {expected} "
                              f"(--param {param})") from None
    return values


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_scenario(cfg, args.policy, args.seed)
    files = emit([result], args.out, cfg)
    overall = result.stats["overall"]
    mean = "n/a" if overall.mean_us is None else f"{overall.mean_us / 1000:.3f} ms"
    print(f"{result.scenario_id}: {overall.count} records, mean latency {mean}")
    print(f"wrote {', '.join(str(f) for f in files)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = None if args.values is None else _parse_values(args.values, args.param)
    results = sweep(cfg, args.param, values, args.reps, parallel=args.parallel)
    files = emit(results, args.out, cfg, param=args.param)
    print(f"{len(results)} scenarios -> {', '.join(str(f) for f in files)}")
    return 0


def _cmd_report(args) -> int:
    path = f"{args.in_dir}/results.csv"
    try:
        results = parse_results_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    print(reduction_table(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
