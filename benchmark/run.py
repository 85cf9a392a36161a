#!/usr/bin/env python3
"""Benchmark of metafog: host time per scenario, normalised to host speed.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload cloud-saturated --seed 42 --seconds 25 --trace 0
    python3 benchmark/run.py --quick           # every workload, short, every check

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
run and prints the per-layer metrics instead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. Details
of every run go to ``.bench_out/``. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
QUICK_SECONDS = 2.0


def _import_metafog() -> None:
    """Import metafog from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import metafog
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import metafog from {SRC}: {exc}")
    if not Path(metafog.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: metafog was imported from {metafog.__file__}, not {SRC}")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="cloud-saturated, fogedge-crowd, sweep-users or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed reps of each workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short scenarios and runs, every check")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _import_metafog()
    from session import run_workload  # needs metafog on the path
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.exit(f"benchmark: unknown workload {unknown[0]!r} (expected one of "
                 f"{', '.join(WORKLOADS)} or all)")
    seconds = min(args.seconds, QUICK_SECONDS) if args.quick else args.seconds

    lines = []
    for name in names:
        t0 = time.perf_counter()
        line = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace),
                            args.quick, OUT / name)
        print(f"# {name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        lines.append((name, line))

    if len(lines) == 1:
        final = lines[0][1]
    else:
        for name, line in lines:
            print(f"{name} {json.dumps(line)}")
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{name}/{metric}": value
                        for name, line in lines for metric, value in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
