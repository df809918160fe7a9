"""Run the whole benchmark several times and say which metrics agree.

    python3 benchmarks/harness/repeat.py                  # twice, seed 42
    python3 benchmarks/harness/repeat.py --runs 10 --vary-seed

Per (workload, end-to-end metric) it prints every run's value, the spread
and the metric's bound.  The spread is the distance between the first and
third quartile as a share of the median (``statistics.quantiles(n=4)``)
from four runs up, and the largest relative difference below that.  A
metric whose spread exceeds its bound is ``unresolved``: two commits cannot
be told apart on it, which is not the same as "unchanged".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.harness.metrics import END_TO_END, EXACT_COUNTS  # noqa: E402
from benchmarks.harness.run import WORKLOAD_NAMES, run_in_subprocess  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    completed = run_in_subprocess(workload, seed, seconds, trace, quick)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} (seed {seed}) exited with code {completed.returncode}")
    return json.loads(completed.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        return (third - first) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--vary-seed", action="store_true", help="run i uses seed + i")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--traced", action="store_true", help="also compare the exact counts")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.quick else args.seconds

    unresolved = 0
    for workload in args.workload or WORKLOAD_NAMES:
        seeds = [args.seed + (index if args.vary_seed else 0) for index in range(args.runs)]
        results = [run_once(workload, seed, seconds, 0, args.quick) for seed in seeds]
        failed = sum(result["failed"] for result in results)
        incorrect = sum(not result["correct"] for result in results)
        print(f"{workload}: seeds {seeds}, failed ops {failed}, incorrect runs {incorrect}")
        for name, (unit, _better, bound) in END_TO_END.items():
            values = [result["metrics"][name]["value"] for result in results]
            share = spread(values)
            verdict = "ok" if share <= bound else "unresolved"
            unresolved += verdict == "unresolved"
            listed = " ".join(f"{value:.5g}" for value in values)
            print(
                f"  {name:<20}{listed}  [{unit}]  median {statistics.median(values):.5g}"
                f"  spread {share:.2%}  bound {bound:.1%}  {verdict}"
            )
        if args.traced and not args.vary_seed:
            traced = [run_once(workload, seed, seconds, 1, args.quick) for seed in seeds]
            for name in EXACT_COUNTS:
                values = {result["metrics"][name]["value"] for result in traced}
                verdict = "exact" if len(values) == 1 else "DIFFERS"
                unresolved += verdict == "DIFFERS"
                print(f"  {name:<34}{sorted(values)}  {verdict}")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
