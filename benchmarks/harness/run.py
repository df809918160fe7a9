"""The benchmark's one command.

    python3 benchmarks/harness/run.py                      # all four workloads
    python3 benchmarks/harness/run.py --workload serve_sql --seed 7 --seconds 20 --trace 0
    python -m benchmarks.harness.run --workload adhoc_cold --traced

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it every workload runs in a fresh subprocess of its
own (so ``peak_rss_mb`` is that workload's alone) and a summary follows.
"""

from __future__ import annotations

import argparse
import gc
import os
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

# The modules that need the program under test are imported in run_workload,
# after main() has checked that it is there.
from benchmarks.harness.environment import fingerprint  # noqa: E402
from benchmarks.harness.metrics import END_TO_END, PER_LAYER  # noqa: E402
from benchmarks.harness.stats import class_percentile, median, percentile, samples_beyond  # noqa: E402

#: Cold builds per run; ``setup_s`` is their median.
SETUP_BUILDS = 3
DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 1.0
WORKLOAD_NAMES = ("adhoc_cold", "engines_warm", "serve_sql", "load_mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, ~1 s phases (tests)")
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this seed's input and expected-result digests under golden/",
    )
    args = parser.parse_args(argv)
    args.trace = 1 if args.traced else args.trace
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    return args


def pin_to_one_cpu() -> None:
    """Keep every thread of the run on one hardware thread.

    The speed probe runs in the thread that generates load; it can only
    stand for the service's workers if they share its hardware thread (the
    box's two are disturbed independently).  Called after the workload has
    counted the usable cores, which still decide its workers and clients.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def end_to_end_metrics(workload, tally, completed: int, wall: float, setups: list[float]) -> dict:
    """All times are at reference speed (see ``speed.py``)."""
    latencies = tally.latencies()
    return {
        "setup_s": median(setups),
        "throughput_ops_s": completed / wall,
        "latency_p50_ms": class_percentile(latencies, 50) * 1e3,
        "latency_tail_ms": class_percentile(latencies, workload.tail_percentile) * 1e3,
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_classes(workload, tally) -> None:
    pct = workload.tail_percentile
    raw = tally.latencies(raw=True)
    print(
        f"  {'class':<24}{'n':>6}{'p50 ms':>12}{f'p{pct:g} ms':>12}"
        f"{'raw p50 ms':>14}{f'raw p{pct:g} ms':>14}"
    )
    for name, samples in tally.latencies().items():
        print(
            f"  {name:<24}{len(samples):>6}{median(samples) * 1e3:>12.3f}"
            f"{percentile(samples, pct) * 1e3:>12.3f}{median(raw[name]) * 1e3:>14.3f}"
            f"{percentile(raw[name], pct) * 1e3:>14.3f}"
        )
    fewest = min(len(samples) for samples in raw.values())
    print(
        f"  tail_percentile: p{pct:g} "
        f"({fewest} samples in the smallest class, {samples_beyond(fewest, pct):.1f} beyond it)"
    )
    print(
        f"  box slowdown during the run: x{workload.probe.slowdown():.2f} "
        f"(median speed-probe time over its reference; times above are rescaled by it, raw ones not)"
    )


def print_metrics(workload_name: str, values: dict, table: dict) -> None:
    for name, value in values.items():
        unit, better, *bound = table[name]
        limit = f", bound {bound[0]:.1%}" if bound else ""
        print(f"  {workload_name:<14}{name:<34}{value:>16.6g} {unit:<9}({better} is better{limit})")


def run_workload(args: argparse.Namespace) -> dict:
    """One workload, in this process; returns the result object."""
    from benchmarks.harness import oracle
    from benchmarks.harness.workloads import WORKLOADS, Tally

    print(f"env {json.dumps(fingerprint())}")
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g}: {workload.why}")
    pin_to_one_cpu()

    if args.trace:
        from benchmarks.harness.traced import traced_run

        state, tally, values = traced_run(workload, args.seconds, ROOT / "benchmarks" / "results")
        table = PER_LAYER
    else:
        setups: list[float] = []
        state = None
        for _ in range(SETUP_BUILDS):
            if state is not None:
                state.close()
            workload.probe.sample()
            started = time.perf_counter()
            state = workload.build()
            ended = time.perf_counter()
            workload.probe.sample()
            setups.append(workload.probe.normalised(started, ended))
        workload.expect(state)
        gc.collect()
        tally = Tally(workload.probe)
        completed, wall = workload.measure(state, args.seconds, tally)
        values = end_to_end_metrics(workload, tally, completed, wall, setups)
        table = END_TO_END
        print_classes(workload, tally)

    digests = oracle.expectation_digests(workload.inputs_digest(state), workload.expected)
    state.close()
    if args.write_golden:
        oracle.write_golden(workload.name, args.seed, args.quick, digests)
    drift = oracle.check_golden(workload.name, args.seed, args.quick, digests)
    if drift:
        print(f"GOLDEN DRIFT for seed {args.seed}: {', '.join(drift)}", file=sys.stderr)

    print_metrics(workload.name, values, table)
    return {
        "correct": tally.wrong == 0 and not drift,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]} for name, value in values.items()
        },
    }


def run_in_subprocess(
    name: str, seed: int, seconds: float, trace: int, quick: bool, write_golden: bool = False
) -> subprocess.CompletedProcess:
    """One workload in a fresh process (so ``peak_rss_mb`` is its own)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else []) + (["--write-golden"] if write_golden else [])
    return subprocess.run(command, capture_output=True, text=True, timeout=600)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; a summary at the end."""
    results = {}
    for name in WORKLOAD_NAMES:
        completed = run_in_subprocess(
            name, args.seed, args.seconds, args.trace, args.quick, args.write_golden
        )
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"workload {name} exited with code {completed.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print("\nsummary")
    for name, result in results.items():
        print(
            f"  {name:<14}correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes decide dict and set layouts, and with them a few per
        # cent of every timing; pin them so that two runs differ by less.
        sys.stdout.flush()
        os.execve(
            sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
