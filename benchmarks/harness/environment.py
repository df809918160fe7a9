"""Environment fingerprint and calibration kernel.

Printed with every result so numbers from different boxes are never
silently compared: a slower ``calibration_ms`` explains a slower run
before any layer metric has to.
"""

from __future__ import annotations

import os
import platform
import sqlite3
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _numpy_version() -> str:
    if os.environ.get("REPRO_NO_NUMPY"):
        return "disabled (REPRO_NO_NUMPY)"
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def _git_sha() -> str:
    # The driver's checkout is not a git repository; that is a value, not an error.
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def calibration_ms() -> float:
    """A fixed pure-Python + ``sqlite3`` kernel: best of three, milliseconds."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += (value * value) % 7
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
            connection.executemany(
                "INSERT INTO t VALUES (?, ?)", ((i, i % 97) for i in range(20_000))
            )
            connection.execute("SELECT b, COUNT(*) FROM t GROUP BY b").fetchall()
        finally:
            connection.close()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def fingerprint() -> dict[str, object]:
    return {
        "cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "sqlite": sqlite3.sqlite_version,
        "git": _git_sha(),
        "calibration_ms": calibration_ms(),
    }
