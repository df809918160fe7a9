"""Sample statistics the metric definitions are written in."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the per-class aggregate, so a cheap class and an
    expensive one weigh the same and no pooled percentile sits on the
    boundary between them."""
    logs = [math.log(value) for value in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def class_percentile(latencies: Mapping[str, Sequence[float]], pct: float) -> float:
    """Geometric mean over op classes of each class's percentile ``pct``."""
    return geomean(percentile(samples, pct) for samples in latencies.values() if samples)


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie beyond percentile ``pct``."""
    return count * (100.0 - pct) / 100.0


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` over ``log x`` — the scaling exponent."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)
