"""Speed probe: times rescaled to an undisturbed box.

The reference box has two hardware threads that share their core with
other tenants: for seconds to minutes at a time everything runs up to
1.6x slower, and a 20 s run can fall wholly inside such a phase.  Raw
wall-clock medians then spread by 20-40 % between runs of one commit, far
beyond any bound a change could be held to.

So the harness runs a small fixed kernel between ops — a Python loop over a
list of tuples, whose pointer-chasing slows down roughly in step with the
program's own interpreter-bound and SQLite-bound work — and rescales every
measured interval by ``REFERENCE_S / kernel time`` around it.  A reported
time is therefore "seconds on a box where the kernel takes REFERENCE_S",
which on the defining box is its undisturbed speed.  The raw values are
printed beside the rescaled ones; README.md has the measurements behind
the choice of kernel and what the rescaling does not remove.

The kernel runs twice per sample and only the second pass is timed, so that
what the preceding op left in the caches does not leak into the sample (a
change to the program's memory footprint must not move the yardstick).
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

#: Kernel time on the defining box when nothing else shares the core.
REFERENCE_S = 0.0002


class SpeedProbe:
    def __init__(self) -> None:
        self._data = [(index, float(index)) for index in range(10_000)]
        self.at: list[float] = []
        self.factor: list[float] = []

    def _kernel(self) -> int:
        total = 0
        for number, _ in self._data:
            total += number
        return total

    def sample(self, min_gap: float = 0.0) -> None:
        """Take one sample unless the last one is younger than ``min_gap`` seconds."""
        if self.at and time.perf_counter() - self.at[-1] < min_gap:
            return
        self._kernel()
        # The thread's CPU time, not the wall clock: where other threads of
        # the run share the hardware thread, being descheduled in favour of
        # one of them must not read as a slower box.
        started = time.thread_time()
        self._kernel()
        spent = time.thread_time() - started
        self.at.append(time.perf_counter())
        self.factor.append(REFERENCE_S / spent)

    def _factor_at(self, moment: float) -> float:
        """Linear between samples, constant before the first and after the last."""
        right = bisect_left(self.at, moment)
        if right == 0:
            return self.factor[0]
        if right == len(self.at):
            return self.factor[-1]
        left = right - 1
        share = (moment - self.at[left]) / (self.at[right] - self.at[left])
        return self.factor[left] + (self.factor[right] - self.factor[left]) * share

    def normalised(self, start: float, end: float) -> float:
        """The interval's length at reference speed: the integral of the factor over it."""
        if not self.at:
            raise ValueError("no speed samples were taken")
        inside = range(bisect_right(self.at, start), bisect_left(self.at, end))
        moments = [start, *(self.at[index] for index in inside), end]
        factors = [self._factor_at(start), *(self.factor[index] for index in inside), self._factor_at(end)]
        return sum(
            (moments[index + 1] - moments[index]) * (factors[index] + factors[index + 1]) / 2
            for index in range(len(moments) - 1)
        )

    def slowdown(self) -> float:
        """Median kernel time over the reference: how disturbed the run was."""
        ordered = sorted(self.factor)
        return 1.0 / ordered[len(ordered) // 2]
