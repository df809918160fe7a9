"""Deterministic fault injection for the resilience test suite.

The paper's five engine configurations are proven bit-for-bit identical,
which makes *graceful degradation* a correctness property: when the RDBMS
path fails, an interpreted engine serves the same answer.  Proving that
the serving layer actually delivers this under backend faults needs a way
to make the backend fail **on command** — deterministically, per test,
without monkeypatching driver internals.

This module is that harness.  Production code calls :func:`fire` at named
**injection points**:

========================  ======================================================
point                     where it fires
========================  ======================================================
``backend.execute``       inside ``SQLiteBackend._run``, just before the
                          statement executes (inside the classification
                          boundary, so injected driver errors are translated
                          exactly like real ones)
``backend.sync``          inside ``SQLiteBackend.sync`` after the write lock
                          is taken
``pool.acquire``          at the top of ``ConnectionPool.acquire``
========================  ======================================================

When no :class:`FaultPlan` is installed, :func:`fire` is one module-global
read — the production overhead of the harness is a no-op function call.

Two injection modes, freely mixed on one plan:

* **scripted** — :meth:`FaultPlan.script` raises a given error the next
  *N* times a point fires (optionally after skipping the first *K*);
* **seeded-random storms** — :meth:`FaultPlan.storm` raises with
  probability ``rate`` from a :class:`random.Random` seeded per rule, so a
  chaos run is exactly reproducible from its seed.

Usage::

    from repro.testing.faults import FaultPlan

    with FaultPlan() as plan:
        plan.script("backend.execute",
                    sqlite3.OperationalError("database is locked"), times=2)
        plan.storm("pool.acquire",
                   sqlite3.OperationalError("disk I/O error"),
                   rate=0.5, seed=7)
        ...  # drive traffic; plan.fired counts what actually triggered

Plans are process-global (the production code cannot know which test is
running) and installation is exclusive: entering a second plan while one
is active raises, so concurrent test cases cannot silently interleave
their faults.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Optional, Union

#: The installed plan, or None.  Read unlocked on the hot path — a Python
#: global read is atomic, and the only writers are FaultPlan.__enter__/
#: __exit__ which serialize on _INSTALL_LOCK.
_active: Optional["FaultPlan"] = None
_INSTALL_LOCK = threading.Lock()

#: The injection points production code fires today (documentation +
#: typo guard: scripting an unknown point is almost certainly a test bug).
KNOWN_POINTS = frozenset({"backend.execute", "backend.sync", "pool.acquire"})

#: An error to inject: an exception instance (re-raised as-is), an
#: exception class, or a zero-argument factory producing either.
ErrorSpec = Union[BaseException, Callable[[], BaseException]]


def fire(point: str) -> None:
    """Trigger injection point ``point``; raises if the active plan says so.

    The production-side hook: a no-op (one global read) unless a
    :class:`FaultPlan` is installed *and* has a matching rule that decides
    to fire.
    """
    plan = _active
    if plan is not None:
        plan._fire(point)


def injection_counts() -> dict:
    """Per-point counts of faults actually raised by the active plan.

    Empty when no plan is installed — convenient for assertions that a
    chaos run really exercised its points.
    """
    plan = _active
    return dict(plan.fired) if plan is not None else {}


class _Rule:
    """One injection rule at one point (scripted or probabilistic)."""

    def __init__(
        self,
        point: str,
        error: ErrorSpec,
        times: Optional[int] = None,
        after: int = 0,
        rate: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        self.point = point
        self.error = error
        self.remaining = times
        self.skip = after
        self.rate = rate
        self.rng = random.Random(seed) if rate is not None else None

    def should_fire(self) -> bool:
        """Decide (and consume budget) under the owning plan's lock."""
        if self.skip > 0:
            self.skip -= 1
            return False
        if self.rng is not None:
            if self.rng.random() >= self.rate:
                return False
        if self.remaining is not None:
            if self.remaining <= 0:
                return False
            self.remaining -= 1
        return True

    def build_error(self) -> BaseException:
        error = self.error
        if isinstance(error, BaseException):
            return error
        return error()  # class or factory


class FaultPlan:
    """A set of injection rules, installed process-wide as a context manager.

    Thread-safe: rules are consulted and their budgets consumed under one
    internal lock, so a scripted ``times=2`` fires exactly twice no matter
    how many worker threads race through the point.
    """

    def __init__(self) -> None:
        self._rules: dict[str, list[_Rule]] = {}
        self._lock = threading.Lock()
        #: point -> number of faults actually raised.
        self.fired: dict[str, int] = {}

    # -- authoring ---------------------------------------------------------------

    def script(
        self,
        point: str,
        error: ErrorSpec,
        times: int = 1,
        after: int = 0,
    ) -> "FaultPlan":
        """Raise ``error`` the next ``times`` firings of ``point``.

        ``after`` skips that many firings first (fail the *third* sync,
        not the first).  Returns the plan for chaining.
        """
        self._add(_Rule(point, error, times=times, after=after))
        return self

    def storm(
        self,
        point: str,
        error: ErrorSpec,
        rate: float,
        seed: int,
        times: Optional[int] = None,
    ) -> "FaultPlan":
        """Raise ``error`` with probability ``rate`` per firing of ``point``.

        The decision stream comes from ``random.Random(seed)``, so a storm
        is exactly reproducible; ``times`` optionally caps the total number
        of faults raised.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("storm rate must be within [0, 1]")
        self._add(_Rule(point, error, times=times, rate=rate, seed=seed))
        return self

    def _add(self, rule: _Rule) -> None:
        if rule.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown injection point {rule.point!r} "
                f"(known: {', '.join(sorted(KNOWN_POINTS))})"
            )
        with self._lock:
            self._rules.setdefault(rule.point, []).append(rule)

    # -- the firing side ---------------------------------------------------------

    def _fire(self, point: str) -> None:
        with self._lock:
            for rule in self._rules.get(point, ()):
                if rule.should_fire():
                    self.fired[point] = self.fired.get(point, 0) + 1
                    raise rule.build_error()

    # -- installation ------------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        global _active
        with _INSTALL_LOCK:
            if _active is not None:
                raise RuntimeError("another FaultPlan is already installed")
            _active = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _active
        with _INSTALL_LOCK:
            if _active is self:
                _active = None
