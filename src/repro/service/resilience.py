"""Resilience policies for the serving layer: retry, breakers, fallback.

The paper proves five engine configurations bit-for-bit identical — which
turns *graceful degradation* from an approximation into a correctness-
preserving operation: when the RDBMS path fails, an interpreted engine can
serve the **same answer**.  This module supplies the three policies
:class:`~repro.service.QueryService` composes on that foundation:

* :class:`RetryPolicy` — deadline-aware exponential backoff with jitter.
  Only :class:`~repro.errors.TransientBackendError` (and subclasses) is
  ever retried; :class:`~repro.errors.QueryTimeoutError` and permanent
  errors never are, and no retry is scheduled past the request's remaining
  budget — a retry that cannot finish in time is a retry not taken.
* :class:`CircuitBreaker` (built from a :class:`BreakerPolicy`) — the
  classic closed → open → half-open machine, one per engine: after
  ``failure_threshold`` consecutive backend faults the breaker opens and
  requests shed immediately with :class:`~repro.errors.CircuitOpenError`
  instead of burning worker threads against a dead backend; after
  ``recovery_seconds`` a limited number of half-open probes decide whether
  to close it again.
* :class:`FallbackPolicy` — the engine degradation chains.  The default
  mirrors the paper's equivalence proof: ``sql → join-graph → stacked``
  (and ``sql-stacked → stacked``), i.e. RDBMS loss degrades to the
  in-process interpreted engines, never to a wrong answer.

All policies are immutable (frozen dataclasses) except the breaker, whose
mutable state is guarded by its own lock; everything takes an injectable
clock/rng/sleep so the chaos suite runs deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.core.stages import ENGINES
from repro.errors import (
    BackendClosedError,
    BackendExecutionError,
    CircuitOpenError,
    MirrorIntegrityError,
    QueryTimeoutError,
    TransientBackendError,
)

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "FallbackPolicy",
    "RetryPolicy",
    "is_backend_fault",
    "is_retryable",
]


def is_retryable(error: BaseException) -> bool:
    """True for errors a :class:`RetryPolicy` may act on.

    Exactly the transient family — and never
    :class:`~repro.errors.QueryTimeoutError`: a timeout consumed the
    request's budget by definition, so retrying it is always wrong.
    """
    if isinstance(error, QueryTimeoutError):
        return False
    return isinstance(error, TransientBackendError)


def is_backend_fault(error: BaseException) -> bool:
    """True for errors that indicate *backend health*, not query semantics.

    These are the errors that feed circuit breakers and justify degrading
    to a fallback engine.  Semantic failures — syntax errors, binding
    errors, a query outside an engine's fragment — are excluded: every
    engine would fail them identically, so degrading only wastes work; and
    timeouts are excluded because the budget is gone either way.
    """
    return isinstance(
        error,
        (
            TransientBackendError,   # includes CircuitOpenError
            MirrorIntegrityError,
            BackendClosedError,
            BackendExecutionError,
        ),
    ) and not isinstance(error, QueryTimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware exponential backoff with decorrelated jitter.

    ``max_attempts`` counts *executions*, not retries: 3 means one initial
    try plus at most two retries.  Delay for retry *k* (1-based) is
    ``base_delay * multiplier**(k-1)``, capped at ``max_delay``, then
    jittered uniformly within ``[1 - jitter, 1 + jitter]``.  A retry is
    scheduled only when the delay fits the remaining budget — the policy
    never sleeps past a request's deadline.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    #: Injectable randomness for deterministic tests (None = module default).
    rng: Optional[random.Random] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def next_delay(
        self, attempt: int, error: BaseException, remaining: Optional[float]
    ) -> Optional[float]:
        """Seconds to back off before retry, or None for "do not retry".

        ``attempt`` is the 1-based number of the execution that just
        failed; ``remaining`` is the request's remaining budget in seconds
        (None = unbounded).  Returns None when the error is not transient,
        attempts are exhausted, or the computed delay would not leave any
        budget to actually run the retry.
        """
        if not is_retryable(error):
            return None
        if attempt >= self.max_attempts:
            return None
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            rng = self.rng if self.rng is not None else random
            delay *= 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        if remaining is not None and delay >= remaining:
            return None
        return delay


@dataclass(frozen=True)
class BreakerPolicy:
    """Configuration for the per-engine circuit breakers.

    ``failure_threshold`` consecutive backend faults open the breaker;
    after ``recovery_seconds`` it lets ``half_open_probes`` concurrent
    probe requests through — one success closes it, one failure re-opens
    it (and restarts the recovery clock).  ``clock`` is injectable so the
    chaos suite can walk the state machine without sleeping.
    """

    failure_threshold: int = 5
    recovery_seconds: float = 5.0
    half_open_probes: int = 1
    clock: Callable[[], float] = field(
        default=time.monotonic, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")

    def build(self, engine: str) -> "CircuitBreaker":
        return CircuitBreaker(self, engine)


class CircuitBreaker:
    """One engine's closed → open → half-open breaker.  Thread-safe.

    The call protocol: :meth:`allow` before executing (False = shed the
    request), then exactly one of :meth:`record_success` /
    :meth:`record_failure` for requests that were allowed.  Failures that
    are not backend faults (see :func:`is_backend_fault`) must not be
    recorded — a stream of syntax errors says nothing about engine health.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, policy: BreakerPolicy, engine: str = ""):
        self.policy = policy
        self.engine = engine
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self._transitions = 0
        self._opened_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        """State after applying the recovery timer (lock held)."""
        if self._state == self.OPEN:
            elapsed = self.policy.clock() - (self._opened_at or 0.0)
            if elapsed >= self.policy.recovery_seconds:
                self._set_state(self.HALF_OPEN)
                self._probes_in_flight = 0
        return self._state

    def _set_state(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self._transitions += 1
            if state == self.OPEN:
                self._opened_at = self.policy.clock()
                self._opened_total += 1

    def allow(self) -> bool:
        """May a request proceed on this engine right now?"""
        with self._lock:
            state = self._effective_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                if self._probes_in_flight < self.policy.half_open_probes:
                    self._probes_in_flight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        with self._lock:
            state = self._effective_state()
            if state == self.HALF_OPEN:
                self._set_state(self.CLOSED)
            self._consecutive_failures = 0
            self._probes_in_flight = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state()
            self._consecutive_failures += 1
            if state == self.HALF_OPEN:
                # The probe failed: back to open, restart the recovery clock.
                self._set_state(self.OPEN)
                self._probes_in_flight = 0
            elif (
                state == self.CLOSED
                and self._consecutive_failures >= self.policy.failure_threshold
            ):
                self._set_state(self.OPEN)

    def open_error(self) -> CircuitOpenError:
        return CircuitOpenError(
            f"circuit breaker for engine {self.engine!r} is {self.state}: "
            "the backend is shedding load"
        )

    def snapshot(self) -> dict:
        """One consistent view of the breaker for ``service_stats()``."""
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "transitions": self._transitions,
                "opened_total": self._opened_total,
            }


#: The degradation chains the equivalence proof makes safe by construction,
#: read off :attr:`~repro.core.stages.Engine.fallback`.  Keys are
#: *requested* configurations; values the engines tried after the requested
#: one fails with a backend fault.  Interpreted engines have no fallback —
#: they are the floor.
DEFAULT_CHAINS: Mapping[str, tuple[str, ...]] = {
    engine.name: engine.fallback for engine in ENGINES if engine.fallback
}


@dataclass(frozen=True)
class FallbackPolicy:
    """Engine degradation chains, applied when a backend fault survives retry.

    ``chains`` maps a requested engine to the ordered engines tried next;
    engines not in the map never degrade.  Only *backend faults* trigger
    fallback (:func:`is_backend_fault`): semantic errors would fail
    identically everywhere, and timeouts have no budget left to degrade
    with.  Per-request opt-out rides on ``QueryRequest(fallback=False)``.
    """

    chains: Mapping[str, Sequence[str]] = field(
        default_factory=lambda: dict(DEFAULT_CHAINS)
    )

    def chain_for(self, configuration: str) -> tuple[str, ...]:
        """The full engine order for one request: requested engine first."""
        return (configuration, *self.chains.get(configuration, ()))
