"""Write-once lazy values, and a per-thread clock of what building them cost.

Derived engine state — the ``doc`` table, the relational database, each
B+-tree — is built by the engine that reads it, on first read.
:class:`Lazy` is the one mechanism: the build runs exactly once, under the
value's own lock, however many threads make the first read together; after
that a read is one attribute test.

The building thread's wall time accumulates on a thread-local clock
(:func:`build_seconds`), which is how an executor reports a ``rebuild``
stage for a build that happened many frames below it (see
:func:`repro.core.stages._timed`).  Threads that merely *waited* for
another thread's build are not charged: their wait shows in the stage they
waited in.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Generic, Optional, TypeVar

T = TypeVar("T")


class _BuildClock(threading.local):
    seconds = 0.0


_CLOCK = _BuildClock()


def build_seconds() -> float:
    """Wall-clock seconds the calling thread has spent inside lazy builds."""
    return _CLOCK.seconds


class Lazy(Generic[T]):
    """A value built by ``build()`` on the first :meth:`get`, exactly once."""

    __slots__ = ("_build", "_lock", "_value")

    def __init__(self, build: Callable[[], T]):
        self._build: Optional[Callable[[], T]] = build
        self._lock = threading.Lock()
        self._value: Optional[T] = None

    def get(self) -> T:
        if self._build is not None:
            with self._lock:
                if self._build is not None:
                    before = _CLOCK.seconds
                    started = time.perf_counter()
                    self._value = self._build()
                    # Assign, not add: builds nested inside this one already
                    # advanced the clock within the interval measured here.
                    _CLOCK.seconds = before + (time.perf_counter() - started)
                    # Written last (readers test it without the lock); also
                    # drops whatever the closure kept alive.
                    self._build = None
        return self._value  # type: ignore[return-value]
