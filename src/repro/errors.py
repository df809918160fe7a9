"""Exception hierarchy shared by all repro subsystems.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations

import time
from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class XMLParseError(ReproError):
    """Raised when the XML parser encounters malformed input.

    Carries the character offset and (line, column) position of the failure
    so that callers can produce useful diagnostics.
    """

    def __init__(self, message: str, offset: int = -1, line: int = -1, column: int = -1):
        location = ""
        if line >= 0:
            location = f" at line {line}, column {column}"
        super().__init__(message + location)
        self.offset = offset
        self.line = line
        self.column = column


class XQuerySyntaxError(ReproError):
    """Raised by the XQuery lexer / parser on malformed query text."""

    def __init__(self, message: str, position: int = -1):
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class XQueryCompilationError(ReproError):
    """Raised by the loop-lifting compiler, e.g. for unbound variables."""


class XQueryBindingError(ReproError):
    """Raised when external-variable bindings are missing or ill-typed."""


class AlgebraError(ReproError):
    """Raised for malformed algebra plans (unknown columns, arity errors)."""


class RewriteError(ReproError):
    """Raised when join graph isolation cannot make progress safely."""


class JoinGraphError(ReproError):
    """Raised when a rewritten plan cannot be cast into a single SFW block."""


class CatalogError(ReproError):
    """Raised for catalog misuse: unknown/duplicate tables or indexes."""


class BackendClosedError(CatalogError):
    """Raised when a closed RDBMS backend (or its pool) is used again."""


class TransientBackendError(ReproError):
    """A backend fault that is expected to clear on retry.

    The SQLite boundary classifies driver errors into this family when the
    failure is environmental rather than semantic: ``database is locked``,
    ``database is busy``, ``disk I/O error``, an external ``interrupt``.
    Retry policies (:mod:`repro.service.resilience`) only ever retry
    errors of this class; everything else is treated as permanent.

    ``cause`` keeps the original driver exception for diagnostics.
    """

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


class BackendExecutionError(ReproError):
    """A *permanent* backend failure (bad SQL, missing table, constraint).

    Raised at the RDBMS boundary instead of leaking raw driver exceptions;
    never retried and never healed — the statement itself is at fault, not
    the backend's health.  ``cause`` keeps the original driver exception.
    """

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


class MirrorIntegrityError(CatalogError):
    """The SQLite mirror diverged from (or can no longer serve) the catalog.

    Raised when ``PRAGMA integrity_check`` fails, the database image is
    malformed, or the mirrored rows are no longer a prefix of the canonical
    encoding.  The backend's quarantine-and-rebuild path
    (:meth:`repro.sqlbackend.backend.SQLiteBackend.rebuild_mirror`) exists
    precisely to recover from this state; this error surfaces only when
    that recovery is impossible.
    """

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


class PlanningError(ReproError):
    """Raised when the optimizer cannot produce a physical plan."""


class ExecutionError(ReproError):
    """Raised by physical operators or the algebra interpreter at run time."""


class QueryTimeoutError(ReproError):
    """Raised when a query exceeds its execution budget (the paper's DNF)."""

    def __init__(self, budget_seconds: float, elapsed_seconds: float):
        super().__init__(
            f"query did not finish within {budget_seconds:.3f}s "
            f"(aborted after {elapsed_seconds:.3f}s)"
        )
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds


def check_deadline(deadline: Optional[float], budget_seconds: Optional[float]) -> None:
    """Raise :class:`QueryTimeoutError` once ``time.perf_counter()`` passes ``deadline``.

    ``deadline`` is the start plus ``budget_seconds`` (``None``: no deadline);
    the error reports the budget and the time since that start.  Every
    engine's timeout check calls this one function.
    """
    if deadline is not None:
        now = time.perf_counter()
        if now > deadline:
            budget = budget_seconds or 0.0
            raise QueryTimeoutError(budget, now - deadline + budget)


class PureXMLError(ReproError):
    """Raised by the pureXML-substitute engine (storage or evaluation)."""


class ServiceError(ReproError):
    """Base class for query-service failures (:mod:`repro.service`)."""


class ServiceClosedError(ServiceError):
    """Raised when work is submitted to a :class:`QueryService` after close."""


class ServiceOverloadedError(ServiceError):
    """Raised when admission control rejects a query (too many in flight)."""


class CircuitOpenError(TransientBackendError):
    """An engine's circuit breaker is open: the backend is shedding load.

    Transient by definition — the breaker re-probes after its recovery
    window — so fallback chains treat it exactly like any other transient
    backend fault: degrade to the next engine instead of queueing work
    behind a dead backend.
    """


class DegradedExecutionError(ServiceError):
    """Every engine in a fallback chain failed for one query.

    Carries the *original* error (the failure of the engine the caller
    asked for), the engine whose failure ended the chain, and the full
    tuple of engines attempted — enough to reconstruct the degradation
    path from the exception alone.
    """

    def __init__(
        self,
        message: str,
        cause: Optional[BaseException] = None,
        engine: Optional[str] = None,
        attempted: tuple = (),
    ):
        super().__init__(message)
        self.cause = cause
        self.engine = engine
        self.attempted = tuple(attempted)
