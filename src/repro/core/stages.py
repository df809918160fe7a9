"""Explicit pipeline stages over a frozen execution context.

The seed's :class:`~repro.core.pipeline.XQueryProcessor` ran an *implicit*
parse → compile → isolate → plan → execute flow through private methods
that read processor attributes as they went.  That shape is hostile to a
concurrent serving layer: a worker cannot know which attributes an
execution touches, so nothing can be shared safely.

This module makes the flow explicit and the sharing contract checkable:

* **Stage objects** (:class:`ParseStage`, :class:`NormalizeStage`,
  :class:`CompileStage`, :class:`IsolateStage`, :class:`ExtractStage`) are
  frozen dataclasses — their configuration is fixed at construction, and
  ``run`` is a pure function of its inputs.  :class:`CompilationPipeline`
  composes them and records per-stage wall-clock timings.
* :class:`ExecutionContext` is a frozen view of everything a worker
  needs to *execute* a compiled plan: a :class:`CatalogSnapshot` (the
  first *n* rows of the append-only encoding, and the ``doc`` table,
  database and relational engine derived from them — each *write-once
  lazy*: built by the first engine that reads it, exactly once), the
  SQLite mirror, and the compiler settings.  The bindings of one frozen
  context never change; the objects it points at are themselves
  thread-safe (locked pool, read-only tables).
* The ``run_*`` executors are module-level pure functions
  ``(compilation, context, …) → ExecutionOutcome``.  Any thread holding a
  :class:`CompilationResult` and an :class:`ExecutionContext` can execute
  it — no processor mutable state is involved, which is exactly the
  invariant :class:`repro.service.QueryService` workers rely on.

Every executor folds a per-stage latency breakdown into
:attr:`ExecutionOutcome.timings` (``bind``/``render``/``sync``/``execute``/
``decode`` seconds, plus the compile-side stages when the plan was compiled
in the same call, plus ``rebuild`` when this very call built derived state),
so a serving layer can report where time went without wrapping the engines.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

from repro.errors import JoinGraphError, PlanningError
from repro.lazy import Lazy, build_seconds
from repro.algebra.interpreter import PlanInterpreter
from repro.algebra.operators import Serialize
from repro.algebra.table import Table
from repro.core.joingraph import JoinGraph, extract_join_graph
from repro.core.rewriter import IsolationReport, JoinGraphIsolation
from repro.core.sqlgen import generate_stacked_sql, render_join_graph
from repro.relational.catalog import Database, database_from_encoding
from repro.relational.engine import QueryResult, RelationalEngine
from repro.sqlbackend.backend import SQLiteBackend, SQLResult, check_join_width
from repro.sqlbackend.decode import first_occurrence_items, ordered_items, sequence_items
from repro.xmldb.encoding import DOC_COLUMNS, DocumentEncoding
from repro.xquery.ast import (
    Aggregate,
    Expression,
    ExternalVariable,
    ForExpr,
    IfExpr,
    LetExpr,
    NumberLiteral,
    QueryModule,
    StringLiteral,
    check_bindings,
    render,
)
from repro.xquery.compiler import CompilerSettings, LoopLiftingCompiler
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_module

#: Stage name → wall-clock seconds; the latency breakdown unit used by both
#: :class:`CompilationResult` (compile side) and :class:`ExecutionOutcome`
#: (execute side).
StageTimings = dict


@contextmanager
def _timed(timings: StageTimings, stage: str) -> Iterator[None]:
    """Accumulate the wall-clock time of one stage under ``timings[stage]``.

    Time this thread spent building lazy derived state inside the stage is
    reported under ``timings["rebuild"]`` instead — counted once, and only
    on the call that did the building.
    """
    started = time.perf_counter()
    built = build_seconds()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        rebuild = build_seconds() - built
        timings[stage] = timings.get(stage, 0.0) + (elapsed - rebuild)
        if rebuild:
            timings["rebuild"] = timings.get("rebuild", 0.0) + rebuild


# -- results -------------------------------------------------------------------------


@dataclass
class CompilationResult:
    """Everything the compiler + isolation produce for one query.

    ``source`` (and ``surface_ast``) record the text the entry was first
    compiled from; on a :class:`~repro.core.pipeline.PlanCache` hit from a
    formatting variant (the cache keys on the *normalized core AST*), they
    reflect that first variant, not the text of the current call.

    A compilation result is **immutable in the concurrency sense**: after
    :meth:`CompilationPipeline.build` returns it, the only field that is
    ever written again is the :attr:`sql_backend_sql` memo, and that write
    happens under :data:`_SQL_RENDER_LOCK` (and is idempotent per catalog
    state), so results can be shared freely between worker threads.
    """

    source: str
    surface_ast: Expression
    core_ast: Expression
    stacked_plan: Serialize
    isolated_plan: Serialize
    isolation_report: IsolationReport
    join_graph: Optional[JoinGraph]
    join_graph_sql: Optional[str]
    stacked_sql: str
    join_graph_error: Optional[str] = None
    #: External variables the query declares; their values arrive as
    #: ``bindings`` at execution time (empty for ad-hoc queries).
    external_variables: tuple[ExternalVariable, ...] = ()
    #: True when the query's return position produces *values* (aggregates
    #: or literals), not nodes.  Node sequences are deduplicated at decode
    #: time (the set discipline ``fs:ddo`` established); value sequences
    #: keep one item per iteration — two iterations may legitimately
    #: produce the same count or sum.
    value_result: bool = False
    #: Lazily rendered join-graph SQL for the RDBMS backend: the Fig. 8/9
    #: block with an explicit CROSS JOIN order (see :func:`sql_backend_sql`).
    #: Memoized as ``(stats key, sql)`` so prepared queries re-execute
    #: without re-rendering any SQL, while catalog growth (a new processor
    #: with fresh statistics) invalidates the pinned join order
    #: instead of freezing a stale one.
    sql_backend_sql: Optional[tuple[tuple, str]] = field(default=None, repr=False)
    #: Wall-clock seconds per compile stage (parse/normalize/compile/
    #: isolate/extract), recorded when the result was built.
    timings: StageTimings = field(default_factory=dict, repr=False, compare=False)

    def core_text(self) -> str:
        """The normalized XQuery Core rendering (cf. Section II-D)."""
        return render(self.core_ast)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Names of the declared external variables, in declaration order."""
        return tuple(declaration.name for declaration in self.external_variables)

    @property
    def rewrite_trace(self):
        """The isolation run as an immutable provenance trace.

        A :class:`~repro.core.rewrite.trace.RewriteTrace`: the ordered
        applied steps, the rejected applications and the operator
        counts.  ``rewrite_trace.render()`` is the
        human-readable account (see the README example);
        ``rewrite_trace.rules_fired()`` the per-rule histogram the
        differential tests pin.
        """
        return self.isolation_report.trace()

    @property
    def auto_engine(self) -> str:
        """The engine the ``"auto"`` configuration dispatches to.

        The decision is made *once*, when this result is built: extraction
        either produced a join graph or recorded its refusal in
        :attr:`join_graph_error`.  Because the result lives in the plan
        cache, repeated auto-mode executions of a refused query re-read
        this flag — they never re-run isolation or extraction (asserted by
        ``tests/core/test_plan_cache.py`` via the cache counters).
        """
        return "join-graph" if self.join_graph is not None else "stacked"


@dataclass
class ExecutionOutcome:
    """Result of executing one query in one configuration.

    ``rows_scanned`` counts rows the engine materialised/scanned — for the
    interpreted configurations only.  The ``sql``/``sql-stacked`` paths
    report 0: the stdlib SQLite driver exposes no scan counters, and a
    wrong-but-plausible number would be worse than none (result cardinality
    lives in ``details.row_count`` / :attr:`node_count`).

    ``timings`` is the per-stage latency breakdown: execute-side stages
    always (``bind``, ``execute``, ``decode``, plus ``render``/``sync`` on
    the RDBMS path), compile-side stages merged in when the plan was
    compiled (not cache-hit) by the same call, and ``rebuild`` when this
    call was the one that built derived state for its catalog version (the
    ``doc`` table, the database, a B+-tree) — its wall time is excluded
    from the stage it happened in.
    """

    items: list[int]
    configuration: str
    rows_scanned: int = 0
    details: object = None
    timings: StageTimings = field(default_factory=dict)
    #: Set by the serving layer when this outcome was produced by a
    #: *fallback* engine after the requested one failed: the engine the
    #: caller originally asked for (e.g. ``"sql"``).  ``None`` for direct
    #: executions.  Safe to serve as-is — the engine equivalence proof
    #: guarantees the items are bit-for-bit what the requested engine
    #: would have returned.
    degraded_from: Optional[str] = None

    @property
    def node_count(self) -> int:
        return len(self.items)

    @property
    def elapsed_seconds(self) -> float:
        """Total recorded stage time (a lower bound on end-to-end latency)."""
        return sum(self.timings.values())


# -- the frozen execution context ------------------------------------------------------


class CatalogSnapshot:
    """The first :attr:`row_count` rows of an append-only encoding.

    ``row_count`` is captured at construction (a session constructs the
    snapshot under the store lock, with the version it publishes), so the
    snapshot denotes the same rows forever, however far the encoding has
    grown by the time someone reads them.  The engine state derived from
    those rows is **write-once lazy**: :attr:`doc_table`, :attr:`database`
    and :attr:`engine` are each built by the first read — exactly once
    under concurrent first use — so ``sql`` on a parameterised plan builds
    nothing, the plan interpreters build the ``doc`` table only, and the
    join-graph engine (or ``sql`` pinning a join order) builds the database.
    """

    def __init__(
        self,
        encoding: DocumentEncoding,
        with_default_indexes: bool = True,
        columnar: bool = True,
        database: Optional[Database] = None,
    ):
        self.encoding = encoding
        self.row_count = row_count = len(encoding)
        self._doc_table = Lazy(lambda: Table(DOC_COLUMNS, encoding.rows(row_count)))
        self._database = Lazy(
            lambda: database
            or database_from_encoding(
                encoding, with_default_indexes=with_default_indexes, row_count=row_count
            )
        )
        self._engine = Lazy(lambda: RelationalEngine(self.database, columnar=columnar))

    @property
    def doc_table(self) -> Table:
        return self._doc_table.get()

    @property
    def database(self) -> Database:
        return self._database.get()

    @property
    def engine(self) -> RelationalEngine:
        return self._engine.get()


@dataclass(frozen=True, eq=False)
class ExecutionContext:
    """A frozen view of the state one worker needs to execute plans.

    The *bindings* of the context never change (the dataclass is frozen);
    the referenced objects are safe to share:

    * :attr:`snapshot` fixes the catalog rows the context stands for;
      :attr:`doc_table`, :attr:`database` and :attr:`engine` read through
      to its write-once lazy members, which are read-only once built (lazy
      statistics fills are idempotent dict writes, a B+-tree is loaded
      once by its first probe) — :attr:`engine` memoises the programs it
      plans behind its own lock and executes them without mutating them;
    * :attr:`sql_backend_supplier` resolves (and lazily creates, behind
      its own lock) the SQLite mirror, which serializes writes behind its
      pool's write lock and hands each thread its own read connection —
      the mirror only exists once a ``sql``/``sql-stacked`` execution
      actually needs it;
    * :attr:`encoding` is append-only — a context published for catalog
      version *v* keeps executing correctly after version *v+1* appends,
      because its derived state only ever covers the snapshot's rows.
    """

    snapshot: CatalogSnapshot
    settings: CompilerSettings
    default_document: Optional[str] = None
    sql_backend_supplier: Optional[Callable[[], SQLiteBackend]] = None

    @property
    def encoding(self) -> DocumentEncoding:
        return self.snapshot.encoding

    @property
    def doc_table(self) -> Table:
        return self.snapshot.doc_table

    @property
    def database(self) -> Database:
        return self.snapshot.database

    @property
    def engine(self) -> RelationalEngine:
        return self.snapshot.engine

    def catalog_key(self) -> tuple:
        """Identity of the catalog + statistics the SQL join order is pinned to.

        The snapshot's identity plus its captured row count: stable for the
        life of the context (a later registration does not change it), and
        reading it builds nothing.
        """
        return (id(self.snapshot), self.snapshot.row_count)


# -- compilation stages ----------------------------------------------------------------


@dataclass(frozen=True)
class ParseStage:
    """Source text → surface :class:`~repro.xquery.ast.QueryModule`."""

    def run(self, source: str) -> QueryModule:
        return parse_module(source)


@dataclass(frozen=True)
class NormalizeStage:
    """Surface module → normalized XQuery Core (Section II-D)."""

    default_document: Optional[str] = None

    def run(self, module: QueryModule) -> Expression:
        return normalize(module.body, default_document=self.default_document)


@dataclass(frozen=True)
class CompileStage:
    """Core expression → stacked loop-lifted plan (Fig. 4)."""

    settings: CompilerSettings

    def run(self, core: Expression) -> Serialize:
        return LoopLiftingCompiler(self.settings).compile(core)


@dataclass(frozen=True)
class IsolateStage:
    """Stacked plan → isolated plan + report (Section III)."""

    isolation: JoinGraphIsolation = field(default_factory=JoinGraphIsolation)

    def run(self, stacked: Serialize) -> tuple[Serialize, IsolationReport]:
        return self.isolation.isolate(stacked)


@dataclass(frozen=True)
class ExtractStage:
    """Isolated plan → (join graph, Fig. 8/9 SQL, error) — best effort."""

    def run(
        self, isolated: Serialize
    ) -> tuple[Optional[JoinGraph], Optional[str], Optional[str]]:
        try:
            graph = extract_join_graph(isolated)
            return graph, render_join_graph(graph), None
        except JoinGraphError as error:
            return None, None, str(error)


@dataclass(frozen=True)
class KeyedSource:
    """The output of the front half of compilation: enough to cache-key."""

    source: str
    module: QueryModule
    core: Expression
    timings: StageTimings = field(default_factory=dict)


@dataclass(frozen=True)
class CompilationPipeline:
    """The explicit parse → normalize → compile → isolate → extract flow.

    Immutable: one pipeline object per (settings, isolation) configuration
    can serve any number of threads.  The flow is split in two halves so a
    plan cache can sit in the middle — :meth:`key` runs the cheap stages
    that determine the cache key (parse + normalize), :meth:`build` runs
    the expensive ones (loop lifting, isolation, extraction) only on a
    miss.
    """

    parse: ParseStage
    normalize: NormalizeStage
    compile: CompileStage
    isolate: IsolateStage
    extract: ExtractStage = field(default_factory=ExtractStage)

    @classmethod
    def configure(
        cls,
        settings: CompilerSettings,
        isolation: Optional[JoinGraphIsolation] = None,
    ) -> "CompilationPipeline":
        """The standard pipeline for one compiler/isolation configuration."""
        return cls(
            parse=ParseStage(),
            normalize=NormalizeStage(default_document=settings.default_document),
            compile=CompileStage(settings),
            isolate=IsolateStage(isolation or JoinGraphIsolation()),
            extract=ExtractStage(),
        )

    def key(self, source: str) -> KeyedSource:
        """Run parse + normalize (everything a cache key needs)."""
        timings: StageTimings = {}
        with _timed(timings, "parse"):
            module = self.parse.run(source)
        with _timed(timings, "normalize"):
            core = self.normalize.run(module)
        return KeyedSource(source=source, module=module, core=core, timings=timings)

    @staticmethod
    def returns_values(core: Expression) -> bool:
        """Whether the return position of ``core`` yields values, not nodes.

        Walks the FLWOR spine (``for``/``let`` bodies, conditional then
        branches) to the expression that produces the result items.  An
        aggregate or literal there makes the item column a per-iteration
        *value* — the decode step must keep duplicates.  Everything else
        (paths, variables, position filters) yields nodes, which follow the
        deduplicating set discipline.
        """
        while True:
            if isinstance(core, (ForExpr, LetExpr)):
                core = core.body
            elif isinstance(core, IfExpr):
                core = core.then_branch
            else:
                return isinstance(core, (Aggregate, NumberLiteral, StringLiteral))

    def build(self, keyed: KeyedSource) -> CompilationResult:
        """Run the expensive back half and assemble the result."""
        timings = dict(keyed.timings)
        with _timed(timings, "compile"):
            stacked = self.compile.run(keyed.core)
        with _timed(timings, "isolate"):
            isolated, report = self.isolate.run(stacked)
        with _timed(timings, "extract"):
            join_graph, join_graph_sql, join_graph_error = self.extract.run(isolated)
            stacked_sql = generate_stacked_sql(stacked)
        return CompilationResult(
            source=keyed.source,
            surface_ast=keyed.module.body,
            core_ast=keyed.core,
            stacked_plan=stacked,
            isolated_plan=isolated,
            isolation_report=report,
            join_graph=join_graph,
            join_graph_sql=join_graph_sql,
            stacked_sql=stacked_sql,
            join_graph_error=join_graph_error,
            external_variables=keyed.module.externals,
            value_result=self.returns_values(keyed.core),
            timings=timings,
        )

    def compile_source(self, source: str) -> CompilationResult:
        """Uncached end-to-end compilation (:meth:`key` + :meth:`build`)."""
        return self.build(self.key(source))


# -- execution stages -------------------------------------------------------------------

#: Guards the per-compilation SQL render memo.  Rendering is deterministic
#: for a given catalog state, so the lock only prevents duplicate work —
#: correctness would survive a benign race, plan-cache sharing makes the
#: single render worth keeping.
_SQL_RENDER_LOCK = threading.Lock()


def sql_backend_sql(compilation: CompilationResult, context: ExecutionContext) -> str:
    """The join-graph SQL the RDBMS backend executes (rendered once).

    Same block as ``compilation.join_graph_sql`` (Fig. 8/9), but the
    FROM clause spells out a CROSS JOIN order: SQLite honours that
    syntax as a join-order constraint, and the n-fold self-joins here
    routinely defeat its own reorder search (a cold 10-way self-join
    can run 100x slower than the same block with the order pinned).
    The order comes from the in-tree cost-based planner when the graph
    is value-complete; parameterized graphs fall back to the static
    root-to-result (document descent) order so the text can be rendered
    once and re-bound forever.

    The memo is keyed on the catalog the order was planned against: a
    CompilationResult lives in a PlanCache shared across processor
    refreshes (catalog growth), and CROSS JOIN is a hard ordering
    constraint — re-plan against fresh statistics rather than pin an
    order chosen for a different catalog.
    """
    if compilation.join_graph is None:
        raise JoinGraphError(
            compilation.join_graph_error or "the query has no isolated join graph"
        )
    stats_key = context.catalog_key()
    # Fast path outside the lock: the memo tuple is written atomically and
    # rendering is deterministic per catalog state, so a stale read at
    # worst re-enters the locked slow path — it can never return wrong SQL.
    memo = compilation.sql_backend_sql
    if memo is not None and memo[0] == stats_key:
        return memo[1]
    with _SQL_RENDER_LOCK:
        memo = compilation.sql_backend_sql
        if memo is not None and memo[0] == stats_key:
            return memo[1]
        graph = compilation.join_graph
        join_order = list(reversed(graph.aliases))
        if not graph.parameters():
            try:
                join_order = context.engine.plan(graph).join_order
            except PlanningError:
                pass  # keep the static descent order
        rendered = render_join_graph(graph, join_order=join_order)
        compilation.sql_backend_sql = (stats_key, rendered)
        return rendered


def run_stacked(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Evaluate the *unrewritten* stacked plan with the algebra interpreter."""
    return _run_interpreted(
        compilation, context, compilation.stacked_plan, "stacked",
        timeout_seconds, bindings, timings,
    )


def run_isolated(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Evaluate the isolated plan with the algebra interpreter (sanity path)."""
    return _run_interpreted(
        compilation, context, compilation.isolated_plan, "isolated-interpreted",
        timeout_seconds, bindings, timings,
    )


def _run_interpreted(
    compilation: CompilationResult,
    context: ExecutionContext,
    plan: Serialize,
    configuration: str,
    timeout_seconds: Optional[float],
    bindings: Optional[Mapping[str, object]],
    timings: Optional[StageTimings],
) -> ExecutionOutcome:
    timings = {} if timings is None else timings
    with _timed(timings, "bind"):
        values = check_bindings(compilation.external_variables, bindings)
    with _timed(timings, "execute"):
        interpreter = PlanInterpreter(
            context.doc_table,
            timeout_seconds=timeout_seconds,
            parameters=values or None,
            columnar=context.settings.columnar_execution,
        )
        table = interpreter.evaluate(plan)
    with _timed(timings, "decode"):
        items = sequence_items(
            table.columns, table.rows, distinct=not compilation.value_result
        )
    return ExecutionOutcome(
        items=items,
        configuration=configuration,
        rows_scanned=interpreter.rows_materialised,
        timings=timings,
    )


def run_join_graph(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Plan + execute the SQL join graph on the in-tree relational back-end."""
    if compilation.join_graph is None:
        raise JoinGraphError(
            compilation.join_graph_error or "the query has no isolated join graph"
        )
    timings = {} if timings is None else timings
    with _timed(timings, "bind"):
        values = check_bindings(compilation.external_variables, bindings)
    with _timed(timings, "execute"):
        result: QueryResult = context.engine.execute(
            compilation.join_graph,
            timeout_seconds=timeout_seconds,
            bindings=values or None,
        )
    with _timed(timings, "decode"):
        items = first_occurrence_items(
            result.items(), distinct=not compilation.value_result
        )
    return ExecutionOutcome(
        items=items,
        configuration="join-graph",
        rows_scanned=result.rows_scanned,
        details=result,
        timings=timings,
    )


def _require_backend(context: ExecutionContext) -> SQLiteBackend:
    if context.sql_backend_supplier is None:
        raise JoinGraphError(
            "this execution context has no SQLite backend attached"
        )
    return context.sql_backend_supplier()


def run_sql(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Isolated join graph on the RDBMS: the paper's production story."""
    timings = {} if timings is None else timings
    if compilation.join_graph is not None:  # refuse before the mirror is built or synced
        check_join_width(compilation.join_graph.self_join_width)
    backend = _require_backend(context)
    with _timed(timings, "sync"):
        backend.sync(context.encoding)
    with _timed(timings, "render"):
        sql = sql_backend_sql(compilation, context)
    with _timed(timings, "bind"):
        values = check_bindings(compilation.external_variables, bindings)
    with _timed(timings, "execute"):
        result: SQLResult = backend.execute(
            sql, bindings=values or None, timeout_seconds=timeout_seconds
        )
    with _timed(timings, "decode"):
        items = ordered_items(
            result.columns,
            result.rows,
            distinct=not compilation.value_result,
            column_data=result.column_data,
        )
    return ExecutionOutcome(
        items=items, configuration="sql", details=result, timings=timings
    )


def run_sql_stacked(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Stacked WITH-chain on the RDBMS: what Pathfinder ships unrewritten."""
    timings = {} if timings is None else timings
    backend = _require_backend(context)
    with _timed(timings, "sync"):
        backend.sync(context.encoding)
    with _timed(timings, "bind"):
        values = check_bindings(compilation.external_variables, bindings)
    with _timed(timings, "execute"):
        result: SQLResult = backend.execute(
            compilation.stacked_sql,
            bindings=values or None,
            timeout_seconds=timeout_seconds,
        )
    with _timed(timings, "decode"):
        items = sequence_items(
            result.columns,
            result.rows,
            distinct=not compilation.value_result,
            column_data=result.column_data,
        )
    return ExecutionOutcome(
        items=items, configuration="sql-stacked", details=result, timings=timings
    )


def run_auto(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Join graph when one was isolated, else the stacked plan.

    Dispatches on :attr:`CompilationResult.auto_engine` — a flag computed
    at build time and cached with the plan, so an auto-mode caller pays
    for isolation exactly once per plan-cache key no matter how often a
    refused query is re-executed.
    """
    if compilation.auto_engine == "join-graph":
        return run_join_graph(compilation, context, timeout_seconds, bindings, timings)
    return run_stacked(compilation, context, timeout_seconds, bindings, timings)


#: Configuration name → executor; the single dispatch table shared by
#: ``XQueryProcessor.execute`` and ``PreparedQuery.run``.
EXECUTORS = {
    "auto": run_auto,
    "stacked": run_stacked,
    "isolated": run_isolated,
    "join-graph": run_join_graph,
    "sql": run_sql,
    "sql-stacked": run_sql_stacked,
}


def execute_compiled(
    compilation: CompilationResult,
    context: ExecutionContext,
    configuration: str = "auto",
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Execute a compiled plan against a context in one configuration.

    This is the whole worker-side contract of the serving layer: a
    (compilation, context) pair plus a configuration name — no processor,
    no locks beyond the ones the context's members own.
    """
    try:
        runner = EXECUTORS[configuration if configuration is not None else "auto"]
    except KeyError:
        expected = ", ".join(EXECUTORS)
        raise ValueError(
            f"unknown configuration {configuration!r} (expected one of: {expected})"
        ) from None
    return runner(compilation, context, timeout_seconds, bindings, timings)


def explain_compiled(
    compilation: CompilationResult,
    context: ExecutionContext,
    bindings: Optional[Mapping[str, object]] = None,
) -> str:
    """The relational back-end's execution plan for the query's join graph."""
    if compilation.join_graph is None:
        raise JoinGraphError(
            compilation.join_graph_error or "the query has no isolated join graph"
        )
    values = check_bindings(compilation.external_variables, bindings)
    return context.engine.explain(compilation.join_graph, bindings=values or None)
