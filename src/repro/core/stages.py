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
* :data:`ENGINES` is the one table of execution configurations — one
  frozen :class:`Engine` value per engine — and :func:`execute_compiled`
  the one pure driver ``(compilation, context, name, …) →
  ExecutionOutcome`` over it.  Any thread holding a
  :class:`CompilationResult` and an :class:`ExecutionContext` can execute
  it — no processor mutable state is involved, which is exactly the
  invariant :class:`repro.service.QueryService` workers rely on.

Every execution folds a per-stage latency breakdown into
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
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.errors import JoinGraphError, PlanningError
from repro.lazy import Lazy, build_seconds
from repro.algebra.interpreter import PlanInterpreter
from repro.algebra.operators import Serialize
from repro.algebra.table import Table
from repro.core.joingraph import JoinGraph, extract_join_graph
from repro.core.rewriter import IsolationReport, JoinGraphIsolation, isolate
from repro.core.sqlgen import generate_stacked_sql, render_join_graph, sized_stacked_sql
from repro.relational.catalog import Database
from repro.relational.engine import RelationalEngine
from repro.sqlbackend.backend import SQLiteBackend, check_join_width
from repro.sqlbackend.decode import sequence_items
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
    VarRef,
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
    :meth:`CompilationPipeline.build` returns it, the only fields that are
    ever written again are the :attr:`sql_backend_sql` and
    :attr:`stacked_sql` memos, and those writes happen under
    :data:`_SQL_RENDER_LOCK` (and are idempotent per catalog state), so
    results can be shared freely between worker threads.
    """

    source: str
    surface_ast: Expression
    core_ast: Expression
    stacked_plan: Serialize
    isolated_plan: Serialize
    isolation_report: IsolationReport
    join_graph: Optional[JoinGraph]
    join_graph_sql: Optional[str]
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
    #: instead of freezing a stale one.  A parameterized graph's order does
    #: not depend on the catalog: its key is ``None``.
    sql_backend_sql: Optional[tuple[Optional[tuple], str]] = field(default=None, repr=False)
    #: Wall-clock seconds per compile stage (parse/normalize/compile/
    #: isolate/extract), recorded when the result was built.
    timings: StageTimings = field(default_factory=dict, repr=False, compare=False)
    #: The memo behind :attr:`stacked_sql`.
    _stacked_sql: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def stacked_sql(self) -> str:
        """The stacked plan as one ``WITH``-chain (the ``sql-stacked`` text).

        Rendered on first read, once (under :data:`_SQL_RENDER_LOCK`): only
        ``sql-stacked`` and ``explain`` read it, so a cold compilation does
        not pay for it.
        """
        text = self._stacked_sql
        if text is None:
            with _SQL_RENDER_LOCK:
                text = self._stacked_sql
                if text is None:
                    text = self._stacked_sql = generate_stacked_sql(self.stacked_plan)
        return text

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
    #: The name of the :class:`Engine` that ran (``"auto"`` resolved).
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
    join-graph engine (or ``sql`` pinning a join order) builds the database
    around that same table: one set of rows, one columnar twin.
    """

    def __init__(
        self,
        encoding: DocumentEncoding,
        with_default_indexes: bool = True,
    ):
        self.encoding = encoding
        self.row_count = row_count = len(encoding)
        self._doc_table = Lazy(lambda: Table(DOC_COLUMNS, encoding.rows(row_count)))
        self._database = Lazy(lambda: Database(self.doc_table, with_default_indexes))
        self._engine = Lazy(lambda: RelationalEngine(self.database))

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
    sql_backend_supplier: Callable[[], SQLiteBackend]

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
        """Raises :class:`~repro.errors.RewriteError` if the step guard stops it."""
        return isolate(stacked, self.isolation)


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
        branches) to the expression that produces the result items, and
        from a variable on to the expression the spine bound it to
        (``LetExpr.value``, ``ForExpr.sequence``), innermost binding first.
        An aggregate or literal there makes the item column a per-iteration
        *value* — the decode step must keep duplicates.  Everything else
        (paths, node variables, position filters) yields nodes, which follow
        the deduplicating set discipline.
        """
        scope: list[tuple[str, Expression]] = []
        while True:
            if isinstance(core, ForExpr):
                scope.append((core.var, core.sequence))
                core = core.body
            elif isinstance(core, LetExpr):
                scope.append((core.var, core.value))
                core = core.body
            elif isinstance(core, IfExpr):
                core = core.then_branch
            elif isinstance(core, VarRef):
                depth = next(
                    (i for i in reversed(range(len(scope))) if scope[i][0] == core.name), None
                )
                if depth is None:
                    return False
                # The bound expression sees only the bindings outside its own.
                core = scope[depth][1]
                del scope[depth:]
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
        return CompilationResult(
            source=keyed.source,
            surface_ast=keyed.module.body,
            core_ast=keyed.core,
            stacked_plan=stacked,
            isolated_plan=isolated,
            isolation_report=report,
            join_graph=join_graph,
            join_graph_sql=join_graph_sql,
            join_graph_error=join_graph_error,
            external_variables=keyed.module.externals,
            value_result=self.returns_values(keyed.core),
            timings=timings,
        )

    def compile_source(self, source: str) -> CompilationResult:
        """Uncached end-to-end compilation (:meth:`key` + :meth:`build`)."""
        return self.build(self.key(source))


# -- execution stages -------------------------------------------------------------------

#: What an engine's ``run`` returns: ``(items, rows_scanned, details)``.
EngineResult = tuple[list, int, object]


@dataclass(frozen=True)
class Engine:
    """One execution configuration of the paper's Table IX, as a value.

    ``run(compilation, context, values, timeout_seconds, timings)`` performs
    only the engine's *own* stages — ``execute`` and ``decode``, plus
    ``sync``/``render`` on SQLite — into the shared ``timings`` and returns
    ``(items, rows_scanned, details)``.  Everything every engine shares
    (name resolution, the join-graph refusal, binding, outcome assembly)
    is done once, by :func:`execute_compiled`.  ``needs_join_graph`` marks
    the engines that refuse a query isolation could not reduce to one SFW
    block; ``fallback`` lists the engines the serving layer degrades to,
    in order, when this one fails with a backend fault — safe because all
    five return bit-for-bit the same items.

    >>> [engine.name for engine in ENGINES]
    ['stacked', 'isolated', 'join-graph', 'sql', 'sql-stacked']
    >>> for engine in ENGINES:
    ...     if engine.fallback:
    ...         print(engine.name, "->", engine.fallback)
    join-graph -> ('stacked',)
    sql -> ('join-graph', 'stacked')
    sql-stacked -> ('stacked',)
    """

    name: str
    run: Callable[..., EngineResult] = field(repr=False)
    needs_join_graph: bool = False
    fallback: tuple[str, ...] = ()


def _join_graph(compilation: CompilationResult) -> JoinGraph:
    """The query's isolated join graph, or the refusal extraction recorded."""
    if compilation.join_graph is None:
        raise JoinGraphError(compilation.join_graph_error or "the query has no isolated join graph")
    return compilation.join_graph


#: Guards the per-compilation SQL render memos.  Rendering is deterministic
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

    SQLite itself plans without statistics: the mirror runs no ``ANALYZE``,
    since with ``sqlite_stat1`` it builds a Bloom filter, one full scan of
    ``doc``, per execution for the pinned descents.  The rendering gives it
    what statistics were buying instead: window tables join by comma, so
    SQLite scans each once as the outer loop, and an upward ``level`` step
    is oriented so the probed alias's ``level`` is an index column.

    The memo is keyed on the catalog the order was planned against: a
    CompilationResult lives in a PlanCache shared across processor
    refreshes (catalog growth), and CROSS JOIN is a hard ordering
    constraint — re-plan against fresh statistics rather than pin an
    order chosen for a different catalog.  A parameterized graph's static
    order is the same for every catalog, so its memo's key is ``None`` and
    no registration renders it again.
    """
    graph = _join_graph(compilation)
    # Fast path outside the lock: the memo tuple is written atomically and
    # rendering is deterministic per catalog state, so a stale read at
    # worst re-enters the locked slow path — it can never return wrong SQL.
    memo = compilation.sql_backend_sql
    if memo is not None and (memo[0] is None or memo[0] == context.catalog_key()):
        return memo[1]
    with _SQL_RENDER_LOCK:
        stats_key = None if graph.parameters() else context.catalog_key()
        memo = compilation.sql_backend_sql
        if memo is not None and memo[0] == stats_key:
            return memo[1]
        join_order = list(reversed(graph.aliases))
        if stats_key is not None:
            try:
                join_order = context.engine.plan(graph).join_order
            except PlanningError:
                pass  # keep the static descent order
        rendered = render_join_graph(graph, join_order=join_order)
        compilation.sql_backend_sql = (stats_key, rendered)
        return rendered


def _interpret(plan: str) -> Callable[..., EngineResult]:
    """``run`` for the algebra interpreter over the compilation's ``plan``."""

    def run(compilation, context, values, timeout_seconds, timings) -> EngineResult:
        with _timed(timings, "execute"):
            interpreter = PlanInterpreter(
                context.doc_table, timeout_seconds=timeout_seconds, parameters=values or None
            )
            table = interpreter.evaluate(getattr(compilation, plan))
        with _timed(timings, "decode"):
            items = _decode(compilation, table.columns, table.column_values)
        return items, interpreter.rows_materialised, None

    return run


def _execute_join_graph(compilation, context, values, timeout_seconds, timings) -> EngineResult:
    """Plan + execute the SQL join graph on the in-tree relational back-end."""
    with _timed(timings, "execute"):
        result = context.engine.execute(
            compilation.join_graph, timeout_seconds=timeout_seconds, bindings=values or None
        )
    with _timed(timings, "decode"):
        items = sequence_items(result.items(), distinct=not compilation.value_result)
    return items, result.rows_scanned, result


def _decode(compilation, columns: Sequence[str], column: Callable[[str], list]) -> list:
    """The item sequence of a result with ``columns``, read by ``column(name)``."""
    positions = column("pos") if "pos" in columns else None
    return sequence_items(column("item"), positions, distinct=not compilation.value_result)


def _on_sqlite(sql: Callable[..., str]) -> Callable[..., EngineResult]:
    """``run`` on the SQLite mirror: the text ``sql`` returns, decoded into items.

    The result's ``item`` column, and its ``pos`` column where the stacked
    chain keeps one, go to :func:`~repro.sqlbackend.decode.sequence_items`,
    the decoder every engine shares.  ``rows_scanned`` is 0: the stdlib
    SQLite driver exposes no scan counters.  The details are the
    :class:`~repro.sqlbackend.backend.SQLStatement`, not the result, and a
    node item is the encoding's own ``pre`` object rather than the driver's
    fresh int: an outcome holds its answer once.
    """

    def run(compilation, context, values, timeout_seconds, timings) -> EngineResult:
        text = sql(compilation, context, timings)
        backend = context.sql_backend_supplier()
        with _timed(timings, "sync"):
            backend.sync(context.encoding)
        with _timed(timings, "execute"):
            result = backend.execute(text, bindings=values or None, timeout_seconds=timeout_seconds)
        with _timed(timings, "decode"):
            items = _decode(compilation, result.columns, result.column)
            if not compilation.value_result:
                items = _own_pres(items, context.encoding.records)
        return items, 0, result.statement()

    return run


def _own_pres(items: list, records: Sequence) -> list:
    """``items`` with each ``pre`` rank swapped for the encoding's own object.

    ``records[i][0] == i``, so the swap keeps every value.  ``value_result``
    reads the return position's syntax only, so a node result may still
    carry a value: a float, a string or an int outside the ranks passes
    through unchanged.
    """
    count = len(records)
    return [
        records[item][0] if type(item) is int and 0 <= item < count else item
        for item in items
    ]


def _join_graph_sql(compilation, context, timings) -> str:
    """Isolated join graph on the RDBMS: the paper's production story."""
    # Refuse before planning, rendering, or building or syncing the mirror.
    check_join_width(compilation.join_graph.self_join_width)
    with _timed(timings, "render"):
        return sql_backend_sql(compilation, context)


def _stacked_sql(compilation, context, timings) -> str:
    """Stacked WITH-chain on the RDBMS: what Pathfinder ships unrewritten.

    Its ``doc`` scan states the document's row count, which the mirror's
    missing statistics would otherwise leave SQLite to guess.
    """
    return sized_stacked_sql(compilation.stacked_sql, len(context.encoding.records))


#: The engine table, oracle first; the processor, the serving layer's
#: fallback chains, the generated-query sweep and the differential tests
#: all iterate it.
ENGINES: tuple[Engine, ...] = (
    Engine("stacked", _interpret("stacked_plan")),
    Engine("isolated", _interpret("isolated_plan")),
    Engine("join-graph", _execute_join_graph, needs_join_graph=True, fallback=("stacked",)),
    Engine(
        "sql", _on_sqlite(_join_graph_sql),
        needs_join_graph=True, fallback=("join-graph", "stacked"),
    ),
    Engine("sql-stacked", _on_sqlite(_stacked_sql), fallback=("stacked",)),
)

_ENGINE_BY_NAME = {engine.name: engine for engine in ENGINES}


def run_sql(
    compilation: CompilationResult,
    context: ExecutionContext,
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """``execute_compiled`` on the ``sql`` engine."""
    return execute_compiled(compilation, context, "sql", timeout_seconds, bindings, timings)


def execute_compiled(
    compilation: CompilationResult,
    context: ExecutionContext,
    configuration: str = "auto",
    timeout_seconds: Optional[float] = None,
    bindings: Optional[Mapping[str, object]] = None,
    timings: Optional[StageTimings] = None,
) -> ExecutionOutcome:
    """Execute a compiled plan against a context on one engine of :data:`ENGINES`.

    This is the whole worker-side contract of the serving layer: a
    (compilation, context) pair plus a configuration name — no processor,
    no locks beyond the ones the context's members own.  In order:
    ``"auto"`` resolves to :attr:`CompilationResult.auto_engine`, an
    unknown name is rejected, an engine that needs a join graph refuses a
    query without one, the bindings are checked, and only then does the
    engine run — so no refused or mis-bound call syncs the SQLite mirror.
    """
    if configuration is None or configuration == "auto":
        configuration = compilation.auto_engine
    engine = _ENGINE_BY_NAME.get(configuration)
    if engine is None:
        expected = ", ".join(("auto", *_ENGINE_BY_NAME))
        raise ValueError(f"unknown configuration {configuration!r} (expected one of: {expected})")
    if engine.needs_join_graph:
        _join_graph(compilation)
    timings = {} if timings is None else timings
    with _timed(timings, "bind"):
        values = check_bindings(compilation.external_variables, bindings)
    items, scanned, details = engine.run(compilation, context, values, timeout_seconds, timings)
    return ExecutionOutcome(items, engine.name, scanned, details, timings)


def explain_compiled(
    compilation: CompilationResult,
    context: ExecutionContext,
    bindings: Optional[Mapping[str, object]] = None,
) -> str:
    """The relational back-end's execution plan for the query's join graph."""
    graph = _join_graph(compilation)
    values = check_bindings(compilation.external_variables, bindings)
    return context.engine.explain(graph, bindings=values or None)
