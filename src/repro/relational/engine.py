"""Query engine facade: execute isolated join graphs against the catalog.

Example — extract a join graph through the pipeline and run it here:

>>> from repro.core.pipeline import XQueryProcessor
>>> from repro.xmldb.encoding import encode_document
>>> from repro.xmldb.parser import parse_xml
>>> encoding = encode_document(parse_xml("<a><b>1</b><b>2</b></a>", uri="t.xml"))
>>> processor = XQueryProcessor(encoding, default_document="t.xml")
>>> graph = processor.compile("//b").join_graph
>>> processor.engine.execute(graph).items()
[2, 4]

Join graphs of prepared queries carry :class:`~repro.algebra.predicates.Parameter`
slots; pass ``bindings`` to resolve them at execution time:

>>> prepared = processor.compile(
...     'declare variable $n as xs:decimal external; //b[. > $n]')
>>> processor.engine.execute(prepared.join_graph, bindings={"n": 1.0}).items()
[4]
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from repro.errors import PlanningError
from repro.algebra import columnar as _columnar
from repro.algebra.operators import fold_aggregate
from repro.algebra.predicates import Literal, _compare
from repro.core.joingraph import JoinGraph
from repro.core.sqlgen import sql_term
from repro.relational.catalog import Database
from repro.relational.optimizer.planner import PlannedQuery, Planner
from repro.relational.physical.operators import ExecutionContext

#: Physical programs one engine keeps, least recently used evicted first.
PROGRAM_CACHE_SIZE = 64


def _constant_value(term) -> object:
    """The bound comparison value of a window / HAVING filter."""
    if isinstance(term, Literal):
        return term.value
    raise PlanningError(f"filter value {term!r} is not bound to a constant")


@dataclass
class QueryResult:
    """Rows produced by one join-graph execution plus execution counters."""

    rows: list[dict[str, object]]
    plan: PlannedQuery
    rows_scanned: int
    index_probes: int

    def items(self) -> list[object]:
        """The result node sequence (the ``item`` output column, in order)."""
        return [row["item"] for row in self.rows]


class _Program:
    """What one ``(graph, bound values)`` pair compiles to on one engine.

    Every block :meth:`RelationalEngine.execute` plans is one of the
    resolved graph's own sub-graphs — outer block, window scopes, having
    bundles, aggregate inner / outer — the ones the SQL rendering reads.
    Each :class:`PlannedQuery` is derived by its first reader and then
    shared: planned operator trees are immutable and all per-call state
    lives in an ``ExecutionContext``, so any number of threads run one
    program at once.  (Racing first reads may each plan; one of the equal
    plans is kept.)
    """

    def __init__(self, planner: Planner, graph: JoinGraph, resolved: JoinGraph):
        self.planner = planner
        #: The caller's graph, held because the memo is keyed on its ``id``.
        self.graph = graph
        self.resolved = resolved

    @cached_property
    def planned(self) -> PlannedQuery:
        """The plan :meth:`RelationalEngine.plan` reports (aggregates: the inner bundle)."""
        graph = self.resolved
        return self.planner.plan(graph if graph.aggregate is None else graph.aggregate_inner())

    @cached_property
    def aggregate_outer(self) -> PlannedQuery:
        """The iteration rows of a grouped aggregate (outer bundle)."""
        return self.planner.plan(self.resolved.aggregate_outer())

    @cached_property
    def filtered_main(self) -> tuple[JoinGraph, Optional[PlannedQuery], list[tuple]]:
        """The outer block of a windowed / having graph, its plan, its row checks.

        The block carries a hidden output column per filter key term.  A
        check is ``(hidden names, op, value, default)``, windows first, in
        the order of :attr:`filter_plans`.  A block without aliases has no
        plan: it is one row of its constant select items.
        """
        graph = self.resolved
        main = graph.outer_block()
        checks: list[tuple] = []
        for w_index, window in enumerate(graph.windows):
            names = []
            for k_index, term in enumerate(window.spec.key_terms()):
                names.append(f"_w{w_index}k{k_index}")
                main.select_items.append((term, names[-1]))
            checks.append((names, window.op, _constant_value(window.value), None))
        for h_index, having in enumerate(graph.having):
            main.select_items.append((having.spec.group, f"_h{h_index}g"))
            default = 0 if having.spec.function != "avg" else None
            checks.append(([f"_h{h_index}g"], having.op, _constant_value(having.value), default))
        return main, self.planner.plan(main) if main.aliases else None, checks

    @cached_property
    def filter_plans(self) -> list[tuple[PlannedQuery, object]]:
        """One ``(block plan, spec)`` per window scope, then per having bundle."""
        graph = self.resolved
        plans = [
            (self.planner.plan(graph.window_block(window.spec)), window.spec)
            for window in graph.windows
        ]
        plans.extend(
            (self.planner.plan(graph.having_bundle(having)), having.spec)
            for having in graph.having
        )
        return plans


def _group_values(spec, rows: list[dict[str, object]]) -> dict[object, list]:
    """The argument rows' values (``None`` for ``count``) per group, for :func:`fold_aggregate`."""
    value_column = spec.inner_items()[2]
    groups: dict[object, list] = {}
    for row in rows:
        groups.setdefault(row["g"], []).append(row.get(value_column))
    return groups


class RelationalEngine:
    """Plan and execute join graphs against an in-memory :class:`Database`.

    The engine memoises one compiled :class:`_Program` per ``(graph
    identity, bound values)`` in a fixed-size LRU, so a prepared call
    executes without re-planning.  There is one engine per catalog snapshot
    and its database never changes, so the memo needs no invalidation: it
    is dropped with the snapshot.
    """

    def __init__(self, database: Database):
        self.database = database
        self.planner = Planner(database)
        self._programs: OrderedDict[tuple, _Program] = OrderedDict()
        self._programs_lock = threading.Lock()

    def _program(
        self, graph: JoinGraph, bindings: Optional[Mapping[str, object]]
    ) -> _Program:
        """The (memoised) program of ``graph`` under exactly these bound values."""
        key = (id(graph), *sorted((n, type(v), v) for n, v in (bindings or {}).items()))
        with self._programs_lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
                return program
        program = _Program(self.planner, graph, self._resolve(graph, bindings))
        with self._programs_lock:
            program = self._programs.setdefault(key, program)
            while len(self._programs) > PROGRAM_CACHE_SIZE:
                self._programs.popitem(last=False)
        return program

    def _resolve(self, graph: JoinGraph, bindings: Optional[Mapping[str, object]]) -> JoinGraph:
        """Late-bind parameter slots; refuse to plan a graph with open slots."""
        if bindings:
            graph = graph.bind(bindings)
        unbound = graph.parameters()
        if unbound:
            slots = ", ".join(f":{name}" for name in sorted(unbound))
            raise PlanningError(
                f"join graph has unbound parameter(s) {slots}; supply bindings"
            )
        return graph

    def plan(
        self, graph: JoinGraph, bindings: Optional[Mapping[str, object]] = None
    ) -> PlannedQuery:
        """Produce (and return) the physical plan without executing it.

        Planning happens *after* parameter binding, so access-path selection
        and join ordering see the concrete values (the paper's Fig. 11 plan
        for Q2 starts at the ``price > 500`` selection for exactly this
        reason).  For a graph with a pushed-down aggregate the plan covers
        the *inner* bundle — the join-heavy part :meth:`execute` runs and
        whose join order the SQL rendering pins; the aggregation/completion
        tail is described by :meth:`explain`.
        """
        return self._program(graph, bindings).planned

    def explain(
        self, graph: JoinGraph, bindings: Optional[Mapping[str, object]] = None
    ) -> str:
        """DB2-style textual explain of the chosen execution plan."""
        program = self._program(graph, bindings)
        spec = program.resolved.aggregate
        if spec is None:
            return program.planned.explain()
        grouping = "scalar" if spec.is_scalar else f"GROUP BY {sql_term(spec.group)}"
        lines = [f"AGGREGATE {spec.function.upper()} [{grouping}]"]
        lines.extend("  " + line for line in program.planned.explain().splitlines())
        return "\n".join(lines)

    def execute(
        self,
        graph: JoinGraph,
        timeout_seconds: Optional[float] = None,
        bindings: Optional[Mapping[str, object]] = None,
    ) -> QueryResult:
        """Execute ``graph``'s program; raises ``QueryTimeoutError`` on budget overrun."""
        program = self._program(graph, bindings)
        if program.resolved.aggregate is not None:
            return self._execute_aggregate(program, timeout_seconds)
        if program.resolved.windows or program.resolved.having:
            return self._execute_filtered(program, timeout_seconds)
        ctx = ExecutionContext(timeout_seconds)
        rows = program.planned.root.results(ctx)
        return QueryResult(
            rows=rows,
            plan=program.planned,
            rows_scanned=ctx.rows_scanned,
            index_probes=ctx.index_probes,
        )

    # -- windowed / having graphs --------------------------------------------------

    def _execute_filtered(
        self, program: _Program, timeout_seconds: Optional[float]
    ) -> QueryResult:
        """Execute a graph carrying window (positional) or HAVING filters.

        The main block's rows carry hidden key columns; every window's dense
        ranks are computed over the window's own scope, every where-aggregate
        is folded over its argument bundle, and rows are filtered in order.
        """
        main, planned, checks = program.filtered_main
        ctx = ExecutionContext(timeout_seconds)
        if planned is None:  # SQL's FROM-less SELECT
            rows = [{name: _constant_value(term) for term, name in main.select_items}]
            planned = program.planned
        else:
            rows = planned.root.results(ctx)
        scanned, probes = ctx.rows_scanned, ctx.index_probes
        lookups: list[dict[tuple, object]] = []
        windows = len(program.resolved.windows)
        for number, (scope, spec) in enumerate(program.filter_plans):
            ctx = ExecutionContext(timeout_seconds)
            evaluate = self._window_ranks if number < windows else self._having_values
            lookups.append(evaluate(scope, spec, ctx))
            scanned += ctx.rows_scanned
            probes += ctx.index_probes
        kept: list[dict[str, object]] = []
        for row in rows:
            for (names, op, value, default), lookup in zip(checks, lookups):
                actual = lookup.get(tuple(row[name] for name in names), default)
                if not _compare(actual, op, value):
                    break
            else:
                kept.append({k: v for k, v in row.items() if not k.startswith("_")})
        return QueryResult(rows=kept, plan=planned, rows_scanned=scanned, index_probes=probes)

    def _window_ranks(
        self, planned: PlannedQuery, spec, ctx: ExecutionContext
    ) -> dict[tuple, int]:
        """Dense ranks over the window's scope, keyed by (partition, order).

        One ``lexsort`` over the key columns' order ranks; equal keys get
        equal ranks, so the scope plan's SORT DISTINCT tail is skipped.
        """
        columns = planned.root.value_set_columns(ctx)
        width = len(spec.partition)
        n = columns[0].length if columns else 0
        ranks = _columnar.rank_values(columns[width:], columns[:width], n, dense=True)
        return dict(zip(zip(*(column.tolist() for column in columns)), ranks.tolist()))

    def _having_values(
        self, planned: PlannedQuery, spec, ctx: ExecutionContext
    ) -> dict[tuple, object]:
        """Fold one where-aggregate's argument bundle per group value."""
        groups = _group_values(spec, planned.root.results(ctx))
        return {(group,): fold_aggregate(spec.function, values) for group, values in groups.items()}

    # -- aggregate graphs ---------------------------------------------------------

    def _execute_aggregate(
        self, program: _Program, timeout_seconds: Optional[float]
    ) -> QueryResult:
        """Execute a graph whose tail aggregates the bundle.

        The SQL rendering's two blocks on the in-tree operators: the
        *inner* bundle (all aliases/conditions, DISTINCT over the
        aggregate's inputs) is executed once, then folded per group; the
        *outer* bundle supplies the iteration rows —
        including iterations with no argument rows at all (count/sum
        complete them with 0, avg drops them).
        """
        graph = program.resolved
        spec = graph.aggregate
        assert spec is not None
        inner_ctx = ExecutionContext(timeout_seconds)
        groups = _group_values(spec, program.planned.root.results(inner_ctx))
        if spec.is_scalar:
            value = fold_aggregate(spec.function, [v for values in groups.values() for v in values])
            rows = [] if value is None else [{"item": value}]
            return QueryResult(
                rows=rows,
                plan=program.planned,
                rows_scanned=inner_ctx.rows_scanned,
                index_probes=inner_ctx.index_probes,
            )
        outer_ctx = ExecutionContext(timeout_seconds)
        outer = program.aggregate_outer
        names = {term: name for term, name in outer.graph.select_items}
        rows = []
        for outer_row in outer.root.results(outer_ctx):
            value = fold_aggregate(spec.function, groups.get(outer_row["g"], []))
            if value is None:
                continue
            produced: dict[str, object] = {"item": value}
            for term, name in graph.select_items[1:]:
                produced[name] = outer_row[names[term]]
            rows.append(produced)
        return QueryResult(
            rows=rows,
            plan=outer,
            rows_scanned=inner_ctx.rows_scanned + outer_ctx.rows_scanned,
            index_probes=inner_ctx.index_probes + outer_ctx.index_probes,
        )
