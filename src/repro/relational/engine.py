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

Join graphs of prepared queries carry :class:`~repro.core.joingraph.ParameterTerm`
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
from repro.core.joingraph import ConstantTerm, JoinGraph, PlanTail
from repro.core.sqlgen import aggregate_inner_items, _having_excluded
from repro.relational.catalog import Database
from repro.relational.optimizer.planner import PlannedQuery, Planner
from repro.relational.physical.operators import ExecutionContext

#: Physical programs one engine keeps, least recently used evicted first.
PROGRAM_CACHE_SIZE = 64


def _constant_value(term) -> object:
    """The bound comparison value of a window / HAVING filter."""
    if isinstance(term, ConstantTerm):
        return term.value
    raise PlanningError(f"filter value {term!r} is not bound to a constant")


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare(actual: object, op: str, value: object) -> bool:
    """SQL comparison semantics: any comparison against NULL is not-true."""
    if actual is None or value is None:
        return False
    return _COMPARATORS[op](actual, value)


def _set_valued_graph(graph: JoinGraph, aliases, conditions, select_items) -> JoinGraph:
    """A sub-block of ``graph`` whose rows only ever land in sets or groups."""
    return JoinGraph(
        aliases=aliases,
        table_name=graph.table_name,
        conditions=conditions,
        select_items=select_items,
        order_terms=[],
        distinct=True,  # a rank / aggregate owns its key dedup
        tail=PlanTail(distinct=True, order_terms=[], output_column=select_items[0][1]),
    )


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

    Every sub-graph :meth:`RelationalEngine.execute` derives from the
    resolved graph — filtered main block, window scopes, having bundles,
    aggregate inner / outer — and its :class:`PlannedQuery`, each derived by
    its first reader and then shared: planned operator trees are immutable
    and all per-call state lives in an ``ExecutionContext``, so any number
    of threads run one program at once.  (Racing first reads may each plan;
    one of the equal plans is kept.)
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
        if graph.aggregate is None:
            return self.planner.plan(graph)
        items, _count_column, _value_column = aggregate_inner_items(graph.aggregate)
        return self.planner.plan(
            _set_valued_graph(graph, list(graph.aliases), list(graph.conditions), list(items))
        )

    @cached_property
    def aggregate_outer(self) -> PlannedQuery:
        """The iteration rows of a grouped aggregate (outer bundle)."""
        graph, spec = self.resolved, self.resolved.aggregate
        return self.planner.plan(
            JoinGraph(
                aliases=graph.aliases[: spec.outer_alias_count],
                table_name=graph.table_name,
                conditions=graph.conditions[: spec.outer_condition_count],
                select_items=[(spec.group, "g")] + list(graph.select_items[1:]),
                order_terms=list(graph.order_terms),
                distinct=spec.outer_distinct,
                tail=PlanTail(
                    distinct=spec.outer_distinct,
                    order_terms=list(graph.order_terms),
                    output_column="g",
                ),
            )
        )

    @cached_property
    def filtered_main(self) -> tuple[PlannedQuery, list[tuple]]:
        """The main block of a windowed / having graph, and its row checks.

        Mirrors the SQL rendering: the main block runs without the
        aggregates' argument bundles, with hidden output columns for each
        filter's key terms.  A check is ``(hidden names, op, value,
        default)``, windows first, in the order of :attr:`filter_plans`.
        """
        graph = self.resolved
        excluded_aliases, excluded_conditions = _having_excluded(graph)
        select_items = list(graph.select_items)
        checks: list[tuple] = []
        for w_index, window in enumerate(graph.windows):
            names = []
            for k_index, term in enumerate(window.spec.key_terms()):
                names.append(f"_w{w_index}k{k_index}")
                select_items.append((term, names[-1]))
            checks.append((names, window.op, _constant_value(window.value), None))
        for h_index, having in enumerate(graph.having):
            select_items.append((having.spec.group, f"_h{h_index}g"))
            default = 0 if having.spec.function != "avg" else None
            checks.append(([f"_h{h_index}g"], having.op, _constant_value(having.value), default))
        main_graph = JoinGraph(
            aliases=[a for i, a in enumerate(graph.aliases) if i not in excluded_aliases],
            table_name=graph.table_name,
            conditions=[
                c for i, c in enumerate(graph.conditions) if i not in excluded_conditions
            ],
            select_items=select_items,
            order_terms=list(graph.order_terms),
            distinct=graph.distinct,
            tail=graph.tail,
        )
        return self.planner.plan(main_graph), checks

    @cached_property
    def filter_plans(self) -> list[tuple[PlannedQuery, object]]:
        """One ``(scope plan, spec)`` per window, then per where-aggregate.

        A window's scope is the key terms' join closure within the rank's
        prefix (:meth:`WindowSpec.scope`, shared with the SQL rendering), so
        disconnected prefix components never blow up the rank pass.  A
        where-aggregate's bundle covers its outer prefix (minus any *other*
        where-aggregate's argument ranges) plus its own inner range, so
        correlations to the loop aliases resolve while sibling aggregates
        stay out of each other's way.
        """
        graph = self.resolved
        plans = []
        for window in graph.windows:
            spec = window.spec
            items = [(term, f"k{index}") for index, term in enumerate(spec.key_terms())]
            scope = _set_valued_graph(graph, *spec.scope(graph), items)
            plans.append((self.planner.plan(scope), spec))
        excluded_aliases, excluded_conditions = _having_excluded(graph)
        for having in graph.having:
            spec = having.spec
            own_aliases = range(spec.outer_alias_count, having.alias_count)
            own_conditions = range(spec.outer_condition_count, having.condition_count)
            aliases = [
                graph.aliases[index]
                for index in range(having.alias_count)
                if index in own_aliases or index not in excluded_aliases
            ]
            conditions = [
                graph.conditions[index]
                for index in range(having.condition_count)
                if index in own_conditions or index not in excluded_conditions
            ]
            items, _count_column, _value_column = aggregate_inner_items(spec)
            bundle = _set_valued_graph(graph, aliases, conditions, list(items))
            plans.append((self.planner.plan(bundle), spec))
        return plans


def _folder(spec):
    """fn:count / fn:sum / fn:avg over one group's argument rows, as a closure."""
    value_column = aggregate_inner_items(spec)[2]

    def fold(rows: list[dict[str, object]]) -> Optional[object]:
        if spec.function == "count":
            return len(rows)
        values = [row[value_column] for row in rows if row[value_column] is not None]
        if spec.function == "sum":
            return sum(values) if values else 0
        return sum(values) / len(values) if values else None  # avg(()) = ()

    return fold


class RelationalEngine:
    """Plan and execute join graphs against an in-memory :class:`Database`.

    ``columnar`` selects the vectorized physical paths (mask scans, columnar
    hash joins, batch rank passes); ``False`` pins the row-at-a-time
    operators, kept as the differential baseline.

    The engine memoises one compiled :class:`_Program` per ``(graph
    identity, bound values)`` in a fixed-size LRU, so a prepared call
    executes without re-planning.  There is one engine per catalog snapshot
    and its database never changes, so the memo needs no invalidation: it
    is dropped with the snapshot.
    """

    def __init__(self, database: Database, columnar: bool = True):
        self.database = database
        self.columnar = columnar
        self.planner = Planner(database)
        self._programs: OrderedDict[tuple, _Program] = OrderedDict()
        self._programs_lock = threading.Lock()

    def _context(self, timeout_seconds: Optional[float]) -> ExecutionContext:
        return ExecutionContext(timeout_seconds, columnar=self.columnar)

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
        grouping = "scalar" if spec.is_scalar else f"GROUP BY {spec.group.render()}"
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
        ctx = self._context(timeout_seconds)
        rows = list(program.planned.root.results(ctx))
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
        planned, checks = program.filtered_main
        ctx = self._context(timeout_seconds)
        rows = list(planned.root.results(ctx))
        scanned, probes = ctx.rows_scanned, ctx.index_probes
        lookups: list[dict[tuple, object]] = []
        windows = len(program.resolved.windows)
        for number, (scope, spec) in enumerate(program.filter_plans):
            ctx = self._context(timeout_seconds)
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

        Column-wise when the scope plan can produce columns (the keys land in
        per-partition *sets*, so its SORT DISTINCT tail is skipped), through
        the row path otherwise (e.g. index nested-loop plans).
        """
        columns = planned.root.value_set_columns(ctx) if self.columnar else None
        if columns is not None:
            keys = zip(*columns)
        else:
            keys = (tuple(row.values()) for row in planned.root.results(ctx))
        partition_width = len(spec.partition)
        partitions: dict[tuple, set[tuple]] = {}
        for key in keys:
            partitions.setdefault(key[:partition_width], set()).add(key[partition_width:])
        ranks: dict[tuple, int] = {}
        for partition_key, order_keys in partitions.items():
            for order_key, rank in _columnar.dense_rank_map(order_keys).items():
                ranks[partition_key + order_key] = rank
        return ranks

    def _having_values(
        self, planned: PlannedQuery, spec, ctx: ExecutionContext
    ) -> dict[tuple, object]:
        """Fold one where-aggregate's argument bundle per group value."""
        groups: dict[object, list[dict[str, object]]] = {}
        for row in planned.root.results(ctx):
            groups.setdefault(row["g"], []).append(row)
        fold = _folder(spec)
        return {(group,): fold(rows) for group, rows in groups.items()}

    # -- aggregate graphs ---------------------------------------------------------

    def _execute_aggregate(
        self, program: _Program, timeout_seconds: Optional[float]
    ) -> QueryResult:
        """Execute a graph whose tail aggregates the bundle.

        Mirrors the SQL rendering's two-level shape on the in-tree operators:
        the *inner* bundle (all aliases/conditions, deduplicated on the δ
        identity when the argument was ddo'd) is executed once, then folded
        per group; the *outer* bundle supplies the iteration rows —
        including iterations with no argument rows at all (count/sum
        complete them with 0, avg drops them).
        """
        graph = program.resolved
        spec = graph.aggregate
        assert spec is not None
        fold = _folder(spec)
        inner_ctx = self._context(timeout_seconds)
        inner_rows = list(program.planned.root.results(inner_ctx))
        if spec.is_scalar:
            value = fold(inner_rows)
            rows = [] if value is None else [{"item": value}]
            return QueryResult(
                rows=rows,
                plan=program.planned,
                rows_scanned=inner_ctx.rows_scanned,
                index_probes=inner_ctx.index_probes,
            )
        outer_ctx = self._context(timeout_seconds)
        groups: dict[object, list[dict[str, object]]] = {}
        for row in inner_rows:
            groups.setdefault(row["g"], []).append(row)
        rows = []
        for outer_row in program.aggregate_outer.root.results(outer_ctx):
            value = fold(groups.get(outer_row["g"], []))
            if value is None:
                continue
            produced: dict[str, object] = {"item": value}
            for _term, name in graph.select_items[1:]:
                produced[name] = outer_row[name]
            rows.append(produced)
        return QueryResult(
            rows=rows,
            plan=program.aggregate_outer,
            rows_scanned=inner_ctx.rows_scanned + outer_ctx.rows_scanned,
            index_probes=inner_ctx.index_probes + outer_ctx.index_probes,
        )
