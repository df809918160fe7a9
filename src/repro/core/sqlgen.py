"""SQL emission.

Two renderings are provided:

* :func:`generate_join_graph_sql` — the single
  ``SELECT [DISTINCT] … FROM doc AS d1, … WHERE … ORDER BY …`` block of the
  isolated join graph (Fig. 8 and Fig. 9 of the paper).
* :func:`generate_stacked_sql` — a ``WITH``-chain rendering of the
  *unrewritten* stacked plan, one common table expression per operator,
  mirroring what Pathfinder ships to the back-end without join graph
  isolation (Section IV: "a SQL common table expression that features an
  equally large number of DISTINCT and RANK() OVER (ORDER BY …) clauses").
  It documents why the stacked configuration behaves the way it does; the
  benchmark harness executes the stacked plan with the algebra interpreter,
  which mirrors the staged SORT / temporary-table execution DB2 chooses for
  this SQL shape.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.algebra.dag import iter_nodes
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    DocTable,
    GroupAggregate,
    Join,
    LiteralTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.algebra.predicates import Comparison, Literal, Parameter, Sum
from repro.core.joingraph import AggregateSpec, ColumnTerm, JoinGraph, extract_join_graph
from repro.errors import JoinGraphError
from repro.xmldb.encoding import DOC_TABLE


def sql_term(term) -> str:
    """Render one predicate term as SQL: the join-graph block and the stacked
    WITH-chain alike.

    A parameter is SQLite's ``:name`` marker.  A constant must come out as
    a SQL literal: booleans as ``1``/``0`` (``True``/``False`` is not SQL;
    the bool test precedes the number case because ``bool`` is an
    ``int``), ``None`` as ``NULL`` and strings quoted with ``'`` doubled.
    A column is its (alias-qualified) name, and a pseudo or aggregate
    marker refuses with :class:`~repro.errors.JoinGraphError`.

    >>> sql_term(Sum(ColumnTerm("d1", "pre"), ColumnTerm("d1", "size")))
    'd1.pre + d1.size'
    >>> sql_term(Literal("O'Hara")), sql_term(Literal(True)), sql_term(Literal(None))
    ("'O''Hara'", '1', 'NULL')
    """
    if isinstance(term, ColumnTerm):  # the commonest term first
        return f"{term.alias}.{term.column}"
    if isinstance(term, Literal):
        value = term.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return str(value)
    if isinstance(term, Sum):
        return " + ".join(sql_term(part) for part in term.terms)
    if isinstance(term, Parameter):
        return f":{term.name}"
    return term.render()


def sql_comparison(comparison: Comparison) -> str:
    """``left op right`` in SQL (see :func:`sql_term`)."""
    return f"{sql_term(comparison.left)} {comparison.op} {sql_term(comparison.right)}"


def render_join_graph(graph: JoinGraph, join_order: Optional[Sequence[str]] = None) -> str:
    """Render a :class:`JoinGraph` as a single SFW block.

    With ``join_order`` (a permutation of ``graph.aliases``) the FROM clause
    lists the aliases in that order connected by ``CROSS JOIN`` instead of
    commas.  Semantically identical, but engines such as SQLite treat the
    explicit ``CROSS JOIN`` syntax as a join-order constraint, which lets a
    caller hand the access-path order chosen by a cost-based planner to a
    back-end whose own search would not find it (the n-fold self-joins of
    Fig. 8/9 routinely exceed SQLite's join-reorder search horizon).

    Every nested block is one of the graph's own sub-graphs
    (:meth:`~repro.core.joingraph.JoinGraph.outer_block` and its siblings)
    rendered by :func:`_render_block`; this function only adds the wrappers:
    a rank's ``DENSE_RANK`` column joined back on its key terms, a
    where-aggregate's scalar ``(SELECT agg ...)``, and an aggregate's native
    ``COUNT``/``SUM``/``AVG`` — ``LEFT JOIN ... GROUP BY`` over the pre/level
    encoding for the nested form, a scalar aggregate for the top-level form.
    """
    if join_order is not None and sorted(join_order) != sorted(graph.aliases):
        raise JoinGraphError(
            f"join_order {list(join_order)} is not a permutation of the "
            f"graph's aliases {graph.aliases}"
        )
    if graph.aggregate is not None:
        return _render_aggregate(graph, join_order)
    tables: list[str] = []
    filters: list[str] = []
    for position, window in enumerate(graph.windows, start=1):
        spec, wt = window.spec, f"w{position}"
        over = []
        if spec.partition:
            over.append("PARTITION BY " + ", ".join(map(sql_term, spec.partition)))
        over.append("ORDER BY " + ", ".join(map(sql_term, spec.order)))
        ranked = f"DENSE_RANK() OVER ({' '.join(over)}) AS rnk"
        derived = _render_block(graph.window_block(spec), join_order, ranked=ranked)
        tables.append(f"({_indent(derived)}) AS {wt}")
        for key_index, term in enumerate(spec.key_terms()):
            filters.append(f"{wt}.k{key_index} = {sql_term(term)}")
        filters.append(f"{wt}.rnk {window.op} {sql_term(window.value)}")
    for having in graph.having:
        # Correlated and scalar (no GROUP BY): exactly one row even for an
        # empty argument, which keeps ``fn:count(...) = 0`` satisfiable.
        argument = _indent(_render_block(graph.having_argument(having), join_order))
        subquery = f"SELECT {_aggregate_expression(having.spec, 'h')}\nFROM ({argument}) AS h"
        filters.append(f"({_indent(subquery)}) {having.op} {sql_term(having.value)}")
    return _render_block(graph.outer_block(), join_order, tables=tables, filters=filters)


def _indent(sql: str) -> str:
    return sql.replace("\n", "\n  ")


def _render_block(
    block: JoinGraph,
    join_order: Optional[Sequence[str]],
    ranked: str = "",
    tables: Sequence[str] = (),
    filters: Sequence[str] = (),
    ordered: bool = True,
) -> str:
    """One SFW block, plus a wrapper's extra column, FROM tables and WHERE filters.

    A block without aliases renders FROM-less, SQL's one-row ``SELECT``.
    """
    items = [f"{sql_term(term)} AS {name}" for term, name in block.select_items]
    if ranked:
        items.append(ranked)
    distinct = "DISTINCT " if block.distinct else ""
    lines = [f"SELECT {distinct}" + ",\n       ".join(items)]
    aliases = block.aliases
    conditions = block.conditions
    if join_order is not None:
        aliases = [alias for alias in join_order if alias in block.aliases]
        position = {alias: index for index, alias in enumerate(aliases)}
        conditions = [_probe_level(condition, position) for condition in conditions]
    sources = [f"{DOC_TABLE} AS {alias}" for alias in aliases]
    if join_order is not None and sources:
        sources = ["\n     CROSS JOIN ".join(sources)]
    # A derived table joins by comma, after the pinned chain: SQLite is then
    # free to scan it once as the outer loop and probe ``doc`` by rowid.
    sources += tables
    if sources:
        lines.append("FROM " + ",\n     ".join(sources))
    where = [sql_comparison(condition) for condition in conditions] + list(filters)
    if where:
        lines.append("WHERE " + "\n  AND ".join(where))
    if ordered and block.order_terms:
        lines.append("ORDER BY " + ", ".join(map(sql_term, block.order_terms)))
    return "\n".join(lines)


def _probe_level(condition: Comparison, position: Mapping[str, int]) -> Comparison:
    """``a.level + k = b.level`` as ``a.level = b.level + -k`` when ``a`` joins after ``b``.

    The later alias is the one probed, and SQLite seeks an index only on a
    bare column: so oriented, ``doc_idx_nklp`` serves an ancestor step's
    ``level`` too.  An alias ``position`` lacks is a correlated outer one,
    bound before the block's own.

    >>> up = Comparison(Sum(ColumnTerm("d4", "level"), Literal(2)), "=", ColumnTerm("d12", "level"))
    >>> sql_comparison(_probe_level(up, {"d12": 0, "d4": 1}))
    'd4.level = d12.level + -2'
    >>> sql_comparison(_probe_level(up, {"d4": 0, "d12": 1}))
    'd4.level + 2 = d12.level'
    """
    left, right = condition.left, condition.right
    if condition.op == "=" and isinstance(left, Sum) and isinstance(right, ColumnTerm):
        if len(left.terms) == 2 and right.column == "level":
            column, offset = left.terms
            if (
                isinstance(column, ColumnTerm)
                and column.column == "level"
                and isinstance(offset, Literal)
                and position.get(column.alias, -1) > position.get(right.alias, -1)
            ):
                return Comparison(column, "=", Sum(right, Literal(-offset.value)))
    return condition


def _render_aggregate(graph: JoinGraph, join_order: Optional[Sequence[str]]) -> str:
    """The pushed-down aggregate (Section III-C widening).

    * **scalar** (top-level ``fn:count(...)``): one aggregate over the
      argument bundle;
    * **nested** (``for $v ... return fn:count(...)``): the outer iteration
      bundle LEFT JOINed to the argument bundle, ``GROUP BY`` the iteration
      identity — ``COUNT`` counts matched rows (0 for empty groups), ``SUM``
      completes empty groups via COALESCE, ``AVG`` leaves them NULL (the
      decode's "empty sequence" marker).
    """
    spec = graph.aggregate
    aggregate = _aggregate_expression(spec, "i")
    inner = _indent(_render_block(graph.aggregate_inner(), join_order))
    if spec.is_scalar:
        return f"SELECT {aggregate} AS item\nFROM ({inner}) AS i"
    outer = graph.aggregate_outer()
    names = {term: name for term, name in outer.select_items}
    select_list = [f"{aggregate} AS item"]
    select_list.extend(f"o.{names[term]} AS {name}" for term, name in graph.select_items[1:])
    lines = [
        f"SELECT {', '.join(select_list)}",
        f"FROM ({_indent(_render_block(outer, join_order, ordered=False))}) AS o",
        f"LEFT JOIN ({inner}) AS i ON i.g = o.g",
        "GROUP BY " + ", ".join(f"o.{name}" for _term, name in outer.select_items),
    ]
    if outer.order_terms:
        lines.append("ORDER BY " + ", ".join(f"o.{names[term]}" for term in outer.order_terms))
    return "\n".join(lines)


def _aggregate_expression(spec: AggregateSpec, alias: str) -> str:
    """The native aggregate over the argument block's output columns."""
    _items, count_column, value_column = spec.inner_items()
    if spec.function == "count":
        return f"COUNT({alias}.{count_column})"
    if spec.function == "sum":
        return f"COALESCE(SUM({alias}.{value_column}), 0)"
    return f"AVG({alias}.{value_column})"


def generate_join_graph_sql(plan: Operator) -> str:
    """Extract the join graph of an isolated plan and render it as SQL."""
    graph = plan if isinstance(plan, JoinGraph) else extract_join_graph(plan)
    return render_join_graph(graph)


# ---------------------------------------------------------------------------
# Stacked (CTE) rendering of the unrewritten plan
# ---------------------------------------------------------------------------


def generate_stacked_sql(plan: Operator) -> str:
    """Render the (unrewritten) stacked plan as a WITH-chain, one CTE per operator."""
    names: dict[int, str] = {}
    definitions: list[str] = []

    def name_of(node: Operator) -> str:
        return names[id(node)]

    for index, node in enumerate(iter_nodes(plan)):
        cte = f"t{index}"
        names[id(node)] = cte
        definitions.append(f"{cte} AS ({_render_operator(node, name_of)})")
    final = names[id(plan)]
    body = ",\n     ".join(definitions)
    return f"WITH {body}\nSELECT * FROM {final}"


_DOC_SCAN = f"SELECT * FROM {DOC_TABLE}"

#: The row count SQLite assumes for a table it holds no statistics for.
SQLITE_UNANALYZED_ROWS = 1 << 20


def sized_stacked_sql(stacked_sql: str, rows: int) -> str:
    """``stacked_sql`` with its ``doc`` scan sized at ``rows`` for SQLite's planner.

    The mirror holds no statistics, so SQLite plans ``doc`` at
    :data:`SQLITE_UNANALYZED_ROWS` rows, and every CTE of the chain inherits
    that size from the scan: at XMark scale 0.5 Q1 then probes its text
    nodes before the culling window, 7x slower.  An always-true
    ``likelihood`` filter states the real count; the answer is unchanged.

    >>> sized_stacked_sql("WITH t0 AS (SELECT * FROM doc)\\nSELECT * FROM t0", 1 << 18)
    'WITH t0 AS (SELECT * FROM doc WHERE likelihood(size >= 0, 0.25))\\nSELECT * FROM t0'
    """
    share = min(1.0, rows / SQLITE_UNANALYZED_ROWS)
    sized = f"{_DOC_SCAN} WHERE likelihood(size >= 0, {share!r})"
    return stacked_sql.replace(f"({_DOC_SCAN})", f"({sized})")


def _render_operator(node: Operator, name_of) -> str:
    if isinstance(node, DocTable):
        return _DOC_SCAN
    if isinstance(node, LiteralTable):
        if not node.rows:
            selects = ", ".join(f"NULL AS {column}" for column in node.columns)
            return f"SELECT {selects} WHERE 1 = 0"
        rows = []
        for row in node.rows:
            values = ", ".join(
                f"{sql_term(Literal(value))} AS {column}"
                for column, value in zip(node.columns, row)
            )
            rows.append(f"SELECT {values}")
        return " UNION ALL ".join(rows)
    if isinstance(node, Serialize):
        return f"SELECT * FROM {name_of(node.child)}"
    if isinstance(node, Project):
        items = ", ".join(
            old if new == old else f"{old} AS {new}" for new, old in node.items
        )
        return f"SELECT {items} FROM {name_of(node.child)}"
    if isinstance(node, Select):
        predicate = " AND ".join(map(sql_comparison, node.predicate.conjuncts))
        return f"SELECT * FROM {name_of(node.child)} WHERE {predicate}"
    if isinstance(node, Distinct):
        return f"SELECT DISTINCT * FROM {name_of(node.child)}"
    if isinstance(node, Attach):
        value = sql_term(Literal(node.value))
        return f"SELECT *, {value} AS {node.column} FROM {name_of(node.child)}"
    if isinstance(node, RowId):
        # ROW_NUMBER() OVER () leaves the numbering to the engine's arbitrary
        # row order; ordering over the operator's input columns keeps stacked
        # SQL deterministic on a real RDBMS (# only promises *unique* ids, so
        # any fixed total order is a valid refinement).
        order = ", ".join(node.child.columns)
        return (
            f"SELECT *, ROW_NUMBER() OVER (ORDER BY {order}) AS {node.column} "
            f"FROM {name_of(node.child)}"
        )
    if isinstance(node, RowRank):
        order = ", ".join(node.order_by)
        partition = ""
        if node.partition_by:
            partition = f"PARTITION BY {', '.join(node.partition_by)} "
        return (
            f"SELECT *, RANK() OVER ({partition}ORDER BY {order}) AS {node.column} "
            f"FROM {name_of(node.child)}"
        )
    if isinstance(node, Join):
        predicate = " AND ".join(map(sql_comparison, node.predicate.conjuncts))
        return (
            f"SELECT * FROM {name_of(node.left)}, {name_of(node.right)} WHERE {predicate}"
        )
    if isinstance(node, Cross):
        return f"SELECT * FROM {name_of(node.left)}, {name_of(node.right)}"
    if isinstance(node, GroupAggregate):
        # One output row per loop row with the group's native aggregate over
        # the DISTINCT (group, unit, value) rows of the argument; the LEFT
        # JOIN completes empty groups (COUNT -> 0, SUM -> COALESCE 0);
        # fn:avg over an empty group is the empty sequence, hence the HAVING.
        loop_columns = ", ".join(f"l.{column} AS {column}" for column in node.loop.columns)
        group_by = ", ".join(f"l.{column}" for column in node.loop.columns)
        argument_columns = [node.group_column, node.unit_column]
        if node.value_column is not None:
            argument_columns.append(node.value_column)
        argument = (
            "SELECT DISTINCT "
            + ", ".join(argument_columns)
            + f" FROM {name_of(node.child)}"
        )
        if node.function == "count":
            aggregate = f"COUNT(c.{node.unit_column})"
            having = ""
        elif node.function == "sum":
            aggregate = f"COALESCE(SUM(c.{node.value_column}), 0)"
            having = ""
        else:
            aggregate = f"AVG(c.{node.value_column})"
            having = f" HAVING AVG(c.{node.value_column}) IS NOT NULL"
        return (
            f"SELECT {loop_columns}, {aggregate} AS {node.item_column} "
            f"FROM {name_of(node.loop)} AS l "
            f"LEFT JOIN ({argument}) AS c ON c.{node.group_column} = l.{node.group_column} "
            f"GROUP BY {group_by}{having}"
        )
    raise TypeError(f"cannot render operator {type(node).__name__}")
