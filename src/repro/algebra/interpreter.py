"""Reference interpreter for table algebra plans.

The interpreter evaluates a plan DAG bottom-up, **materialising every
operator's result** — including each δ and ϱ — just like the staged
execution the paper observes when DB2 evaluates the stacked common table
expression translation ("numerous SORT primitives followed by temporary
table scans").  It therefore doubles as

* the executable semantics of the algebra (tests compare the rewritten
  plan's results against it), and
* the *stacked plan* configuration of the Table IX experiment.

Shared sub-plans are evaluated once (memoised by node identity, children
before parents, each result kept until its last consumer has run),
matching the behaviour of a common table expression.

Two execution modes share the operator semantics bit-for-bit:

* ``compiled=True`` (the default) — the columnar core: operators evaluate
  over :class:`~repro.algebra.columnar.ColumnarTable` columns, selections
  become boolean masks over whole columns, hash joins gather match indices
  into each input's row positions (a derived column is a view of its base
  column, whose objects are fetched once, for the result), and every other
  join runs as a sort-based *range join* on its best-bounded column —
  every Fig. 3 axis step compiles to range bounds on one column — that
  locates *all* probe bounds with batched ``searchsorted`` calls over order
  ranks, dropping axis-step joins from O(n·m) to O(n log n + output).  A
  join without a bound is the range join whose every run is the whole
  right input.  Either join expands its runs in bounded blocks under the
  residual mask (:func:`~repro.algebra.columnar.join_runs`).
* ``compiled=False`` — the naive row-dict evaluation: the slow, obviously
  correct oracle every differential test compares the columnar core with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import AlgebraError, ExecutionError, check_deadline
from repro.algebra import columnar as _columnar
from repro.algebra.columnar import Column, ColumnarTable
from repro.algebra.dag import topological_order
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
    fold_aggregate,
)
from repro.algebra.predicates import (
    FLIPPED_OP,
    ColumnRef,
    Comparison,
    Predicate,
    Term,
    compile_comparisons_mask,
    compile_predicate_mask,
    compile_term_columnar,
    schema_columns,
)
from repro.algebra.table import Table


class PlanInterpreter:
    """Evaluate plan DAGs against a ``doc`` table.

    Parameters
    ----------
    doc_table:
        The XML infoset encoding as a :class:`~repro.algebra.table.Table`
        with the ``pre|size|level|kind|name|value|data`` schema.
    timeout_seconds:
        Optional execution budget; exceeding it raises
        :class:`~repro.errors.QueryTimeoutError` (the paper's "DNF").
    compiled:
        Use the columnar execution core (mask selections, batch joins).
        ``False`` selects the naive per-row-dict oracle; both produce
        identical tables, row order included.
    parameters:
        Late bindings for the :class:`~repro.algebra.predicates.Parameter`
        slots a prepared plan carries.  Every predicate is resolved against
        this mapping before (compiled or naive) evaluation, so a prepared
        plan plus bindings behaves bit-for-bit like the ad-hoc plan compiled
        with the same values as literals.
    """

    def __init__(
        self,
        doc_table: Table,
        timeout_seconds: Optional[float] = None,
        compiled: bool = True,
        parameters: Optional[Mapping[str, object]] = None,
    ):
        self.doc_table = doc_table
        self.timeout_seconds = timeout_seconds
        self.compiled = compiled
        self.parameters = dict(parameters) if parameters else None
        self._deadline: Optional[float] = None
        self._memo: dict[int, Table] = {}
        #: Number of operator evaluations performed (for plan-shape metrics).
        self.operators_evaluated = 0
        #: Total number of intermediate rows materialised.
        self.rows_materialised = 0
        #: Number of joins run as a range join: those without an equi conjunct.
        self.range_joins = 0

    # -- public API -------------------------------------------------------------

    def evaluate(self, plan: Operator) -> Table:
        """Evaluate ``plan`` and return its result table."""
        self._memo = {}
        self.operators_evaluated = 0
        self.rows_materialised = 0
        self.range_joins = 0
        if self.timeout_seconds is not None:
            self._deadline = time.perf_counter() + self.timeout_seconds
        else:
            self._deadline = None
        order = topological_order(plan)
        consumers: dict[int, int] = {}
        for node in order:
            for child in node.children:
                consumers[id(child)] = consumers.get(id(child), 0) + 1
        # Children before parents: every dispatch finds its inputs memoised,
        # so plan depth never becomes Python stack depth.  An input leaves
        # the memo once its last consumer has run.
        for node in order:
            result = self._evaluate(node)
            for child in node.children:
                consumers[id(child)] -= 1
                if not consumers[id(child)]:
                    del self._memo[id(child)]
        if self.compiled:
            return result.to_table()
        return result

    # -- evaluation -------------------------------------------------------------

    def _check_deadline(self) -> None:
        check_deadline(self._deadline, self.timeout_seconds)

    def _evaluate(self, node: Operator) -> Table:
        if id(node) in self._memo:
            return self._memo[id(node)]
        self._check_deadline()
        result = self._dispatch_columnar(node) if self.compiled else self._dispatch(node)
        self.operators_evaluated += 1
        self.rows_materialised += len(result)
        self._memo[id(node)] = result
        return result

    def _dispatch(self, node: Operator) -> Table:
        """The naive oracle: row tables, every predicate tested on one row dict at a time."""
        if isinstance(node, DocTable):
            return self.doc_table
        if isinstance(node, LiteralTable):
            return Table(node.columns, node.rows)
        if isinstance(node, Serialize):
            return self._evaluate(node.child)
        if isinstance(node, Project):
            return self._evaluate(node.child).project(node.items)
        if isinstance(node, Select):
            table = self._evaluate(node.child)
            return table.select(self._bound_predicate(node.predicate).evaluate)
        if isinstance(node, Distinct):
            return self._evaluate(node.child).distinct()
        if isinstance(node, Attach):
            return self._evaluate(node.child).attach(node.column, node.value)
        if isinstance(node, RowId):
            return self._evaluate(node.child).attach_row_ids(node.column)
        if isinstance(node, RowRank):
            return self._evaluate(node.child).attach_rank(
                node.column, node.order_by, node.partition_by
            )
        if isinstance(node, Cross):
            return self._evaluate(node.left).cross(self._evaluate(node.right))
        if isinstance(node, Join):
            return self._join_naive(node)
        if isinstance(node, GroupAggregate):
            child, loop = self._evaluate(node.child), self._evaluate(node.loop)
            kept, values = self._group_aggregate(
                node, child.project(_aggregated(node)).rows, loop.column_values(node.group_column)
            )
            rows = [loop.rows[position] + (value,) for position, value in zip(kept, values)]
            return Table.unchecked(loop.columns + (node.item_column,), rows)
        raise ExecutionError(f"cannot evaluate operator {type(node).__name__}")

    # -- columnar evaluation ------------------------------------------------------
    #
    # The columnar twins of the operators above.  Results flow between
    # operators as ColumnarTables whose columns are row-position views of
    # their base columns, so an operator that only moves rows (a join, a
    # filter, a cross product, a DISTINCT) gathers positions, not objects.
    # `evaluate` fetches the exact Python objects once, at the very end, so
    # the columnar core and the naive oracle are bit-for-bit interchangeable.

    def _dispatch_columnar(self, node: Operator) -> ColumnarTable:
        if isinstance(node, DocTable):
            return self.doc_table.columnar()
        if isinstance(node, LiteralTable):
            # Route through Table to keep its per-row arity validation.
            return ColumnarTable.from_table(Table(node.columns, node.rows))
        if isinstance(node, Serialize):
            return self._evaluate(node.child)
        if isinstance(node, Project):
            return self._evaluate(node.child).project(node.items)
        if isinstance(node, Select):
            table = self._evaluate(node.child)
            predicate = self._bound_predicate(node.predicate)
            return table.filter(compile_predicate_mask(predicate, table.columns)(table))
        if isinstance(node, Distinct):
            table = self._evaluate(node.child)
            positions = _columnar.first_occurrences(table.cols, table.length)
            return table if positions is None else table.take(positions)
        if isinstance(node, Attach):
            table = self._evaluate(node.child)
            return table.with_column(
                node.column, Column.constant(node.value, table.length)
            )
        if isinstance(node, RowId):
            table = self._evaluate(node.child)
            row_ids = Column.numeric(np.arange(1, table.length + 1), integral=True)
            return table.with_column(node.column, row_ids)
        if isinstance(node, RowRank):
            return self._rank_columnar(node)
        if isinstance(node, Cross):
            return self._evaluate(node.left).cross(self._evaluate(node.right))
        if isinstance(node, Join):
            return self._join_columnar(node)
        if isinstance(node, GroupAggregate):
            # The fold is per group in Python on either path: the oracle's serves both.
            # It fetches the three columns it reads; the loop's rows stay a view.
            child, loop = self._evaluate(node.child), self._evaluate(node.loop)
            child_rows = child.project(_aggregated(node)).iter_rows()
            kept, values = self._group_aggregate(
                node, child_rows, loop.col(node.group_column).tolist()
            )
            return loop.take(kept).with_column(node.item_column, Column.from_values(values))
        raise ExecutionError(f"cannot evaluate operator {type(node).__name__}")

    def _rank_columnar(self, node: RowRank) -> ColumnarTable:
        table = self._evaluate(node.child)
        order_columns = [table.col(name) for name in node.order_by]
        partition_columns = [table.col(name) for name in node.partition_by]
        if node.column in table.columns:
            raise AlgebraError(f"rank: column {node.column!r} already exists")
        ranks = _columnar.rank_values(order_columns, partition_columns, table.length)
        return table.with_column(node.column, Column.numeric(ranks, integral=True))

    def _join_columnar(self, node: Join) -> ColumnarTable:
        """Hash join on the equi conjuncts, else range join; the rest is a residual mask.

        Both expand their runs through :func:`~repro.algebra.columnar.join_runs`,
        which checks the deadline and applies the residual per block, so a
        join holds its survivors plus one block of candidate pairs.
        """
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        predicate = self._bound_predicate(node.predicate)
        equi, residual = _split_equijoin_conjuncts(predicate, left.columns, right.columns)
        if equi:
            left_indices, right_indices = _columnar.equi_join_indices(
                [left.col(name) for name, _ in equi],
                [right.col(name) for _, name in equi],
                self._check_deadline,
                _residual_mask(left, right, residual),
            )
        else:
            self.range_joins += 1
            plan = _plan_range_join(residual, left.columns, right.columns)
            left_indices, right_indices = self._range_join_indices(left, right, plan)
        return ColumnarTable(
            left.columns + right.columns,
            left.take(left_indices).cols + right.take(right_indices).cols,
            len(left_indices),
        )

    def _range_join_indices(
        self, left: ColumnarTable, right: ColumnarTable, plan: "_RangeJoinPlan"
    ):
        """Batch-bisect range join over order ranks: ``(left_idx, right_idx)``.

        The side owning the bounded column (*build*) is sorted on its ranks
        once, then *all* probe bounds, re-ranked into its domain, are located
        with one ``searchsorted`` call per bound.  ``None`` and NaN match no
        bound, and a bound reaches only values of its own class (numbers or
        strings), as in ``predicates._compare``.  A plan without a bound
        gives every probe row all build rows in order: the nested loop.
        The survivors are put in exact nested-loop order with a lexsort over
        (build, probe) positions.
        """
        build, probe = (left, right) if plan.build_side == "left" else (right, left)
        if plan.column is None:
            low, counts = np.zeros(probe.length, np.int64), np.full(probe.length, build.length)
            run = np.arange(build.length)
        else:
            low, counts, run = _bounded_runs(build.col(plan.column), probe, plan.bounds)
        keep = _residual_mask(left, right, plan.remaining)
        if plan.build_side == "left":
            swapped = keep and (lambda probe_idx, build_idx: keep(build_idx, probe_idx))
            right_indices, left_indices = _columnar.join_runs(
                low, counts, run, self._check_deadline, swapped
            )
        else:
            left_indices, right_indices = _columnar.join_runs(
                low, counts, run, self._check_deadline, keep
            )
            if plan.column is None:  # every run is the right input in row order
                return left_indices, right_indices
        final = np.lexsort((right_indices, left_indices))
        return left_indices[final], right_indices[final]

    # -- join evaluation ----------------------------------------------------------

    def _bound_predicate(self, predicate: Predicate) -> Predicate:
        """Resolve parameter slots before the predicate reaches any fast path."""
        if self.parameters is not None:
            return predicate.bind(self.parameters)
        return predicate

    # -- aggregation ---------------------------------------------------------------

    def _group_aggregate(
        self, node: GroupAggregate, child_rows: Iterable[tuple], loop_groups: Sequence
    ) -> tuple[list[int], list]:
        """Reference semantics of Aggr: ``(loop row positions, their values)``.

        ``child_rows`` are the child's :func:`_aggregated` columns.  They are
        deduplicated on (group, unit, value) — the argument is a node
        sequence, so each node counts once per iteration — then folded per
        loop row (``loop_groups`` holds each one's group) by
        :func:`~repro.algebra.operators.fold_aggregate`, whose SQL NULL
        discipline keeps this operator bit-for-bit aligned with the
        pushed-down native aggregates of the SQL configuration (a DISTINCT
        subquery under COUNT/SUM/AVG).
        """
        groups: dict[object, list] = {}
        for row in dict.fromkeys(child_rows):
            groups.setdefault(row[0], []).append(row[-1])  # the value; count's: the unit
        kept: list[int] = []
        values: list = []
        for position, group in enumerate(loop_groups):
            self._check_deadline()
            value = fold_aggregate(node.function, groups.get(group, ()))
            if value is not None:
                kept.append(position)
                values.append(value)
        return kept, values

    # -- the naive join (the oracle's) -----------------------------------------------

    def _join_naive(self, node: Join) -> Table:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        predicate = self._bound_predicate(node.predicate)
        equi, residual = _split_equijoin_conjuncts(predicate, left.columns, right.columns)
        output_columns = left.columns + right.columns
        rows: list[tuple] = []
        if equi:
            left_keys = [left.column_index(name) for name, _ in equi]
            right_keys = [right.column_index(name) for _, name in equi]
            buckets: dict[tuple, list[tuple]] = {}
            for row in right.rows:
                key = tuple(row[index] for index in right_keys)
                buckets.setdefault(key, []).append(row)
            for left_row in left.rows:
                self._check_deadline()
                key = tuple(left_row[index] for index in left_keys)
                for right_row in buckets.get(key, ()):
                    combined = left_row + right_row
                    if self._residual_holds(residual, output_columns, combined):
                        rows.append(combined)
        else:
            for left_row in left.rows:
                self._check_deadline()
                for right_row in right.rows:
                    combined = left_row + right_row
                    if predicate.evaluate(dict(zip(output_columns, combined))):
                        rows.append(combined)
        return Table(output_columns, rows)

    @staticmethod
    def _residual_holds(
        residual: list[Comparison], columns: tuple[str, ...], combined: tuple
    ) -> bool:
        if not residual:
            return True
        row = dict(zip(columns, combined))
        return all(conjunct.evaluate(row) for conjunct in residual)


# ---------------------------------------------------------------------------
# Range-join recognition (the Fig. 3 axis-step conjunct shape)
# ---------------------------------------------------------------------------


@dataclass
class _RangeJoinPlan:
    """A chosen bounded column plus the conjuncts it absorbs."""

    build_side: str  # "left" | "right" — the side owning the bounded column
    column: Optional[str]  # None: no bound, every row of the build side is in every run
    #: Normalised bounds ``column op term`` with ``term`` over the probe side.
    bounds: list[tuple[str, Term]]
    #: Conjuncts not absorbed as bounds (checked per candidate pair).
    remaining: list[Comparison]


def _plan_range_join(
    residual: list[Comparison],
    left_columns: tuple[str, ...],
    right_columns: tuple[str, ...],
) -> _RangeJoinPlan:
    """Recognise range-bound conjuncts ``col op expr(other side)``.

    Every Fig. 3 axis predicate has this shape: the candidate node's plain
    ``pre`` (or ``level``) column bounded by expressions over the context
    side (``pre° < pre ∧ pre <= pre° + size°``).  We pick the (side, column)
    with the most usable bounds, preferring one bounded from both ends; a
    predicate with no bound plans the right side with no column.
    """
    left_set = set(left_columns)
    right_set = set(right_columns)

    def side_of(names: frozenset[str]) -> Optional[str]:
        if names <= left_set:
            return "left"
        if names <= right_set:
            return "right"
        return None

    candidates: dict[tuple[str, str], list[tuple[str, Term, Comparison]]] = {}
    for conjunct in residual:
        if conjunct.op == "!=":
            continue
        for col_term, op, other in (
            (conjunct.left, conjunct.op, conjunct.right),
            (conjunct.right, FLIPPED_OP[conjunct.op], conjunct.left),
        ):
            if not isinstance(col_term, ColumnRef):
                continue
            col_side = side_of(frozenset((col_term.name,)))
            other_side = side_of(other.columns())
            if col_side is None or other_side is None or col_side == other_side:
                # Constant bounds (other side references no columns) attach to
                # either interpretation; require a genuine cross-side bound or
                # a constant, never a same-side comparison.
                if col_side is None or other.columns():
                    continue
                other_side = "left" if col_side == "right" else "right"
            # A col-col conjunct like ``pre° < pre`` registers under *both*
            # orientations (a high bound on pre° and a low bound on pre);
            # the scoring below then picks whichever column ends up bounded
            # from both ends.
            candidates.setdefault((col_side, col_term.name), []).append(
                (op, other, conjunct)
            )

    if not candidates:
        return _RangeJoinPlan("right", None, [], list(residual))

    def score(entry: tuple[tuple[str, str], list[tuple[str, Term, Comparison]]]) -> tuple:
        _key, bounds = entry
        has_low = any(op in (">", ">=", "=") for op, _t, _c in bounds)
        has_high = any(op in ("<", "<=", "=") for op, _t, _c in bounds)
        return (has_low and has_high, len(bounds))

    (build_side, column), chosen = max(candidates.items(), key=score)
    consumed = {id(conjunct) for _op, _term, conjunct in chosen}
    remaining = [conjunct for conjunct in residual if id(conjunct) not in consumed]
    return _RangeJoinPlan(
        build_side=build_side,
        column=column,
        bounds=[(op, term) for op, term, _conjunct in chosen],
        remaining=remaining,
    )


def _bounded_runs(column: Column, probe: ColumnarTable, bounds):
    """``(low, counts, run)``: the column's rows sorted on rank, each probe row's range of them."""
    domain, ranks = column.domain, column.ranks
    nan = domain.nan_rank
    positions = np.flatnonzero((ranks != 0) & (ranks != nan))
    order = np.argsort(ranks[positions], kind="stable")
    sorted_ranks, run = ranks[positions][order], positions[order]
    total = len(sorted_ranks)
    split = sorted_ranks.searchsorted(nan)  # the numbers before it, the strings after
    resolve = schema_columns(probe.columns)
    low = np.zeros(probe.length, dtype=np.int64)
    high = np.full(probe.length, total, dtype=np.int64)
    usable = np.ones(probe.length, dtype=bool)
    for op, term in bounds:
        bound = domain.rank(compile_term_columnar(term, resolve)(probe))
        usable &= (bound != 0) & (bound != nan)
        number = bound < nan
        np.maximum(low, np.where(number, 0, split), out=low)
        np.minimum(high, np.where(number, split, total), out=high)
        if op in (">", ">=", "="):
            side = "left" if op in (">=", "=") else "right"
            np.maximum(low, sorted_ranks.searchsorted(bound, side), out=low)
        if op in ("<", "<=", "="):
            side = "right" if op in ("<=", "=") else "left"
            np.minimum(high, sorted_ranks.searchsorted(bound, side), out=high)
    return low, np.where(usable & (low < high), high - low, 0), run


def _residual_mask(left: ColumnarTable, right: ColumnarTable, residual: list[Comparison]):
    """The residual as ``keep(left_idx, right_idx)`` for :func:`~repro.algebra.columnar.join_runs`.

    Each block gathers the residual's columns only (views of the inputs'
    columns at the pair positions); ``None`` if there is no residual.
    """
    if not residual:
        return None
    names = sorted(frozenset().union(*(conjunct.columns() for conjunct in residual)))
    mask_of = compile_comparisons_mask(residual, schema_columns(names))
    sides = [(name in left.columns, (left if name in left.columns else right).col(name))
             for name in names]

    def keep(left_indices, right_indices):
        cols = [col.take(left_indices if on_left else right_indices) for on_left, col in sides]
        return mask_of(ColumnarTable(names, cols, len(left_indices)))

    return keep


def _aggregated(node: GroupAggregate) -> list[tuple[str, str]]:
    """The projection of Aggr's child onto the (group, unit[, value]) columns it reads.

    The projection names them by position: two of them may be one column.
    """
    names = (node.group_column, node.unit_column) + (
        () if node.value_column is None else (node.value_column,)
    )
    return [(str(position), name) for position, name in enumerate(names)]


def _split_equijoin_conjuncts(
    predicate: Predicate, left_columns: tuple[str, ...], right_columns: tuple[str, ...]
) -> tuple[list[tuple[str, str]], list[Comparison]]:
    """Split a join predicate into hashable ``left = right`` pairs and the rest."""
    left_set = set(left_columns)
    right_set = set(right_columns)
    equi: list[tuple[str, str]] = []
    residual: list[Comparison] = []
    for conjunct in predicate.conjuncts:
        if conjunct.is_column_equality():
            left_name = conjunct.left.name  # type: ignore[union-attr]
            right_name = conjunct.right.name  # type: ignore[union-attr]
            if left_name in left_set and right_name in right_set:
                equi.append((left_name, right_name))
                continue
            if right_name in left_set and left_name in right_set:
                equi.append((right_name, left_name))
                continue
        residual.append(conjunct)
    return equi, residual


def evaluate_plan(
    plan: Operator,
    doc_table: Table,
    timeout_seconds: Optional[float] = None,
    compiled: bool = True,
    parameters: Optional[Mapping[str, object]] = None,
) -> Table:
    """Convenience wrapper: evaluate ``plan`` against ``doc_table``."""
    return PlanInterpreter(
        doc_table,
        timeout_seconds=timeout_seconds,
        compiled=compiled,
        parameters=parameters,
    ).evaluate(plan)
