"""Reference interpreter for table algebra plans.

The interpreter evaluates a plan DAG bottom-up, **materialising every
operator's result** — including each δ and ϱ — just like the staged
execution the paper observes when DB2 evaluates the stacked common table
expression translation ("numerous SORT primitives followed by temporary
table scans").  It therefore doubles as

* the executable semantics of the algebra (tests compare the rewritten
  plan's results against it), and
* the *stacked plan* configuration of the Table IX experiment.

Shared sub-plans are evaluated once (memoised by node identity), matching
the behaviour of a common table expression.

Three execution modes share the operator semantics bit-for-bit:

* ``columnar=True`` (the default when ``compiled``) — the columnar core:
  operators evaluate over :class:`~repro.algebra.columnar.ColumnarTable`
  columns, selections become boolean masks over whole columns, hash joins
  gather match indices and build output columns with array takes, and range
  joins locate *all* probe bounds with batched ``searchsorted`` calls.
* ``compiled=True, columnar=False`` — the compiled row core: predicates are
  compiled once per operator into positional-index closures (no per-row
  dicts), and joins whose predicate is a conjunction of range bounds on a
  single column — which is what every Fig. 3 axis step compiles to —
  run as a sort-based *range join* (sort the bounded side on the column,
  answer each outer row with two ``bisect`` probes, staircase-join style),
  dropping axis-step joins from O(n·m) to O(n log n + output).
* ``compiled=False`` — the seed's naive row-dict evaluation, kept as the
  differential baseline for tests.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import AlgebraError, ExecutionError, QueryTimeoutError
from repro.algebra import columnar as _columnar
from repro.algebra.columnar import Column, ColumnarTable
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
from repro.algebra.predicates import (
    ColumnRef,
    Comparison,
    Predicate,
    Term,
    compile_comparisons,
    compile_comparisons_mask,
    compile_predicate,
    compile_predicate_mask,
    compile_term,
    compile_term_columnar,
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
        Use the compiled execution core (compiled predicates + sort-based
        range joins).  ``False`` selects the naive per-row-dict reference
        path; both produce identical tables, row order included.
    columnar:
        Evaluate over :class:`~repro.algebra.columnar.ColumnarTable` columns
        with mask selections and batch joins instead of per-row closures.
        Defaults to following ``compiled`` (so the default interpreter is
        columnar); forced off when ``compiled`` is ``False`` — the naive
        path is the reference baseline and stays row-at-a-time.  All three
        modes produce identical tables, row order included.
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
        columnar: Optional[bool] = None,
    ):
        self.doc_table = doc_table
        self.timeout_seconds = timeout_seconds
        self.compiled = compiled
        self.columnar = compiled and (columnar if columnar is not None else True)
        self.parameters = dict(parameters) if parameters else None
        self._deadline: Optional[float] = None
        self._memo: dict[int, Table] = {}
        #: Number of operator evaluations performed (for plan-shape metrics).
        self.operators_evaluated = 0
        #: Total number of intermediate rows materialised.
        self.rows_materialised = 0
        #: Number of joins answered by the sort-based range-join fast path.
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
        result = self._evaluate(plan)
        if self.columnar:
            return result.to_table()
        return result

    # -- evaluation -------------------------------------------------------------

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            elapsed = self.timeout_seconds + (time.perf_counter() - self._deadline)
            raise QueryTimeoutError(self.timeout_seconds or 0.0, elapsed)

    def _evaluate(self, node: Operator) -> Table:
        if id(node) in self._memo:
            return self._memo[id(node)]
        self._check_deadline()
        result = self._dispatch_columnar(node) if self.columnar else self._dispatch(node)
        self.operators_evaluated += 1
        self.rows_materialised += len(result)
        self._memo[id(node)] = result
        return result

    def _dispatch(self, node: Operator) -> Table:
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
            predicate = self._bound_predicate(node.predicate)
            if self.compiled:
                return table.filter_rows(compile_predicate(predicate, table.columns))
            return table.select(predicate.evaluate)
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
            return self._join(node)
        if isinstance(node, GroupAggregate):
            return self._group_aggregate(node)
        raise ExecutionError(f"cannot evaluate operator {type(node).__name__}")

    # -- columnar evaluation ------------------------------------------------------
    #
    # The columnar twins of the operators above.  Results flow between
    # operators as ColumnarTables (one array per column); `evaluate` converts
    # back to a row Table at the very end, restoring the exact Python objects
    # so all three modes (naive / compiled / columnar) are bit-for-bit
    # interchangeable.

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
            mask = compile_predicate_mask(predicate, table.columns)(table)
            return table.filter(mask)
        if isinstance(node, Distinct):
            table = self._evaluate(node.child)
            return ColumnarTable.from_rows(
                table.columns, list(dict.fromkeys(table.iter_rows()))
            )
        if isinstance(node, Attach):
            table = self._evaluate(node.child)
            return table.with_column(
                node.column, Column.constant(node.value, table.length)
            )
        if isinstance(node, RowId):
            table = self._evaluate(node.child)
            return table.with_column(node.column, Column.int_sequence(1, table.length))
        if isinstance(node, RowRank):
            return self._rank_columnar(node)
        if isinstance(node, Cross):
            return self._cross_columnar(self._evaluate(node.left), self._evaluate(node.right))
        if isinstance(node, Join):
            return self._join_columnar(node)
        if isinstance(node, GroupAggregate):
            return self._group_aggregate_columnar(node)
        raise ExecutionError(f"cannot evaluate operator {type(node).__name__}")

    def _rank_columnar(self, node: RowRank) -> ColumnarTable:
        table = self._evaluate(node.child)
        order_columns = [table.col(name) for name in node.order_by]
        partition_columns = [table.col(name) for name in node.partition_by]
        if node.column in table.columns:
            raise AlgebraError(f"rank: column {node.column!r} already exists")
        ranks = _columnar.rank_values(order_columns, partition_columns, table.length)
        return table.with_column(node.column, Column(ranks))

    def _cross_columnar(self, left: ColumnarTable, right: ColumnarTable) -> ColumnarTable:
        overlap = set(left.columns) & set(right.columns)
        if overlap:
            raise AlgebraError(f"cross product with overlapping columns {sorted(overlap)}")
        return ColumnarTable(
            left.columns + right.columns,
            [c.repeat(right.length) for c in left.cols]
            + [c.tile(left.length) for c in right.cols],
            left.length * right.length,
        )

    def _join_columnar(self, node: Join) -> ColumnarTable:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        predicate = self._bound_predicate(node.predicate)
        output_columns = left.columns + right.columns
        equi, residual = _split_equijoin_conjuncts(predicate, left.columns, right.columns)
        if equi:
            return self._hash_join_columnar(left, right, equi, residual, output_columns)
        if residual and _columnar.active_numpy() is not None and left.vectorized and right.vectorized:
            plan = _plan_range_join(residual, left.columns, right.columns)
            if plan is not None:
                result = self._range_join_columnar(left, right, plan, output_columns)
                if result is not None:
                    self.range_joins += 1
                    return result
        # Fallback (no vectorized range plan applies): run the proven row
        # path — which has its own bisect range join and nested loop, and
        # updates the range_joins counter itself — then lift the result back
        # into columns.
        result = self._join_tables(predicate, left.to_table(), right.to_table())
        return ColumnarTable.from_table(result)

    def _hash_join_columnar(
        self,
        left: ColumnarTable,
        right: ColumnarTable,
        equi: list[tuple[str, str]],
        residual: list[Comparison],
        output_columns: tuple[str, ...],
    ) -> ColumnarTable:
        """Hash equi-join over column arrays; bucket order matches the row path."""
        if len(equi) == 1:
            vectorized = _columnar.equi_join_indices(
                left.col(equi[0][0]), right.col(equi[0][1])
            )
            if vectorized is not None:
                left_indices, right_indices = vectorized
                return self._joined_columnar(
                    left, right, left_indices, right_indices, residual, output_columns
                )
        left_key_values = [left.col(name).tolist() for name, _ in equi]
        right_key_values = [right.col(name).tolist() for _, name in equi]
        buckets: dict = {}
        left_indices: list[int] = []
        right_indices: list[int] = []
        if len(equi) == 1:
            for position, key in enumerate(right_key_values[0]):
                buckets.setdefault(key, []).append(position)
            for position, key in enumerate(left_key_values[0]):
                if not position & 0x3FFF:
                    self._check_deadline()
                matches = buckets.get(key)
                if matches:
                    left_indices += [position] * len(matches)
                    right_indices += matches
        else:
            for position, key in enumerate(zip(*right_key_values)):
                buckets.setdefault(key, []).append(position)
            for position, key in enumerate(zip(*left_key_values)):
                if not position & 0x3FFF:
                    self._check_deadline()
                matches = buckets.get(key)
                if matches:
                    left_indices += [position] * len(matches)
                    right_indices += matches
        np = _columnar.active_numpy()
        if np is not None and left.vectorized and right.vectorized:
            count = len(left_indices)
            left_indices = np.fromiter(left_indices, dtype=np.int64, count=count)
            right_indices = np.fromiter(right_indices, dtype=np.int64, count=count)
        return self._joined_columnar(
            left, right, left_indices, right_indices, residual, output_columns
        )

    def _joined_columnar(
        self,
        left: ColumnarTable,
        right: ColumnarTable,
        left_indices,
        right_indices,
        residual: list[Comparison],
        output_columns: tuple[str, ...],
    ) -> ColumnarTable:
        combined = ColumnarTable(
            output_columns,
            [c.take(left_indices) for c in left.cols]
            + [c.take(right_indices) for c in right.cols],
            len(left_indices),
        )
        if residual:
            mask = compile_comparisons_mask(residual, output_columns)(combined)
            combined = combined.filter(mask)
        return combined

    def _range_join_columnar(
        self,
        left: ColumnarTable,
        right: ColumnarTable,
        plan: "_RangeJoinPlan",
        output_columns: tuple[str, ...],
    ) -> Optional[ColumnarTable]:
        """Batch-bisect range join; returns ``None`` to signal a fallback.

        The vectorized counterpart of :meth:`_range_join_rows`: the build
        side's column is sorted once, then *all* probe bounds are located
        with one ``searchsorted`` call per bound.  Output order is restored
        with a lexsort over (build, probe) positions so rows come out in the
        exact nested-loop order of the row path.
        """
        np = _columnar.active_numpy()
        build, probe = (left, right) if plan.build_side == "left" else (right, left)
        build_column = build.col(plan.column)
        if build_column.has_strings or not build_column.shadow_exact:
            return None  # mirror the row path: non-numeric build values bail out
        build_positions = np.flatnonzero(build_column.notnull)  # None never matches
        values = build_column.shadow[build_positions]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_positions = build_positions[order]
        total = len(sorted_values)
        probe_n = probe.length
        index_of = {name: i for i, name in enumerate(probe.columns)}
        low = np.zeros(probe_n, dtype=np.int64)
        high = np.full(probe_n, total, dtype=np.int64)
        usable = np.ones(probe_n, dtype=bool)
        for op, term in plan.bounds:
            value = compile_term_columnar(term, index_of)(probe)
            if isinstance(value, Column):
                if not value.shadow_exact:
                    return None
                bounds = value.shadow  # NaN marks None / non-numeric bounds
            elif value is None or not isinstance(value, (int, float)):
                bounds = np.full(probe_n, _columnar._NAN)
            else:
                bounds = np.full(probe_n, float(value))
            usable &= ~np.isnan(bounds)
            if op in (">", ">=", "="):
                side = "left" if op in (">=", "=") else "right"
                np.maximum(low, np.searchsorted(sorted_values, bounds, side=side), out=low)
            if op in ("<", "<=", "="):
                side = "right" if op in ("<=", "=") else "left"
                np.minimum(high, np.searchsorted(sorted_values, bounds, side=side), out=high)
        counts = np.where(usable & (low < high), high - low, 0)
        total_out = int(counts.sum())
        if total_out == 0:
            return ColumnarTable.from_rows(output_columns, [])
        self._check_deadline()
        probe_indices = np.repeat(np.arange(probe_n), counts)
        starts = np.cumsum(counts) - counts
        flat = np.arange(total_out) - np.repeat(starts, counts) + np.repeat(low, counts)
        build_indices = sorted_positions[flat]
        if plan.build_side == "left":
            final = np.lexsort((probe_indices, build_indices))
            left_indices = build_indices[final]
            right_indices = probe_indices[final]
        else:
            final = np.lexsort((build_indices, probe_indices))
            left_indices = probe_indices[final]
            right_indices = build_indices[final]
        combined = ColumnarTable(
            output_columns,
            [c.take(left_indices) for c in left.cols]
            + [c.take(right_indices) for c in right.cols],
            total_out,
        )
        if plan.remaining:
            mask = compile_comparisons_mask(plan.remaining, output_columns)(combined)
            combined = combined.filter(mask)
        return combined

    def _group_aggregate_columnar(self, node: GroupAggregate) -> ColumnarTable:
        """Columnar Aggr with the exact fold order of :meth:`_group_aggregate`."""
        child = self._evaluate(node.child)
        loop = self._evaluate(node.loop)
        group_values = child.col(node.group_column).tolist()
        unit_values = child.col(node.unit_column).tolist()
        value_values = (
            child.col(node.value_column).tolist() if node.value_column is not None else None
        )
        counts: dict = {}
        grouped_values: dict = {}
        seen: set[tuple] = set()
        for position in range(child.length):
            if not position & 0x3FFF:
                self._check_deadline()
            group = group_values[position]
            identity = (
                group,
                unit_values[position],
                None if value_values is None else value_values[position],
            )
            if identity in seen:
                continue
            seen.add(identity)
            if node.function == "count":
                counts[group] = counts.get(group, 0) + 1
            else:
                grouped_values.setdefault(group, []).append(value_values[position])
        loop_keys = loop.col(node.group_column).tolist()
        if node.function == "count":
            items = [counts.get(key, 0) for key in loop_keys]
            return loop.with_column(node.item_column, Column.from_values(items))
        folded: dict = {}
        for key, group_vals in grouped_values.items():
            values = [v for v in group_vals if v is not None]
            if node.function == "sum":
                folded[key] = sum(values) if values else 0
            elif values:  # avg of an empty group emits no row
                folded[key] = sum(values) / len(values)
        if node.function == "sum":
            items = [folded.get(key, 0) for key in loop_keys]
            return loop.with_column(node.item_column, Column.from_values(items))
        keep = [key in folded for key in loop_keys]
        items = [folded[key] for key in loop_keys if key in folded]
        np = _columnar.active_numpy()
        if np is not None and loop.vectorized:
            keep = np.array(keep, dtype=bool)
        return loop.filter(keep).with_column(node.item_column, Column.from_values(items))

    # -- join evaluation ----------------------------------------------------------

    def _bound_predicate(self, predicate: Predicate) -> Predicate:
        """Resolve parameter slots before the predicate reaches any fast path."""
        if self.parameters is not None:
            return predicate.bind(self.parameters)
        return predicate

    def _join(self, node: Join) -> Table:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        predicate = self._bound_predicate(node.predicate)
        if not self.compiled:
            return self._join_naive(predicate, left, right)
        return self._join_tables(predicate, left, right)

    def _join_tables(self, predicate: Predicate, left: Table, right: Table) -> Table:
        """The compiled (row-tuple) join: hash equi-join / range join / nested loop."""
        equi, residual = _split_equijoin_conjuncts(predicate, left.columns, right.columns)
        output_columns = left.columns + right.columns
        residual_test = (
            compile_comparisons(residual, output_columns) if residual else None
        )
        if equi:
            rows = self._hash_join_rows(left, right, equi, residual_test)
            return Table.unchecked(output_columns, rows)
        if residual:
            plan = _plan_range_join(residual, left.columns, right.columns)
            if plan is not None:
                rows = self._range_join_rows(left, right, plan, output_columns)
                if rows is not None:
                    self.range_joins += 1
                    return Table.unchecked(output_columns, rows)
        # Fallback: nested loop with the predicate compiled once (no row dicts).
        predicate_test = compile_predicate(predicate, output_columns)
        rows = []
        for left_row in left.rows:
            self._check_deadline()
            for right_row in right.rows:
                combined = left_row + right_row
                if predicate_test(combined):
                    rows.append(combined)
        return Table.unchecked(output_columns, rows)

    def _hash_join_rows(
        self,
        left: Table,
        right: Table,
        equi: list[tuple[str, str]],
        residual_test: Optional[Callable[[tuple], bool]],
    ) -> list[tuple]:
        left_keys = [left.column_index(name) for name, _ in equi]
        right_keys = [right.column_index(name) for _, name in equi]
        buckets: dict[tuple, list[tuple]] = {}
        for row in right.rows:
            key = tuple(row[index] for index in right_keys)
            buckets.setdefault(key, []).append(row)
        rows: list[tuple] = []
        if len(left_keys) == 1:
            single = left_keys[0]
            for left_row in left.rows:
                self._check_deadline()
                for right_row in buckets.get((left_row[single],), ()):
                    combined = left_row + right_row
                    if residual_test is None or residual_test(combined):
                        rows.append(combined)
            return rows
        for left_row in left.rows:
            self._check_deadline()
            key = tuple(left_row[index] for index in left_keys)
            for right_row in buckets.get(key, ()):
                combined = left_row + right_row
                if residual_test is None or residual_test(combined):
                    rows.append(combined)
        return rows

    def _range_join_rows(
        self,
        left: Table,
        right: Table,
        plan: "_RangeJoinPlan",
        output_columns: tuple[str, ...],
    ) -> Optional[list[tuple]]:
        """Sort-based range join; returns ``None`` to signal a fallback.

        The side owning the bounded column (*build*) is sorted on it once;
        every row of the other side (*probe*) then locates its matches with
        two ``bisect`` probes.  Output rows are emitted in nested-loop order
        (left-major, original row order within) so results stay bit-for-bit
        identical to the naive path.
        """
        build, probe = (left, right) if plan.build_side == "left" else (right, left)
        column = build.column_index(plan.column)
        pairs: list[tuple[float, int]] = []
        for position, row in enumerate(build.rows):
            value = row[column]
            if value is None:
                continue  # None never satisfies any comparison
            if not isinstance(value, (int, float)):
                return None  # non-numeric build values: stay on the safe path
            pairs.append((value, position))
        pairs.sort()
        values = [value for value, _position in pairs]
        probe_index_of = {name: i for i, name in enumerate(probe.columns)}
        lows: list[tuple[Callable[[Sequence[object]], object], bool]] = []
        highs: list[tuple[Callable[[Sequence[object]], object], bool]] = []
        for op, term in plan.bounds:
            fn = compile_term(term, probe_index_of)
            if op in (">", ">="):
                lows.append((fn, op == ">="))
            elif op in ("<", "<="):
                highs.append((fn, op == "<="))
            else:  # "=" — an exact bound from both sides
                lows.append((fn, True))
                highs.append((fn, True))
        remaining_test = (
            compile_comparisons(plan.remaining, output_columns) if plan.remaining else None
        )
        build_rows = build.rows
        total = len(values)
        build_is_left = plan.build_side == "left"
        keyed: list[tuple[int, int, tuple]] = []
        rows: list[tuple] = []
        for probe_position, probe_row in enumerate(probe.rows):
            self._check_deadline()
            start, end = 0, total
            usable = True
            for fn, inclusive in lows:
                bound = fn(probe_row)
                if bound is None or not isinstance(bound, (int, float)):
                    usable = False
                    break
                cut = bisect_left(values, bound) if inclusive else bisect_right(values, bound)
                if cut > start:
                    start = cut
            if usable:
                for fn, inclusive in highs:
                    bound = fn(probe_row)
                    if bound is None or not isinstance(bound, (int, float)):
                        usable = False
                        break
                    cut = bisect_right(values, bound) if inclusive else bisect_left(values, bound)
                    if cut < end:
                        end = cut
            if not usable or start >= end:
                continue
            matches = sorted(position for _value, position in pairs[start:end])
            if build_is_left:
                for build_position in matches:
                    combined = build_rows[build_position] + probe_row
                    if remaining_test is None or remaining_test(combined):
                        keyed.append((build_position, probe_position, combined))
            else:
                for build_position in matches:
                    combined = probe_row + build_rows[build_position]
                    if remaining_test is None or remaining_test(combined):
                        rows.append(combined)
        if build_is_left:
            # Restore left-major nested-loop order.
            keyed.sort(key=lambda item: (item[0], item[1]))
            return [combined for _l, _r, combined in keyed]
        return rows

    # -- aggregation ---------------------------------------------------------------

    def _group_aggregate(self, node: GroupAggregate) -> Table:
        """Reference semantics of Aggr (shared by compiled and naive modes).

        Child rows are deduplicated on (group, unit, value) — the argument
        is a node sequence, so each node counts once per iteration — then
        folded per loop row: ``count`` and ``sum`` complete empty groups
        with 0; ``avg`` of a group without non-NULL values emits no row
        (``fn:avg(())`` is the empty sequence).  NULL values are ignored by
        ``sum``/``avg`` — SQL's discipline, which is what keeps this
        operator bit-for-bit aligned with the pushed-down native aggregates
        of the SQL configuration (a DISTINCT subquery under COUNT/SUM/AVG).
        """
        child = self._evaluate(node.child)
        loop = self._evaluate(node.loop)
        group_index = child.column_index(node.group_column)
        unit_index = child.column_index(node.unit_column)
        value_index = (
            child.column_index(node.value_column) if node.value_column is not None else None
        )
        loop_group_index = loop.column_index(node.group_column)
        groups: dict[object, list] = {}
        seen: set[tuple] = set()
        for row in child.rows:
            identity = (
                row[group_index],
                row[unit_index],
                None if value_index is None else row[value_index],
            )
            if identity in seen:
                continue
            seen.add(identity)
            groups.setdefault(row[group_index], []).append(row)
        rows: list[tuple] = []
        for loop_row in loop.rows:
            self._check_deadline()
            members = groups.get(loop_row[loop_group_index], ())
            if node.function == "count":
                rows.append(loop_row + (len(members),))
                continue
            values = [
                row[value_index]
                for row in members
                if row[value_index] is not None  # type: ignore[index]
            ]
            if node.function == "sum":
                rows.append(loop_row + (sum(values) if values else 0,))
            else:  # avg
                if values:
                    rows.append(loop_row + (sum(values) / len(values),))
        return Table.unchecked(loop.columns + (node.item_column,), rows)

    # -- the seed's naive join, kept as the differential baseline -----------------

    def _join_naive(self, predicate: Predicate, left: Table, right: Table) -> Table:
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
    column: str
    #: Normalised bounds ``column op term`` with ``term`` over the probe side.
    bounds: list[tuple[str, Term]]
    #: Conjuncts not absorbed as bounds (checked per candidate pair).
    remaining: list[Comparison]


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _plan_range_join(
    residual: list[Comparison],
    left_columns: tuple[str, ...],
    right_columns: tuple[str, ...],
) -> Optional[_RangeJoinPlan]:
    """Recognise range-bound conjuncts ``col op expr(other side)``.

    Every Fig. 3 axis predicate has this shape: the candidate node's plain
    ``pre`` (or ``level``) column bounded by expressions over the context
    side (``pre° < pre ∧ pre <= pre° + size°``).  We pick the (side, column)
    with the most usable bounds, preferring one bounded from both ends.
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
            (conjunct.right, _FLIP.get(conjunct.op, conjunct.op), conjunct.left),
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
        return None

    def score(entry: tuple[tuple[str, str], list[tuple[str, Term, Comparison]]]) -> tuple:
        _key, bounds = entry
        has_low = any(op in (">", ">=", "=") for op, _t, _c in bounds)
        has_high = any(op in ("<", "<=", "=") for op, _t, _c in bounds)
        return (has_low and has_high, len(bounds))

    (build_side, column), chosen = max(candidates.items(), key=score)
    if not score(((build_side, column), chosen))[0]:
        # A single one-sided bound rarely narrows anything; require a
        # two-sided (or equality) bound before engaging the fast path.
        return None
    consumed = {id(conjunct) for _op, _term, conjunct in chosen}
    remaining = [conjunct for conjunct in residual if id(conjunct) not in consumed]
    return _RangeJoinPlan(
        build_side=build_side,
        column=column,
        bounds=[(op, term) for op, term, _conjunct in chosen],
        remaining=remaining,
    )


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
    columnar: Optional[bool] = None,
) -> Table:
    """Convenience wrapper: evaluate ``plan`` against ``doc_table``."""
    return PlanInterpreter(
        doc_table,
        timeout_seconds=timeout_seconds,
        compiled=compiled,
        parameters=parameters,
        columnar=columnar,
    ).evaluate(plan)
