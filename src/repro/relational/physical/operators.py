"""Physical query operators (the engine's counterpart of Table VII).

The operator names deliberately follow DB2's explain vocabulary so that the
execution-plan experiments (Fig. 10 / Fig. 11) read like the paper:

=========  =====================================================
TBSCAN      full table scan (+ residual predicate)
IXSCAN      B-tree index scan (equality prefix + one range bound)
NLJOIN      index nested-loop join (outer rows drive index probes)
HSJOIN      hash join (build on the inner input, probe with the outer)
FILTER      residual predicate evaluation
SORT        sort on the ORDER BY terms (+ duplicate elimination)
RETURN      final projection to the query's select list
=========  =====================================================

Rows are plain **tuples**; each operator publishes a :class:`SlotMap` that
assigns every ``(alias, column)`` pair of its output a fixed position, and
join-graph :class:`~repro.core.joingraph.Condition` terms are compiled once
per plan into positional slot accessors.  Joins concatenate tuples, so the
self-join aliases of the join graph stay separate without the per-row
``dict[(alias, column)]`` churn of the seed implementation.  All operators
are iterators; the plan is fully pipelined except for SORT and the build
side of HSJOIN.

An operator tree is an **immutable program**: every slot map, term and
condition closure and index-probe bound is compiled by the operator's
constructor, and everything one execution changes lives in its
:class:`ExecutionContext`.  The engine caches planned trees and runs one
tree from many threads at once.
"""

from __future__ import annotations

import operator as _operator_module
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import ExecutionError, QueryTimeoutError
from repro.algebra import columnar as _columnar
from repro.algebra.columnar import Column, ColumnarTable
from repro.algebra.table import Table
from repro.core.joingraph import ColumnTerm, Condition, ConstantTerm, ParameterTerm, SumTerm, Term
from repro.relational.btree import BTreeIndex, orderable

#: A physical row: one value per slot of the operator's :class:`SlotMap`.
Row = tuple

_RANGE_RELATIONS = {
    "<": _operator_module.lt,
    "<=": _operator_module.le,
    ">": _operator_module.gt,
    ">=": _operator_module.ge,
}


class SlotMap:
    """Positional layout of a physical row: ``(alias, column) -> slot``.

    A row is the concatenation of whole table rows, so the layout is one
    offset per alias over that table's own column positions: a join's map
    costs O(aliases) to build and keep, not O(aliases × columns).
    """

    __slots__ = ("_tables", "_width")

    def __init__(self, tables: dict[str, tuple[int, dict[str, int]]], width: int):
        self._tables = tables  # alias -> (offset, column -> position in the table row)
        self._width = width

    @staticmethod
    def for_table(table: Table, alias: str) -> "SlotMap":
        columns = {column: position for position, column in enumerate(table.columns)}
        return SlotMap({alias: (0, columns)}, len(columns))

    def concat(self, other: "SlotMap") -> "SlotMap":
        tables = dict(self._tables)
        for alias, (offset, columns) in other._tables.items():
            tables[alias] = (self._width + offset, columns)
        return SlotMap(tables, self._width + other._width)

    def position(self, alias: str, column: str) -> Optional[int]:
        offset, columns = self._tables.get(alias, (0, {}))
        position = columns.get(column)
        return None if position is None else offset + position

    def __len__(self) -> int:
        return self._width


#: The layout of the empty row (what a bare IXSCAN's bounds are evaluated against).
_NO_SLOTS = SlotMap({}, 0)


def compile_term(term: Term, slots: SlotMap) -> Callable[[Row], object]:
    """Compile a join-graph term into a positional slot accessor."""
    if isinstance(term, ColumnTerm):
        position = slots.position(term.alias, term.column)
        if position is None:
            # Mirrors the seed's ``row.get(...)`` behaviour for columns the
            # row does not carry: the term evaluates to NULL.
            return lambda row: None
        return lambda row: row[position]
    if isinstance(term, ConstantTerm):
        value = term.value
        return lambda row: value
    if isinstance(term, SumTerm):
        parts = tuple(compile_term(part, slots) for part in term.terms)

        def _sum(row: Row) -> object:
            total = 0
            for part in parts:
                value = part(row)
                if value is None:
                    return None
                total += value  # type: ignore[operator]
            return total

        return _sum
    if isinstance(term, ParameterTerm):
        raise ExecutionError(
            f"parameter :{term.name} reached the physical layer unbound; "
            "bind the join graph (JoinGraph.bind) before planning"
        )
    raise ExecutionError(f"cannot compile term {term!r}")


def compile_condition(condition: Condition, slots: SlotMap) -> Callable[[Row], bool]:
    """Compile one WHERE conjunct into a positional-row boolean closure."""
    left = compile_term(condition.left, slots)
    right = compile_term(condition.right, slots)
    op = condition.op
    if op == "=":
        def _eq(row: Row) -> bool:
            lv = left(row)
            rv = right(row)
            return lv is not None and rv is not None and lv == rv

        return _eq
    if op == "!=":
        def _ne(row: Row) -> bool:
            lv = left(row)
            rv = right(row)
            return lv is not None and rv is not None and lv != rv

        return _ne
    try:
        relation = _RANGE_RELATIONS[op]
    except KeyError:
        raise ExecutionError(f"unknown comparison operator {op!r}") from None

    def _range(row: Row) -> bool:
        lv = left(row)
        rv = right(row)
        if lv is None or rv is None:
            return False
        try:
            return relation(lv, rv)
        except TypeError:
            return False

    return _range


def compile_conditions(
    conditions: Sequence[Condition], slots: SlotMap
) -> Optional[Callable[[Row], bool]]:
    """Compile a conjunction; ``None`` when there is nothing to check."""
    if not conditions:
        return None
    compiled = tuple(compile_condition(condition, slots) for condition in conditions)
    if len(compiled) == 1:
        return compiled[0]

    def _all(row: Row) -> bool:
        for test in compiled:
            if not test(row):
                return False
        return True

    return _all


def compile_term_columnar(term: Term, slots: SlotMap):
    """Columnar twin of :func:`compile_term`: a closure over a ColumnarTable.

    The table's columns are positionally aligned with ``slots``.  Returns a
    :class:`~repro.algebra.columnar.Column` (or a scalar for constants) per
    call; a column the row does not carry evaluates to NULL, mirroring
    :func:`compile_term`.
    """
    if isinstance(term, ColumnTerm):
        position = slots.position(term.alias, term.column)
        if position is None:
            return lambda table: None
        return lambda table: table.cols[position]
    if isinstance(term, ConstantTerm):
        value = term.value
        return lambda table: value
    if isinstance(term, SumTerm):
        parts = tuple(compile_term_columnar(part, slots) for part in term.terms)
        return lambda table: _columnar.sum_columns(
            [part(table) for part in parts], table.length
        )
    if isinstance(term, ParameterTerm):
        raise ExecutionError(
            f"parameter :{term.name} reached the physical layer unbound; "
            "bind the join graph (JoinGraph.bind) before planning"
        )
    raise ExecutionError(f"cannot compile term {term!r}")


def compile_conditions_mask(conditions: Sequence[Condition], slots: SlotMap):
    """Compile a conjunction into one boolean-mask closure (``None`` if empty).

    The mask kernels share :func:`repro.algebra.columnar.compare_mask`'s
    reference semantics, so masks agree bit-for-bit with the compiled row
    closures of :func:`compile_conditions`.
    """
    if not conditions:
        return None
    compiled = tuple(
        (
            compile_term_columnar(condition.left, slots),
            condition.op,
            compile_term_columnar(condition.right, slots),
        )
        for condition in conditions
    )

    def _mask(table: ColumnarTable):
        mask = None
        for left, op, right in compiled:
            conjunct = _columnar.compare_mask(left(table), op, right(table), table.length)
            mask = conjunct if mask is None else _columnar.mask_and(mask, conjunct)
            if not _columnar.mask_any(mask):
                break
        return mask

    return _mask


class ExecutionContext:
    """Per-execution state: deadline checks, operator counters, mode flags.

    ``columnar`` selects the vectorized operator paths (mask scans, columnar
    hash joins); the row paths stay in-tree as the differential baseline and
    are what ``columnar=False`` runs.
    """

    def __init__(self, timeout_seconds: Optional[float] = None, columnar: bool = True):
        self.timeout_seconds = timeout_seconds
        self.columnar = columnar
        self.deadline = (
            time.perf_counter() + timeout_seconds if timeout_seconds is not None else None
        )
        self.rows_scanned = 0
        self.index_probes = 0

    def check(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            elapsed = (self.timeout_seconds or 0.0) + (time.perf_counter() - self.deadline)
            raise QueryTimeoutError(self.timeout_seconds or 0.0, elapsed)


def _value_lists(evaluators, table: ColumnarTable) -> list[list]:
    """Evaluate columnar term closures into one plain list per term."""
    lists = []
    for evaluate in evaluators:
        value = evaluate(table)
        if isinstance(value, Column):
            lists.append(value.tolist())
        else:  # constant (or missing-column NULL)
            lists.append([value] * table.length)
    return lists


@dataclass
class PhysicalOperator:
    """Base class: every operator yields rows and can explain itself.

    ``__post_init__`` of each operator sets :attr:`slots` (the layout of its
    output rows) and compiles its closures against it.
    """

    slots = _NO_SLOTS

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:  # pragma: no cover - abstract
        raise NotImplementedError

    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    def can_columnar(self) -> bool:
        """True when :meth:`as_columnar` will produce a result (no side effects)."""
        return False

    def as_columnar(self, ctx: ExecutionContext) -> Optional[ColumnarTable]:
        """This operator's full result as a ColumnarTable, or ``None``.

        Operators that can produce their output column-wise (scans, filters,
        hash joins) implement this; pipelined index operators return ``None``
        and stay row-at-a-time.  Column order is positionally aligned with
        :attr:`slots`.  Callers should consult :meth:`can_columnar` first —
        a partially evaluated columnar tree would double-count scan work on
        fallback otherwise.
        """
        return None

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


@dataclass
class TableScan(PhysicalOperator):
    """TBSCAN — scan the base table, applying residual conditions.

    Output rows *are* the table's row tuples (zero copies per row)."""

    table: Table
    alias: str
    conditions: list[Condition] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.slots = SlotMap.for_table(self.table, self.alias)
        self._keep = compile_conditions(self.conditions, self.slots)
        self._mask = compile_conditions_mask(self.conditions, self.slots)

    def can_columnar(self) -> bool:
        return True

    def as_columnar(self, ctx: ExecutionContext) -> Optional[ColumnarTable]:
        ctx.check()
        ctx.rows_scanned += len(self.table.rows)
        base = self.table.columnar()
        if self._mask is None:
            return base
        return base.filter(self._mask(base))

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        if ctx.columnar:
            if not self.conditions:
                # Bulk scan: the table's own tuples, counted in one step.
                ctx.check()
                ctx.rows_scanned += len(self.table.rows)
                yield from self.table.rows
                return
            yield from self.as_columnar(ctx).iter_rows()
            return
        keep = self._keep
        for row in self.table.rows:
            ctx.check()
            ctx.rows_scanned += 1
            if keep is None or keep(row):
                yield row

    def describe(self) -> str:
        predicate = " ".join(c.render() for c in self.conditions)
        suffix = f" [{predicate}]" if predicate else ""
        return f"TBSCAN({self.alias}){suffix}"


@dataclass
class IndexBound:
    """One bound on an index key column, evaluated per outer row (or constant)."""

    column: str
    kind: str  # "eq", "low", "high"
    term: Term
    inclusive: bool = True
    #: The join-graph condition this bound enforces (used by the planner to
    #: decide which conditions still need residual evaluation).
    source: object = None


class _CompiledProbe:
    """Bounds + residual of one index access, compiled against slot maps.

    ``bounds`` terms are evaluated against the *outer* row (empty for a bare
    IXSCAN), the residual conditions against the combined output row.  The
    probe key is the equality prefix of the index key — its leading constants
    decorated here, once — plus, on the next key column, the tightest of the
    range bounds; a bound that evaluates to NULL matches nothing.
    """

    __slots__ = ("index", "table_rows", "constant", "evals", "prefix", "lows", "highs", "residual")

    def __init__(
        self,
        index: BTreeIndex,
        table: Table,
        bounds: Sequence[IndexBound],
        residual: Sequence[Condition],
        outer_slots: SlotMap,
        output_slots: SlotMap,
    ):
        self.index = index
        self.table_rows = table.rows
        self.residual = compile_conditions(residual, output_slots)
        equalities = {bound.column: bound for bound in bounds if bound.kind == "eq"}
        prefix_bounds = []
        for column in index.key_columns:
            if column not in equalities:
                break
            prefix_bounds.append(equalities[column])
        depth = len(prefix_bounds)
        ranged = [bound for bound in bounds if bound.kind != "eq"]
        if not (
            ranged
            and depth < len(index.key_columns)
            and ranged[-1].column == index.key_columns[depth]
        ):
            ranged = []  # evaluated for NULL only, as every bound off the key is
        constants = 0
        while constants < depth and isinstance(prefix_bounds[constants].term, ConstantTerm):
            constants += 1
        values = [bound.term.value for bound in prefix_bounds[:constants]]
        #: Decorated constant head of the key; ``None``: a constant is NULL.
        self.constant: Optional[tuple] = (
            None if None in values else tuple(orderable(value) for value in values)
        )
        folded = {id(bound) for bound in prefix_bounds[:constants]}
        evaluated = [bound for bound in bounds if id(bound) not in folded]
        self.evals = tuple(compile_term(bound.term, outer_slots) for bound in evaluated)
        position = {id(bound): slot for slot, bound in enumerate(evaluated)}
        self.prefix = tuple(position[id(bound)] for bound in prefix_bounds[constants:])
        self.lows = tuple((position[id(b)], b.inclusive) for b in ranged if b.kind == "low")
        self.highs = tuple((position[id(b)], b.inclusive) for b in ranged if b.kind == "high")

    def rows(self, ctx: ExecutionContext, outer_rows) -> Iterator[Row]:
        """Probe the B-tree once per outer row; yield the joined rows."""
        tree = self.index.tree
        span, payloads = tree.span, tree.payloads
        table_rows, residual, check = self.table_rows, self.residual, ctx.check
        constant, evals, prefix, lows, highs = (
            self.constant, self.evals, self.prefix, self.lows, self.highs
        )
        for outer_row in outer_rows:
            ctx.index_probes += 1
            values = [evaluate(outer_row) for evaluate in evals]
            if constant is None or None in values:
                continue
            low = high = (
                constant + tuple([orderable(values[p]) for p in prefix]) if prefix else constant
            )
            low_inclusive = high_inclusive = True
            if lows:
                at, low_inclusive = lows[0]
                for other, inclusive in lows[1:]:
                    if values[other] > values[at]:  # type: ignore[operator]
                        at, low_inclusive = other, inclusive
                low += (orderable(values[at]),)
            if highs:
                at, high_inclusive = highs[0]
                for other, inclusive in highs[1:]:
                    if values[other] < values[at]:  # type: ignore[operator]
                        at, high_inclusive = other, inclusive
                high += (orderable(values[at]),)
            start, end = span(low, high, low_inclusive, high_inclusive)
            ctx.rows_scanned += end - start
            for payload in payloads[start:end]:
                check()
                row = outer_row + table_rows[payload[0]]
                if residual is None or residual(row):
                    yield row


def _describe_bounds(bounds: Sequence[IndexBound]) -> str:
    return ", ".join(f"{b.column}{'=' if b.kind == 'eq' else b.kind}" for b in bounds)


@dataclass
class IndexScan(PhysicalOperator):
    """IXSCAN — B-tree access with a constant equality prefix and range bound."""

    index: BTreeIndex
    table: Table
    alias: str
    bounds: list[IndexBound] = field(default_factory=list)
    residual: list[Condition] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.slots = SlotMap.for_table(self.table, self.alias)
        self._probe = _CompiledProbe(
            self.index, self.table, self.bounds, self.residual, _NO_SLOTS, self.slots
        )

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        return self._probe.rows(ctx, ((),))

    def describe(self) -> str:
        keys = ",".join(self.index.key_columns)
        residual = f" residual={len(self.residual)}" if self.residual else ""
        return (
            f"IXSCAN({self.alias}) index={self.index.name}({keys}) "
            f"bounds[{_describe_bounds(self.bounds)}]{residual}"
        )


@dataclass
class IndexNestedLoopJoin(PhysicalOperator):
    """NLJOIN — for every outer row, probe the inner alias through a B-tree."""

    outer: PhysicalOperator
    index: BTreeIndex
    table: Table
    alias: str
    bounds: list[IndexBound] = field(default_factory=list)
    residual: list[Condition] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.slots = self.outer.slots.concat(SlotMap.for_table(self.table, self.alias))
        self._probe = _CompiledProbe(
            self.index, self.table, self.bounds, self.residual, self.outer.slots, self.slots
        )

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        return self._probe.rows(ctx, self.outer.rows(ctx))

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer,)

    def describe(self) -> str:
        keys = ",".join(self.index.key_columns)
        return (
            f"NLJOIN -> IXSCAN({self.alias}) index={self.index.name}({keys}) "
            f"bounds[{_describe_bounds(self.bounds)}]"
        )


@dataclass
class HashJoin(PhysicalOperator):
    """HSJOIN — build a hash table on the inner input, probe with the outer."""

    outer: PhysicalOperator
    inner: PhysicalOperator
    outer_terms: list[Term] = field(default_factory=list)
    inner_terms: list[Term] = field(default_factory=list)
    residual: list[Condition] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        outer, inner = self.outer.slots, self.inner.slots
        self.slots = outer.concat(inner)
        self._outer_keys = [compile_term(term, outer) for term in self.outer_terms]
        self._inner_keys = [compile_term(term, inner) for term in self.inner_terms]
        self._outer_columns = [compile_term_columnar(term, outer) for term in self.outer_terms]
        self._inner_columns = [compile_term_columnar(term, inner) for term in self.inner_terms]
        self._residual = compile_conditions(self.residual, self.slots)
        self._residual_mask = compile_conditions_mask(self.residual, self.slots)

    def can_columnar(self) -> bool:
        return self.outer.can_columnar() and self.inner.can_columnar()

    def as_columnar(self, ctx: ExecutionContext) -> Optional[ColumnarTable]:
        if not self.can_columnar():
            return None
        outer = self.outer.as_columnar(ctx)
        inner = self.inner.as_columnar(ctx)
        if len(self.outer_terms) == 1:
            outer_key = self._outer_columns[0](outer)
            inner_key = self._inner_columns[0](inner)
            if isinstance(outer_key, Column) and isinstance(inner_key, Column):
                vectorized = _columnar.equi_join_indices(outer_key, inner_key)
                if vectorized is not None:
                    return self._combined(outer, inner, *vectorized)
        if self.outer_terms:
            inner_keys = _value_lists(self._inner_columns, inner)
            outer_keys = _value_lists(self._outer_columns, outer)
            buckets: dict[tuple, list[int]] = {}
            for position, key in enumerate(zip(*inner_keys)):
                buckets.setdefault(key, []).append(position)
            outer_indices: list[int] = []
            inner_indices: list[int] = []
            for position, key in enumerate(zip(*outer_keys)):
                if not position & 0x3FFF:
                    ctx.check()
                matches = buckets.get(key)
                if matches:
                    outer_indices += [position] * len(matches)
                    inner_indices += matches
        else:
            # No equi keys: every outer row pairs with every inner row (the
            # row path hashes on the empty tuple), and the residual does the
            # actual joining.  Keep the outer-major, inner-in-order pairing.
            ctx.check()
            all_inner = list(range(inner.length))
            outer_indices = [p for p in range(outer.length) for _ in all_inner]
            inner_indices = all_inner * outer.length
        np = _columnar.active_numpy()
        if np is not None and outer.vectorized and inner.vectorized:
            count = len(outer_indices)
            outer_indices = np.fromiter(outer_indices, dtype=np.int64, count=count)
            inner_indices = np.fromiter(inner_indices, dtype=np.int64, count=count)
        return self._combined(outer, inner, outer_indices, inner_indices)

    def _combined(
        self,
        outer: ColumnarTable,
        inner: ColumnarTable,
        outer_indices,
        inner_indices,
    ) -> ColumnarTable:
        # Slot names are (alias, column) pairs; the mask compiler is
        # positional, so synthetic unique names suffice for the schema.
        combined = ColumnarTable(
            [f"s{i}" for i in range(len(self.slots))],
            [c.take(outer_indices) for c in outer.cols]
            + [c.take(inner_indices) for c in inner.cols],
            len(outer_indices),
        )
        if self._residual_mask is None:
            return combined
        return combined.filter(self._residual_mask(combined))

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        if ctx.columnar:
            result = self.as_columnar(ctx)
            if result is not None:
                yield from result.iter_rows()
                return
        inner_keys, outer_keys, residual = self._inner_keys, self._outer_keys, self._residual
        buckets: dict[tuple, list[Row]] = {}
        for inner_row in self.inner.rows(ctx):
            key = tuple(evaluate(inner_row) for evaluate in inner_keys)
            buckets.setdefault(key, []).append(inner_row)
        for outer_row in self.outer.rows(ctx):
            ctx.check()
            key = tuple(evaluate(outer_row) for evaluate in outer_keys)
            for inner_row in buckets.get(key, ()):
                row = outer_row + inner_row
                if residual is None or residual(row):
                    yield row

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer, self.inner)

    def describe(self) -> str:
        keys = ", ".join(
            f"{o.render()}={i.render()}" for o, i in zip(self.outer_terms, self.inner_terms)
        )
        return f"HSJOIN [{keys}]"


@dataclass
class Filter(PhysicalOperator):
    """FILTER — residual predicate evaluation."""

    child: PhysicalOperator
    conditions: list[Condition] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.slots = self.child.slots
        self._keep = compile_conditions(self.conditions, self.slots)
        self._mask = compile_conditions_mask(self.conditions, self.slots)

    def can_columnar(self) -> bool:
        return self.child.can_columnar()

    def as_columnar(self, ctx: ExecutionContext) -> Optional[ColumnarTable]:
        child = self.child.as_columnar(ctx)
        if child is None or self._mask is None:
            return child
        return child.filter(self._mask(child))

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        if ctx.columnar and self.can_columnar():
            yield from self.as_columnar(ctx).iter_rows()
            return
        keep = self._keep
        for row in self.child.rows(ctx):
            if keep is None or keep(row):
                yield row

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"FILTER [{' AND '.join(c.render() for c in self.conditions)}]"


@dataclass
class Sort(PhysicalOperator):
    """SORT — order by the given terms, optionally eliminating duplicate output rows."""

    child: PhysicalOperator
    order_terms: list[Term] = field(default_factory=list)
    select_items: list[tuple[Term, str]] = field(default_factory=list)
    distinct: bool = False

    def __post_init__(self) -> None:
        self.slots = self.child.slots
        self._order = [compile_term(term, self.slots) for term in self.order_terms]
        self._select = [compile_term(term, self.slots) for term, _name in self.select_items]

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        order_evals, select_evals = self._order, self._select
        materialised = list(self.child.rows(ctx))
        keys = [
            tuple(orderable(evaluate(row)) for evaluate in order_evals)
            for row in materialised
        ]
        order = sorted(range(len(materialised)), key=lambda position: keys[position])
        seen: set[tuple] = set()
        for position in order:
            ctx.check()
            row = materialised[position]
            if self.distinct:
                signature = tuple(evaluate(row) for evaluate in select_evals)
                if signature in seen:
                    continue
                seen.add(signature)
            yield row

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        terms = ", ".join(term.render() for term in self.order_terms)
        distinct = " DISTINCT" if self.distinct else ""
        return f"SORT [{terms}]{distinct}"


@dataclass
class Return(PhysicalOperator):
    """RETURN — project each row onto the query's select list."""

    child: PhysicalOperator
    select_items: list[tuple[Term, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.slots = self.child.slots
        self._select = [(compile_term(term, self.slots), name) for term, name in self.select_items]
        self._select_columns = [
            compile_term_columnar(term, self.slots) for term, _name in self.select_items
        ]

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:  # pragma: no cover - unused path
        yield from self.child.rows(ctx)

    def results(self, ctx: ExecutionContext) -> Iterator[dict[str, object]]:
        compiled = self._select
        for row in self.child.rows(ctx):
            yield {name: evaluate(row) for evaluate, name in compiled}

    def value_set_columns(self, ctx: ExecutionContext) -> Optional[list[list]]:
        """The select list as one list per item, in no particular row order.

        For callers that only build *sets* from the rows: a ``SORT DISTINCT``
        child is irrelevant to them, so it is peeled off and the select
        terms are evaluated over its input's columnar result — no per-row
        dict, no Python sort.  ``None`` when that input cannot produce
        columns (e.g. index nested-loop plans).
        """
        child = self.child.child if isinstance(self.child, Sort) else self.child
        if not child.can_columnar():
            return None
        return _value_lists(self._select_columns, child.as_columnar(ctx))

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"RETURN [{', '.join(name for _term, name in self.select_items)}]"
