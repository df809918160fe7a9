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

Every operator produces one representation, :class:`Rows`: a join result
held as one int64 **row-position vector per alias**, so the self-join
aliases of the join graph stay separate at the cost of one array each.  A
column is a view of the table's columnar twin at its alias' positions,
made only when a bound, residual, order or select term reads it; a kernel
gathers its ranks, and RETURN its objects, for those rows alone.
Join-graph terms and conditions are compiled once per plan into closures
over those views by the interpreter's own compiler
(:func:`~repro.algebra.predicates.compile_comparisons_mask`), a column
resolving to its alias's view (:func:`alias_columns`), so a conjunction is
one :func:`~repro.algebra.columnar.compare_mask` per conjunct.  Each operator
materialises its whole result:

* IXSCAN and NLJOIN probe the B-tree for **all outer rows at once** — one
  ``searchsorted`` per key column over the tree's rank arrays
  (:meth:`~repro.relational.btree.BPlusTree.segment_base`);
* TBSCAN and FILTER are mask scans, and HSJOIN merges the order ranks of
  any keys (:func:`~repro.algebra.columnar.equi_join_indices`), or pairs
  every outer row with every inner row when it has none;
* every join expands its matches through
  :func:`~repro.algebra.columnar.join_runs`: in blocks of at most
  ``JOIN_BLOCK_PAIRS`` candidate pairs, one deadline check and one
  residual mask each;
* SORT is a stable ``lexsort`` over order ranks plus first-occurrence
  DISTINCT, and RETURN gathers values only for the rows it returns.

A two-level NLJOIN, as position vectors into the one table:

>>> from repro.algebra.table import Table
>>> from repro.algebra.predicates import Literal
>>> from repro.core.joingraph import ColumnTerm
>>> from repro.relational.btree import BTreeIndex
>>> table = Table(("pre", "parent", "name"), [(10, None, "a"), (11, 10, "b"), (12, 10, "b"),
...                                           (13, 11, "c"), (14, 12, "c"), (15, 12, "c")])
>>> by_name = BTreeIndex.build("by_name", table, ("name", "pre"))
>>> by_parent = BTreeIndex.build("by_parent", table, ("parent", "pre"))
>>> a = IndexScan(by_name, table, "a", [IndexBound("name", "eq", Literal("a"))])
>>> b = IndexNestedLoopJoin(a, by_parent, table, "b",
...                         [IndexBound("parent", "eq", ColumnTerm("a", "pre"))])
>>> c = IndexNestedLoopJoin(b, by_parent, table, "c",
...                         [IndexBound("parent", "eq", ColumnTerm("b", "pre"))])
>>> ctx = ExecutionContext()
>>> rows = c.run(ctx)
>>> {alias: positions.tolist() for alias, positions in rows.positions.items()}
{'a': [0, 0, 0], 'b': [1, 2, 2], 'c': [3, 4, 5]}
>>> rows.column("c", "pre").tolist(), ctx.index_probes, ctx.rows_scanned
([13, 14, 15], 4, 6)

An operator tree is an **immutable program**: every term and condition
closure and index-probe bound is compiled by the operator's constructor
(the constant head of a probe key is resolved to its run segment by the
first execution), and everything one execution changes lives in its
:class:`ExecutionContext`.  The engine caches planned trees and runs one
tree from many threads at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError, check_deadline
from repro.algebra import columnar as _columnar
from repro.algebra.columnar import Column
from repro.algebra.predicates import Comparison, Literal
from repro.algebra.predicates import compile_comparisons_mask, compile_term_columnar
from repro.algebra.table import Table
from repro.core.joingraph import ColumnTerm, Term
from repro.core.sqlgen import sql_comparison, sql_term
from repro.relational.btree import BTreeIndex


class ExecutionContext:
    """Per-execution state: the deadline and the operator counters."""

    def __init__(self, timeout_seconds: Optional[float] = None):
        self.timeout_seconds = timeout_seconds
        self.deadline = (
            time.perf_counter() + timeout_seconds if timeout_seconds is not None else None
        )
        self.rows_scanned = 0
        self.index_probes = 0

    def check(self) -> None:
        check_deadline(self.deadline, self.timeout_seconds)


def _take(positions: Mapping[str, Optional[np.ndarray]], indices) -> dict:
    """Every alias' positions gathered at ``indices`` (``None``: the identity)."""
    return {
        alias: indices if vector is None else vector[indices]
        for alias, vector in positions.items()
    }


class Rows:
    """A join result: one int64 row-position vector per alias, all of one length.

    ``tables`` maps each alias to the table its positions index; a vector
    of ``None`` stands for every row of the table, in order (an unfiltered
    TBSCAN).  :meth:`column` makes a column's view on its first read and
    keeps it, with whatever its readers gathered, for the other readers of
    this result.
    """

    __slots__ = ("tables", "positions", "length", "_columns")

    def __init__(self, tables: Mapping[str, Table], positions: dict, length: int):
        self.tables = tables
        self.positions = positions
        self.length = length
        self._columns: dict[tuple[str, str], Column] = {}

    def column(self, alias: str, name: str) -> Column:
        column = self._columns.get((alias, name))
        if column is None:
            column = self.tables[alias].columnar().col(name)
            vector = self.positions[alias]
            if vector is not None:
                column = column.take(vector)
            self._columns[(alias, name)] = column
        return column

    def take(self, indices) -> "Rows":
        return Rows(self.tables, _take(self.positions, indices), len(indices))

    def filter(self, mask) -> "Rows":
        indices = mask.nonzero()[0]
        return self if len(indices) == self.length else self.take(indices)


def alias_columns(tables: Mapping[str, Table]):
    """Compile a :class:`ColumnTerm` to its alias's view of :class:`Rows` over ``tables``.

    A column the alias does not carry evaluates to NULL.
    """

    def resolve(term):
        if not isinstance(term, ColumnTerm):
            raise ExecutionError(f"cannot compile term {term!r}")
        table = tables.get(term.alias)
        if table is None or term.column not in table.columns:
            return lambda rows: None
        alias, name = term.alias, term.column
        return lambda rows: rows.column(alias, name)

    return resolve


def _compile_terms(terms, tables: Mapping[str, Table]) -> list:
    """Each term compiled into a closure over :class:`Rows` of ``tables``."""
    resolve = alias_columns(tables)
    return [compile_term_columnar(term, resolve) for term in terms]


def _column(value, length: int) -> Column:
    """A term's value — a Column, or a constant / missing-column NULL — as a Column."""
    return value if isinstance(value, Column) else Column.constant(value, length)


@dataclass
class PhysicalOperator:
    """Base class: every operator produces :class:`Rows` and can explain itself.

    ``__post_init__`` of each operator sets :attr:`tables` (the alias →
    table map of its output) and compiles its closures against it.
    """

    tables = {}

    def run(self, ctx: ExecutionContext) -> Rows:  # pragma: no cover - abstract
        raise NotImplementedError

    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


@dataclass
class TableScan(PhysicalOperator):
    """TBSCAN — scan the base table, applying residual conditions."""

    table: Table
    alias: str
    conditions: list[Comparison] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.tables = {self.alias: self.table}
        self._mask = compile_comparisons_mask(self.conditions, alias_columns(self.tables))

    def run(self, ctx: ExecutionContext) -> Rows:
        ctx.check()
        ctx.rows_scanned += len(self.table.rows)
        rows = Rows(self.tables, {self.alias: None}, len(self.table.rows))
        return rows if self._mask is None else rows.filter(self._mask(rows))

    def describe(self) -> str:
        predicate = " ".join(map(sql_comparison, self.conditions))
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


def _vector(value, length: int) -> np.ndarray:
    return value if isinstance(value, np.ndarray) else np.full(length, value)


class _Probe:
    """Bounds + residual of one index access, compiled against the outer and output tables.

    ``bounds`` terms are evaluated over the *outer* rows (one empty row for
    a bare IXSCAN), the residual over the joined rows.  The probe key is
    the equality prefix of the index key — its leading constants resolved
    to one run segment by the first execution — plus every range bound on
    the next key column, the tightest one winning (at equal values an
    exclusive bound is the tighter).  A bound that evaluates to NULL
    matches nothing; bounds off the key are evaluated for NULL only.
    """

    def __init__(
        self,
        index: BTreeIndex,
        alias: str,
        bounds: Sequence[IndexBound],
        residual: Sequence[Comparison],
        outer_tables: Mapping[str, Table],
        tables: Mapping[str, Table],
    ):
        self.index = index
        self.alias = alias
        self.tables = tables
        self.residual = compile_comparisons_mask(residual, alias_columns(tables))
        key = index.key_columns
        equalities = {bound.column: bound for bound in bounds if bound.kind == "eq"}
        prefix: list[IndexBound] = []
        for column in key:
            if column not in equalities:
                break
            prefix.append(equalities[column])
        self.depth = len(prefix)
        ranged = [
            bound
            for bound in bounds
            if bound.kind != "eq" and self.depth < len(key) and bound.column == key[self.depth]
        ]
        self.first = 0  # the constant head: prefix[:first]
        while self.first < self.depth and isinstance(prefix[self.first].term, Literal):
            self.first += 1
        self.head = tuple(bound.term.value for bound in prefix[: self.first])
        self._segment: Optional[tuple[int, int]] = None
        keyed = {id(bound) for bound in prefix + ranged}
        evaluated = prefix[self.first :] + ranged
        evaluated += [bound for bound in bounds if id(bound) not in keyed]
        #: The prefix bounds after the head, the range bounds, then the bounds off the key.
        self.terms = _compile_terms([bound.term for bound in evaluated], outer_tables)
        #: ``(is_low, searchsorted side)`` per range bound.
        self.ranges = [
            (bound.kind == "low", "left" if bound.inclusive == (bound.kind == "low") else "right")
            for bound in ranged
        ]

    def matches(self, ctx: ExecutionContext, outer: Rows) -> Rows:
        """Probe the B-tree for every outer row at once: the joined rows, outer-major."""
        ctx.check()
        ctx.index_probes += outer.length
        tree = self.index.tree
        if self._segment is None:  # idempotent: racing first calls store equal segments
            self._segment = (0, 0) if None in self.head else tree.span(self.head, self.head)
        # The segments start as the head's and narrow per key column:
        # scalars until a bound varies per outer row, then arrays.
        low, high = self._segment
        values = [term(outer) for term in self.terms]
        n = outer.length
        if low >= high or not n or any(value is None for value in values):
            return self._empty()
        keyed = self.depth - self.first
        for depth, value in enumerate(values[:keyed], start=self.first):
            search = tree.search[depth]
            targets = tree.segment_base(depth, low) + tree.domains[depth].rank(value)
            low, high = (
                np.maximum(low, search.searchsorted(targets, "left")),
                np.minimum(high, search.searchsorted(targets, "right")),
            )
        if self.ranges:
            search, base = tree.search[self.depth], tree.segment_base(self.depth, low)
            domain = tree.domains[self.depth]
            for (is_low, side), value in zip(self.ranges, values[keyed:]):
                at = search.searchsorted(base + domain.rank(value), side)
                if is_low:
                    low = np.maximum(low, at)
                else:
                    high = np.minimum(high, at)
        counts = np.maximum(high - low, 0)
        for value in values:
            if isinstance(value, Column):
                counts = counts * value.notnull
        counts = _vector(counts, n)
        ctx.rows_scanned += int(counts.sum())

        def joined(outer_ids, inner_ids) -> Rows:
            positions = _take(outer.positions, outer_ids)
            positions[self.alias] = inner_ids
            return Rows(self.tables, positions, len(outer_ids))

        residual = self.residual
        keep = residual and (lambda outer_ids, inner_ids: residual(joined(outer_ids, inner_ids)))
        runs = _columnar.join_runs(_vector(low, n), counts, self.index.tree.rows, ctx.check, keep)
        return joined(*runs)

    def _empty(self) -> Rows:
        return Rows(self.tables, dict.fromkeys(self.tables, np.empty(0, np.int64)), 0)


def _describe_bounds(bounds: Sequence[IndexBound]) -> str:
    return ", ".join(f"{b.column}{'=' if b.kind == 'eq' else b.kind}" for b in bounds)


@dataclass
class IndexScan(PhysicalOperator):
    """IXSCAN — B-tree access with a constant equality prefix and range bound."""

    index: BTreeIndex
    table: Table
    alias: str
    bounds: list[IndexBound] = field(default_factory=list)
    residual: list[Comparison] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.tables = {self.alias: self.table}
        self._probe = _Probe(self.index, self.alias, self.bounds, self.residual, {}, self.tables)

    def run(self, ctx: ExecutionContext) -> Rows:
        return self._probe.matches(ctx, Rows({}, {}, 1))

    def describe(self) -> str:
        keys = ",".join(self.index.key_columns)
        residual = f" residual={len(self.residual)}" if self.residual else ""
        return (
            f"IXSCAN({self.alias}) index={self.index.name}({keys}) "
            f"bounds[{_describe_bounds(self.bounds)}]{residual}"
        )


@dataclass
class IndexNestedLoopJoin(PhysicalOperator):
    """NLJOIN — probe the inner alias through a B-tree, for all outer rows at once."""

    outer: PhysicalOperator
    index: BTreeIndex
    table: Table
    alias: str
    bounds: list[IndexBound] = field(default_factory=list)
    residual: list[Comparison] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.tables = {**self.outer.tables, self.alias: self.table}
        self._probe = _Probe(
            self.index, self.alias, self.bounds, self.residual, self.outer.tables, self.tables
        )

    def run(self, ctx: ExecutionContext) -> Rows:
        return self._probe.matches(ctx, self.outer.run(ctx))

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
    residual: list[Comparison] = field(default_factory=list)
    estimated_rows: float = 0.0

    def __post_init__(self) -> None:
        self.tables = {**self.outer.tables, **self.inner.tables}
        self._outer_keys = _compile_terms(self.outer_terms, self.outer.tables)
        self._inner_keys = _compile_terms(self.inner_terms, self.inner.tables)
        self._residual = compile_comparisons_mask(self.residual, alias_columns(self.tables))

    def run(self, ctx: ExecutionContext) -> Rows:
        outer = self.outer.run(ctx)
        inner = self.inner.run(ctx)
        ctx.check()

        def joined(outer_ids, inner_ids) -> Rows:
            positions = {**_take(outer.positions, outer_ids), **_take(inner.positions, inner_ids)}
            return Rows(self.tables, positions, len(outer_ids))

        residual = self._residual
        keep = residual and (lambda outer_ids, inner_ids: residual(joined(outer_ids, inner_ids)))
        if self._outer_keys:
            pairs = _columnar.equi_join_indices(
                [_column(key(outer), outer.length) for key in self._outer_keys],
                [_column(key(inner), inner.length) for key in self._inner_keys],
                ctx.check,
                keep,
            )
        else:  # every inner row is every outer row's run, and the residual joins
            low, counts = np.zeros(outer.length, np.int64), np.full(outer.length, inner.length)
            pairs = _columnar.join_runs(low, counts, np.arange(inner.length), ctx.check, keep)
        return joined(*pairs)

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer, self.inner)

    def describe(self) -> str:
        keys = ", ".join(
            f"{sql_term(o)}={sql_term(i)}" for o, i in zip(self.outer_terms, self.inner_terms)
        )
        return f"HSJOIN [{keys}]"


@dataclass
class Filter(PhysicalOperator):
    """FILTER — residual predicate evaluation."""

    child: PhysicalOperator
    conditions: list[Comparison] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.tables = self.child.tables
        self._mask = compile_comparisons_mask(self.conditions, alias_columns(self.tables))

    def run(self, ctx: ExecutionContext) -> Rows:
        rows = self.child.run(ctx)
        return rows if self._mask is None else rows.filter(self._mask(rows))

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"FILTER [{' AND '.join(map(sql_comparison, self.conditions))}]"


@dataclass
class Sort(PhysicalOperator):
    """SORT — order by the given terms, optionally eliminating duplicate output rows."""

    child: PhysicalOperator
    order_terms: list[Term] = field(default_factory=list)
    select_items: list[tuple[Term, str]] = field(default_factory=list)
    distinct: bool = False

    def __post_init__(self) -> None:
        self.tables = self.child.tables
        self._order = _compile_terms(self.order_terms, self.tables)
        self._select = _compile_terms([term for term, _name in self.select_items], self.tables)

    def run(self, ctx: ExecutionContext) -> Rows:
        rows = self.child.run(ctx)
        ctx.check()
        # A constant orders nothing and makes no two rows distinct.
        keys = [key for key in (order(rows) for order in self._order) if isinstance(key, Column)]
        if keys and rows.length > 1:  # lexsort is stable; its last key is the primary one
            rows = rows.take(np.lexsort([key.ranks for key in reversed(keys)]))
        if self.distinct:
            selected = (select(rows) for select in self._select)
            first = _columnar.first_occurrences(
                [column for column in selected if isinstance(column, Column)], rows.length
            )
            if first is not None:
                rows = rows.take(first)
        return rows

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        terms = ", ".join(map(sql_term, self.order_terms))
        distinct = " DISTINCT" if self.distinct else ""
        return f"SORT [{terms}]{distinct}"


@dataclass
class Return(PhysicalOperator):
    """RETURN — project each row onto the query's select list."""

    child: PhysicalOperator
    select_items: list[tuple[Term, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.tables = self.child.tables
        self._select = _compile_terms([term for term, _name in self.select_items], self.tables)

    def results(self, ctx: ExecutionContext) -> list[dict[str, object]]:
        """One ``{name: value}`` per result row, in order."""
        rows = self.child.run(ctx)
        names = [name for _term, name in self.select_items]
        values = [_column(select(rows), rows.length).tolist() for select in self._select]
        return [dict(zip(names, row)) for row in zip(*values)]

    def value_set_columns(self, ctx: ExecutionContext) -> list[Column]:
        """The select list as one Column per item, in no particular row order.

        For callers that only build *sets* from the rows: a ``SORT DISTINCT``
        child is irrelevant to them, so it is peeled off.
        """
        child = self.child.child if isinstance(self.child, Sort) else self.child
        rows = child.run(ctx)
        return [_column(select(rows), rows.length) for select in self._select]

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"RETURN [{', '.join(name for _term, name in self.select_items)}]"
