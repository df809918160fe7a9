"""Row-at-a-time index probes: the reference the batched IXSCAN / NLJOIN are tested against.

The obviously-correct probe: one pair of bisections per outer row over a
run of ``orderable``-decorated key tuples, tuple concatenation per match
and a residual closure per joined row.  It shares no code with
:mod:`repro.relational.physical.operators` or the tree's rank arrays: the
run, the slot layout and the condition closures are all defined here.
Bounds compare as :func:`orderable` forms (the B-tree's own order, so a
string and a number compare too); of several bounds on one side the
tightest wins, and at equal values the exclusive one is the tighter; a
probe scans ``max(0, end - start)`` rows.

:func:`probe_rows` is the whole interface: the joined row tuples, in
order, plus the ``(rows_scanned, index_probes)`` the probe adds.
"""

import bisect
import operator
from typing import Callable, Optional, Sequence

from repro.algebra.columnar import orderable
from repro.algebra.table import Table
from repro.algebra.predicates import Comparison, Literal, Sum
from repro.core.joingraph import ColumnTerm, Term
from repro.relational.btree import PRE_PLUS_SIZE
from repro.relational.physical.operators import IndexBound

Row = tuple

#: Compares greater than every ``orderable`` component.
_AFTER = (3,)

_RANGE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Slots:
    """``(alias, column) -> position`` in a row built by concatenating table rows."""

    def __init__(self, tables: Sequence[tuple[str, Table]]):
        self.positions: dict[tuple[str, str], int] = {}
        offset = 0
        for alias, table in tables:
            for index, column in enumerate(table.columns):
                self.positions[(alias, column)] = offset + index
            offset += len(table.columns)


def compile_term(term: Term, slots: Slots) -> Callable[[Row], object]:
    if isinstance(term, ColumnTerm):
        position = slots.positions.get((term.alias, term.column))
        if position is None:
            return lambda row: None
        return lambda row: row[position]
    if isinstance(term, Literal):
        return lambda row: term.value
    if isinstance(term, Sum):
        parts = [compile_term(part, slots) for part in term.terms]

        def _sum(row: Row) -> object:
            total = 0
            for part in parts:
                value = part(row)
                if value is None:
                    return None
                total += value
            return total

        return _sum
    raise AssertionError(f"no reference for term {term!r}")


def compile_condition(condition: Comparison, slots: Slots) -> Callable[[Row], bool]:
    left, right = compile_term(condition.left, slots), compile_term(condition.right, slots)

    def test(row: Row) -> bool:
        lv, rv = left(row), right(row)
        if lv is None or rv is None:
            return False
        if condition.op == "=":
            return lv == rv
        if condition.op == "!=":
            return lv != rv
        try:
            return _RANGE[condition.op](lv, rv)
        except TypeError:
            return False

    return test


def _key_of(table: Table, column: str) -> Callable[[Row], object]:
    if column == PRE_PLUS_SIZE:
        pre, size = table.column_index("pre"), table.column_index("size")
        return lambda row: row[pre] + row[size]
    index = table.column_index(column)
    return lambda row: row[index]


def probe_rows(
    table: Table,
    key_columns: Sequence[str],
    alias: str,
    bounds: Sequence[IndexBound],
    residual: Sequence[Comparison],
    outer: Optional[tuple[str, Table]] = None,
) -> tuple[list[Row], int, int]:
    """Probe ``table`` through an index on ``key_columns`` once per outer row.

    Without ``outer`` this is a bare IXSCAN (one empty outer row); with
    ``(outer_alias, outer_table)`` an NLJOIN driven by every row of the
    outer table.  Returns the joined rows (outer row + table row) and the
    ``rows_scanned`` / ``index_probes`` the probe itself adds.
    """
    keys = [_key_of(table, column) for column in key_columns]
    entries = sorted(
        range(len(table.rows)),
        key=lambda position: tuple(orderable(key(table.rows[position])) for key in keys),
    )
    run = [tuple(orderable(key(table.rows[position])) for key in keys) for position in entries]

    outer_tables = [outer] if outer is not None else []
    outer_slots = Slots(outer_tables)
    output_slots = Slots(outer_tables + [(alias, table)])
    residual_tests = [compile_condition(condition, output_slots) for condition in residual]

    equalities = {bound.column: bound for bound in bounds if bound.kind == "eq"}
    prefix = []
    for column in key_columns:
        if column not in equalities:
            break
        prefix.append(equalities[column])
    depth = len(prefix)
    ranged = [
        bound
        for bound in bounds
        if bound.kind != "eq" and depth < len(key_columns) and bound.column == key_columns[depth]
    ]
    evaluate = {id(bound): compile_term(bound.term, outer_slots) for bound in bounds}

    rows: list[Row] = []
    scanned = probes = 0
    for outer_row in (outer[1].rows if outer is not None else [()]):
        probes += 1
        values = {id(bound): evaluate[id(bound)](outer_row) for bound in bounds}
        if None in values.values():
            continue
        low = high = tuple(orderable(values[id(bound)]) for bound in prefix)
        low_inclusive = high_inclusive = True
        lows = [bound for bound in ranged if bound.kind == "low"]
        highs = [bound for bound in ranged if bound.kind == "high"]
        if lows:
            at = lows[0]
            for other in lows[1:]:
                a, b = orderable(values[id(other)]), orderable(values[id(at)])
                if a > b or (a == b and not other.inclusive):
                    at = other
            low, low_inclusive = low + (orderable(values[id(at)]),), at.inclusive
        if highs:
            at = highs[0]
            for other in highs[1:]:
                a, b = orderable(values[id(other)]), orderable(values[id(at)])
                if a < b or (a == b and not other.inclusive):
                    at = other
            high, high_inclusive = high + (orderable(values[id(at)]),), at.inclusive
        start = bisect.bisect_left(run, low if low_inclusive else low + (_AFTER,))
        end = bisect.bisect_left(run, high + (_AFTER,) if high_inclusive else high)
        scanned += max(0, end - start)
        for position in entries[start:end]:
            row = outer_row + table.rows[position]
            if all(test(row) for test in residual_tests):
                rows.append(row)
    return rows, scanned, probes
