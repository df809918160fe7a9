"""Batched IXSCAN / NLJOIN: every outer row probed at once, held to the row-at-a-time reference.

The batched probe ranks bound values against the tree's sorted run and
narrows ``[lo, hi)`` one key column at a time with ``searchsorted``;
:mod:`tests.relational.probe_reference` bisects a decorated run once per
outer row.  Same rows in the same order, same counters.  Set
``REPRO_PROBE_EXAMPLES`` for a deeper run (the nightly sweep does).
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.table import Table
from repro.algebra.predicates import Comparison, Literal
from repro.core.joingraph import ColumnTerm
from repro.errors import QueryTimeoutError
from repro.relational.btree import BTreeIndex
from repro.relational.physical.operators import (
    ExecutionContext,
    IndexBound,
    IndexNestedLoopJoin,
    IndexScan,
    TableScan,
)

from tests.relational.probe_reference import probe_rows

EXAMPLES = int(os.environ.get("REPRO_PROBE_EXAMPLES", "200"))

KEY = ("a", "b", "c")
COLUMNS = ("id",) + KEY

#: Per key column, one family of values: exact ints and floats (1 == 1.0
#: sort together), strings (dictionary-coded), or a mix (decorated one by one).
_FAMILIES = {
    "number": st.one_of(st.none(), st.integers(-2, 3), st.sampled_from([0.5, 1.0, 2.5])),
    "string": st.one_of(st.none(), st.sampled_from(["", "a", "b", "bb"])),
    "mixed": st.one_of(st.none(), st.integers(-1, 2), st.sampled_from(["a", "b"])),
}
#: Bound values, including strings no table holds and numbers between the held ones.
_VALUE = st.one_of(
    st.none(), st.integers(-3, 4), st.sampled_from([0.75, 2.0, "", "a", "ab", "bb", "zz"])
)


@st.composite
def _tables(draw):
    families = [draw(st.sampled_from(sorted(_FAMILIES))) for _ in KEY]
    rows = draw(
        st.lists(st.tuples(*(_FAMILIES[family] for family in families)), max_size=40)
    )
    return Table(COLUMNS, [(position,) + row for position, row in enumerate(rows)])


@st.composite
def _bounds(draw, outer: bool):
    """An equality prefix of the key, then any number of range bounds on the next column.

    A term is a constant (``None`` included: a NULL constant prefix), or —
    under an outer alias — one of its columns, which may hold NULLs.
    """
    constants = _VALUE.map(Literal)
    columns = st.sampled_from(KEY).map(lambda column: ColumnTerm("o", column))
    term = st.one_of(constants, columns) if outer else constants
    depth = draw(st.integers(0, len(KEY)))
    bounds = [IndexBound(column, "eq", draw(term)) for column in KEY[:depth]]
    if depth < len(KEY):
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["low", "high"]))
            bounds.append(IndexBound(KEY[depth], kind, draw(term), inclusive=draw(st.booleans())))
    return bounds


def _residual(draw_flag: bool, outer: bool):
    if not draw_flag:
        return []
    other = ColumnTerm("o", "b") if outer else Literal("a")
    return [Comparison(ColumnTerm("i", "a"), "!=", other)]


def _rows(rows, tables):
    """The joined row tuples of a batched result, aliases in order."""
    return [
        sum((tables[alias].rows[int(rows.positions[alias][i])] for alias in tables), ())
        for i in range(rows.length)
    ]


@settings(max_examples=EXAMPLES, deadline=None)
@given(_tables(), st.data())
def test_batched_ixscan_matches_the_row_reference(table, data):
    bounds = data.draw(_bounds(outer=False))
    residual = _residual(data.draw(st.booleans()), outer=False)
    index = BTreeIndex.build("idx", table, KEY)
    ctx = ExecutionContext()
    rows = IndexScan(index, table, "i", bounds, residual).run(ctx)
    expected, scanned, probes = probe_rows(table, KEY, "i", bounds, residual)
    assert (_rows(rows, {"i": table}), ctx.rows_scanned, ctx.index_probes) == (
        expected, scanned, probes
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(_tables(), st.data())
def test_batched_nljoin_matches_the_row_reference(table, data):
    # A self-join probes with the table's own dictionaries; a second table
    # brings its own, so its strings rank one by one.
    outer = table if data.draw(st.booleans()) else data.draw(_tables())
    bounds = data.draw(_bounds(outer=True))
    residual = _residual(data.draw(st.booleans()), outer=True)
    index = BTreeIndex.build("idx", table, KEY)
    ctx = ExecutionContext()
    join = IndexNestedLoopJoin(TableScan(outer, "o"), index, table, "i", bounds, residual)
    rows = join.run(ctx)
    expected, scanned, probes = probe_rows(table, KEY, "i", bounds, residual, ("o", outer))
    assert (_rows(rows, {"o": outer, "i": table}), ctx.rows_scanned, ctx.index_probes) == (
        expected, scanned + len(outer), probes
    )


# -- IXSCAN regressions: the tightest bound, and the counters ---------------------------

TEN = Table(("pre",), [(pre,) for pre in range(10)])


def _scan(*bounds):
    index = BTreeIndex.build("pre", TEN, ("pre",))
    ctx = ExecutionContext()
    rows = IndexScan(index, TEN, "i", list(bounds)).run(ctx)
    return rows.positions["i"].tolist(), ctx.rows_scanned


def _bound(kind, value, inclusive):
    return IndexBound("pre", kind, Literal(value), inclusive=inclusive)


@pytest.mark.parametrize("swap", [False, True], ids=["inclusive-first", "exclusive-first"])
def test_at_a_tie_the_exclusive_low_bound_wins(swap):
    bounds = [_bound("low", 5, True), _bound("low", 5, False)]
    assert _scan(*(bounds[::-1] if swap else bounds)) == ([6, 7, 8, 9], 4)


@pytest.mark.parametrize("swap", [False, True], ids=["inclusive-first", "exclusive-first"])
def test_at_a_tie_the_exclusive_high_bound_wins(swap):
    bounds = [_bound("high", 5, True), _bound("high", 5, False)]
    assert _scan(*(bounds[::-1] if swap else bounds)) == ([0, 1, 2, 3, 4], 5)


def test_a_string_and_a_number_bound_compare_in_btree_order():
    # Strings sort after every number, so `pre > "a"` is the tighter bound.
    assert _scan(_bound("low", 3, False), _bound("low", "a", False)) == ([], 0)
    assert _scan(_bound("low", 3, False), _bound("high", "a", False)) == ([4, 5, 6, 7, 8, 9], 6)


def test_an_inverted_range_scans_no_rows():
    assert _scan(_bound("low", 7, False), _bound("high", 3, False)) == ([], 0)


def test_a_runaway_nljoin_times_out_between_blocks():
    # Every outer row matches every inner row: 4 million pairs, expanded by
    # columnar.join_runs in blocks of JOIN_BLOCK_PAIRS, one deadline check each.
    table = Table(("k", "v"), [(1, v) for v in range(2000)])
    index = BTreeIndex.build("k", table, ("k", "v"))
    join = IndexNestedLoopJoin(
        TableScan(table, "o"), index, table, "i", [IndexBound("k", "eq", ColumnTerm("o", "k"))]
    )
    with pytest.raises(QueryTimeoutError):
        join.run(ExecutionContext(timeout_seconds=0.01))
