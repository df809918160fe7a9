"""Differential tests: the columnar execution core vs the naive oracle.

The mask selections and the hash and range joins of
:class:`~repro.algebra.interpreter.PlanInterpreter` — a range join bounded
on both sides, on one side, or not at all (every pair a candidate, the
residual doing the joining), each expanded in blocks by
:func:`~repro.algebra.columnar.join_runs` — must be *bit-for-bit*
identical to the per-row-dict evaluation of ``compiled=False`` — same
rows, same order.  These property-style tests drive both modes over
randomized predicates, axis-join mixes and full compiled XQuery plans on
XMark/DBLP fragments.
"""

import random
import tracemalloc

import pytest

from repro.algebra.interpreter import PlanInterpreter, evaluate_plan
from repro.algebra.operators import Join, LiteralTable
from repro.algebra.predicates import (
    ColumnRef,
    Comparison,
    Literal,
    Predicate,
    Sum,
    compile_predicate_mask,
)
from repro.algebra.table import Table
from repro.errors import QueryTimeoutError
from repro.xquery.compiler import LoopLiftingCompiler

AXIS_OPS = ("<", "<=", ">", ">=", "=", "!=")


def _random_doc_rows(rng, count):
    """Rows shaped like pre/size/level slices plus a value/name column."""
    rows = []
    for pre in range(count):
        size = rng.randint(0, max(0, count - pre - 1))
        level = rng.randint(0, 6)
        name = rng.choice(["a", "b", "c", None])
        data = rng.choice([None, rng.randint(0, 40), rng.uniform(0, 40), "text"])
        rows.append((pre, size, level, name, data))
    return rows


def _random_term(rng, columns):
    choice = rng.random()
    if choice < 0.45:
        return ColumnRef(rng.choice(columns))
    if choice < 0.7:
        return Literal(rng.choice([0, 1, 5, 17, "a", None]))
    # Sums stay over the numeric pre/size/level columns: ``Sum.evaluate``
    # (reference and compiled alike) is only defined for numeric operands.
    return Sum(ColumnRef(rng.choice(("pre", "size", "level"))), Literal(rng.randint(0, 3)))


def _random_predicate(rng, columns, max_conjuncts=3):
    conjuncts = [
        Comparison(_random_term(rng, columns), rng.choice(AXIS_OPS), _random_term(rng, columns))
        for _ in range(rng.randint(1, max_conjuncts))
    ]
    return Predicate(conjuncts)


def test_compiled_select_matches_reference_on_random_predicates():
    rng = random.Random(1234)
    columns = ("pre", "size", "level", "name", "data")
    for _ in range(120):
        table = Table(columns, _random_doc_rows(rng, rng.randint(0, 25)))
        predicate = _random_predicate(rng, columns)
        columns_of = table.columnar()
        compiled = columns_of.filter(compile_predicate_mask(predicate, table.columns)(columns_of))
        reference = table.select(predicate.evaluate)
        assert compiled.to_table() == reference, predicate.render()


def _join_tables(rng, left_count, right_count):
    left = Table(
        ("pre", "size", "level"),
        [
            (pre, rng.randint(0, max(0, left_count - pre - 1)), rng.randint(0, 4))
            for pre in range(left_count)
        ],
    )
    right = Table(
        ("pre_1", "size_1", "level_1"),
        [
            (pre, rng.randint(0, max(0, right_count - pre - 1)), rng.randint(0, 4))
            for pre in range(right_count)
        ],
    )
    return left, right


def _axis_shaped_predicate(rng):
    """Random conjunct mixes shaped like the Fig. 3 axis predicates."""
    pool = [
        Comparison(ColumnRef("pre_1"), "<", ColumnRef("pre")),
        Comparison(ColumnRef("pre"), "<=", Sum(ColumnRef("pre_1"), ColumnRef("size_1"))),
        Comparison(ColumnRef("pre"), "<=", ColumnRef("pre_1")),
        Comparison(Sum(ColumnRef("pre_1"), ColumnRef("size_1")), "<", ColumnRef("pre")),
        Comparison(Sum(ColumnRef("level_1"), Literal(1)), "=", ColumnRef("level")),
        Comparison(ColumnRef("level"), "=", ColumnRef("level_1")),
        Comparison(ColumnRef("pre"), "=", ColumnRef("pre_1")),
        Comparison(ColumnRef("pre"), ">", Literal(2)),
        Comparison(ColumnRef("level"), "!=", ColumnRef("level_1")),
    ]
    count = rng.randint(1, 3)
    return Predicate(rng.sample(pool, count))


def test_join_fast_paths_match_reference_on_random_axis_mixes():
    rng = random.Random(99)
    for _ in range(150):
        left, right = _join_tables(rng, rng.randint(0, 18), rng.randint(0, 18))
        predicate = _axis_shaped_predicate(rng)
        plan = Join(
            LiteralTable(left.columns, left.rows),
            LiteralTable(right.columns, right.rows),
            predicate,
        )
        doc = Table(("pre",), [])
        fast = PlanInterpreter(doc).evaluate(plan)
        naive = PlanInterpreter(doc, compiled=False).evaluate(plan)
        assert fast.columns == naive.columns
        assert fast.rows == naive.rows, predicate.render()


def test_range_join_engages_on_descendant_predicate():
    left = Table(("pre", "size"), [(i, 0) for i in range(50)])
    right = Table(("pre_1", "size_1"), [(0, 49), (10, 5), (30, 2)])
    plan = Join(
        LiteralTable(left.columns, left.rows),
        LiteralTable(right.columns, right.rows),
        Predicate.of(
            Comparison(ColumnRef("pre_1"), "<", ColumnRef("pre")),
            Comparison(ColumnRef("pre"), "<=", Sum(ColumnRef("pre_1"), ColumnRef("size_1"))),
        ),
    )
    interpreter = PlanInterpreter(Table(("x",), []))
    fast = interpreter.evaluate(plan)
    assert interpreter.range_joins == 1
    naive = PlanInterpreter(Table(("x",), []), compiled=False).evaluate(plan)
    assert fast.rows == naive.rows


def test_range_join_orders_a_string_build_column_by_rank():
    # Strings, NULLs and a number in the bounded column, string and number
    # bounds: each bound reaches only the values of its own class.
    left = Table(("name",), [("a",), ("b",), (None,), (3,), ("ab",), ("c",), (4.5,)])
    right = Table(("lo", "hi"), [("a", "b"), (1, 5), ("b", 4), (None, "c"), ("aa", "bb")])
    plan = Join(
        LiteralTable(left.columns, left.rows),
        LiteralTable(right.columns, right.rows),
        Predicate.of(
            Comparison(ColumnRef("lo"), "<=", ColumnRef("name")),
            Comparison(ColumnRef("name"), "<=", ColumnRef("hi")),
        ),
    )
    interpreter = PlanInterpreter(Table(("x",), []))
    fast = interpreter.evaluate(plan)
    assert interpreter.range_joins == 1
    naive = PlanInterpreter(Table(("x",), []), compiled=False).evaluate(plan)
    assert fast.rows == naive.rows
    assert ("ab", "a", "b") in fast.rows and (3, 1, 5) in fast.rows


def _join_both_ways(left, right, *conjuncts):
    """Evaluate the join both ways; returns the columnar run's interpreter and rows."""
    plan = Join(
        LiteralTable(left.columns, left.rows),
        LiteralTable(right.columns, right.rows),
        Predicate.of(*conjuncts),
    )
    interpreter = PlanInterpreter(Table(("x",), []))
    fast = interpreter.evaluate(plan)
    naive = PlanInterpreter(Table(("x",), []), compiled=False).evaluate(plan)
    assert fast.columns == naive.columns
    assert fast.rows == naive.rows
    return interpreter, fast.rows


def test_range_join_without_a_bound_on_a_not_equal_only_predicate():
    left = Table(("a", "tag"), [(1, "x"), (2, "y"), (None, "z"), (2, "w"), ("2", "v")])
    right = Table(("b",), [(2,), (1,), (None,), (2.0,), ("2",)])
    interpreter, rows = _join_both_ways(
        left, right, Comparison(ColumnRef("a"), "!=", ColumnRef("b"))
    )
    assert interpreter.range_joins == 1
    # Left-major, right rows in order; NULL on either side never qualifies.
    assert rows[:4] == [(1, "x", 2), (1, "x", 2.0), (1, "x", "2"), (2, "y", 1)]
    assert not [row for row in rows if None in (row[0], row[2])]


HUGE = 2 ** 60
#: Ints beyond ±2**53, where float64 no longer orders them.
HUGE_LEFT = Table(("pre", "size"), [(HUGE + i, 2) for i in (0, 3, 1, 7)])
HUGE_RIGHT = Table(("p",), [(HUGE + i,) for i in (2, 1, 4, 3, 9, 0)])


def test_one_sided_range_join_over_huge_ints():
    # A one-sided range join on the ints' ranks, which order them exactly;
    # the residual compares ranks too.
    interpreter, rows = _join_both_ways(
        HUGE_LEFT,
        HUGE_RIGHT,
        Comparison(ColumnRef("pre"), "<", ColumnRef("p")),
        Comparison(ColumnRef("p"), "!=", Sum(ColumnRef("pre"), ColumnRef("size"))),
    )
    assert interpreter.range_joins == 1
    assert [(pre - HUGE, p - HUGE) for pre, _size, p in rows] == [
        (0, 1), (0, 4), (0, 3), (0, 9), (3, 4), (3, 9), (1, 2), (1, 4), (1, 9),
    ]


def test_range_join_over_huge_ints():
    interpreter, rows = _join_both_ways(
        HUGE_LEFT,
        HUGE_RIGHT,
        Comparison(ColumnRef("pre"), "<", ColumnRef("p")),
        Comparison(ColumnRef("p"), "<=", Sum(ColumnRef("pre"), ColumnRef("size"))),
    )
    assert interpreter.range_joins == 1
    assert [(pre - HUGE, p - HUGE) for pre, _size, p in rows] == [
        (0, 2), (0, 1), (3, 4), (1, 2), (1, 3), (7, 9),
    ]


def test_one_sided_range_join_checks_the_deadline_per_block():
    # 6 000 × 5 000 rows under a one-sided string range: 12.5 million pairs
    # in some 190 blocks, far slower than the budget.  The join is the
    # plan's last operator, so a check inside it raises.
    left = LiteralTable(("a",), [(f"a{i:04d}",) for i in range(6000)])
    right = LiteralTable(("b",), [(f"a{i:04d}",) for i in range(5000)])
    plan = Join(left, right, Predicate.of(Comparison(ColumnRef("a"), "<", ColumnRef("b"))))
    with pytest.raises(QueryTimeoutError):
        PlanInterpreter(Table(("x",), []), timeout_seconds=0.05).evaluate(plan)


#: Rows per side of the wide joins: 3 000 × 3 000 candidate pairs.
WIDE = 3000
#: The tracemalloc peak a wide join stays under (NumPy reports its buffers
#: to tracemalloc); all 9 million candidate pairs at once take over 400 MB.
WIDE_PEAK_BYTES = 32 << 20


@pytest.mark.parametrize("op", ["=", "<="], ids=["hash-join", "one-sided-range-join"])
def test_a_wide_join_holds_one_block_and_meets_its_deadline(op):
    # A constant key (every pair a candidate) and a selective residual that
    # no kernel plans: the residual masks each block of candidate pairs.
    plan = Join(
        LiteralTable(("k", "a"), [(0, i) for i in range(WIDE)]),
        LiteralTable(("k2", "b"), [(0, j) for j in range(WIDE)]),
        Predicate.of(
            Comparison(ColumnRef("k"), op, ColumnRef("k2")),
            Comparison(Sum(ColumnRef("a"), ColumnRef("b")), "=", Literal(WIDE - 1)),
        ),
    )
    with pytest.raises(QueryTimeoutError):
        PlanInterpreter(Table(("x",), []), timeout_seconds=0.05).evaluate(plan)
    interpreter = PlanInterpreter(Table(("x",), []))
    tracemalloc.start()
    try:
        result = interpreter.evaluate(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WIDE_PEAK_BYTES
    assert interpreter.range_joins == (op != "=")
    assert result.rows == [(0, i, 0, WIDE - 1 - i) for i in range(WIDE)]


XMARK_QUERIES = [
    'doc("auction.xml")/child::site',
    'doc("auction.xml")/descendant::open_auction',
    'doc("auction.xml")/descendant::open_auction/child::bidder/child::increase',
    'doc("auction.xml")/descendant::bidder[child::increase > 10]',
    'doc("auction.xml")/descendant::increase[. > 2.0]',
    'for $a in doc("auction.xml")/descendant::open_auction '
    "return $a/child::initial",
]

DBLP_QUERIES = [
    'doc("dblp.xml")/descendant::article',
    'doc("dblp.xml")/descendant::article/child::author',
    'doc("dblp.xml")/descendant::article[child::year > 1995]/child::title',
]


@pytest.mark.parametrize("query", XMARK_QUERIES)
def test_compiled_plans_match_reference_on_xmark(query, xmark_encoding):
    from repro.xmldb.encoding import DOC_COLUMNS

    table = Table(DOC_COLUMNS, xmark_encoding.rows())
    plan = LoopLiftingCompiler().compile_source(query)
    fast = evaluate_plan(plan, table)
    naive = evaluate_plan(plan, table, compiled=False)
    assert fast.columns == naive.columns
    assert fast.rows == naive.rows


@pytest.mark.parametrize("query", DBLP_QUERIES)
def test_compiled_plans_match_reference_on_dblp(query, dblp_encoding):
    from repro.xmldb.encoding import DOC_COLUMNS

    table = Table(DOC_COLUMNS, dblp_encoding.rows())
    plan = LoopLiftingCompiler().compile_source(query.replace("auction.xml", "dblp.xml"))
    fast = evaluate_plan(plan, table)
    naive = evaluate_plan(plan, table, compiled=False)
    assert fast.columns == naive.columns
    assert fast.rows == naive.rows
