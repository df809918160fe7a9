"""Tests for the reference plan interpreter."""

import pytest

from repro.errors import QueryTimeoutError
from repro.algebra.interpreter import PlanInterpreter, evaluate_plan
from repro.algebra.operators import (
    Attach, Cross, Distinct, DocTable, Join, LiteralTable, Project, RowId, RowRank, Select, Serialize,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate, Sum
from repro.algebra.table import Table


def test_doc_scan_and_select(small_auction_doc_table):
    plan = Select(
        DocTable(),
        Predicate.of(
            Comparison(ColumnRef("kind"), "=", Literal("ELEM")),
            Comparison(ColumnRef("name"), "=", Literal("open_auction")),
        ),
    )
    result = evaluate_plan(plan, small_auction_doc_table)
    assert len(result) == 3


def test_project_attach_rowid_rank(small_auction_doc_table):
    base = LiteralTable(("iter",), [(1,), (2,)])
    plan = RowRank(RowId(Attach(base, "pos", 1), "inner"), "rank", ("inner",))
    result = evaluate_plan(plan, small_auction_doc_table)
    assert result.columns == ("iter", "pos", "inner", "rank")
    assert [row[3] for row in result.rows] == [1, 2]


def test_equi_join_uses_hashing(small_auction_doc_table):
    left = Project(Select(DocTable(), Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM")))), [("lpre", "pre")])
    right = Project(DocTable(), [("rpre", "pre"), ("rname", "name")])
    join = Join(left, right, Predicate.equality("lpre", "rpre"))
    result = evaluate_plan(join, small_auction_doc_table)
    assert len(result) == len(evaluate_plan(left, small_auction_doc_table))


def test_range_join_axis_semantics(small_auction_doc_table):
    context = Project(
        Select(DocTable(), Predicate.of(Comparison(ColumnRef("name"), "=", Literal("open_auction")))),
        [("cpre", "pre"), ("csize", "size")],
    )
    candidates = Select(DocTable(), Predicate.of(Comparison(ColumnRef("name"), "=", Literal("bidder"))))
    join = Join(
        candidates,
        context,
        Predicate.of(
            Comparison(ColumnRef("cpre"), "<", ColumnRef("pre")),
            Comparison(ColumnRef("pre"), "<=", Sum(ColumnRef("cpre"), ColumnRef("csize"))),
        ),
    )
    result = evaluate_plan(join, small_auction_doc_table)
    assert len(result) == 3  # three bidder elements below open auctions


def test_cross_and_distinct(small_auction_doc_table):
    left = LiteralTable(("a",), [(1,), (2,)])
    right = LiteralTable(("b",), [(1,), (1,)])
    result = evaluate_plan(Distinct(Cross(left, right)), small_auction_doc_table)
    assert sorted(result.rows) == [(1, 1), (2, 1)]


def test_shared_subplans_evaluated_once(small_auction_doc_table):
    shared = Select(DocTable(), Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    left = Project(shared, [("a", "pre")])
    right = Project(shared, [("b", "pre")])
    plan = Join(left, right, Predicate.equality("a", "b"))
    interpreter = PlanInterpreter(small_auction_doc_table)
    interpreter.evaluate(plan)
    # doc, shared select, two projects, join, = 5 evaluations (not 6+)
    assert interpreter.operators_evaluated == 5


def test_timeout_raises(small_auction_doc_table):
    big = DocTable()
    plan = Cross(Project(big, [("a", "pre")]), Project(Cross(Project(big, [("b", "pre")]), Project(big, [("c", "pre")])), [("b", "b"), ("c", "c")]))
    with pytest.raises(QueryTimeoutError):
        evaluate_plan(plan, small_auction_doc_table, timeout_seconds=0.0)


def test_serialize_is_transparent(small_auction_doc_table):
    plan = Serialize(LiteralTable(("iter",), [(1,)]))
    assert evaluate_plan(plan, small_auction_doc_table).rows == [(1,)]


# -- GroupAggregate (the AGGR rule's operator) ----------------------------------------


def _aggregate_fixture(function, value_column=None):
    from repro.algebra.operators import GroupAggregate, LiteralTable

    child_columns = ["iter", "item"] + (["val"] if value_column else [])
    child = LiteralTable(
        child_columns,
        [
            row
            for row in (
                # iteration 1: two distinct units (one duplicated), values 10/20
                (1, 100, 10.0),
                (1, 100, 10.0),  # duplicate bundle row: must count once
                (1, 101, 20.0),
                # iteration 2: one unit without a numeric value
                (2, 102, None),
            )
        ]
        if value_column
        else [(1, 100), (1, 100), (1, 101), (2, 102)],
    )
    loop = LiteralTable(("iter",), [(1,), (2,), (3,)])  # iteration 3 is empty
    return GroupAggregate(
        child, loop, function, group_column="iter",
        unit_column="item", value_column=value_column,
    )


def test_group_aggregate_count_dedupes_and_completes_empty_groups(small_auction_doc_table):
    from repro.algebra.interpreter import PlanInterpreter

    table = PlanInterpreter(small_auction_doc_table).evaluate(_aggregate_fixture("count"))
    assert table.columns == ("iter", "item")
    assert table.rows == [(1, 2), (2, 1), (3, 0)]


def test_group_aggregate_sum_ignores_nulls_and_completes_with_zero(small_auction_doc_table):
    from repro.algebra.interpreter import PlanInterpreter

    table = PlanInterpreter(small_auction_doc_table).evaluate(_aggregate_fixture("sum", "val"))
    assert table.rows == [(1, 30.0), (2, 0), (3, 0)]


def test_group_aggregate_avg_drops_valueless_groups(small_auction_doc_table):
    from repro.algebra.interpreter import PlanInterpreter

    table = PlanInterpreter(small_auction_doc_table).evaluate(_aggregate_fixture("avg", "val"))
    # iteration 2 has a unit but no numeric value; iteration 3 no units.
    assert table.rows == [(1, 15.0)]


@pytest.mark.parametrize("function", ["count", "sum", "avg"])
def test_group_aggregate_folds_only_its_columns_on_both_modes(small_auction_doc_table, function):
    from repro.algebra.operators import GroupAggregate

    # The unit column is also the value column, and the loop carries a
    # column the fold never reads: both modes keep its rows, in order.
    child = LiteralTable(("iter", "item", "tag"), [(1, 4, "x"), (1, 4, "y"), (2, 5, "z"), (1, 6, "x")])
    loop = LiteralTable(("tag", "iter"), [("b", 2), ("a", 1), ("c", 3)])
    plan = GroupAggregate(
        child, loop, function, group_column="iter", unit_column="item",
        value_column=None if function == "count" else "item", item_column="agg",
    )
    compiled = PlanInterpreter(small_auction_doc_table).evaluate(plan)
    assert compiled == PlanInterpreter(small_auction_doc_table, compiled=False).evaluate(plan)
    assert compiled.rows == {
        "count": [("b", 2, 1), ("a", 1, 2), ("c", 3, 0)],
        "sum": [("b", 2, 5), ("a", 1, 10), ("c", 3, 0)],
        "avg": [("b", 2, 5.0), ("a", 1, 5.0)],
    }[function]


def test_group_aggregate_validates_its_columns():
    import pytest

    from repro.errors import AlgebraError
    from repro.algebra.operators import GroupAggregate, LiteralTable

    child = LiteralTable(("iter", "item"), [])
    loop = LiteralTable(("iter",), [(1,)])
    with pytest.raises(AlgebraError):
        GroupAggregate(child, loop, "median")
    with pytest.raises(AlgebraError):
        GroupAggregate(child, loop, "sum")  # sum needs a value column
    with pytest.raises(AlgebraError):
        GroupAggregate(child, loop, "count", value_column="item")


# -- plan depth is not Python stack depth -------------------------------------------

#: Three ``<b>`` elements, each heading a 130-deep chain of ``<c>``.
NESTED_XML = "<a>" + ("<b>" + "<c>" * 130 + "1" + "</c>" * 130 + "</b>") * 3 + "</a>"


@pytest.fixture(scope="module")
def nested_session():
    from repro.core.session import Session

    session = Session(default_document="nested.xml")
    session.register("nested.xml", NESTED_XML)
    return session


@pytest.mark.parametrize(
    "query",
    [
        'for $x in doc("nested.xml")//b return $x' + "/c" * 128,
        'doc("nested.xml")//b' + "[c" * 50 + "]" * 50,
    ],
    ids=["path128", "nested_predicates50"],
)
def test_deep_plans_evaluate_without_recursion(nested_session, query):
    stacked = nested_session.execute(query, configuration="stacked").items
    isolated = nested_session.execute(query, configuration="isolated").items
    assert stacked == isolated
    assert len(stacked) == 3


# -- the join kernels on any values ----------------------------------------------------

#: The queries of the benchmark's interpreted-engine workload.
ENGINES_WARM_QUERIES = ("Q1", "Q2", "Q8", "Q10", "Q13", "Q19")


@pytest.mark.parametrize("plan", ("stacked_plan", "isolated_plan"))
@pytest.mark.parametrize("name", ENGINES_WARM_QUERIES)
def test_xmark_plans_never_leave_the_vectorized_kernels(xmark_processor, name, plan):
    from repro.testing.corpus import XMARK_SUITE

    (case,) = [case for case in XMARK_SUITE if case.name == name]
    operator = getattr(xmark_processor.compile(case.xquery), plan)
    interpreter = PlanInterpreter(xmark_processor.doc_table)
    result = interpreter.evaluate(operator)
    assert result == PlanInterpreter(xmark_processor.doc_table, compiled=False).evaluate(operator)


def test_a_join_on_a_mixed_key_runs_the_hash_kernel(small_auction_doc_table, monkeypatch):
    from repro.algebra import columnar

    calls = []
    kernel = columnar.equi_join_indices
    monkeypatch.setattr(
        columnar,
        "equi_join_indices",
        lambda probe, build, *rest: calls.append(1) or kernel(probe, build, *rest),
    )
    left = LiteralTable(("k", "tag"), [(1, "x"), ("1", "y"), (2, "z"), (None, "w"), (1.0, "v")])
    right = LiteralTable(("k2",), [(1,), ("1",), (3,), (None,), (True,)])
    plan = Join(left, right, Predicate.equality("k", "k2"))
    interpreter = PlanInterpreter(small_auction_doc_table)
    result = interpreter.evaluate(plan)
    assert calls == [1] and interpreter.range_joins == 0
    assert result.rows[:3] == [(1, "x", 1), (1, "x", True), ("1", "y", "1")]
    assert result == PlanInterpreter(small_auction_doc_table, compiled=False).evaluate(plan)
    # A join without an equi conjunct is a range join, counted once per evaluate.
    not_equal = Predicate.of(Comparison(ColumnRef("k"), "!=", ColumnRef("k2")))
    interpreter.evaluate(Join(left, right, not_equal))
    assert interpreter.range_joins == 1
    interpreter.evaluate(left)
    assert interpreter.range_joins == 0
