"""Tests for access-path selection, join ordering and execution."""

import pytest

from repro.core.rewriter import isolate
from repro.core.joingraph import extract_join_graph
from repro.relational.catalog import database_from_encoding
from repro.relational.engine import RelationalEngine
from repro.relational.physical.operators import IndexScan, IndexNestedLoopJoin, TableScan
from repro.xquery.compiler import compile_query


def _graph(query):
    plan, _ = isolate(compile_query(query))
    return extract_join_graph(plan)


@pytest.fixture(scope="module")
def engine(small_auction_encoding):
    return RelationalEngine(database_from_encoding(small_auction_encoding))


def test_q1_plan_uses_index_nested_loops(engine):
    graph = _graph('doc("auction.xml")/descendant::open_auction[bidder]')
    planned = engine.plan(graph)
    explain = planned.explain()
    assert "IXSCAN" in explain
    assert "NLJOIN" in explain
    assert "SORT" in explain and "RETURN" in explain


def test_selective_alias_is_joined_first(engine):
    graph = _graph('doc("auction.xml")//open_auction[@id = "2"]')
    planned = engine.plan(graph)
    # the @id='2' attribute alias is the most selective: it should not be last
    assert planned.join_order[0] in graph.aliases


def test_value_predicate_starts_the_plan_when_statistics_favour_it(xmark_encoding):
    # Fig. 11: join order follows selectivity, not path syntax.  A threshold
    # above every generated price makes the data-filtered alias the cheapest
    # access, so the plan starts there (data-keyed index, lower bound) and
    # resolves the alias's XPath context afterwards — the step is reversed.
    engine = RelationalEngine(database_from_encoding(xmark_encoding))
    graph = _graph('doc("auction.xml")//closed_auction[price > 5000]/child::itemref')
    [value_alias] = [
        alias
        for alias in graph.aliases
        if any("data" in condition.render() for condition in graph.conditions_for(alias))
    ]
    planned = engine.plan(graph)
    assert planned.join_order[0] == value_alias
    assert "datalow" in planned.explain()


def test_execution_matches_interpreter(engine, small_auction_doc_table):
    from repro.algebra.interpreter import evaluate_plan
    query = 'doc("auction.xml")/descendant::open_auction[bidder]'
    plan, _ = isolate(compile_query(query))
    expected = {
        row[0]
        for row in evaluate_plan(plan, small_auction_doc_table).project([("item", "item")]).rows
    }
    result = engine.execute(_graph(query))
    assert set(result.items()) == expected


def test_results_ordered_by_document_order(engine):
    result = engine.execute(_graph('doc("auction.xml")/descendant::bidder'))
    items = result.items()
    assert items == sorted(items)


def test_distinct_eliminates_duplicates(engine):
    result = engine.execute(_graph('doc("auction.xml")//open_auction/child::bidder/child::increase'))
    assert len(result.items()) == len(set(result.items()))


def test_without_indexes_falls_back_to_table_scan(engine, small_auction_encoding):
    db = database_from_encoding(small_auction_encoding, with_default_indexes=False)
    db.drop_index("doc_pk_pre")
    bare_engine = RelationalEngine(db)
    graph = _graph('doc("auction.xml")/descendant::open_auction')
    planned = bare_engine.plan(graph)
    assert "TBSCAN" in planned.explain()
    # Same answer as over the Table VI index set, for more rows touched.
    bare, indexed = bare_engine.execute(graph), engine.execute(graph)
    assert bare.items() == indexed.items() and bare.items()
    assert bare.rows_scanned > indexed.rows_scanned


def test_timeout_is_enforced(engine):
    from repro.errors import QueryTimeoutError
    graph = _graph('doc("auction.xml")//open_auction/child::bidder/child::increase')
    with pytest.raises(QueryTimeoutError):
        engine.execute(graph, timeout_seconds=0.0)
