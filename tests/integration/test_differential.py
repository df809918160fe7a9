"""Differential tests: all execution strategies must agree on the workload."""

import pytest

from repro.testing.corpus import WORKLOAD, query_by_name
from repro.purexml.engine import PureXMLEngine


XMARK_QUERIES = ["Q1", "Q3", "Q4", "Q2"]
DBLP_QUERIES = ["Q5", "Q6"]


def _processor_for(query, xmark_processor, dblp_processor):
    return xmark_processor if query.dataset == "xmark" else dblp_processor


def test_workload_covers_all_paper_queries():
    names = [query.name for query in WORKLOAD]
    assert names == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
    assert {query.dataset for query in WORKLOAD} == {"xmark", "dblp"}


@pytest.mark.parametrize("name", XMARK_QUERIES + DBLP_QUERIES)
def test_stacked_vs_isolated_interpreted(name, xmark_processor, dblp_processor):
    query = query_by_name(name)
    processor = _processor_for(query, xmark_processor, dblp_processor)
    stacked = processor.execute(query.xquery, timeout_seconds=120, configuration="stacked")
    isolated = processor.execute(query.xquery, timeout_seconds=120, configuration="isolated")
    assert set(stacked.items) == set(isolated.items)


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
def test_join_graph_execution_matches_stacked(name, xmark_processor, dblp_processor):
    query = query_by_name(name)
    processor = _processor_for(query, xmark_processor, dblp_processor)
    compilation = processor.compile(query.xquery)
    assert compilation.join_graph is not None, compilation.join_graph_error
    stacked = processor.execute(query.xquery, timeout_seconds=120, configuration="stacked")
    relational = processor.execute(query.xquery, timeout_seconds=120, configuration="join-graph")
    assert set(stacked.items) == set(relational.items)


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q4", "Q5", "Q6"])
def test_purexml_agrees_on_node_counts(
    name, xmark_processor, dblp_processor, xmark_document, dblp_document
):
    query = query_by_name(name)
    processor = _processor_for(query, xmark_processor, dblp_processor)
    document = xmark_document if query.dataset == "xmark" else dblp_document
    from repro.purexml.storage import XMLColumnStore

    engine = PureXMLEngine(XMLColumnStore.whole(document))
    pure = engine.execute(query.xquery, timeout_seconds=120)
    relational = processor.execute(query.xquery, timeout_seconds=120, configuration="join-graph")
    assert pure.node_count == len(set(relational.items))


def test_q1_results_are_open_auctions_with_bidders(xmark_processor, xmark_encoding):
    result = xmark_processor.execute(query_by_name("Q1").xquery, configuration="join-graph")
    for item in result.items:
        record = xmark_encoding.record(item)
        assert record.name == "open_auction"
        children = [xmark_encoding.record(p).name for p in xmark_encoding.children(item)]
        assert "bidder" in children


def test_q3_returns_single_text_node(xmark_processor, xmark_encoding):
    result = xmark_processor.execute(query_by_name("Q3").xquery, configuration="join-graph")
    assert len(set(result.items)) == 1
    assert xmark_encoding.record(result.items[0]).kind == "TEXT"


def test_q5_returns_vldb_2001_title(dblp_processor, dblp_encoding):
    result = dblp_processor.execute(query_by_name("Q5").xquery, configuration="join-graph")
    items = set(result.items)
    assert len(items) == 1
    (item,) = items
    assert dblp_encoding.record(item).name == "title"


def test_q2_categories_of_expensive_items(xmark_processor, xmark_encoding):
    query = query_by_name("Q2")
    outcome = xmark_processor.execute(query.xquery, timeout_seconds=240)
    for item in set(outcome.items):
        assert xmark_encoding.record(item).name == "name"


def test_serialization_of_results(small_processor):
    outcome = small_processor.execute('doc("auction.xml")/descendant::bidder/child::time')
    xml = small_processor.serialize(sorted(set(outcome.items)), separator="")
    assert xml.count("<time>") == 3
