"""Tests for the pureXML-substitute baseline (storage, indexes, XSCAN)."""

import pytest

from repro.purexml.engine import PureXMLEngine
from repro.purexml.pattern_index import XMLPatternIndex
from repro.purexml.storage import XMLColumnStore, segment_document
from repro.xmldb.parser import parse_xml

XML = """
<site>
  <people>
    <person id="person0"><name>Ada</name></person>
    <person id="person1"><name>Alan</name></person>
  </people>
  <closed_auctions>
    <closed_auction><price>600</price></closed_auction>
    <closed_auction><price>20</price></closed_auction>
  </closed_auctions>
</site>
"""


@pytest.fixture(scope="module")
def doc():
    return parse_xml(XML, uri="auction.xml")


def test_whole_store_has_single_row(doc):
    assert len(XMLColumnStore.whole(doc)) == 1


def test_segmentation_produces_many_small_rows(doc):
    store = XMLColumnStore.from_segments(doc, segment_depth=3)
    assert len(store) >= 4
    assert store.segmented


def test_pattern_index_lookup(doc):
    store = XMLColumnStore.from_segments(doc, segment_depth=3)
    index = XMLPatternIndex("/site/people/person/@id").build(store)
    rids = index.lookup("person0")
    assert len(rids) == 1


def test_pattern_index_range_lookup_typed(doc):
    store = XMLColumnStore.whole(doc)
    index = XMLPatternIndex("//closed_auction/price", as_type="DOUBLE").build(store)
    assert index.lookup_range(">", 500.0)
    assert not index.lookup_range(">", 10000.0)


def test_xscan_path_evaluation(doc):
    engine = PureXMLEngine(XMLColumnStore.whole(doc))
    result = engine.execute("/site/people/person/name/text()")
    assert result.node_count == 2
    assert result.rows_visited == 1


def test_xscan_predicate_and_index_pruning(doc):
    store = XMLColumnStore.from_segments(doc, segment_depth=3)
    engine = PureXMLEngine(store)
    engine.create_pattern_index("/site/people/person/@id")
    result = engine.execute('/site/people/person[@id = "person0"]/name/text()')
    assert result.node_count == 1
    assert result.used_index is not None
    assert result.rows_visited < len(store)


def test_whole_store_cannot_prune(doc):
    engine = PureXMLEngine(XMLColumnStore.whole(doc))
    engine.create_pattern_index("/site/people/person/@id")
    result = engine.execute('/site/people/person[@id = "person0"]/name/text()')
    assert result.rows_visited == 1  # the single monolithic row must be traversed


def test_flwor_evaluation(doc):
    engine = PureXMLEngine(XMLColumnStore.whole(doc))
    result = engine.execute(
        'for $c in /site/closed_auctions/closed_auction[price > 500] return $c/price/text()'
    )
    assert result.node_count == 1


def test_results_agree_with_relational_pipeline(small_auction_encoding, small_processor):
    from repro.xmldb.parser import parse_xml as parse
    from tests.conftest import SMALL_AUCTION_XML
    doc = parse(SMALL_AUCTION_XML, uri="auction.xml")
    engine = PureXMLEngine(XMLColumnStore.whole(doc))
    query = 'doc("auction.xml")/descendant::open_auction[bidder]'
    pure = engine.execute(query)
    relational = small_processor.execute(query, configuration="join-graph")
    assert pure.node_count == len(set(relational.items))
