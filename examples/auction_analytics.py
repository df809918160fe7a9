"""Auction analytics: the data-bound "workhorse" fragment on XMark data.

Runs a small analytical workload over a generated XMark instance and
compares the three execution strategies of the paper's evaluation
(stacked plan, isolated join graph, navigational pureXML baseline).

Run with:  python examples/auction_analytics.py
"""

import time

from repro import XQueryProcessor
from repro.purexml.engine import PureXMLEngine
from repro.purexml.storage import XMLColumnStore
from repro.xmldb.encoding import encode_document
from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_document

QUERIES = {
    "auctions with bidders": 'doc("auction.xml")/descendant::open_auction[bidder]',
    "all sale prices": "//closed_auction/price/text()",
    "expensive sales": 'doc("auction.xml")//closed_auction[price > 500]/child::price/child::text()',
    "person0's profile": '/site/people/person[@id = "person0"]/name/text()',
    "bid increases": 'for $a in doc("auction.xml")//open_auction return $a/child::bidder/child::increase',
}


def main() -> None:
    document = generate_xmark_document(XMarkConfig(scale=0.4))
    encoding = encode_document(document)
    processor = XQueryProcessor(encoding, default_document="auction.xml")
    navigational = PureXMLEngine(XMLColumnStore.whole(document))
    print(f"XMark instance: {len(encoding)} nodes\n")
    print(f"{'query':>22} | {'nodes':>5} | {'stacked':>9} | {'joingraph':>9} | {'pureXML':>9}")
    print("-" * 68)
    for label, query in QUERIES.items():
        start = time.perf_counter()
        stacked = processor.execute(query, configuration="stacked")
        stacked_s = time.perf_counter() - start
        start = time.perf_counter()
        isolated = processor.execute(query)
        isolated_s = time.perf_counter() - start
        start = time.perf_counter()
        pure = navigational.execute(query)
        pure_s = time.perf_counter() - start
        assert set(stacked.items) == set(isolated.items)
        print(
            f"{label:>22} | {len(set(isolated.items)):>5} | {stacked_s:>8.3f}s "
            f"| {isolated_s:>8.3f}s | {pure_s:>8.3f}s"
        )


if __name__ == "__main__":
    main()
