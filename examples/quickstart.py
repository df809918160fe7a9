"""Quickstart: turn a relational engine into an XQuery processor.

Builds a small XMark-like auction document, encodes it into the ``doc``
table, compiles Q1 of the paper with the loop-lifting compiler, isolates its
join graph, prints the emitted SQL and runs it on the bundled relational
back-end.

Run with:  python examples/quickstart.py
"""

from repro import XQueryProcessor
from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_encoding

QUERY = 'doc("auction.xml")/descendant::open_auction[bidder]'


def main() -> None:
    encoding = generate_xmark_encoding(XMarkConfig(scale=0.2))
    processor = XQueryProcessor(encoding, default_document="auction.xml")

    compilation = processor.compile(QUERY)
    print("=== XQuery ===")
    print(QUERY)
    print("\n=== XQuery Core (after normalization) ===")
    print(compilation.core_text())
    print("\n=== Isolated join graph as SQL (cf. Fig. 8) ===")
    print(compilation.join_graph_sql)
    print("\n=== Back-end execution plan (cf. Fig. 10) ===")
    print(processor.explain(QUERY))

    outcome = processor.execute(QUERY, configuration="join-graph")
    items = sorted(set(outcome.items))
    print(f"\n=== Result: {len(items)} open_auction elements with a bidder ===")
    print(processor.serialize(items[:2], separator="\n")[:400], "...")

    # The same SFW block on a real RDBMS: SQLite, loaded with the Fig. 2
    # encoding and the paper's access-path indexes (configuration="sql").
    via_sqlite = processor.execute(QUERY, configuration="sql")
    assert via_sqlite.items == outcome.items
    print(f"\n=== SQLite agrees: {via_sqlite.node_count} rows via "
          f"{len(processor.sql_backend.indexes())} indexes ===")
    for line in processor.sql_backend.query_plan(via_sqlite.details.sql):
        print("  ", line)


if __name__ == "__main__":
    main()
