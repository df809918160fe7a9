"""Ablation A1 — autonomous index design: Table VI indexes vs. bare primary key.

Section IV argues that the advisor-proposed vanilla B-trees are what lets
the relational back-end "reinvent" XPath evaluation strategies.  This bench
runs the same join graph with and without those indexes.
"""

from repro.bench.workloads import query_by_name
from repro.core.pipeline import XQueryProcessor

from conftest import write_artifact


def test_ablation_index_set(benchmark, xmark_dataset):
    query = query_by_name("Q1").xquery
    with_indexes = XQueryProcessor(xmark_dataset.encoding, default_document=xmark_dataset.uri)
    without_indexes = XQueryProcessor(
        xmark_dataset.encoding, default_document=xmark_dataset.uri, with_default_indexes=False
    )
    indexed_outcome = benchmark(lambda: with_indexes.execute(query, configuration="join-graph"))
    import time

    start = time.perf_counter()
    bare_outcome = without_indexes.execute(query, configuration="join-graph")
    bare_seconds = time.perf_counter() - start
    assert set(indexed_outcome.items) == set(bare_outcome.items)
    indexed_scanned = indexed_outcome.rows_scanned
    bare_scanned = bare_outcome.rows_scanned
    report = "\n".join(
        [
            "Ablation A1 — Table VI index set vs. primary key only (Q1)",
            f"rows touched with Table VI indexes : {indexed_scanned}",
            f"rows touched with primary key only : {bare_scanned}",
            f"bare wall-clock                    : {bare_seconds:.4f}s",
        ]
    )
    write_artifact("ablation_indexes.txt", report)
    print("\n" + report)
    # The whole point of the index set: drastically fewer rows touched.
    assert indexed_scanned < bare_scanned
