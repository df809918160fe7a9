"""Tests for the index advisor (Table VI)."""

from repro.algebra.table import Table
from repro.core.joingraph import extract_join_graph
from repro.core.rewriter import isolate
from repro.relational.advisor import IndexAdvisor, TABLE_VI_INDEXES, create_table_vi_indexes
from repro.relational.btree import PRE_PLUS_SIZE
from repro.relational.catalog import Database
from repro.xmldb.encoding import DOC_COLUMNS
from repro.xquery.compiler import compile_query


def _graph(query):
    plan, _ = isolate(compile_query(query))
    return extract_join_graph(plan)


def test_table_vi_index_set_shape():
    names = [name for name, *_rest in TABLE_VI_INDEXES]
    assert "idx_nkpl" in names and "idx_p_nvkls" in names
    clustered = [entry for entry in TABLE_VI_INDEXES if entry[3]]
    assert len(clustered) == 1 and clustered[0][1] == ("pre",)


def test_advisor_proposes_name_prefixed_indexes():
    workload = [
        _graph('doc("auction.xml")/descendant::open_auction[bidder]'),
        _graph('doc("auction.xml")//open_auction[initial > 10]'),
    ]
    advisor = IndexAdvisor()
    recommendations = advisor.advise(workload)
    assert recommendations
    key_sets = [r.key_columns for r in recommendations]
    assert any(keys[0] == "name" for keys in key_sets)
    assert any("data" in keys for keys in key_sets)
    assert any(r.clustered and r.key_columns == ("pre",) for r in recommendations)
    report = advisor.report()
    assert "pre" in report


def test_advisor_apply_creates_usable_indexes(small_auction_encoding):
    db = Database(Table(DOC_COLUMNS, small_auction_encoding.rows()), False)
    advisor = IndexAdvisor()
    advisor.advise([_graph('doc("auction.xml")/descendant::open_auction[bidder]')])
    created = advisor.apply(db)
    assert created
    from repro.relational.engine import RelationalEngine
    engine = RelationalEngine(db)
    result = engine.execute(_graph('doc("auction.xml")/descendant::open_auction[bidder]'))
    assert result.items()


def test_create_table_vi_indexes_idempotent(small_auction_encoding):
    db = Database(Table(DOC_COLUMNS, small_auction_encoding.rows()), False)
    first = create_table_vi_indexes(db)
    second = create_table_vi_indexes(db)
    assert first and not second
