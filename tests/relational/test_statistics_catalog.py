"""Tests for statistics collection, selectivity estimation and the catalog."""

import pytest

from repro.errors import CatalogError
from repro.algebra.table import Table
from repro.relational.catalog import Database
from repro.relational.statistics import collect_table_stats
from repro.xmldb.encoding import DOC_COLUMNS


def test_column_stats_basics():
    table = Table(("a", "b"), [(1, "x"), (2, "x"), (2, None), (5, "y")])
    stats = collect_table_stats(table)
    a = stats.column("a")
    assert a.n_distinct == 3 and a.minimum == 1 and a.maximum == 5
    b = stats.column("b")
    assert b.n_nulls == 1


def test_equality_selectivity_uses_most_common():
    table = Table(("a",), [(1,)] * 90 + [(2,)] * 10)
    stats = collect_table_stats(table)
    assert stats.equality_selectivity("a", 1) == pytest.approx(0.9)
    assert stats.equality_selectivity("a", 2) == pytest.approx(0.1)


def test_range_selectivity_reasonable():
    table = Table(("a",), [(i,) for i in range(100)])
    stats = collect_table_stats(table)
    narrow = stats.range_selectivity("a", 90, None)
    wide = stats.range_selectivity("a", 10, None)
    assert narrow < wide


def test_catalog_create_and_errors(small_auction_doc_table):
    db = Database(small_auction_doc_table, with_default_indexes=False)
    db.create_index("i1", ("name", "pre"))
    with pytest.raises(CatalogError):
        db.create_index("i1", ("name",))
    assert db.index("i1").key_columns == ("name", "pre")
    db.drop_index("i1")
    with pytest.raises(CatalogError):
        db.index("i1")
    with pytest.raises(CatalogError):
        db.drop_index("i1")


def test_database_from_encoding_installs_table_vi(small_auction_encoding):
    table = Table(DOC_COLUMNS, small_auction_encoding.rows())
    db = Database(table)
    assert db.table is table
    assert len(db.indexes) >= 6
    bare = Database(table, False)
    assert len(bare.indexes) == 1
