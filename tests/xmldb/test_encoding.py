"""Tests for the pre/size/level document encoding (Fig. 2 of the paper)."""

import random

import pytest

from repro.xmldb.encoding import DOC_COLUMNS, encode_document, encode_documents
from repro.xmldb.infoset import NodeKind, XMLNode, document, element
from repro.xmldb.parser import parse_xml


def test_fig2_rows_match_paper(fig2_encoding):
    rows = [tuple(record) for record in fig2_encoding.records]
    assert rows[0][:5] == (0, 9, 0, "DOC", "auction.xml")
    assert rows[1][:5] == (1, 8, 1, "ELEM", "open_auction")
    assert rows[2][:6] == (2, 0, 2, "ATTR", "id", "1")
    assert rows[3][:4] == (3, 1, 2, "ELEM")
    assert rows[3][5:] == ("15", 15.0)
    assert rows[5][:5] == (5, 4, 2, "ELEM", "bidder")
    assert rows[9][5:] == ("4.20", 4.2)


def test_pre_is_dense_and_unique(fig2_encoding):
    pres = [record.pre for record in fig2_encoding.records]
    assert pres == list(range(len(fig2_encoding)))


def test_size_counts_subtree(fig2_encoding):
    for record in fig2_encoding.records:
        subtree = list(fig2_encoding.subtree(record.pre, include_self=False))
        assert record.size == len(subtree)


def test_level_is_parent_level_plus_one(fig2_encoding):
    for record in fig2_encoding.records:
        parent = fig2_encoding.parent(record.pre)
        if parent is None:
            assert record.level == 0
        else:
            assert record.level == fig2_encoding.record(parent).level + 1


def test_attributes_follow_owner(fig2_encoding):
    assert fig2_encoding.attributes(1) == [2]
    assert fig2_encoding.children(1) == [3, 5]


def test_value_column_only_for_small_subtrees(fig2_encoding):
    for record in fig2_encoding.records:
        if record.kind == "ELEM" and record.size > 1:
            assert record.value is None


def test_multiple_documents_share_one_table():
    doc_a = document("a.xml", element("a", text_content="1"))
    doc_b = document("b.xml", element("b", text_content="2"))
    encoding = encode_documents([doc_a, doc_b])
    assert encoding.document_root("a.xml") == 0
    assert encoding.document_root("b.xml") == 3
    assert encoding.record(3).kind == "DOC"
    assert len(encoding) == 6


def test_doc_columns_order():
    assert DOC_COLUMNS == ("pre", "size", "level", "kind", "name", "value", "data")


def test_data_column_casts_decimal():
    encoding = encode_document(parse_xml("<p><a>3.5</a><b>abc</b></p>", uri="d.xml"))
    by_name = {r.name: r for r in encoding.records if r.kind == "ELEM"}
    assert by_name["a"].data == 3.5
    assert by_name["b"].data is None


def test_rows_round_trip_via_tuples(fig2_encoding):
    rows = fig2_encoding.rows()
    assert len(rows) == len(fig2_encoding)
    assert all(len(row) == len(DOC_COLUMNS) for row in rows)


def test_parent_is_index_backed_and_exact(xmark_encoding):
    # The per-level bisection must agree with a linear containment scan.
    rng = random.Random(5)
    for pre in rng.sample(range(len(xmark_encoding)), min(40, len(xmark_encoding))):
        target = xmark_encoding.record(pre)
        expected = None
        for candidate in range(pre - 1, -1, -1):
            record = xmark_encoding.record(candidate)
            if record.pre < pre <= record.pre + record.size and record.level == target.level - 1:
                expected = candidate
                break
        assert xmark_encoding.parent(pre) == expected
