"""Depth is data: a deeply nested document loads and answers everywhere.

Under the default recursion limit, a chain of nested ``<a>`` elements must
parse, encode, register and be queried on every engine without Python
recursion getting in the way (the parser, the encoder, the serializer and
``XMLNode.iter_descendants`` all walk explicit stacks).  A query nested
deeper than the XQuery parser's ``MAX_NESTING`` is a classified syntax
error, and one nested exactly that deep still answers.
"""

import sys

import pytest

from repro.core.session import Session
from repro.errors import XQuerySyntaxError
from repro.purexml.engine import PureXMLEngine
from repro.purexml.storage import XMLColumnStore
from repro.xmldb.encoding import encode_document
from repro.xmldb.parser import parse_xml
from repro.xmldb.serializer import serialize_node
from repro.xquery.parser import MAX_NESTING

DEPTH = 5_000


def _chain(depth: int) -> str:
    return "<a>" * depth + "x" + "</a>" * depth


@pytest.fixture(scope="module")
def deep_session():
    assert DEPTH > sys.getrecursionlimit()
    session = Session()
    session.register("deep.xml", _chain(DEPTH))
    return session


@pytest.mark.parametrize("engine", ["sql", "sql-stacked", "stacked", "isolated", "join-graph"])
def test_a_deep_document_counts_on_every_engine(deep_session, engine):
    assert deep_session.execute("fn:count(//a)", configuration=engine).items == [DEPTH]


def test_purexml_compares_every_level_of_a_deep_document():
    doc = parse_xml(_chain(DEPTH), uri="deep.xml")
    assert doc.children[0].subtree_size() == DEPTH
    assert PureXMLEngine(XMLColumnStore.whole(doc)).execute('//a[. = "x"]').node_count == DEPTH


def test_a_deep_document_serializes_back_to_its_text():
    text = _chain(DEPTH)
    assert serialize_node(encode_document(parse_xml(text)), 0) == text


def test_a_100000_deep_chain_parses_and_encodes():
    depth = 100_000
    records = encode_document(parse_xml(_chain(depth))).records
    assert len(records) == depth + 2
    assert tuple(records[1])[:3] == (1, depth, 1)
    assert tuple(records[depth]) == (depth, 1, depth, "ELEM", "a", "x", None)


# -- a deeply nested query ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_session():
    session = Session()
    session.register("d.xml", "<a><b>1</b><b>2</b></a>")
    return session


def _parenthesised(depth: int) -> str:
    """``doc("d.xml")//b`` inside ``depth`` parentheses: ``depth + 1`` expressions."""
    return "(" * depth + 'doc("d.xml")//b' + ")" * depth


def test_two_hundred_nested_parentheses_are_a_syntax_error(small_session):
    with pytest.raises(XQuerySyntaxError, match=f"deeper than {MAX_NESTING}") as excinfo:
        small_session.execute(_parenthesised(200))
    # The expression at offset MAX_NESTING, inside that many parentheses, is
    # the first one too deep.
    assert excinfo.value.position == MAX_NESTING


@pytest.mark.parametrize("engine", ["stacked", "sql"])
def test_the_deepest_allowed_nesting_answers(small_session, engine):
    expected = small_session.execute(_parenthesised(0), configuration=engine).items
    assert len(expected) == 2
    deepest = small_session.execute(_parenthesised(MAX_NESTING - 1), configuration=engine)
    assert deepest.items == expected
