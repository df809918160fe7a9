"""Tests for the hand-written XML parser.

Besides the unit cases, the rows the parser and the encoder produce are
pinned by SHA-256 digests over a fixed corpus (the benchmark harness's
seeded documents, the in-tree generators' documents and one hand-written
document using every construct), and two Hypothesis properties hold the
language: a random tree survives serialize → parse → encode row for row,
and random or mutated text raises nothing but ``XMLParseError`` (nothing
but a ``ReproError`` from ``Session.register``).  Set
``REPRO_PROBE_EXAMPLES`` for a deeper run (the nightly sweep does).
"""

import hashlib
import importlib.util
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import Session
from repro.errors import ReproError, XMLParseError
from repro.xmldb.encoding import encode_document
from repro.xmldb.generators import generate_dblp_document, generate_xmark_document
from repro.xmldb.infoset import NodeKind, XMLNode, element, text
from repro.xmldb.parser import parse_xml
from repro.xmldb.serializer import serialize_node

EXAMPLES = int(os.environ.get("REPRO_PROBE_EXAMPLES", "200"))

# The benchmark harness's seeded generator, loaded by path: it is a pure
# function of its arguments and imports nothing from ``src/``.
_INPUTS = Path(__file__).resolve().parents[2] / "benchmarks" / "harness" / "inputs.py"
_spec = importlib.util.spec_from_file_location("harness_inputs", _INPUTS)
harness_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness_inputs)


def test_simple_document():
    doc = parse_xml("<a><b>text</b></a>", uri="u.xml")
    assert doc.kind is NodeKind.DOC and doc.name == "u.xml"
    root = doc.children[0]
    assert root.name == "a"
    assert root.children[0].name == "b"
    assert root.children[0].children[0].value == "text"


def test_attributes_and_self_closing():
    doc = parse_xml('<a x="1" y="two"><b/></a>')
    root = doc.children[0]
    assert root.attribute("x").value == "1"
    assert root.attribute("y").value == "two"
    assert root.children[0].name == "b" and not root.children[0].children


def test_entity_references():
    doc = parse_xml("<a>&lt;&amp;&gt;&#65;</a>")
    assert doc.children[0].children[0].value == "<&>A"


def test_cdata_and_comments_and_pis():
    doc = parse_xml("<a><!-- c --><![CDATA[<raw>]]><?pi data?></a>", keep_whitespace_text=False)
    kinds = [child.kind for child in doc.children[0].children]
    assert NodeKind.COMM in kinds and NodeKind.PI in kinds and NodeKind.TEXT in kinds


def test_prolog_doctype_skipped():
    doc = parse_xml('<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>')
    assert doc.children[0].name == "a"


def test_whitespace_only_text_dropped_by_default():
    doc = parse_xml("<a>\n  <b/>\n</a>")
    assert [c.kind for c in doc.children[0].children] == [NodeKind.ELEM]


@pytest.mark.parametrize(
    "bad",
    [
        "<a>",
        "<a></b>",
        "<a x=1/>",
        "text only",
        "<a><b></a></b>",
        "<a/><b/>",
        # bad character references (int() / chr() must not leak ValueError)
        "<a>&#xZZ;</a>",
        "<a>&#;</a>",
        "<a>&#99999999;</a>",
        "<a x='&#x;'/>",
        "<a>&#99999999999999999999;</a>",
        "<a>&nbsp;</a>",  # an unknown entity
        "<a>&amp</a>",  # an unterminated reference
        '<a x="1" x="2"/>',  # a duplicate attribute
        "<a><!-- open</a>",  # an unterminated comment
        "<a><![CDATA[ open</a>",  # an unterminated CDATA section
        "<a><?pi open</a>",  # an unterminated PI
        '<a x="1"',
        "<a/>tail",  # text after the root
        "<ab=\"1\"/>",  # a name is maximal: no attribute without a name
        "",
    ],
)
def test_malformed_raises(bad):
    with pytest.raises(XMLParseError):
        parse_xml(bad)


def test_bad_character_reference_reports_position():
    with pytest.raises(XMLParseError) as caught:
        parse_xml("<a>\n  &#xZZ;</a>")
    assert (caught.value.line, caught.value.column) == (2, 3)


def test_error_reports_position():
    try:
        parse_xml("<a>\n<b></c>\n</a>")
    except XMLParseError as error:
        assert error.line == 2
    else:  # pragma: no cover
        raise AssertionError("expected a parse error")


def test_language_quirks_kept():
    # No whitespace is needed between attributes, an end tag may carry
    # trailing whitespace, and CDATA merges into the adjacent text.
    doc = parse_xml("<a x='1'y=\"2\">t<![CDATA[<c>]]>&#x41;</a >")
    root = doc.children[0]
    assert [(a.name, a.value) for a in root.attributes] == [("x", "1"), ("y", "2")]
    assert [c.value for c in root.children] == ["t<c>A"]


# -- pinned rows ---------------------------------------------------------------

#: One document using every construct the parser accepts.
EVERY_CONSTRUCT = """<?xml version="1.0" encoding="UTF-8"?>
<!-- a prolog comment -->
<!DOCTYPE site [
  <!ELEMENT site ANY>
  <!ATTLIST item id ID #REQUIRED>
  <!ENTITY copy "(c)">
]>
<?xml-stylesheet href="style.xsl" type="text/xsl"?>
<?prolog-pi  some data ?>
<site xmlns:x="urn:x" version='1.0'>
  <item id="i&amp;1" note='say "hi"' x:flag="&#x41;&#66;&lt;&gt;&apos;&quot;"
        tab="a&#9;b" lt="<not a tag>">
    <name>Gold &amp; silver &#169;&#xA9;</name>
    <price>  42.50 </price>
    <empty></empty>
    <self/>
    <spaced attr = "v" />
    <mixed>before<![CDATA[<raw> & ]]>after<b>bold</b> tail </mixed>
    <cdataonly><![CDATA[12]]></cdataonly>
    <cdataempty><![CDATA[]]></cdataempty>
    <cdataspace>  <![CDATA[ ]]>  </cdataspace>
    <!-- an inner comment -- with dashes -->
    <?inner-pi   body with ? and > inside   ?>
    <?bare?>
    <nan>NaN</nan><inf>-inf</inf><exp>1e3</exp><under>1_000</under><plus>+.5</plus>
    <onlyattr a="7"/><onlycomment><!--7--></onlycomment>
    <ws>   </ws><entityspace>&#32;</entityspace>
  </item>
  <x:ns x:a="1">text<x:child/>more</x:ns >
</site>
<!-- a trailing comment -->
<?trailing pi?>
"""


def _digest(doc: XMLNode) -> str:
    rows = [tuple(record) for record in encode_document(doc).records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


#: ``(document URI, keep_whitespace_text) -> digest`` of the encoded rows,
#: computed with the character-at-a-time parser and the recursive encoder.
PINNED_TEXTS = {
    ("xmark0.1", False): "fc167b72a50af4d58c8e00b618707aecb397d03c94990361837673682b2ec86e",
    ("xmark0.1", True): "fc167b72a50af4d58c8e00b618707aecb397d03c94990361837673682b2ec86e",
    ("xmark0.5", False): "afea25cfb1a7582eb8a8df970e69b2a67c6397a640c3aac6d5d44e3d937ea9fe",
    ("xmark0.5", True): "afea25cfb1a7582eb8a8df970e69b2a67c6397a640c3aac6d5d44e3d937ea9fe",
    ("xmark1", False): "577cba5b223803cbccff5e8df6c09944d165128437900009e35a24219789d8f1",
    ("xmark1", True): "577cba5b223803cbccff5e8df6c09944d165128437900009e35a24219789d8f1",
    ("xmark2", False): "055a3cc64bd883d32a22445a28059a0fcc52bfea23634ced0f9384d646dbb430",
    ("xmark2", True): "055a3cc64bd883d32a22445a28059a0fcc52bfea23634ced0f9384d646dbb430",
    ("nested", False): "e73b84fdad771874a3b1e0837f745b2b9b679e303418d411dc6c73390061009e",
    ("nested", True): "e73b84fdad771874a3b1e0837f745b2b9b679e303418d411dc6c73390061009e",
    ("every", False): "97ddc6afde17efe2444768935eb29d06e107d6eef8921f08f4198b46a055291f",
    ("every", True): "6401aa070159a1281964e0fa39391a803aeac6f1d21b15ba3edc6600cc64a4dd",
}

#: Digests of the in-tree generators' trees (default configurations).
PINNED_TREES = {
    "xmark": "7e505e8a41afed0b117bff0aad8d7fa646c5548693a62b324af2b3ec7d0f4420",
    "dblp": "362489f158432cd7863bd83a45332c671e53cffb0c196dfcd6ee0b8b20cf2a0b",
}


def _corpus_text(uri: str) -> str:
    scales = {"xmark0.1": 0.1, "xmark0.5": 0.5, "xmark1": 1, "xmark2": 2}
    if uri in scales:
        return harness_inputs.xmark_xml(scales[uri], 42)
    return harness_inputs.nested_xml(42) if uri == "nested" else EVERY_CONSTRUCT


@pytest.mark.parametrize("uri, keep", sorted(PINNED_TEXTS))
def test_pinned_rows_of_parsed_text(uri, keep):
    doc = parse_xml(_corpus_text(uri), uri=uri, keep_whitespace_text=keep)
    assert _digest(doc) == PINNED_TEXTS[uri, keep]


@pytest.mark.parametrize("name", sorted(PINNED_TREES))
def test_pinned_rows_of_generated_trees(name):
    tree = generate_xmark_document() if name == "xmark" else generate_dblp_document()
    assert _digest(tree) == PINNED_TREES[name]
    # ... and the tree's serialization parses back to the same rows.
    serialized = serialize_node(encode_document(tree), 0)
    for keep in (False, True):
        parsed = parse_xml(serialized, uri=tree.name, keep_whitespace_text=keep)
        assert _digest(parsed) == PINNED_TREES[name]


# -- properties ----------------------------------------------------------------

_NAMES = st.from_regex(r"[A-Za-z_:][A-Za-z0-9_:.\-]{0,5}", fullmatch=True)
#: Characters that make random text look like markup.
_MARKUP = "<>/=\"'&;#xX![]-?aAb1 \n\t"


def _node_specs(keep_whitespace_text: bool):
    """Plain-data trees in the parser's normal form (see :func:`_build`)."""
    values = st.text(max_size=8)
    texts = st.text(min_size=1, max_size=8)
    if not keep_whitespace_text:
        texts = texts.filter(str.strip)
    leaves = st.one_of(
        st.tuples(st.just("text"), texts),
        st.tuples(st.just("comment"), values.filter(lambda c: "-->" not in c)),
        st.tuples(st.just("pi"), _NAMES, values.map(str.strip).filter(lambda v: "?>" not in v)),
    )
    return st.recursive(
        leaves,
        lambda children: st.tuples(
            st.just("element"),
            _NAMES,
            st.dictionaries(_NAMES, values, max_size=3),
            st.lists(children, max_size=4),
        ),
        max_leaves=12,
    )


def _build(spec) -> XMLNode:
    """An infoset tree from a spec; adjacent text merges as the parser merges it."""
    kind = spec[0]
    if kind == "text":
        return text(spec[1])
    if kind == "comment":
        return XMLNode(NodeKind.COMM, value=spec[1])
    if kind == "pi":
        return XMLNode(NodeKind.PI, name=spec[1], value=spec[2])
    _, name, attributes, children = spec
    node = element(name, attributes=attributes)
    for child in children:
        if child[0] == "text" and node.children and node.children[-1].kind is NodeKind.TEXT:
            node.children[-1].value += child[1]
        else:
            node.add_child(_build(child))
    return node


#: Root element specs, with and without whitespace-only text.
_ROOTS = {
    keep: st.tuples(
        st.just("element"), _NAMES, st.just({}), st.lists(_node_specs(keep), max_size=4)
    )
    for keep in (False, True)
}


def _document(data, keep_whitespace_text: bool = True) -> XMLNode:
    spec = data.draw(_ROOTS[keep_whitespace_text])
    return XMLNode(NodeKind.DOC, name="t.xml", children=[_build(spec)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data(), st.booleans())
def test_round_trip_reproduces_the_rows(data, keep):
    tree = _document(data, keep)
    expected = [tuple(record) for record in encode_document(tree).records]
    serialized = serialize_node(encode_document(tree), 0)
    parsed = parse_xml(serialized, uri="t.xml", keep_whitespace_text=keep)
    assert [tuple(record) for record in encode_document(parsed).records] == expected


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_MARKUP)))
def test_random_text_raises_only_parse_errors(source):
    for keep in (False, True):
        try:
            parse_xml(source, keep_whitespace_text=keep)
        except XMLParseError:
            pass


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_mutated_documents_raise_only_classified_errors(data):
    if data.draw(st.booleans()):
        source = EVERY_CONSTRUCT
    else:
        source = serialize_node(encode_document(_document(data)), 0)
    position = data.draw(st.integers(0, len(source)))
    char = data.draw(st.one_of(st.sampled_from(_MARKUP), st.characters()))
    edit = data.draw(st.sampled_from(("insert", "replace", "delete")))
    tail = source[position:] if edit == "insert" else source[position + 1 :]
    mutated = source[:position] + ("" if edit == "delete" else char) + tail
    try:
        parse_xml(mutated)
    except XMLParseError:
        pass
    try:
        Session().register("mutated.xml", mutated)
    except ReproError:
        pass
