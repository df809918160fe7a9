"""XML substrate: parsing, infoset model, relational encoding, generators.

This package provides everything the paper assumes about XML documents:

* a small well-formed-XML parser (:mod:`repro.xmldb.parser`),
* an infoset node model (:mod:`repro.xmldb.infoset`),
* the ``pre | size | level | kind | name | value | data`` document encoding
  of Section II-A (:mod:`repro.xmldb.encoding`) together with a serializer
  back to XML text (:mod:`repro.xmldb.serializer`),
* the XPath axis and node-test semantics over that encoding, as in Fig. 3
  (:mod:`repro.xmldb.axes`), and
* deterministic synthetic XMark-like and DBLP-like document generators
  (:mod:`repro.xmldb.generators`).
"""

from repro.xmldb.axes import (
    AXES,
    FORWARD_AXES,
    REVERSE_AXES,
    axis_predicate_spec,
    evaluate_axis,
)
from repro.xmldb.encoding import DocumentEncoding, NodeRecord, encode_document, encode_documents
from repro.xmldb.infoset import NodeKind, XMLNode, document, element, text
from repro.xmldb.parser import parse_xml
from repro.xmldb.serializer import serialize_node, serialize_subtree

__all__ = [
    "AXES",
    "FORWARD_AXES",
    "REVERSE_AXES",
    "DocumentEncoding",
    "NodeKind",
    "NodeRecord",
    "XMLNode",
    "axis_predicate_spec",
    "document",
    "element",
    "encode_document",
    "encode_documents",
    "evaluate_axis",
    "parse_xml",
    "serialize_node",
    "serialize_subtree",
    "text",
]
