"""A small, dependency-free parser for well-formed XML documents.

The parser supports exactly the XML feature set the paper's encoding deals
with: elements, attributes (single- or double-quoted), character data,
CDATA sections, comments, processing instructions, an optional XML
declaration and an optional DOCTYPE declaration (which is skipped), plus the
five predefined entity references and numeric character references.

Namespaces are treated syntactically (prefixes stay part of the name), which
matches the schema-oblivious spirit of the ``doc`` encoding.

It reads one *token* per step — a text run, a whole start tag with its
attribute list, an end tag, a comment, a CDATA section or a PI, each matched
by one compiled pattern — and keeps the open elements on an explicit stack,
so document depth is data, not Python recursion.

The output is an :class:`repro.xmldb.infoset.XMLNode` document tree ready to
be encoded by :func:`repro.xmldb.encoding.encode_document`.
"""

from __future__ import annotations

import re
from typing import NoReturn

from repro.errors import XMLParseError
from repro.xmldb.infoset import NodeKind, XMLNode

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: An XML name over ASCII name characters.  The possessive ``*+`` never
#: gives characters back, so ``<ab="1">`` is the name ``ab`` (and an error),
#: never ``a`` + ``b="1"``; it also saves the regex engine backtracking.
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*+"
_S = r"[ \t\r\n]*+"
_ATTRIBUTE = rf"{_S}({_NAME}){_S}={_S}(\"[^\"]*\"|'[^']*')"

#: One content token; ``match.lastindex`` (its last group) names its kind.
_TOKEN = re.compile(
    r"([^<]+)"  # 1: a text run
    rf"|<({_NAME})((?:{_ATTRIBUTE})*){_S}(/?)>"  # 2-6: a start tag (6: "/" if empty)
    rf"|</({_NAME}){_S}>"  # 7: an end tag
    r"|<!--(.*?)-->"  # 8: a comment
    r"|<!\[CDATA\[(.*?)\]\]>"  # 9: a CDATA section
    rf"|<\?({_NAME})(.*?)\?>"  # 10-11: a processing instruction
    r"|(<)",  # 12: any other "<" is malformed markup
    re.DOTALL,
)
#: Group numbers; a start tag's last group is its "/" flag, its name is 2
#: and its attribute list 3.
_TEXT, _START, _END, _COMMENT, _CDATA, _PI_TARGET, _PI, _MALFORMED = 1, 6, 7, 8, 9, 10, 11, 12
_ATTRIBUTES = re.compile(_ATTRIBUTE)
_REFERENCE = re.compile(r"&([^;]*)(;?)")
#: Whitespace and one optional prolog item (group 1); group 2 is set for a
#: DOCTYPE, whose end is found by bracket depth.
_PROLOG = re.compile(
    rf"{_S}(<\?xml.*?\?>|<\?{_NAME}.*?\?>|<!--.*?-->|(<!DOCTYPE))?", re.DOTALL
)
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
#: Whitespace, comments and PIs after the root element.
_EPILOG = re.compile(r"(?:[ \t\r\n]|<!--.*?-->|<\?.*?\?>)*", re.DOTALL)
_DIAGNOSES = (
    ("<!--", "unterminated comment, expected '-->'"),
    ("<![CDATA[", "unterminated CDATA section, expected ']]>'"),
    ("<?", "malformed processing instruction"),
    ("</", "malformed end tag"),
    ("<", "malformed start tag"),
)


def _error(source: str, pos: int, message: str) -> NoReturn:
    line = source.count("\n", 0, pos) + 1
    column = pos - source.rfind("\n", 0, pos)
    raise XMLParseError(message, offset=pos, line=line, column=column)


def _decode(raw: str, source: str, offset: int) -> str:
    """Resolve the entity and character references of ``raw`` (at ``offset``)."""
    parts: list[str] = []
    last = 0
    for reference in _REFERENCE.finditer(raw):
        entity = reference.group(1)
        at = offset + reference.start()
        if not reference.group(2):
            _error(source, at, "unterminated entity reference")
        if entity[:1] == "#":
            try:
                if entity[1:2] in ("x", "X"):
                    char = chr(int(entity[2:], 16))
                else:
                    char = chr(int(entity[1:]))
            except (ValueError, OverflowError):
                _error(source, at, f"invalid character reference &{entity};")
        elif entity in _PREDEFINED_ENTITIES:
            char = _PREDEFINED_ENTITIES[entity]
        else:
            _error(source, at, f"unknown entity reference &{entity};")
        parts.append(raw[last : reference.start()])
        parts.append(char)
        last = reference.end()
    parts.append(raw[last:])
    return "".join(parts)


def _add_attributes(node: XMLNode, token: re.Match, source: str) -> None:
    """Attach the attribute list of start-tag ``token`` to ``node``."""
    offset = token.start(3)
    for attribute in _ATTRIBUTES.finditer(token.group(3)):
        name = attribute.group(1)
        if node.attributes and node.attribute(name) is not None:
            _error(source, offset + attribute.start(1), f"duplicate attribute {name!r}")
        value = attribute.group(2)[1:-1]
        if "&" in value:
            value = _decode(value, source, offset + attribute.start(2) + 1)
        node.add_attribute(XMLNode(NodeKind.ATTR, name, value))


def _skip_prolog(source: str) -> int:
    """The position after the XML declaration, DOCTYPE, comments and PIs."""
    pos = 0
    while True:
        item = _PROLOG.match(source, pos)
        pos = item.end()
        if item.group(1) is None:
            return pos
        if item.group(2):
            # Skip to the matching '>' while honouring an internal subset.
            depth = 0
            for mark in _DOCTYPE_MARK.finditer(source, pos):
                pos = mark.end()
                char = mark.group()
                if char == ">" and depth <= 0:
                    break
                depth += 1 if char == "[" else -1 if char == "]" else 0
            else:
                pos = len(source)


def _malformed(source: str, pos: int) -> NoReturn:
    if pos >= len(source):
        _error(source, pos, "unexpected end of input inside element content")
    for opener, message in _DIAGNOSES:
        if source.startswith(opener, pos):
            _error(source, pos, message)


def parse_xml(source: str, uri: str = "document.xml", keep_whitespace_text: bool = False) -> XMLNode:
    """Parse XML text into a document node.

    Parameters
    ----------
    source:
        The XML document text.
    uri:
        The document URI recorded on the document node (this is what
        ``doc("uri")`` matches against, cf. the ``name`` column of DOC rows).
    keep_whitespace_text:
        When false (the default) text nodes consisting solely of whitespace
        are dropped, which mirrors the whitespace handling the paper's
        datasets assume and keeps node counts meaningful.
    """
    pos = _skip_prolog(source)
    root = _TOKEN.match(source, pos)
    if root is None or root.lastindex not in (_START, _MALFORMED):
        _error(source, pos, "expected a root element")
    doc = XMLNode(NodeKind.DOC, uri)
    # The open nodes, innermost last, and the text and CDATA pieces that
    # await the next markup token (they merge into one text node).  Every
    # position starts a token, so the tokens tile the input; the first is
    # the root's start tag, and the walk ends when the root closes.
    stack = [doc]
    pending: str | None = None
    elem, text, comment, pi = NodeKind.ELEM, NodeKind.TEXT, NodeKind.COMM, NodeKind.PI
    for token in _TOKEN.finditer(source, pos):
        kind = token.lastindex
        if kind == _TEXT or kind == _CDATA:
            piece = token.group(kind)
            if kind == _TEXT and "&" in piece:
                piece = _decode(piece, source, token.start())
            if pending is None:
                pending = piece
            else:
                pending += piece
            continue
        if kind == _MALFORMED:
            _malformed(source, token.start())
        parent = stack[-1]
        if pending is not None:
            if keep_whitespace_text or pending.strip():
                parent.add_child(XMLNode(text, None, pending))
            pending = None
        if kind == _START:
            name, attributes, empty = token.group(2, 3, _START)
            node = parent.add_child(XMLNode(elem, name))
            if attributes:
                _add_attributes(node, token, source)
            if not empty:
                stack.append(node)
            elif parent is doc:
                break
        elif kind == _END:
            if token.group(_END) != parent.name:
                _error(
                    source,
                    token.end(_END),
                    f"mismatched end tag </{token.group(_END)}> for <{parent.name}>",
                )
            stack.pop()
            if len(stack) == 1:
                break
        elif kind == _COMMENT:
            parent.add_child(XMLNode(comment, None, token.group(_COMMENT)))
        else:
            target, body = token.group(_PI_TARGET, _PI)
            parent.add_child(XMLNode(pi, target, body.strip()))
    else:
        _malformed(source, len(source))
    # Trailing misc (comments / PIs / whitespace) is permitted and ignored.
    pos = _EPILOG.match(source, token.end()).end()
    if pos < len(source):
        _error(source, pos, "unexpected content after the root element")
    return doc
