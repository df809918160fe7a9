"""Serialization of encoded XML nodes back to XML text.

The paper notes that the tabular infoset representation "may be serialized
again (via a table scan in pre order)".  This module implements exactly
that: given a :class:`repro.xmldb.encoding.DocumentEncoding` and the ``pre``
rank of a node, it reconstructs the XML text of the node's subtree from the
``pre``/``size``/``level`` structure alone.
"""

from __future__ import annotations

from typing import Iterable

from repro.xmldb.encoding import DocumentEncoding
from repro.xmldb.infoset import NodeKind


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def serialize_node(encoding: DocumentEncoding, pre: int) -> str:
    """Serialize the subtree rooted at ``pre`` to XML text.

    Walks one explicit stack of node ranks and pending end tags, so a
    document of any depth serializes without recursion.
    """
    parts: list[str] = []
    stack: list = [pre]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # an end tag
            parts.append(item)
            continue
        record = encoding.record(item)
        kind = record.kind
        if kind == NodeKind.DOC.value:
            stack.extend(reversed(encoding.children(item)))
        elif kind != NodeKind.ELEM.value:
            parts.append(_leaf(record))
        else:
            attributes = "".join(
                " " + _leaf(encoding.record(attr_pre)) for attr_pre in encoding.attributes(item)
            )
            children = encoding.children(item)
            if not children:
                parts.append(f"<{record.name}{attributes}/>")
                continue
            parts.append(f"<{record.name}{attributes}>")
            stack.append(f"</{record.name}>")
            stack.extend(reversed(children))
    return "".join(parts)


def _leaf(record) -> str:
    """A text, comment, processing-instruction or attribute node's text."""
    kind = record.kind
    if kind == NodeKind.TEXT.value:
        return _escape_text(record.value or "")
    if kind == NodeKind.COMM.value:
        return f"<!--{record.value or ''}-->"
    if kind == NodeKind.PI.value:
        body = f" {record.value}" if record.value else ""
        return f"<?{record.name}{body}?>"
    return f'{record.name}="{_escape_attribute(record.value or "")}"'


def serialize_subtree(encoding: DocumentEncoding, pres: Iterable[int], separator: str = "") -> str:
    """Serialize an ordered sequence of nodes (a query result) to XML text."""
    return separator.join(serialize_node(encoding, pre) for pre in sorted(set(pres)))


def serialize_sequence(encoding: DocumentEncoding, pres: Iterable[int], separator: str = "") -> str:
    """Serialize a node sequence *preserving the given order and duplicates*.

    Unlike :func:`serialize_subtree` this does not sort or deduplicate; it is
    the serialization of an arbitrary XQuery item sequence.
    """
    return separator.join(serialize_node(encoding, pre) for pre in pres)
