"""In-memory XML infoset model.

The model is deliberately small: it covers exactly the information items the
paper's document encoding (Fig. 2) captures — documents, elements,
attributes, text nodes, comments and processing instructions — plus the
tree structure connecting them.  Construction helpers (:func:`element`,
:func:`text`, :func:`document`) make it convenient to build documents
programmatically, which the synthetic data generators rely on.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Sequence


class NodeKind(enum.Enum):
    """The node kinds distinguished by the ``kind`` column of the encoding."""

    DOC = "DOC"
    ELEM = "ELEM"
    ATTR = "ATTR"
    TEXT = "TEXT"
    COMM = "COMM"
    PI = "PI"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class XMLNode:
    """A single node of an XML document tree.

    Parameters
    ----------
    kind:
        The node kind (document, element, attribute, text, ...).
    name:
        Tag name for elements, attribute name for attributes, target for
        processing instructions, the document URI for document nodes and
        ``None`` for text/comment nodes.
    value:
        Attribute value, text content, comment content or PI content.
        ``None`` for elements and documents.
    """

    __slots__ = ("kind", "name", "value", "attributes", "children", "parent")

    def __init__(
        self,
        kind: NodeKind,
        name: Optional[str] = None,
        value: Optional[str] = None,
        attributes: Optional[Sequence["XMLNode"]] = None,
        children: Optional[Sequence["XMLNode"]] = None,
    ):
        self.kind = kind
        self.name = name
        self.value = value
        self.attributes: list[XMLNode] = []
        self.children: list[XMLNode] = []
        self.parent: Optional[XMLNode] = None
        if attributes:
            for attribute in attributes:
                self.add_attribute(attribute)
        if children:
            for child in children:
                self.add_child(child)

    # -- tree construction -------------------------------------------------

    def add_attribute(self, attribute: "XMLNode") -> "XMLNode":
        """Attach ``attribute`` (an ATTR node) to this element and return it."""
        if attribute.kind is not NodeKind.ATTR:
            raise ValueError(f"expected an attribute node, got {attribute.kind}")
        attribute.parent = self
        self.attributes.append(attribute)
        return attribute

    def add_child(self, child: "XMLNode") -> "XMLNode":
        """Append ``child`` to this node's ordered child list and return it."""
        if child.kind is NodeKind.ATTR:
            raise ValueError("attributes must be added via add_attribute()")
        child.parent = self
        self.children.append(child)
        return child

    # -- accessors ---------------------------------------------------------

    def attribute(self, name: str) -> Optional["XMLNode"]:
        """Return the attribute node with the given name, or ``None``."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        return None

    def string_value(self) -> str:
        """The XPath string value: concatenated descendant text content."""
        if self.kind in (NodeKind.TEXT, NodeKind.ATTR, NodeKind.COMM, NodeKind.PI):
            return self.value or ""
        parts: list[str] = []
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            if node.kind is NodeKind.TEXT:
                parts.append(node.value or "")
            if node.children:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def typed_decimal(self) -> Optional[float]:
        """The decimal typed value (the ``data`` column), if the string value casts."""
        raw = self.string_value().strip()
        if not raw:
            return None
        try:
            return float(raw)
        except ValueError:
            return None

    # -- traversal ---------------------------------------------------------

    def iter_descendants(self, include_self: bool = True) -> Iterator["XMLNode"]:
        """Yield this node's subtree in document order.

        Attributes are yielded immediately after their owner element, which
        matches the ``pre`` rank assignment of the relational encoding
        (Fig. 2 of the paper).  The walk keeps the pending nodes on an
        explicit stack, so any depth is fine.
        """
        if include_self:
            yield self
        yield from self.attributes
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            yield node
            if node.attributes:
                yield from node.attributes
            if node.children:
                stack.extend(reversed(node.children))

    def subtree_size(self) -> int:
        """Number of nodes strictly below this node (the ``size`` column)."""
        return sum(1 for _ in self.iter_descendants(include_self=False))

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name if self.name is not None else (self.value or "")
        return f"<XMLNode {self.kind.value} {label!r}>"


def element(
    name: str,
    *children: XMLNode,
    attributes: Optional[dict[str, str]] = None,
    text_content: Optional[str] = None,
) -> XMLNode:
    """Build an element node.

    ``attributes`` maps attribute names to string values; ``text_content``
    adds a single text child (handy for leaf elements such as ``<price>``).
    """
    node = XMLNode(NodeKind.ELEM, name=name)
    for attr_name, attr_value in (attributes or {}).items():
        node.add_attribute(XMLNode(NodeKind.ATTR, name=attr_name, value=attr_value))
    if text_content is not None:
        node.add_child(XMLNode(NodeKind.TEXT, value=text_content))
    for child in children:
        node.add_child(child)
    return node


def text(content: str) -> XMLNode:
    """Build a text node."""
    return XMLNode(NodeKind.TEXT, value=content)


def document(uri: str, root: XMLNode) -> XMLNode:
    """Wrap ``root`` in a document node carrying the document URI."""
    doc = XMLNode(NodeKind.DOC, name=uri)
    doc.add_child(root)
    return doc
