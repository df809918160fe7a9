"""The relational XML infoset encoding of Section II-A (Fig. 2).

Every node of a document tree becomes one row of the ``doc`` table with
schema::

    pre | size | level | kind | name | value | data

* ``pre``   — the node's document-order rank (attributes directly follow
  their owner element, before the element's children),
* ``size``  — the number of nodes in the subtree below the node,
* ``level`` — the length of the path from the node to its document node,
* ``kind``  — DOC / ELEM / ATTR / TEXT / COMM / PI,
* ``name``  — tag or attribute name; the document URI for DOC rows,
* ``value`` — the node's untyped string value for nodes with ``size <= 1``
  (attributes, text nodes and leaf elements),
* ``data``  — the result of casting ``value`` to ``xs:decimal`` when the
  cast succeeds, else ``NULL``.

A :class:`DocumentEncoding` may host several documents (multiple DOC rows,
distinguishable by their URI in ``name``), exactly as the paper describes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from repro.xmldb.infoset import NodeKind, XMLNode

#: The name of the one relation every join graph self-joins (Fig. 2).
DOC_TABLE = "doc"

#: Column order of the ``doc`` table, as used throughout the compiler,
#: the SQL generator and the relational back-end.
DOC_COLUMNS = ("pre", "size", "level", "kind", "name", "value", "data")


class NodeRecord(NamedTuple):
    """One row of the ``doc`` encoding table, in :data:`DOC_COLUMNS` order."""

    pre: int
    size: int
    level: int
    kind: str
    name: Optional[str]
    value: Optional[str]
    data: Optional[float]


class DocumentEncoding:
    """An in-memory ``doc`` table plus convenience accessors.

    The encoding is append-only: additional documents may be encoded into the
    same instance via :meth:`append_document`, continuing the global ``pre``
    numbering (``pre`` stays a key of the table).
    """

    def __init__(self) -> None:
        self._records: list[NodeRecord] = []
        self._document_roots: dict[str, int] = {}
        #: Lazily-built per-level index: level -> ascending ``pre`` ranks.
        #: Invalidated by :meth:`append_document`.  Because records are laid
        #: out in ``pre`` order, every per-level list is already sorted, so
        #: :meth:`parent` is one ``bisect`` away.
        self._level_index: Optional[dict[int, list[int]]] = None

    # -- construction --------------------------------------------------------

    def append_document(self, doc: XMLNode) -> int:
        """Encode ``doc`` (a DOC node) and return the ``pre`` rank of its DOC row.

        Single-writer, many-readers: the subtree is encoded into a staging
        list and published with one ``list.extend`` (atomic under the GIL),
        so concurrent readers — the SQLite mirror's incremental ``sync``,
        a lazy derived-state build snapshotting ``rows(n)`` — see either
        none of the document's rows or all of them, never a half-filled tail.
        Concurrent *appends* still need external serialization (the
        :class:`~repro.core.session.DocumentStore` registration lock).
        """
        if doc.kind is not NodeKind.DOC:
            raise ValueError("append_document expects a document node")
        start = len(self._records)
        staged: list = []
        # One pre-order walk over an explicit stack.  A node with attributes
        # or children reserves its row, pushes an end marker (``None``) under
        # them and is filled in when the marker pops: its ``size`` is then
        # the rows staged since, and a leaf element's value is the text row
        # that follows it.  ``open_rows`` holds the reserved rows, innermost
        # last, so its length is the level of the next node.
        open_rows: list[tuple[int, XMLNode]] = []
        stack: list[Optional[XMLNode]] = [doc]
        while stack:
            node = stack.pop()
            if node is None:
                position, node = open_rows.pop()
                size = len(staged) - position - 1
                value = data = None
                if size == 1 and node.kind is NodeKind.ELEM:
                    child = staged[position + 1]
                    if child.kind == "TEXT":
                        value, data = child.value, child.data
                    else:
                        value = ""
                staged[position] = NodeRecord(
                    start + position, size, len(open_rows), node.kind.value, node.name, value, data
                )
            elif node.attributes or node.children:
                open_rows.append((len(staged), node))
                staged.append(None)
                stack.append(None)
                stack.extend(reversed(node.children))
                stack.extend(reversed(node.attributes))
            else:
                kind = node.kind
                if kind is NodeKind.ELEM:
                    value, data = "", None
                elif kind is NodeKind.DOC:
                    value = data = None
                else:
                    value = node.value or ""
                    data = _decimal(value)
                staged.append(
                    NodeRecord(start + len(staged), 0, len(open_rows), kind.value, node.name, value, data)
                )
        self._records.extend(staged)
        if doc.name:
            self._document_roots[doc.name] = start
        self._level_index = None
        return start

    # -- accessors ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[NodeRecord]:
        return iter(self._records)

    @property
    def records(self) -> Sequence[NodeRecord]:
        """All rows in ``pre`` order."""
        return self._records

    def record(self, pre: int) -> NodeRecord:
        """Return the row with the given ``pre`` rank."""
        return self._records[pre]

    def rows(self, limit: Optional[int] = None) -> list[tuple]:
        """The first ``limit`` rows (default: all); each record is a :data:`DOC_COLUMNS` tuple."""
        return self._records[:limit]

    @property
    def level_index(self) -> Mapping[int, Sequence[int]]:
        """``level -> sorted pre ranks`` over all hosted documents."""
        if self._level_index is None:
            index: dict[int, list[int]] = {}
            for record in self._records:
                index.setdefault(record.level, []).append(record.pre)
            self._level_index = index
        return self._level_index

    def document_root(self, uri: str) -> Optional[int]:
        """The ``pre`` rank of the DOC row for ``uri``, or ``None``."""
        return self._document_roots.get(uri)

    def document_uris(self) -> list[str]:
        """The URIs of all documents hosted by this encoding."""
        return list(self._document_roots)

    # -- navigation helpers (used by tests and the serializer) ----------------

    def children(self, pre: int) -> list[int]:
        """``pre`` ranks of the child nodes (attributes excluded) of ``pre``."""
        record = self.record(pre)
        result = []
        position = pre + 1
        end = pre + record.size
        while position <= end:
            child = self.record(position)
            if child.kind != NodeKind.ATTR.value:
                result.append(position)
            position += child.size + 1
        return result

    def attributes(self, pre: int) -> list[int]:
        """``pre`` ranks of the attribute nodes owned by element ``pre``."""
        record = self.record(pre)
        result = []
        position = pre + 1
        end = pre + record.size
        while position <= end:
            child = self.record(position)
            if child.kind == NodeKind.ATTR.value:
                result.append(position)
            else:
                break
            position += child.size + 1
        return result

    def parent(self, pre: int) -> Optional[int]:
        """``pre`` rank of the parent node, or ``None`` for document nodes.

        Answered from the per-level index: by subtree nesting, the parent is
        the rightmost node one level up with a smaller ``pre`` rank (any node
        between it and ``pre`` at that level would have to live inside the
        parent's own subtree, which is impossible at the parent's level).
        """
        target = self.record(pre)
        if target.kind == NodeKind.DOC.value:
            return None
        pres = self.level_index.get(target.level - 1)
        if not pres:
            return None
        position = bisect_left(pres, pre) - 1
        if position < 0:
            return None
        candidate = pres[position]
        record = self.record(candidate)
        if record.pre < pre <= record.pre + record.size:
            return candidate
        return None

    def subtree(self, pre: int, include_self: bool = True) -> range:
        """The ``pre`` range covered by the subtree rooted at ``pre``."""
        record = self.record(pre)
        start = pre if include_self else pre + 1
        return range(start, pre + record.size + 1)


#: First characters (after stripping) of every text ``float()`` can accept:
#: ASCII digits, signs, a point, "inf"/"infinity"/"nan" in any case — and
#: any non-ASCII character, since ``float()`` also reads Unicode digits.
_NUMBER_START = frozenset("0123456789+-.iInN")


def _decimal(value: str) -> Optional[float]:
    """The ``data`` column for ``value``: its ``xs:decimal`` cast, or ``None``.

    The paper stores value-based access columns only for nodes with
    ``size <= 1`` — attributes, text nodes, and leaf elements wrapping a
    single text node.
    """
    stripped = value.strip()
    if not stripped or (stripped[0] not in _NUMBER_START and stripped[0].isascii()):
        return None
    try:
        data = float(stripped)
    except ValueError:
        return None
    # "NaN" parses, but SQLite binds a float NaN as NULL: store NULL here
    # so that every engine reads the same ``data`` value.
    return None if data != data else data


def encode_document(doc: XMLNode) -> DocumentEncoding:
    """Encode a single document tree into a fresh :class:`DocumentEncoding`."""
    encoding = DocumentEncoding()
    encoding.append_document(doc)
    return encoding


def encode_documents(docs: Iterable[XMLNode]) -> DocumentEncoding:
    """Encode several documents into one shared ``doc`` table."""
    encoding = DocumentEncoding()
    for doc in docs:
        encoding.append_document(doc)
    return encoding
