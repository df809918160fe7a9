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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.xmldb.infoset import NodeKind, XMLNode

#: Column order of the ``doc`` table, as used throughout the compiler,
#: the SQL generator and the relational back-end.
DOC_COLUMNS = ("pre", "size", "level", "kind", "name", "value", "data")


@dataclass(frozen=True)
class NodeRecord:
    """One row of the ``doc`` encoding table."""

    pre: int
    size: int
    level: int
    kind: str
    name: Optional[str]
    value: Optional[str]
    data: Optional[float]

    def as_tuple(self) -> tuple:
        """Return the row in :data:`DOC_COLUMNS` order."""
        return (self.pre, self.size, self.level, self.kind, self.name, self.value, self.data)


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
        staged: list[NodeRecord] = []
        self._encode_subtree(doc, level=0, staged=staged, base=start)
        self._records.extend(staged)
        if doc.name:
            self._document_roots[doc.name] = start
        self._level_index = None
        return start

    def _encode_subtree(
        self, node: XMLNode, level: int, staged: list, base: int
    ) -> int:
        """Encode ``node``'s subtree into ``staged``; return rows emitted."""
        position = base + len(staged)
        # Reserve the slot; the size is only known after the subtree is done.
        staged.append(None)
        emitted = 0
        for attribute in node.attributes:
            emitted += self._encode_subtree(attribute, level + 1, staged, base)
        for child in node.children:
            emitted += self._encode_subtree(child, level + 1, staged, base)
        value, data = _node_value(node, subtree_size=emitted)
        name = node.name
        staged[position - base] = NodeRecord(
            pre=position,
            size=emitted,
            level=level,
            kind=node.kind.value,
            name=name,
            value=value,
            data=data,
        )
        return emitted + 1

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
        """The first ``limit`` rows (default: all) as :data:`DOC_COLUMNS` tuples."""
        return [record.as_tuple() for record in self._records[:limit]]

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


def _node_value(node: XMLNode, subtree_size: int) -> tuple[Optional[str], Optional[float]]:
    """Compute the ``value``/``data`` columns for ``node``.

    The paper stores value-based access columns only for nodes with
    ``size <= 1`` — attributes, text nodes, and leaf elements wrapping a
    single text node.
    """
    if node.kind in (NodeKind.ATTR, NodeKind.TEXT, NodeKind.COMM, NodeKind.PI):
        value = node.value or ""
    elif node.kind is NodeKind.ELEM and subtree_size <= 1:
        value = node.string_value()
    else:
        return None, None
    data: Optional[float] = None
    stripped = value.strip()
    if stripped:
        try:
            data = float(stripped)
        except ValueError:
            data = None
    if data != data:
        # "NaN" parses, but SQLite binds a float NaN as NULL: store NULL here
        # so that every engine reads the same ``data`` value.
        data = None
    return value, data


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
