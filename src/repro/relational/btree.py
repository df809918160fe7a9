"""A bulk-loaded B+-tree and the composite-key index built on top of it.

The paper's whole point is that *vanilla* B-tree indexes over the ``doc``
encoding suffice to turn an RDBMS into an XQuery processor.  This module
provides exactly that: a textbook B+-tree (sorted leaves linked for range
scans, internal separator nodes) plus :class:`BTreeIndex`, which maps the
tree onto a table — composite key columns (including the computed
``pre + size`` column the paper uses), INCLUDE columns stored on the leaf
entries, and per-prefix statistics used by the optimizer.

Keys are tuples; ``None`` values sort first.  The tree is bulk-loaded from
sorted entries and immutable afterwards (the rows an index covers never
change).  An index is *write-once lazy*: :meth:`BTreeIndex.build` computes
what the planner reads — key columns, per-prefix cardinalities, entry
count — and the sort + bulk load waits for the first scan or lookup, so an
index no physical plan ever probes never pays for it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.algebra.table import Table
from repro.lazy import Lazy

#: Fan-out of the B+-tree (number of entries per leaf / separators per node).
DEFAULT_ORDER = 64

#: Marker for the computed key column ``pre + size`` (column ``s`` in Table VI).
PRE_PLUS_SIZE = "pre+size"


def _orderable(value: object) -> tuple:
    """Map heterogeneous key components onto one totally ordered domain."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def order_key(values: Sequence[object]) -> tuple:
    """The comparable form of a composite key."""
    return tuple(_orderable(value) for value in values)


class _Leaf:
    __slots__ = ("keys", "order_keys", "payloads", "next")

    def __init__(self) -> None:
        self.keys: list[tuple] = []
        #: ``order_key`` form of every entry, decorated once at bulk load —
        #: probes bisect these directly instead of re-decorating the leaf.
        self.order_keys: list[tuple] = []
        self.payloads: list[tuple] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("separators", "children")

    def __init__(self) -> None:
        #: Separators are stored in ``order_key`` (comparable) form.
        self.separators: list[tuple] = []
        self.children: list[object] = []


class BPlusTree:
    """A read-optimised B+-tree over ``(key, payload)`` entries.

    The tree is immutable after the bulk load, so every key's comparable
    ``order_key`` form is computed exactly once — at build time — and
    stored alongside the raw key.  Probes and range scans then bisect the
    precomputed forms; re-decorating a leaf per scan used to dominate
    index-nested-loop join time.
    """

    def __init__(self, entries: Iterable[tuple[tuple, tuple]], order: int = DEFAULT_ORDER):
        self.order = max(4, order)
        decorated = sorted(
            ((order_key(key), key, payload) for key, payload in entries),
            key=lambda entry: entry[0],
        )
        self._size = len(decorated)
        self.root, self.first_leaf = self._bulk_load(decorated)
        self.height = self._measure_height()

    def __len__(self) -> int:
        return self._size

    # -- construction ---------------------------------------------------------------

    def _bulk_load(self, entries: list[tuple[tuple, tuple, tuple]]):
        leaves: list[_Leaf] = []
        for start in range(0, max(len(entries), 1), self.order):
            leaf = _Leaf()
            for comparable, key, payload in entries[start : start + self.order]:
                leaf.order_keys.append(comparable)
                leaf.keys.append(key)
                leaf.payloads.append(payload)
            leaves.append(leaf)
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        level: list[object] = list(leaves)
        level_keys = [leaf.order_keys[0] if leaf.order_keys else () for leaf in leaves]
        while len(level) > 1:
            parents: list[object] = []
            parent_keys: list[tuple] = []
            for start in range(0, len(level), self.order):
                node = _Internal()
                node.children = level[start : start + self.order]
                node.separators = level_keys[start + 1 : start + self.order]
                parents.append(node)
                parent_keys.append(level_keys[start])
            level = parents
            level_keys = parent_keys
        return level[0], leaves[0]

    def _measure_height(self) -> int:
        height = 1
        node = self.root
        while isinstance(node, _Internal):
            height += 1
            node = node.children[0]
        return height

    # -- search ------------------------------------------------------------------------

    def _descend(self, comparable: tuple) -> _Leaf:
        node = self.root
        while isinstance(node, _Internal):
            # bisect_left, not bisect_right: when the search key equals a
            # separator, duplicates of that key may extend back into the
            # child *left* of the separator, and the range scan walks
            # forward over the leaf chain from there.
            index = bisect.bisect_left(node.separators, comparable)
            node = node.children[index]
        return node  # type: ignore[return-value]

    def scan_range(
        self,
        low: Optional[tuple] = None,
        high: Optional[tuple] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[tuple, tuple]]:
        """Yield ``(key, payload)`` for keys within ``[low, high]`` (prefix compare).

        A bound that is shorter than the full composite key behaves like a
        prefix bound: ``low=(name,)`` starts at the first key with that name.
        """
        low_key = order_key(low) if low is not None else None
        high_key = order_key(high) if high is not None else None
        leaf = self._descend(low_key) if low_key is not None else self.first_leaf
        while leaf is not None:
            leaf_keys = leaf.order_keys
            start = 0
            if low_key is not None:
                start = bisect.bisect_left(leaf_keys, low_key)
            for position in range(start, len(leaf.keys)):
                key_comparable = leaf_keys[position]
                if low_key is not None:
                    prefix = key_comparable[: len(low_key)]
                    if prefix < low_key or (not low_inclusive and prefix == low_key):
                        continue
                if high_key is not None:
                    prefix = key_comparable[: len(high_key)]
                    if prefix > high_key or (not high_inclusive and prefix == high_key):
                        return
                yield leaf.keys[position], leaf.payloads[position]
            leaf = leaf.next

    def scan_all(self) -> Iterator[tuple[tuple, tuple]]:
        """Full scan in key order."""
        return self.scan_range(None, None)


@dataclass
class BTreeIndex:
    """A composite-key B-tree index over one table.

    ``key_columns`` may contain real column names or the computed column
    :data:`PRE_PLUS_SIZE`; ``include_columns`` are carried on the leaves so
    that lookups do not have to touch the base table (the paper's
    ``INCLUDE(·)`` clause on the ``p|nvkls`` index).
    """

    name: str
    table_name: str
    key_columns: tuple[str, ...]
    include_columns: tuple[str, ...] = ()
    clustered: bool = False
    #: Distinct key-prefix counts, one entry per key prefix length.
    prefix_cardinalities: tuple[int, ...] = ()
    entry_count: int = 0
    _tree: Lazy[BPlusTree] = field(default=None, repr=False)  # type: ignore[assignment]

    @staticmethod
    def build(
        name: str,
        table_name: str,
        table: Table,
        key_columns: Sequence[str],
        include_columns: Sequence[str] = (),
        clustered: bool = False,
        order: int = DEFAULT_ORDER,
    ) -> "BTreeIndex":
        """Index the table's current contents: metadata now, the tree on first probe."""
        key_columns = tuple(key_columns)
        include_columns = tuple(include_columns)
        key_extractors = [_column_extractor(table, column) for column in key_columns]
        rows = table.rows
        columns = [[extract(row) for row in rows] for extract in key_extractors]
        prefix_cardinalities = tuple(
            len(set(zip(*columns[: depth + 1]))) for depth in range(len(columns))
        )

        def load() -> BPlusTree:
            include_indices = [table.column_index(column) for column in include_columns]
            entries = [
                (
                    tuple(extract(row) for extract in key_extractors),
                    (row_position,) + tuple(row[i] for i in include_indices),
                )
                for row_position, row in enumerate(rows)
            ]
            return BPlusTree(entries, order=order)

        return BTreeIndex(
            name=name,
            table_name=table_name,
            key_columns=key_columns,
            include_columns=include_columns,
            clustered=clustered,
            prefix_cardinalities=prefix_cardinalities,
            entry_count=len(rows),
            _tree=Lazy(load),
        )

    @property
    def tree(self) -> BPlusTree:
        """The B+-tree, bulk-loaded by the first caller (once, under a lock)."""
        return self._tree.get()

    # -- lookups ---------------------------------------------------------------------

    def lookup(self, prefix: Sequence[object]) -> Iterator[int]:
        """Row positions whose key starts with ``prefix`` (equality lookup)."""
        prefix = tuple(prefix)
        for _key, payload in self.tree.scan_range(prefix, prefix):
            yield payload[0]

    def scan(
        self,
        low: Optional[Sequence[object]] = None,
        high: Optional[Sequence[object]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[tuple, int]]:
        """Range scan: yields ``(key, row_position)`` pairs in key order."""
        for key, payload in self.tree.scan_range(
            tuple(low) if low is not None else None,
            tuple(high) if high is not None else None,
            low_inclusive,
            high_inclusive,
        ):
            yield key, payload[0]

    def selectivity_of_prefix(self, depth: int) -> float:
        """Fraction of rows matched by an equality on the first ``depth`` key columns."""
        if depth <= 0 or not self.entry_count:
            return 1.0
        depth = min(depth, len(self.prefix_cardinalities))
        distinct = max(1, self.prefix_cardinalities[depth - 1])
        return 1.0 / distinct

    def describe(self) -> str:
        keys = ", ".join(self.key_columns)
        include = f" INCLUDE({', '.join(self.include_columns)})" if self.include_columns else ""
        clustered = " CLUSTERED" if self.clustered else ""
        return f"{self.name} ON {self.table_name}({keys}){include}{clustered}"


def _column_extractor(table: Table, column: str):
    if column == PRE_PLUS_SIZE:
        pre_index = table.column_index("pre")
        size_index = table.column_index("size")
        return lambda row: row[pre_index] + row[size_index]
    index = table.column_index(column)
    return lambda row: row[index]
