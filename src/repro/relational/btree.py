"""A bulk-loaded B+-tree and the composite-key index built on top of it.

The paper's whole point is that *vanilla* B-tree indexes over the ``doc``
encoding suffice to turn an RDBMS into an XQuery processor.  This module
provides exactly that: :class:`BPlusTree`, the sorted leaf level of a
bulk-loaded tree kept as one contiguous run, plus :class:`BTreeIndex`, which
maps the tree onto a table — composite key columns (including the computed
``pre + size`` column the paper uses), INCLUDE columns stored with the
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

#: Fan-out of the B+-tree (entries per leaf / separators per node): sets its height.
DEFAULT_ORDER = 64

#: Marker for the computed key column ``pre + size`` (column ``s`` in Table VI).
PRE_PLUS_SIZE = "pre+size"


def orderable(value: object) -> tuple:
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
    return tuple(orderable(value) for value in values)


#: Compares greater than every ``orderable`` component, so ``bound + (_AFTER,)``
#: sorts just past the last key that starts with ``bound``.
_AFTER = (3,)


class BPlusTree:
    """A read-optimised B+-tree over ``(key, payload)`` entries.

    The tree is bulk-loaded and immutable, so it is stored as what its leaf
    level is: one contiguous sorted run — parallel lists of comparable
    ``order_key`` forms (decorated exactly once, at build time), raw keys and
    payloads.  A range or prefix scan is two bisections and a slice; the
    separator levels above the leaves would only find the same two positions.

    >>> tree = BPlusTree([((name, n), (n,)) for name in "ab" for n in (1, 2, 3)])
    >>> [key for key, _payload in tree.scan_range(("a", 1), ("b",), low_inclusive=False,
    ...                                           high_inclusive=False)]
    [('a', 2), ('a', 3)]
    """

    def __init__(self, entries: Iterable[tuple[tuple, tuple]], order: int = DEFAULT_ORDER):
        self.order = max(4, order)
        decorated = sorted(
            ((order_key(key), key, payload) for key, payload in entries),
            key=lambda entry: entry[0],
        )
        self.order_keys: list[tuple] = [entry[0] for entry in decorated]
        self.keys: list[tuple] = [entry[1] for entry in decorated]
        self.payloads: list[tuple] = [entry[2] for entry in decorated]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def height(self) -> int:
        """Levels a fan-out-``order`` tree over these entries has (leaves included)."""
        height, nodes = 1, -(-len(self.keys) // self.order)
        while nodes > 1:
            height, nodes = height + 1, -(-nodes // self.order)
        return height

    def span(
        self,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Positions ``[start, end)`` of the run within the (comparable-form) bounds.

        A bound shorter than the composite key is a prefix bound: a key
        *equals* it when it starts with it.  ``key[:n] < bound`` iff
        ``key < bound``, and ``bound + (_AFTER,)`` separates the keys that
        start with ``bound`` from everything greater.
        """
        order_keys = self.order_keys
        start = 0
        if low is not None:
            start = bisect.bisect_left(order_keys, low if low_inclusive else low + (_AFTER,))
        end = len(order_keys)
        if high is not None:
            end = bisect.bisect_left(order_keys, high + (_AFTER,) if high_inclusive else high)
        return start, end

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
        start, end = self.span(
            order_key(low) if low is not None else None,
            order_key(high) if high is not None else None,
            low_inclusive,
            high_inclusive,
        )
        return zip(self.keys[start:end], self.payloads[start:end])

    def scan_all(self) -> Iterator[tuple[tuple, tuple]]:
        """Full scan in key order."""
        return self.scan_range(None, None)


@dataclass
class BTreeIndex:
    """A composite-key B-tree index over one table.

    ``key_columns`` may contain real column names or the computed column
    :data:`PRE_PLUS_SIZE`; ``include_columns`` are carried with the entries so
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
