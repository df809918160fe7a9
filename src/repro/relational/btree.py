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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.algebra import columnar as _columnar
from repro.algebra.columnar import Column
from repro.algebra.table import Table
from repro.lazy import Lazy
from repro.xmldb.encoding import DOC_TABLE

#: Fan-out of the B+-tree (entries per leaf / separators per node): sets its height.
DEFAULT_ORDER = 64

#: Marker for the computed key column ``pre + size`` (column ``s`` in Table VI).
PRE_PLUS_SIZE = "pre+size"

#: The last element of every search array: above each ``prefix_group * radix + rank``.
_PAST_THE_RUN = np.iinfo(np.int64).max


class BPlusTree:
    """A read-optimised B+-tree over composite keys, stored as its leaf level.

    The tree is bulk-loaded and immutable, so it is one contiguous sorted run
    of arrays: :attr:`rows` holds the entry number of every run slot, and
    each key column ``j`` is a :class:`~repro.algebra.columnar.SortedDomain`
    plus an int64 :attr:`search` array ``prefix_group * radix + rank`` —
    ``prefix_group`` numbers the distinct ``key[:j]`` in run order, so the
    array is ascending and one ``searchsorted`` narrows a run segment of
    equal ``key[:j]`` on column ``j``, for any number of probes at once.
    The separator levels above the leaves would only find the same positions.

    >>> tree = BPlusTree.from_entries([((name, n), (n,)) for name in "ab" for n in (1, 2, 3)])
    >>> [key for key, _payload in tree.scan_range(("a", 1), ("b",), low_inclusive=False,
    ...                                           high_inclusive=False)]
    [('a', 2), ('a', 3)]
    """

    def __init__(
        self,
        columns: Sequence[Column],
        payload: Callable[[int], tuple],
        order: int = DEFAULT_ORDER,
    ):
        """Load the entries whose ``i``-th key is the ``i``-th value of each
        key column and whose payload is ``payload(i)``."""
        self.order = max(4, order)
        self.columns = tuple(columns)
        self.payload = payload
        self.domains = tuple(column.domain for column in self.columns)
        ranks = [column.ranks for column in self.columns]
        # lexsort is stable: equal keys keep entry order.
        self.rows = np.lexsort(ranks[::-1]) if ranks else np.arange(0)
        #: Per key column, a power of two above every rank of its domain (0 .. 2D + 1).
        self.radixes = tuple(1 << (2 * len(domain) + 1).bit_length() for domain in self.domains)
        search = []
        new_group = np.zeros(len(self.rows), dtype=bool)
        for column_ranks, radix in zip(ranks, self.radixes):
            column_ranks = column_ranks[self.rows]
            # A sentinel past the run: a segment starting there is empty, and
            # reading its group needs no bounds check.
            search.append(np.append(np.cumsum(new_group) * radix + column_ranks, _PAST_THE_RUN))
            new_group[1:] |= column_ranks[1:] != column_ranks[:-1]
        self.search = tuple(search)

    @classmethod
    def from_entries(
        cls, entries: Iterable[tuple[tuple, tuple]], order: int = DEFAULT_ORDER
    ) -> "BPlusTree":
        """Bulk-load ``(key, payload)`` entries (keys of one width)."""
        entries = list(entries)
        columns = [Column.from_values(values) for values in zip(*(key for key, _ in entries))]
        return cls(columns, [payload for _key, payload in entries].__getitem__, order)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def height(self) -> int:
        """Levels a fan-out-``order`` tree over these entries has (leaves included)."""
        height, nodes = 1, -(-len(self) // self.order)
        while nodes > 1:
            height, nodes = height + 1, -(-nodes // self.order)
        return height

    def segment_base(self, depth: int, starts):
        """``prefix_group * radix`` of the run segments (of equal ``key[:depth]``) at ``starts``.

        Add a rank on key column ``depth`` and ``searchsorted``
        ``search[depth]`` to place it within its segment: ``"left"`` before
        equal keys, ``"right"`` after them.  An empty segment gives an
        arbitrary position, which clipping against its ends keeps empty.
        """
        return self.search[depth][starts] & -self.radixes[depth]

    def _position(self, bound: tuple, side: str) -> int:
        """First slot whose ``key[:len(bound)]`` is ``>= bound`` (``"left"``) or ``> bound``."""
        if len(bound) > len(self.columns):  # a longer bound is past every key it extends
            bound, side = bound[: len(self.columns)], "right"
        start, end = 0, len(self)
        for depth, value in enumerate(bound):
            if start >= end:  # no key extends bound[:depth]: every side meets here
                break
            search = self.search[depth]
            target = self.segment_base(depth, start) + self.domains[depth].rank_value(value)
            if depth == len(bound) - 1:
                return int(search.searchsorted(target, side))
            start = int(search.searchsorted(target, "left"))
            end = int(search.searchsorted(target, "right"))
        return start if side == "left" else end

    def span(
        self,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Run slots ``[start, end)`` of the keys within the bounds (prefix compare).

        A bound shorter than the composite key is a prefix bound: a key
        *equals* it when it starts with it.
        """
        start = 0 if low is None else self._position(low, "left" if low_inclusive else "right")
        end = len(self) if high is None else self._position(
            high, "right" if high_inclusive else "left"
        )
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
        start, end = self.span(low, high, low_inclusive, high_inclusive)
        values = [column.values for column in self.columns]
        for entry in self.rows[start:end].tolist():
            yield tuple(column[entry] for column in values), self.payload(entry)

    def scan_all(self) -> Iterator[tuple[tuple, tuple]]:
        """Full scan in key order."""
        return self.scan_range(None, None)


@dataclass
class BTreeIndex:
    """A composite-key B-tree index over the ``doc`` table.

    ``key_columns`` may contain real column names or the computed column
    :data:`PRE_PLUS_SIZE`; ``include_columns`` are carried with the entries so
    that lookups do not have to touch the base table (the paper's
    ``INCLUDE(·)`` clause on the ``p|nvkls`` index).  An entry is a table
    row: its number is the row position.
    """

    name: str
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
            base = table.columnar()
            includes = [base.col(column).values for column in include_columns]
            return BPlusTree(
                [_key_column(base, column) for column in key_columns],
                lambda row: (row, *(values[row] for values in includes)),
                order=order,
            )

        return BTreeIndex(
            name=name,
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
        tree = self.tree
        start, end = tree.span(tuple(prefix), tuple(prefix))
        return iter(tree.rows[start:end].tolist())

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
        return f"{self.name} ON {DOC_TABLE}({keys}){include}{clustered}"


def _column_extractor(table: Table, column: str):
    if column == PRE_PLUS_SIZE:
        pre_index = table.column_index("pre")
        size_index = table.column_index("size")
        return lambda row: row[pre_index] + row[size_index]
    index = table.column_index(column)
    return lambda row: row[index]


def _key_column(base: _columnar.ColumnarTable, column: str) -> Column:
    """One key column of the table's columnar twin (``pre + size`` summed)."""
    if column == PRE_PLUS_SIZE:
        return _columnar.sum_columns([base.col("pre"), base.col("size")], base.length)
    return base.col(column)
