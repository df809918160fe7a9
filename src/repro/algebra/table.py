"""A minimal in-memory table: named columns over a list of tuple rows.

Used by the reference plan interpreter (:mod:`repro.algebra.interpreter`)
and as the exchange format between the algebra layer and the relational
back-end.  The class deliberately models *tables* (duplicate rows allowed,
row order meaningful) rather than relations, matching Table I of the paper
("operators consume tables, not relations").
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import AlgebraError
from repro.algebra import columnar as _columnar


class Table:
    """An ordered, duplicate-preserving table with named columns."""

    __slots__ = ("columns", "rows", "_index_of", "_columnar")

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[object]] = ()):
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise AlgebraError(f"duplicate column names in table schema {self.columns}")
        self._index_of = {name: index for index, name in enumerate(self.columns)}
        self._columnar = None
        self.rows: list[tuple] = []
        width = len(self.columns)
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise AlgebraError(
                    f"row arity {len(row)} does not match schema arity {width}: {row!r}"
                )
            self.rows.append(row)

    # -- construction ---------------------------------------------------------

    @classmethod
    def unchecked(cls, columns: Sequence[str], rows: list[tuple]) -> "Table":
        """Adopt ``rows`` (a list of correctly-arity tuples) without validation.

        Hot-path constructor for operators that derive rows from an existing
        table's tuples — the per-row arity check of ``__init__`` would
        otherwise dominate selection/join cost.  The schema is still checked,
        and under ``__debug__`` the first row's arity is asserted so rows
        built against a different schema width fail here instead of deep
        inside a downstream operator.
        """
        table = cls.__new__(cls)
        table.columns = tuple(columns)
        if len(set(table.columns)) != len(table.columns):
            raise AlgebraError(f"duplicate column names in table schema {table.columns}")
        assert not rows or len(rows[0]) == len(table.columns), (
            f"unchecked row arity {len(rows[0])} does not match "
            f"schema arity {len(table.columns)}: {rows[0]!r}"
        )
        table._index_of = {name: index for index, name in enumerate(table.columns)}
        table._columnar = None
        table.rows = rows
        return table

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(columns={self.columns}, rows={len(self.rows)})"

    def column_index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise AlgebraError(f"unknown column {name!r}; schema is {self.columns}") from None

    def columnar(self) -> "_columnar.ColumnarTable":
        """This table's columnar twin, memoised per instance.

        Tables are treated as immutable once built, so the conversion (one
        array per column, its sorted domain and its order ranks) is paid
        at most once — the doc table's columns in
        particular are shared across every plan, and every thread,
        evaluated against it.  Columns are published complete: nothing
        writes to them after this returns them.
        """
        cached = self._columnar
        if cached is None:
            cached = _columnar.ColumnarTable.from_table(self)
            for column in cached.cols:
                column.publish()
            self._columnar = cached
        return cached

    def column_values(self, name: str) -> list[object]:
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def row_dict(self, row: Sequence[object]) -> dict[str, object]:
        return dict(zip(self.columns, row))

    # -- transformations used by the interpreter -------------------------------

    def project(self, items: Sequence[tuple[str, str]]) -> "Table":
        """Project/rename: ``items`` is a sequence of ``(new_name, old_name)``."""
        indices = [self.column_index(old) for _new, old in items]
        new_columns = [new for new, _old in items]
        return Table(new_columns, ([row[i] for i in indices] for row in self.rows))

    def select(self, keep: Callable[[Mapping[str, object]], bool]) -> "Table":
        return Table(self.columns, (row for row in self.rows if keep(self.row_dict(row))))

    def distinct(self) -> "Table":
        seen: set[tuple] = set()
        rows = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Table(self.columns, rows)

    def attach(self, name: str, value: object) -> "Table":
        if name in self._index_of:
            raise AlgebraError(f"attach: column {name!r} already exists")
        return Table(self.columns + (name,), (row + (value,) for row in self.rows))

    def attach_row_ids(self, name: str, start: int = 1) -> "Table":
        if name in self._index_of:
            raise AlgebraError(f"row id: column {name!r} already exists")
        return Table(
            self.columns + (name,),
            (row + (start + offset,) for offset, row in enumerate(self.rows)),
        )

    def attach_rank(
        self,
        name: str,
        order_by: Sequence[str],
        partition_by: Sequence[str] = (),
    ) -> "Table":
        """Attach ``RANK() OVER ([PARTITION BY ...] ORDER BY order_by)`` as ``name``.

        The rank restarts at 1 for every distinct combination of the
        partition columns; ties on the order key share a rank within their
        partition.
        """
        if name in self._index_of:
            raise AlgebraError(f"rank: column {name!r} already exists")
        indices = [self.column_index(column) for column in order_by]
        part_indices = [self.column_index(column) for column in partition_by]
        keys = [tuple(row[i] for i in indices) for row in self.rows]
        groups: dict[tuple, list[int]] = {}
        for position, row in enumerate(self.rows):
            groups.setdefault(tuple(row[i] for i in part_indices), []).append(position)
        ranks: dict[int, int] = {}
        for positions in groups.values():
            order = sorted(positions, key=lambda position: _sort_key(keys[position]))
            previous_key = None
            rank = 0
            for sorted_position, row_position in enumerate(order, start=1):
                key = keys[row_position]
                if key != previous_key:
                    rank = sorted_position
                    previous_key = key
                ranks[row_position] = rank
        return Table(
            self.columns + (name,),
            (row + (ranks[position],) for position, row in enumerate(self.rows)),
        )

    def sort_by(self, order_by: Sequence[str]) -> "Table":
        indices = [self.column_index(column) for column in order_by]
        rows = sorted(self.rows, key=lambda row: _sort_key(tuple(row[i] for i in indices)))
        return Table(self.columns, rows)

    def cross(self, other: "Table") -> "Table":
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise AlgebraError(f"cross product with overlapping columns {sorted(overlap)}")
        return Table(
            self.columns + other.columns,
            (left + right for left in self.rows for right in other.rows),
        )


# Total order over heterogeneous values (None < numbers < strings).  The
# canonical definition lives in the columnar module so the vectorized rank
# kernels and the row path provably share one ordering.
_sort_key = _columnar.sort_key
