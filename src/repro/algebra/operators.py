"""Logical operators of the table algebra (Table I of the paper).

Plans are DAGs of operator nodes that are immutable everywhere except
inside one isolation run, which rewrites its own private copy of a plan
through a single function (:func:`repro.algebra.dag.glue` re-points
``children`` and adjusts ``columns`` there; see :func:`repro.algebra.dag.thaw`).
Each node knows its children and its output schema (``columns``); node
identity is object identity, so the same node object appearing below
several parents models plan sharing (e.g. the single ``doc`` instance of
Fig. 4).

Operators validate their column references at construction time, which
catches compiler and rewriter bugs early.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import AlgebraError
from repro.algebra.predicates import Predicate
from repro.xmldb.encoding import DOC_COLUMNS


class Operator:
    """Base class of all plan operators."""

    __slots__ = ("children", "columns", "column_set")

    #: Short symbol used by the renderers (π, σ, ⋈, ...).
    symbol = "?"

    def __init__(self, children: Sequence["Operator"], columns: Sequence[str]):
        self.children: tuple[Operator, ...] = tuple(children)
        self.columns: tuple[str, ...] = tuple(columns)
        #: ``frozenset(columns)``, built once (:func:`repro.algebra.dag.glue`
        #: keeps it in step when it gives a node new ``columns``).
        self.column_set: frozenset[str] = frozenset(self.columns)
        if len(self.column_set) != len(self.columns):
            raise AlgebraError(f"duplicate output columns {self.columns} in {type(self).__name__}")

    # -- structural helpers ----------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def with_children(self, children: Sequence["Operator"]) -> "Operator":
        """Recreate this operator with new children (same parameters)."""
        raise NotImplementedError

    def label(self) -> str:
        """One-line description used by the plan renderers."""
        return self.symbol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.label()} cols={','.join(self.columns)}>"


def _require_columns(operator_name: str, available: Sequence[str], needed: Sequence[str]) -> None:
    missing = [column for column in needed if column not in available]
    if missing:
        raise AlgebraError(
            f"{operator_name}: unknown column(s) {missing}; input schema is {tuple(available)}"
        )


class DocTable(Operator):
    """The XML infoset encoding table ``doc`` (a shared leaf)."""

    __slots__ = ()
    symbol = "doc"

    def __init__(self):
        super().__init__((), DOC_COLUMNS)

    def with_children(self, children: Sequence[Operator]) -> "DocTable":
        if children:
            raise AlgebraError("doc is a leaf operator")
        return self


class LiteralTable(Operator):
    """A literal table with inline rows (e.g. the singleton ``loop`` relation)."""

    __slots__ = ("rows",)
    symbol = "table"

    def __init__(self, columns: Sequence[str], rows: Sequence[Sequence[object]]):
        super().__init__((), columns)
        width = len(self.columns)
        frozen_rows = []
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise AlgebraError(f"literal table row {row!r} does not match schema {self.columns}")
            frozen_rows.append(row)
        self.rows: tuple[tuple, ...] = tuple(frozen_rows)

    def with_children(self, children: Sequence[Operator]) -> "LiteralTable":
        if children:
            raise AlgebraError("a literal table is a leaf operator")
        return self

    def label(self) -> str:
        preview = ", ".join(str(row) for row in self.rows[:2])
        if len(self.rows) > 2:
            preview += ", …"
        return f"[{'|'.join(self.columns)}: {preview}]"


class Serialize(Operator):
    """The serialization point ✂ marking the plan root (delivers the result rows)."""

    __slots__ = ()
    symbol = "✂"

    def __init__(self, child: Operator):
        super().__init__((child,), child.columns)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def with_children(self, children: Sequence[Operator]) -> "Serialize":
        (child,) = children
        return Serialize(child)


class Project(Operator):
    """π — projection with optional renaming.

    ``items`` is an ordered sequence of ``(new_name, source_name)`` pairs,
    mirroring the paper's ``π_{a1:b1, ..., an:bn}`` notation.
    """

    __slots__ = ("items",)
    symbol = "π"

    def __init__(self, child: Operator, items: Sequence[tuple[str, str]]):
        items = tuple((str(new), str(old)) for new, old in items)
        if not items:
            raise AlgebraError("projection needs at least one output column")
        _require_columns("π", child.columns, [old for _new, old in items])
        super().__init__((child,), [new for new, _old in items])
        self.items = items

    @property
    def child(self) -> Operator:
        return self.children[0]

    @staticmethod
    def keep(child: Operator, columns: Sequence[str]) -> "Project":
        """Projection onto ``columns`` without renaming."""
        return Project(child, [(column, column) for column in columns])

    def renaming(self) -> dict[str, str]:
        """Mapping from output name to source name."""
        return {new: old for new, old in self.items}

    def with_children(self, children: Sequence[Operator]) -> "Project":
        (child,) = children
        return Project(child, self.items)

    def label(self) -> str:
        parts = [new if new == old else f"{new}:{old}" for new, old in self.items]
        return f"π {', '.join(parts)}"


class Select(Operator):
    """σ — row selection by a conjunctive predicate."""

    __slots__ = ("predicate",)
    symbol = "σ"

    def __init__(self, child: Operator, predicate: Predicate):
        _require_columns("σ", child.columns, sorted(predicate.columns()))
        super().__init__((child,), child.columns)
        self.predicate = predicate

    @property
    def child(self) -> Operator:
        return self.children[0]

    def with_children(self, children: Sequence[Operator]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def label(self) -> str:
        return f"σ {self.predicate.render()}"


class Join(Operator):
    """⋈ — join of two inputs by a conjunctive predicate.

    The inputs must have disjoint schemas (the compiler renames columns to
    guarantee this, cf. the ° columns of the STEP rule).
    """

    __slots__ = ("predicate",)
    symbol = "⋈"

    def __init__(self, left: Operator, right: Operator, predicate: Predicate):
        overlap = left.column_set & right.column_set
        if overlap:
            raise AlgebraError(f"join inputs share columns {sorted(overlap)}")
        _require_columns("⋈", left.columns + right.columns, sorted(predicate.columns()))
        super().__init__((left, right), left.columns + right.columns)
        self.predicate = predicate

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    def with_children(self, children: Sequence[Operator]) -> "Join":
        left, right = children
        return Join(left, right, self.predicate)

    def label(self) -> str:
        return f"⋈ {self.predicate.render()}"


class Cross(Operator):
    """× — Cartesian product of two inputs with disjoint schemas."""

    __slots__ = ()
    symbol = "×"

    def __init__(self, left: Operator, right: Operator):
        overlap = left.column_set & right.column_set
        if overlap:
            raise AlgebraError(f"cross product inputs share columns {sorted(overlap)}")
        super().__init__((left, right), left.columns + right.columns)

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    def with_children(self, children: Sequence[Operator]) -> "Cross":
        left, right = children
        return Cross(left, right)


class Distinct(Operator):
    """δ — duplicate row elimination."""

    __slots__ = ()
    symbol = "δ"

    def __init__(self, child: Operator):
        super().__init__((child,), child.columns)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def with_children(self, children: Sequence[Operator]) -> "Distinct":
        (child,) = children
        return Distinct(child)


class Attach(Operator):
    """@ — attach a column holding a constant value."""

    __slots__ = ("column", "value")
    symbol = "@"

    def __init__(self, child: Operator, column: str, value: object):
        if column in child.columns:
            raise AlgebraError(f"@: column {column!r} already present in input")
        super().__init__((child,), child.columns + (column,))
        self.column = column
        self.value = value

    @property
    def child(self) -> Operator:
        return self.children[0]

    def with_children(self, children: Sequence[Operator]) -> "Attach":
        (child,) = children
        return Attach(child, self.column, self.value)

    def label(self) -> str:
        return f"@ {self.column}:{self.value!r}"


class RowId(Operator):
    """# — attach an arbitrary unique row identifier."""

    __slots__ = ("column",)
    symbol = "#"

    def __init__(self, child: Operator, column: str):
        if column in child.columns:
            raise AlgebraError(f"#: column {column!r} already present in input")
        super().__init__((child,), child.columns + (column,))
        self.column = column

    @property
    def child(self) -> Operator:
        return self.children[0]

    def with_children(self, children: Sequence[Operator]) -> "RowId":
        (child,) = children
        return RowId(child, self.column)

    def label(self) -> str:
        return f"# {self.column}"


#: Aggregation functions of :class:`GroupAggregate`.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg")


def fold_aggregate(function: str, values: Sequence[object]) -> object:
    """One group's ``count`` / ``sum`` / ``avg``; ``None`` when the group gives no row.

    ``values`` holds one entry per distinct unit of the group: ``count``
    counts them, ``sum`` and ``avg`` ignore the NULL ones.  ``count`` and
    ``sum`` complete an empty group with 0; ``avg`` over no non-NULL value
    gives no row (``fn:avg(())`` is the empty sequence).  Shared by the plan
    interpreter and the B-tree engine.
    """
    if function == "count":
        return len(values)
    present = [value for value in values if value is not None]
    if function == "sum":
        return sum(present) if present else 0
    return sum(present) / len(present) if present else None


class GroupAggregate(Operator):
    """Aggr — per-group aggregation of ``child`` rows against a ``loop``.

    The loop-lifting AGGR rule's operator: ``loop`` holds one row per
    iteration of the enclosing loop (its ``group_column`` is a key).  For
    every loop row, the child rows with the same ``group_column`` value are
    first deduplicated on ``(group_column, unit_column[, value_column])`` —
    the aggregate's argument is a ddo'd *node sequence*, so each node
    (``unit_column``) contributes once per iteration regardless of how many
    bundle rows produced it — and then folded into one ``item_column``
    value:

    * ``count`` — the number of distinct units (0 when none);
    * ``sum``   — the sum of their non-NULL ``value_column`` values (0 when
      none, following ``fn:sum`` on the empty sequence);
    * ``avg``   — their average; an iteration without any non-NULL value
      produces **no output row** (``fn:avg(())`` is the empty sequence).

    Owning the dedup identity makes the operator self-contained: upstream
    rewrites may freely remove the argument's δ (the operator re-establishes
    it) and prune every child column beyond group/unit/value.  The output
    schema is ``loop.columns + (item_column,)`` — the loop's columns pass
    through untouched, so isolation can widen the loop side (carry ordering
    columns) without the operator standing in the way.  Matching SQL NULL
    discipline, ``sum``/``avg`` ignore NULL values; this is what allows the
    SQL back-end to run the same aggregation as native ``COUNT``/``SUM``/
    ``AVG`` over a DISTINCT subquery.
    """

    __slots__ = ("function", "group_column", "unit_column", "value_column", "item_column")
    symbol = "aggr"

    def __init__(
        self,
        child: Operator,
        loop: Operator,
        function: str,
        group_column: str = "iter",
        unit_column: str = "item",
        value_column: Optional[str] = None,
        item_column: str = "item",
    ):
        if function not in AGGREGATE_FUNCTIONS:
            raise AlgebraError(f"unknown aggregate function {function!r}")
        if function == "count":
            if value_column is not None:
                raise AlgebraError("count aggregates units, not a value column")
        elif value_column is None:
            raise AlgebraError(f"{function} needs a value column")
        needed = [group_column, unit_column] + ([value_column] if value_column else [])
        _require_columns("aggr(child)", child.columns, needed)
        _require_columns("aggr(loop)", loop.columns, [group_column])
        if item_column in loop.columns:
            raise AlgebraError(f"aggr: column {item_column!r} already present in the loop input")
        super().__init__((child, loop), loop.columns + (item_column,))
        self.function = function
        self.group_column = group_column
        self.unit_column = unit_column
        self.value_column = value_column
        self.item_column = item_column

    @property
    def child(self) -> Operator:
        return self.children[0]

    @property
    def loop(self) -> Operator:
        return self.children[1]

    def with_children(self, children: Sequence[Operator]) -> "GroupAggregate":
        child, loop = children
        return GroupAggregate(
            child,
            loop,
            self.function,
            self.group_column,
            self.unit_column,
            self.value_column,
            self.item_column,
        )

    def label(self) -> str:
        argument = self.value_column if self.value_column else self.unit_column
        return f"aggr {self.function}({argument}) % {self.group_column}"


class RowRank(Operator):
    """ϱ — attach the row rank in ``column`` ordered by ``order_by``.

    Mirrors SQL:1999 ``RANK() OVER ([PARTITION BY p1, ...] ORDER BY b1, ...)
    AS a``.  ``partition_by`` restarts the rank for every distinct
    combination of the partition columns (the paper's ϱ a:⟨b⟩/p form used
    to number items *per iteration* instead of globally).
    """

    __slots__ = ("column", "order_by", "partition_by")
    symbol = "ϱ"

    def __init__(
        self,
        child: Operator,
        column: str,
        order_by: Sequence[str],
        partition_by: Sequence[str] = (),
    ):
        order_by = tuple(order_by)
        partition_by = tuple(partition_by)
        if column in child.columns:
            raise AlgebraError(f"ϱ: column {column!r} already present in input")
        if not order_by:
            raise AlgebraError("ϱ needs at least one ordering column")
        _require_columns("ϱ", child.columns, order_by)
        _require_columns("ϱ", child.columns, partition_by)
        super().__init__((child,), child.columns + (column,))
        self.column = column
        self.order_by = order_by
        self.partition_by = partition_by

    @property
    def child(self) -> Operator:
        return self.children[0]

    def with_children(self, children: Sequence[Operator]) -> "RowRank":
        (child,) = children
        return RowRank(child, self.column, self.order_by, self.partition_by)

    def label(self) -> str:
        rendered = f"ϱ {self.column}:⟨{', '.join(self.order_by)}⟩"
        if self.partition_by:
            rendered += f"/⟨{', '.join(self.partition_by)}⟩"
        return rendered


#: The operators the isolated join graph may contain below the plan tail
#: (cf. Section III: "projection, selection, and column attachment").
JOIN_GRAPH_OPERATORS = (Project, Select, Attach, Join, Cross, DocTable, LiteralTable)

#: Blocking operators the isolation moves into the plan tail.
BLOCKING_OPERATORS = (Distinct, RowRank, RowId)


def loop_table(iterations: Sequence[object] = (1,)) -> LiteralTable:
    """The ``loop`` relation: a single-column table of iteration identifiers."""
    return LiteralTable(("iter",), [(value,) for value in iterations])


def literal_column(column: str, value: object) -> LiteralTable:
    """A singleton literal table with one column (the paper's ``a / c1`` table)."""
    return LiteralTable((column,), [(value,)])
