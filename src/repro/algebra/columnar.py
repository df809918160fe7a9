"""Columnar storage and vectorized kernels for the execution core.

The paper's argument is that set-oriented relational evaluation beats
node-at-a-time navigation — yet a row-tuple interpreter still pays Python
dispatch per row.  This module supplies the columnar counterpart of
:class:`repro.algebra.table.Table`: one array per column, boolean masks for
selections, and batch kernels (comparison masks, rank/dense-rank, staircase
bisection helpers) that the interpreted engines call instead of per-row
closures.

Storage is a NumPy object ``ndarray`` per column.  A kernel whose
vectorized branch cannot provably match the reference for the values at
hand — uncoded strings, ints beyond float64 exactness, mixed types, NULL
join keys — *declines* to an element-by-element Python branch with the
reference semantics, so the output never depends on the branch taken.

Comparison mask semantics replicate :func:`repro.algebra.predicates._compare`
exactly:

* any ``None`` operand fails the comparison (``None = None`` is *false*),
* mixed numeric/string *range* comparisons fail instead of raising,
* ``=`` / ``!=`` use Python equality over the original objects.

The vectorized branch runs comparisons over a float64 *numeric shadow* of
each column (``None`` and strings map to NaN).  NaN propagation makes the
``None``-fails rule free for ``=``/``<``/``<=``/``>``/``>=``; ``!=`` masks
NaN explicitly.  The shadow branch is only taken when it provably matches
the reference semantics: both sides must be free of floats that cannot be
represented exactly (huge ints) and at most one side may contain strings
(a string shadows to NaN and can never equal or order against a number,
which is exactly the reference behaviour — but string-vs-string comparisons
must fall back to the Python branch).

*Dictionary codes* carry the string columns.  When a base table publishes
its columnar twin (:meth:`Column.publish`), every column whose values are
all ``str`` or ``None`` gets an int64 ``codes`` array over a ``dictionary``
mapping each distinct string to its rank in sorted order; ``None`` is code
−1.  Every column derived by ``take``/``filter``/``repeat``/``tile`` (and
projection, which shares columns) keeps the codes and the *same*
dictionary object, so:

* ``=`` / ``!=`` against a literal, or between two columns sharing a
  dictionary, compare codes — and −1 fails both, as ``None`` does;
* an equi-join of two such columns merges on codes — and there −1 *matches*
  −1, exactly as a ``None`` key meets ``None`` in a hash bucket;
* ``order by`` ranks codes, since code order is string order.

>>> column = Column.from_values(["a", None, "b"])
>>> column.publish()
>>> column.codes.tolist()
[0, -1, 1]
>>> [bool(v) for v in compare_mask(column, "=", "a", 3)]
[True, False, False]
>>> [bool(v) for v in compare_mask(column, "=", "zebra", 3)]
[False, False, False]
>>> [bool(v) for v in compare_mask(column, "!=", "zebra", 3)]
[True, False, True]
"""

from __future__ import annotations

import bisect
from operator import itemgetter as _itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as _np

#: Largest magnitude for which every int is exactly representable in float64.
_EXACT_INT = 2 ** 53

_NAN = float("nan")


def _numeric_objects(shadow, notnull, ints_only: bool):
    """The exact Python objects of a numeric column: ``None`` for NaN, ints when ``ints_only``."""
    if ints_only:
        values = _np.where(notnull, shadow, 0.0).astype(_np.int64).astype(object)
    else:
        values = shadow.astype(object)
    values[~notnull] = None
    return values


#: Element-type sets whose statistics are built by whole-array conversions.
_NUMERIC_TYPES = frozenset((int, float, type(None)))
_STRING_TYPES = frozenset((str, type(None)))


def orderable(value: object) -> tuple:
    """One value's place in the total order over heterogeneous values (None < numbers < strings)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def sort_key(values: tuple) -> tuple:
    """Total order over heterogeneous value tuples, one :func:`orderable` per value.

    Canonical definition shared by the row path (``Table.sort_by`` /
    ``Table.attach_rank``), the columnar rank kernels and the B-tree.
    """
    return tuple(map(orderable, values))


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------


class Column:
    """One table column: an object ndarray.

    Lazily caches per-column statistics used to pick kernel branches:

    ``notnull``
        boolean mask, True where the value is not ``None``;
    ``shadow``
        float64 array with the numeric value per row and NaN for ``None``
        or non-numeric values;
    ``has_strings``
        True when any value is neither ``None`` nor numeric;
    ``shadow_exact``
        True when every numeric value is exactly representable in float64
        (ints beyond ±2**53 poison the shadow and force the Python branch);
    ``ints_only``
        True when every non-``None`` value is a Python int (bools included)
        — lets arithmetic kernels rebuild exact int results from a float64
        shadow.

    and, set only by :meth:`publish` and inherited by derived columns:

    ``codes``
        int64 array of dictionary codes (−1 for ``None``), or ``None`` when
        the column is not dictionary-coded;
    ``dictionary``
        the ``{string: code}`` map the codes index, shared by identity
        between every column derived from one published column — two
        columns' codes are comparable exactly when their dictionaries are
        the same object.
    """

    __slots__ = (
        "_values",
        "length",
        "codes",
        "dictionary",
        "_notnull",
        "_shadow",
        "_has_strings",
        "_shadow_exact",
        "_ints_only",
    )

    def __init__(self, values, length: Optional[int] = None):
        self._values = values
        self.length = len(values) if length is None else length
        self.codes = None
        self.dictionary: Optional[dict] = None
        self._notnull = None
        self._shadow = None
        self._has_strings = None
        self._shadow_exact = None
        self._ints_only = None

    def __len__(self) -> int:
        return self.length

    @property
    def values(self):
        """The object ndarray; a :meth:`numeric` column builds it on first read."""
        values = self._values
        if values is None:  # an idempotent fill: racing readers build equal arrays
            values = self._values = _numeric_objects(self._shadow, self._notnull, self._ints_only)
        return values

    @classmethod
    def from_values(cls, values: Sequence[object]) -> "Column":
        """Build a column holding exactly the objects ``values``."""
        array = _np.empty(len(values), dtype=object)
        array[:] = values
        return cls(array)

    @classmethod
    def numeric(cls, shadow, ints_only: bool = False) -> "Column":
        """A purely numeric column from its float64 shadow (NaN = ``None``).

        Materialises *exact* Python objects: NaN rows become ``None`` (never
        a float ``nan`` object), and with ``ints_only`` the values are
        rebuilt as Python ints — so a vectorized sum of int columns is
        bit-for-bit the int the row path would have produced.
        """
        column = cls(None, len(shadow))  # the objects wait for their first reader
        column._shadow = shadow
        column._notnull = shadow == shadow  # NaN marks None
        column._has_strings = False
        column._shadow_exact = True
        column._ints_only = ints_only
        return column

    @classmethod
    def constant(cls, value: object, n: int) -> "Column":
        """A column holding ``value`` in every row (the Attach operator)."""
        array = _np.empty(n, dtype=object)
        array[:] = value
        column = cls(array)
        column._has_strings = value is not None and not isinstance(value, (int, float))
        column._shadow_exact = not isinstance(value, int) or _scalar_exact(value)
        column._ints_only = value is None or isinstance(value, int)
        return column

    @classmethod
    def int_sequence(cls, start: int, n: int) -> "Column":
        """Consecutive Python ints ``start .. start+n-1`` (the RowId operator)."""
        column = cls(_np.arange(start, start + n).astype(object), n)
        column._shadow = _np.arange(start, start + n, dtype=_np.float64)
        column._notnull = _np.ones(n, dtype=bool)
        column._has_strings = False
        column._shadow_exact = True
        column._ints_only = True
        return column

    def publish(self) -> None:
        """Build every statistic now, and dictionary codes for an all-``str``-or-``None`` column.

        :meth:`Table.columnar` calls this on a base table's columns before
        it shares them; no lazy property writes to a published column
        afterwards, so threads may read it without a lock.
        """
        self._build_stats()
        if not set(map(type, self.values)) <= _STRING_TYPES:
            return
        present = self.values[self.notnull].tolist()
        self.dictionary = {text: code for code, text in enumerate(sorted(set(present)))}
        codes = _np.full(self.length, -1, dtype=_np.int64)
        codes[self.notnull] = _np.fromiter(
            map(self.dictionary.__getitem__, present), dtype=_np.int64, count=len(present)
        )
        self.codes = codes

    def _build_stats(self) -> None:
        """Statistics by whole-array conversions where the element types allow.

        A column of ``int``/``float``/``None`` or of ``str``/``None`` needs
        no per-element Python: ``astype`` gives the shadow, and only ints
        whose float lands at or beyond ±2**53 (the candidates for
        inexactness) are re-checked one by one.  Mixed and ``bool`` columns
        take :meth:`_build_stats_by_element`, the reference.
        """
        values = self.values
        types = set(map(type, values))
        if not (types <= _NUMERIC_TYPES or types <= _STRING_TYPES):
            self._build_stats_by_element()
            return
        has_nulls = type(None) in types
        notnull = values != None if has_nulls else _np.ones(self.length, dtype=bool)  # noqa: E711
        has_strings = str in types
        exact = True
        if has_strings:
            shadow = _np.full(self.length, _NAN)
        else:
            present = values[notnull] if has_nulls else values
            present_shadow = present.astype(_np.float64)
            if has_nulls:
                shadow = _np.full(self.length, _NAN)
                shadow[notnull] = present_shadow
            else:
                shadow = present_shadow
            if int in types:
                candidates = present[_np.abs(present_shadow) >= _EXACT_INT].tolist()
                exact = all(-_EXACT_INT <= v <= _EXACT_INT for v in candidates if type(v) is int)
        self._shadow = shadow
        self._notnull = notnull
        self._has_strings = has_strings
        self._shadow_exact = exact
        self._ints_only = not has_strings and float not in types

    def _build_stats_by_element(self) -> None:
        """The per-element statistics loop."""
        values = self.values
        n = self.length
        has_strings = False
        exact = True
        ints_only = True
        shadow = _np.empty(n, dtype=_np.float64)
        notnull = _np.ones(n, dtype=bool)
        for i in range(n):
            v = values[i]
            if type(v) is int:
                shadow[i] = v
                if not -_EXACT_INT <= v <= _EXACT_INT:
                    exact = False
            elif type(v) is float:
                shadow[i] = v
                ints_only = False
            elif v is None:
                shadow[i] = _NAN
                notnull[i] = False
            elif isinstance(v, bool):
                shadow[i] = float(v)
            elif isinstance(v, int):
                shadow[i] = v
                if not -_EXACT_INT <= v <= _EXACT_INT:
                    exact = False
            elif isinstance(v, float):
                shadow[i] = v
                ints_only = False
            else:
                shadow[i] = _NAN
                has_strings = True
                ints_only = False
        self._shadow = shadow
        self._notnull = notnull
        self._has_strings = has_strings
        self._shadow_exact = exact
        self._ints_only = ints_only

    @property
    def notnull(self):
        if self._notnull is None:
            self._build_stats()
        return self._notnull

    @property
    def shadow(self):
        """float64 shadow (NaN = None / non-numeric)."""
        if self._shadow is None:
            self._build_stats()
        return self._shadow

    @property
    def has_strings(self) -> bool:
        if self._has_strings is None:
            self._build_stats()
        return self._has_strings

    @property
    def shadow_exact(self) -> bool:
        if self._shadow_exact is None:
            self._build_stats()
        return self._shadow_exact

    @property
    def ints_only(self) -> bool:
        if self._ints_only is None:
            self._build_stats()
        return self._ints_only

    def tolist(self) -> list:
        return self.values.tolist()

    def _derive(self, gather: Callable) -> "Column":
        """The column ``gather(array)`` of the values and of every cached array.

        Flags are conservative over subsets and repetitions (a subset may
        lose its last string, never gain one), so they carry over as they
        are; derived codes index the same dictionary object.  A numeric
        column's objects stay unbuilt: they follow from the derived shadow.
        """
        values = self._values
        if values is None:
            shadow = gather(self._shadow)
            result = Column(None, len(shadow))
        else:
            result = Column(gather(values))
        if self._shadow is not None:
            result._shadow = shadow if values is None else gather(self._shadow)
        if self._notnull is not None:
            result._notnull = gather(self._notnull)
        if self.codes is not None:
            result.codes = gather(self.codes)
            result.dictionary = self.dictionary
        result._has_strings = self._has_strings
        result._shadow_exact = self._shadow_exact
        result._ints_only = self._ints_only
        return result

    def take(self, indices) -> "Column":
        """Gather by integer indices, propagating cached statistics."""
        return self._derive(_itemgetter(indices))

    def filter(self, mask) -> "Column":
        """Keep rows where the boolean array ``mask`` is True, propagating cached statistics."""
        return self._derive(_itemgetter(mask))

    def repeat(self, count: int) -> "Column":
        """Each value repeated ``count`` times in place (cross-product left side)."""
        return self._derive(lambda array: array.repeat(count))

    def tile(self, count: int) -> "Column":
        """The whole column repeated ``count`` times (cross-product right side)."""
        return self._derive(lambda array: _np.tile(array, count))


# ---------------------------------------------------------------------------
# Comparison kernels
# ---------------------------------------------------------------------------

_PYTHON_RANGE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare_scalar(left: object, op: str, right: object) -> bool:
    """Reference semantics of ``predicates._compare`` (kept in sync)."""
    if left is None or right is None:
        return False
    if op == "=":
        return bool(left == right)
    if op == "!=":
        return bool(left != right)
    try:
        return bool(_PYTHON_RANGE[op](left, right))
    except TypeError:
        return False


def _scalar_numericish(value: object) -> bool:
    return isinstance(value, (int, float))


def _scalar_exact(value: object) -> bool:
    if isinstance(value, int) and not isinstance(value, bool):
        return -_EXACT_INT <= value <= _EXACT_INT
    return True  # floats are exact by definition; strings shadow to NaN


def compare_mask(
    left, op: str, right, n: int, on_decline: Optional[Callable[[], None]] = None
):
    """Boolean mask for ``left op right`` over ``n`` rows.

    ``left``/``right`` are :class:`Column` instances or Python scalars
    (literals).  Semantics match :func:`repro.algebra.predicates._compare`
    element-wise, bit for bit.  ``on_decline`` is called when the mask has
    to be computed element by element in Python.
    """
    left_column = isinstance(left, Column)
    right_column = isinstance(right, Column)
    if not left_column and not right_column:
        return _np.full(n, _compare_scalar(left, op, right), dtype=bool)
    # A None literal fails every row regardless of the operator.
    if (not left_column and left is None) or (not right_column and right is None):
        return _np.zeros(n, dtype=bool)
    if op in ("=", "!="):
        mask = _coded_equality_mask(left, op, right, left_column, right_column)
        if mask is not None:
            return mask
    left_exact = left.shadow_exact if left_column else _scalar_exact(left)
    right_exact = right.shadow_exact if right_column else _scalar_exact(right)
    left_strings = left.has_strings if left_column else not _scalar_numericish(left)
    right_strings = right.has_strings if right_column else not _scalar_numericish(right)
    if left_exact and right_exact and not (left_strings and right_strings):
        return _shadow_mask(left, op, right, left_column, right_column)
    if op in ("=", "!="):
        return _object_equality_mask(left, op, right, left_column, right_column)
    if on_decline is not None:
        on_decline()
    return _python_mask(left, op, right, left_column, right_column, n)


def _coded_equality_mask(left, op, right, left_column, right_column):
    """``=`` / ``!=`` on dictionary codes, or ``None`` when codes cannot answer.

    Codes answer a coded column against a literal, and two columns that
    share a dictionary.  Code −1 (``None``) fails both operators; a literal
    missing from the dictionary — a non-string one included — equals no row
    and differs from every non-``None`` one.
    """
    if left_column and right_column:
        if left.codes is None or left.dictionary is not right.dictionary:
            return None
        a, b = left.codes, right.codes
        if op == "=":
            return (a == b) & (a >= 0)
        return (a != b) & (a >= 0) & (b >= 0)
    column, literal = (left, right) if left_column else (right, left)
    if column.codes is None:
        return None
    code = column.dictionary.get(literal) if isinstance(literal, str) else None
    if code is None:
        return _np.zeros(column.length, dtype=bool) if op == "=" else column.notnull.copy()
    if op == "=":
        return column.codes == code
    return (column.codes != code) & (column.codes >= 0)


def _scalar_shadow(value: object) -> float:
    """The float64 shadow of a literal: numbers as floats, strings as NaN.

    NaN is exactly right for a string literal against a numeric column —
    it never equals or orders against anything, which is the reference
    behaviour (``=`` false, ranges false, ``!=`` true for non-None rows).
    """
    if isinstance(value, (int, float)):
        return float(value)
    return _NAN


def _shadow_mask(left, op, right, left_column, right_column):
    """Vector comparison over float64 shadows (validity checked by caller)."""
    a = left.shadow if left_column else _scalar_shadow(left)
    b = right.shadow if right_column else _scalar_shadow(right)
    if op == "=":
        return a == b  # NaN (None / string shadow) never equals anything.
    if op == "!=":
        mask = a != b  # NaN != x is True, but None operands must fail ...
        if left_column and not left.notnull.all():
            mask = mask & left.notnull  # ... so mask them out explicitly.
        if right_column and not right.notnull.all():
            mask = mask & right.notnull
        # A string operand shadows to NaN: "x != 5" is genuinely True, and
        # notnull keeps it (strings are not None) — matching the reference.
        return mask
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown comparison operator {op!r}")


def _object_equality_mask(left, op, right, left_column, right_column):
    """Element-wise ``=`` / ``!=`` over the original objects (vectorized)."""
    a = left.values if left_column else left
    b = right.values if right_column else right
    if op == "=":
        mask = a == b
    else:
        mask = a != b
    if not isinstance(mask, _np.ndarray):  # scalar-vs-scalar broadcast edge
        mask = _np.full(len(left) if left_column else len(right), bool(mask))
    mask = mask.astype(bool, copy=False)
    # None operands fail the comparison even though None == None in Python.
    if left_column and not left.notnull.all():
        mask = mask & left.notnull
    if right_column and not right.notnull.all():
        mask = mask & right.notnull
    if not left_column and left is None or not right_column and right is None:
        mask = _np.zeros(len(mask), dtype=bool)
    return mask


def _python_mask(left, op: str, right, left_column: bool, right_column: bool, n: int):
    """Per-element fallback with exact ``_compare`` semantics."""
    left_values = left.values if left_column else None
    right_values = right.values if right_column else None
    out = []
    append = out.append
    for i in range(n):
        lv = left_values[i] if left_column else left
        rv = right_values[i] if right_column else right
        append(_compare_scalar(lv, op, rv))
    return _np.array(out, dtype=bool)


def conjunction_mask(conjuncts, table, on_decline: Optional[Callable[[], None]] = None):
    """The mask of a conjunction over ``table``: one :func:`compare_mask` per conjunct.

    ``conjuncts`` holds ``(left, op, right)`` triples whose sides are
    closures over ``table`` returning a :class:`Column` or a scalar.  Stops
    early once no row survives.
    """
    mask = None
    for left, op, right in conjuncts:
        conjunct = compare_mask(left(table), op, right(table), table.length, on_decline)
        mask = conjunct if mask is None else mask & conjunct
        if not mask.any():
            break
    return mask


def sum_columns(parts: Sequence[object], n: int) -> Column:
    """Columnar ``Sum`` term: element-wise sum of columns and scalars.

    Matches ``predicates.Sum.evaluate``: any ``None`` operand makes the row
    ``None``; non-numeric operands raise ``TypeError`` exactly like the row
    path (the Python branch reproduces the raise; the vector branch is only
    taken when no strings are present).
    """
    columns = [p for p in parts if isinstance(p, Column)]
    if not columns:
        total = 0
        for part in parts:
            if part is None:
                return Column.from_values([None] * n)
            total += part  # type: ignore[operator]
        return Column.from_values([total] * n)
    fast = all(c.shadow_exact and not c.has_strings for c in columns)
    if fast:
        total = None
        scalar_total = 0.0
        scalar_none = False
        ints_only = all(c.ints_only for c in columns)
        for part in parts:
            if isinstance(part, Column):
                total = part.shadow if total is None else total + part.shadow
            elif part is None:
                scalar_none = True
            else:
                scalar_total += part
                if not isinstance(part, int):
                    ints_only = False
        if scalar_none:
            return Column.from_values([None] * n)
        if scalar_total:
            total = total + scalar_total
        # Summed magnitudes must stay exactly representable, or the rebuilt
        # ints would silently round — fall to the Python loop instead.
        # (``fmax`` passes over NaN, the None rows.)
        if _np.fmax.reduce(_np.abs(total), initial=0.0) <= _EXACT_INT:
            return Column.numeric(total, ints_only=ints_only)
    values = []
    part_values = [p.values if isinstance(p, Column) else None for p in parts]
    for i in range(n):
        total = 0
        for part, stored in zip(parts, part_values):
            v = stored[i] if stored is not None else part
            if v is None:
                total = None
                break
            total += v  # type: ignore[operator]
        values.append(total)
    return Column.from_values(values)


# ---------------------------------------------------------------------------
# Rank kernels
# ---------------------------------------------------------------------------


def _order_key(column: Column):
    """An array that orders and ties like :func:`sort_key` over the column, or ``None``.

    Codes when the column is coded (code order is string order, and −1 puts
    ``None`` first); otherwise the shadow of an exact, string-free column
    without ``None``.
    """
    if column.codes is not None:
        return column.codes
    if column.shadow_exact and not column.has_strings and column.notnull.all():
        return column.shadow
    return None


def rank_values(
    order_columns: Sequence[Column],
    partition_columns: Sequence[Column],
    n: int,
    on_decline: Optional[Callable[[], None]] = None,
):
    """``RANK() OVER (PARTITION BY ... ORDER BY ...)`` as a list/array of ints.

    Semantics match ``Table.attach_rank``: ranks restart at 1 per distinct
    partition key; ties on the order key share the 1-based sorted position
    within their partition.  Returns Python ints (as an object ndarray) so
    downstream rows stay bit-for-bit identical.
    ``on_decline`` is called when the ranks are computed in Python.
    """
    order_keys = [_order_key(c) for c in order_columns]
    partition_keys = [_order_key(c) for c in partition_columns]
    involved = order_keys + partition_keys
    fast = bool(involved) and all(key is not None for key in involved)
    if fast and n:
        # lexsort's last key is primary: partitions group first, then order keys.
        order = _np.lexsort(tuple(reversed(order_keys)) + tuple(reversed(partition_keys)))

        def _changes(keys):
            changed = _np.zeros(n, dtype=bool)
            changed[0] = True
            for key in keys:
                sorted_key = key[order]
                changed[1:] |= sorted_key[1:] != sorted_key[:-1]
            return changed

        part_change = _changes(partition_keys) if partition_keys else None
        key_change = _changes(involved)
        positions = _np.arange(n)
        if part_change is None:
            part_start = _np.zeros(n, dtype=_np.int64)
        else:
            part_start = _np.maximum.accumulate(_np.where(part_change, positions, 0))
        anchor = _np.maximum.accumulate(_np.where(key_change, positions, 0))
        ranks_sorted = anchor - part_start + 1
        out = _np.empty(n, dtype=_np.int64)
        out[order] = ranks_sorted
        return out.astype(object)
    if not fast and on_decline is not None:
        on_decline()
    return _rank_python(order_columns, partition_columns, n)


def _rank_python(order_columns, partition_columns, n: int):
    """Pure-Python rank identical to ``Table.attach_rank``."""
    order_values = [c.tolist() for c in order_columns]
    part_values = [c.tolist() for c in partition_columns]
    keys = list(zip(*order_values)) if order_values else [()] * n
    groups: dict[tuple, list[int]] = {}
    if part_values:
        part_keys = list(zip(*part_values))
    else:
        part_keys = [()] * n
    for position in range(n):
        groups.setdefault(part_keys[position], []).append(position)
    ranks = [0] * n
    for positions in groups.values():
        order = sorted(positions, key=lambda position: sort_key(keys[position]))
        previous_key = None
        rank = 0
        for sorted_position, row_position in enumerate(order, start=1):
            key = keys[row_position]
            if key != previous_key:
                rank = sorted_position
                previous_key = key
            ranks[row_position] = rank
    out = _np.empty(n, dtype=object)
    out[:] = ranks
    return out


def dense_rank_map(keys: Iterable[tuple]) -> dict:
    """Map each distinct key tuple to its ``DENSE_RANK`` (1-based, gap-free).

    Keys are ordered by :func:`sort_key`; used by the relational engine's
    window-function pass.
    """
    distinct = set(keys)
    return {key: rank for rank, key in enumerate(sorted(distinct, key=sort_key), start=1)}


_NONE_KEY = orderable(None)


class SortedDomain:
    """The distinct values of a column in :func:`orderable` order, as int64 ranks.

    ``None`` ranks 0 and the k-th distinct other value 2k + 2; a value the
    domain does not hold ranks 2k + 1, between its neighbours.  Ranks order
    and tie exactly like :func:`orderable`, so they sort, merge and bisect
    in its place.  A coded column ranks by its codes (a dictionary is in
    string order) and an exact numeric one by one ``searchsorted`` over its
    distinct values; any other column decorates value by value.

    >>> domain, ranks = SortedDomain.of(Column.from_values([3, None, 1, 3]))
    >>> ranks.tolist(), domain.rank_value(2), domain.rank_value("a")
    ([4, 0, 2, 4], 3, 5)
    """

    __slots__ = ("dictionary", "numbers", "_keys")

    @classmethod
    def of(cls, column: Column):
        """``(domain, ranks)``: the domain of ``column``'s values and each value's rank."""
        domain = cls.__new__(cls)
        domain.dictionary = domain.numbers = domain._keys = None
        if column.codes is not None:
            domain.dictionary = column.dictionary
            domain.numbers = _np.empty(0)  # every number sorts before every string
            return domain, 2 * column.codes + 2
        if not column.has_strings and column.shadow_exact:
            domain.numbers = _np.unique(column.shadow[column.notnull])
            return domain, domain.rank(column)
        keys = list(map(orderable, column.tolist()))
        domain._keys = sorted(set(keys) - {_NONE_KEY})
        rank_of = {key: 2 * k + 2 for k, key in enumerate(domain._keys)}
        rank_of[_NONE_KEY] = 0
        return domain, _np.fromiter(map(rank_of.__getitem__, keys), _np.int64, len(keys))

    def __len__(self) -> int:
        if self.dictionary is not None:
            return len(self.dictionary)
        return len(self.numbers) if self.numbers is not None else len(self._keys)

    def rank(self, column: Column):
        """The rank of each of ``column``'s values (an int64 array)."""
        if column.codes is not None and column.dictionary is self.dictionary:
            return 2 * column.codes + 2
        numbers = self.numbers
        if numbers is not None and not column.has_strings and column.shadow_exact:
            # before + after + 1: 2k + 2 when k values lie before and one equals, else 2k + 1.
            shadow = column.shadow
            ranks = numbers.searchsorted(shadow, "left") + numbers.searchsorted(shadow, "right")
            return (ranks + 1) * column.notnull  # None shadows to NaN, past every number
        return _np.fromiter(map(self.rank_value, column.tolist()), _np.int64, column.length)

    def rank_value(self, value: object) -> int:
        """The rank of one value."""
        if value is None:
            return 0
        if self.dictionary is not None and isinstance(value, str):
            code = self.dictionary.get(value)
            if code is not None:
                return 2 * code + 2
        if self._keys is None:  # an idempotent fill: racing readers build equal lists
            self._keys = (
                [(2, text) for text in self.dictionary]
                if self.dictionary is not None
                else [(1, number) for number in self.numbers.tolist()]
            )
        key = orderable(value)
        at = bisect.bisect_left(self._keys, key)
        return 2 * at + 2 if at < len(self._keys) and self._keys[at] == key else 2 * at + 1


def order_array(column: Column):
    """An array that orders and ties like :func:`orderable` over ``column``, for ``lexsort``."""
    key = _order_key(column)
    return SortedDomain.of(column)[1] if key is None else key


def _join_keys(probe: Column, build: Column, integral: bool):
    """The arrays to merge ``probe`` and ``build`` on, or ``None``.

    Codes when both share a dictionary.  Otherwise the shadows, when their
    equality is Python ``dict`` key equality: no strings (they shadow to
    NaN), exact (no ints beyond 2**53) and no ``None`` (``None`` keys
    *match* in the row path's buckets, but NaN never equals itself).
    ``integral`` asks for int64 arrays, which packing needs: the shadows
    must then be of ints only.
    """
    if probe.codes is not None or build.codes is not None:
        return (probe.codes, build.codes) if probe.dictionary is build.dictionary else None
    if probe.has_strings or build.has_strings:
        return None
    if not (probe.shadow_exact and build.shadow_exact):
        return None
    if not (probe.notnull.all() and build.notnull.all()):
        return None
    if not integral:
        return probe.shadow, build.shadow
    if not (probe.ints_only and build.ints_only):
        return None
    return probe.shadow.astype(_np.int64), build.shadow.astype(_np.int64)


def _pack(pairs: Sequence[tuple]):
    """Mixed-radix packing of several int64 ``(probe, build)`` key pairs into one.

    Each key's offset and radix span both sides, so the packed keys compare
    like the key tuples.  ``None`` when the product of the radices does not
    fit in int64.
    """
    probe_key = build_key = 0
    span = 1
    for probe, build in pairs:
        present = [array for array in (probe, build) if len(array)]
        low = min((int(array.min()) for array in present), default=0)
        radix = max((int(array.max()) for array in present), default=0) - low + 1
        span *= radix
        if span >= 2 ** 63:
            return None
        probe_key = probe_key * radix + (probe - low)
        build_key = build_key * radix + (build - low)
    return probe_key, build_key


def equi_join_indices(probe: Sequence[Column], build: Sequence[Column]):
    """Vectorized equi-join on key columns: ``(probe_idx, build_idx)`` or ``None``.

    ``probe[i] = build[i]`` for every ``i``.  One key merges on its codes or
    shadows; several are first packed into one int64 key (:func:`_pack`).
    Sort-merge: stable argsort of the build key, a ``searchsorted`` pair per
    probe row, then a flat-index gather.  Output is probe-major with each
    probe row's matches in original build order (the stable sort keeps
    equal keys in scan order), exactly the bucket order of the hash row
    path.  Declines (``None``) whenever a key's equality could diverge from
    Python ``dict`` key equality (:func:`_join_keys`) or the packed key
    would overflow.
    """
    integral = len(probe) > 1
    pairs = [_join_keys(p, b, integral) for p, b in zip(probe, build)]
    if any(pair is None for pair in pairs):
        return None
    if integral:
        packed = _pack(pairs)
        if packed is None:
            return None
        probe_key, build_key = packed
    else:
        probe_key, build_key = pairs[0]
    build_order = _np.argsort(build_key, kind="stable")
    sorted_build = build_key[build_order]
    low = _np.searchsorted(sorted_build, probe_key, side="left")
    high = _np.searchsorted(sorted_build, probe_key, side="right")
    counts = high - low
    total = int(counts.sum())
    if total == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    starts = _np.cumsum(counts) - counts
    flat = (
        _np.arange(total, dtype=_np.int64) - _np.repeat(starts, counts) + _np.repeat(low, counts)
    )
    probe_indices = _np.repeat(_np.arange(len(probe_key), dtype=_np.int64), counts)
    return probe_indices, build_order[flat]


def bucket_join_indices(
    probe: Sequence[object],
    build: Sequence[object],
    probe_length: int,
    build_length: int,
    check: Optional[Callable[[], None]] = None,
):
    """The Python-bucket equi-join that :func:`equi_join_indices` declines to.

    Keys are Columns or scalars (a constant key term); rows match when their
    key tuples are equal ``dict`` keys, so ``None`` meets ``None``.  Same
    output order as :func:`equi_join_indices`.  ``check`` (a deadline) is
    called every 16 384 probe rows.
    """

    def keys(parts, n):
        lists = [part.tolist() if isinstance(part, Column) else [part] * n for part in parts]
        return lists[0] if len(lists) == 1 else list(zip(*lists))

    buckets: dict = {}
    for position, key in enumerate(keys(build, build_length)):
        buckets.setdefault(key, []).append(position)
    probe_indices: list[int] = []
    build_indices: list[int] = []
    for position, key in enumerate(keys(probe, probe_length)):
        if check is not None and not position & 0x3FFF:
            check()
        matches = buckets.get(key)
        if matches:
            probe_indices += [position] * len(matches)
            build_indices += matches
    count = len(probe_indices)
    return (
        _np.fromiter(probe_indices, dtype=_np.int64, count=count),
        _np.fromiter(build_indices, dtype=_np.int64, count=count),
    )


def first_occurrences(columns: Sequence[Column], n: int) -> Optional[list]:
    """Ascending positions of each distinct row's first occurrence; ``None`` if none repeats.

    Rows are equal as Python tuples are, which is ``Table.distinct``'s test.
    """
    rows = list(zip(*(column.tolist() for column in columns))) if columns else [()] * n
    # Keys keep their first insertion, values their last assignment — which,
    # inserting in reverse, is each row's first position.
    first_of = dict(zip(reversed(rows), range(n - 1, -1, -1)))
    if len(first_of) == n:
        return None
    return sorted(first_of.values())


# ---------------------------------------------------------------------------
# Columnar tables
# ---------------------------------------------------------------------------


class ColumnarTable:
    """Column-major twin of :class:`repro.algebra.table.Table`.

    Shares column *objects* across derived tables (projection is O(width));
    conversion back to a row :class:`Table` restores the exact Python objects
    that entered, so row/columnar execution is bit-for-bit interchangeable.
    """

    __slots__ = ("columns", "cols", "length", "_index_of")

    def __init__(self, columns: Sequence[str], cols: Sequence[Column], length: int):
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            from repro.errors import AlgebraError

            raise AlgebraError(f"duplicate column names in table schema {self.columns}")
        self.cols: tuple[Column, ...] = tuple(cols)
        self.length = length
        self._index_of = {name: index for index, name in enumerate(self.columns)}

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarTable(columns={self.columns}, rows={self.length})"

    @classmethod
    def from_rows(cls, columns: Sequence[str], rows: Sequence[tuple]) -> "ColumnarTable":
        columns = tuple(columns)
        n = len(rows)
        if n == 0:
            data: Sequence[Sequence[object]] = [[] for _ in columns]
        else:
            data = list(zip(*rows))
        return cls(columns, [Column.from_values(values) for values in data], n)

    @classmethod
    def from_table(cls, table) -> "ColumnarTable":
        return cls.from_rows(table.columns, table.rows)

    def to_table(self):
        from repro.algebra.table import Table

        if self.length == 0:
            return Table.unchecked(self.columns, [])
        return Table.unchecked(self.columns, list(zip(*(c.tolist() for c in self.cols))))

    def column_index(self, name: str) -> int:
        from repro.errors import AlgebraError

        try:
            return self._index_of[name]
        except KeyError:
            raise AlgebraError(f"unknown column {name!r}; schema is {self.columns}") from None

    def col(self, name: str) -> Column:
        return self.cols[self.column_index(name)]

    def iter_rows(self) -> Iterator[tuple]:
        return zip(*(c.tolist() for c in self.cols)) if self.cols else iter(())

    def project(self, items: Sequence[tuple[str, str]]) -> "ColumnarTable":
        """Project/rename sharing the underlying columns (O(width))."""
        return ColumnarTable(
            [new for new, _old in items],
            [self.cols[self.column_index(old)] for _new, old in items],
            self.length,
        )

    def take(self, indices) -> "ColumnarTable":
        count = len(indices)
        return ColumnarTable(self.columns, [c.take(indices) for c in self.cols], count)

    def filter(self, mask) -> "ColumnarTable":
        count = int(mask.sum())
        if count == self.length:
            return self
        return ColumnarTable(self.columns, [c.filter(mask) for c in self.cols], count)

    def with_column(self, name: str, column: Column) -> "ColumnarTable":
        from repro.errors import AlgebraError

        if name in self._index_of:
            raise AlgebraError(f"attach: column {name!r} already exists")
        return ColumnarTable(self.columns + (name,), self.cols + (column,), self.length)
