"""Columnar storage and vectorized kernels for the execution core.

The paper's argument is that set-oriented relational evaluation beats
node-at-a-time navigation — yet a row-tuple interpreter still pays Python
dispatch per row.  This module supplies the columnar counterpart of
:class:`repro.algebra.table.Table`: one array per column, boolean masks for
selections, and batch kernels (comparison masks, rank/dense-rank, blocked
join runs, first occurrences) that the interpreted engines and the B-tree
engine call instead of per-row closures.

Every kernel reads one encoding.  A column keeps its exact Python objects in
a NumPy object ``ndarray`` and, built once, a :class:`SortedDomain` — its
distinct values in :func:`orderable` order — plus one int64 **rank** per
row: ``None`` ranks 0, the k-th value of the domain 2k + 2, and a value the
domain lacks the odd rank between its neighbours.  Numbers come first, then
one NaN slot, then strings, so a rank also tells its value's class.  A
column derived by ``take``/``filter`` is a *view*: row positions into its
base column, fetching the base's ranks (keeping its domain) or objects
only when read, so operators that move rows gather positions, not
objects.  Any other value is *re-ranked* into a domain
(:meth:`SortedDomain.rank`).  Ranks order and tie exactly as
:func:`orderable` and Python equality do, so:

* a comparison is one comparison of ranks, masked where a side is ``None``
  and, for ``<``/``<=``/``>``/``>=``, where the classes differ or a side is
  NaN — :func:`repro.algebra.predicates._compare` bit for bit (NaN fails
  every test but ``!=``);
* an equi-join merges ranks, and rank 0 meets rank 0 exactly as a ``None``
  key meets ``None`` in a hash bucket;
* ``order by``, RANK and DISTINCT sort or deduplicate ranks.

>>> column = Column.from_values(["b", None, "a", 2])
>>> column.publish()
>>> column.ranks.tolist()
[8, 0, 6, 2]
>>> compare_mask(column, "<", "b", 4).tolist()
[False, False, True, False]
>>> compare_mask(column, "!=", "zebra", 4).tolist()
[True, False, True, True]
>>> view = column.take([2, 0, 2])
>>> view.ranks.tolist(), view.domain is column.domain, view.tolist()
([6, 8, 6], True, ['a', 'b', 'a'])
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, Sequence

import numpy as _np

from repro.algebra.predicates import FLIPPED_OP, _compare
from repro.errors import AlgebraError

#: Largest magnitude for which every int is exactly representable in float64.
_EXACT_INT = 2 ** 53

_NAN = float("nan")

_NUMBER_TYPES = frozenset((int, float, bool))


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
    ``Table.attach_rank``), the B-tree reference and the rank order of
    :class:`SortedDomain`.
    """
    return tuple(map(orderable, values))


def _objects(values: Sequence[object]):
    """An object ndarray holding exactly the objects ``values``."""
    array = _np.empty(len(values), dtype=object)
    array[:] = values
    return array


# ---------------------------------------------------------------------------
# Sorted domains: the one value encoding
# ---------------------------------------------------------------------------


def _between(ordered, values):
    """Per value, 2k + 2 if it equals ``ordered[k]``, else 2k + 1 with k entries below it.

    A NaN value gets 0.  Two float64 arrays search as floats; any other
    pair as Python objects, whose int/float comparisons are exact.  NaN is
    kept out of an object search: its bisection assumes a total order.
    """
    present = values == values
    if ordered.dtype != _np.float64 or values.dtype != _np.float64:
        ordered, values = ordered.astype(object), _np.where(present, values, 0).astype(object)
    at = ordered.searchsorted(values)
    if not len(ordered):
        return (at * 2 + 1) * present
    return (at * 2 + 1 + (ordered[_np.minimum(at, len(ordered) - 1)] == values)) * present


def _numbers(present):
    """``(numbers, ranks)``: the sorted distinct numbers of an object array, and each one's rank.

    float64 holds the domain when every value is exact in it (only ints at
    or beyond ±2**53 are checked one by one); otherwise the Python numbers
    do.  NaN is left out of ``numbers`` and takes the NaN slot's rank.
    """
    floats = present.astype(_np.float64)
    nan = floats != floats
    big = present[_np.abs(floats) >= _EXACT_INT].tolist()
    if all(type(v) is not int or -_EXACT_INT <= v <= _EXACT_INT for v in big):
        numbers = _np.unique(floats[~nan])
        ranks = _between(numbers, floats)
    else:
        numbers = _objects(sorted(set(present[~nan].tolist())))
        ranks = _between(numbers, present)
    ranks[nan] = 2 * len(numbers) + 2
    return numbers, ranks


class SortedDomain:
    """The distinct values of a column in :func:`orderable` order, and their int64 ranks.

    ``numbers`` holds the distinct numbers (float64 when all are exact in
    float64, else Python numbers) and ``strings`` the distinct strings, both
    ascending.  The domain's values are the numbers, one NaN slot, then the
    strings: ``None`` ranks 0, the k-th value 2k + 2 and an absent value the
    odd rank between its neighbours.  So NaN ranks :attr:`nan_rank`, every
    number below it and every string above it, and ranks sort, merge and
    bisect in place of :func:`orderable`.  ``integral`` is True when every
    number is an int (or a bool), which keeps sums ints.

    >>> domain, ranks = SortedDomain.of(Column.from_values([3, None, 1, 3]).values)
    >>> ranks.tolist(), domain.rank_value(2), domain.nan_rank, domain.rank_value("a")
    ([4, 0, 2, 4], 3, 6, 7)
    """

    __slots__ = (
        "numbers", "strings", "integral", "dense", "nan_rank", "has_nan",
        "_lists", "_floats", "_mapped",
    )

    def __init__(self, numbers, strings, integral: bool):
        self.numbers = numbers
        self.strings = strings
        self.integral = integral
        #: The numbers are consecutive ints.
        self.dense = integral and len(numbers) and numbers[-1] - numbers[0] == len(numbers) - 1
        self.nan_rank = 2 * len(numbers) + 2
        #: Some value is NaN (it holds the NaN slot).
        self.has_nan = False
        self._lists = self._floats = self._mapped = None

    @classmethod
    def of(cls, values):
        """``(domain, ranks)`` of an object ndarray of values."""
        kinds = set(map(type, values)) - {type(None)}
        notnull = values != None  # noqa: E711 - element-wise
        if kinds <= _NUMBER_TYPES:
            is_number = notnull
        elif kinds.isdisjoint(_NUMBER_TYPES):
            is_number = _np.zeros(len(values), dtype=bool)
        else:
            is_number = _np.fromiter(
                (isinstance(v, (int, float)) for v in values), dtype=bool, count=len(values)
            )
        numbers, number_ranks = _numbers(values[is_number])
        is_string = notnull & ~is_number
        present = values[is_string].tolist()
        strings = sorted(set(present))
        domain = cls(numbers, _objects(strings), float not in kinds)
        domain.has_nan = bool((number_ranks == domain.nan_rank).any())
        index = {text: domain.nan_rank + 2 * k + 2 for k, text in enumerate(strings)}
        ranks = _np.zeros(len(values), dtype=_np.int64)
        ranks[is_number] = number_ranks
        ranks[is_string] = _np.fromiter(map(index.__getitem__, present), _np.int64, len(present))
        return domain, ranks

    @classmethod
    def of_floats(cls, floats, integral: bool):
        """``(domain, ranks)`` of float64 values, NaN standing for ``None``."""
        domain = cls(_np.unique(floats[floats == floats]), _objects(()), integral)
        return domain, domain._rank_numbers(floats, integral)

    def __len__(self) -> int:
        return len(self.numbers) + 1 + len(self.strings)

    def rank(self, value):
        """The rank of a scalar, or the int64 ranks of a :class:`Column`'s values, here."""
        if not isinstance(value, Column):
            return self.rank_value(value)
        if not value.ranked and value._numbers() is not None:  # an unranked sum
            return self._rank_numbers(value._floats, value._integral)
        other, ranks = value.domain, value.ranks
        if other is self:
            return ranks
        if len(ranks) < len(other):  # fewer rows than values: search the rows' values
            return self._translate(other, ranks)
        return self._map(other)[ranks >> 1]

    def _translate(self, other: "SortedDomain", ranks):
        """``other``'s (even) ``ranks`` as ranks in this domain."""
        at = (ranks >> 1) - 1  # the index among other's values: numbers, NaN, strings
        count = len(other.numbers)
        number, string = (ranks != 0) & (at < count), at > count
        out = _np.where(at == count, self.nan_rank, 0)
        out[number] = self._rank_numbers(other.numbers[at[number]], other.integral)
        out[string] = self.nan_rank + _between(self.strings, other.strings[at[string] - count - 1])
        return out

    def _rank_numbers(self, values, integral: bool = False):
        """The ranks of an array of numbers in this domain; a float64 NaN ranks as ``None``.

        ``integral`` floats rank by arithmetic in a domain of consecutive
        ints (a ``pre`` column's); any other values by search (:func:`_between`).
        """
        numbers = self.numbers
        if integral and self.dense and values.dtype == numbers.dtype == _np.float64:
            ranks = (values - float(numbers[0])) * 2 + 2  # exact while near the domain
            _np.maximum(ranks, 1, out=ranks)  # past either end: the odd rank beyond it
            _np.minimum(ranks, self.nan_rank - 1, out=ranks)
            ranks[values != values] = 0  # NaN: None
            return ranks.astype(_np.int64)
        return _between(numbers, values)

    def _map(self, other: "SortedDomain"):
        """This domain's rank of each of ``other``'s values, indexed by ``other``'s rank // 2.

        The last mapping is kept: a blocked join's residual maps one pair
        of domains once per block.
        """
        cached = self._mapped
        if cached is not None and cached[0] is other:
            return cached[1]
        mapping = self._translate(other, 2 * _np.arange(len(other) + 1))
        self._mapped = (other, mapping)  # an idempotent fill, like every cache here
        return mapping

    def rank_value(self, value: object) -> int:
        """The rank of one value."""
        if value is None:
            return 0
        if self._lists is None:
            self._lists = (self.numbers.tolist(), self.strings.tolist())
        numbers, strings = self._lists
        if isinstance(value, (int, float)):
            if value != value:
                return self.nan_rank
            return bisect.bisect_left(numbers, value) + bisect.bisect_right(numbers, value) + 1
        at = bisect.bisect_left(strings, value) + bisect.bisect_right(strings, value) + 1
        return self.nan_rank + at

    def floats(self):
        """float64 values indexed by rank: NaN for ``None``, the NaN slot and odd ranks."""
        if self._floats is None:
            floats = _np.full(self.nan_rank + 1, _NAN)
            floats[2 : self.nan_rank : 2] = self.numbers
            self._floats = floats
        return self._floats


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------


class Column:
    """One table column: its exact Python objects, and the ranks every kernel reads.

    A *base* column owns its arrays: ``values`` is an object ndarray, and
    ``domain`` and ``ranks`` are built on first read — by :meth:`publish`
    for a base table's column.  A :meth:`numeric` base (a sum, a row id, a
    rank) holds float64 values instead, for the arithmetic of
    :func:`sum_columns`, and builds its objects on first read.

    A *view* — what :meth:`take` and :meth:`filter` return — is a base
    column plus an int64 vector of row positions into it, and nothing else:
    it fetches its ranks, floats or objects from the base on their first
    read, so an operator that only moves rows gathers one position vector,
    not every column's objects.  A view of a view indexes the base
    directly.
    """

    __slots__ = (
        "length", "_base", "_positions", "_values", "_floats", "_integral", "_domain", "_ranks"
    )

    def __init__(self, values, length: Optional[int] = None):
        self._values = values
        self.length = len(values) if length is None else length
        self._base = self._positions = self._domain = self._ranks = self._floats = None
        self._integral = False

    def __len__(self) -> int:
        return self.length

    @property
    def values(self):
        """The object ndarray; a numeric column or a view builds it on first read."""
        values = self._values
        if values is None:  # an idempotent fill: racing readers build equal arrays
            floats = self._numbers()
            if floats is None:
                values = self._base.values[self._positions]
            else:
                notnull = floats == floats
                if self._integral:
                    values = _np.where(notnull, floats, 0.0).astype(_np.int64).astype(object)
                else:
                    values = floats.astype(object)
                values[~notnull] = None
            self._values = values
        return values

    def _numbers(self):
        """A numeric column's float64 values (a view gathers its base's), else ``None``."""
        floats = self._floats
        if floats is None and self._base is not None and self._base._floats is not None:
            floats = self._floats = self._base._floats[self._positions]
        return floats

    @classmethod
    def from_values(cls, values: Sequence[object]) -> "Column":
        """Build a column holding exactly the objects ``values``."""
        return cls(_objects(values))

    @classmethod
    def numeric(cls, floats, integral: bool = False) -> "Column":
        """A numeric column of float64 values (NaN = ``None``).

        Its objects are exact: NaN rows become ``None`` (never a float
        ``nan`` object), and with ``integral`` the values are Python ints —
        so a vectorized sum of int columns is bit-for-bit the int the row
        path would have produced.
        """
        column = cls(None, len(floats))  # the objects wait for their first reader
        column._floats = _np.asarray(floats, dtype=_np.float64)
        column._integral = integral
        return column

    @classmethod
    def constant(cls, value: object, n: int) -> "Column":
        """A column holding ``value`` in every row (the Attach operator): a view of one value."""
        return cls.from_values([value]).take(_np.zeros(n, dtype=_np.int64))

    def publish(self) -> None:
        """Build the domain and the ranks now, if they are not built yet.

        A view gathers its base's ranks and shares its domain, ranking the
        base first if need be.  :meth:`Table.columnar` calls this on a base
        table's columns before it shares them; no lazy property writes to a
        published base column afterwards, so threads may read it without a
        lock.
        """
        if self._domain is not None:
            return
        base = self._base
        if base is not None:
            base.publish()
            self._ranks = base._ranks[self._positions]
            self._domain = base._domain
            return
        if self._floats is not None:
            domain, ranks = SortedDomain.of_floats(self._floats, self._integral)
        else:
            domain, ranks = SortedDomain.of(self.values)
        self._ranks = ranks  # before the domain: a set domain implies set ranks
        self._domain = domain

    @property
    def ranked(self) -> bool:
        """Whether the ranks are built, or a view can gather them from its base."""
        base = self._base
        return self._domain is not None or (base is not None and base._domain is not None)

    @property
    def domain(self) -> SortedDomain:
        self.publish()
        return self._domain

    @property
    def ranks(self):
        """int64 rank of each value in :attr:`domain`."""
        self.publish()
        return self._ranks

    @property
    def notnull(self):
        """Boolean mask, True where the value is not ``None``."""
        if not self.ranked and self._numbers() is not None:
            return self._floats == self._floats
        return self.ranks != 0

    def float_values(self):
        """``(float64 values, integral, magnitude bound)``, NaN for ``None``.

        ``None`` unless all values are exact numbers; a NaN value is not one
        (here NaN stands for ``None``).
        """
        floats = self._numbers()
        if floats is not None:
            return floats, self._integral, float(_np.fmax.reduce(_np.abs(floats), initial=0.0))
        domain = self.domain
        if domain.numbers.dtype != _np.float64 or len(domain.strings) or domain.has_nan:
            return None
        numbers = domain.numbers  # ascending: the ends hold the largest magnitude
        bound = float(max(-numbers[0], numbers[-1])) if len(numbers) else 0.0
        return domain.floats()[self.ranks], domain.integral, bound

    def tolist(self) -> list:
        return self.values.tolist()

    def take(self, indices) -> "Column":
        """A view of the rows at integer ``indices``; nothing is gathered but positions."""
        indices = _np.asarray(indices, dtype=_np.int64)
        if self._base is None:
            return self._view(self, indices)
        return self._view(self._base, self._positions[indices])

    def filter(self, mask) -> "Column":
        """A view of the rows where the boolean array ``mask`` is True."""
        return self.take(_np.flatnonzero(mask))

    @staticmethod
    def _view(base: "Column", positions) -> "Column":
        view = Column.__new__(Column)
        view.length = len(positions)
        view._base, view._positions, view._integral = base, positions, base._integral
        view._values = view._floats = view._domain = view._ranks = None
        return view


# ---------------------------------------------------------------------------
# Comparison and arithmetic kernels
# ---------------------------------------------------------------------------

_RANGE = {"<": _np.less, "<=": _np.less_equal, ">": _np.greater, ">=": _np.greater_equal}


def compare_mask(left, op: str, right, n: int):
    """Boolean mask for ``left op right`` over ``n`` rows.

    ``left``/``right`` are :class:`Column` instances or Python scalars
    (literals).  One column's ranks meet the other side re-ranked into its
    domain; semantics match :func:`repro.algebra.predicates._compare`
    element-wise, bit for bit.
    """
    if not isinstance(left, Column):
        if not isinstance(right, Column):
            return _np.full(n, _compare(left, op, right), dtype=bool)
        left, op, right = right, FLIPPED_OP[op], left
    elif isinstance(right, Column) and not left.ranked and right.ranked:
        left, op, right = right, FLIPPED_OP[op], left  # re-rank the unranked side
    domain = left.domain
    a, b, nan = left.ranks, domain.rank(right), domain.nan_rank
    if op == "=":
        return (a == b) & ((b != 0) & (b != nan))  # equal ranks: one side's test serves both
    if op == "!=":
        return (a != 0) & (b != 0) & ((a != b) | (a == nan))
    # The lower side must not be None, and both sides must be numbers (below
    # the NaN slot) or both strings (above it): that fails NaN, too.
    low, high = (a, b) if op in ("<", "<=") else (b, a)
    return _RANGE[op](a, b) & (low > 0) & ((high < nan) | (low > nan))


def conjunction_mask(conjuncts, table):
    """The mask of a conjunction over ``table``: one :func:`compare_mask` per conjunct.

    ``conjuncts`` holds ``(left, op, right)`` triples whose sides are
    closures over ``table`` returning a :class:`Column` or a scalar.  Stops
    early once no row survives.
    """
    mask = None
    for left, op, right in conjuncts:
        conjunct = compare_mask(left(table), op, right(table), table.length)
        mask = conjunct if mask is None else mask & conjunct
        if not mask.any():
            break
    return mask


def sum_columns(parts: Sequence[object], n: int) -> Column:
    """Columnar ``Sum`` term: element-wise sum of columns and scalars.

    Matches ``predicates.Sum.evaluate``: any ``None`` operand makes the row
    ``None``, and non-numeric operands raise ``TypeError`` like the row
    path.  Numbers exact in float64 add as float64, in the parts' order,
    when their magnitude bounds sum below 2**53: every partial sum of ints
    is then exact, and floats round as the row path's do.  Any other sum
    adds the Python objects.
    """
    if any(part is None for part in parts):
        return Column.constant(None, n)
    columns = [part for part in parts if isinstance(part, Column)]
    if not columns:
        return Column.constant(sum(parts), n)
    addends = [_addend(part) for part in parts]
    if all(addends) and sum(bound for _values, _integral, bound in addends) < _EXACT_INT:
        total = 0.0
        for values, _integral, _bound in addends:
            total = total + values
        return Column.numeric(total, all(integral for _values, integral, _bound in addends))
    notnull = _np.logical_and.reduce([column.notnull for column in columns])
    total = 0
    for part in parts:
        total = total + (_np.where(notnull, part.values, 0) if isinstance(part, Column) else part)
    total[~notnull] = None
    return Column(total)


def _addend(part):
    """A sum operand as ``(float64 values or number, integral, bound)``; ``None`` if not exact."""
    if isinstance(part, Column):
        return part.float_values()
    if isinstance(part, (int, float)) and abs(part) < _EXACT_INT:
        return part, isinstance(part, int), abs(part)
    return None


# ---------------------------------------------------------------------------
# Rank, join and duplicate-elimination kernels
# ---------------------------------------------------------------------------


def rank_values(
    order_columns: Sequence[Column],
    partition_columns: Sequence[Column],
    n: int,
    dense: bool = False,
):
    """``RANK() OVER (PARTITION BY ... ORDER BY ...)`` as an int64 array.

    Semantics match ``Table.attach_rank``: ranks restart at 1 per distinct
    partition key; ties on the order key share the 1-based sorted position
    within their partition.  With ``dense``, ``DENSE_RANK()``: the count of
    distinct order keys up to the row's.  One ``lexsort`` over the ranks.
    """
    partition = [column.ranks for column in partition_columns]
    keys = partition + [column.ranks for column in order_columns]
    # lexsort's last key is primary: partitions group first, then order keys.
    order = _np.lexsort(keys[::-1]) if keys else _np.arange(n)

    def changes(arrays):
        changed = _np.zeros(n, dtype=bool)
        changed[:1] = True
        for array in arrays:
            ordered = array[order]
            changed[1:] |= ordered[1:] != ordered[:-1]
        return changed

    key_change = changes(keys)
    counter = _np.cumsum(key_change) if dense else _np.arange(n)
    anchor = _np.maximum.accumulate(_np.where(key_change, counter, 0))
    start = _np.maximum.accumulate(_np.where(changes(partition), counter, 0))
    out = _np.empty(n, dtype=_np.int64)
    out[order] = anchor - start + 1
    return out


def _pack(keys: Sequence):
    """One int64 key per row, equal exactly where every key of ``keys`` is equal.

    Mixed radix over non-negative ranks; where the next radix would
    overflow int64, the keys so far are first re-densified to 0 .. d − 1.
    """
    packed = keys[0]
    for key in keys[1:]:
        radix = int(key.max(initial=0)) + 1
        if (int(packed.max(initial=0)) + 1) * radix >= 2 ** 63:
            packed = _np.unique(packed, return_inverse=True)[1]
        packed = packed * radix + key
    return packed


#: Candidate pairs one block of a join materialises at most.
JOIN_BLOCK_PAIRS = 1 << 16


def join_runs(low, counts, run, check=None, keep=None):
    """Every join's pairs: probe row ``i`` meets ``run[low[i] : low[i] + counts[i]]``.

    Returns ``(probe_idx, build_idx)``, probe-major with each run in order.
    The candidate pairs are made in blocks of at most
    :data:`JOIN_BLOCK_PAIRS`; ``check()`` runs before each block and the
    residual mask ``keep(probe_idx, build_idx)`` after it, so a join holds
    its survivors plus one block.

    >>> probe, build = join_runs([0, 2, 1], [2, 0, 3], [7, 8, 9, 10])
    >>> probe.tolist(), build.tolist()
    ([0, 0, 2, 2, 2], [7, 8, 8, 9, 10])
    >>> probe, build = join_runs([0, 2, 1], [2, 0, 3], [7, 8, 9, 10], keep=lambda p, b: b % 2 == 0)
    >>> probe.tolist(), build.tolist()
    ([0, 2, 2], [8, 8, 10])
    """
    low = _np.asarray(low, dtype=_np.int64)
    counts = _np.asarray(counts, dtype=_np.int64)
    run = _np.asarray(run, dtype=_np.int64)
    ends = _np.add.accumulate(counts)
    total = int(ends[-1]) if len(ends) else 0
    shift = low - ends + counts  # pair p, of probe row i, is run slot p + shift[i]
    probes, builds = [], []
    for start in range(0, total, JOIN_BLOCK_PAIRS):
        if check is not None:
            check()
        stop = min(start + JOIN_BLOCK_PAIRS, total)
        first, last, block = 0, len(counts), counts
        if stop - start < total:  # one of several blocks: clip its first and last rows
            first = ends.searchsorted(start, "right")
            last = ends.searchsorted(stop - 1, "right") + 1
            starts = ends[first:last] - counts[first:last]
            block = _np.minimum(ends[first:last], stop) - _np.maximum(starts, start)
        probe = _np.arange(first, last).repeat(block)
        build = run[_np.arange(start, stop) + shift[first:last].repeat(block)]
        if keep is not None:
            mask = keep(probe, build)
            if not mask.all():
                probe, build = probe[mask], build[mask]
        probes.append(probe)
        builds.append(build)
    if len(probes) == 1:
        return probes[0], builds[0]
    if not probes:
        return _np.empty(0, dtype=_np.int64), _np.empty(0, dtype=_np.int64)
    return _np.concatenate(probes), _np.concatenate(builds)


def equi_join_indices(probe: Sequence[Column], build: Sequence[Column], check=None, keep=None):
    """Equi-join on key columns: ``(probe_idx, build_idx)`` where every ``probe[i] = build[i]``.

    Each probe key is re-ranked into its build key's domain and several
    keys are packed into one (:func:`_pack`), so rows match exactly when
    their key tuples are equal ``dict`` keys.  Sort-merge: stable argsort of
    the build key, a ``searchsorted`` pair per probe row, then
    :func:`join_runs` (with ``check`` and ``keep``) over the sorted build
    rows.  Output is probe-major with each probe row's matches in original
    build order (the stable sort keeps equal keys in scan order), exactly
    the bucket order of a hash join.
    """
    split = probe[0].length
    key = _pack([_np.concatenate((b.domain.rank(p), b.ranks)) for p, b in zip(probe, build)])
    probe_key, build_key = key[:split], key[split:]
    build_order = _np.argsort(build_key, kind="stable")
    sorted_build = build_key[build_order]
    low = _np.searchsorted(sorted_build, probe_key, side="left")
    counts = _np.searchsorted(sorted_build, probe_key, side="right") - low
    return join_runs(low, counts, build_order, check, keep)


def first_occurrences(columns: Sequence[Column], n: int):
    """Ascending positions of each distinct row's first occurrence; ``None`` if none repeats.

    Rows are equal as Python tuples are, which is ``Table.distinct``'s test:
    one ``np.unique`` over the packed ranks.
    """
    if not columns:
        return None if n < 2 else _np.zeros(1, dtype=_np.int64)
    first = _np.unique(_pack([column.ranks for column in columns]), return_index=True)[1]
    return None if len(first) == n else _np.sort(first)


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
        """The rows at ``indices``: one gather per position vector the columns view."""
        indices = _np.asarray(indices, dtype=_np.int64)
        gathered: dict = {}  # id(positions) -> positions[indices]
        cols = []
        for c in self.cols:
            if c._base is None:
                cols.append(Column._view(c, indices))
                continue
            key = id(c._positions)
            if key not in gathered:
                gathered[key] = c._positions[indices]
            cols.append(Column._view(c._base, gathered[key]))
        return ColumnarTable(self.columns, cols, len(indices))

    def filter(self, mask) -> "ColumnarTable":
        indices = _np.flatnonzero(mask)
        return self if len(indices) == self.length else self.take(indices)

    def cross(self, other: "ColumnarTable") -> "ColumnarTable":
        """Every row of this table paired with every row of ``other``, left-major."""
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise AlgebraError(f"cross product with overlapping columns {sorted(overlap)}")
        left = self.take(_np.arange(self.length).repeat(other.length))
        right = other.take(_np.tile(_np.arange(other.length), self.length))
        return ColumnarTable(self.columns + other.columns, left.cols + right.cols, left.length)

    def with_column(self, name: str, column: Column) -> "ColumnarTable":
        if name in self._index_of:
            raise AlgebraError(f"attach: column {name!r} already exists")
        return ColumnarTable(self.columns + (name,), self.cols + (column,), self.length)
