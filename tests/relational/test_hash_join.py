"""HSJOIN on several keys: the column-wise join against the Python-bucket row path.

Above two scans, HSJOIN joins column-wise: all keys go to
:func:`repro.algebra.columnar.equi_join_indices`, which packs them into one
int64 key when every key can be compared as codes or exact ints, and
declines otherwise (the operator then buckets the key tuples in Python).
Above a child that cannot produce columns, HSJOIN runs its row path.  All
three must return the same rows in the same order.
"""

import pytest

from repro.algebra import columnar
from repro.algebra.table import Table
from repro.core.joingraph import ColumnTerm, ConstantTerm
from repro.relational.physical.operators import (
    ExecutionContext,
    HashJoin,
    PhysicalOperator,
    TableScan,
)

COLUMNS = ("k", "s", "v")
#: An int key, a string key with NULLs, a payload.
ROWS = [
    (1, "x", 10), (2, "y", 11), (1, "x", 12), (3, None, 13), (2, None, 14),
    (3, "z", 15), (1, "y", 16), (2, "y", 17), (3, None, 18),
]


class _RowsOnly(PhysicalOperator):
    """A child that cannot produce columns: the HSJOIN above it runs row by row."""

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.slots = child.slots

    def rows(self, ctx):
        return self.child.rows(ctx)

    def describe(self) -> str:
        return "ROWS-ONLY"


@pytest.fixture
def packed(monkeypatch):
    """Record what every ``equi_join_indices`` call returned (``None``: declined)."""
    results = []
    original = columnar.equi_join_indices

    def spy(probe, build):
        results.append(original(probe, build))
        return results[-1]

    monkeypatch.setattr(columnar, "equi_join_indices", spy)
    return results


def _join(outer, inner, outer_terms, inner_terms, wrap=lambda child: child):
    join = HashJoin(
        wrap(TableScan(outer, "o")), wrap(TableScan(inner, "i")), outer_terms, inner_terms
    )
    return list(join.rows(ExecutionContext()))


def _keys(alias):
    return [ColumnTerm(alias, "k"), ColumnTerm(alias, "s")]


def test_two_keys_over_a_shared_dictionary_join_packed(packed):
    table = Table(COLUMNS, ROWS)  # a self-join: both scans share the `s` dictionary
    rows = _join(table, table, _keys("o"), _keys("i"))
    assert len(packed) == 1 and packed[0] is not None
    assert rows == _join(table, table, _keys("o"), _keys("i"), wrap=_RowsOnly)
    # A NULL string key meets NULL, as in the row path's buckets.
    assert (3, None, 13, 3, None, 18) in rows
    assert rows[:3] == [
        (1, "x", 10, 1, "x", 10), (1, "x", 10, 1, "x", 12), (2, "y", 11, 2, "y", 11),
    ]


@pytest.mark.parametrize(
    "rows",
    [ROWS, [(None, s, v) if k == 2 else (k, s, v) for k, s, v in ROWS]],
    ids=["string-key-own-dictionary", "null-int-key"],
)
def test_declined_keys_bucket_in_python(packed, rows):
    # Two tables: each publishes its own `s` dictionary, so codes cannot meet.
    outer, inner = Table(COLUMNS, rows), Table(COLUMNS, rows)
    joined = _join(outer, inner, _keys("o"), _keys("i"))
    assert packed == [None]
    assert joined == _join(outer, inner, _keys("o"), _keys("i"), wrap=_RowsOnly)
    assert (rows[1] + rows[1]) in joined  # with "null-int-key", NULL meets NULL


def test_a_constant_key_buckets_in_python(packed):
    table = Table(COLUMNS, ROWS)
    outer_terms = [ColumnTerm("o", "k"), ConstantTerm("y")]
    rows = _join(table, table, outer_terms, _keys("i"))
    assert packed == []
    assert rows == _join(table, table, outer_terms, _keys("i"), wrap=_RowsOnly)
    assert {row[4] for row in rows} == {"y"}
