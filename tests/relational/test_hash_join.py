"""HSJOIN on several keys, held to a Python-bucket reference.

HSJOIN hands all keys — columns of any values, or constants — to
:func:`repro.algebra.columnar.equi_join_indices`, which re-ranks each outer
key into its inner key's domain and packs them into one int64 key.  The
rows, and their order, are the reference's: a hash table over the inner
rows' key tuples, probed by every outer row in turn.
"""

import tracemalloc

import pytest

from repro.algebra import columnar
from repro.algebra.table import Table
from repro.algebra.predicates import Comparison, Literal, Sum
from repro.core.joingraph import ColumnTerm
from repro.errors import QueryTimeoutError
from repro.relational.physical.operators import ExecutionContext, HashJoin, TableScan

COLUMNS = ("k", "s", "v")
#: An int key, a string key with NULLs, a payload.
ROWS = [
    (1, "x", 10), (2, "y", 11), (1, "x", 12), (3, None, 13), (2, None, 14),
    (3, "z", 15), (1, "y", 16), (2, "y", 17), (3, None, 18),
]


@pytest.fixture
def packed(monkeypatch):
    """Record what every ``equi_join_indices`` call returned."""
    results = []
    original = columnar.equi_join_indices

    def spy(probe, build, check=None, keep=None):
        results.append(original(probe, build, check, keep))
        return results[-1]

    monkeypatch.setattr(columnar, "equi_join_indices", spy)
    return results


def _key(table, term):
    if isinstance(term, Literal):
        return lambda row: term.value
    index = table.column_index(term.column)
    return lambda row: row[index]


def _reference(outer, inner, outer_terms, inner_terms):
    """Python buckets over key tuples: NULL meets NULL, as equal ``dict`` keys do."""
    inner_keys = [_key(inner, term) for term in inner_terms]
    outer_keys = [_key(outer, term) for term in outer_terms]
    buckets = {}
    for row in inner.rows:
        buckets.setdefault(tuple(key(row) for key in inner_keys), []).append(row)
    return [
        outer_row + inner_row
        for outer_row in outer.rows
        for inner_row in buckets.get(tuple(key(outer_row) for key in outer_keys), ())
    ]


def _join(outer, inner, outer_terms, inner_terms):
    rows = HashJoin(
        TableScan(outer, "o"), TableScan(inner, "i"), outer_terms, inner_terms
    ).run(ExecutionContext())
    return [
        outer.rows[o] + inner.rows[i]
        for o, i in zip(rows.positions["o"].tolist(), rows.positions["i"].tolist())
    ]


def _keys(alias):
    return [ColumnTerm(alias, "k"), ColumnTerm(alias, "s")]


def test_two_keys_over_a_shared_dictionary_join_packed(packed):
    table = Table(COLUMNS, ROWS)  # a self-join: both scans share the `s` domain
    rows = _join(table, table, _keys("o"), _keys("i"))
    assert len(packed) == 1
    assert rows == _reference(table, table, _keys("o"), _keys("i"))
    # A NULL string key meets NULL, as in the reference's buckets.
    assert (3, None, 13, 3, None, 18) in rows
    assert rows[:3] == [
        (1, "x", 10, 1, "x", 10), (1, "x", 10, 1, "x", 12), (2, "y", 11, 2, "y", 11),
    ]


@pytest.mark.parametrize(
    "rows",
    [ROWS, [(None, s, v) if k == 2 else (k, s, v) for k, s, v in ROWS]],
    ids=["string-key-own-domain", "null-int-key"],
)
def test_keys_of_two_domains_merge_in_the_kernel(packed, rows):
    # Two tables: each publishes its own domains, so the outer keys re-rank.
    outer, inner = Table(COLUMNS, rows), Table(COLUMNS, rows)
    joined = _join(outer, inner, _keys("o"), _keys("i"))
    assert len(packed) == 1
    assert joined == _reference(outer, inner, _keys("o"), _keys("i"))
    assert (rows[1] + rows[1]) in joined  # with "null-int-key", NULL meets NULL


def test_a_constant_key_merges_in_the_kernel(packed):
    table = Table(COLUMNS, ROWS)
    outer_terms = [ColumnTerm("o", "k"), Literal("y")]
    rows = _join(table, table, outer_terms, _keys("i"))
    assert len(packed) == 1
    assert rows == _reference(table, table, outer_terms, _keys("i"))
    assert {row[4] for row in rows} == {"y"}


#: Rows per side of the wide joins: 3 000 × 3 000 candidate pairs.
WIDE = 3000
#: The tracemalloc peak a wide join stays under (NumPy reports its buffers
#: to tracemalloc); all 9 million candidate pairs at once take over 400 MB.
WIDE_PEAK_BYTES = 32 << 20


@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "keyless"])
def test_a_wide_hsjoin_holds_one_block_and_meets_its_deadline(keyed):
    # A constant key, or none: every pair is a candidate, and a selective
    # residual masks each block of them.
    table = Table(("k", "v"), [(0, v) for v in range(WIDE)])
    keys = ([ColumnTerm("o", "k")], [ColumnTerm("i", "k")]) if keyed else ([], [])
    residual = Comparison(
        Sum(ColumnTerm("o", "v"), ColumnTerm("i", "v")), "=", Literal(WIDE - 1)
    )
    join = HashJoin(TableScan(table, "o"), TableScan(table, "i"), *keys, [residual])
    with pytest.raises(QueryTimeoutError):
        join.run(ExecutionContext(timeout_seconds=0.05))
    tracemalloc.start()
    try:
        rows = join.run(ExecutionContext())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WIDE_PEAK_BYTES
    assert rows.positions["o"].tolist() == list(range(WIDE))
    assert rows.positions["i"].tolist() == list(range(WIDE - 1, -1, -1))
