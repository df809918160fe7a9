"""One comparison, three evaluations: the row oracle and both engines' masks.

A random conjunction of :class:`~repro.algebra.predicates.Comparison` objects
is evaluated

* per row dictionary by ``Comparison.evaluate`` — the oracle;
* as the interpreter's mask over a :class:`~repro.algebra.columnar.ColumnarTable`
  (columns resolved by schema position);
* as the B-tree engine's mask over a two-alias ``Rows``, the same conjunction
  restated over alias-qualified :class:`~repro.core.joingraph.ColumnTerm`
  columns (columns resolved to the alias's view).

The terms are columns, literals and sums; the values mix None, ints, floats,
NaN, integers at and past ±2^53, bools and strings.  Column ``x`` is the
missing one: all NULL in the table and the row dict, absent from its alias's
table in ``Rows``, where it reads as NULL.  The row-dict oracle also runs over
the qualified terms, which read a missing key as NULL.  200 examples in
tier-1; set ``REPRO_PROBE_EXAMPLES`` for a deeper run (the nightly sweep
runs 20 000).
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algebra.predicates import (
    COMPARISON_OPS,
    ColumnRef,
    Comparison,
    Literal,
    Sum,
    compile_comparisons_mask,
    schema_columns,
)
from repro.algebra.table import Table
from repro.core.joingraph import ColumnTerm
from repro.relational.physical.operators import Rows, alias_columns

EXAMPLES = int(os.environ.get("REPRO_PROBE_EXAMPLES", "200"))

#: Which alias of the two-alias ``Rows`` holds each column.
ALIAS = {"a": "o", "n": "o", "b": "i", "m": "i", "x": "i"}
#: Columns any comparison may read, and those a sum may add.
MIXED, NUMERIC = ("a", "b"), ("n", "m", "x")

_BIG = st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63, -(2 ** 64)])
_NUMBERS = st.one_of(
    st.none(), st.integers(-2, 2), _BIG, st.integers(-(2 ** 70), 2 ** 70),
    st.floats(width=64), st.booleans(),
)
_VALUES = st.one_of(_NUMBERS, st.text(alphabet="ab", max_size=2))


def _conjunctions(values, numbers):
    def terms(names, literals):
        return st.one_of(st.sampled_from(names).map(ColumnRef), literals.map(Literal))

    sums = st.lists(terms(NUMERIC, numbers), min_size=2, max_size=3).map(lambda p: Sum(*p))
    sides = st.one_of(
        st.sampled_from(MIXED + NUMERIC).map(ColumnRef), values.map(Literal), sums
    )
    comparison = st.builds(Comparison, sides, st.sampled_from(COMPARISON_OPS), sides)
    return st.lists(comparison, min_size=1, max_size=3)


def _qualified(term):
    """``term`` over the aliases: ``name`` becomes ``ColumnTerm(ALIAS[name], name)``."""
    if isinstance(term, ColumnRef):
        return ColumnTerm(ALIAS[term.name], term.name)
    if isinstance(term, Sum):
        return Sum(*map(_qualified, term.terms))
    return term


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_a_conjunction_masks_like_its_row_evaluation(data):
    # Literals and cells draw from one small pool, so ties (``<`` against
    # ``<=``, ``=`` against ``!=``) come up; the numeric columns and sums
    # from its numbers.
    pool = data.draw(st.lists(_VALUES, min_size=1, max_size=4))
    values = st.sampled_from(pool)
    numbers = st.sampled_from([value for value in pool if not isinstance(value, str)] or [0])
    conjunction = data.draw(_conjunctions(values, numbers))
    outer_rows = data.draw(st.lists(st.tuples(values, numbers), max_size=8))
    inner_rows = data.draw(st.lists(st.tuples(values, numbers), min_size=1, max_size=6))
    # Every outer row meets some inner row: positions into both tables, one per joined row.
    n = len(outer_rows)
    inner_at = data.draw(st.lists(st.integers(0, len(inner_rows) - 1), min_size=n, max_size=n))
    joined = [
        {"a": a, "n": n_, "b": inner_rows[j][0], "m": inner_rows[j][1], "x": None}
        for (a, n_), j in zip(outer_rows, inner_at)
    ]
    names = ("a", "n", "b", "m", "x")

    expected = [all(c.evaluate(row) for c in conjunction) for row in joined]

    qualified = [Comparison(_qualified(c.left), c.op, _qualified(c.right)) for c in conjunction]
    rows_by_alias = [
        {f"{ALIAS[name]}.{name}": row[name] for name in names if name != "x"} for row in joined
    ]
    assert [all(c.evaluate(row) for c in qualified) for row in rows_by_alias] == expected

    table = Table(names, [tuple(row[name] for name in names) for row in joined]).columnar()
    table_mask = compile_comparisons_mask(conjunction, schema_columns(names))(table)
    assert table_mask.tolist() == expected

    tables = {"o": Table(("a", "n"), outer_rows), "i": Table(("b", "m"), inner_rows)}
    positions = {"o": np.arange(n, dtype=np.int64), "i": np.asarray(inner_at, dtype=np.int64)}
    rows = Rows(tables, positions, n)
    rows_mask = compile_comparisons_mask(qualified, alias_columns(tables))(rows)
    assert rows_mask.tolist() == expected
