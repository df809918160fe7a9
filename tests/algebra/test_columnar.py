"""Unit tests for the columnar storage layer and its vectorized kernels.

Every kernel is checked against the row-path reference it replaces —
``predicates._compare`` for comparison masks, ``Table.attach_rank`` for the
rank kernel, the hash-bucket join for ``equi_join_indices`` — on value mixes
that exercise the shadow-validity rules: NULLs, bools, huge ints beyond
float64 exactness, strings on one side and on both.  The ``published``
tests build their inputs both ways the engines do: as a literal table's
columns (statistics computed lazily, no dictionary codes) and as a base
table's published columns (statistics up front, codes for string columns),
so the coded and the uncoded branches of each kernel meet the same
reference.  The dictionary-code, whole-array-statistics, packed-join and
first-occurrence kernels are property-tested (Hypothesis) against the same
references.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import columnar
from repro.algebra.columnar import Column, ColumnarTable
from repro.algebra.predicates import _compare
from repro.algebra.table import Table
from repro.errors import AlgebraError

OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Value mixes that probe every branch-selection rule of compare_mask.
VALUE_COLUMNS = {
    "ints": [1, 5, 3, 5, 2],
    "floats": [1.5, 0.5, 3.0, -2.5, 0.0],
    "nulls": [None, 2, None, 4, 5],
    "bools": [True, False, True, None, False],
    "strings": ["a", "b", None, "a", "c"],
    "mixed": [1, "a", None, 2.5, "b"],
    "huge": [2 ** 60, 2 ** 60 + 1, 1, None, -(2 ** 60)],
}


def _column(values, published=True):
    """A column as a literal table builds it, or ``published`` as a base table does."""
    column = Column.from_values(values)
    if published:
        column.publish()
    return column


def _table(columns, rows, published):
    """A columnar table as a literal table's, or ``published`` as a base table's."""
    if published:
        return Table(columns, rows).columnar()
    return ColumnarTable.from_rows(columns, rows)


#: Build every ``published`` test's inputs both ways.
PUBLISHED = pytest.mark.parametrize("published", [False, True])


@PUBLISHED
@pytest.mark.parametrize("left_name", sorted(VALUE_COLUMNS))
@pytest.mark.parametrize("right_name", sorted(VALUE_COLUMNS))
def test_compare_mask_matches_reference(published, left_name, right_name):
    left_values = VALUE_COLUMNS[left_name]
    right_values = VALUE_COLUMNS[right_name]
    left = _column(left_values, published)
    right = _column(right_values, published)
    for op in OPS:
        mask = columnar.compare_mask(left, op, right, len(left_values))
        expected = [
            _compare(a, op, b) for a, b in zip(left_values, right_values)
        ]
        assert [bool(v) for v in mask] == expected, (left_name, op, right_name)


@PUBLISHED
@pytest.mark.parametrize("scalar", [None, 3, 2.5, "a", True, 2 ** 60])
def test_compare_mask_against_scalar(published, scalar):
    for name, values in VALUE_COLUMNS.items():
        column = _column(values, published)
        for op in OPS:
            mask = columnar.compare_mask(column, op, scalar, len(values))
            expected = [_compare(value, op, scalar) for value in values]
            assert [bool(v) for v in mask] == expected, (name, op, scalar)


@PUBLISHED
def test_rank_values_matches_attach_rank(published):
    rows = [
        (1, 10, "x"),
        (1, 5, "y"),
        (2, 5, "x"),
        (1, 5, "z"),
        (2, None, "w"),
        (1, 10, "v"),
        (2, 7, "u"),
    ]
    table = Table(("p", "o", "tag"), rows)
    ct = _table(("p", "o", "tag"), rows, published)
    for order in ("o", "tag"):  # ints with a NULL; strings, coded when published
        expected = table.attach_rank("rank", order_by=[order], partition_by=["p"])
        ranks = columnar.rank_values([ct.col(order)], [ct.col("p")], len(rows))
        assert list(ranks) == [row[-1] for row in expected.rows], order


@PUBLISHED
def test_rank_values_without_partition(published):
    values = [5, 1, 5, None, 2, 1]
    table = Table(("o",), [(v,) for v in values])
    expected = table.attach_rank("rank", order_by=["o"])
    ranks = columnar.rank_values([_column(values, published)], [], len(values))
    assert list(ranks) == [row[-1] for row in expected.rows]


def _reference_hash_join(probe_values, build_values):
    buckets = {}
    for position, key in enumerate(build_values):
        buckets.setdefault(key, []).append(position)
    pairs = []
    for position, key in enumerate(probe_values):
        for match in buckets.get(key, ()):
            pairs.append((position, match))
    return pairs


def test_equi_join_indices_matches_bucket_order():
    probe_values = [3, 1, 2, 3, 7, 1]
    build_values = [1, 3, 3, 2, 1, 9]
    probe = Column.from_values(probe_values)
    build = Column.from_values(build_values)
    result = columnar.equi_join_indices([probe], [build])
    assert result is not None
    probe_idx, build_idx = result
    assert list(zip(probe_idx.tolist(), build_idx.tolist())) == _reference_hash_join(
        probe_values, build_values
    )


@pytest.mark.parametrize(
    "probe_values,build_values",
    [
        (["a", "b"], [1, 2]),  # strings shadow to NaN
        ([1, None], [1, 2]),  # None keys match in the row path's buckets
        ([2 ** 60, 1], [1, 2]),  # beyond float64 exactness
    ],
)
def test_equi_join_indices_declines_unsafe_keys(probe_values, build_values):
    probe = Column.from_values(probe_values)
    build = Column.from_values(build_values)
    assert columnar.equi_join_indices([probe], [build]) is None


@PUBLISHED
def test_sum_columns_matches_sum_semantics(published):
    parts = [_column([1, 2, None], published), _column([10, 0.5, 3], published)]
    total = columnar.sum_columns(parts, 3)
    assert total.tolist() == [11, 2.5, None]
    scalar_mix = columnar.sum_columns([_column([1, 2], published), 5], 2)
    assert scalar_mix.tolist() == [6, 7]


@PUBLISHED
def test_columnar_table_round_trip(published):
    rows = [(1, "a", None), (2, "b", 2.5), (3, "c", True)]
    back = _table(("x", "y", "z"), rows, published).to_table()
    assert back.columns == ("x", "y", "z")
    assert back.rows == rows
    # Exact objects, not equal copies: identity survives the round trip.
    assert back.rows[0][1] is rows[0][1]


@PUBLISHED
def test_columnar_table_project_filter_take(published):
    rows = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
    ct = _table(("n", "s"), rows, published)
    projected = ct.project([("s2", "s"), ("n2", "n")])
    assert list(projected.iter_rows()) == [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
    mask = columnar.compare_mask(ct.col("n"), ">=", 3, ct.length)
    assert list(ct.filter(mask).iter_rows()) == [(3, "c"), (4, "d")]
    assert list(ct.take([3, 0]).iter_rows()) == [(4, "d"), (1, "a")]


def test_columnar_table_rejects_duplicate_columns():
    with pytest.raises(AlgebraError):
        ColumnarTable.from_rows(("a", "a"), [(1, 2)])


@PUBLISHED
def test_column_stats_survive_take_and_filter(published):
    column = _column([1, None, "x", 4], published)
    assert column.has_strings  # the statistics exist now, published or not
    taken = column.take([0, 3])
    assert taken.tolist() == [1, 4]
    # Conservative flags: a subset of a string-bearing column still
    # reports has_strings, which only costs a declined fast path.
    assert taken.has_strings
    strings = _column(["b", None, "a"], published)
    kept = strings.filter(columnar.compare_mask(strings, "!=", "b", 3))
    assert kept.tolist() == ["a"]
    # Derived columns index the very dictionary they were derived from.
    assert (kept.codes is not None) is published
    if published:
        assert kept.codes.tolist() == [0] and kept.dictionary is strings.dictionary


def test_interpreter_matches_the_naive_oracle():
    """The same plan evaluates identically on the columnar core and the oracle."""
    from repro.algebra.interpreter import PlanInterpreter
    from repro.xmldb.encoding import DOC_COLUMNS, encode_document
    from repro.xmldb.parser import parse_xml
    from repro.xquery.compiler import LoopLiftingCompiler

    doc = parse_xml(
        "<site><a><b>1</b><b>2</b></a><a><b>2</b><b>3</b></a></site>",
        uri="t.xml",
    )
    table = Table(DOC_COLUMNS, encode_document(doc).rows())
    plan = LoopLiftingCompiler().compile_source('doc("t.xml")/descendant::b')
    columnar_result = PlanInterpreter(table).evaluate(plan)
    oracle_result = PlanInterpreter(table, compiled=False).evaluate(plan)
    assert columnar_result == oracle_result


# -- dictionary codes, whole-array statistics, packed joins (property-based) --------

#: Ints around and far beyond float64 exactness, floats (inf and NaN included).
_INTS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63, -(2 ** 64)]),
)
_FLOATS = st.floats(width=64)
_STRINGS = st.text(alphabet="abc", max_size=3)


def _values(*elements):
    return st.lists(st.one_of(*elements), max_size=14)


#: Pure and mixed columns.
COLUMN_VALUES = st.one_of(
    _values(_INTS),
    _values(_INTS, st.none()),
    _values(_FLOATS, st.none()),
    _values(_INTS, _FLOATS, st.none()),
    _values(_STRINGS, st.none()),
    _values(st.booleans(), _INTS, st.none()),
    _values(_INTS, _FLOATS, _STRINGS, st.booleans(), st.none()),
)
STRING_VALUES = _values(_STRINGS, st.none())
LITERALS = st.one_of(st.none(), _STRINGS, st.sampled_from(["zzz", 0, 1, 2.5, True]))


def _permutation(data, n):
    return data.draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(values=COLUMN_VALUES)
def test_statistics_match_the_per_element_reference(values):
    import numpy as np

    fast = Column.from_values(values)
    fast._build_stats()
    reference = Column.from_values(values)
    reference._build_stats_by_element()
    np.testing.assert_array_equal(fast.shadow, reference.shadow)
    np.testing.assert_array_equal(fast.notnull, reference.notnull)
    assert (fast.has_strings, fast.shadow_exact, fast.ints_only) == (
        reference.has_strings, reference.shadow_exact, reference.ints_only
    )


@settings(max_examples=200, deadline=None)
@given(values=STRING_VALUES, literal=LITERALS, data=st.data())
def test_coded_equality_masks_match_the_python_mask(values, literal, data):
    n = len(values)
    other = data.draw(st.lists(st.one_of(_STRINGS, st.none()), min_size=n, max_size=n))
    column = _column(values)
    assert column.codes is not None
    # The same dictionary (derived by take), and a different one.
    shuffled = column.take(_permutation(data, n))
    foreign = _column(other)
    for op in ("=", "!="):
        for right, right_column in ((literal, False), (shuffled, True), (foreign, True)):
            mask = columnar.compare_mask(column, op, right, n)
            expected = columnar._python_mask(column, op, right, True, right_column, n)
            assert [bool(v) for v in mask] == list(expected), (op, right)
        flipped = columnar.compare_mask(literal, op, column, n)
        expected = columnar._python_mask(literal, op, column, False, True, n)
        assert [bool(v) for v in flipped] == list(expected), (literal, op)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(["x", "y", "z", None])),
        min_size=1, max_size=16,
    ),
    data=st.data(),
)
def test_coded_and_packed_joins_match_the_bucket_join(rows, data):
    positions = st.lists(st.integers(0, len(rows) - 1), max_size=12)
    # Probe and build derive from one published table: shared dictionaries.
    table = Table(("k", "s"), rows).columnar()
    probe, build = table.take(data.draw(positions)), table.take(data.draw(positions))
    for names in (["s"], ["k", "s"], ["s", "k"]):
        probe_keys = [probe.col(name) for name in names]
        build_keys = [build.col(name) for name in names]
        result = columnar.equi_join_indices(probe_keys, build_keys)
        assert result is not None, names
        # None keys meet None keys, as in the row path's buckets.
        expected = _reference_hash_join(
            list(zip(*(c.tolist() for c in probe_keys))),
            list(zip(*(c.tolist() for c in build_keys))),
        )
        assert list(zip(result[0].tolist(), result[1].tolist())) == expected, names


def test_coded_join_declines_across_dictionaries_and_on_null_ints():
    left, right = _column(["a", None]), _column(["a", None])
    assert columnar.equi_join_indices([left], [right]) is None
    ints = _column([1, None])
    assert columnar.equi_join_indices([ints, left], [ints, left]) is None
    huge = _column([2 ** 60, 1])
    assert columnar.equi_join_indices([huge, left], [huge, left]) is None


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["b", "a", "c", "", None]), st.integers(0, 2)), max_size=16
    ),
    data=st.data(),
)
def test_coded_rank_matches_rank_python(rows, data):
    table = Table(("o", "p"), rows).columnar()
    table = table.take(_permutation(data, len(rows)))
    order, partition = [table.col("o")], [table.col("p")]
    declines = []
    for partitions in ([], partition):
        ranks = columnar.rank_values(order, partitions, len(rows), lambda: declines.append(1))
        assert list(ranks) == list(columnar._rank_python(order, partitions, len(rows)))
    assert not declines


@PUBLISHED
@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["a", "b", None]),
            st.sampled_from([1, 1.0, True, "1", None]),
        ),
        max_size=16,
    ),
)
def test_first_occurrences_match_dict_fromkeys(published, rows):
    for columns in (("i",), ("i", "s"), ("i", "s", "mixed")):
        width = len(columns)
        narrowed = [row[:width] for row in rows]
        table = _table(columns, narrowed, published)
        positions = columnar.first_occurrences(table.cols, table.length)
        distinct = table if positions is None else table.take(positions)
        assert list(distinct.iter_rows()) == list(dict.fromkeys(narrowed))
