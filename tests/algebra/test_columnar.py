"""Unit tests for the columnar storage layer and its vectorized kernels.

Every kernel reads order ranks (:class:`~repro.algebra.columnar.SortedDomain`)
and is checked against the row-path reference it replaces —
``predicates._compare`` for comparison masks, ``Table.attach_rank`` for the
rank kernel, a hash-bucket join for ``equi_join_indices``, a double loop
for ``join_runs`` and ``dict.fromkeys`` for ``first_occurrences`` — on
value mixes that stress the encoding: NULLs, bools, huge ints beyond
float64 exactness, NaN, strings, and columns mixing all of them.  The ``published`` tests build
their inputs both ways the engines do: as a literal table's columns (ranks
built on first read) and as a base table's published columns (ranks built
up front).  A derived column is a view of its base's row positions, and
must read exactly like the values it would gather.  The Hypothesis
properties pair columns from *different* domains, columns sharing one
domain, views, and literals; set
``REPRO_PROBE_EXAMPLES`` for a deeper run (the nightly sweep does).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import columnar
from repro.algebra.columnar import Column, ColumnarTable, SortedDomain, sort_key
from repro.algebra.predicates import _compare
from repro.algebra.table import Table
from repro.errors import AlgebraError

EXAMPLES = int(os.environ.get("REPRO_PROBE_EXAMPLES", "200"))

OPS = ("=", "!=", "<", "<=", ">", ">=")

NAN = float("nan")

#: Value mixes that probe every class and exactness rule of compare_mask.
VALUE_COLUMNS = {
    "ints": [1, 5, 3, 5, 2],
    "floats": [1.5, 0.5, 3.0, -2.5, 0.0],
    "nulls": [None, 2, None, 4, 5],
    "bools": [True, False, True, None, False],
    "strings": ["a", "b", None, "a", "c"],
    "mixed": [1, "a", None, 2.5, "b"],
    "huge": [2 ** 60, 2 ** 60 + 1, 1, None, -(2 ** 60)],
    "nans": [NAN, 1.0, None, NAN, "a"],
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
@pytest.mark.parametrize("scalar", [None, 3, 2.5, "a", True, 2 ** 60, NAN])
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
    for order in ("o", "tag"):  # ints with a NULL; strings
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


def _pairs(result):
    return list(zip(result[0].tolist(), result[1].tolist()))


def test_equi_join_indices_matches_bucket_order():
    probe_values = [3, 1, 2, 3, 7, 1]
    build_values = [1, 3, 3, 2, 1, 9]
    probe = Column.from_values(probe_values)
    build = Column.from_values(build_values)
    result = columnar.equi_join_indices([probe], [build])
    assert _pairs(result) == _reference_hash_join(probe_values, build_values)


@pytest.mark.parametrize(
    "probe_values,build_values",
    [
        (["a", "b"], ["b", 2, "a"]),  # strings from two domains
        ([1, None], [None, 1, 2]),  # None keys match, as in the row path's buckets
        ([2 ** 60, 1], [1, 2 ** 60, 2 ** 60 + 1]),  # beyond float64 exactness
    ],
    ids=["two-string-domains", "none-keys", "huge-ints"],
)
def test_equi_join_indices_on_former_decline_keys(probe_values, build_values):
    probe = Column.from_values(probe_values)
    build = Column.from_values(build_values)
    result = columnar.equi_join_indices([probe], [build])
    assert _pairs(result) == _reference_hash_join(probe_values, build_values)


@PUBLISHED
def test_sum_columns_matches_sum_semantics(published):
    parts = [_column([1, 2, None], published), _column([10, 0.5, 3], published)]
    total = columnar.sum_columns(parts, 3)
    assert total.tolist() == [11, 2.5, None]
    scalar_mix = columnar.sum_columns([_column([1, 2], published), 5], 2)
    assert scalar_mix.tolist() == [6, 7]
    # Beyond float64 exactness the Python objects add, exactly.
    huge = columnar.sum_columns([_column([2 ** 60, None], published), 1], 2)
    assert huge.tolist() == [2 ** 60 + 1, None]
    with pytest.raises(TypeError):
        columnar.sum_columns([_column(["a", 1], published), 1], 2)


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
    assert column.ranks.tolist() == [2, 0, 8, 4]  # built now, published or not
    taken = column.take([0, 3])
    assert taken.tolist() == [1, 4]
    # A derived column gathers the ranks and shares the domain.
    assert taken.domain is column.domain and taken.ranks.tolist() == [2, 4]
    strings = _column(["b", None, "a"], published)
    kept = strings.filter(columnar.compare_mask(strings, "!=", "b", 3))
    assert kept.tolist() == ["a"]
    assert kept.domain is strings.domain and kept.ranks.tolist() == [4]
    # A view of a column ranked afterwards ranks that column and gathers.
    unranked = Column.from_values([3, 1]).take([1])
    assert unranked.ranks.tolist() == [2] and len(unranked.domain) == 3


def test_a_view_gathers_positions_not_objects():
    base = Table(("n", "s"), [(1, "a"), (2, "b"), (3, "c"), (4, "d")]).columnar()
    kept = base.filter(columnar.compare_mask(base.col("n"), ">", 1, 4))
    joined = kept.take([2, 0, 0]).cross(ColumnarTable.from_rows(("k",), [(7,), (8,)]))
    n, s, k = joined.cols
    # A view of a view indexes the base, and the columns that moved together
    # share one position vector.
    assert n._base is base.col("n") and s._base is base.col("s")
    assert n._positions is s._positions and n._positions.tolist() == [3, 3, 1, 1, 1, 1]
    assert k._positions.tolist() == [0, 1] * 3
    assert all(c._values is None and c._ranks is None for c in joined.cols)  # nothing fetched yet
    assert list(joined.iter_rows()) == [
        (4, "d", 7), (4, "d", 8), (2, "b", 7), (2, "b", 8), (2, "b", 7), (2, "b", 8)
    ]
    assert n.ranks.tolist() == [8, 8, 4, 4, 4, 4] and n.domain is base.col("n").domain


def test_a_view_of_an_unranked_base_ranks_the_base():
    total = Column.numeric(np.array([5.0, NAN, 7.0, 9.0]), integral=True)
    view = total.take([3, 1, 3])
    assert view.float_values()[0].tolist()[::2] == [9.0, 9.0] and view.tolist() == [9, None, 9]
    assert view.ranks.tolist() == [6, 0, 6] and view.domain is total.domain  # {5, 7, 9}
    # A constant is a view of one value: that value is ranked once, and gathered.
    constant = Column.constant("x", 3)
    assert constant.tolist() == ["x"] * 3 and constant.ranks.tolist() == [4] * 3
    assert len(constant._base) == 1 and constant._base.ranked


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


# -- the kernels against their references (property-based) ---------------------------

#: Ints around and far beyond float64 exactness.
_INTS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63, -(2 ** 64)]),
)
_STRINGS = st.text(alphabet="abc", max_size=3)


def _families(floats):
    """Pure and mixed column element strategies, over ``floats``."""
    return [
        _INTS,
        st.one_of(_INTS, st.none()),
        st.one_of(floats, st.none()),
        st.one_of(_INTS, floats, st.none()),
        st.one_of(_STRINGS, st.none()),
        st.one_of(st.booleans(), _INTS, st.none()),
        st.one_of(_INTS, floats, _STRINGS, st.booleans(), st.none()),
    ]


#: Every float, inf and NaN included: for comparisons, whose reference is total.
FAMILIES = _families(st.floats(width=64))
#: No NaN: sorting, bucketing and ``dict`` keys have no reference order or equality for it.
ORDERED_FAMILIES = _families(st.floats(width=64, allow_nan=False))
COLUMN_VALUES = st.one_of(*(st.lists(family, max_size=14) for family in FAMILIES))
LITERALS = st.one_of(st.none(), _INTS, _STRINGS, st.sampled_from(["zzz", 0, 1, 2.5, True, NAN]))


@st.composite
def _columns(draw, count, families):
    """``count`` value lists of one length, each drawn from one of ``families``."""
    n = draw(st.integers(0, 12))
    return [
        draw(st.sampled_from(families).flatmap(lambda f: st.lists(f, min_size=n, max_size=n)))
        for _ in range(count)
    ]


@settings(max_examples=EXAMPLES, deadline=None)
@given(values=COLUMN_VALUES, literal=LITERALS, data=st.data())
def test_compare_mask_matches_compare_across_domains(values, literal, data):
    n = len(values)
    other = data.draw(
        st.sampled_from(FAMILIES).flatmap(lambda f: st.lists(f, min_size=n, max_size=n))
    )
    column = _column(values, data.draw(st.booleans()))
    order = data.draw(st.permutations(range(n)))
    sides = [
        (_column(other, data.draw(st.booleans())), other),  # a domain of its own
        (column.take(order), [values[i] for i in order]),  # the same domain
        (literal, [literal] * n),
    ]
    for op in OPS:
        for right, right_values in sides:
            expected = [_compare(a, op, b) for a, b in zip(values, right_values)]
            assert columnar.compare_mask(column, op, right, n).tolist() == expected, (op, right)
            flipped = [_compare(b, op, a) for a, b in zip(values, right_values)]
            assert columnar.compare_mask(right, op, column, n).tolist() == flipped, (op, right)


@settings(max_examples=EXAMPLES, deadline=None)
@given(values=COLUMN_VALUES, literal=LITERALS, data=st.data())
def test_a_view_reads_like_its_gathered_values(values, literal, data):
    n = len(values)
    first = data.draw(st.lists(st.integers(0, n - 1), max_size=12) if n else st.just([]))
    second = data.draw(
        st.lists(st.integers(0, len(first) - 1), max_size=12) if first else st.just([])
    )
    base = _column(values, data.draw(st.booleans()))
    view = base.take(first).take(second)
    gathered = [values[first[i]] for i in second]
    assert all(a is b for a, b in zip(view.tolist(), gathered)) and len(view) == len(gathered)
    copy = _column(gathered, data.draw(st.booleans()))
    other = base.take(first[::-1]).take(second)  # the same base, other rows
    other_values = [values[first[::-1][i]] for i in second]
    for op in OPS:
        expected = [_compare(value, op, literal) for value in gathered]
        assert columnar.compare_mask(view, op, literal, len(view)).tolist() == expected
        assert columnar.compare_mask(copy, op, view, len(view)).tolist() == [
            _compare(value, op, value) for value in gathered
        ], op
        assert columnar.compare_mask(view, op, other, len(view)).tolist() == [
            _compare(a, op, b) for a, b in zip(gathered, other_values)
        ], op


def _dense_reference(order_rows, partition_rows):
    """DENSE_RANK per row: the position of its order key among its partition's distinct keys."""
    partitions = {}
    for partition, key in zip(partition_rows, order_rows):
        partitions.setdefault(partition, set()).add(key)
    ranks = {
        partition: {key: k for k, key in enumerate(sorted(keys, key=sort_key), start=1)}
        for partition, keys in partitions.items()
    }
    return [ranks[partition][key] for partition, key in zip(partition_rows, order_rows)]


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_rank_values_match_attach_rank_property(data):
    values = data.draw(_columns(3, ORDERED_FAMILIES))
    n = len(values[0])
    table = Table(("a", "b", "c"), list(zip(*values)))
    columns = [_column(column, data.draw(st.booleans())) for column in values]
    for order, partition in ((["a"], []), (["a"], ["b"]), (["a", "b"], ["c"])):
        pick = [columns["abc".index(name)] for name in order]
        split = [columns["abc".index(name)] for name in partition]
        expected = table.attach_rank("rank", order, partition).column_values("rank")
        assert columnar.rank_values(pick, split, n).tolist() == expected, (order, partition)
        order_rows = list(zip(*(values["abc".index(name)] for name in order)))
        partition_rows = list(zip(*(values["abc".index(name)] for name in partition))) or [()] * n
        dense = columnar.rank_values(pick, split, n, dense=True).tolist()
        assert dense == _dense_reference(order_rows, partition_rows), (order, partition)


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_coded_and_packed_joins_match_the_bucket_join(data):
    width = data.draw(st.integers(1, 3))
    probe_values = data.draw(_columns(width, ORDERED_FAMILIES))
    build_values = data.draw(_columns(width, ORDERED_FAMILIES))
    n, m = len(probe_values[0]), len(build_values[0])
    probe = [_column(values, data.draw(st.booleans())) for values in probe_values]
    build = [_column(values, data.draw(st.booleans())) for values in build_values]
    for key in range(width):
        mode = data.draw(st.sampled_from(["own domains", "one domain", "constant probe"]))
        if mode == "one domain" and n:  # the build key derived from the probe key
            picks = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
            build[key] = probe[key].take(picks)
            build_values[key] = [probe_values[key][i] for i in picks]
        elif mode == "constant probe":
            value = data.draw(st.one_of(*ORDERED_FAMILIES))
            probe[key] = Column.constant(value, n)
            probe_values[key] = [value] * n
    expected = _reference_hash_join(list(zip(*probe_values)), list(zip(*build_values)))
    assert _pairs(columnar.equi_join_indices(probe, build)) == expected


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_join_runs_match_a_double_loop(data):
    run = data.draw(st.lists(st.integers(0, 30), max_size=12))
    low, counts = [], []
    for _ in range(data.draw(st.integers(0, 6))):
        low.append(data.draw(st.integers(0, len(run))))
        counts.append(data.draw(st.integers(0, len(run) - low[-1])))
    dropped = data.draw(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 30))))
    masked = data.draw(st.booleans())
    block = data.draw(st.integers(1, 8))

    def keep(probe, build):
        return np.array([pair not in dropped for pair in zip(probe.tolist(), build.tolist())],
                        dtype=bool)

    checks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "JOIN_BLOCK_PAIRS", block)
        probe, build = columnar.join_runs(
            low, counts, run, lambda: checks.append(1), keep if masked else None
        )
    expected = [
        (i, run[slot])
        for i in range(len(low))
        for slot in range(low[i], low[i] + counts[i])
        if not masked or (i, run[slot]) not in dropped
    ]
    assert list(zip(probe.tolist(), build.tolist())) == expected
    assert probe.dtype == build.dtype == np.int64
    assert len(checks) == -(-sum(counts) // block)  # one check per block


def test_three_keys_pack_past_int64():
    # Three radices of 2**40 overflow int64: the first two keys re-densify first.
    big = 2 ** 40
    keys = [np.array([0, big, big, 0, big]), np.array([big, 0, big, big, big]),
            np.array([1, 1, big, 1, big])]
    packed = columnar._pack(keys).tolist()
    rows = list(zip(*(key.tolist() for key in keys)))
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (packed[i] == packed[j]) == (rows[i] == rows[j]), (i, j)
    probe = [Column.from_values(list(column)) for column in zip(*rows)]
    result = columnar.equi_join_indices(probe, probe)
    assert _pairs(result) == _reference_hash_join(rows, rows)


@PUBLISHED
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_first_occurrences_match_dict_fromkeys(published, data):
    values = data.draw(_columns(data.draw(st.integers(1, 3)), ORDERED_FAMILIES))
    rows = list(zip(*values))
    table = _table(tuple("abc"[: len(values)]), rows, published)
    positions = columnar.first_occurrences(table.cols, table.length)
    distinct = table if positions is None else table.take(positions)
    assert list(distinct.iter_rows()) == list(dict.fromkeys(rows))


def test_a_domain_ranks_none_numbers_nan_and_strings_in_order():
    domain, ranks = SortedDomain.of(Column.from_values([NAN, "b", 2 ** 60, None, True]).values)
    # None, then the numbers (True is 1), the NaN slot, then the strings.
    assert ranks.tolist() == [6, 8, 4, 0, 2]
    assert [domain.rank_value(v) for v in (0, 1.0, 2 ** 60 + 1, NAN, "a", "c")] == [
        1, 2, 5, 6, 7, 9
    ]
    other = Column.from_values(["b", 2 ** 60, None, 3])
    assert domain.rank(other).tolist() == [8, 4, 0, 3]
    # Ints past float64 exactness search as Python objects, where a NaN
    # (a value, or a sum's None) must not derail the bisection.
    huge = Column.from_values([0, 1, NAN, 2 ** 53 + 1])
    assert huge.ranks.tolist() == [2, 4, 8, 6]
    total = Column.numeric(np.array([1.0, NAN, 3.0, 0.0]), integral=True)
    assert huge.domain.rank(total).tolist() == [4, 0, 5, 2]


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    start=st.integers(-5, 5),
    count=st.integers(1, 90),
    sums=st.lists(st.one_of(st.none(), st.integers(-10, 100)), max_size=90),
)
def test_a_sum_ranks_into_a_domain_of_consecutive_ints(start, count, sums):
    # A sum of ints ranks by arithmetic in a domain like a `pre` column's.
    domain = Column.from_values(list(range(start, start + count)) + [None]).domain
    assert domain.dense
    total = columnar.sum_columns([Column.from_values(sums), 0], len(sums))
    assert domain.rank(total).tolist() == [domain.rank_value(value) for value in sums]
    halves = Column.numeric(np.array([NAN if v is None else v + 0.5 for v in sums]))
    assert domain.rank(halves).tolist() == [
        domain.rank_value(None if v is None else v + 0.5) for v in sums
    ]


def test_a_dense_domain_at_minus_two_to_the_53_ranks_exactly():
    # The arithmetic rank must subtract the domain's first number before it
    # doubles: ``2 - 2 * -2**53`` is not a float64, and rounding it ranks
    # -2**53 as the gap below itself.
    low = -(2 ** 53)
    domain = Column.from_values([low, low + 1]).domain
    assert domain.dense
    values = Column.numeric(np.array([low, low + 1, low - 2], dtype=np.float64), integral=True)
    assert domain.rank(values).tolist() == [2, 4, 1]
    constant = Column.constant(low, 2)
    assert columnar.compare_mask(constant, "=", Column.constant(low, 2), 2).tolist() == [True] * 2
