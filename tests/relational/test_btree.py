"""Tests (incl. property-based) for the B+-tree and composite-key index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.table import Table
from repro.algebra.columnar import sort_key as order_key
from repro.relational.btree import BPlusTree, BTreeIndex, PRE_PLUS_SIZE


def _tree(values):
    return BPlusTree.from_entries(
        [((value,), (position,)) for position, value in enumerate(values)], order=8
    )


def test_full_scan_is_sorted():
    tree = _tree([5, 3, 9, 1, 7])
    keys = [key[0] for key, _payload in tree.scan_all()]
    assert keys == sorted(keys)


def test_range_scan_bounds():
    tree = _tree(list(range(100)))
    keys = [key[0] for key, _ in tree.scan_range((10,), (20,))]
    assert keys == list(range(10, 21))
    keys_exclusive = [key[0] for key, _ in tree.scan_range((10,), (20,), False, False)]
    assert keys_exclusive == list(range(11, 20))


def test_prefix_scan_composite_keys():
    entries = [((name, value), (value,)) for value in range(10) for name in ("a", "b")]
    tree = BPlusTree.from_entries(entries, order=4)
    a_keys = [key for key, _ in tree.scan_range(("a",), ("a",))]
    assert len(a_keys) == 10 and all(key[0] == "a" for key in a_keys)


def test_range_scan_finds_duplicates_spanning_leaves():
    # Nine copies of the same key are more than one fan-out-8 leaf holds: the
    # scan must start at the *first* copy (regression, when the tree had
    # separator nodes: bisect_right on them skipped 8 of the 9 entries).
    tree = _tree([0] * 9)
    got = [key[0] for key, _ in tree.scan_range((0,), (0,))]
    assert got == [0] * 9


def test_height_grows_logarithmically():
    small = _tree(list(range(10)))
    large = _tree(list(range(5000)))
    assert large.height > small.height
    assert large.height <= 6


@settings(max_examples=50)
@given(st.lists(st.integers(-1000, 1000), max_size=300))
def test_tree_scan_matches_sorted_list(values):
    tree = _tree(values)
    assert [k[0] for k, _ in tree.scan_all()] == sorted(values)


@settings(max_examples=50)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=200),
    st.integers(0, 200),
    st.integers(0, 200),
)
def test_range_scan_matches_filter(values, a, b):
    low, high = min(a, b), max(a, b)
    tree = _tree(values)
    expected = sorted(v for v in values if low <= v <= high)
    got = [k[0] for k, _ in tree.scan_range((low,), (high,))]
    assert got == expected


# Composite keys over a small domain: NULLs, ints next to strings, and enough
# repeats that equal keys run past any fan-out-4 leaf boundary.
_COMPONENT = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["", "a", "b"]))
_KEY = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)
_BOUND = st.one_of(st.none(), st.lists(_COMPONENT, max_size=4).map(tuple))


def _filter_sorted_entries(entries, low, high, low_inclusive, high_inclusive):
    """Reference semantics: compare each key's prefix of the bound's length."""
    kept = []
    for key, payload in sorted(entries, key=lambda entry: order_key(entry[0])):
        comparable = order_key(key)
        if low is not None:
            prefix = comparable[: len(low)]
            if prefix < order_key(low) or (not low_inclusive and prefix == order_key(low)):
                continue
        if high is not None:
            prefix = comparable[: len(high)]
            if prefix > order_key(high) or (not high_inclusive and prefix == order_key(high)):
                continue
        kept.append((key, payload))
    return kept


@settings(max_examples=300, deadline=None)
@given(st.lists(_KEY, max_size=60), _BOUND, _BOUND, st.booleans(), st.booleans())
def test_composite_prefix_scan_matches_filter(keys, low, high, low_inclusive, high_inclusive):
    entries = [(key, (position,)) for position, key in enumerate(keys)]
    tree = BPlusTree.from_entries(entries, order=4)
    assert list(tree.scan_range(low, high, low_inclusive, high_inclusive)) == (
        _filter_sorted_entries(entries, low, high, low_inclusive, high_inclusive)
    )


def test_btree_index_build_and_lookup(small_auction_doc_table):
    index = BTreeIndex.build(
        "idx", small_auction_doc_table, ("name", "kind", "pre"), include_columns=("level",)
    )
    positions = list(index.lookup(("bidder", "ELEM")))
    names = [small_auction_doc_table.rows[p][small_auction_doc_table.column_index("name")] for p in positions]
    assert names == ["bidder"] * 3
    assert index.entry_count == len(small_auction_doc_table)


def test_btree_index_computed_pre_plus_size(small_auction_doc_table):
    index = BTreeIndex.build("idx_s", small_auction_doc_table, (PRE_PLUS_SIZE,))
    keys = [key[0] for key, _ in index.scan()]
    assert keys == sorted(keys)


def test_prefix_selectivity_monotone(small_auction_doc_table):
    index = BTreeIndex.build("idx2", small_auction_doc_table, ("kind", "name", "pre"))
    s1 = index.selectivity_of_prefix(1)
    s2 = index.selectivity_of_prefix(2)
    s3 = index.selectivity_of_prefix(3)
    assert s1 >= s2 >= s3
    assert index.describe().startswith("idx2 ON doc(")
