"""Tests for the needed/const/key/set property inference (Tables II-V)."""

from repro.algebra.operators import (
    Attach, Cross, Distinct, DocTable, Join, LiteralTable, Project, RowId, RowRank, Select, Serialize,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate
from repro.core.properties import infer_properties


def test_icols_seeded_at_serialization_point():
    leaf = LiteralTable(("iter", "pos", "item"), [(1, 1, 1)])
    plan = Serialize(leaf)
    properties = infer_properties(plan)
    assert properties.needed(leaf) == frozenset({"pos", "item"})


def test_icols_through_projection_renaming():
    doc = DocTable()
    project = Project(doc, [("item", "pre"), ("pos", "size")])
    plan = Serialize(project)
    properties = infer_properties(plan)
    assert properties.needed(doc) == frozenset({"pre", "size"})


def test_icols_accumulates_over_shared_parents():
    doc = DocTable()
    a = Project(doc, [("item", "pre")])
    b = Project(doc, [("pos", "level")])
    plan = Serialize(Cross(a, b))
    properties = infer_properties(plan)
    assert {"pre", "level"} <= set(properties.needed(doc))


def test_a_projection_nobody_needs_still_needs_every_column_it_mentions():
    """Table II's strict rule gives such a π's input nothing; ``needed``
    keeps every source column, since the π keeps all of its items."""
    base = Attach(LiteralTable(("a",), [(1,)]), "b", 2)
    unused = Project(base, [("x", "a"), ("y", "b")])
    plan = Serialize(Cross(LiteralTable(("pos", "item"), [(1, 1)]), unused))
    properties = infer_properties(plan)
    assert properties.needed(unused) == frozenset()
    assert properties.needed(base) == frozenset({"a", "b"})


def test_const_from_attach_and_literal():
    base = Attach(LiteralTable(("iter",), [(1,)]), "pos", 7)
    properties = infer_properties(Serialize(base))
    assert properties.const(base) == {"iter": 1, "pos": 7}


def test_const_propagates_through_join():
    left = Attach(LiteralTable(("a",), [(1,), (2,)]), "c", 5)
    right = LiteralTable(("b",), [(1,)])
    join = Join(left, right, Predicate.equality("a", "b"))
    properties = infer_properties(Serialize(join))
    assert properties.const(join)["c"] == 5 and properties.const(join)["b"] == 1


def test_keys_of_doc_and_rowid_and_distinct():
    doc = DocTable()
    rowid = RowId(Project(doc, [("item", "pre")]), "inner")
    distinct = Distinct(Project(doc, [("kind", "kind")]))
    properties = infer_properties(Serialize(Cross(rowid, distinct)))
    assert frozenset({"pre"}) in properties.keys(doc)
    assert frozenset({"inner"}) in properties.keys(rowid)
    assert frozenset({"kind"}) in properties.keys(distinct)


def test_key_preserved_through_equi_join_on_key():
    doc = DocTable()
    left = Project(doc, [("a", "pre"), ("n", "name")])
    right = Project(doc, [("b", "pre")])
    join = Join(left, right, Predicate.equality("a", "b"))
    properties = infer_properties(Serialize(join))
    assert any(key <= {"a", "n", "b"} and ("a" in key or "b" in key) for key in properties.keys(join))


def test_set_false_below_root_true_below_distinct():
    doc = DocTable()
    select = Select(doc, Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    distinct = Distinct(select)
    plan = Serialize(distinct)
    properties = infer_properties(plan)
    assert properties.is_set(select) is True
    assert properties.is_set(distinct) is False


def test_rank_key_inference():
    base = LiteralTable(("iter", "pos"), [(1, 1), (1, 2), (2, 1)])
    rank = RowRank(base, "r", ("iter", "pos"))
    properties = infer_properties(Serialize(rank))
    assert frozenset({"iter", "pos"}) in properties.keys(base)
    assert any("r" in key for key in properties.keys(rank))
