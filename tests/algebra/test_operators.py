"""Structural tests for the table algebra operators."""

import os

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.errors import AlgebraError
from repro.algebra.operators import (
    Attach, Cross, Distinct, DocTable, GroupAggregate, Join, LiteralTable, Operator, Project,
    RowId, RowRank, Select, Serialize, literal_column, loop_table,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate


def test_doc_table_schema():
    assert DocTable().columns == ("pre", "size", "level", "kind", "name", "value", "data")


def test_loop_table_and_literal_column():
    assert loop_table().rows == ((1,),)
    assert literal_column("pos", 1).columns == ("pos",)


def test_project_validates_sources():
    with pytest.raises(AlgebraError):
        Project(DocTable(), [("x", "nope")])


def test_project_duplicate_outputs_rejected():
    with pytest.raises(AlgebraError):
        Project(DocTable(), [("x", "pre"), ("x", "size")])


def test_select_validates_predicate_columns():
    with pytest.raises(AlgebraError):
        Select(DocTable(), Predicate.of(Comparison(ColumnRef("missing"), "=", Literal(1))))


def test_join_requires_disjoint_columns():
    with pytest.raises(AlgebraError):
        Join(DocTable(), DocTable(), Predicate.equality("pre", "pre"))


def test_join_output_columns():
    left = Project(DocTable(), [("a", "pre")])
    right = Project(DocTable(), [("b", "pre")])
    join = Join(left, right, Predicate.equality("a", "b"))
    assert join.columns == ("a", "b")


def test_attach_rowid_rank_add_columns():
    base = loop_table()
    assert Attach(base, "pos", 1).columns == ("iter", "pos")
    assert RowId(base, "inner").columns == ("iter", "inner")
    assert RowRank(Attach(base, "pos", 1), "rank", ("pos",)).columns == ("iter", "pos", "rank")


def test_rank_requires_known_order_columns():
    with pytest.raises(AlgebraError):
        RowRank(loop_table(), "rank", ("missing",))


def test_with_children_rebuilds_same_kind():
    select = Select(DocTable(), Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    rebuilt = select.with_children([DocTable()])
    assert isinstance(rebuilt, Select) and rebuilt.predicate is select.predicate


def test_serialize_passes_columns_through():
    plan = Serialize(loop_table())
    assert plan.columns == ("iter",)


def test_labels_are_informative():
    assert "doc" in DocTable().label()
    assert "π" in Project(DocTable(), [("a", "pre")]).label()
    assert "σ" in Select(DocTable(), Predicate.of(Comparison(ColumnRef("pre"), "=", Literal(0)))).label()


# -- the schema check is the constructor's check --------------------------------------

EXAMPLES = int(os.environ.get("REPRO_PROBE_EXAMPLES", "200"))

#: A small column universe, so drawn schemas clash and miss often.
_UNIVERSE = ("a", "b", "c", "item", "iter")

_SCHEMAS = st.lists(st.sampled_from(_UNIVERSE), unique=True, max_size=4).map(tuple)
_SOME = st.lists(st.sampled_from(_UNIVERSE), unique=True, min_size=1, max_size=2)


def _table(columns):
    return LiteralTable(columns, [])


def _predicate(draw):
    left, right = draw(st.sampled_from(_UNIVERSE)), draw(st.sampled_from(_UNIVERSE))
    if draw(st.booleans()):
        return Predicate.equality(left, right)
    return Predicate.of(Comparison(ColumnRef(left), "<", Literal(1)))


def _build(draw, cls):
    """A node of ``cls`` with drawn parameters over drawn input schemas
    (``None`` when the constructor refuses them)."""

    def unary():
        return _table(draw(_SCHEMAS))

    def column():
        return draw(st.sampled_from(_UNIVERSE))

    builders = {
        DocTable: lambda: DocTable(),
        LiteralTable: lambda: LiteralTable(draw(_SCHEMAS), []),
        Serialize: lambda: Serialize(unary()),
        Distinct: lambda: Distinct(unary()),
        Project: lambda: Project(unary(), [(new, column()) for new in draw(_SOME)]),
        Select: lambda: Select(unary(), _predicate(draw)),
        Join: lambda: Join(unary(), unary(), _predicate(draw)),
        Cross: lambda: Cross(unary(), unary()),
        Attach: lambda: Attach(unary(), column(), 1),
        RowId: lambda: RowId(unary(), column()),
        RowRank: lambda: RowRank(unary(), column(), draw(_SOME), draw(_SOME)[:1]),
        GroupAggregate: lambda: GroupAggregate(
            unary(), unary(), "sum", column(), column(), column(), column()
        ),
    }
    try:
        return builders[cls]()
    except AlgebraError:
        return None


_CLASSES = (
    DocTable, LiteralTable, Serialize, Project, Select, Join, Cross, Distinct, Attach,
    RowId, RowRank, GroupAggregate,
)


def test_every_operator_class_is_probed():
    assert set(_CLASSES) == set(Operator.__subclasses__())


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_the_schema_check_is_the_constructors(cls, data):
    """``schema`` over new input schemas accepts exactly what
    ``with_children`` over inputs with those schemas accepts, gives the
    same columns, and refuses with the same message — the rewrite driver's
    glue validates through it and builds nothing."""
    node = _build(data.draw, cls)
    assume(node is not None)
    inputs = [data.draw(_SCHEMAS) for _child in node.children]
    try:
        expected = node.with_children([_table(columns) for columns in inputs]).columns
    except AlgebraError as error:
        expected = str(error)
    try:
        checked = node.schema(inputs)
    except AlgebraError as error:
        checked = str(error)
    assert checked == expected
