"""SQL emission fixes: literal rendering, deterministic row ids, join order.

Covers the satellite repairs that make the emitted SQL *executable* on a
real RDBMS: Python ``True``/``False``/``None`` leaking into SQL text, the
nondeterministic ``ROW_NUMBER() OVER ()``, and the CROSS JOIN order hint
of ``render_join_graph``.
"""

import sqlite3

import pytest

from repro.errors import JoinGraphError
from repro.algebra.operators import Attach, LiteralTable, RowId, Select, Serialize
from repro.algebra.predicates import Comparison, Literal, Predicate, column, const
from repro.core.joingraph import extract_join_graph
from repro.core.rewriter import isolate
from repro.core.sqlgen import generate_stacked_sql, render_join_graph, sql_term
from repro.sqlbackend import SQLiteBackend
from repro.xquery.compiler import compile_query


# -- sql_term -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, rendered",
    [
        (True, "1"),
        (False, "0"),
        (None, "NULL"),
        (42, "42"),
        (1.5, "1.5"),
        ("plain", "'plain'"),
        ("O'Hara", "'O''Hara'"),
    ],
)
def test_sql_literal_renders_valid_sql(value, rendered):
    assert sql_term(Literal(value)) == rendered


@pytest.mark.parametrize(
    "value, rendered",
    [(True, "1"), (False, "0"), (None, "NULL"), ("O'Hara", "'O''Hara'"), (7, "7")],
)
def test_constant_term_renders_valid_sql(value, rendered):
    assert sql_term(Literal(value)) == rendered


def test_attached_boolean_and_null_render_as_sql(tmp_path):
    plan = Attach(Attach(LiteralTable(("iter",), [(1,)]), "flag", True), "gap", None)
    sql = generate_stacked_sql(plan)
    assert "True" not in sql and "None" not in sql
    # The rendered text must actually execute on a stock RDBMS.
    rows = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert rows == [(1, 1, None)]


def test_predicate_literals_render_as_sql():
    plan = Select(
        LiteralTable(("iter", "flag"), [(1, 1), (2, 0)]),
        Predicate.of(Comparison(column("flag"), "=", const(True))),
    )
    sql = generate_stacked_sql(plan)
    assert "= 1" in sql and "True" not in sql
    assert sqlite3.connect(":memory:").execute(sql).fetchall() == [(1, 1)]


# -- deterministic ROW_NUMBER ------------------------------------------------------


def test_rowid_rendering_orders_over_input_columns():
    plan = RowId(LiteralTable(("v",), [(3,), (1,), (2,)]), "rid")
    sql = generate_stacked_sql(plan)
    assert "ROW_NUMBER() OVER ()" not in sql
    assert "ROW_NUMBER() OVER (ORDER BY v)" in sql
    rows = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert sorted(rows) == [(1, 1), (2, 2), (3, 3)]  # ids follow the v order


def test_stacked_sql_has_no_unordered_window():
    stacked = compile_query(
        'for $a in doc("auction.xml")/descendant::open_auction return $a/child::initial'
    )
    sql = generate_stacked_sql(stacked)
    assert "OVER ()" not in sql


# -- join order hints ---------------------------------------------------------------


def _graph(query='doc("auction.xml")/descendant::open_auction[bidder]'):
    plan, _report = isolate(compile_query(query))
    return extract_join_graph(plan)


def test_render_join_graph_with_explicit_join_order():
    graph = _graph()
    hinted = render_join_graph(graph, join_order=list(reversed(graph.aliases)))
    assert "CROSS JOIN" in hinted
    # Same SELECT/WHERE content, different FROM shape.
    default = render_join_graph(graph)
    assert hinted.splitlines()[0] == default.splitlines()[0]
    assert default.count("doc AS") == hinted.count("doc AS")


def test_render_join_graph_rejects_non_permutations():
    graph = _graph()
    with pytest.raises(JoinGraphError):
        render_join_graph(graph, join_order=graph.aliases[:-1])
    with pytest.raises(JoinGraphError):
        render_join_graph(graph, join_order=graph.aliases + ["d99"])


def test_join_order_variants_agree_on_sqlite(small_auction_encoding):
    backend = SQLiteBackend.from_encoding(small_auction_encoding)
    graph = _graph()
    default = backend.execute(render_join_graph(graph)).rows
    hinted = backend.execute(
        render_join_graph(graph, join_order=list(reversed(graph.aliases)))
    ).rows
    assert default == hinted
    assert default  # the small document has qualifying auctions


# -- windowed-rank determinism ------------------------------------------------------


def test_windowed_rank_is_join_order_invariant(small_auction_encoding):
    """DENSE_RANK ranks must not depend on the FROM clause's join order.

    The positional window is computed in its own derived table over the
    rank's pinned alias/condition prefix — never over the full SFW block —
    so pinning the CROSS JOIN order (any permutation) may change the access
    path but must return bit-for-bit identical rows.  This is the
    regression gate for the windowed-rank isolation of the coverage-matrix
    close: a rank accidentally computed over the joined result would shift
    with row arrival order and break exactly this test.
    """
    backend = SQLiteBackend.from_encoding(small_auction_encoding)
    graph = _graph(
        "for $a in doc(\"auction.xml\")/descendant::open_auction "
        "return $a/child::bidder[2]"
    )
    assert graph.windows, "the positional predicate must compile to a window"
    default_sql = render_join_graph(graph)
    assert "DENSE_RANK() OVER" in default_sql
    default = backend.execute(default_sql).rows
    assert default  # the small document has auctions with a second bidder
    permutations = [
        list(reversed(graph.aliases)),
        graph.aliases[1:] + graph.aliases[:1],  # rotation
        graph.aliases[-1:] + graph.aliases[:-1],
    ]
    for order in permutations:
        pinned_sql = render_join_graph(graph, join_order=order)
        assert "CROSS JOIN" in pinned_sql
        assert backend.execute(pinned_sql).rows == default, order


def test_windowed_rank_scope_excludes_downstream_joins(small_auction_encoding):
    """The window ranks over its own condition prefix, not the full block.

    A downstream join partner (here the ``increase`` child the result
    projects) must not constrain the window subquery: joining bidders to
    their ``increase`` children *before* ranking would eliminate
    increase-less bidders and renumber everyone after the gap.  The
    bidder-to-increase ancestor join therefore appears only in the outer
    block, never inside the derived window table.
    """
    graph = _graph(
        "for $a in doc(\"auction.xml\")/descendant::open_auction "
        "return $a/child::bidder[1]/child::increase"
    )
    assert graph.windows
    sql = render_join_graph(graph)
    subquery = sql[sql.index("(SELECT") : sql.index(") AS w1")]
    outer = sql[sql.index(") AS w1") :]
    # d2=bidder, d1=increase: the step join is outer-only.
    assert "d2.pre < d1.pre" not in subquery
    assert "d2.pre < d1.pre" in outer
    # ...and the ranking itself partitions/orders only on auction/bidder.
    over = subquery[subquery.index("DENSE_RANK") : subquery.index(" AS rnk")]
    assert "d1" not in over
