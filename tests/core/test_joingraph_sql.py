"""Tests for join graph extraction and SQL emission (Fig. 7/8/9)."""

import re

import pytest

from repro.errors import JoinGraphError
from repro.core.joingraph import extract_join_graph
from repro.core.rewriter import isolate
from repro.core.sqlgen import generate_join_graph_sql, generate_stacked_sql, render_join_graph
from repro.testing.corpus import XMARK_SUITE, query_by_name
from repro.xquery.compiler import compile_query


def _isolated(query):
    plan, _ = isolate(compile_query(query))
    return plan


def test_q1_join_graph_matches_fig8():
    graph = extract_join_graph(_isolated('doc("auction.xml")/descendant::open_auction[bidder]'))
    assert graph.self_join_width == 3
    assert graph.distinct
    rendered = generate_join_graph_sql(graph)
    assert rendered.startswith("SELECT DISTINCT")
    assert rendered.count("doc AS d") == 3
    assert "name = 'auction.xml'" in rendered
    assert "name = 'open_auction'" in rendered
    assert "name = 'bidder'" in rendered
    assert "ORDER BY" in rendered


def test_join_graph_conditions_are_conjunctive_and_local():
    graph = extract_join_graph(_isolated('doc("auction.xml")//open_auction[@id = "2"]'))
    assert all(len(condition.aliases()) <= 2 for condition in graph.conditions)
    local = [c for alias in graph.aliases for c in graph.conditions_for(alias)]
    assert local  # kind/name tests are per-alias conditions


def test_value_comparison_lands_in_where():
    sql = generate_join_graph_sql(_isolated('doc("auction.xml")//open_auction[initial > 10]'))
    assert "data > 10" in sql


def test_order_by_reflects_document_order():
    sql = generate_join_graph_sql(_isolated('doc("auction.xml")/descendant::open_auction'))
    assert "ORDER BY" in sql and ".pre" in sql


def test_isolation_shrinks_the_join_graph():
    # Extracting directly from the stacked plan either fails or yields a much
    # wider self-join (redundant context joins); isolation gets it down to the
    # three-fold self-join of Fig. 8.
    query = 'doc("auction.xml")/descendant::open_auction[bidder]'
    isolated_width = extract_join_graph(_isolated(query)).self_join_width
    assert isolated_width == 3
    try:
        stacked_width = extract_join_graph(compile_query(query)).self_join_width
    except JoinGraphError:
        return
    assert stacked_width > isolated_width


def test_stacked_sql_mentions_rank_and_distinct():
    stacked = compile_query('doc("auction.xml")/descendant::open_auction[bidder]')
    sql = generate_stacked_sql(stacked)
    assert sql.startswith("WITH ")
    assert "RANK() OVER" in sql
    assert "SELECT DISTINCT" in sql


def test_nested_for_produces_wider_join_graph(xmark_processor):
    q = 'for $a in doc("auction.xml")//closed_auction return $a/child::price/child::text()'
    compilation = xmark_processor.compile(q)
    assert compilation.join_graph is not None
    assert compilation.join_graph.self_join_width >= 3


def test_q2_join_graph_matches_fig9(xmark_processor):
    compilation = xmark_processor.compile(query_by_name("Q2").xquery)
    report = compilation.isolation_report
    assert report.final_operator_count < report.initial_operator_count
    # Fig. 9: one SFW block over a 12-fold self-join of doc.
    assert compilation.join_graph.self_join_width == 12
    assert compilation.join_graph_sql.startswith("SELECT DISTINCT")
    assert compilation.join_graph_sql.count("doc AS d") == 12


def _normalised(sql):
    return " ".join(sql.split())


@pytest.mark.parametrize("name", ["Q2", "Q3", "Q5", "Q6", "Q8", "Q17", "Q20"])
def test_sql_is_built_from_the_engines_blocks(xmark_processor, name):
    """Every sub-graph the relational engine plans renders, clause by
    clause and in order, inside the query's SQL; only the wrappers add
    text (a rank column, the joined-back window keys, a having filter)."""
    (case,) = [case for case in XMARK_SUITE if case.name == name]
    graph = xmark_processor.compile(case.xquery).join_graph
    sql = _normalised(render_join_graph(graph))
    blocks = []  # (block, whether its ORDER BY is the wrapper's)
    if graph.aggregate is not None:
        blocks.append((graph.aggregate_inner(), False))
        if not graph.aggregate.is_scalar:
            blocks.append((graph.aggregate_outer(), True))
    else:
        blocks.append((graph.outer_block(), False))
    blocks += [(graph.window_block(window.spec), False) for window in graph.windows]
    blocks += [(graph.having_argument(having), False) for having in graph.having]
    assert len(blocks) > 1 or graph.aggregate is not None
    for block, wrapped_order in blocks:
        assert not (block.aggregate or block.windows or block.having)
        position = 0
        rendered = _normalised(render_join_graph(block))
        for clause in re.split(r" (?=FROM |WHERE |ORDER BY )", rendered):
            if wrapped_order and clause.startswith("ORDER BY "):
                continue
            assert clause in sql[position:], (name, clause)
            position = sql.index(clause, position) + len(clause)
