"""Tests for join graph isolation: rule applications and semantic preservation."""

import pytest

from repro.algebra.dag import count_operators, node_count
from repro.algebra.interpreter import evaluate_plan
from repro.algebra.operators import Distinct, DocTable, Join, RowId, RowRank
from repro.algebra.table import Table
from repro.core.rewriter import JoinGraphIsolation, isolate
from repro.xmldb.encoding import DOC_COLUMNS
from repro.xquery.compiler import compile_query

QUERIES = {
    "q_step": 'doc("auction.xml")/descendant::open_auction',
    "q1": 'doc("auction.xml")/descendant::open_auction[bidder]',
    "q_two_steps": 'doc("auction.xml")//open_auction/child::bidder/child::increase',
    "q_value": 'doc("auction.xml")//open_auction[@id = "2"]',
    "q_numeric": 'doc("auction.xml")//open_auction[initial > 10]',
    "q_for": 'for $a in doc("auction.xml")//open_auction return $a/child::bidder',
    "q_text": 'doc("auction.xml")//bidder/child::time/child::text()',
}


def _items(table: Table) -> set:
    index = table.column_index("item")
    return {row[index] for row in table.rows}


@pytest.mark.parametrize("name,query", sorted(QUERIES.items()))
def test_isolation_preserves_semantics(name, query, small_auction_doc_table):
    original = compile_query(query)
    isolated, report = isolate(original)
    assert report.converged
    before = _items(evaluate_plan(original, small_auction_doc_table))
    after = _items(evaluate_plan(isolated, small_auction_doc_table))
    assert before == after


@pytest.mark.parametrize("name,query", sorted(QUERIES.items()))
def test_isolation_moves_blocking_operators_to_tail(name, query):
    original = compile_query(query)
    isolated, _report = isolate(original)
    assert count_operators(isolated, Distinct) <= 1
    assert count_operators(isolated, RowRank) <= 1
    assert count_operators(isolated, RowId) == 0
    assert node_count(isolated) < node_count(original)


def test_q1_isolates_to_three_fold_self_join():
    original = compile_query(QUERIES["q1"])
    isolated, _report = isolate(original)
    # Fig. 7: the join bundle is a three-fold self join of doc -> two joins.
    assert count_operators(isolated, Join) == 2
    assert count_operators(isolated, DocTable) == 1


def test_report_records_rule_applications():
    original = compile_query(QUERIES["q1"])
    _isolated, report = isolate(original)
    fired = report.rules_fired()
    assert any("key_join_collapse" in rule for rule in fired)
    assert any("rank_to_project" in rule for rule in fired)
    assert report.final_operator_count < report.initial_operator_count


def test_goals_can_be_disabled_for_ablation():
    original = compile_query(QUERIES["q1"])
    config = JoinGraphIsolation(enable_join_goal=False, enable_distinct_goal=False)
    partial, report = config.isolate(original)
    full, _ = isolate(original)
    assert count_operators(partial, Join) > count_operators(full, Join)
    cleanup_only, _ = JoinGraphIsolation(
        enable_rank_goal=False, enable_join_goal=False, enable_distinct_goal=False
    ).isolate(original)
    assert node_count(full) <= node_count(cleanup_only)


def test_step_limit_guards_termination():
    original = compile_query(QUERIES["q1"])
    config = JoinGraphIsolation(max_steps=3)
    _plan, report = config.isolate(original)
    assert not report.converged
