"""Tests for DAG traversal and substitution."""

from repro.algebra.dag import (
    count_operators, find_first, iter_nodes, node_count, operator_histogram,
    parents_map, pushout, reaches, replace_node, shared_nodes, substitute,
)
from repro.algebra.operators import Attach, Distinct, DocTable, Project, Select
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate


def _sample_plan():
    doc = DocTable()
    left = Project(doc, [("a", "pre")])
    right = Project(doc, [("b", "pre")])
    top = Attach(Project(left, [("a", "a")]), "c", 1)
    return doc, left, right, top


def test_iter_nodes_visits_each_once():
    doc, left, right, top = _sample_plan()
    nodes = list(iter_nodes(top))
    assert len(nodes) == len({id(n) for n in nodes})
    assert nodes[-1] is top


def test_parents_and_shared_nodes():
    doc = DocTable()
    a = Project(doc, [("a", "pre")])
    b = Project(doc, [("b", "pre")])
    from repro.algebra.operators import Cross
    top = Cross(a, b)
    assert shared_nodes(top) == [doc]
    assert len(parents_map(top)[id(doc)]) == 2


def test_reaches():
    doc, left, right, top = _sample_plan()
    assert reaches(top, doc)
    assert not reaches(left, top)


def test_replace_node_preserves_sharing():
    doc = DocTable()
    a = Project(doc, [("a", "pre")])
    b = Project(doc, [("b", "pre")])
    from repro.algebra.operators import Cross
    top = Cross(a, b)
    new_doc = DocTable("doc2")
    new_top = replace_node(top, doc, new_doc)
    assert shared_nodes(new_top) == [new_doc]
    assert node_count(new_top) == node_count(top)


def test_substitute_allows_wrapping_replacement():
    doc = DocTable()
    select = Select(doc, Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    wrapped = Distinct(select)
    new_root = substitute(select, {id(select): wrapped})
    assert isinstance(new_root, Distinct) and new_root.child is select


def test_histogram_and_counts():
    doc, left, right, top = _sample_plan()
    histogram = operator_histogram(top)
    assert histogram["Project"] == 2
    assert count_operators(top, Project) == 2
    assert find_first(top, lambda n: isinstance(n, DocTable)) is doc


def test_deep_plan_iteration_is_iterative():
    node = DocTable()
    plan = node
    for i in range(3000):
        plan = Attach(plan, f"c{i}", i)
    assert node_count(plan) == 3001


def test_pushout_on_deep_chain_does_not_recurse():
    """Regression: the multi-replacement pushout recursed once per plan level
    (a 150-step path expression died with a raw ``RecursionError``)."""
    doc = DocTable()
    chain = [Distinct(doc)]
    for _ in range(4999):
        chain.append(Distinct(chain[-1]))
    top, middle = chain[-1], chain[2500]
    new_doc = DocTable("other")
    predicate = Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM")))
    # One entry swaps the leaf, the other wraps a mid-chain node in a σ
    # (a replacement containing its own target).
    wrapped = Select(middle, predicate)
    result = pushout(top, {id(doc): new_doc, id(middle): wrapped})

    # Every chain node — and the σ, whose preserved input is one of them —
    # sits above the swapped leaf, so each has exactly one mechanical rebuild.
    assert set(result.rebuilt) == {id(node) for node in chain} | {id(wrapped)}
    assert all(
        isinstance(new, Distinct) and new is not old
        for old, new in zip(chain, (result.rebuilt[id(node)] for node in chain))
    )
    assert result.root is result.rebuilt[id(top)]
    assert result.glued[id(doc)] is new_doc
    glued_middle = result.glued[id(middle)]
    assert glued_middle is result.rebuilt[id(wrapped)]
    assert isinstance(glued_middle, Select)
    assert glued_middle.child is result.rebuilt[id(middle)]
    # Top to bottom: 2499 δ, the σ, 2501 δ, the new leaf.
    spine = []
    node = result.root
    while node.children:
        spine.append(type(node))
        (node,) = node.children
    assert node is new_doc
    assert spine == [Distinct] * 2499 + [Select] + [Distinct] * 2501


def test_substitute_rewrites_inside_other_replacements():
    """Regression: substitute() spliced replacement subtrees verbatim, so a
    replacement that still referenced the *old* version of another replaced
    node left the plan with two divergent copies of a shared operator —
    which silently broke every rewrite premise relying on shared anchors
    (the key-join collapse's ``left_origin is right_origin``)."""
    from repro.algebra.operators import Cross, RowId

    doc = DocTable()
    rowid = RowId(Project(doc, [("a", "pre")]), "rid")
    consumer_one = Project(rowid, [("x", "rid")])
    consumer_two = Project(rowid, [("y", "rid")])
    top = Cross(consumer_one, consumer_two)

    widened_rowid = RowId(Project(doc, [("a", "pre"), ("carry", "size")]), "rid")
    # One replacement's subtree (the rebuilt consumer) still references the
    # OLD rowid; the map also replaces the rowid itself.
    replacements = {
        id(rowid): widened_rowid,
        id(consumer_one): Project(rowid, [("x", "rid")]),
    }
    new_top = substitute(top, replacements)
    rowids = [node for node in iter_nodes(new_top) if isinstance(node, RowId)]
    # Exactly ONE RowId object survives — the widened copy — referenced by
    # both consumers.
    assert len(rowids) == 1
    assert rowids[0] is widened_rowid


def test_substitute_self_reference_still_allowed_in_multi_maps():
    """A replacement wrapping its own target composes with other entries."""
    from repro.algebra.operators import Cross

    doc = DocTable()
    select = Select(doc, Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    other = Project(doc, [("a", "pre")])
    top = Cross(Project(select, [("k", "kind")]), other)
    replacements = {
        id(select): Distinct(select),  # wraps itself
        id(other): Project(doc, [("a", "pre"), ("b", "size")]),
    }
    new_top = substitute(top, replacements)
    distincts = [n for n in iter_nodes(new_top) if isinstance(n, Distinct)]
    assert len(distincts) == 1
    assert distincts[0].child is select  # the self-reference was not re-replaced
