"""Tests for DAG traversal, in-place gluing, and the reference's pure gluing."""

import pytest

from repro.algebra.dag import (
    count_operators, find_first, glue, iter_nodes, node_count, operator_histogram,
    parents_map, reaches, shared_nodes, stretches, thaw,
)
from repro.algebra.operators import (
    Attach, Cross, Distinct, DocTable, Join, Project, RowId, Select, Serialize,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate
from repro.core.rewrite.rule import _structural_fingerprint
from repro.errors import AlgebraError
from tests.core.restart_reference import pushout, replace_node, substitute


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
    new_doc = DocTable()
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
    new_doc = DocTable()
    predicate = Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM")))
    # One entry swaps the leaf, the other wraps a mid-chain node in a σ
    # (a replacement containing its own target).
    wrapped = Select(middle, predicate)
    result = pushout(top, {id(doc): new_doc, id(middle): wrapped})

    # Every chain node — and the σ, whose preserved input is one of them —
    # sits above the swapped leaf, so each is rebuilt; the input is intact.
    assert result.root is not top and top.child is chain[-2]
    assert result.glued[id(doc)] is new_doc
    glued_middle = result.glued[id(middle)]
    assert isinstance(glued_middle, Select) and glued_middle is not wrapped
    assert isinstance(glued_middle.child, Distinct) and glued_middle.child is not middle
    # Top to bottom: 2499 δ, the σ, 2501 δ, the new leaf.
    chain_ids = {id(node) for node in chain}
    spine = []
    node = result.root
    while node.children:
        assert id(node) not in chain_ids
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


# -- thaw / glue: the in-place counterpart of pushout -----------------------------------


def _index_snapshot(parents):
    return {node_id: [id(parent) for parent in plist] for node_id, plist in parents.items()}


def _thawed(plan):
    """``(copy, parents, at)``: ``at(node)`` is ``node``'s counterpart in the copy."""
    copy, parents, _order, _first = thaw(plan)
    counterpart = dict(zip(map(id, iter_nodes(plan)), iter_nodes(copy)))
    return copy, parents, lambda node: counterpart[id(node)]


def test_thaw_copies_every_inner_node_and_shares_leaves():
    doc = DocTable()
    plan = Serialize(Cross(Project(doc, [("a", "pre")]), Project(doc, [("b", "pre")])))
    copy, parents, order, first = thaw(plan)
    assert order == list(iter_nodes(copy))
    assert first == stretches(copy)[1]
    assert _structural_fingerprint(copy) == _structural_fingerprint(plan)
    originals = {id(node) for node in iter_nodes(plan) if not node.is_leaf}
    assert not originals & {id(node) for node in iter_nodes(copy)}
    assert shared_nodes(copy) == [doc]
    assert _index_snapshot(parents) == _index_snapshot(parents_map(copy))


def test_glue_rejection_leaves_graph_and_index_untouched():
    """A replacement whose changed ``columns`` make a *far* ancestor's
    constructor raise: validate-then-commit must leave no trace."""
    doc = DocTable()
    left = Distinct(Attach(Project(doc, [("a", "pre")]), "x", 1))
    right = Project(doc, [("b", "pre")])
    plan = Serialize(Project(Join(left, right, Predicate.equality("a", "b")), [("pos", "a"), ("item", "x")]))
    copy, parents, at = _thawed(plan)
    target = at(left.child)
    # Renames a -> b two levels below the join: its inputs would overlap.
    renaming = Project(target, [("b", "a"), ("x", "x")])

    fingerprint = _structural_fingerprint(copy)
    children = {id(node): node.children for node in iter_nodes(copy)}
    columns = {id(node): node.columns for node in iter_nodes(copy)}
    index = _index_snapshot(parents)
    with pytest.raises(AlgebraError, match="join inputs share columns"):
        glue(parents, {id(target): renaming})
    assert _structural_fingerprint(copy) == fingerprint
    assert {id(node): node.children for node in iter_nodes(copy)} == children
    assert {id(node): node.columns for node in iter_nodes(copy)} == columns
    assert _index_snapshot(parents) == index
    assert id(renaming) not in parents


def _glue_matches_pushout(plan, replacements_for):
    """Glue on a thawed copy must build the graph a pushout builds."""
    copy, parents, at = _thawed(plan)
    expected = pushout(copy, replacements_for(at)).root
    expected_fingerprint = _structural_fingerprint(expected)
    glued = glue(parents, replacements_for(at))
    assert _structural_fingerprint(copy) == expected_fingerprint
    assert _index_snapshot(parents).keys() == {id(node) for node in iter_nodes(copy)}
    assert {k: sorted(v) for k, v in _index_snapshot(parents).items()} == {
        k: sorted(v) for k, v in _index_snapshot(parents_map(copy)).items()
    }
    return copy, glued


def test_glue_keeps_the_occurrence_inside_its_own_replacement():
    doc = DocTable()
    select = Select(doc, Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    plan = Serialize(Cross(Project(select, [("k", "kind")]), Project(select, [("p", "pre")])))
    wrappers = {}

    def replacements(at):
        wrapper = wrappers.setdefault(id(at(select)), Distinct(at(select)))
        return {id(at(select)): wrapper}

    copy, glued = _glue_matches_pushout(plan, replacements)
    (distinct,) = [node for node in iter_nodes(copy) if isinstance(node, Distinct)]
    assert isinstance(distinct.child, Select) and glued.fresh == [distinct]
    assert len(glued.rewired) == 2 and not glued.dropped
    assert all(isinstance(node, Project) for node in glued.revalidated)


def test_glue_updates_ancestor_schemas_in_place_and_drops_the_unreachable():
    doc = DocTable()
    attach = Attach(RowId(Project(doc, [("a", "pre")]), "rid"), "dead", 1)
    plan = Serialize(Project(Distinct(Select(attach, Predicate.of(
        Comparison(ColumnRef("a"), ">", Literal(0))))), [("pos", "a"), ("item", "a")]))

    copy, glued = _glue_matches_pushout(
        plan, lambda at: {id(at(attach)): at(attach).child.child}  # drop @ and #
    )
    select = copy.child.child.child
    # σ and δ kept their identity and took the narrower schema; π was
    # re-checked against it and did not change.
    assert [type(node) for node in glued.revalidated] == [Select, Distinct, Project]
    assert [type(node) for node in glued.reschemed] == [Select, Distinct]
    assert copy.child.child.columns == ("a",) and copy.child.columns == ("pos", "item")
    assert select.columns == ("a",) and glued.rewired == [select]
    assert all(node.column_set == frozenset(node.columns) for node in iter_nodes(copy))
    assert [type(node) for node in glued.dropped] == [Attach, RowId]


def test_glue_repoints_references_inside_other_replacements():
    """The multi-entry map of :func:`test_substitute_rewrites_inside_other_replacements`."""
    doc = DocTable()
    rowid = RowId(Project(doc, [("a", "pre")]), "rid")
    consumer_one = Project(rowid, [("x", "rid")])
    plan = Serialize(Cross(consumer_one, Project(rowid, [("y", "rid")])))
    built = {}

    def replacements(at):
        new = built.setdefault(id(at(rowid)), (
            RowId(Project(doc, [("a", "pre"), ("carry", "size")]), "rid"),
            Project(at(rowid), [("x", "rid")]),
        ))
        return {id(at(rowid)): new[0], id(at(consumer_one)): new[1]}

    copy, _glued = _glue_matches_pushout(plan, replacements)
    (survivor,) = [node for node in iter_nodes(copy) if isinstance(node, RowId)]
    assert "carry" in survivor.columns
