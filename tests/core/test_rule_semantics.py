"""Rules checked on meaning: every registered rule over drawn operand tables.

Each rule's exemplar plan is a fixed shape over ``doc`` and literal-table
leaves.  Here every leaf is replaced by a drawn small
:class:`~repro.algebra.operators.LiteralTable` with the leaf's columns, and
the head projection gains drawn extra columns of the body it reads — constant
or not — which an optional selection on top then actually needs.  The rule is
applied wherever its guard holds (the driver runs it to its fixpoint), and

* the naive interpreter (``compiled=False``) decodes the same item sequence
  from the plan before and after, and
* the driver records no rejected application.

A guard weaker or stronger than its builder needs fails here: weakening rule
(7)'s guard from ``drop = const - needed`` to ``drop = const`` drops a
constant column the head still reads, which the glue turns away as a
rejection (``test_a_weakened_shrink_distinct_guard_is_caught``).  A ``doc``
stand-in keeps ``pre`` a key, as in every encoded document; its other
columns, and every other leaf, are drawn freely.

The icols normaliser (rules (1)-(4) as one pass) has its own property over
random DAGs of π / @ / ϱ / # with shared sub-plans: one pass from the root
keeps the rows, drops no column a parent still mentions (its structural
references), and leaves nothing for a second pass; the driver's passes from
the dirty frontier end where the reference's from the root do.  A
normaliser on Table II's strict rule — a π needs only its needed items'
sources — fails it (``test_a_normaliser_that_ignores_refs_is_caught``).

200 examples per property in tier-1; set ``REPRO_PROBE_EXAMPLES`` for a
deeper run (the nightly sweep runs 20 000).
"""

import dataclasses
import inspect
import os
import textwrap

import pytest
from hypothesis import HealthCheck, find, given, settings, strategies as st

from repro.algebra.dag import iter_nodes, parents_map
from repro.algebra.interpreter import PlanInterpreter
from repro.algebra.operators import (
    Attach,
    Cross,
    DocTable,
    LiteralTable,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.algebra.predicates import COMPARISON_OPS, ColumnRef, Comparison, Literal, Predicate
from repro.algebra.table import Table
from repro.core import properties as properties_module
from repro.core.properties import infer_properties
from repro.core.rewrite import CLEANUP_GROUP, REGISTRY, run_phases
from repro.core.rewrite import normalize as normalize_module
from repro.core.rewrite.normalize import NORMALIZE
from repro.core.rewrite import rules as rules_module
from repro.errors import AlgebraError
from repro.xmldb.encoding import DOC_COLUMNS

from tests.core.restart_reference import (
    driver_records,
    full_render,
    isolate_by_restart,
    normalized,
    pushout,
)

EXAMPLES = int(os.environ.get("REPRO_PROBE_EXAMPLES", "200"))

PROBE = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_EMPTY_DOC = Table(DOC_COLUMNS, [])
_VALUES = st.integers(0, 3)


@st.composite
def _table(draw, leaf):
    count = draw(st.integers(0, 4))
    columns = []
    for column in leaf.columns:
        if isinstance(leaf, DocTable) and column == "pre":
            values = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count, unique=True))
        elif draw(st.booleans()):
            values = [draw(_VALUES)] * count  # a constant column
        else:
            values = draw(st.lists(_VALUES, min_size=count, max_size=count))
        columns.append(values)
    return LiteralTable(leaf.columns, list(zip(*columns)) if columns else [])


def substitute_leaves(plan, tables):
    """``plan`` rebuilt with each leaf ``id`` in ``tables`` replaced (sharing kept)."""
    built = {}
    for node in iter_nodes(plan):
        if node.is_leaf:
            built[id(node)] = tables.get(id(node), node)
        else:
            built[id(node)] = node.with_children([built[id(child)] for child in node.children])
    return built[id(plan)]


@st.composite
def instances(draw, exemplar):
    """An exemplar over drawn leaves, with a head that needs drawn extra columns."""
    plan = exemplar()
    plan = plan if isinstance(plan, Serialize) else Serialize(plan)
    leaves = [node for node in iter_nodes(plan) if node.is_leaf]
    plan = substitute_leaves(plan, {id(leaf): draw(_table(leaf)) for leaf in leaves})
    head = plan.child
    if isinstance(head, Project):
        body, items = head.child, list(head.items)
    else:
        body, items = head, [("pos", "pos"), ("item", "item")]
    extras = draw(st.lists(st.sampled_from(body.columns), unique=True, max_size=3))
    top = Project(body, items + [(f"x_{column}", column) for column in extras])
    if extras and draw(st.booleans()):
        column = draw(st.sampled_from(extras))
        comparison = Comparison(
            ColumnRef(f"x_{column}"), draw(st.sampled_from(COMPARISON_OPS)), Literal(draw(_VALUES))
        )
        top = Select(top, Predicate.of(comparison))
    return Serialize(top)


def decoded(plan):
    """The item sequence the naive interpreter delivers: items in ``pos`` order.

    ``pos`` orders, it is not a value: rule (12) replaces a rank by its
    ordering source, which keeps the order but not the numbers.
    """
    table = PlanInterpreter(_EMPTY_DOC, compiled=False).evaluate(plan)
    pos, item = table.column_index("pos"), table.column_index("item")
    return [row[item] for row in sorted(table.rows, key=lambda row: row[pos])]


def apply_rule(rule, plan):
    """Run ``rule`` alone to its fixpoint; ``(rewritten plan, driver)``."""
    return run_phases(plan, [(rule.name, (rule,))])


def meaning_kept(rule, plan) -> bool:
    rewritten, driver = apply_rule(rule, plan)
    return not driver.rejections and decoded(rewritten) == decoded(plan)


def fires(rule, plan) -> bool:
    return bool(apply_rule(rule, plan)[1].steps)


@pytest.mark.parametrize("rule", REGISTRY.rules, ids=lambda rule: rule.name)
def test_a_rule_keeps_the_meaning_of_its_drawn_exemplars(rule):
    @PROBE
    @given(instances(rule.exemplar))
    def check(plan):
        rewritten, driver = apply_rule(rule, plan)
        assert not driver.rejections, [r.describe() for r in driver.rejections]
        assert decoded(rewritten) == decoded(plan)

    check()


@pytest.mark.parametrize("rule", REGISTRY.rules, ids=lambda rule: rule.name)
def test_a_rule_fires_on_some_drawn_exemplar(rule):
    """The property above is not vacuous: the guard holds on drawn instances."""
    find(instances(rule.exemplar), lambda plan: fires(rule, plan), settings=PROBE)


def mutated(module, name, original, mutant):
    """``module.name`` recompiled with ``original`` replaced in its source."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert original in source, f"{name} no longer reads {original!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(original, mutant), module.__file__, "exec"), namespace)
    return namespace[name]


def mutated_rule(rule, guard_name, original, mutant):
    """``rule`` with one line of its guard's source replaced."""
    return dataclasses.replace(rule, guard=mutated(rules_module, guard_name, original, mutant))


def test_a_weakened_shrink_distinct_guard_is_caught():
    """Rule (7) with ``drop = const`` fails the property (every tier-1 test
    else passes with it): a drawn head that reads the constant ``one`` above
    the δ makes the weakened rule drop a column the head needs."""
    rule = mutated_rule(
        REGISTRY.get("shrink_distinct(7)"),
        "_guard_shrink_distinct",
        "drop = const - needed",
        "drop = const",
    )
    find(instances(rule.exemplar), lambda plan: not meaning_kept(rule, plan), settings=PROBE)


# -- the normaliser's own property ----------------------------------------------------


@st.composite
def stacks(draw):
    """A random DAG of π / @ / ϱ / # over literal tables, shared sub-plans
    included, under a head that needs a drawn column set of one or two of
    its nodes (side by side under a ×, where one side may be needed not at
    all, so that its columns are only mentioned).
    """
    names = iter(f"c{n}" for n in range(1000))
    pool = []
    for _ in range(draw(st.integers(1, 2))):
        leaf = LiteralTable([next(names) for _ in range(draw(st.integers(1, 3)))], [])
        pool.append(draw(_table(leaf)))
    for _ in range(draw(st.integers(1, 8))):
        below = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(("project", "attach", "rank", "rowid")))
        if kind == "project":
            sources = draw(st.lists(st.sampled_from(below.columns), min_size=1, max_size=4))
            node = Project(below, [(next(names), source) for source in sources])
        elif kind == "attach":
            node = Attach(below, next(names), draw(_VALUES))
        elif kind == "rank":
            order = draw(st.lists(st.sampled_from(below.columns), min_size=1, max_size=2, unique=True))
            rest = [column for column in below.columns if column not in order]
            partition = draw(st.lists(st.sampled_from(rest), max_size=1)) if rest else []
            node = RowRank(below, next(names), order, partition)
        else:
            node = RowId(below, next(names))
        pool.append(node)
    heads = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    sides, needed = [], []
    for side, node in enumerate(heads):
        sides.append(Project(node, [(f"s{side}_{column}", column) for column in node.columns]))
        drawn = draw(st.lists(st.sampled_from(node.columns), unique=True, max_size=3))
        needed += [f"s{side}_{column}" for column in drawn]
    body = sides[0] if len(sides) == 1 else Cross(*sides)
    needed = needed or [body.columns[0]]
    top = Project(body, [(column, column) for column in needed])
    if draw(st.booleans()):
        comparison = Comparison(
            ColumnRef(draw(st.sampled_from(needed))),
            draw(st.sampled_from(COMPARISON_OPS)),
            Literal(draw(_VALUES)),
        )
        top = Select(top, Predicate.of(comparison))
    return Serialize(top)


def table_rows(plan):
    """The rows ``compiled=False`` delivers, as column → value maps in order."""
    table = PlanInterpreter(_EMPTY_DOC, compiled=False).evaluate(plan)
    return [dict(zip(table.columns, row)) for row in table.rows]


def one_pass(plan):
    """A normaliser pass from the root over cold properties: the replacement
    map and the plan it glues to (every rebuilt operator re-checked)."""
    order = list(iter_nodes(plan))
    position = {id(node): at for at, node in enumerate(order)}
    replacements = normalize_module.normalize(
        parents_map(plan), infer_properties(plan), order, position
    )
    return replacements, pushout(plan, replacements).root


def normaliser_faults(plan):
    """What is wrong with one normaliser pass over ``plan`` (empty if
    nothing): a dropped column some parent still mentions (the glue's
    operator checks refuse the plan), rows that differ, or a second pass
    that still finds work."""
    try:
        _replacements, normal = one_pass(plan)
    except AlgebraError as error:
        return [f"a mentioned column is dropped: {error}"]
    faults = []
    if table_rows(normal) != table_rows(plan):
        faults.append("rows differ")
    if one_pass(normal)[0]:
        faults.append("a second pass still rewrites")
    return faults


@PROBE
@given(stacks())
def test_the_normaliser_keeps_meaning_and_refs_and_is_idempotent(plan):
    assert normaliser_faults(plan) == []
    # The driver's frontier passes end where the pass from the root does.
    rewritten, driver = run_phases(plan, [("normalize", CLEANUP_GROUP)], normalize=True)
    reference, applications, rejections = isolate_by_restart(
        plan, [("normalize", CLEANUP_GROUP)], normalize=True
    )
    assert not driver.rejections and not rejections
    assert driver_records(driver.steps, driver.rejections)[0] == normalized(applications)
    assert full_render(rewritten) == full_render(reference)


def test_a_projection_fuses_through_an_operator_the_pass_drops():
    """Once rule (5) turns the × into ``@`` s, the shared ``@ c6`` keeps one
    parent, which does not need ``c6``: the pass drops it, and the
    projection above — itself untouched by the step — fuses with the one
    below.  Found by the property above at 20 000 examples: the driver's
    pass from the frontier missed the fusion the pass from the root made."""
    below = Attach(Project(LiteralTable(("c0",), [(1,)]), [("c3", "c0")]), "c6", 0)
    kept = Project(below, [("s0_c3", "c3")])
    constant = Project(below, [("s1_c3", "c3"), ("s1_c6", "c6")])
    plan = Serialize(Project(Cross(kept, constant), [(c, c) for c in ("s0_c3", "s1_c3", "s1_c6")]))
    phases = [("normalize", CLEANUP_GROUP)]
    rewritten, driver = run_phases(plan, phases, normalize=True)
    reference, applications, _rejections = isolate_by_restart(plan, phases, normalize=True)
    assert driver_records(driver.steps, driver.rejections)[0] == normalized(applications)
    assert full_render(rewritten) == full_render(reference)
    assert [step.rule for step in driver.steps] == ["cross_to_attach(5)", NORMALIZE]
    assert "π s0_c3:c0" in full_render(rewritten)


def test_a_normaliser_that_ignores_refs_is_caught(monkeypatch):
    """Table II's strict rule — a π needs only the sources of its needed
    items, not every column it references — in the inference and in the
    pass drops a column a parent still mentions: a projection nobody needs
    anything of keeps all of its items."""
    strict = mutated(
        properties_module,
        "child_needed",
        "for _new, old in parent.items)",
        "for new, old in parent.items if new in needed)",
    )
    monkeypatch.setattr(properties_module, "child_needed", strict)
    monkeypatch.setattr(normalize_module, "child_needed", strict)
    monkeypatch.setattr(
        normalize_module,
        "Pass",
        mutated(
            normalize_module,
            "Pass",
            "for _new, old in items)",
            "for new, old in items if new in state)",
        ),
    )
    find(stacks(), lambda plan: bool(normaliser_faults(plan)), settings=PROBE)
