"""Per-rule differential tests and registry lint for the declarative rules.

Every registered rule carries an *exemplar* — a small evaluable plan on
which exactly that rule fires.  The differential tests run each rule to its
fixpoint on its own exemplar through the worklist driver **and** the
restart-from-root reference loop (``restart_reference.py``) and assert

* both applied the identical step sequence and produced the identical
  plan (bit for bit, modulo fresh-column numbering), and
* evaluating the exemplar before and after the rewrite yields the same
  decoded sequence — the semantic-preservation contract of Fig. 5.

The lint tests exercise :func:`repro.core.rewrite.rule.validate_rule`: a
rule without a declared pattern root, a non-left-linear pattern, a builder
that mutates operators in place, or one that copies leaves instead of
sharing them must all fail at registration time.
"""

import pytest

from repro.algebra.interpreter import evaluate_plan
from repro.algebra.operators import (
    Attach,
    DocTable,
    Operator,
    Project,
    Serialize,
)
from repro.core.rewrite import (
    REGISTRY,
    Pattern,
    Rule,
    RuleRegistry,
    RuleValidationError,
    run_phases,
    validate_rule,
)
from repro.core.rewrite.rule import MATCHED, PatternIndex, is_left_linear, pattern

from tests.core.restart_reference import (
    driver_records,
    full_render,
    isolate_by_restart,
    normalize,
    normalized,
)


def _exemplar(rule: Rule) -> Serialize:
    plan = rule.exemplar()
    return plan if isinstance(plan, Serialize) else Serialize(plan)


def _run_single_rule(rule: Rule):
    """Run ``rule`` to fixpoint on its own exemplar with the worklist driver."""
    plan = _exemplar(rule)
    rewritten, engine = run_phases(plan, [("exemplar", (rule,))])
    return plan, rewritten, *driver_records(engine.steps, engine.rejections)


# -- per-rule differential ----------------------------------------------------------


@pytest.mark.parametrize("rule", REGISTRY.rules, ids=lambda rule: rule.name)
def test_rule_fires_identically_under_both_drivers(rule):
    reference_plan, reference_steps, reference_rejections = isolate_by_restart(
        _exemplar(rule), [("exemplar", (rule,))]
    )
    _, worklist_plan, worklist_steps, worklist_rejections = _run_single_rule(rule)
    assert worklist_steps, f"rule {rule.name!r} did not fire on its exemplar"
    assert normalized(reference_steps) == worklist_steps
    assert normalized(reference_rejections) == worklist_rejections
    assert normalize(full_render(reference_plan)) == normalize(full_render(worklist_plan))


@pytest.mark.parametrize("rule", REGISTRY.rules, ids=lambda rule: rule.name)
def test_rule_preserves_exemplar_semantics(rule, small_auction_doc_table):
    before, after, steps, _ = _run_single_rule(rule)
    assert steps
    original = evaluate_plan(before, small_auction_doc_table)
    rewritten = evaluate_plan(after, small_auction_doc_table)
    assert _sequence(original) == _sequence(rewritten)


def _sequence(table):
    """The decoded item sequence: items in ``pos`` order.

    ``pos`` is an *ordering* key, not a value — rule (12) legitimately
    replaces a dense rank by its ordering source, so absolute positions
    may change while the decoded sequence stays identical.
    """
    pos = table.column_index("pos")
    item = table.column_index("item")
    return [row[item] for row in sorted(table.rows, key=lambda row: row[pos])]


def test_every_registered_rule_revalidates():
    for rule in REGISTRY:
        validate_rule(rule)  # exemplar run included; must not raise


def test_pattern_index_dispatches_each_rule_at_its_exemplar():
    index = PatternIndex(REGISTRY.rules)
    for rule in REGISTRY:
        plan = rule.exemplar()
        matched = [
            node
            for node in _iter(plan)
            if not isinstance(node, Serialize) and rule in index.for_node(node)
        ]
        assert matched, f"no bucket offers {rule.name!r} on its exemplar"


def _iter(root):
    from repro.algebra.dag import iter_nodes

    return iter_nodes(root)


# -- registry lint ------------------------------------------------------------------


def _head(body: Operator) -> Serialize:
    return Serialize(Project(body, [("pos", "pre"), ("item", "pre")]))


def _attach_exemplar() -> Operator:
    return _head(Attach(DocTable(), "dead", 1))


def _lint_rule(**overrides) -> Rule:
    """A well-formed baseline rule the lint tests break one axis at a time."""
    fields = dict(
        name="lint_rule",
        pattern=pattern(Attach),
        guard=lambda node, ctx: MATCHED,
        build=lambda node, match, ctx: node.children[0],
        exemplar=_attach_exemplar,
    )
    fields.update(overrides)
    return Rule(**fields)


def test_lint_baseline_rule_is_valid():
    validate_rule(_lint_rule())


def test_lint_rejects_missing_pattern_root():
    with pytest.raises(RuleValidationError, match="pattern root"):
        validate_rule(_lint_rule(pattern=Pattern(root=())))


def test_lint_rejects_non_left_linear_pattern():
    # An operator *instance* in the pattern is an identity constraint —
    # exactly what left-linearity forbids (it belongs in the guard).
    shared = DocTable()
    rule = _lint_rule(pattern=Pattern(root=(Attach,), children=((shared,),)))
    assert not is_left_linear(rule)
    with pytest.raises(RuleValidationError, match="left-linear"):
        validate_rule(rule)


def test_lint_rejects_serialize_root():
    with pytest.raises(RuleValidationError, match="serialization point"):
        validate_rule(_lint_rule(pattern=pattern(Serialize)))


def test_lint_rejects_missing_exemplar():
    with pytest.raises(RuleValidationError, match="exemplar"):
        validate_rule(_lint_rule(exemplar=None))


def test_lint_rejects_rule_that_never_fires():
    rule = _lint_rule(guard=lambda node, ctx: None)
    with pytest.raises(RuleValidationError, match="does not fire"):
        validate_rule(rule)


def test_lint_rejects_in_place_mutation():
    def mutating_build(node, match, ctx):
        node.value = 999  # forbidden: operators are immutable by contract
        return node.children[0]

    with pytest.raises(RuleValidationError, match="in place"):
        validate_rule(_lint_rule(build=mutating_build))


def test_lint_rejects_leaf_copying():
    def copying_build(node, match, ctx):
        # A fresh DocTable leaf instead of the matched plan's own object.
        return Attach(DocTable(), node.column, node.value)

    with pytest.raises(RuleValidationError, match="sharing"):
        validate_rule(_lint_rule(build=copying_build))


def test_registry_rejects_duplicate_names():
    registry = RuleRegistry()
    registry.register(_lint_rule())
    with pytest.raises(RuleValidationError, match="duplicate"):
        registry.register(_lint_rule())
