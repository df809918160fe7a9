"""Restart-from-root isolation: the reference the rewrite driver is tested against.

The obviously-correct way to run a peephole rewriting system: after every
application re-infer all plan properties *cold* and re-scan the plan from
the root, trying every rule of the phase at every node.  One step costs
O(nodes × rules) guard evaluations, so this is not a production driver —
it exists so the tests can demand that
:class:`~repro.core.rewrite.engine.WorklistDriver`, which skips nodes it
has proved unchanged and migrates its property memos across steps, applies
the identical rules to the identical targets in the identical order and
turns away the identical applications.

:func:`driver_records` renders a driver run in the reference's record
format and :func:`normalize` erases the process-wide fresh-column
numbering, so the two sides compare with ``==``.
"""

import re

from repro.algebra.dag import iter_nodes, pushout
from repro.algebra.operators import Serialize
from repro.core.properties import infer_properties
from repro.core.rewrite import RuleContext
from repro.errors import AlgebraError


def normalize(text):
    """Erase the process-wide fresh-column numbering for comparison."""
    return re.sub(r"_w\d+", "_wN", text)


def normalized(records):
    return [tuple(normalize(field) for field in record) for record in records]


def driver_records(steps, rejections):
    """A driver run's ``RewriteStep`` / ``RejectedApplication`` records as
    the ``(applications, rejections)`` triples :func:`isolate_by_restart`
    returns, normalized."""
    return (
        normalized((step.rule, step.target, step.replacement) for step in steps),
        normalized((r.rule, r.target, r.error) for r in rejections),
    )


def isolate_by_restart(plan, phases, max_steps=5000):
    """Run the goal sequence; returns ``(plan, applications, rejections)``.

    Applications are ``(rule, target label, replacement label)`` triples and
    rejections ``(rule, target label, error text)`` triples, in the order
    they happened.
    """
    applications, rejections = [], []
    for _phase, rules in phases:
        while True:
            assert len(applications) < max_steps, "reference did not converge"
            rewritten = _apply_first(plan, rules, applications, rejections)
            if rewritten is None:
                break
            plan = rewritten
    return plan, applications, rejections


def _apply_first(plan, rules, applications, rejections):
    ctx = RuleContext(plan, infer_properties(plan))
    for node in iter_nodes(plan):
        if isinstance(node, Serialize):
            continue
        for rule in rules:
            result = rule.apply(node, ctx)
            if result is None:
                continue
            replacements = result if isinstance(result, dict) else {id(node): result}
            try:
                glued = pushout(plan, replacements)
            except AlgebraError as error:
                # Locally sound, globally inapplicable: keep scanning.
                rejections.append((rule.name, node.label(), str(error)))
                continue
            applications.append(
                (rule.name, node.label(), replacements[id(node)].label())
            )
            return glued.root
    return None
