"""Restart-from-root isolation: the reference the rewrite driver is tested against.

The obviously-correct way to run a peephole rewriting system: after every
application re-infer all plan properties *cold* and re-scan the plan from
the root, trying every rule of the phase at every node.  One step costs
O(nodes × rules) guard evaluations, so this is not a production driver —
it exists so the tests can demand that
:class:`~repro.core.rewrite.engine.WorklistDriver`, which skips nodes it
has proved unchanged, keeps its properties across steps and glues
replacements into a mutable plan copy in place, applies the identical
rules to the identical targets in the identical order and turns away the
identical applications.  Nothing here is shared with that machinery: the
plan stays immutable and every step is glued with the pure
:func:`~repro.algebra.dag.pushout`.

:func:`driver_records` renders a driver run in the reference's record
format and :func:`normalize` erases the process-wide fresh-column
numbering, so the two sides compare with ``==``;
:func:`assert_driver_matches_reference` is that comparison for one stacked
plan, and :func:`main` runs it over generated queries (the nightly sweep).
"""

import itertools
import re

from repro.algebra.dag import iter_nodes, pushout
from repro.algebra.operators import Serialize
from repro.algebra.render import render_plan
from repro.core.properties import infer_properties
from repro.core.rewrite import RuleContext
from repro.core.rewriter import JoinGraphIsolation
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


def assert_driver_matches_reference(plan, label=""):
    """Isolate ``plan`` with the driver and the reference; demand identical
    applications, rejections and rendered plans.  Returns the driver's report."""
    RuleContext._fresh_columns = itertools.count(1)
    reference_plan, applications, rejections = isolate_by_restart(
        plan, JoinGraphIsolation().phases()
    )
    RuleContext._fresh_columns = itertools.count(1)
    driver_plan, report = JoinGraphIsolation().isolate(plan)
    steps, rejected = driver_records(report.applications, report.rejections)
    assert normalized(applications) == steps, f"applications diverge {label}"
    assert normalized(rejections) == rejected, f"rejections diverge {label}"
    assert normalize(render_plan(reference_plan)) == normalize(
        render_plan(driver_plan)
    ), f"isolated plans diverge {label}"
    assert report.converged, f"driver did not converge {label}"
    return report


def main(count, seed):
    """Compare driver and reference on ``count`` generated queries; the first
    divergence raises with the reproducing ``(seed, index, source)`` triple."""
    from repro.testing.queries import QueryGenerator
    from repro.xquery.compiler import CompilerSettings, compile_query

    settings = CompilerSettings(default_document="site.xml")
    for query in QueryGenerator(seed).corpus(count):
        assert_driver_matches_reference(
            compile_query(query.source, settings),
            f"(seed={query.seed} index={query.index} source={query.source!r})",
        )
    print(f"driver == restart reference on {count} generated queries (seed {seed})")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    options = parser.parse_args()
    main(options.count, options.seed)
