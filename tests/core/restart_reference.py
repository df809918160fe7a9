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
plan stays immutable and every step is glued with the pure :func:`pushout`
defined here, which rebuilds every ancestor of a replaced node.  The one
shared piece is the icols normaliser itself
(:func:`~repro.core.rewrite.normalize.normalize`): the reference runs it
from the root over cold properties on the input plan and after every
structural step, the driver from the dirty frontier over the properties it
keeps, and the two must agree pass for pass.

:func:`driver_records` renders a driver run in the reference's record
format and :func:`normalize` erases the fresh-column numbering (the
reference, one context per step, numbers afresh above the plan's own
suffixes at every step; the driver numbers once per run), so the two sides
compare with ``==``;
:func:`assert_driver_matches_reference` is that comparison for one stacked
plan, and :func:`main` runs it over generated queries and the named shapes
(``pathN``, ``predN``, ``forN``; the nightly sweep).
"""

import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.algebra.dag import iter_nodes, parents_map
from repro.algebra.operators import Operator, Serialize
from repro.algebra.render import render_plan
from repro.core.properties import infer_properties
from repro.core.rewrite import RuleContext
from repro.core.rewrite.normalize import NORMALIZE, normalize as normalize_pass
from repro.core.rewriter import JoinGraphIsolation
from repro.errors import AlgebraError


# -- the pure gluing ---------------------------------------------------------------


@dataclass
class Pushout:
    """The result of gluing replacement subplans into a plan DAG.

    Named after the double-pushout reading of a rewrite step (cf. chyp /
    ReGraph): the *preserved part* is everything the substitution map does
    not mention, and it embeds into both the old plan and the new one.
    ``root`` is the rebuilt plan; ``glued`` maps ``id(old node)`` to the
    object that took its place at the top-level gluing context.
    """

    root: Operator
    glued: dict[int, Operator] = field(default_factory=dict)


def pushout(root: Operator, replacements: Mapping[int, Operator]) -> Pushout:
    """Rebuild the DAG with ``replacements`` (keyed by ``id`` of the old node).

    The pure gluing: nothing is mutated, every ancestor of a replaced node
    is re-created.  (:func:`~repro.algebra.dag.glue` is its in-place
    counterpart for a thawed plan; the rewrite tests hold the two against
    each other.)

    Sharing is preserved *by construction*: the preserved part — every node
    the map does not mention — is reused as-is (object identity), and every
    reference to a replaced node resolves to one single replacement object,
    *including* references buried inside other replacement subtrees.  A
    replacement may legitimately contain the very node it replaces (rules
    such as (8) wrap the matched operator); that occurrence belongs to the
    preserved part — the ``p → lhs`` / ``p → rhs`` inclusions of a pushout
    complement — and is kept verbatim instead of being replaced again, which
    is what the ``banned`` set tracks.

    Rewriting inside replacements matters for multi-node substitution maps
    (the key-join collapse returns one): a replacement that still references
    the *old* version of another replaced node must see its new version, or
    the plan ends up with two divergent copies of a shared operator — which
    silently breaks every rewrite premise that relies on shared anchors
    (``left_origin[0] is right_origin[0]``).

    Nothing here recurses: plan depth grows with query size (one level per
    path step), and a hostile query must not be able to exhaust the Python
    stack.
    """
    #: ``reach[id(node)]`` = the replacement keys reachable from ``node``,
    #: folded bottom-up over the plan and over every replacement subtree
    #: (the only objects the walk below can visit).  Memo keys pair a
    #: node id with the *relevant* slice of the banned set (``banned &
    #: reach``), so a node rebuilt in unrelated contexts still resolves to
    #: one single object.
    reach: dict[int, frozenset[int]] = {}
    for start in (root, *replacements.values()):
        for node in iter_nodes(start):
            if id(node) in reach:
                continue
            acc: frozenset[int] = frozenset()
            for child in node.children:
                acc |= reach[id(child)]
            if id(node) in replacements:
                acc |= frozenset((id(node),))
            reach[id(node)] = acc

    memo: dict[tuple[int, frozenset[int]], Operator] = {}
    glued: dict[int, Operator] = {}

    # Depth-first walk over ``(node, banned)`` frames: a frame is expanded
    # once (its children — or, for a replaced node outside its own
    # replacement, the replacement — are pushed on top of it) and finished
    # when it resurfaces, by which time everything it depends on is in
    # ``memo``.
    stack: list[tuple[Operator, frozenset[int], bool]] = [(root, frozenset(), False)]
    while stack:
        node, banned, expanded = stack.pop()
        node_id = id(node)
        effective = banned & reach[node_id]
        key = (node_id, effective)
        replaced = node_id in replacements and node_id not in banned
        if not expanded:
            if key in memo:
                continue
            stack.append((node, banned, True))
            if replaced:
                stack.append(
                    (replacements[node_id], banned | frozenset((node_id,)), False)
                )
            else:
                for child in reversed(node.children):
                    stack.append((child, effective, False))
            continue
        if replaced:
            replacement = replacements[node_id]
            inner = (banned | frozenset((node_id,))) & reach[id(replacement)]
            result = memo[(id(replacement), inner)]
            # Record the top-level gluing only (first context reaching the
            # node): deeper banned contexts rebuild preserved occurrences.
            glued.setdefault(node_id, result)
        else:
            new_children = [
                memo[(id(child), effective & reach[id(child)])]
                for child in node.children
            ]
            if all(new is old for new, old in zip(new_children, node.children)):
                result = node
            else:
                result = node.with_children(new_children)
        memo[key] = result
    return Pushout(root=memo[(id(root), frozenset())], glued=glued)


def substitute(root: Operator, replacements: Mapping[int, Operator]) -> Operator:
    """Rebuild the DAG with ``replacements`` — see :func:`pushout`."""
    return pushout(root, replacements).root


def replace_node(root: Operator, old: Operator, new: Operator) -> Operator:
    """Replace one node of the DAG (all references to it) and return the new root."""
    return substitute(root, {id(old): new})


# -- the restart-from-root driver --------------------------------------------------


def normalize(text):
    """Erase the fresh-column numbering for comparison."""
    return re.sub(r"_w\d+", "_wN", text)


def full_render(plan):
    """``render_plan`` with no label cut short: the fresh numbers of the two
    sides differ in length, so a cut would fall at different places."""
    return render_plan(plan, max_label_width=1 << 30)


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


def isolate_by_restart(plan, phases, max_steps=5000, normalize=False):
    """Run the goal sequence; returns ``(plan, applications, rejections)``.

    Applications are ``(rule, target label, replacement label)`` triples and
    rejections ``(rule, target label, error text)`` triples, in the order
    they happened.  With ``normalize``, the normaliser runs from the root
    on the input plan and after every structural step.
    """
    applications, rejections = [], []
    structural = normalize
    for _phase, rules in phases:
        if not rules:
            continue
        while True:
            assert len(applications) < max_steps, "reference did not converge"
            if structural:
                structural = False
                normalized = _normalize_from_root(plan, applications, rejections)
                if normalized is not None:
                    plan = normalized
                    continue
            rewritten = _apply_first(plan, rules, applications, rejections)
            if rewritten is None:
                break
            plan = rewritten
            structural = normalize
    return plan, applications, rejections


def _normalize_from_root(plan, applications, rejections):
    """One normaliser pass seeded with every node, over cold properties."""
    order = list(iter_nodes(plan))
    position = {id(node): at for at, node in enumerate(order)}
    replacements = normalize_pass(parents_map(plan), infer_properties(plan), order, position)
    if not replacements:
        return None
    top = max(replacements, key=position.__getitem__)
    target = order[position[top]]
    try:
        glued = pushout(plan, replacements)
    except AlgebraError as error:
        rejections.append((NORMALIZE, target.label(), str(error)))
        return None
    applications.append((NORMALIZE, target.label(), replacements[top].label()))
    return glued.root


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
    reference_plan, applications, rejections = isolate_by_restart(
        plan, JoinGraphIsolation().phases(), normalize=True
    )
    driver_plan, report = JoinGraphIsolation().isolate(plan)
    steps, rejected = driver_records(report.applications, report.rejections)
    assert normalized(applications) == steps, f"applications diverge {label}"
    assert normalized(rejections) == rejected, f"rejections diverge {label}"
    assert normalize(full_render(reference_plan)) == normalize(
        full_render(driver_plan)
    ), f"isolated plans diverge {label}"
    assert report.converged, f"driver did not converge {label}"
    return report


def path_query(steps):
    """The harness's ``pathN`` shape: ``for $x in doc(..)//b return $x/c/c/…``."""
    return 'for $x in doc("nested.xml")//b return $x' + "/c" * steps


def pred_query(depth):
    """Nested predicates ``depth`` deep: ``doc("nested.xml")/a[b[b[…]]]``."""
    return 'doc("nested.xml")/a' + "[b" * depth + "]" * depth


def for_query(depth):
    """``depth`` nested FLWORs, each binding ``doc("nested.xml")//b``."""
    fors = "".join(f'for $v{i} in doc("nested.xml")//b return ' for i in range(depth))
    return fors + f"$v{depth - 1}"


#: The named query shapes, by prefix.
SHAPES = {"path": path_query, "pred": pred_query, "for": for_query}


def shape_query(shape):
    """The query of a named shape: ``pathN``, ``predN`` or ``forN``."""
    match = re.fullmatch(r"(path|pred|for)(\d+)", shape)
    if match is None:
        raise ValueError(f"unknown shape {shape!r} (expected pathN, predN or forN)")
    return SHAPES[match.group(1)](int(match.group(2)))


def main(count, seed, shapes=()):
    """Compare driver and reference on ``count`` generated queries and on the
    named ``shapes``; the first divergence raises with the reproducing
    ``(seed, index, source)`` triple (or the shape's name)."""
    from repro.testing.queries import QueryGenerator
    from repro.xquery.compiler import CompilerSettings, compile_query

    settings = CompilerSettings(default_document="site.xml")
    for query in QueryGenerator(seed).corpus(count):
        assert_driver_matches_reference(
            compile_query(query.source, settings),
            f"(seed={query.seed} index={query.index} source={query.source!r})",
        )
    for shape in shapes:
        report = assert_driver_matches_reference(
            compile_query(shape_query(shape), settings), f"(shape {shape})"
        )
        print(f"driver == restart reference on {shape} ({report.steps} steps)")
    print(f"driver == restart reference on {count} generated queries (seed {seed})")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shapes", nargs="*", default=(), help="named query shapes, e.g. path128 pred50 for32"
    )
    options = parser.parse_args()
    main(options.count, options.seed, options.shapes)
