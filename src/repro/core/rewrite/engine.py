"""The isolation driver: a pattern-indexed worklist over dirty nodes.

:class:`WorklistDriver` runs the declarative rule groups phase by phase.
One *step* walks the plan in post-order, applies the first rule that
matches (in node, then rule-group order), glues the replacement into the
plan, and starts over; a phase ends when a whole walk applies nothing.
That is the restart-from-root strategy of a peephole rewriter, and the
observable behaviour — which rule fires where, in which order, and which
applications are rejected — is exactly that of the naive loop (the tests
compare the driver against one, ``tests/core/restart_reference.py``,
application for application, and pin the XMark rule histograms).  What the
driver adds is that a step costs the *match*, not the plan:

* it works on a private :func:`~repro.algebra.dag.thaw` ed copy of the
  plan and glues replacements in with :func:`~repro.algebra.dag.glue`,
  which re-points the parents' ``children`` slots in place — nothing above
  the match is re-created and every surviving node keeps its identity, so
  per-node state simply stays where it is (the input plan is never
  touched; the copy, rewritten, *is* the result);
* rule dispatch is pattern-indexed — only rules whose declared root class
  covers a node's class are consulted;
* a *failure memo* turns the walk into a worklist of dirty nodes: a node
  whose whole rule bucket failed is skipped on later steps until an event
  below says one of the premises its guards can observe may have changed;
* plan properties and column provenance live for the whole run, keyed by
  node id, and are re-inferred from the dirty frontier a glue reports
  (:meth:`~repro.core.properties.PlanProperties.refresh`,
  :meth:`~repro.core.rewrite.context.RuleContext.invalidate`).

Why skipping is sound — every input a guard can observe is covered by one
of four channels, and each is an explicit event that clears the memo:

* **subtree** (the matched node's structure, its children's ``const`` /
  ``keys``, column provenance): a subtree changes only by a glue below it,
  so the re-pointed parents *and all their ancestors* are dirtied (no
  dependency tracking: an ancestor is re-tried even if its guards never
  looked that deep).
* **local top-down state** (``icols``, ``set``, ``needed_columns`` of the
  matched node): the property refresh returns exactly the nodes whose
  ``icols`` / ``set`` / ``refs`` changed value; they are dirtied.
* **sharing** (parents of the node or of its descendants — and those
  parents' other inputs — consulted by projection fusion and the key-join
  collapse's spine widening): the glue reports whose parent list gained
  or lost an entry and which parents saw an input's schema change; those
  nodes, such parents' inputs *and all their ancestors* are dirtied — an
  ancestor's guard may have looked at them.
* **global predicate comparisons** (``rank_compared_upstream``): the set
  of compared column origins is a function of the plan's σ/⋈ operators
  and the subtrees below them, so whenever a σ/⋈ enters or leaves the
  plan or lies above a glue point the *epoch* moves; entries of the two
  epoch-sensitive rules ((12) and (14)) are only trusted within the epoch
  they were recorded in.

Rejected applications — rules whose replacement failed the *global*
premise while being glued in (an ``AlgebraError`` from the glue's
validation, which leaves the plan untouched) — are never memoized: the
global premise lives outside the guard's observable surface, so such a
pair is retried on every walk that reaches it.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from repro.errors import AlgebraError
from repro.algebra.dag import Glue, glue, thaw
from repro.algebra.operators import Join, Operator, Select, Serialize
from repro.core.properties import PlanProperties
from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.rule import PatternIndex, Rule
from repro.core.rewrite.trace import RejectedApplication, RewriteStep

#: One phase of the goal sequence: a display name plus its rule group.
Phase = tuple[str, tuple[Rule, ...]]

#: Rules whose guard consults the global ``rank_compared_upstream`` premise;
#: their memo entries are scoped to the compared-origins epoch.
_EPOCH_SENSITIVE = frozenset({"rank_to_project(12)", "rank_pull_up(14)"})


class WorklistDriver:
    """Pattern-indexed dispatch over dirty nodes of a plan rewritten in place.

    The driver carries the run's provenance: :attr:`steps`,
    :attr:`rejections` and whether the run :attr:`converged` within
    ``max_steps``.
    """

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps: list[RewriteStep] = []
        self.rejections: list[RejectedApplication] = []
        self.converged = True
        #: ``id(node) -> epoch`` recording that *every* rule of the node's
        #: dispatch bucket failed to match, and in which epoch.  Entries are
        #: removed by the events of the module docstring, are phase-scoped
        #: (cleared at every phase transition, since the bucket they
        #: quantify over changes with the phase) and are never written on a
        #: visit that saw a global-premise rejection (the rejected rule must
        #: be retried on every later scan).
        self._fail: dict[int, int] = {}
        self._epoch = 0

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
        """Rewrite a private copy of ``plan`` (whose root, the serialization
        point, no rule matches) and return it; ``plan`` itself is not touched."""
        plan, parents = thaw(plan)
        ctx = RuleContext(plan, PlanProperties(plan, parents), parents)
        pending: Optional[Glue] = None
        for phase_name, rules in phases:
            if not rules:
                continue
            index = PatternIndex(rules, sensitive=_EPOCH_SENSITIVE)
            # Failure entries quantify over the *current phase's* buckets.
            self._fail.clear()
            while True:
                if self.step_count >= self.max_steps:
                    self.converged = False
                    return plan
                pending = self._step(ctx, index, phase_name, pending)
                if pending is None:
                    break
        return plan

    # -- one step -----------------------------------------------------------------

    def _step(
        self, ctx: RuleContext, index: PatternIndex, phase: str, pending: Optional[Glue]
    ) -> Optional[Glue]:
        """One walk: absorb the previous step's glue, apply the first match.

        Returns the applied step's :class:`~repro.algebra.dag.Glue`, or
        ``None`` when nothing matched (the phase is over).
        """
        # The current post-order: the scan order, and the topological order
        # the property refresh follows.  Inlined DFS (cf. ``iter_nodes``; a
        # ``None`` on the stack says the node under it is finished): the
        # generator's resumption overhead is measurable once per step.
        nodes: list[Operator] = []
        seen: set[int] = set()
        walk: list[Optional[Operator]] = [ctx.root]
        while walk:
            node = walk.pop()
            if node is None:
                nodes.append(walk.pop())
            elif id(node) not in seen:
                seen.add(id(node))
                walk += (node, None)
                walk += node.children[::-1]
        if pending is not None:
            self._absorb(ctx, nodes, pending)
        epoch = self._epoch
        fail = self._fail
        for_node = index.for_node
        epoch_blind = index.epoch_blind
        for node in nodes:
            node_id = id(node)
            recorded = fail.get(node_id)
            if recorded is not None and (recorded == epoch or epoch_blind(node)):
                continue  # no event since the whole bucket failed: it still does
            rejected = False
            for rule in () if isinstance(node, Serialize) else for_node(node):
                result = rule.apply(node, ctx)
                if result is None:
                    continue
                replacements = result if isinstance(result, dict) else {node_id: result}
                replacement = replacements[node_id]
                try:
                    glued = glue(ctx.parents, replacements)
                except AlgebraError as error:
                    # The rewrite is locally sound but globally inapplicable:
                    # gluing it in would trip an operator invariant (e.g. a
                    # widened shared spine makes a far-away join's inputs
                    # overlap).  The constructor checks are the exact global
                    # premise — record the refusal and keep scanning; the
                    # plan is unchanged.  Never memoized (see the module
                    # docstring): the pair is retried on every later walk.
                    self.rejections.append(
                        RejectedApplication(
                            rule=rule.name,
                            target=node.label(),
                            error=str(error),
                            step=self.step_count,
                            phase=phase,
                            target_id=node_id,
                        )
                    )
                    rejected = True
                    continue
                self.steps.append(
                    RewriteStep(
                        rule=rule.name,
                        target=node.label(),
                        replacement=replacement.label(),
                        index=self.step_count,
                        phase=phase,
                        target_id=node_id,
                        replacement_id=id(replacement),
                    )
                )
                return glued
            if not rejected:
                fail[node_id] = epoch
        return None

    def _absorb(self, ctx: RuleContext, nodes: list[Operator], glued: Glue) -> None:
        """Turn one glue's events into dirty nodes (see the module docstring).

        ``nodes`` is the post-glue plan in post-order.  Work is proportional
        to the glue's frontier and its ancestors, not to the plan.
        """
        changed = ctx.properties.refresh(nodes, ctx.parents, glued)
        parents = ctx.parents
        # Subtree and sharing: the touched nodes and all their ancestors.  A
        # guard that inspects a descendant's parents also sees the schemas
        # of those parents' other inputs, so the inputs of a parent that saw
        # one of them change count as touched too.
        above = {id(node): node for node in chain(glued.rewired, glued.reparented)}
        above.update((id(c), c) for node in glued.revalidated for c in node.children)
        queue = list(above.values())
        while queue:
            for parent in parents[id(queue.pop())]:
                if id(parent) not in above:
                    above[id(parent)] = parent
                    queue.append(parent)
        predicates = any(
            isinstance(node, (Select, Join))
            for node in chain(glued.fresh, glued.dropped, above.values())
        )
        if predicates:
            self._epoch += 1
        gone = [id(node) for node in glued.dropped]
        ctx.invalidate(chain(above, gone), predicates)
        for node_id in chain(above, gone, map(id, changed)):
            self._fail.pop(node_id, None)


def run_phases(
    plan: Operator, phases: list[Phase], max_steps: int = 5000
) -> tuple[Operator, WorklistDriver]:
    """Run the goal sequence; the returned driver carries the trace."""
    engine = WorklistDriver(max_steps)
    return engine.run(plan, phases), engine
