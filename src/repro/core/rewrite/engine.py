"""The isolation driver: a pattern-indexed worklist over dirty nodes.

:class:`WorklistDriver` runs the declarative rule groups phase by phase.
One *step* scans the plan in post-order, applies the first rule that
matches (in node, then rule-group order), glues the replacement into the
plan, and starts over; a phase ends when a whole scan applies nothing.
That is the restart-from-root strategy of a peephole rewriter, and the
observable behaviour — which rule fires where, in which order, and which
applications are rejected — is exactly that of the naive loop (the tests
compare the driver against one, ``tests/core/restart_reference.py``,
application for application, and pin the XMark rule histograms).  What the
driver adds is that a step costs what its glue touched, not the plan:

* it works on a private :func:`~repro.algebra.dag.thaw` ed copy of the
  plan and glues replacements in with :func:`~repro.algebra.dag.glue`,
  which re-points the parents' ``children`` slots in place — nothing above
  the match is re-created and every surviving node keeps its identity, so
  per-node state simply stays where it is (the input plan is never
  touched; the copy, rewritten, *is* the result);
* rule dispatch is pattern-indexed — only rules whose declared root class
  covers a node's class are consulted;
* a *failure memo* turns the scan into a worklist: a node whose whole rule
  bucket failed is not visited again until an event says one of the
  premises its guards read may have changed; the scan visits only the
  remaining *dirty* nodes, in post-order;
* the post-order itself is kept across steps: a glue's region (the
  matched node's stretch of the order) is replayed over the new nodes,
  jumping over every untouched stretch below it, and spliced in; only
  where the surviving nodes would change their relative order is the
  plan walked again (:meth:`WorklistDriver._splice`);
* plan properties and column provenance live for the whole run, keyed by
  node id, and are re-inferred from the dirty frontier a glue reports
  (:meth:`~repro.core.properties.PlanProperties.refresh`,
  :meth:`~repro.core.rewrite.context.RuleContext.invalidate`).

Why skipping is sound — the context records what a node's guards read
while they fail (its read discipline: :mod:`repro.core.rewrite.context`),
and every input such a failure can depend on is covered by an event that
makes the node dirty again:

* **local reads** (every failure): the node's own fields and ``columns``,
  its own ``icols`` / ``set`` / ``refs`` / ``const`` / ``keys``, and its
  children's fields, ``columns``, ``const`` / ``keys`` and parent lists.
  The node is re-tried when it is new, was re-pointed (its children
  changed) or re-validated (an input's schema changed); when the property
  refresh reports its own top-down or bottom-up state, or a child's
  ``const`` / ``keys``, as changed value; and when a child's parent list
  gained or lost an entry.
* **deep reads** (a guard traced provenance or looked through a constant
  chain, and may then have read the parents of the nodes it reached, and
  those parents' other inputs): such a failure keeps the all-ancestors
  channel — the re-pointed and re-parented nodes and the inputs of
  re-validated ones, *and all their ancestors*, are re-tried.
* **the global premise** (``rank_compared_upstream``): the compared-origins
  set is a function of the plan's σ/⋈ operators and the provenance paths
  below them, so the context drops it whenever a σ/⋈ enters or leaves the
  plan or a glue touches a node on one of those paths; every failure that
  consulted the premise is then re-tried.

Rejected applications — rules whose replacement failed the *global*
premise while being glued in (an ``AlgebraError`` from the glue's
validation, which leaves the plan untouched) — are never memoized: the
global premise lives outside the guard's observable surface, so such a
node stays dirty and is retried on every scan that reaches it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Optional

from repro.errors import AlgebraError
from repro.algebra.dag import Glue, glue, thaw
from repro.algebra.operators import Join, Operator, Select, Serialize
from repro.core.properties import PlanProperties
from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.rule import PatternIndex, Rule
from repro.core.rewrite.trace import RejectedApplication, RewriteStep

#: One phase of the goal sequence: a display name plus its rule group.
Phase = tuple[str, tuple[Rule, ...]]

#: What one applied step hands the next: the glue, the substitution map it
#: glued and the id of the matched node.
_Pending = tuple[Glue, Mapping[int, Operator], int]


class WorklistDriver:
    """Pattern-indexed dispatch over dirty nodes of a plan rewritten in place.

    The driver carries the run's provenance: :attr:`steps`,
    :attr:`rejections` and whether the run :attr:`converged` within
    ``max_steps``; :attr:`attempts` counts rule applications tried and
    :attr:`rewalks` the steps whose glue could not be spliced into the kept
    post-order.
    """

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps: list[RewriteStep] = []
        self.rejections: list[RejectedApplication] = []
        self.converged = True
        self.attempts = 0
        self.rewalks = 0
        #: The plan in post-order, each node's index in it, and the first
        #: node of each node's stretch (what its visit in the walk emitted,
        #: itself last) — kept across steps by :meth:`_splice`.
        self._order: list[Operator] = []
        self._position: dict[int, int] = {}
        self._first: dict[int, Operator] = {}
        #: Nodes the next scan visits: every node without a valid failure
        #: entry.  Phase-scoped: a phase transition makes every node dirty,
        #: since the bucket a failure quantifies over changes with the phase.
        self._dirty: dict[int, Operator] = {}
        #: Failed nodes whose guards read deep / consulted the premise.
        self._deep: dict[int, Operator] = {}
        self._premise: dict[int, Operator] = {}

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
        """Rewrite a private copy of ``plan`` (whose root, the serialization
        point, no rule matches) and return it; ``plan`` itself is not touched."""
        plan, parents = thaw(plan)
        self._walk(plan)
        ctx = RuleContext(plan, PlanProperties(plan, parents), parents)
        pending: Optional[_Pending] = None
        for phase_name, rules in phases:
            if not rules:
                continue
            index = PatternIndex(rules)
            self._dirty = {id(node): node for node in self._order}
            self._deep.clear()
            self._premise.clear()
            while True:
                if self.step_count >= self.max_steps:
                    self.converged = False
                    return plan
                if pending is not None:
                    self._absorb(ctx, *pending)
                pending = self._step(ctx, index, phase_name)
                if pending is None:
                    break
        return plan

    # -- one step -----------------------------------------------------------------

    def _step(self, ctx: RuleContext, index: PatternIndex, phase: str) -> Optional[_Pending]:
        """One scan of the dirty nodes in post-order; apply the first match.

        Returns what :meth:`_absorb` needs of the applied step, or ``None``
        when nothing matched (the phase is over).
        """
        dirty, deep, premise = self._dirty, self._deep, self._premise
        for_node = index.for_node
        for node_id in sorted(dirty, key=self._position.__getitem__):
            node = dirty[node_id]
            ctx.read_deep = ctx.read_premise = False
            rejected = False
            for rule in () if isinstance(node, Serialize) else for_node(node):
                self.attempts += 1
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
                    # docstring): the node stays dirty.
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
                return glued, replacements, node_id
            if not rejected:
                del dirty[node_id]
                if ctx.read_deep:
                    deep[node_id] = node
                if ctx.read_premise:
                    premise[node_id] = node
        return None

    def _absorb(
        self,
        ctx: RuleContext,
        glued: Glue,
        replacements: Mapping[int, Operator],
        matched: int,
    ) -> None:
        """Turn one glue's events into dirty nodes (see the module docstring)."""
        if not self._splice(ctx.parents, glued, replacements, matched):
            self.rewalks += 1
            self._walk(ctx.root)
        parents, position = ctx.parents, self._position
        top_down, bottom_up = ctx.properties.refresh(position, parents, glued)
        dirty, deep, premise = self._dirty, self._deep, self._premise
        for node in glued.dropped:
            dirty.pop(id(node), None)
            deep.pop(id(node), None)
            premise.pop(id(node), None)
        retry = glued.fresh + glued.rewired + glued.revalidated + top_down + bottom_up
        for node in bottom_up:
            retry += parents[id(node)]
        for node in glued.reparented:
            retry += parents[id(node)]
        if ctx.invalidate(
            glued.rewired + glued.revalidated + glued.dropped,
            any(isinstance(node, (Select, Join)) for node in glued.fresh + glued.dropped),
        ):
            retry += premise.values()
        if deep:
            # All ancestors of what the glue touched below them.  Ancestors
            # come later in post-order, so none past the last deep entry can
            # lead to one.
            limit = max(position[node_id] for node_id in deep)
            seeds = glued.rewired + glued.reparented
            seeds += [child for node in glued.revalidated for child in node.children]
            above = {id(node) for node in seeds}
            while seeds:
                for parent in parents[id(seeds.pop())]:
                    if id(parent) not in above and position[id(parent)] <= limit:
                        above.add(id(parent))
                        seeds.append(parent)
            retry += [node for node_id, node in deep.items() if node_id in above]
        for node in retry:
            node_id = id(node)
            dirty[node_id] = node
            deep.pop(node_id, None)
            premise.pop(node_id, None)

    # -- the kept post-order ------------------------------------------------------

    def _walk(self, root: Operator) -> None:
        """Walk the plan afresh: the post-order, positions and stretch starts.

        Inlined DFS (cf. ``iter_nodes``; a ``None`` on the stack says the
        node under it is finished, ``starts`` holds where each open node's
        stretch began).
        """
        order: list[Operator] = []
        first: dict[int, Operator] = {}
        seen: set[int] = set()
        starts: list[int] = []
        walk: list[Optional[Operator]] = [root]
        while walk:
            node = walk.pop()
            if node is None:
                done = walk.pop()
                order.append(done)
                first[id(done)] = order[starts.pop()]
            elif id(node) not in seen:
                seen.add(id(node))
                starts.append(len(order))
                walk += (node, None)
                walk += node.children[::-1]
        self._order, self._first = order, first
        self._position = {id(node): index for index, node in enumerate(order)}

    def _splice(
        self,
        parents: Mapping[int, list[Operator]],
        glued: Glue,
        replacements: Mapping[int, Operator],
        matched: int,
    ) -> bool:
        """Splice a glue into the kept post-order; ``False`` if a walk must.

        The walk first reaches the glue where it discovered the matched node
        ``X``, whose stretch ``[s, x]`` of the old order every other replaced
        node must lie in (else the walk diverged earlier).  Before ``s``
        nothing changed.  The stretch is replayed over the new plan from
        ``X``'s replacement, treating old nodes before the replay's cursor
        as seen; an old node whose own stretch starts at the cursor and
        holds nothing the glue dropped or re-pointed is emitted as that
        stretch in one piece (the walk below it cannot have changed), any
        other old node is expanded.  The splice holds if the old nodes come
        out in their old relative order, exactly the stretch's survivors
        and every new node are emitted, and nothing from after the stretch
        is reached — the walk then continues past ``x`` as before.
        """
        order, position, first = self._order, self._position, self._first
        x = position[matched]
        s = position[id(first[matched])]
        if any(not s <= position[old_id] <= x for old_id in replacements):
            return False
        # (A replacement the glue cut off again never had a position.)
        dropped = {id(node) for node in glued.dropped if id(node) in position}
        if any(not s <= position[node_id] <= x for node_id in dropped):
            return False
        # Old nodes whose stretch a jump must not cover: dropped or re-pointed.
        touched = sorted(
            [position[node_id] for node_id in dropped]
            + [position[id(node)] for node in glued.rewired if id(node) in position]
        )
        fresh = {id(node) for node in glued.fresh}
        emitted: list[Operator] = []
        emitted_first: dict[int, Operator] = {}
        expanded: set[int] = set()
        starts: list[int] = []
        cursor = s  # the next old position the replay must emit
        walk: list[Optional[Operator]] = [replacements[matched]]
        while walk:
            node = walk.pop()
            if node is None:
                done = walk.pop()
                if id(done) not in fresh:
                    while id(order[cursor]) in dropped:
                        cursor += 1
                    if position[id(done)] != cursor:
                        return False
                    cursor += 1
                emitted.append(done)
                emitted_first[id(done)] = emitted[starts.pop()]
                continue
            node_id = id(node)
            if node_id in expanded:
                continue
            if node_id not in fresh:
                at = position[node_id]
                if at < cursor:
                    continue  # before the stretch, or emitted already
                if at > x:
                    return False  # the old walk reached it only later
                while id(order[cursor]) in dropped:
                    cursor += 1
                start = position[id(first[node_id])]
                if start == cursor and bisect_left(touched, start) == bisect_left(touched, at + 1):
                    emitted += order[start : at + 1]
                    cursor = at + 1
                    continue
            expanded.add(node_id)
            starts.append(len(emitted))
            walk += (node, None)
            walk += node.children[::-1]
        while cursor <= x and id(order[cursor]) in dropped:
            cursor += 1
        if cursor != x + 1 or not fresh <= expanded:
            return False

        head = order[s]
        order[s : x + 1] = emitted
        position.update(zip(map(id, order[s:]), range(s, len(order))))
        for node_id in dropped:
            del position[node_id]
            del first[node_id]
        first.update(emitted_first)
        # Stretches that began at ``s`` above the glue now begin at its
        # replacement's first node (or, if it emitted nothing, the next one).
        if s < len(order) and order[s] is not head:
            climb = [replacements[matched]]
            while climb:
                for parent in parents[id(climb.pop())]:
                    if first.get(id(parent)) is head:
                        first[id(parent)] = order[s]
                        climb.append(parent)
        return True


def run_phases(
    plan: Operator, phases: list[Phase], max_steps: int = 5000
) -> tuple[Operator, WorklistDriver]:
    """Run the goal sequence; the returned driver carries the trace."""
    engine = WorklistDriver(max_steps)
    return engine.run(plan, phases), engine
