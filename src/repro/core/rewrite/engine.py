"""The isolation driver: a pattern-indexed worklist over dirty nodes.

:class:`WorklistDriver` runs the declarative rule groups phase by phase.
One *step* scans the plan in post-order, applies the first rule that
matches (in node, then rule-group order), glues the replacement into the
plan, and starts over; a phase ends when a whole scan applies nothing.
With ``normalize``, the icols normaliser (:mod:`repro.core.rewrite.normalize`)
runs once on the input plan and once after every structural step, from the
dirty frontier that step left; a pass that changes the plan is one step
(``normalize(1-4)``).  After a structural step the pass is the tail of
that step's property refresh (one top-down walk), its glue is absorbed
from the needs the pass computed, and the events of both glues are turned
into dirty nodes once (:meth:`WorklistDriver._absorb`).  The observable behaviour — which rule fires where,
in which order, which applications are rejected, what each pass does — is
exactly that of the naive loop (``tests/core/restart_reference.py``
compares them application for application; the XMark rule histograms are
pinned).  What the driver adds is that a step costs what its glue touched:

* it works on a private :func:`~repro.algebra.dag.thaw` ed copy of the
  plan and glues in place with :func:`~repro.algebra.dag.glue`: nothing
  above the match is re-created, every surviving node keeps its identity
  and per-node state stays where it is (the input plan is never touched);
* rule dispatch is pattern-indexed by the node's class;
* a *failure memo* turns the scan into a worklist: a node whose whole rule
  bucket failed is not visited again until an event says one of the
  premises its guards read may have changed;
* the post-order is kept across steps: a glue's region (the matched node's
  stretch of the order) is replayed over the new nodes, jumping over every
  untouched stretch below it, and spliced in; only where the surviving
  nodes would change their relative order is the plan walked again
  (:meth:`WorklistDriver._splice`);
* plan properties and column provenance live for the whole run, keyed by
  node id, and are re-inferred from the dirty frontier a glue reports
  (:meth:`~repro.core.properties.PlanProperties.refresh` and, for a
  normaliser pass's glue, :meth:`~repro.core.properties.PlanProperties.absorb`;
  :meth:`~repro.core.rewrite.context.RuleContext.invalidate`);
* the thaw is the one walk of the input: it gives the copy, its parent
  index and the kept post-order, which the cold inference reads.

Why skipping is sound — the context records what a node's guards read
while they fail (its read discipline: :mod:`repro.core.rewrite.context`),
and every input such a failure can depend on is covered by an event that
makes the node dirty again:

* **local reads** (every failure): the node's own fields and ``columns``,
  its own ``needed`` / ``set`` / ``const`` / ``keys``, and its
  children's fields, ``columns`` and ``const`` / ``keys``.  The node is
  re-tried when it is new, was re-pointed or re-validated, and when the
  property refresh reports its own state, or a child's ``const`` /
  ``keys``, as changed.
* **deep reads** (a guard traced provenance or looked through a constant
  chain, and may then have read the parents of the nodes it reached — its
  children's included — and those parents' other inputs): the re-pointed
  and re-parented nodes, the inputs of re-validated ones *and all their
  ancestors* are re-tried.
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
from repro.algebra.dag import Glue, glue, stretches, thaw
from repro.algebra.operators import Join, Operator, Select, Serialize
from repro.core.properties import PlanProperties
from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.normalize import NORMALIZE, Pass
from repro.core.rewrite.rule import PatternIndex, Rule
from repro.core.rewrite.trace import RejectedApplication, RewriteStep

#: One phase of the goal sequence: a display name plus its rule group.
Phase = tuple[str, tuple[Rule, ...]]

#: What one applied step hands the next: the glue, the substitution map it
#: glued and the id of the matched node.
_Pending = tuple[Glue, Mapping[int, Operator], int]

#: One absorbed glue: it, and the nodes whose top-down / bottom-up
#: properties it moved.
_Absorbed = tuple[Glue, list[Operator], list[Operator]]


class WorklistDriver:
    """Pattern-indexed dispatch over dirty nodes of a plan rewritten in place.

    The driver carries the run's provenance: :attr:`steps`,
    :attr:`rejections` and whether the run :attr:`converged` within
    ``max_steps``; :attr:`attempts` counts rule applications tried and
    :attr:`rewalks` the steps whose glue could not be spliced into the kept
    post-order; :attr:`initial_nodes` and :attr:`nodes` are the plan's
    operator counts before and after.
    """

    def __init__(self, max_steps: int, normalize: bool = False):
        self.max_steps = max_steps
        self.normalize = normalize
        self.steps: list[RewriteStep] = []
        self.rejections: list[RejectedApplication] = []
        self.converged = True
        self.attempts = 0
        self.rewalks = 0
        self.initial_nodes = 0
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

    @property
    def nodes(self) -> int:
        """The operator count of the plan as it stands (the kept order's length)."""
        return len(self._order)

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
        """Rewrite a private copy of ``plan`` (whose root, the serialization
        point, no rule matches) and return it; ``plan`` itself is not touched."""
        # One walk of the input: the copy, its parent index and its order,
        # from which the cold inference and the context start.
        plan, parents, order, self._first = thaw(plan)
        self._order = order
        self.initial_nodes = len(order)
        self._position = {id(node): index for index, node in enumerate(order)}
        ctx = RuleContext(plan, PlanProperties(plan, order), parents, order)
        #: Whether the input plan still awaits its normaliser pass.
        unnormalized = self.normalize
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
                if unnormalized:
                    unnormalized = False
                    absorbed = self._normalized(ctx, None, phase_name)
                    if absorbed:
                        self._retry(ctx, absorbed)
                        continue
                pending = self._step(ctx, index, phase_name)
                if pending is None:
                    break
                self._absorb(ctx, *pending, phase_name)
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
                pending = self._glue(ctx, rule.name, node, replacements, phase)
                if pending is not None:
                    return pending
                rejected = True
            if not rejected:
                del dirty[node_id]
                if ctx.read_deep:
                    deep[node_id] = node
                if ctx.read_premise:
                    premise[node_id] = node
        return None

    def _glue(
        self,
        ctx: RuleContext,
        rule: str,
        node: Operator,
        replacements: Mapping[int, Operator],
        phase: str,
    ) -> Optional[_Pending]:
        """Glue one application at ``node`` and record it, or its refusal.

        A refused glue is locally sound but globally inapplicable: it would
        trip an operator invariant (e.g. a widened shared spine makes a
        far-away join's inputs overlap).  The constructor checks are the
        exact global premise — the refusal is recorded, the plan is
        unchanged, and the node is never memoized (see the module
        docstring): it stays dirty.
        """
        try:
            glued = glue(ctx.parents, replacements)
        except AlgebraError as error:
            self.rejections.append(
                RejectedApplication(rule, node.label(), str(error), self.step_count, phase, id(node))
            )
            return None
        new = replacements[id(node)]
        self.steps.append(
            RewriteStep(rule, node.label(), new.label(), self.step_count, phase, id(node), id(new))
        )
        return glued, replacements, id(node)

    def _absorb(
        self,
        ctx: RuleContext,
        glued: Glue,
        replacements: Mapping[int, Operator],
        matched: int,
        phase: str,
    ) -> None:
        """Absorb one structural step and, fused with it, its normaliser pass.

        The refresh's top-down walk carries the pass (unless the step guard
        is reached: then the run stops before the pass, as it would before
        any step); the pass's glue is absorbed from the needs it computed,
        and both glues' events are turned into dirty nodes at once.
        """
        self._place(ctx, glued, replacements, matched)
        normaliser = None
        if self.normalize and self.step_count < self.max_steps:
            normaliser = Pass(ctx.parents, ctx.properties)
        top_down, bottom_up = ctx.properties.refresh(
            self._position, ctx.parents, glued, normaliser
        )
        absorbed = [(glued, top_down, bottom_up)]
        if normaliser is not None:
            absorbed += self._normalized(ctx, normaliser, phase)
        self._retry(ctx, absorbed)

    def _normalized(
        self, ctx: RuleContext, normaliser: Optional[Pass], phase: str
    ) -> list[_Absorbed]:
        """Glue a normaliser pass as one step named after its topmost
        replacement and absorb it; ``[]`` if the plan is normal there.

        Without a ``normaliser`` (the input plan's pass) the pass walks
        from every node here; otherwise it has walked already.
        """
        position = self._position
        if normaliser is None:
            normaliser = Pass(ctx.parents, ctx.properties)
            ctx.properties.descend(position, ctx.parents, (), normaliser, self._order)
        replacements = normaliser.replacements(position)
        if not replacements:
            return []
        top = self._order[max(map(position.__getitem__, replacements))]
        pending = self._glue(ctx, NORMALIZE, top, replacements, phase)
        if pending is None:
            return []
        glued, replacements, matched = pending
        self._place(ctx, glued, replacements, matched)
        return [
            (glued, *ctx.properties.absorb(self._position, ctx.parents, glued, normaliser.settled()))
        ]

    def _place(
        self,
        ctx: RuleContext,
        glued: Glue,
        replacements: Mapping[int, Operator],
        matched: int,
    ) -> None:
        """Bring the kept post-order up to date with one glue."""
        if not self._splice(ctx.parents, glued, replacements, matched):
            self.rewalks += 1
            self._walk(ctx.root)

    def _retry(self, ctx: RuleContext, absorbed: list[_Absorbed]) -> None:
        """Turn absorbed glues' events into dirty nodes (see the module
        docstring), once for a step and its normaliser pass together."""
        parents, position = ctx.parents, self._position
        dirty, deep, premise = self._dirty, self._deep, self._premise
        retry: dict[int, Operator] = {}
        touched: list[Operator] = []
        predicates = False
        for glued, top_down, bottom_up in absorbed:
            for node in glued.dropped:
                node_id = id(node)
                dirty.pop(node_id, None)
                deep.pop(node_id, None)
                premise.pop(node_id, None)
            retry.update(
                (id(node), node)
                for nodes in (glued.fresh, glued.rewired, glued.revalidated, top_down, bottom_up)
                for node in nodes
            )
            retry.update(
                (id(parent), parent)
                for node in bottom_up
                for parent in parents.get(id(node), ())
            )
            touched += glued.rewired + glued.revalidated + glued.dropped
            predicates = predicates or any(
                isinstance(node, (Select, Join)) for node in glued.fresh + glued.dropped
            )
        if ctx.invalidate(touched, predicates):
            retry.update(premise)
        if deep:
            # All ancestors of what the glues touched below them.  Ancestors
            # come later in post-order, so none past the last deep entry can
            # lead to one.
            limit = max(position[node_id] for node_id in deep)
            seeds = [
                node
                for glued, _top_down, _bottom_up in absorbed
                for node in glued.rewired
                + glued.reparented
                + [child for node in glued.revalidated for child in node.children]
                if id(node) in parents
            ]
            above = {id(node) for node in seeds}
            while seeds:
                for parent in parents[id(seeds.pop())]:
                    if id(parent) not in above and position[id(parent)] <= limit:
                        above.add(id(parent))
                        seeds.append(parent)
            retry.update((node_id, node) for node_id, node in deep.items() if node_id in above)
        for node_id, node in retry.items():
            if node_id in parents:
                dirty[node_id] = node
                if deep:
                    deep.pop(node_id, None)
                if premise:
                    premise.pop(node_id, None)

    # -- the kept post-order ------------------------------------------------------

    def _walk(self, root: Operator) -> None:
        """Walk the plan afresh: the post-order, positions and stretch starts.

        The order list is refilled in place: the rule context reads it.
        """
        order, self._first = stretches(root)
        self._order[:] = order
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
        # Past the stretch only a change of its length moves positions.
        end = s + len(emitted) if len(emitted) == x + 1 - s else len(order)
        position.update(zip(map(id, order[s:end]), range(s, end)))
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
    plan: Operator, phases: list[Phase], max_steps: int = 5000, normalize: bool = False
) -> tuple[Operator, WorklistDriver]:
    """Run the goal sequence (with the normaliser after every structural step
    if ``normalize``); the returned driver carries the trace."""
    engine = WorklistDriver(max_steps, normalize)
    return engine.run(plan, phases), engine
