"""The isolation driver: a pattern-indexed worklist over dirty nodes.

:class:`WorklistDriver` runs the declarative rule groups phase by phase.
One *step* walks the plan in post-order, applies the first rule that
matches (in node, then rule-group order), glues the replacement into the
plan with a :func:`~repro.algebra.dag.pushout`, and starts over on the new
plan; a phase ends when a whole walk applies nothing.  That is the
restart-from-root strategy of a peephole rewriter, and the observable
behaviour — which rule fires where, in which order, and which applications
are rejected — is exactly that of the naive loop (the tests compare the
driver against one, ``tests/core/restart_reference.py``, application for
application, and pin the XMark rule histograms).  What the driver adds is
that a step costs work proportional to the *changed region* of the plan,
not to its size:

* rule dispatch is pattern-indexed — only rules whose declared root class
  covers a node's class are consulted;
* a *failure memo* turns the walk into a worklist of dirty nodes: a node
  whose whole rule bucket failed is skipped on later steps while every
  premise input the bucket's guards can observe is provably unchanged (all
  rules tried at a node in one visit share one property snapshot, so the
  per-node entry loses nothing);
* property inference is scoped the same way — the memos of
  :mod:`repro.core.properties` and the column-provenance paths are keyed
  by subtree object identity and threaded through every step of a run.

Why skipping is sound — every input a guard can observe is covered by one
of four channels, and each channel conservatively clears the memo:

* **subtree** (the matched node's structure, its children's ``const`` /
  ``keys``, column provenance): operators are immutable, so the memo key —
  the node *object* — changing is the only way these change.  Entries pin
  their node, so a hit implies the identical subtree.
* **local top-down state** (``icols``, ``set``, ``needed_columns`` of the
  matched node): the entry stores the property value *objects* observed at
  failure time and is re-checked by identity on revisit — sound because
  re-inference reuses the previous value object whenever the recomputed
  value is equal to it.
* **sharing** (parents of the node or of its descendants, consulted by
  projection fusion and the key-join collapse's spine widening): after
  each step the driver diffs every surviving node's parent identity tuple
  against the previous step and clears the memo for changed nodes *and
  all their ancestors* — an ancestor's guard may have looked at this
  node's parents.  A parent replaced by its *mechanical rebuild* (the
  pushout's :attr:`~repro.algebra.dag.Pushout.rebuilt` map: same operator,
  same fields, ``with_children`` over new inputs) does not count as a
  change: every field a guard can observe on that parent is intact.
* **global predicate comparisons** (``rank_compared_upstream``): the set
  of compared column origins is fingerprinted each step into an *epoch*;
  entries of the two epoch-sensitive rules ((12) and (14)) are only
  trusted within the epoch they were recorded in.

A pushout rebuilds the whole ancestor cone of a replacement, so on deep
plans most operator *objects* change every step even though almost none
of their *fields* do.  The driver therefore migrates its identity-keyed
property memos along the pushout's ``rebuilt`` map before each step —
re-keying an entry from the old object to its field-identical rebuild —
and lets the per-child/per-parent validity checks inside
:mod:`repro.core.properties` decide how far the actual change cascades.
Failure-memo entries are *not* migrated: a guard may have observed the
rebuilt node's (changed) children, so a rebuilt node is always re-tried.

Rejected applications — rules whose replacement failed the *global*
premise while being glued in (an ``AlgebraError`` from the pushout) — are
never memoized: the global premise lives outside the guard's observable
surface, so such a pair is retried on every walk that reaches it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AlgebraError
from repro.algebra.dag import pushout
from repro.algebra.operators import Join, Operator, Select, Serialize
from repro.core.properties import infer_properties
from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.rule import PatternIndex, Rule
from repro.core.rewrite.trace import RejectedApplication, RewriteStep

#: One phase of the goal sequence: a display name plus its rule group.
Phase = tuple[str, tuple[Rule, ...]]

#: Rules whose guard consults the global ``rank_compared_upstream`` premise;
#: their memo entries are scoped to the compared-origins epoch.
_EPOCH_SENSITIVE = frozenset({"rank_to_project(12)", "rank_pull_up(14)"})


class WorklistDriver:
    """Pattern-indexed dispatch over dirty nodes with scoped re-inference.

    The driver carries the run's provenance: :attr:`steps`,
    :attr:`rejections` and whether the run :attr:`converged` within
    ``max_steps``.
    """

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps: list[RewriteStep] = []
        self.rejections: list[RejectedApplication] = []
        self.converged = True
        #: ``id(node) -> (node, icols, set, refs, epoch)`` recording that
        #: *every* rule of the node's dispatch bucket failed to match while
        #: the node held exactly these property values; the values are
        #: compared by *object identity* on revisit (see the module
        #: docstring).  One entry per node suffices because all rules tried
        #: at a node within one step observe the same property snapshot.
        #: Entries pin their node object; they are phase-scoped (cleared at
        #: every phase transition, since the bucket they quantify over
        #: changes with the phase) and never written on a visit that saw a
        #: global-premise rejection (the rejected rule must be retried on
        #: every later scan).
        self._fail: dict[int, tuple[Operator, frozenset, bool, frozenset, int]] = {}
        #: Cross-step memos, keyed by object identity (entries pin their
        #: node; validation contracts are documented at each memo's type).
        self._bottom_up_memo: dict = {}
        self._top_down_memo: dict = {}
        self._provenance_memo: dict = {}
        #: The previous step's :attr:`~repro.algebra.dag.Pushout.rebuilt`
        #: map — the memo-migration input consumed at the start of the next
        #: step.
        self._last_rebuilt: dict[int, Operator] = {}
        #: Previous step's plan root (pinned so ids stay unique), per-node
        #: parent identity tuples and predicate-node identity-set, for the
        #: sharing / epoch diffs.
        self._prev_root: Optional[Operator] = None
        self._prev_parent_ids: Optional[dict[int, tuple[int, ...]]] = None
        self._prev_predicate_ids: Optional[frozenset[int]] = None
        self._epoch = 0
        self._steps_since_prune = 0

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
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
                rewritten = self._step(plan, index, phase_name)
                if rewritten is None:
                    break
                plan = rewritten
        return plan

    # -- one step -----------------------------------------------------------------

    def _step(self, plan: Operator, index: PatternIndex, phase: str) -> Optional[Operator]:
        # Migrate the property memos along the previous pushout's mechanical
        # rebuilds: re-key each entry to the field-identical new object and
        # pin it (see the module docstring; validity is still decided by
        # the per-child/per-parent checks inside the memos' consumers).
        rebuilt = self._last_rebuilt
        if rebuilt:
            for memo in (self._bottom_up_memo, self._top_down_memo):
                for old_id, new_node in rebuilt.items():
                    entry = memo.pop(old_id, None)
                    if entry is not None:
                        memo[id(new_node)] = (new_node,) + entry[1:]
        # One traversal per step: the topological order and the parent map
        # are computed once and shared by property inference, the rule
        # context, the pushout fast path and the memo maintenance below.
        # Inlined post-order DFS (cf. ``iter_nodes``): the generator's
        # resumption overhead is measurable at one traversal per step.
        nodes: list[Operator] = []
        seen: set[int] = set()
        walk: list[tuple[Operator, bool]] = [(plan, False)]
        while walk:
            node, expanded = walk.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            walk.append((node, True))
            for child in reversed(node.children):
                if id(child) not in seen:
                    walk.append((child, False))
        parents: dict[int, list[Operator]] = {id(node): [] for node in nodes}
        for node in nodes:
            for child in node.children:
                parents[id(child)].append(node)
        properties = infer_properties(
            plan,
            bottom_up_memo=self._bottom_up_memo,
            top_down_memo=self._top_down_memo,
            order=nodes,
            parents=parents,
            rebuilt=rebuilt,
        )
        ctx = RuleContext(
            plan,
            properties,
            provenance_memo=self._provenance_memo,
            parents=parents,
        )
        self._refresh_memos(plan, ctx, nodes, rebuilt)
        self._last_rebuilt = {}
        epoch = self._epoch
        fail = self._fail
        icols_by = properties._icols
        set_by = properties._set
        refs_by = properties._refs
        for_node = index.for_node
        epoch_blind = index.epoch_blind
        for node in nodes:
            if isinstance(node, Serialize):
                continue
            bucket = for_node(node)
            if not bucket:
                continue
            node_id = id(node)
            icols = icols_by[node_id]
            is_set = set_by[node_id]
            refs = refs_by[node_id]
            entry = fail.get(node_id)
            if (
                entry is not None
                and entry[0] is node
                and entry[1] is icols
                and entry[2] == is_set
                and entry[3] is refs
                and (entry[4] == epoch or epoch_blind(node))
            ):
                continue  # premises provably unchanged: every rule still fails
            rejected = False
            for rule in bucket:
                result = rule.apply(node, ctx)
                if result is None:
                    continue
                replacements = result if isinstance(result, dict) else {node_id: result}
                replacement_label = replacements[node_id].label()
                try:
                    glued = pushout(plan, replacements, parents=parents, order=nodes)
                except AlgebraError as error:
                    # The rewrite is locally sound but globally inapplicable:
                    # rebuilding the DAG tripped an operator invariant (e.g.
                    # a widened shared spine makes a far-away join's inputs
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
                self._last_rebuilt = glued.rebuilt
                new_at_target = glued.glued.get(node_id)
                self.steps.append(
                    RewriteStep(
                        rule=rule.name,
                        target=node.label(),
                        replacement=replacement_label,
                        index=self.step_count,
                        phase=phase,
                        target_id=node_id,
                        replacement_id=(
                            id(new_at_target) if new_at_target is not None else 0
                        ),
                    )
                )
                return glued.root
            if not rejected:
                fail[node_id] = (node, icols, is_set, refs, epoch)
        return None

    # -- memo maintenance ---------------------------------------------------------

    def _refresh_memos(
        self,
        plan: Operator,
        ctx: RuleContext,
        nodes: list[Operator],
        rebuilt: dict[int, Operator],
    ) -> None:
        """Clear memo entries whose premise channels changed; prune the dead.

        Runs once per step in O(plan edges): identity comparisons only, no
        property or provenance work.  Dead entries (keyed by nodes no
        longer in the plan) are harmless — they pin their node object, so
        an id can never be recycled into a false hit — and are swept only
        periodically to keep the per-step cost flat.
        """
        # Epoch: ``rank_compared_upstream`` is a function of the plan's σ/⋈
        # operators (each predicate column's origin is determined by the —
        # immutable — operator object it hangs off).  An unchanged σ/⋈
        # identity-set therefore implies an unchanged compared-origins set;
        # bump the epoch whenever the identity-set moved (conservative: a
        # changed set merely re-enables rules (12)/(14) for one re-try).
        # Mechanical rebuilds do NOT excuse a σ/⋈ here: the rebuild's
        # *subtree* changed, so its predicate columns may resolve to new
        # origins.
        predicate_ids = frozenset(
            id(node) for node in nodes if isinstance(node, (Select, Join))
        )
        if (
            self._prev_predicate_ids is not None
            and predicate_ids != self._prev_predicate_ids
        ):
            self._epoch += 1
        # Sharing: diff every surviving node's parent identity tuple against
        # the previous step; a change dirties the node and all its ancestors
        # (their guards may consult this node's parents).  A parent that
        # merely became its mechanical rebuild is normalised back to its old
        # id first — every parent field a guard can observe is intact, so
        # the edge did not change in any way a guard could have seen.
        parent_ids = {
            nid: tuple(map(id, plist)) for nid, plist in ctx.parents.items()
        }
        if self._prev_parent_ids is not None and self._fail:
            previous_parent_ids = self._prev_parent_ids
            old_id_of = {id(new): old_id for old_id, new in rebuilt.items()}
            dirty = []
            for node in nodes:
                current = parent_ids[id(node)]
                previous = previous_parent_ids.get(id(node))
                if previous is None or previous == current:
                    continue  # brand-new node, or untouched edges
                if previous == tuple(old_id_of.get(i, i) for i in current):
                    continue  # parents merely mechanically rebuilt
                dirty.append(node)
            if dirty:
                seen = {id(node) for node in dirty}
                queue = list(dirty)
                while queue:
                    for parent in ctx.parents.get(id(queue.pop()), []):
                        if id(parent) not in seen:
                            seen.add(id(parent))
                            queue.append(parent)
                self._fail = {
                    key: entry
                    for key, entry in self._fail.items()
                    if key not in seen
                }
        # Keep the previous root alive until *after* the diffs above so no
        # id from the previous step could have been recycled meanwhile.
        self._prev_root = plan
        self._prev_parent_ids = parent_ids
        self._prev_predicate_ids = predicate_ids
        # Periodic sweep of entries keyed by dropped nodes (memory only).
        self._steps_since_prune += 1
        if self._steps_since_prune >= 64:
            self._steps_since_prune = 0
            alive = set(parent_ids)
            self._fail = {k: v for k, v in self._fail.items() if k in alive}
            self._bottom_up_memo = {
                k: v for k, v in self._bottom_up_memo.items() if k in alive
            }
            self._top_down_memo = {
                k: v for k, v in self._top_down_memo.items() if k in alive
            }
            self._provenance_memo = {
                k: v for k, v in self._provenance_memo.items() if k[0] in alive
            }


def run_phases(
    plan: Operator, phases: list[Phase], max_steps: int = 5000
) -> tuple[Operator, WorklistDriver]:
    """Run the goal sequence; the returned driver carries the trace."""
    engine = WorklistDriver(max_steps)
    return engine.run(plan, phases), engine
