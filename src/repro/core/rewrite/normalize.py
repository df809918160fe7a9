"""The icols normaliser: the paper's rules (1)-(4) as one pass, not one rule each.

Rules (1)-(3) drop a ``#``, ``ϱ`` or ``@`` whose column nobody needs; rule
(4) narrows a projection to the items somebody needs — the ``needed``
property (Table II's ``icols``, widened by structural mentions) applied
node by node.  Two companions keep projections normal: a projection over
one nobody else reads fuses with it, and an item whose source is a
constant becomes an ``@`` above the projection (so constants float up to
the first non-projection, and their source ``@`` falls away).
:class:`Pass` does all of it in one pass and returns one substitution
map, which the driver glues (validation on) and absorbs once:

* **top-down** (reverse post-order) it computes what each node's rewritten
  parents need of it — ``needed`` as it is after the glue — and decides
  its form: dropped, a projection with fewer items (and ``@`` s lifted
  above it), or unchanged.  Only a node whose form or needs changed hands
  the walk on to its children.  The walk is not its own: the pass rides
  as the tail of the property refresh's top-down walk
  (:meth:`~repro.core.properties.PlanProperties.descend`), in the same
  heap, so after a structural step one walk re-infers the step's
  ``needed`` / ``set`` and normalises below it.
* **bottom-up** it builds the replacements, fusing a projection into the
  one projection left to read it (also above an operator the pass drops).
* the glue is then absorbed from the needs the pass computed
  (:meth:`~repro.core.properties.PlanProperties.absorb`): no second
  top-down walk.

It starts at ``seeds``: every node of the input plan, and after a
structural step the nodes that step's glue made dirty (what a node's form
depends on: its own ``needed``, its child's ``const`` and, for fusion,
its child's parent list; :meth:`Pass.frontier`).  The plan is normal
everywhere else, so a pass from that frontier and one from the root return
the same map (the restart reference checks it after every step), and a
second pass none.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.algebra.dag import Glue
from repro.algebra.operators import Attach, Operator, Project, RowId, RowRank
from repro.core.properties import PlanProperties, child_needed

#: The step name a normaliser pass records in the rewrite trace.
NORMALIZE = "normalize(1-4)"

#: The form of a ``#`` / ``ϱ`` / ``@`` whose column nobody needs.
_DROP = "drop"

#: The classes a pass can drop or reshape.
_SHAPED = (Attach, RowId, RowRank, Project)


def normalize(
    parents: Mapping[int, list[Operator]],
    properties: PlanProperties,
    seeds: Iterable[Operator],
    position: Mapping[int, int],
) -> dict[int, Operator]:
    """One pass from ``seeds``: ``{id(old): new}`` to glue (maybe empty).

    ``parents`` is the plan's index (one entry per edge), ``properties`` is
    exact for the plan as it stands, ``position`` is a post-order.
    """
    normaliser = Pass(parents, properties)
    properties.descend(position, parents, (), normaliser, seeds)
    return normaliser.replacements(position)


def _form(node: Operator, needed: frozenset[str], properties: PlanProperties) -> Optional[object]:
    """``_DROP``, ``(items, lifted)`` for a projection that changes, or ``None``.

    Rule (4) keeps the items somebody needs (all when nobody needs any); kept
    items with a constant source become ``@`` s above the rest, if any rest.
    """
    if isinstance(node, (Attach, RowId, RowRank)):
        return _DROP if node.column not in needed else None
    if not isinstance(node, Project):
        return None
    kept = [item for item in node.items if item[0] in needed] or list(node.items)
    const = properties.const(node.child)
    rest = [item for item in kept if item[1] not in const]
    lifted = [(new, const[old]) for new, old in kept if old in const and new in needed]
    if not rest or len(rest) == len(kept):
        rest, lifted = kept, []
    if len(rest) == len(node.items) and not lifted:
        return None
    return rest, lifted


class Pass:
    """One normaliser pass as a top-down walk visits it: the needs that
    differ from the stored ones, the forms that change, the parent edges of
    nodes below a dropped one, and the nodes visited, in visiting order."""

    def __init__(self, parents: Mapping[int, list[Operator]], properties: PlanProperties):
        self.parents, self.properties = parents, properties
        self.needs: dict[int, frozenset[str]] = {}
        self.forms: dict[int, object] = {}
        self.edges: dict[int, int] = {}
        self.order: list[Operator] = []
        self.visited: set[int] = set()

    def frontier(self, glue: Glue, bottom_up: list[Operator]) -> list[Operator]:
        """The seeds after a structural step's ``glue`` — besides the nodes
        whose ``needed`` / ``set`` the same walk finds moved: the new and
        re-pointed nodes, the parents of those whose ``const`` / ``keys``
        moved, and the parents of a projection that lost or gained a parent
        (it may fuse into the one it has left)."""
        parents = self.parents
        seeds = glue.fresh + glue.rewired
        for node in bottom_up:
            seeds += parents[id(node)]
        for node in glue.reparented:
            if isinstance(node, Project):
                seeds += parents[id(node)]
        return seeds

    def visit(self, node: Operator, handed: int) -> bool:
        """Decide ``node``'s needs and form; ``True`` if either changed.

        A seed of a class the pass cannot reshape keeps its stored needs
        and has no form: it starts nothing.
        """
        if not handed and not isinstance(node, _SHAPED):
            return False
        node_id = id(node)
        plist = self.parents[node_id]
        needs, forms = self.needs, self.forms
        needed = self.properties.needed(node)
        for parent in plist:
            if id(parent) in needs or id(parent) in forms:
                pulled, count = self.pulled(node)
                if pulled != needed:
                    needs[node_id] = needed = pulled
                if count != len(plist):
                    self.edges[node_id] = count
                break
        form = _form(node, needed, self.properties)
        if form is not None:
            forms[node_id] = form
        self.order.append(node)
        self.visited.add(node_id)
        return form is not None or node_id in needs

    def settled(self) -> list[tuple[Operator, frozenset[str]]]:
        """``(node, needed)`` for every visited node whose needs changed."""
        needs = self.needs
        return [(node, needs[id(node)]) for node in self.order if id(node) in needs]

    def replacements(self, position: Mapping[int, int]) -> dict[int, Operator]:
        """Build what the walk decided: ``{id(old): new}`` to glue (maybe empty)."""
        parents, forms = self.parents, self.forms
        # The walk visited parents first; build children first.  A projection
        # over an operator the pass drops may now fuse with what is below it,
        # though nothing else about it changed.
        order = self.order[::-1]
        fusing = [
            parent
            for node in order
            if forms.get(id(node)) is _DROP
            for parent in parents[id(node)]
            if isinstance(parent, Project) and id(parent) not in self.visited
        ]
        if fusing:
            order = sorted(order + fusing, key=lambda node: position[id(node)])
        built: dict[int, Operator] = {}
        for node in order:
            form = forms.get(id(node))
            if form is _DROP:
                child = node.children[0]
                built[id(node)] = built.get(id(child), child)
            elif isinstance(node, Project):
                replacement = self.project(node, form, built)
                if replacement is not None:
                    built[id(node)] = replacement
        # Only what a surviving parent still reads is glued; the rest is reached
        # through the replacements (or cut off with the nodes they replace).
        return {
            node_id: new
            for node_id, new in built.items()
            if any(id(parent) not in built for parent in parents[node_id])
        }

    def pulled(self, node: Operator) -> tuple[frozenset[str], int]:
        """``(needed, parent edges)`` of ``node`` under its rewritten
        parents: a dropped one hands its own through, a narrowed projection
        gives what its items read, any other what inference says it gives."""
        needed: frozenset[str] = frozenset()
        count = 0
        columns = node.column_set
        for parent in self.parents[id(node)]:
            parent_id = id(parent)
            state = self.needs.get(parent_id)
            if state is None:
                state = self.properties.needed(parent)
            form = self.forms.get(parent_id)
            if form is _DROP:
                needed |= state & columns
                count += self.edges.get(parent_id, len(self.parents[parent_id]))
                continue
            count += 1
            if form is not None:
                items, _lifted = form
                needed |= frozenset(old for _new, old in items)
                continue
            for position, child in enumerate(parent.children):
                if child is node:
                    needed |= child_needed(parent, position, node, state)
        return needed, count

    def project(
        self, node: Project, form: Optional[object], built: Mapping[int, Operator]
    ) -> Optional[Operator]:
        """The replacement of a projection (``None``: it stays), fused with its
        rebuilt child projection if it is the only reference left to that one."""
        items, lifted = form if form is not None else (list(node.items), [])
        below = node.child
        while self.forms.get(id(below)) is _DROP:
            below = below.children[0]
        child = built.get(id(below), below)
        edges = self.edges.get(id(below), len(self.parents[id(below)]))
        if isinstance(child, Project) and edges == 1:
            renaming = child.renaming()
            items = [(new, renaming[old]) for new, old in items]
            child = child.child
        elif form is None:
            return None  # the glue re-points it at a rebuilt child
        result: Operator = Project(child, items)
        for column, value in lifted:
            result = Attach(result, column, value)
        return result
