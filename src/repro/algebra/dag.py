"""Traversal and in-place gluing utilities for plan DAGs.

Plan operators are shared and treated as immutable.  The one exception is
an isolation run, which works on a private :func:`thaw` ed copy that
:func:`glue` — and nothing else — mutates in place, keeping the identity
of every node a rewrite step does not touch.  Also here: the reachability
relation ``⇛`` the rewrite rules of Fig. 5 consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Type

from repro.algebra.operators import Operator
from repro.errors import AlgebraError


def iter_nodes(root: Operator) -> Iterator[Operator]:
    """Yield every distinct node of the DAG rooted at ``root`` (post-order).

    Implemented iteratively so that very deep (pathological) plans cannot hit
    Python's recursion limit.
    """
    seen: set[int] = set()
    stack: list[tuple[Operator, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node.children):
            if id(child) not in seen:
                stack.append((child, False))


def topological_order(root: Operator) -> list[Operator]:
    """All distinct nodes, children before parents."""
    return list(iter_nodes(root))


def node_count(root: Operator) -> int:
    """Number of distinct operators in the plan."""
    return sum(1 for _ in iter_nodes(root))


def count_operators(root: Operator, operator_type: Type[Operator]) -> int:
    """Number of distinct operators of the given type in the plan."""
    return sum(1 for node in iter_nodes(root) if isinstance(node, operator_type))


def operator_histogram(root: Operator) -> dict[str, int]:
    """Histogram of operator class names — used by the plan-shape experiments."""
    histogram: dict[str, int] = {}
    for node in iter_nodes(root):
        name = type(node).__name__
        histogram[name] = histogram.get(name, 0) + 1
    return histogram


def parents_map(root: Operator) -> dict[int, list[Operator]]:
    """Map ``id(node) -> list of parent nodes`` for the DAG rooted at ``root``."""
    order = topological_order(root)
    parents: dict[int, list[Operator]] = {id(node): [] for node in order}
    for node in order:
        for child in node.children:
            parents[id(child)].append(node)
    return parents


def reaches(source: Operator, target: Operator) -> bool:
    """The reachability relation ``source ⇛ target`` (true also when identical)."""
    if source is target:
        return True
    return any(target is node for node in iter_nodes(source))


def thaw(root: Operator) -> tuple[Operator, dict[int, list[Operator]]]:
    """A private copy of the DAG (sharing preserved) plus its parent index.

    The copy is what :func:`glue` may mutate; ``root``'s own operators are
    left untouched.  Leaves are shared with the input — they have no
    ``children`` to re-point and their schema never changes.  The index
    (``id(node) -> [parent, ...]``, one entry per edge) is kept current by
    :func:`glue` from here on.
    """
    copies: dict[int, Operator] = {}
    parents: dict[int, list[Operator]] = {}
    for node in iter_nodes(root):
        copy = node.with_children([copies[id(child)] for child in node.children])
        copies[id(node)] = copy
        parents[id(copy)] = []
        for child in copy.children:
            parents[id(child)].append(copy)
    return copies[id(root)], parents


@dataclass
class Glue:
    """What one :func:`glue` changed, as the events per-node state hangs off.

    All lists hold nodes of the plan *after* the glue, except ``dropped``.
    """

    #: Replacement nodes that entered the plan, children first.
    fresh: list[Operator]
    #: Nodes left without parents, removed from the plan and the index.
    dropped: list[Operator]
    #: Parents whose ``children`` slots were re-pointed at a replacement.
    rewired: list[Operator]
    #: Nodes an input of which changed schema: re-checked against it, and
    #: given new ``columns`` themselves where theirs follow the input's.
    revalidated: list[Operator]
    #: The re-validated nodes whose own ``columns`` changed.
    reschemed: list[Operator]
    #: Surviving nodes whose parent list gained or lost an entry.
    reparented: list[Operator]


def glue(
    parents: dict[int, list[Operator]], replacements: Mapping[int, Operator]
) -> Glue:
    """Glue ``replacements`` into a thawed plan *in place* — the one mutator.

    A double-pushout rewrite step done in place on a plan from
    :func:`thaw`: the pushout complement is "un-point these edges", the
    glue "point them at the replacement", and nothing above the match is
    re-created, so every node the map does not mention keeps its identity.
    (The restart reference of the rewrite tests glues purely, rebuilding
    every ancestor; the tests hold the two against each other.)
    The same occurrence rule applies: a parent that sits *inside* the
    replacement of the node it references (rule (8) wraps its match) keeps
    that reference — re-pointing it would close a cycle — while every
    other reference, including those from other entries' new nodes, moves.

    Validate, then commit.  Each constructor check is a function of the
    children's ``columns`` only, so a parent whose new input exposes an
    equal ``columns`` tuple needs neither re-validation nor a new object.
    Where the tuple differs the parent is re-validated by a throw-away
    ``with_children`` — exactly where the global premise of a rewrite can
    fail — and, if its own schema changes too, the walk continues from it
    (on commit it keeps its identity and takes the new ``columns``).
    An :class:`~repro.errors.AlgebraError` raised there leaves plan and
    index exactly as they were.  Nodes only reachable through what the glue
    cuts off are not validated (a pushout would not rebuild them either).
    The plan root is never a key: it has no parent to re-point.
    """
    fresh: list[Operator] = []
    walk: list[tuple[Operator, bool]] = [(new, False) for new in replacements.values()]
    while walk:
        node, expanded = walk.pop()
        if expanded:
            fresh.append(node)
        elif id(node) not in parents:
            parents[id(node)] = []
            walk.append((node, True))
            walk.extend((child, False) for child in node.children)
    for node in fresh:
        for child in node.children:
            parents[id(child)].append(node)
    try:
        moved, doomed, revalidated = _validate_glue(parents, replacements, fresh)
    except AlgebraError:
        for node in reversed(fresh):
            for child in node.children:
                parents[id(child)].remove(node)
            del parents[id(node)]
        raise

    reschemed = [node for node, columns in revalidated if columns != node.columns]
    for node, columns in revalidated:
        node.columns = columns
        node.column_set = frozenset(columns)
    rewired: list[Operator] = []
    reparented: list[Operator] = [c for n in fresh for c in n.children]
    for old_id, new in replacements.items():
        old, movers = moved[old_id]
        for parent in movers:
            parent.children = tuple(new if c is old else c for c in parent.children)
            parents[old_id].remove(parent)
            parents[id(new)].append(parent)
            rewired.append(parent)
        reparented += (old, new)
    for node in doomed:
        del parents[id(node)]
    for node in doomed:
        for child in node.children:
            if id(child) in parents:
                parents[id(child)].remove(node)
                reparented.append(child)
    return Glue(
        fresh=[node for node in fresh if id(node) in parents],
        dropped=doomed,
        rewired=_alive(rewired, parents),
        revalidated=[node for node, _columns in revalidated],
        reschemed=reschemed,
        reparented=_alive(reparented, parents),
    )


def _alive(nodes: list[Operator], parents: Mapping[int, list[Operator]]) -> list[Operator]:
    """The distinct nodes of ``nodes`` still in the index."""
    return list({id(node): node for node in nodes if id(node) in parents}.values())


def _validate_glue(
    parents: Mapping[int, list[Operator]],
    replacements: Mapping[int, Operator],
    fresh: list[Operator],
) -> tuple[
    dict[int, tuple[Operator, list[Operator]]],
    list[Operator],
    list[tuple[Operator, tuple[str, ...]]],
]:
    """The validate half of :func:`glue`; mutates nothing.

    Returns ``moved`` (``id(old) -> (old, parents to re-point)``), the
    nodes the glue cuts off (parents before children) and a ``(node,
    columns to commit)`` pair per re-validated node; raises ``AlgebraError``.
    """
    fresh_ids = {id(node) for node in fresh}
    moved: dict[int, tuple[Operator, list[Operator]]] = {}
    arriving: dict[int, list[Operator]] = {}
    for old_id, new in replacements.items():
        referrers = parents[old_id]
        if not referrers:
            raise AlgebraError("cannot glue at the plan root")
        old = next(child for child in referrers[0].children if id(child) == old_id)
        inside: set[int] = set()
        if any(id(parent) in fresh_ids for parent in referrers):
            # Occurrences of ``old`` inside its own replacement are preserved.
            stack = [new]
            while stack:
                node = stack.pop()
                if id(node) in fresh_ids and id(node) not in inside:
                    inside.add(id(node))
                    stack.extend(node.children)
        movers = [parent for parent in referrers if id(parent) not in inside]
        moved[old_id] = (old, movers)
        arriving.setdefault(id(new), []).extend(movers)

    def parents_after(node: Operator) -> list[Operator]:
        if id(node) in moved:
            movers = moved[id(node)][1]
            return [p for p in parents[id(node)] if p not in movers]
        return parents[id(node)] + arriving.get(id(node), [])

    def children_after(node: Operator) -> list[Operator]:
        return [
            replacements[id(child)]
            if id(child) in moved and node in moved[id(child)][1]
            else child
            for child in node.children
        ]

    # What the glue cuts off: replaced nodes nobody keeps pointing at, and
    # whatever only they reached.
    doomed = [old for old, _movers in moved.values() if not parents_after(old)]
    lost: dict[int, int] = {}
    for node in doomed:
        for child in children_after(node):
            lost[id(child)] = lost.get(id(child), 0) + 1
            if lost[id(child)] == len(parents_after(child)):
                doomed.append(child)
    dead = {id(node) for node in doomed}

    # The schema walk, upward from the glue points whose ``columns`` differ
    # and only as far as they keep differing.  A node can be reached before
    # all of its inputs are final, so it is re-evaluated whenever one moves
    # and a failure only counts if it is the node's last word.
    shadow: dict[int, Operator] = {}
    failed: dict[int, AlgebraError] = {}
    queue = [
        parent
        for old_id, new in replacements.items()
        if new.columns != moved[old_id][0].columns
        for parent in moved[old_id][1]
    ]
    for node in queue:  # grows while iterating
        if id(node) in dead:
            continue
        before = shadow.pop(id(node), node).columns
        failed.pop(id(node), None)
        inputs = [shadow.get(id(child), child) for child in children_after(node)]
        try:
            rebuilt = node.with_children(inputs)
        except AlgebraError as error:
            failed[id(node)] = error
            rebuilt = node
        if rebuilt.columns != node.columns:
            shadow[id(node)] = rebuilt
        if rebuilt.columns != before:
            queue.extend(parents_after(node))
    for error in failed.values():
        raise error
    revalidated = {
        id(node): (node, shadow.get(id(node), node).columns)
        for node in queue
        if id(node) not in dead
    }
    return moved, doomed, list(revalidated.values())


def find_nodes(root: Operator, match: Callable[[Operator], bool]) -> list[Operator]:
    """All distinct nodes satisfying ``match``, in post-order."""
    return [node for node in iter_nodes(root) if match(node)]


def find_first(root: Operator, match: Callable[[Operator], bool]) -> Optional[Operator]:
    """The first node (post-order) satisfying ``match``, or ``None``."""
    for node in iter_nodes(root):
        if match(node):
            return node
    return None


def shared_nodes(root: Operator) -> list[Operator]:
    """All nodes referenced by more than one parent (the DAG's sharing points)."""
    parents = parents_map(root)
    return [node for node in iter_nodes(root) if len(parents[id(node)]) > 1]
