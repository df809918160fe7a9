"""Traversal and reconstruction utilities for plan DAGs.

Plan operators are immutable and shared, so "modifying" a plan means
rebuilding the spine from the changed node up to the root while preserving
sharing everywhere else: :func:`pushout` and the helpers built on it do
exactly that.  The one exception is an isolation run, which works on a
private :func:`thaw` ed copy that :func:`glue` — and nothing else —
mutates in place.  Also here: the reachability relation ``⇛`` the rewrite
rules of Fig. 5 consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    is re-created.  (:func:`glue` is its in-place counterpart for a thawed
    plan; the rewrite tests hold the two against each other.)

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
    #: Surviving nodes whose parent list gained or lost an entry.
    reparented: list[Operator]


def glue(
    parents: dict[int, list[Operator]], replacements: Mapping[int, Operator]
) -> Glue:
    """Glue ``replacements`` into a thawed plan *in place* — the one mutator.

    The in-place counterpart of :func:`pushout` on a plan from
    :func:`thaw`: the pushout complement is "un-point these edges", the
    glue "point them at the replacement", and nothing above the match is
    re-created, so every node the map does not mention keeps its identity.
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

    for node, columns in revalidated:
        node.columns = columns
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


def substitute(root: Operator, replacements: Mapping[int, Operator]) -> Operator:
    """Rebuild the DAG with ``replacements`` — see :func:`pushout`."""
    return pushout(root, replacements).root


def replace_node(root: Operator, old: Operator, new: Operator) -> Operator:
    """Replace one node of the DAG (all references to it) and return the new root."""
    return substitute(root, {id(old): new})


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
