"""Traversal and reconstruction utilities for plan DAGs.

Plan operators are immutable and shared, so "modifying" a plan means
rebuilding the spine from the changed node up to the root while preserving
sharing everywhere else.  The helpers here implement exactly that, plus the
reachability relation ``⇛`` the rewrite rules of Fig. 5 consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Type

from repro.algebra.operators import Operator


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
    object that took its place at the top-level gluing context — the
    replacement identities a provenance trace records, and the seed of the
    rewrite driver's dirty-node worklist.

    ``rebuilt`` maps ``id(old node) -> new node`` for every *mechanical*
    rebuild: an ancestor of a replacement that was re-created by
    ``with_children`` with all of its own fields intact.  Unlike ``glued``
    entries (whose shape the replacement dictates), a rebuilt node is
    field-for-field the old operator over new inputs — the equivalence the
    rewrite driver's cross-step memos use to migrate property entries
    across a step instead of discarding the whole ancestor cone.  A node
    rebuilt into *different* objects under different gluing contexts is
    omitted (no single counterpart exists).
    """

    root: Operator
    glued: dict[int, Operator] = field(default_factory=dict)
    rebuilt: dict[int, Operator] = field(default_factory=dict)


def pushout(
    root: Operator,
    replacements: Mapping[int, Operator],
    parents: Optional[Mapping[int, list[Operator]]] = None,
    order: Optional[list[Operator]] = None,
) -> Pushout:
    """Rebuild the DAG with ``replacements`` (keyed by ``id`` of the old node).

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

    ``parents`` (an ``id(node) -> [parent, ...]`` index of the plan) and
    ``order`` (its topological order, children first) are what the rewrite
    driver computes once per step anyway.  Passed together they enable the
    single-replacement fast path: the rebuild cone — the ancestors of the
    one replaced node — is found by walking the index upward and rebuilt in
    one flat bottom-up loop over ``order``, so the substitution costs
    O(cone) instead of a full-plan pass.  The resulting graph is identical
    to the generic path's.

    Neither path recurses: plan depth grows with query size (one level per
    path step), and a hostile query must not be able to exhaust the Python
    stack here.
    """
    if parents is not None and order is not None and len(replacements) == 1:
        ((target_id, replacement),) = tuple(replacements.items())
        return _pushout_single(root, target_id, replacement, parents, order)
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
    rebuilt: dict[int, Operator] = {}
    ambiguous: set[int] = set()

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
                previous = rebuilt.setdefault(node_id, result)
                if previous is not result:
                    # Rebuilt differently under two gluing contexts: there
                    # is no single counterpart to migrate memo entries to.
                    ambiguous.add(node_id)
        memo[key] = result

    for node_id in ambiguous:
        del rebuilt[node_id]
    return Pushout(root=memo[(id(root), frozenset())], glued=glued, rebuilt=rebuilt)


def _pushout_single(
    root: Operator,
    target_id: int,
    replacement: Operator,
    parents: Mapping[int, list[Operator]],
    order: list[Operator],
) -> Pushout:
    """The indexed fast path of :func:`pushout` (one replacement).

    Only the ancestors of the target can change; everything else — the
    target's own subtree, the replacement's internals (where a preserved
    occurrence of the target legitimately lives, cf. the banned set of the
    generic path), and all unrelated nodes — is spliced in by identity.
    """
    cone: set[int] = set()
    stack: list[int] = [target_id]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            parent_id = id(parent)
            if parent_id not in cone:
                cone.add(parent_id)
                stack.append(parent_id)
    mapped: dict[int, Operator] = {target_id: replacement}
    rebuilt: dict[int, Operator] = {}
    # ``order`` lists children before parents, so every cone node's
    # children are already mapped when it is reached.
    for node in order:
        if id(node) not in cone:
            continue
        new_children = [mapped.get(id(child), child) for child in node.children]
        if all(new is old for new, old in zip(new_children, node.children)):
            result = node
        else:
            result = node.with_children(new_children)
            rebuilt[id(node)] = result
        mapped[id(node)] = result
    return Pushout(
        root=mapped.get(id(root), root),
        glued={target_id: replacement},
        rebuilt=rebuilt,
    )


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
