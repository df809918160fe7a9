"""Plan property inference (Tables II-V of the paper).

For every operator of a plan DAG:

* ``needed`` — the columns of its output its parents need (top-down,
  seeded with ``{pos, item}`` at the serialization point, accumulated over
  all parents): Table II's ``icols`` widened by structural mentions — a π
  needs every column its items mention, not only the needed items' sources;
* ``const`` — the ``column = constant`` facts of every output row
  (bottom-up);
* ``key`` — the candidate keys of its output (bottom-up);
* ``set`` — whether its output is de-duplicated further up on *every* path
  to the root (top-down, conjunctive).

Every reader of ``needed`` decides what a node may stop producing: the
normaliser (drop ``#`` / ``ϱ`` / ``@``, narrow π) and rules (7), (8), (9*).
A π none of whose items is needed keeps them all, so Table II's strict set
would drop a column that π still mentions: no consumer reads the strict set.

>>> from repro.algebra.operators import LiteralTable, Project, Serialize
>>> table = LiteralTable(("a", "b", "c"), [(1, 2, 3)])
>>> head = Project(table, [("item", "a"), ("pos", "b"), ("x", "c")])
>>> properties = infer_properties(Serialize(head))
>>> sorted(properties.needed(head))
['item', 'pos']
>>> sorted(properties.needed(table))  # ``c`` too: the π mentions it
['a', 'b', 'c']

A node's value is a pure function of its own fields plus its children's
(bottom-up) or parents' (top-down) values, so :func:`infer_properties`
computes them once (a *cold* inference) and the rewrite driver, whose plan
changes in place under stable node identities, calls
:meth:`PlanProperties.refresh` after each step to re-infer only the dirty
frontier the step left and learn which values moved — the icols normaliser
riding on its top-down walk — and :meth:`PlanProperties.absorb` after the
normaliser's glue, from the needs the pass computed.  The rules and the
normaliser (:mod:`repro.core.rewrite`) read them from there.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional, Protocol

from repro.algebra.dag import Glue, topological_order
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    DocTable,
    GroupAggregate,
    Join,
    LiteralTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)

#: Seed of ``needed`` at the serialization point: the two columns needed to
#: represent and serialize the resulting XML node sequence.
SERIALIZE_NEEDED = frozenset({"pos", "item"})


class PlanProperties:
    """The properties of every operator of one plan DAG, keyed by node id."""

    def __init__(self, root: Operator, order: Optional[list[Operator]] = None):
        """Infer cold, over a post-order ``order`` of the plan if the caller's
        walk already has one.  Top-down, each node hands its contribution to
        each child slot (parents come first in reverse post-order), which
        unions and conjoins to what :meth:`_top_down` pulls."""
        self.root = root
        const_by: dict[int, dict[str, object]] = {}
        keys_by: dict[int, frozenset[frozenset[str]]] = {}
        needed_by: dict[int, frozenset[str]] = {}
        set_by: dict[int, bool] = {}
        self._needed, self._const, self._keys, self._set = needed_by, const_by, keys_by, set_by
        if order is None:
            order = topological_order(root)
        for node in order:
            const_by[id(node)] = _infer_const(node, const_by)
            keys_by[id(node)] = _infer_keys(node, keys_by)
        needed_by[id(root)], set_by[id(root)] = self._top_down(root, [])
        for node in reversed(order):
            needed, is_set = needed_by[id(node)], set_by[id(node)]
            for position, child in enumerate(node.children):
                child_id = id(child)
                contribution = child_needed(node, position, child, needed)
                if child_id in needed_by:
                    needed_by[child_id] |= contribution
                    set_by[child_id] = set_by[child_id] and _child_set(node, position, is_set)
                else:
                    needed_by[child_id] = contribution
                    set_by[child_id] = _child_set(node, position, is_set)

    # -- public accessors --------------------------------------------------------

    def needed(self, node: Operator) -> frozenset[str]:
        return self._needed[id(node)]

    def const(self, node: Operator) -> dict[str, object]:
        return self._const[id(node)]

    def keys(self, node: Operator) -> frozenset[frozenset[str]]:
        return self._keys[id(node)]

    def is_set(self, node: Operator) -> bool:
        return self._set[id(node)]

    def has_key_within(self, node: Operator, columns: frozenset[str]) -> bool:
        """True when some candidate key of ``node`` is contained in ``columns``."""
        return any(key <= columns for key in self.keys(node))

    # -- inference ----------------------------------------------------------------

    def _top_down(self, node: Operator, plist: list[Operator]) -> tuple[frozenset[str], bool]:
        """``(needed, set)`` of ``node``, pulled from its parents.

        Each node unions (``needed``) and conjoins (``set``) the
        contributions of its parents, which makes the result a pure
        function of the node's schema and its parents' fields and state.
        """
        if node is self.root:
            seed = node.column_set
            if isinstance(node, Serialize):
                seed = SERIALIZE_NEEDED & seed or seed
            return seed, False
        needed_by, set_by = self._needed, self._set
        needed: frozenset[str] = frozenset()
        is_set = True
        for parent in plist:
            parent_id = id(parent)
            children = parent.children
            for position in range(len(children)) if len(children) > 1 else (0,):
                if children[position] is node:
                    needed |= child_needed(parent, position, node, needed_by[parent_id])
                    if is_set:
                        is_set = _child_set(parent, position, set_by[parent_id])
        return needed, is_set

    def refresh(
        self,
        position: Mapping[int, int],
        parents: dict[int, list[Operator]],
        glue: Glue,
        tail: Optional["TopDownTail"] = None,
    ) -> tuple[list[Operator], list[Operator]]:
        """Re-infer from the dirty frontier one :func:`~repro.algebra.dag.glue` left.

        ``position`` maps every node of the plan to its index in a post-order
        (children first) and ``parents`` is the plan's index.  ``const`` /
        ``keys`` are recomputed upward from the new and re-pointed nodes for
        as long as a value actually changes; ``needed`` / ``set``
        downward from the nodes whose parent list or schema changed,
        likewise.  Each pass pops its stale frontier off a heap in
        post-order (the top-down pass in reverse), so a node is re-inferred
        once, after everything it depends on, and the plan is never walked.
        A ``tail`` rides along the top-down pass (:meth:`descend`) from the
        seeds it asks for once ``const`` / ``keys`` are settled.

        Returns ``(top_down, bottom_up)``: the nodes whose ``needed`` / ``set``
        changed value and those whose ``const`` / ``keys`` did (a new node
        counts as changed) — the events the rewrite driver re-tries nodes on.
        """
        self._forget(glue.dropped)
        bottom_up = self._ascend(position, parents, glue)
        seeds = tail.frontier(glue, bottom_up) if tail is not None else ()
        stale = glue.fresh + glue.reparented + glue.reschemed
        return self.descend(position, parents, stale, tail, seeds), bottom_up

    def absorb(
        self,
        position: Mapping[int, int],
        parents: dict[int, list[Operator]],
        glue: Glue,
        settled: Iterable[tuple[Operator, frozenset[str]]],
    ) -> tuple[list[Operator], list[Operator]]:
        """:meth:`refresh` after gluing a normaliser pass, from what it settled.

        The pass computed, top-down, the ``needed`` every node it reached
        has under the rewritten plan (``settled``: the values that differ);
        everywhere else the value stands.  Its replacements only drop,
        narrow or fuse operators that pass rows through, so no surviving
        node's ``set`` moves.  What is left is ``const`` / ``keys`` upward
        from the glue, and both top-down values of the new nodes, parents
        first.  Returns what :meth:`refresh` returns.
        """
        self._forget(glue.dropped)
        bottom_up = self._ascend(position, parents, glue)
        needed_by, set_by = self._needed, self._set
        top_down: list[Operator] = []
        for node, needed in settled:
            if id(node) in parents:
                needed_by[id(node)] = needed
                top_down.append(node)
        # Parents first by the post-order: the glue may have re-pointed one
        # new node at another built before it (a fused projection over a
        # projection the same pass narrows).
        for node in sorted(glue.fresh, key=lambda node: -position[id(node)]):
            needed_by[id(node)], set_by[id(node)] = self._top_down(node, parents[id(node)])
            top_down.append(node)
        return top_down, bottom_up

    def _forget(self, dropped: Iterable[Operator]) -> None:
        for node in dropped:
            node_id = id(node)
            for values in (self._needed, self._const, self._keys, self._set):
                values.pop(node_id, None)

    def _ascend(
        self, position: Mapping[int, int], parents: dict[int, list[Operator]], glue: Glue
    ) -> list[Operator]:
        """``const`` / ``keys`` upward from the glue; the nodes whose values moved.

        A value is a function of the node's own fields and its children's
        values — and, for δ's keys, its child's schema — so the stale
        frontier is the new and re-pointed nodes and each re-validated δ;
        any other re-validated node is reached if a child's value moves.
        """
        const_by, keys_by = self._const, self._keys
        bottom_up: list[Operator] = []
        heap: list[tuple[int, int, Operator]] = []
        queued: set[int] = set()
        stale = glue.fresh + glue.rewired
        stale += [node for node in glue.revalidated if isinstance(node, Distinct)]
        for node in stale:
            node_id = id(node)
            if node_id not in queued:
                queued.add(node_id)
                heap.append((position[node_id], node_id, node))
        heapify(heap)
        while heap:
            _position, node_id, node = heappop(heap)
            const, keys = _infer_const(node, const_by), _infer_keys(node, keys_by)
            if const == const_by.get(node_id) and keys == keys_by.get(node_id):
                continue
            const_by[node_id], keys_by[node_id] = const, keys
            bottom_up.append(node)
            for parent in parents[node_id]:
                if id(parent) not in queued:
                    queued.add(id(parent))
                    heappush(heap, (position[id(parent)], id(parent), parent))
        return bottom_up

    def descend(
        self,
        position: Mapping[int, int],
        parents: dict[int, list[Operator]],
        stale: Iterable[Operator],
        tail: Optional["TopDownTail"] = None,
        seeds: Iterable[Operator] = (),
    ) -> list[Operator]:
        """``needed`` / ``set`` downward from ``stale``, with ``tail`` riding along.

        One heap in reverse post-order, so every node is popped once, after
        all of its parents.  A stale node is re-inferred and, if its value
        moved, reported and its children made stale.  The tail visits the
        ``seeds``, the nodes whose value moved and the children it hands the
        walk on to; it reads the values as they now stand.  Returns the
        nodes whose ``needed`` / ``set`` moved.
        """
        needed_by, set_by = self._needed, self._set
        moved: list[Operator] = []
        flags: dict[int, int] = {}
        heap: list[tuple[int, int, Operator]] = []
        for flag, nodes in ((_STALE, stale), (_SEED, seeds)):
            for node in nodes:
                node_id = id(node)
                if node_id in flags:
                    flags[node_id] |= flag
                else:
                    flags[node_id] = flag
                    heap.append((-position[node_id], node_id, node))
        heapify(heap)
        while heap:
            _position, node_id, node = heappop(heap)
            flag = flags[node_id]
            handed = 0  # the flags its children get
            if flag & _STALE:
                state = self._top_down(node, parents[node_id])
                if state != (needed_by.get(node_id), set_by.get(node_id)):
                    needed_by[node_id], set_by[node_id] = state
                    moved.append(node)
                    flag |= _SEED
                    handed = _STALE
            if tail is not None and flag & (_SEED | _HANDED) and tail.visit(node, flag & _HANDED):
                handed |= _HANDED
            if handed:
                for child in node.children:
                    child_id = id(child)
                    if child_id in flags:
                        flags[child_id] |= handed
                    else:
                        flags[child_id] = handed
                        heappush(heap, (-position[child_id], child_id, child))
        return moved


#: Why :meth:`PlanProperties.descend` queued a node: its value may be stale,
#: it seeds the tail, or the tail handed the walk on to it.
_STALE, _SEED, _HANDED = 1, 2, 4


class TopDownTail(Protocol):
    """What rides along :meth:`PlanProperties.descend` (the icols normaliser)."""

    def frontier(self, glue: Glue, bottom_up: list[Operator]) -> list[Operator]:
        """The seeds after ``glue``, given the nodes whose ``const`` / ``keys`` moved."""

    def visit(self, node: Operator, handed: int) -> bool:
        """Visit ``node`` (``handed``: the tail handed the walk on to it, not
        only seeded it); ``True`` hands the walk on to its children."""


def infer_properties(root: Operator) -> PlanProperties:
    """Infer the plan properties of every node of the DAG rooted at ``root``."""
    return PlanProperties(root)


# ---------------------------------------------------------------------------
# const (Table III)
# ---------------------------------------------------------------------------


def _infer_const(
    node: Operator, const_by: dict[int, dict[str, object]]
) -> dict[str, object]:
    # The most frequent classes are tested first.
    if isinstance(node, Project):
        child_const = const_by[id(node.children[0])]
        return {new: child_const[old] for new, old in node.items if old in child_const}
    if isinstance(node, (Select, Serialize, Distinct, RowId, RowRank)):
        return dict(const_by[id(node.children[0])])
    if isinstance(node, DocTable):
        return {}
    if isinstance(node, LiteralTable):
        constants: dict[str, object] = {}
        for index, column in enumerate(node.columns):
            values = {row[index] for row in node.rows}
            if len(values) == 1:
                constants[column] = next(iter(values))
        return constants
    if isinstance(node, Attach):
        constants = dict(const_by[id(node.child)])
        constants[node.column] = node.value
        return constants
    if isinstance(node, (Join, Cross)):
        combined = dict(const_by[id(node.children[0])])
        combined.update(const_by[id(node.children[1])])
        return combined
    if isinstance(node, GroupAggregate):
        # Loop columns pass through untouched; the aggregate value does not.
        return dict(const_by[id(node.loop)])
    return {}


# ---------------------------------------------------------------------------
# key (Table IV)
# ---------------------------------------------------------------------------


def _infer_keys(
    node: Operator, keys_by: dict[int, frozenset[frozenset[str]]]
) -> frozenset[frozenset[str]]:
    # The most frequent classes are tested first.
    if isinstance(node, Project):
        return _project_keys(node, keys_by[id(node.children[0])])
    if isinstance(node, (Select, Serialize)):
        return keys_by[id(node.children[0])]
    if isinstance(node, DocTable):
        return _DOC_KEYS
    if isinstance(node, LiteralTable):
        return _literal_table_keys(node)
    if isinstance(node, Distinct):
        return keys_by[id(node.child)] | frozenset({node.child.column_set})
    if isinstance(node, Attach):
        return keys_by[id(node.child)]
    if isinstance(node, RowId):
        return keys_by[id(node.child)] | frozenset({frozenset({node.column})})
    if isinstance(node, RowRank):
        return _rank_keys(node, keys_by[id(node.child)])
    if isinstance(node, Join):
        return _join_result_keys(node, keys_by)
    if isinstance(node, Cross):
        left = keys_by[id(node.children[0])]
        right = keys_by[id(node.children[1])]
        return frozenset({k1 | k2 for k1 in left for k2 in right})
    if isinstance(node, GroupAggregate):
        # At most one output row per loop row, loop column names unchanged.
        return keys_by[id(node.loop)]
    return frozenset()


#: The ``doc`` table's one key.
_DOC_KEYS = frozenset({frozenset({"pre"})})


def _literal_table_keys(node: LiteralTable) -> frozenset[frozenset[str]]:
    keys: set[frozenset[str]] = set()
    for index, column in enumerate(node.columns):
        values = [row[index] for row in node.rows]
        if len(values) == len(set(values)):
            keys.add(frozenset({column}))
    if len(node.rows) == len(set(node.rows)):
        keys.add(node.column_set)
    return frozenset(keys)


def _project_keys(
    node: Project, child_keys: frozenset[frozenset[str]]
) -> frozenset[frozenset[str]]:
    source_columns = frozenset(old for _new, old in node.items)
    keys: set[frozenset[str]] = set()
    for key in child_keys:
        if key <= source_columns:
            keys.add(frozenset(new for new, old in node.items if old in key))
    return frozenset(keys)


def _rank_keys(node: RowRank, child_keys: frozenset[frozenset[str]]) -> frozenset[frozenset[str]]:
    order_columns = frozenset(node.order_by)
    partition_columns = frozenset(node.partition_by)
    keys: set[frozenset[str]] = set(child_keys)
    for key in child_keys:
        if key & order_columns:
            # The rank is only unique within one partition, so the derived
            # key must carry the partition columns alongside the rank.
            keys.add(frozenset({node.column}) | (key - order_columns) | partition_columns)
    return frozenset(keys)


def _join_result_keys(
    node: Join, keys_by: dict[int, frozenset[frozenset[str]]]
) -> frozenset[frozenset[str]]:
    left, right = node.children
    left_keys = keys_by[id(left)]
    right_keys = keys_by[id(right)]
    keys: set[frozenset[str]] = set()
    predicate = node.predicate
    if predicate.is_single_column_equality():
        (a, b) = predicate.column_equalities()[0]
        # Normalise so that ``a`` belongs to the left input and ``b`` to the right.
        if a in right.columns and b in left.columns:
            a, b = b, a
        right_has_key_b = frozenset({b}) in right_keys
        left_has_key_a = frozenset({a}) in left_keys
        if right_has_key_b:
            keys |= set(left_keys)
            keys |= {(k1 - {a}) | k2 for k1 in left_keys for k2 in right_keys}
        if left_has_key_a:
            keys |= set(right_keys)
            keys |= {k1 | (k2 - {b}) for k1 in left_keys for k2 in right_keys}
        if not keys:
            keys = {k1 | k2 for k1 in left_keys for k2 in right_keys}
        return frozenset(keys)
    return frozenset({k1 | k2 for k1 in left_keys for k2 in right_keys})


# ---------------------------------------------------------------------------
# needed (Table II, widened) and set (Table V): contribution of a parent to one child
# ---------------------------------------------------------------------------


def child_needed(
    parent: Operator, position: int, child: Operator, needed: frozenset[str]
) -> frozenset[str]:
    """The columns of ``child`` that ``parent`` (whose own set is ``needed``) needs."""
    columns = child.column_set
    if isinstance(parent, Project):
        return frozenset(old for _new, old in parent.items) & columns
    if isinstance(parent, Serialize):
        return SERIALIZE_NEEDED & columns or columns
    if isinstance(parent, (Select, Join)):
        return (needed | parent.predicate.columns()) & columns
    if isinstance(parent, RowRank):
        return (needed | frozenset(parent.order_by) | frozenset(parent.partition_by)) & columns
    if isinstance(parent, GroupAggregate):
        return (needed | {parent.group_column, parent.unit_column, parent.value_column}) & columns
    return needed & columns


def _child_set(node: Operator, position: int, node_set: bool) -> bool:
    if not isinstance(node, (Distinct, Serialize, GroupAggregate)):
        return node_set
    if isinstance(node, Distinct):
        return True
    if isinstance(node, Serialize):
        return False
    if isinstance(node, GroupAggregate):
        # The aggregation itself deduplicates its *argument* on
        # (group, unit, value) — every column it keeps — so a δ below the
        # child is redundant and removable.  The loop input's multiplicity
        # is observed verbatim (one output row per loop row).
        return position == 0
    return node_set
