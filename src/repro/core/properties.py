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
frontier the step left and learn which values moved.  The rules and the
normaliser (:mod:`repro.core.rewrite`) read them from there.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional

from repro.algebra.dag import Glue, parents_map, topological_order
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

    def __init__(self, root: Operator, parents: Optional[dict[int, list[Operator]]] = None):
        self.root = root
        self._needed: dict[int, frozenset[str]] = {}
        self._const: dict[int, dict[str, object]] = {}
        self._keys: dict[int, frozenset[frozenset[str]]] = {}
        self._set: dict[int, bool] = {}
        order = topological_order(root)
        if parents is None:
            parents = parents_map(root)
        for node in order:
            self._const[id(node)] = _infer_const(node, self._const)
            self._keys[id(node)] = _infer_keys(node, self._keys)
        for node in reversed(order):
            node_id = id(node)
            self._needed[node_id], self._set[node_id] = self._top_down(node, parents[node_id])

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
        needed: frozenset[str] = frozenset()
        is_set = True
        for parent in plist:
            parent_id = id(parent)
            for position, child in enumerate(parent.children):
                if child is node:
                    needed |= child_needed(parent, position, node, self._needed[parent_id])
                    is_set = is_set and _child_set(parent, position, self._set[parent_id])
        return needed, is_set

    def refresh(
        self, position: Mapping[int, int], parents: dict[int, list[Operator]], glue: Glue
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

        Returns ``(top_down, bottom_up)``: the nodes whose ``needed`` / ``set``
        changed value and those whose ``const`` / ``keys`` did (a new node
        counts as changed) — the events the rewrite driver re-tries nodes on.
        """
        for node in glue.dropped:
            for values in (self._needed, self._const, self._keys, self._set):
                values.pop(id(node), None)
        const_by, keys_by = self._const, self._keys
        bottom_up: list[Operator] = []
        heap, queued = frontier_heap(position, glue.fresh + glue.rewired + glue.revalidated, 1)
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
        needed_by, set_by = self._needed, self._set
        top_down: list[Operator] = []
        heap, queued = frontier_heap(position, glue.fresh + glue.reparented + glue.reschemed, -1)
        while heap:
            _position, node_id, node = heappop(heap)
            state = self._top_down(node, parents[node_id])
            if state == (needed_by.get(node_id), set_by.get(node_id)):
                continue
            needed_by[node_id], set_by[node_id] = state
            top_down.append(node)
            for child in node.children:
                if id(child) not in queued:
                    queued.add(id(child))
                    heappush(heap, (-position[id(child)], id(child), child))
        return top_down, bottom_up


def frontier_heap(
    position: Mapping[int, int], seeds: Iterable[Operator], direction: int
) -> tuple[list[tuple[int, int, Operator]], set[int]]:
    """The seeds as a heap on ``direction`` × post-order position, and their ids."""
    entries = {id(node): (direction * position[id(node)], id(node), node) for node in seeds}
    heap = list(entries.values())
    heapify(heap)
    return heap, set(entries)


def infer_properties(root: Operator) -> PlanProperties:
    """Infer the plan properties of every node of the DAG rooted at ``root``."""
    return PlanProperties(root)


# ---------------------------------------------------------------------------
# const (Table III)
# ---------------------------------------------------------------------------


def _infer_const(
    node: Operator, const_by: dict[int, dict[str, object]]
) -> dict[str, object]:
    if isinstance(node, DocTable):
        return {}
    if isinstance(node, LiteralTable):
        constants: dict[str, object] = {}
        for index, column in enumerate(node.columns):
            values = {row[index] for row in node.rows}
            if len(values) == 1:
                constants[column] = next(iter(values))
        return constants
    if isinstance(node, (Serialize, Select, Distinct, RowId, RowRank)):
        return dict(const_by[id(node.children[0])])
    if isinstance(node, Project):
        child_const = const_by[id(node.child)]
        return {new: child_const[old] for new, old in node.items if old in child_const}
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
    if isinstance(node, DocTable):
        return frozenset({frozenset({"pre"})})
    if isinstance(node, LiteralTable):
        return _literal_table_keys(node)
    if isinstance(node, (Serialize, Select)):
        return keys_by[id(node.children[0])]
    if isinstance(node, Project):
        return _project_keys(node, keys_by[id(node.child)])
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
    if isinstance(parent, Serialize):
        return SERIALIZE_NEEDED & columns or columns
    if isinstance(parent, Project):
        return frozenset(old for _new, old in parent.items) & columns
    if isinstance(parent, (Select, Join)):
        return (needed | parent.predicate.columns()) & columns
    if isinstance(parent, RowRank):
        return (needed | frozenset(parent.order_by) | frozenset(parent.partition_by)) & columns
    if isinstance(parent, GroupAggregate):
        return (needed | {parent.group_column, parent.unit_column, parent.value_column}) & columns
    return needed & columns


def _child_set(node: Operator, position: int, node_set: bool) -> bool:
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
