"""Plan property inference (Tables II-V of the paper).

For every operator of a plan DAG four properties are inferred:

``icols``
    The set of input columns strictly required by the operator's upstream
    plan (top-down, seeded with ``{pos, item}`` at the serialization point,
    accumulated over all parents).

``const``
    The set of ``column = constant`` facts that hold for every output row
    (bottom-up).

``key``
    The set of candidate keys of the operator's output (bottom-up).

``set``
    Whether the operator's output rows are subject to duplicate elimination
    further up on *every* path to the root (top-down, seeded ``False`` at
    the root, conjunctively accumulated).

A fifth, auxiliary property rides on the top-down pass: ``refs``, the
columns of a node that are *structurally mentioned* upstream (a superset of
``icols`` — see :meth:`PlanProperties.refs`).

The rewrite rules of :mod:`repro.core.rewrite.rules` consult these
properties through one :class:`PlanProperties` object per plan.  Every
node's result is a pure function of its own fields plus its children's
(bottom-up) or parents' (top-down) results.  ``infer_properties(plan)``
computes all of them once (a *cold* inference); the rewrite driver, whose
plan changes in place under stable node identities, then calls
:meth:`PlanProperties.refresh` after each step, which re-infers only the
dirty frontier the step left behind.
"""

from __future__ import annotations

from typing import Optional

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

#: Seed of ``icols`` at the serialization point: the two columns needed to
#: represent and serialize the resulting XML node sequence.
SERIALIZE_ICOLS = frozenset({"pos", "item"})

_NO_REFS: frozenset[str] = frozenset()


class PlanProperties:
    """The properties of every operator of one plan DAG, keyed by node id."""

    def __init__(
        self, root: Operator, parents: Optional[dict[int, list[Operator]]] = None
    ):
        self.root = root
        self._icols: dict[int, frozenset[str]] = {}
        self._const: dict[int, dict[str, object]] = {}
        self._keys: dict[int, frozenset[frozenset[str]]] = {}
        self._set: dict[int, bool] = {}
        self._refs: dict[int, frozenset[str]] = {}
        order = topological_order(root)
        if parents is None:
            parents = parents_map(root)
        for node in order:
            self._const[id(node)] = _infer_const(node, self._const)
            self._keys[id(node)] = _infer_keys(node, self._keys)
        for node in reversed(order):
            node_id = id(node)
            self._icols[node_id], self._set[node_id], self._refs[node_id] = (
                self._top_down(node, parents[node_id])
            )

    # -- public accessors --------------------------------------------------------

    def icols(self, node: Operator) -> frozenset[str]:
        return self._icols[id(node)]

    def const(self, node: Operator) -> dict[str, object]:
        return self._const[id(node)]

    def keys(self, node: Operator) -> frozenset[frozenset[str]]:
        return self._keys[id(node)]

    def is_set(self, node: Operator) -> bool:
        return self._set[id(node)]

    def refs(self, node: Operator) -> frozenset[str]:
        """Column names of ``node``'s output referenced structurally upstream.

        A conservative superset of ``icols``: a parent that still *mentions*
        a column (e.g. a dead projection item) counts even though the column
        is not strictly required, which keeps rewrites that narrow an
        operator's output schema from breaking such parents.
        """
        return self._refs[id(node)]

    def has_key_within(self, node: Operator, columns: frozenset[str]) -> bool:
        """True when some candidate key of ``node`` is contained in ``columns``."""
        return any(key <= columns for key in self.keys(node))

    # -- inference ----------------------------------------------------------------

    def _top_down(
        self, node: Operator, plist: list[Operator]
    ) -> tuple[frozenset[str], bool, frozenset[str]]:
        """``(icols, set, refs)`` of ``node``, pulled from its parents.

        Each node unions (``icols``, ``refs``) and conjoins (``set``) the
        contributions of its parents, which makes the result a pure
        function of the node's schema and its parents' fields and state.
        """
        if node is self.root:
            seed = frozenset(node.columns)
            if isinstance(node, Serialize):
                seed = SERIALIZE_ICOLS & seed or seed
            return seed, False, _NO_REFS
        icols: frozenset[str] = frozenset()
        is_set = True
        refs: set[str] = set()
        for parent in plist:
            parent_id = id(parent)
            for position, child in enumerate(parent.children):
                if child is node:
                    icols = icols | _child_icols(
                        parent, position, node, self._icols[parent_id]
                    )
                    is_set = is_set and _child_set(parent, position, self._set[parent_id])
            refs |= _parent_refs(parent, node, self._refs[parent_id])
        return icols, is_set, frozenset(refs) if refs else _NO_REFS

    def refresh(
        self, order: list[Operator], parents: dict[int, list[Operator]], glue: Glue
    ) -> list[Operator]:
        """Re-infer from the dirty frontier one :func:`~repro.algebra.dag.glue` left.

        ``order`` is the plan's current topological order (children first)
        and ``parents`` its index.  ``const`` / ``keys`` are recomputed
        upward from the new and re-pointed nodes for as long as a value
        actually changes; ``icols`` / ``set`` / ``refs`` downward from the
        nodes whose parent list or (possibly) schema changed, likewise.  Returns the
        nodes whose top-down state changed (the rewrite driver re-tries
        them).
        """
        for node in glue.dropped:
            for values in (self._icols, self._const, self._keys, self._set, self._refs):
                values.pop(id(node), None)
        const_by, keys_by = self._const, self._keys
        stale = {id(node) for node in glue.fresh + glue.rewired + glue.revalidated}
        for node in order:
            node_id = id(node)
            if node_id not in stale:
                continue
            const, keys = _infer_const(node, const_by), _infer_keys(node, keys_by)
            if const == const_by.get(node_id) and keys == keys_by.get(node_id):
                continue
            const_by[node_id], keys_by[node_id] = const, keys
            stale.update(id(parent) for parent in parents[node_id])
        icols_by, set_by, refs_by = self._icols, self._set, self._refs
        stale = {id(node) for node in glue.fresh + glue.reparented + glue.revalidated}
        changed: list[Operator] = []
        for node in reversed(order):
            node_id = id(node)
            if node_id not in stale:
                continue
            state = self._top_down(node, parents[node_id])
            if state == (icols_by.get(node_id), set_by.get(node_id), refs_by.get(node_id)):
                continue
            icols_by[node_id], set_by[node_id], refs_by[node_id] = state
            changed.append(node)
            stale.update(id(child) for child in node.children)
        return changed


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
        return keys_by[id(node.child)] | frozenset({frozenset(node.child.columns)})
    if isinstance(node, Attach):
        return keys_by[id(node.child)]
    if isinstance(node, RowId):
        return keys_by[id(node.child)] | frozenset({frozenset({node.column})})
    if isinstance(node, RowRank):
        return _rank_keys(node, keys_by[id(node.child)])
    if isinstance(node, Join):
        return _join_keys(node, keys_by)
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
        keys.add(frozenset(node.columns))
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


def _join_keys(
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
# upstream refs: structural references of one parent into one child
# ---------------------------------------------------------------------------


def _parent_refs(
    parent: Operator, child: Operator, parent_refs: frozenset[str]
) -> set[str]:
    """Columns of ``child`` that ``parent`` structurally references.

    ``parent_refs`` is the parent's own (already computed) upstream refs —
    pass-through operators forward them.  This is the per-edge contribution
    the top-down pass sums into :meth:`PlanProperties.refs`.
    """
    child_columns = set(child.columns)
    refs: set[str] = set()
    if isinstance(parent, Project):
        refs |= {old for _new, old in parent.items} & child_columns
        return refs
    if isinstance(parent, Select):
        refs |= set(parent.predicate.columns()) & child_columns
    elif isinstance(parent, Join):
        refs |= set(parent.predicate.columns()) & child_columns
    elif isinstance(parent, RowRank):
        refs |= (set(parent.order_by) | set(parent.partition_by)) & child_columns
    elif isinstance(parent, GroupAggregate):
        structural = {parent.group_column, parent.unit_column}
        if parent.value_column is not None:
            structural.add(parent.value_column)
        refs |= structural & child_columns
    # Pass-through parents forward their own upstream references.
    if isinstance(
        parent,
        (Select, Join, Cross, Distinct, Attach, RowId, RowRank, GroupAggregate, Serialize),
    ):
        refs |= parent_refs & child_columns
    return refs


# ---------------------------------------------------------------------------
# icols (Table II) and set (Table V): contribution of a parent to one child
# ---------------------------------------------------------------------------


def _child_icols(
    node: Operator, position: int, child: Operator, icols: frozenset[str]
) -> frozenset[str]:
    if isinstance(node, Serialize):
        return SERIALIZE_ICOLS & frozenset(child.columns) or frozenset(child.columns)
    if isinstance(node, Project):
        needed = icols & frozenset(node.columns)
        return frozenset(old for new, old in node.items if new in needed)
    if isinstance(node, Select):
        return (icols | node.predicate.columns()) & frozenset(child.columns)
    if isinstance(node, Join):
        return (icols | node.predicate.columns()) & frozenset(child.columns)
    if isinstance(node, Cross):
        return icols & frozenset(child.columns)
    if isinstance(node, Distinct):
        return icols & frozenset(child.columns)
    if isinstance(node, Attach):
        return (icols - {node.column}) & frozenset(child.columns)
    if isinstance(node, RowId):
        return (icols - {node.column}) & frozenset(child.columns)
    if isinstance(node, RowRank):
        return (
            (icols - {node.column})
            | frozenset(node.order_by)
            | frozenset(node.partition_by)
        ) & frozenset(child.columns)
    if isinstance(node, GroupAggregate):
        if position == 0:  # the aggregated input
            needed = {node.group_column, node.unit_column}
            if node.value_column is not None:
                needed.add(node.value_column)
            return frozenset(needed)
        # The loop: everything upstream needs except the aggregate value,
        # plus the group column the aggregation itself keys on.
        return ((icols - {node.item_column}) | {node.group_column}) & frozenset(child.columns)
    return icols & frozenset(child.columns)


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
