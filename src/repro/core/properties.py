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
properties through a :class:`PlanProperties` snapshot, one per rewrite
step.  There is one inference pass.  Every node's result is a pure function
of its own fields plus its children's (bottom-up) or parents' (top-down)
results, so the pass validates and fills identity-keyed memos as it goes:
called bare, ``infer_properties(plan)`` runs it over fresh, empty memos (a
*cold* inference); the rewrite driver threads its memos through every step
of a run, so a step re-infers only the region a rewrite actually changed.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.dag import parents_map, topological_order
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


#: Cross-step memo for the bottom-up properties: ``id(node) -> (node, child
#: states, const, keys)`` with one ``(columns, const, keys)`` triple per
#: child.  ``const`` / ``keys`` are a pure function of the node's own fields
#: and its children's ``(columns, const, keys)``, so an entry is valid when
#: the pinned node is identical (same fields) and every child's current
#: values match the stored triple.  Entries therefore survive the pushout's
#: mechanical ancestor rebuilds: the rewrite driver re-keys them along
#: :attr:`~repro.algebra.dag.Pushout.rebuilt` (a ``with_children`` rebuild
#: preserves all fields), and the child-state check picks up whether the
#: rewrite below actually changed anything the node's properties depend on.
#: Recomputed-but-equal values re-use the previous value *object*, which is
#: what lets parents validate by identity instead of deep comparison.
BottomUpMemo = dict

#: Cross-step memo for the top-down state: ``id(node) -> (node, parent
#: tuple, parent state tuple, icols, set, refs, columns)``.  ``icols`` /
#: ``set`` / ``refs`` of a node are each a pure function of its own column
#: schema plus its parents' fields and top-down state, so an entry is valid
#: when every stored parent
#: is the identical object — or its mechanical rebuild, looked up through
#: the step's ``rebuilt`` map — holding the identical state objects, and the
#: node's schema is unchanged.  Re-inference recomputes only the cone
#: actually affected by a rewrite: a recomputed-but-equal value re-uses the
#: previous value *object*, which lets the identity check cut the cascade
#: off at the first node whose properties did not really change.
TopDownMemo = dict

#: The one empty-refs object: seeds and recomputations share it so the
#: identity checks above hold across steps without a value comparison.
_NO_REFS: frozenset[str] = frozenset()


class PlanProperties:
    """A property snapshot for every operator of one plan DAG."""

    def __init__(
        self,
        root: Operator,
        bottom_up_memo: Optional[BottomUpMemo] = None,
        top_down_memo: Optional[TopDownMemo] = None,
        order: Optional[list[Operator]] = None,
        parents: Optional[dict[int, list[Operator]]] = None,
        rebuilt: Optional[dict[int, Operator]] = None,
    ):
        self.root = root
        self._icols: dict[int, frozenset[str]] = {}
        self._const: dict[int, dict[str, object]] = {}
        self._keys: dict[int, frozenset[frozenset[str]]] = {}
        self._set: dict[int, bool] = {}
        self._refs: dict[int, frozenset[str]] = {}
        if order is None:
            order = topological_order(root)
        self._infer_bottom_up(
            order, bottom_up_memo if bottom_up_memo is not None else {}
        )
        self._infer_top_down(
            order,
            parents if parents is not None else parents_map(root),
            top_down_memo if top_down_memo is not None else {},
            rebuilt if rebuilt is not None else {},
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

    def _infer_bottom_up(self, order: list[Operator], memo: BottomUpMemo) -> None:
        """``const`` and ``key``, children before parents."""
        const_by, keys_by = self._const, self._keys
        for node in order:
            node_id = id(node)
            entry = memo.get(node_id)
            if entry is not None and entry[0] is node:
                for child, (columns, child_const, child_keys) in zip(
                    node.children, entry[1]
                ):
                    if (
                        const_by[id(child)] is not child_const
                        or keys_by[id(child)] is not child_keys
                        or (columns is not child.columns and columns != child.columns)
                    ):
                        break
                else:
                    const_by[node_id] = entry[2]
                    keys_by[node_id] = entry[3]
                    continue
            const = _infer_const(node, const_by)
            keys = _infer_keys(node, keys_by)
            # Recomputed-but-equal: keep the previous value *objects* so
            # parents (and their memo entries) can validate by identity.
            if entry is not None and entry[0] is node:
                if const == entry[2]:
                    const = entry[2]
                if keys == entry[3]:
                    keys = entry[3]
            const_by[node_id] = const
            keys_by[node_id] = keys
            memo[node_id] = (
                node,
                tuple(
                    (child.columns, const_by[id(child)], keys_by[id(child)])
                    for child in node.children
                ),
                const,
                keys,
            )

    def _infer_top_down(
        self,
        order: list[Operator],
        parents: dict[int, list[Operator]],
        memo: TopDownMemo,
        rebuilt: dict[int, Operator],
    ) -> None:
        """``icols``, ``set`` and ``refs``, parents before children.

        Pull-based: each node unions (``icols``, ``refs``) and conjoins
        (``set``) the contributions of its parents, which makes its result
        a pure function of them — the shape the :data:`TopDownMemo`
        validation needs.  ``rebuilt`` (the step's mechanical-rebuild map)
        lets an entry stay valid when a stored parent was merely re-created
        by ``with_children`` around an unrelated change: the rebuild has the
        same fields, so its contribution is the same whenever its state is.
        """
        icols_by, set_by, refs_by = self._icols, self._set, self._refs
        root = self.root
        root_icols = frozenset(root.columns)
        if isinstance(root, Serialize):
            root_icols = SERIALIZE_ICOLS & root_icols or root_icols
        # Seed the root through its memo entry so the seeds are the *same
        # objects* step after step (the children's identity checks rely on
        # that).
        entry = memo.get(id(root))
        if entry is not None and entry[0] is root and root_icols == entry[3]:
            root_icols = entry[3]
        memo[id(root)] = (root, (), (), root_icols, False, _NO_REFS, root.columns)
        icols_by[id(root)] = root_icols
        set_by[id(root)] = False
        refs_by[id(root)] = _NO_REFS
        rebuilt_get = rebuilt.get
        memo_get = memo.get
        for node in reversed(order):
            if node is root:
                continue
            node_id = id(node)
            plist = parents[node_id]
            entry = memo_get(node_id)
            if (
                entry is not None
                and entry[0] is node
                and len(entry[1]) == len(plist)
                and (entry[6] is node.columns or entry[6] == node.columns)
            ):
                valid = True
                stale_parents = False
                for stored, current, state in zip(entry[1], plist, entry[2]):
                    if stored is not current:
                        if rebuilt_get(id(stored)) is not current:
                            valid = False
                            break
                        stale_parents = True
                    current_id = id(current)
                    if (
                        icols_by[current_id] is not state[0]
                        or set_by[current_id] != state[1]
                        or refs_by[current_id] is not state[2]
                    ):
                        valid = False
                        break
                if valid:
                    icols_by[node_id] = entry[3]
                    set_by[node_id] = entry[4]
                    refs_by[node_id] = entry[5]
                    if stale_parents:
                        # Refresh the parent tuple: the rebuilt map only
                        # covers the *current* step's rebuilds.
                        memo[node_id] = (node, tuple(plist)) + entry[2:]
                    continue
            icols: frozenset[str] = frozenset()
            is_set = True
            refs: set[str] = set()
            for parent in plist:
                parent_id = id(parent)
                parent_icols = icols_by[parent_id]
                parent_set = set_by[parent_id]
                for position, child in enumerate(parent.children):
                    if child is node:
                        icols = icols | _child_icols(
                            parent, position, node, parent_icols
                        )
                        is_set = is_set and _child_set(parent, position, parent_set)
                refs |= _parent_refs(parent, node, refs_by[parent_id])
            frozen_refs = frozenset(refs) if refs else _NO_REFS
            # Recomputed-but-equal: keep the previous value *object* so the
            # identity checks of this node's children (and their memo
            # entries) stay valid — this is what stops one rewrite near the
            # root from invalidating the entire plan's top-down state.
            if entry is not None and entry[0] is node:
                if icols == entry[3]:
                    icols = entry[3]
                if frozen_refs == entry[5]:
                    frozen_refs = entry[5]
            icols_by[node_id] = icols
            set_by[node_id] = is_set
            refs_by[node_id] = frozen_refs
            memo[node_id] = (
                node,
                tuple(plist),
                tuple(
                    (icols_by[id(p)], set_by[id(p)], refs_by[id(p)]) for p in plist
                ),
                icols,
                is_set,
                frozen_refs,
                node.columns,
            )


def infer_properties(
    root: Operator,
    bottom_up_memo: Optional[BottomUpMemo] = None,
    top_down_memo: Optional[TopDownMemo] = None,
    order: Optional[list[Operator]] = None,
    parents: Optional[dict[int, list[Operator]]] = None,
    rebuilt: Optional[dict[int, Operator]] = None,
) -> PlanProperties:
    """Infer the plan properties of every node of the DAG rooted at ``root``.

    Called bare this is a cold inference.  The rewrite driver passes its
    cross-step state instead: ``bottom_up_memo`` reuses ``const`` / ``key``
    results for subtrees preserved across rewrite steps (see
    :data:`BottomUpMemo`), ``top_down_memo`` does the same for ``icols`` /
    ``set`` / ``refs`` (see :data:`TopDownMemo`), ``order`` and ``parents``
    share the topological order and parent index the driver already
    computed for the step, and ``rebuilt`` is the previous step's
    mechanical-rebuild map (:attr:`~repro.algebra.dag.Pushout.rebuilt`)
    that keeps memo entries valid across ``with_children`` rebuilds.
    """
    return PlanProperties(
        root, bottom_up_memo, top_down_memo, order, parents, rebuilt
    )


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
