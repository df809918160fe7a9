"""Premise-evaluation context shared by all rewrite rules.

The :class:`RuleContext` is what a rule's *guard* sees: the plan root, the
inferred :class:`~repro.core.properties.PlanProperties` (among them the
conservative ``upstream_refs`` superset of ``icols``), the parent map,
column provenance, and the global ``rank_compared_upstream`` premise.

Guards must evaluate their premises exclusively through this interface —
that closed surface is what lets the worklist driver prove that a failed
match cannot have become applicable while none of the events it tracks
touched the node (see :mod:`repro.core.rewrite.engine`).

A context describes one plan for as long as nobody changes it.  The
worklist driver, whose plan changes in place, keeps one context for a whole
run and calls :meth:`RuleContext.invalidate` after each step: provenance
paths depend only on a node's subtree, so they are memoized per node and
dropped for exactly the nodes whose subtree a step touched.  An entry holds
the node reference beside its paths, which validates it and pins the
object so its ``id`` cannot be recycled while the entry lives.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.algebra.dag import iter_nodes, parents_map
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    GroupAggregate,
    Join,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.core.properties import PlanProperties

#: One provenance path: ``[(node, column), ..., (origin, origin_column)]``.
ProvenancePath = list


class RuleContext:
    """Premise-evaluation context shared by all rules (see the module docstring)."""

    def __init__(
        self,
        root: Operator,
        properties: PlanProperties,
        parents: Optional[dict[int, list[Operator]]] = None,
    ):
        self.root = root
        self.properties = properties
        self.parents = parents if parents is not None else parents_map(root)
        self._compared_origins: Optional[frozenset[tuple[int, str]]] = None
        #: ``id(node) -> (node, {column: path})``.
        self._provenance: dict[int, tuple[Operator, dict[str, ProvenancePath]]] = {}

    def invalidate(self, subtrees: Iterable[int], predicates: bool) -> None:
        """Forget what a change to the plan made stale.

        ``subtrees`` are the ids of the nodes whose subtree changed (or that
        left the plan); ``predicates`` says whether the plan's σ/⋈ set, or
        the subtree below one of them, did.
        """
        for node_id in subtrees:
            self._provenance.pop(node_id, None)
        if predicates:
            self._compared_origins = None

    # -- fresh names -------------------------------------------------------------

    #: Process-wide counter: "fresh" names must stay fresh across contexts
    #: — two widenings of one shared spine would otherwise collide on
    #: identical carry columns.
    _fresh_columns = itertools.count(1)

    def fresh_column(self, hint: str = "carry") -> str:
        return f"{hint}_w{next(self._fresh_columns)}"

    # -- column provenance ---------------------------------------------------------

    def provenance(self, node: Operator, column: str) -> list[tuple[Operator, str]]:
        """The provenance path of ``column``: ``[(node, name), ..., (origin, name)]``.

        The path follows projections through their renamings, passes through
        row-preserving unary operators and descends into the join/cross input
        that provides the column.  It ends at the operator that *introduced*
        the column (a leaf, ``@``, ``#`` or ``ϱ``).  Paths depend only on the
        subtree below ``node``, so they are memoized per node.
        """
        cached = self._provenance.get(id(node))
        if cached is None or cached[0] is not node:
            cached = self._provenance[id(node)] = (node, {})
        paths = cached[1]
        if column in paths:
            return paths[column]
        path: list[tuple[Operator, str]] = []
        current, name = node, column
        while True:
            path.append((current, name))
            if isinstance(current, Project):
                name = current.renaming()[name]
                current = current.child
                continue
            if isinstance(current, (Select, Distinct, Serialize)):
                current = current.children[0]
                continue
            if isinstance(current, (Attach, RowId, RowRank)):
                if name == current.column:
                    break
                current = current.child
                continue
            if isinstance(current, GroupAggregate):
                if name == current.item_column:
                    break  # the aggregate value is introduced here
                current = current.loop  # loop columns pass through untouched
                continue
            if isinstance(current, (Join, Cross)):
                left, right = current.children
                current = left if name in left.columns else right
                continue
            break  # leaf (doc or literal table)
        paths[column] = path
        return path

    def origin(self, node: Operator, column: str) -> tuple[Operator, str]:
        """The introducing operator and column name of ``column`` of ``node``."""
        path = self.provenance(node, column)
        return path[-1]

    # -- structural references -------------------------------------------------------

    def upstream_refs(self, node: Operator) -> frozenset[str]:
        """Column names of ``node``'s output referenced structurally upstream."""
        return self.properties.refs(node)

    def needed_columns(self, node: Operator) -> frozenset[str]:
        """``icols`` widened by structural upstream references."""
        return self.properties.icols(node) | self.upstream_refs(node)

    # -- global premises --------------------------------------------------------------

    def compared_origins(self) -> frozenset[tuple[int, str]]:
        """Origins ``(id(op), column)`` compared by any σ/⋈ predicate in the plan.

        Memoized until :meth:`invalidate` reports a predicate change — the
        same event that makes the worklist driver re-try the
        ``rank_compared_upstream``-guarded rules.
        """
        if self._compared_origins is None:
            compared: set[tuple[int, str]] = set()
            for node in iter_nodes(self.root):
                if isinstance(node, Select):
                    bases = [node.child]
                elif isinstance(node, Join):
                    bases = list(node.children)
                else:
                    continue
                for column in node.predicate.columns():
                    base = next(b for b in bases if column in b.columns)
                    origin_node, origin_column = self.origin(base, column)
                    compared.add((id(origin_node), origin_column))
            self._compared_origins = frozenset(compared)
        return self._compared_origins

    def rank_compared_upstream(self, rank: "RowRank") -> bool:
        """Does any σ/⋈ predicate in the plan compare this rank's column?

        Positional predicates (``E[n]``) compile into a selection on the
        sequence-position rank; for such a plan the rank is *not* a pure
        ordering column, and rewrites that replace it by its ordering source
        (rule (12)) would silently change which rows the selection keeps.
        """
        return (id(rank), rank.column) in self.compared_origins()
