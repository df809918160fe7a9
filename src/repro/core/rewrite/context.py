"""Premise-evaluation context shared by all rewrite rules.

The :class:`RuleContext` is what a rule's *guard* sees: the plan root, the
inferred :class:`~repro.core.properties.PlanProperties` (among them the
conservative ``upstream_refs`` superset of ``icols``), the parent map,
column provenance, and the global ``rank_compared_upstream`` premise.

The read discipline — what lets the worklist driver prove that a failed
match cannot have become applicable while none of the events it tracks
touched the node (see :mod:`repro.core.rewrite.engine`):

* a guard reads its matched node (fields, ``columns``, its own ``icols`` /
  ``set`` / ``refs`` / ``const`` / ``keys``) and its children (fields,
  ``columns``, ``const`` / ``keys``, parent lists) directly;
* it reads *past* the node's children only through this context —
  :meth:`RuleContext.provenance` / :meth:`RuleContext.origin` and
  :meth:`RuleContext.constant_single_row` — which records a *deep* read;
* it reads the parents of nodes other than its children only once it has
  read deep (the key-join collapse's spine widening does, after tracing
  the spine by provenance);
* the global premise is :meth:`RuleContext.rank_compared_upstream`, which
  records a *premise* read.

The driver clears :attr:`RuleContext.read_deep` and
:attr:`RuleContext.read_premise` before it tries a node's rule bucket and
files the failure by what they say afterwards.

A context describes one plan for as long as nobody changes it.  The
worklist driver, whose plan changes in place, keeps one context for a whole
run and calls :meth:`RuleContext.invalidate` after each step with the nodes
the step re-pointed, re-validated or dropped: a provenance path depends
only on the nodes along it, so paths are memoized per node and dropped
exactly when a node on one of them was touched, and the compared-origins
set is dropped exactly when a σ/⋈ entered or left the plan or a node on one
of the paths it was traced along was touched.  An entry holds the node
reference beside its paths, which validates it and pins the object so its
``id`` cannot be recycled while the entry lives.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional

from repro.algebra.dag import iter_nodes, parents_map
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
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
        #: Recorded reads since the driver last cleared them: did a guard
        #: read past its node's children, or consult the global premise?
        self.read_deep = False
        self.read_premise = False
        self._compared_origins: Optional[frozenset[tuple[int, str]]] = None
        #: ids of the σ/⋈ nodes and of every node on the provenance paths
        #: the cached compared-origins set was traced along.
        self._compared_reads: set[int] = set()
        #: ``id(node) -> (node, {column: path})``.
        self._provenance: dict[int, tuple[Operator, dict[str, ProvenancePath]]] = {}
        #: ``id(path node) -> ids of the nodes whose memoized paths pass it``.
        self._path_readers: dict[int, set[int]] = {}
        self._fresh_columns = itertools.count(_highest_fresh_suffix(root) + 1)

    def invalidate(self, touched: Iterable[Operator], predicates: bool) -> bool:
        """Forget what a change to the plan made stale.

        ``touched`` are the nodes whose ``children`` or ``columns`` changed or
        that left the plan; ``predicates`` says whether a σ/⋈ entered or
        left it.  Returns whether the compared-origins set was dropped (the
        global premise may have changed).
        """
        compared = predicates
        for node in touched:
            for reader in self._path_readers.pop(id(node), ()):
                self._provenance.pop(reader, None)
            compared = compared or id(node) in self._compared_reads
        if compared and self._compared_origins is not None:
            self._compared_origins = None
            return True
        return False

    # -- fresh names -------------------------------------------------------------

    def fresh_column(self, hint: str = "carry") -> str:
        """``hint_wN`` with ``N`` above every ``_wN`` suffix the plan had.

        Numbered per context, so a plan isolates to the same text in every
        session; starting above the plan's own suffixes keeps the names
        fresh when an isolated plan is isolated again.
        """
        return f"{hint}_w{next(self._fresh_columns)}"

    # -- column provenance ---------------------------------------------------------

    def provenance(self, node: Operator, column: str) -> list[tuple[Operator, str]]:
        """The provenance path of ``column``: ``[(node, name), ..., (origin, name)]``.

        The path follows projections through their renamings, passes through
        row-preserving unary operators and descends into the join/cross input
        that provides the column.  It ends at the operator that *introduced*
        the column (a leaf, ``@``, ``#`` or ``ϱ``).  A deep read.
        """
        self.read_deep = True
        return self._path(node, column)

    def _path(self, node: Operator, column: str) -> ProvenancePath:
        """:meth:`provenance`, memoized per node, without recording a read."""
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
                current = left if name in left.column_set else right
                continue
            break  # leaf (doc or literal table)
        paths[column] = path
        readers = self._path_readers
        for step, _name in path:
            readers.setdefault(id(step), set()).add(id(node))
        return path

    def origin(self, node: Operator, column: str) -> tuple[Operator, str]:
        """The introducing operator and column name of ``column`` of ``node``."""
        path = self.provenance(node, column)
        return path[-1]

    def constant_single_row(self, node: Operator) -> Optional[dict[str, object]]:
        """If ``node`` is statically a one-row constant table, return its row.

        ``node`` is a literal table, or ``@`` / ``π`` over one; looking
        through those reads past ``node`` and is recorded as a deep read.
        """
        chain: list[Operator] = []
        while isinstance(node, (Attach, Project)):
            chain.append(node)
            node = node.child
        if chain:
            self.read_deep = True
        if not isinstance(node, LiteralTable) or len(node.rows) != 1:
            return None
        row = dict(zip(node.columns, node.rows[0]))
        for op in reversed(chain):
            if isinstance(op, Attach):
                row[op.column] = op.value
            else:
                row = {new: row[old] for new, old in op.items}
        return row

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

        Memoized until :meth:`invalidate` reports a σ/⋈ entering or leaving
        the plan or a touched node on a path it was traced along — the
        event that makes the worklist driver re-try failures that consulted
        the global premise.
        """
        if self._compared_origins is None:
            compared: set[tuple[int, str]] = set()
            reads: set[int] = set()
            for node in iter_nodes(self.root):
                if isinstance(node, Select):
                    bases = [node.child]
                elif isinstance(node, Join):
                    bases = list(node.children)
                else:
                    continue
                reads.add(id(node))
                for column in node.predicate.columns():
                    base = next(b for b in bases if column in b.column_set)
                    path = self._path(base, column)
                    reads.update(id(step) for step, _name in path)
                    origin_node, origin_column = path[-1]
                    compared.add((id(origin_node), origin_column))
            self._compared_origins = frozenset(compared)
            self._compared_reads = reads
        return self._compared_origins

    def rank_compared_upstream(self, rank: "RowRank") -> bool:
        """Does any σ/⋈ predicate in the plan compare this rank's column?

        Positional predicates (``E[n]``) compile into a selection on the
        sequence-position rank; for such a plan the rank is *not* a pure
        ordering column, and rewrites that replace it by its ordering source
        (rule (12)) would silently change which rows the selection keeps.
        A premise read.
        """
        self.read_premise = True
        return (id(rank), rank.column) in self.compared_origins()


_FRESH_SUFFIX = re.compile(r"_w(\d+)$")


def _highest_fresh_suffix(root: Operator) -> int:
    """The largest ``N`` of a ``..._wN`` column anywhere in the plan (0 if none)."""
    highest = 0
    for node in iter_nodes(root):
        for column in node.columns:
            if "_w" in column:
                match = _FRESH_SUFFIX.search(column)
                if match:
                    highest = max(highest, int(match.group(1)))
    return highest
