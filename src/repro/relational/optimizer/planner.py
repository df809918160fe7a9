"""Cost-based planning of join graph queries.

Given a :class:`~repro.core.joingraph.JoinGraph`, the planner performs the
two decisions the paper credits the off-the-shelf optimizer with:

* **access path selection** — for every ``doc`` alias, pick the B-tree whose
  key prefix covers the alias' equality predicates (name / kind / level /
  value / data) plus at most one range bound (``pre`` or ``pre + size``);
* **join ordering** — greedily start from the alias with the smallest
  estimated cardinality (driven by the tag-name / value statistics, which is
  what makes the plan start at ``price > 500`` in Q2, cf. Fig. 11) and
  repeatedly attach the cheapest connected alias, preferring index
  nested-loop joins over hash joins over residual filters.  Equal estimates
  resolve to the *later* alias of ``graph.aliases`` (root-to-result descent,
  the order the SQL rendering falls back to), so the order is a function of
  the graph and the statistics alone.  The connected candidates are kept as
  a frontier over an alias → conditions adjacency built once per plan:
  ordering costs O(conditions · log aliases).

The resulting plan is a tree of the physical operators of Table VII and can
be explained in a DB2-like textual form (used by the Fig. 10 / Fig. 11
experiments).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.errors import PlanningError
from repro.core.joingraph import ColumnTerm, Condition, ConstantTerm, JoinGraph, SumTerm, Term
from repro.relational.btree import PRE_PLUS_SIZE, BTreeIndex
from repro.relational.catalog import Database
from repro.relational.physical.operators import (
    Filter,
    HashJoin,
    IndexBound,
    IndexNestedLoopJoin,
    IndexScan,
    PhysicalOperator,
    Return,
    Sort,
    TableScan,
)
from repro.relational.statistics import DEFAULT_SELECTIVITY

_RANGE_OPS = {"<", "<=", ">", ">="}


def _term_alias_column(term: Term) -> Optional[tuple[str, str]]:
    """Resolve a term to ``(alias, key_column)`` if it is indexable."""
    if isinstance(term, ColumnTerm):
        return term.alias, term.column
    if isinstance(term, SumTerm) and len(term.terms) == 2:
        first, second = term.terms
        if (
            isinstance(first, ColumnTerm)
            and isinstance(second, ColumnTerm)
            and first.alias == second.alias
            and {first.column, second.column} == {"pre", "size"}
        ):
            return first.alias, PRE_PLUS_SIZE
    return None


def _references_only(term: Term, aliases: set[str]) -> bool:
    if isinstance(term, ColumnTerm):
        return term.alias in aliases
    if isinstance(term, SumTerm):
        return all(_references_only(part, aliases) for part in term.terms)
    return True  # constants


@dataclass
class PlannedQuery:
    """The optimizer's output: a physical plan plus its explain rendering."""

    root: Return
    join_order: list[str]
    graph: JoinGraph

    def explain(self) -> str:
        return self.root.explain()


@dataclass
class Planner:
    """Greedy selectivity-driven planner over a :class:`Database`."""

    database: Database

    # -- cardinality estimation ---------------------------------------------------------

    def _local_selectivity(self, condition: Condition, table_name: str) -> float:
        stats = self.database.table_stats(table_name)
        for side, other in ((condition.left, condition.right), (condition.right, condition.left)):
            resolved = _term_alias_column(side)
            if resolved is None or not isinstance(other, ConstantTerm):
                continue
            _alias, column = resolved
            if column == PRE_PLUS_SIZE:
                column = "pre"
            if condition.op == "=":
                return stats.equality_selectivity(column, other.value)
            if condition.op in _RANGE_OPS:
                if condition.op in (">", ">="):
                    low, high = (other.value, None) if side is condition.left else (None, other.value)
                else:
                    low, high = (None, other.value) if side is condition.left else (other.value, None)
                return stats.range_selectivity(column, low, high)
        return DEFAULT_SELECTIVITY

    def _alias_cardinality(self, table_name: str, local: list[Condition]) -> float:
        """Estimated rows of one alias after its local predicates."""
        cardinality = float(self.database.table_stats(table_name).row_count)
        for condition in local:
            cardinality *= self._local_selectivity(condition, table_name)
        return max(cardinality, 0.01)

    # -- access path selection ------------------------------------------------------------

    def _bounds_for(
        self, alias: str, conditions: list[Condition], outer_aliases: set[str]
    ) -> dict[str, list[IndexBound]]:
        """Classify conditions into per-key-column bounds for alias ``alias``."""
        bounds: dict[str, list[IndexBound]] = {}
        for condition in conditions:
            for side, other in (
                (condition.left, condition.right),
                (condition.right, condition.left),
            ):
                resolved = _term_alias_column(side)
                if resolved is None or resolved[0] != alias:
                    continue
                if not _references_only(other, outer_aliases):
                    continue
                column = resolved[1]
                op = condition.op if side is condition.left else _flip(condition.op)
                kind = {"=": "eq", ">": "low", ">=": "low", "<": "high", "<=": "high"}.get(op)
                if kind is None:
                    continue
                bounds.setdefault(column, []).append(
                    IndexBound(column, kind, other, inclusive="=" in op, source=condition)
                )
                break
        return bounds

    def _choose_index(
        self, indexes: list[BTreeIndex], bounds: dict[str, list[IndexBound]]
    ) -> Optional[tuple[BTreeIndex, list[IndexBound]]]:
        """Pick the index with the longest usable key prefix for the bounds."""
        best: Optional[tuple[BTreeIndex, list[IndexBound], float, float]] = None
        for index in indexes:
            chosen: list[IndexBound] = []
            score = 0.0
            selectivity = 1.0
            for depth, column in enumerate(index.key_columns):
                column_bounds = bounds.get(column, [])
                eq = next((b for b in column_bounds if b.kind == "eq"), None)
                if eq is not None:
                    chosen.append(eq)
                    score += 1.0
                    selectivity = index.selectivity_of_prefix(depth + 1)
                    continue
                ranged = [b for b in column_bounds if b.kind in ("low", "high")]
                if ranged:
                    chosen.extend(ranged)
                    score += 0.5
                    selectivity *= 0.3
                break
            if not chosen:
                continue
            candidate = (index, chosen, score, selectivity)
            if best is None or (score, -selectivity) > (best[2], -best[3]):
                best = candidate
        if best is None:
            return None
        return best[0], best[1]

    # -- planning -----------------------------------------------------------------------------

    def plan(self, graph: JoinGraph) -> PlannedQuery:
        """Choose access paths and a join order; compile the physical program.

        >>> from repro.core.pipeline import XQueryProcessor
        >>> from repro.xmldb.encoding import encode_document
        >>> from repro.xmldb.parser import parse_xml
        >>> encoding = encode_document(parse_xml("<a><b><c/></b><b/></a>", uri="t.xml"))
        >>> processor = XQueryProcessor(encoding, default_document="t.xml")
        >>> graph = processor.compile("//b[c]").join_graph
        >>> print(graph.aliases, Planner(processor.engine.database).plan(graph).join_order)
        ['d1', 'd2', 'd3'] ['d3', 'd2', 'd1']
        """
        if not graph.aliases:
            raise PlanningError("the join graph has no doc references")
        table = self.database.table(graph.table_name)
        indexes = self.database.indexes_on(graph.table_name)
        conditions = graph.conditions
        # One pass builds the adjacency; ``missing[i]`` counts the aliases of
        # condition i not joined yet, so "connects ``alias`` to the joined
        # set" is ``missing[i] == 1`` for a condition touching ``alias``.
        touching: dict[str, list[int]] = {alias: [] for alias in graph.aliases}
        missing: list[int] = []
        for number, condition in enumerate(conditions):
            aliases = condition.aliases()
            missing.append(len(aliases))
            for alias in aliases:
                if alias in touching:
                    touching[alias].append(number)
        rank: dict[str, tuple] = {}  # cheapest first; ties: later alias first
        for position, alias in enumerate(graph.aliases):
            local = [conditions[n] for n in touching[alias] if missing[n] == 1]
            rank[alias] = (self._alias_cardinality(graph.table_name, local), -position, alias)
        ranked = iter(sorted(rank.values()))
        frontier: list[tuple] = []  # heap of aliases some join condition connects
        joined: set[str] = set()
        consumed: set[int] = set()
        join_order: list[str] = []
        current: Optional[PhysicalOperator] = None
        while len(joined) < len(rank):
            entry = heapq.heappop(frontier) if frontier else next(ranked)
            alias = entry[2]
            if alias in joined:
                continue
            connecting = [n for n in touching[alias] if missing[n] == 1]
            consumed.update(connecting)
            current = self._attach(
                table, indexes, current, joined, alias,
                [conditions[n] for n in connecting], entry[0],
            )
            joined.add(alias)
            join_order.append(alias)
            for number in touching[alias]:
                missing[number] -= 1
                aliases = conditions[number].aliases()
                if missing[number] == 1 and len(aliases) > 1:
                    (candidate,) = [a for a in aliases if a not in joined]
                    if candidate in rank:
                        heapq.heappush(frontier, rank[candidate])
        leftovers = [c for number, c in enumerate(conditions) if number not in consumed]
        if leftovers:
            current = Filter(current, leftovers)
        sort = Sort(
            current,
            order_terms=list(graph.order_terms),
            select_items=list(graph.select_items),
            distinct=graph.distinct,
        )
        return PlannedQuery(Return(sort, list(graph.select_items)), join_order, graph)

    def _attach(
        self,
        table,
        indexes: list[BTreeIndex],
        outer: Optional[PhysicalOperator],
        joined: set[str],
        alias: str,
        connecting: list[Condition],
        estimate: float,
    ) -> PhysicalOperator:
        """Access ``alias`` through ``connecting`` (its local predicates plus
        every condition whose other aliases are joined): an index probe when a
        key prefix covers some of them, else a scan hash-joined to ``outer``."""
        choice = self._choose_index(indexes, self._bounds_for(alias, connecting, joined))
        if choice is not None:
            index, chosen = choice
            covered = {id(bound.source) for bound in chosen}
            residual = [c for c in connecting if id(c) not in covered]
            if outer is None:
                return IndexScan(index, table, alias, chosen, residual, estimated_rows=estimate)
            return IndexNestedLoopJoin(
                outer, index, table, alias, chosen, residual, estimated_rows=estimate
            )
        local = [c for c in connecting if len(c.aliases()) == 1]
        scan = TableScan(table, alias, local, estimated_rows=estimate)
        if outer is None:
            return scan
        equalities = [
            condition
            for condition in connecting
            if condition.op == "="
            and _term_alias_column(condition.left) is not None
            and _term_alias_column(condition.right) is not None
        ]
        outer_terms, inner_terms = [], []
        for condition in equalities:
            left_info = _term_alias_column(condition.left)
            if left_info and left_info[0] == alias:
                inner_terms.append(condition.left)
                outer_terms.append(condition.right)
            else:
                inner_terms.append(condition.right)
                outer_terms.append(condition.left)
        residual = [c for c in connecting if c not in equalities]
        return HashJoin(outer, scan, outer_terms, inner_terms, residual)


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
