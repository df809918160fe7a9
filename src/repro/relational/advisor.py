"""Workload-driven B-tree index advisor (the paper's ``db2advis`` stand-in).

Section IV of the paper lets DB2's design advisor propose a set of vanilla
B-tree indexes for the join-graph workload (Table VI).  The advisor here
follows the same reasoning on our side of the fence:

* every alias of every join graph in the workload is characterised by its
  equality columns (``kind`` / ``name`` / ``level`` / ``value`` / ``data``),
  its range columns (``pre``, ``pre + size``) and the columns the query
  outputs or orders by;
* each characteristic pattern is turned into a composite-key index whose
  key puts the low-cardinality equality columns first and the range column
  last — the name-prefixed partitioned B-trees the paper discusses;
* a clustered ``pre``-keyed index with all remaining columns as INCLUDE
  columns supports serialization (the paper's ``p|nvkls``).

:data:`TABLE_VI_INDEXES` is the static equivalent of the paper's Table VI
and is what :class:`repro.relational.catalog.Database` installs by
default; :class:`IndexAdvisor` re-derives (a superset of) it from an
actual workload, which is what the Table VI benchmark demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.joingraph import JoinGraph
from repro.relational.btree import PRE_PLUS_SIZE
from repro.relational.catalog import Database
from repro.relational.optimizer.planner import _term_alias_column
from repro.xmldb.encoding import DOC_TABLE

#: The default index set mirroring the paper's Table VI proposals.
#: (key letters: n=name, k=kind, l=level, p=pre, s=pre+size, v=value, d=data)
TABLE_VI_INDEXES: tuple[tuple[str, tuple[str, ...], tuple[str, ...], bool], ...] = (
    ("idx_nkpl", ("name", "kind", "pre", "level"), (), False),
    ("idx_nklp", ("name", "kind", "level", "pre"), (), False),
    ("idx_nksp", ("name", "kind", PRE_PLUS_SIZE, "pre"), (), False),
    ("idx_vnkp", ("value", "name", "kind", "pre"), (), False),
    ("idx_nkdp", ("name", "kind", "data", "pre"), ("level",), False),
    ("idx_p_nvkls", ("pre",), ("name", "value", "kind", "level", "size"), True),
)


def create_table_vi_indexes(database: Database) -> list[str]:
    """Create the Table VI default index set; returns the index names created."""
    created = []
    for name, key_columns, include_columns, clustered in TABLE_VI_INDEXES:
        index_name = f"{DOC_TABLE}_{name}"
        if index_name in database.indexes:
            continue
        database.create_index(index_name, key_columns, include_columns, clustered)
        created.append(index_name)
    return created


@dataclass(frozen=True)
class IndexRecommendation:
    """One proposed index."""

    key_columns: tuple[str, ...]
    include_columns: tuple[str, ...] = ()
    clustered: bool = False
    reason: str = ""

    def short_name(self) -> str:
        letters = {
            "name": "n", "kind": "k", "level": "l", "pre": "p",
            PRE_PLUS_SIZE: "s", "value": "v", "data": "d", "size": "s",
        }
        return "".join(letters.get(column, column[0]) for column in self.key_columns)


@dataclass
class IndexAdvisor:
    """Derive index recommendations from a join-graph workload."""

    recommendations: list[IndexRecommendation] = field(default_factory=list)

    def advise(self, workload: Iterable[JoinGraph]) -> list[IndexRecommendation]:
        """Analyse the workload and return the deduplicated recommendations."""
        seen: set[tuple] = set()
        result: list[IndexRecommendation] = []

        def add(recommendation: IndexRecommendation) -> None:
            signature = (recommendation.key_columns, recommendation.clustered)
            if signature not in seen:
                seen.add(signature)
                result.append(recommendation)

        for graph in workload:
            for alias in graph.aliases:
                equalities, ranges, values = self._alias_pattern(graph, alias)
                key: list[str] = []
                for column in ("name", "kind", "level"):
                    if column in equalities:
                        key.append(column)
                for column in ("value", "data"):
                    if column in values:
                        key.append(column)
                for column in ("pre", PRE_PLUS_SIZE):
                    if column in ranges:
                        key.append(column)
                if "pre" not in key:
                    key.append("pre")
                if len(key) > 1:
                    add(
                        IndexRecommendation(
                            tuple(key),
                            reason=f"node test / axis step access for alias {alias}",
                        )
                    )
            # Ordering / serialization support: a clustered pre-keyed covering index.
            add(
                IndexRecommendation(
                    ("pre",),
                    include_columns=("name", "value", "kind", "level", "size"),
                    clustered=True,
                    reason="serialization in document order",
                )
            )
        self.recommendations = result
        return result

    def _alias_pattern(
        self, graph: JoinGraph, alias: str
    ) -> tuple[set[str], set[str], set[str]]:
        equalities: set[str] = set()
        ranges: set[str] = set()
        values: set[str] = set()
        for condition in graph.conditions:
            for side in (condition.left, condition.right):
                resolved = _term_alias_column(side)
                if resolved is None or resolved[0] != alias:
                    continue
                column = resolved[1]
                if column in ("value", "data"):
                    values.add(column)
                elif condition.op == "=":
                    equalities.add(column)
                else:
                    ranges.add(column)
        return equalities, ranges, values

    def apply(self, database: Database) -> list[str]:
        """Create the recommended indexes in ``database``; returns their names."""
        created = []
        for position, recommendation in enumerate(self.recommendations, start=1):
            name = f"{DOC_TABLE}_advis_{recommendation.short_name()}_{position}"
            if name in database.indexes:
                continue
            database.create_index(
                name,
                recommendation.key_columns,
                recommendation.include_columns,
                recommendation.clustered,
            )
            created.append(name)
        return created

    def report(self) -> str:
        """A Table VI-style textual report of the recommendations."""
        lines = ["Index key columns | deployment"]
        for recommendation in self.recommendations:
            include = (
                f" INCLUDE({', '.join(recommendation.include_columns)})"
                if recommendation.include_columns
                else ""
            )
            clustered = " CLUSTERED" if recommendation.clustered else ""
            lines.append(
                f"{recommendation.short_name():>8}  ({', '.join(recommendation.key_columns)})"
                f"{include}{clustered}  -- {recommendation.reason}"
            )
        return "\n".join(lines)

