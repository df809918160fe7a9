"""Relational back-end standing in for IBM DB2 V9 (see DESIGN.md).

Sub-modules: :mod:`btree` (B+-tree indexes), :mod:`statistics`,
:mod:`catalog`, :mod:`physical.operators` (TBSCAN/IXSCAN/NLJOIN/HSJOIN/SORT/
RETURN), :mod:`optimizer.planner` (access path selection + join ordering),
:mod:`advisor` (the db2advis stand-in) and :mod:`engine` (the facade).
"""

from repro.relational.advisor import IndexAdvisor, IndexRecommendation, create_table_vi_indexes
from repro.relational.btree import BPlusTree, BTreeIndex, PRE_PLUS_SIZE
from repro.relational.catalog import Database
from repro.relational.engine import QueryResult, RelationalEngine
from repro.relational.optimizer.planner import PlannedQuery, Planner
from repro.relational.statistics import TableStats, collect_table_stats

__all__ = [
    "BPlusTree",
    "BTreeIndex",
    "Database",
    "IndexAdvisor",
    "IndexRecommendation",
    "PRE_PLUS_SIZE",
    "PlannedQuery",
    "Planner",
    "QueryResult",
    "RelationalEngine",
    "TableStats",
    "collect_table_stats",
    "create_table_vi_indexes",
]
