"""Physical operators of the relational back-end (the engine's Table VII)."""

from repro.relational.physical.operators import (
    ExecutionContext,
    Filter,
    HashJoin,
    IndexBound,
    IndexNestedLoopJoin,
    IndexScan,
    PhysicalOperator,
    Return,
    Rows,
    Sort,
    TableScan,
)

__all__ = [
    "ExecutionContext",
    "Filter",
    "HashJoin",
    "IndexBound",
    "IndexNestedLoopJoin",
    "IndexScan",
    "PhysicalOperator",
    "Return",
    "Rows",
    "Sort",
    "TableScan",
]
