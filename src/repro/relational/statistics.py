"""Table and column statistics plus selectivity estimation.

The optimizer's decisions (access path selection, join ordering, the step
reordering / axis reversal effects of Section IV-A) are driven by exactly
the statistics a conventional RDBMS collects: row counts, per-column
distinct counts, min/max bounds and equi-depth histograms for the value
columns.  Tag-name and kind distributions are captured automatically since
``name`` and ``kind`` are ordinary columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.algebra.columnar import orderable
from repro.algebra.table import Table

#: Default selectivity for predicates the estimator cannot analyse.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Number of buckets of the equi-depth histograms.
HISTOGRAM_BUCKETS = 32

#: Number of most common values kept per column.
MOST_COMMON_COUNT = 10


@dataclass
class ColumnStats:
    """Statistics of one column."""

    name: str
    n_rows: int
    n_nulls: int
    n_distinct: int
    minimum: Optional[object]
    maximum: Optional[object]
    histogram: list[object] = field(default_factory=list)
    most_common: list[tuple[object, int]] = field(default_factory=list)

    def equality_selectivity(self, value: object) -> float:
        """Estimated fraction of rows with ``column = value``."""
        if self.n_rows == 0:
            return 0.0
        for candidate, count in self.most_common:
            if candidate == value:
                return count / self.n_rows
        if self.n_distinct == 0:
            return 0.0
        return min(1.0, 1.0 / self.n_distinct)

    def range_selectivity(self, low: Optional[object], high: Optional[object]) -> float:
        """Estimated fraction of rows with ``low <= column <= high`` in :func:`orderable` order."""
        if self.n_rows == 0:
            return 0.0
        if not self.histogram:
            return DEFAULT_SELECTIVITY
        total = len(self.histogram)
        covered = 0
        for value in self.histogram:
            if value is None:
                continue
            if low is not None and orderable(value) < orderable(low):
                continue
            if high is not None and orderable(high) < orderable(value):
                continue
            covered += 1
        if covered == 0:
            return 1.0 / max(self.n_rows, 1)
        return covered / total


@dataclass
class TableStats:
    """Statistics of one table (row count + per-column statistics)."""

    row_count: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def equality_selectivity(self, column: str, value: object) -> float:
        stats = self.column(column)
        if stats is None:
            return DEFAULT_SELECTIVITY
        return stats.equality_selectivity(value)

    def range_selectivity(
        self, column: str, low: Optional[object], high: Optional[object]
    ) -> float:
        stats = self.column(column)
        if stats is None:
            return DEFAULT_SELECTIVITY
        return stats.range_selectivity(low, high)


def collect_table_stats(table: Table) -> TableStats:
    """Scan the table once and build :class:`TableStats` for every column."""
    column_stats: dict[str, ColumnStats] = {}
    n_rows = len(table.rows)
    for position, column in enumerate(table.columns):
        non_null = [row[position] for row in table.rows if row[position] is not None]
        counts: dict[object, int] = {}
        for value in non_null:  # in row order: it breaks the most-common ties
            counts[value] = counts.get(value, 0) + 1
        ordered = sorted(non_null, key=orderable)
        most_common = sorted(counts.items(), key=lambda item: -item[1])[:MOST_COMMON_COUNT]
        column_stats[column] = ColumnStats(
            name=column,
            n_rows=n_rows,
            n_nulls=n_rows - len(ordered),
            n_distinct=len(counts),
            minimum=ordered[0] if ordered else None,
            maximum=ordered[-1] if ordered else None,
            histogram=_equi_depth_histogram(ordered),
            most_common=most_common,
        )
    return TableStats(row_count=n_rows, columns=column_stats)


def _equi_depth_histogram(
    ordered: Sequence[object], buckets: int = HISTOGRAM_BUCKETS
) -> list[object]:
    """Every ``len / buckets``-th of the :func:`orderable`-sorted non-NULL values."""
    if len(ordered) <= buckets:
        return list(ordered)
    step = len(ordered) / buckets
    return [ordered[min(len(ordered) - 1, int(round(index * step)))] for index in range(buckets)]
