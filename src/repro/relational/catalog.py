"""The database catalog: tables, B-tree indexes and statistics.

The catalog is deliberately small — the join-graph workload only ever needs
one base table (``doc``) — but it is a proper catalog: any number of tables
and indexes, statistics collection, and index maintenance hooks used by the
advisor and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import CatalogError
from repro.algebra.table import Table
from repro.relational.btree import BTreeIndex
from repro.relational.statistics import TableStats, collect_table_stats
from repro.xmldb.encoding import DOC_COLUMNS, DocumentEncoding


@dataclass
class Database:
    """An in-memory database: named tables, their indexes and statistics."""

    tables: dict[str, Table] = field(default_factory=dict)
    indexes: dict[str, BTreeIndex] = field(default_factory=dict)
    statistics: dict[str, TableStats] = field(default_factory=dict)

    # -- tables ----------------------------------------------------------------------

    def create_table(self, name: str, table: Table, collect_stats: bool = True) -> Table:
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        self.tables[name] = table
        if collect_stats:
            self.statistics[name] = collect_table_stats(name, table)
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_stats(self, name: str) -> TableStats:
        if name not in self.statistics:
            self.statistics[name] = collect_table_stats(name, self.table(name))
        return self.statistics[name]

    # -- indexes ----------------------------------------------------------------------

    def create_index(
        self,
        name: str,
        table_name: str,
        key_columns: Sequence[str],
        include_columns: Sequence[str] = (),
        clustered: bool = False,
    ) -> BTreeIndex:
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        index = BTreeIndex.build(
            name=name,
            table_name=table_name,
            table=self.table(table_name),
            key_columns=key_columns,
            include_columns=include_columns,
            clustered=clustered,
        )
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self.indexes[name]

    def indexes_on(self, table_name: str) -> list[BTreeIndex]:
        return [index for index in self.indexes.values() if index.table_name == table_name]

    def index(self, name: str) -> BTreeIndex:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None


def database_from_encoding(
    encoding: DocumentEncoding,
    table_name: str = "doc",
    with_default_indexes: bool = True,
    row_count: Optional[int] = None,
) -> Database:
    """Build a :class:`Database` hosting the XML infoset encoding.

    With ``with_default_indexes`` the paper's Table VI index set is created
    (see :func:`repro.relational.advisor.TABLE_VI_INDEXES`); pass ``False``
    to start from the bare primary-key index only (the ablation experiment
    compares the two setups).  ``row_count`` hosts only the first that many
    rows — a snapshot of an encoding that has grown since.

    This collects the table statistics and each index's planner metadata;
    the B+-trees themselves are bulk-loaded by their first probe.
    """
    return database_hosting(
        Table(DOC_COLUMNS, encoding.rows(row_count)), table_name, with_default_indexes
    )


def database_hosting(
    table: Table, table_name: str = "doc", with_default_indexes: bool = True
) -> Database:
    """A :class:`Database` around an already built ``doc`` table.

    Indexes and statistics as in :func:`database_from_encoding`.  The table
    is hosted, not copied: a catalog snapshot hands the engine the
    table its plan interpreters read, so both share one set of rows, one
    columnar twin and one dictionary per string column.
    """
    from repro.relational.advisor import create_table_vi_indexes  # cyclic-import guard

    database = Database()
    database.create_table(table_name, table)
    database.create_index(f"{table_name}_pk_pre", table_name, ("pre",), clustered=True)
    if with_default_indexes:
        create_table_vi_indexes(database, table_name)
    return database
