"""The database catalog: the ``doc`` table, its B-tree indexes and statistics.

Every join graph is an n-fold self-join of one relation, the Fig. 2
encoding table ``doc``, so a :class:`Database` hosts exactly that table.
It is hosted, not copied: a catalog snapshot hands the engine the table its
plan interpreters read, so both share one set of rows, one columnar twin
and one dictionary per string column.

>>> from repro.algebra.table import Table
>>> from repro.xmldb.encoding import DOC_COLUMNS, encode_document
>>> from repro.xmldb.parser import parse_xml
>>> table = Table(DOC_COLUMNS, encode_document(parse_xml("<a><b>1</b></a>", uri="t.xml")).rows())
>>> database = Database(table)
>>> database.table is table
True
>>> print(*database.indexes)
doc_pk_pre doc_idx_nkpl doc_idx_nklp doc_idx_nksp doc_idx_vnkp doc_idx_nkdp doc_idx_p_nvkls
>>> print(*Database(table, with_default_indexes=False).indexes)
doc_pk_pre
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CatalogError
from repro.algebra.table import Table
from repro.relational.btree import BTreeIndex
from repro.relational.statistics import collect_table_stats
from repro.xmldb.encoding import DOC_TABLE


class Database:
    """The ``doc`` table, its statistics and its B-tree indexes.

    The statistics and each index's planner metadata are computed here; the
    B+-trees themselves are bulk-loaded by their first probe.  Beside the
    clustered ``pre`` key, ``with_default_indexes`` creates the paper's
    Table VI index set (:data:`repro.relational.advisor.TABLE_VI_INDEXES`);
    ``False`` keeps the bare primary-key index (the ablation experiment
    compares the two setups).
    """

    def __init__(self, table: Table, with_default_indexes: bool = True):
        from repro.relational.advisor import create_table_vi_indexes  # cyclic-import guard

        self.table = table
        self.statistics = collect_table_stats(table)
        self.indexes: dict[str, BTreeIndex] = {}
        self.create_index(f"{DOC_TABLE}_pk_pre", ("pre",), clustered=True)
        if with_default_indexes:
            create_table_vi_indexes(self)

    def create_index(
        self,
        name: str,
        key_columns: Sequence[str],
        include_columns: Sequence[str] = (),
        clustered: bool = False,
    ) -> BTreeIndex:
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        index = BTreeIndex.build(name, self.table, key_columns, include_columns, clustered)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self.indexes[name]

    def index(self, name: str) -> BTreeIndex:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None
