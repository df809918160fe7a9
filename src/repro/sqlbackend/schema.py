"""Schema bootstrap for the SQLite backend.

One table mirrors the Fig. 2 encoding::

    doc(pre INTEGER PRIMARY KEY, size, level, kind, name, value, data)

``pre INTEGER PRIMARY KEY`` makes ``pre`` the rowid, so the table is
physically clustered in ``pre`` (document) order — the paper's "cluster the
table on pre" recommendation comes for free.

:data:`ACCESS_PATH_INDEXES` mirrors the Table VI index proposals the
in-tree relational back-end installs (see
:data:`repro.relational.advisor.TABLE_VI_INDEXES`), translated to SQLite:

* ``(name, kind, level, pre, size)`` — the paper's ``(name, level, pre)``
  shape: named child/descendant steps become one index range scan, and an
  ancestor probe (``b.pre <= a.pre + a.size`` on the probed ``a``) checks
  its range on the index alone, never reading the ``doc`` row;
* ``(value, name, kind, pre)`` / ``(name, kind, data, pre)`` — string and
  numeric value predicates (``data`` is the ``xs:decimal`` cast column);
* ``(kind, level, pre)`` — steps without a name test (``text()``,
  ``node()``, ``*``), which the Table VI set leaves to a table scan.

Each entry is one that SQLite's planner chooses for some XMark or
generated query (``tests/sqlbackend/test_index_survey.py``); Table VI's
``(name, kind, pre+size, pre)`` ancestor index is not here, because SQLite
never picked it.
"""

from __future__ import annotations

import sqlite3

from repro.xmldb.encoding import DOC_COLUMNS, DOC_TABLE

#: Column -> declared SQLite type (affinity) for the ``doc`` table, in
#: :data:`repro.xmldb.encoding.DOC_COLUMNS` order.  ``value`` keeps TEXT
#: affinity so string comparisons stay string comparisons; numeric
#: predicates target ``data`` (REAL), exactly like the compiler emits them.
DOC_COLUMN_TYPES: tuple[tuple[str, str], ...] = (
    ("pre", "INTEGER PRIMARY KEY"),
    ("size", "INTEGER NOT NULL"),
    ("level", "INTEGER NOT NULL"),
    ("kind", "TEXT NOT NULL"),
    ("name", "TEXT"),
    ("value", "TEXT"),
    ("data", "REAL"),
)

#: ``(index name suffix, key column expressions)`` — the access-path set.
ACCESS_PATH_INDEXES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("nklp", ("name", "kind", "level", "pre", "size")),
    ("vnkp", ("value", "name", "kind", "pre")),
    ("nkdp", ("name", "kind", "data", "pre")),
    ("klp", ("kind", "level", "pre")),
)

#: Connection-level tuning applied at bootstrap.  The backend is a read-
#: mostly mirror of an in-memory encoding, so durability is deliberately
#: traded away for load speed on file-backed databases — but not atomicity:
#: a failed load must roll back.  A file keeps WAL, so pooled readers and
#: the writer do not wait for each other; a ``memdb`` database ignores the
#: request and keeps its in-memory rollback journal.
PRAGMAS: tuple[str, ...] = (
    "PRAGMA journal_mode = WAL",
    "PRAGMA synchronous = OFF",
    "PRAGMA temp_store = MEMORY",
    "PRAGMA cache_size = -65536",  # 64 MiB page cache
)


def create_doc_table(connection: sqlite3.Connection) -> None:
    """Create the Fig. 2 encoding table (idempotent)."""
    columns = ", ".join(f"{column} {sql_type}" for column, sql_type in DOC_COLUMN_TYPES)
    connection.execute(f"CREATE TABLE IF NOT EXISTS {DOC_TABLE} ({columns})")


def create_access_path_indexes(connection: sqlite3.Connection) -> list[str]:
    """Create :data:`ACCESS_PATH_INDEXES` (idempotent); returns index names.

    An index of the same name with other key columns (a file an earlier
    build wrote) is dropped and rebuilt with the declared ones.
    """
    created = []
    for suffix, key_columns in ACCESS_PATH_INDEXES:
        index_name = f"{DOC_TABLE}_idx_{suffix}"
        keys = ", ".join(key_columns)
        existing = [row[2] for row in connection.execute(f"PRAGMA index_info({index_name})")]
        if existing and existing != list(key_columns):
            connection.execute(f"DROP INDEX {index_name}")
        connection.execute(
            f"CREATE INDEX IF NOT EXISTS {index_name} ON {DOC_TABLE} ({keys})"
        )
        created.append(index_name)
    return created


def bootstrap_schema(connection: sqlite3.Connection) -> list[str]:
    """Apply pragmas, create the table and the index set.

    The mirror plans without statistics: a file an earlier build wrote
    with ``ANALYZE`` loses its ``sqlite_stat1`` here, or SQLite would build
    a Bloom filter, one full scan of ``doc``, on every execution of every
    pinned descent whose estimated probes exceed the table's rows.  Such a
    file's indexes are brought to the declared key columns too.
    """
    for pragma in PRAGMAS:
        connection.execute(pragma)
    create_doc_table(connection)
    indexes = create_access_path_indexes(connection)
    connection.execute("DROP TABLE IF EXISTS sqlite_stat1")
    connection.commit()
    return indexes


def index_names(connection: sqlite3.Connection) -> list[str]:
    """Names of all indexes currently defined on the ``doc`` table."""
    rows = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index' AND tbl_name = ? "
        "ORDER BY name",
        (DOC_TABLE,),
    )
    return [name for (name,) in rows]


#: The parameterized bulk-INSERT statement for ``executemany``.
INSERT_STATEMENT = (
    f"INSERT INTO {DOC_TABLE} ({', '.join(DOC_COLUMNS)}) "
    f"VALUES ({', '.join('?' for _ in DOC_COLUMNS)})"
)
