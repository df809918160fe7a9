"""SQL execution backend: run the isolated join graph on a real RDBMS.

The paper's whole argument (Sections III-IV) is that join graph isolation
turns a loop-lifted XQuery plan into a single ``SELECT DISTINCT … FROM …
WHERE …`` block that an off-the-shelf relational database executes well.
The rest of the repository *renders* that SQL (:mod:`repro.core.sqlgen`);
this package closes the loop by actually executing it — on SQLite, the
RDBMS that ships with CPython:

* :mod:`repro.sqlbackend.schema` — DDL for the Fig. 2
  ``pre|size|level|kind|name|value|data`` table, ``pre`` clustering via
  ``INTEGER PRIMARY KEY``, and the paper's recommended access-path indexes
  (Table VI shapes, e.g. ``(name, kind, level, pre)``);
* :mod:`repro.sqlbackend.backend` — :class:`SQLiteBackend`: bulk +
  incremental loading of a :class:`~repro.xmldb.encoding.DocumentEncoding`,
  execution of both the isolated SFW block and the stacked ``WITH``-chain
  with named-parameter binding (``:x``) and timeout budgets;
* :mod:`repro.sqlbackend.decode` — reassembly of result rows into pre-rank
  item sequences (the input of :mod:`repro.xmldb.serializer`).

``XQueryProcessor.execute(..., configuration="sql")`` and ``Session``
wire this in as the fourth engine configuration next to
stacked, isolated-interpreted, and the in-tree relational back-end.
"""

from repro.sqlbackend.backend import SQLiteBackend, SQLResult
from repro.sqlbackend.decode import ordered_items, sequence_items
from repro.sqlbackend.schema import (
    ACCESS_PATH_INDEXES,
    bootstrap_schema,
    create_access_path_indexes,
    create_doc_table,
)

__all__ = [
    "SQLiteBackend",
    "SQLResult",
    "ACCESS_PATH_INDEXES",
    "bootstrap_schema",
    "create_access_path_indexes",
    "create_doc_table",
    "ordered_items",
    "sequence_items",
]
