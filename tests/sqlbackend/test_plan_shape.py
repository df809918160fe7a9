"""The mirror plans without statistics, and an outcome holds its answer once.

With ``sqlite_stat1`` present, SQLite attaches a Bloom filter to every
inner loop whose estimated lookups exceed the table's rows, and builds
each one by a full scan of ``doc`` on every execution: the pinned
root-to-leaf descents met that test on most XMark queries at this scale.
Without statistics the planner builds none, and a window's derived table
(``wN``, joined by comma after the pinned chain) is scanned once as the
outer loop instead of being probed inside the ``doc`` chain.  The stacked
chain states ``doc``'s row count itself, and SQLite plans it as it did
with statistics.
"""

import re
import sqlite3

import pytest

from repro.core.session import DocumentStore, Session
from repro.core.sqlgen import sized_stacked_sql
from repro.core.stages import sql_backend_sql
from repro.sqlbackend.backend import MAX_JOIN_TABLES, SQLiteBackend
from repro.sqlbackend.schema import (
    ACCESS_PATH_INDEXES,
    INSERT_STATEMENT,
    create_access_path_indexes,
    create_doc_table,
)
from repro.testing.corpus import XMARK_SUITE
from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_document

#: Large enough that statistics made SQLite build Bloom filters (Q3, Q8-Q12,
#: Q16, Q19, Q20 did on ``sql``), small enough to load in a fraction of a second.
DATASET = XMarkConfig(scale=0.5, seed=42)

RUNNABLE = [case for case in XMARK_SUITE if case.refusal is None]

_WINDOW_SCAN = re.compile(r"^SCAN w\d+\b")
_DOC_LOOP = re.compile(r"^(SCAN|SEARCH) d\d+\b")


@pytest.fixture(scope="module")
def store():
    store = DocumentStore()
    store.register_document(generate_xmark_document(DATASET))
    return store


def _statistics_tables(backend) -> list[str]:
    rows = backend.connection.execute(
        "SELECT name FROM sqlite_master WHERE name LIKE 'sqlite_stat%'"
    )
    return [name for (name,) in rows]


def _plan(connection, text) -> list:
    values = {name: None for name in re.findall(r":([A-Za-z_]\w*)", text)}
    return connection.execute("EXPLAIN QUERY PLAN " + text, values).fetchall()


def _plans(session):
    """``(query, engine, plan rows)`` for every SQL text either SQLite engine runs."""
    processor = session.processor
    context = processor.context
    backend = context.sql_backend_supplier()
    backend.sync(context.encoding)
    rows = len(context.encoding.records)
    for case in RUNNABLE:
        compilation = processor.compile(case.xquery)
        texts = [("sql-stacked", sized_stacked_sql(compilation.stacked_sql, rows))]
        graph = compilation.join_graph
        if graph is not None and graph.self_join_width <= MAX_JOIN_TABLES:
            texts.append(("sql", sql_backend_sql(compilation, context)))
        for engine, text in texts:
            yield case.name, engine, _plan(backend.pool.acquire(), text)


def _blooms(session) -> dict[str, int]:
    counts = {}
    for name, engine, rows in _plans(session):
        blooms = sum("BLOOM FILTER" in row[-1] for row in rows)
        if blooms:
            counts[f"{name}/{engine}"] = blooms
    return counts


def test_no_plan_builds_a_bloom_filter(store):
    session = Session(store, default_document="auction.xml")
    assert _blooms(session) == {}
    assert _statistics_tables(session.sql_backend) == []


def test_no_window_table_is_scanned_inside_the_doc_chain(store):
    """Once a loop nest has entered ``doc``, a ``wN`` is probed, never scanned."""
    session = Session(store, default_document="auction.xml")
    scanned_first = set()
    for name, engine, rows in _plans(session):
        nests: dict[int, list[str]] = {}
        for _id, parent, _unused, detail in rows:
            nests.setdefault(parent, []).append(detail)
        for details in nests.values():
            in_chain = False
            for detail in details:
                if _WINDOW_SCAN.match(detail):
                    assert not in_chain, (name, engine, details)
                    scanned_first.add(name)
                in_chain = in_chain or bool(_DOC_LOOP.match(detail))
    assert {"Q2", "Q3"} <= scanned_first


def _analyzed_file(store, path) -> sqlite3.Connection:
    """A file an earlier build wrote: statistics, and a four-column ``nklp``."""
    raw = sqlite3.connect(path)
    create_doc_table(raw)
    create_access_path_indexes(raw)
    raw.execute("DROP INDEX doc_idx_nklp")
    raw.execute("CREATE INDEX doc_idx_nklp ON doc (name, kind, level, pre)")
    raw.executemany(INSERT_STATEMENT, map(tuple, store.encoding.records))
    raw.commit()
    raw.execute("ANALYZE")
    raw.commit()
    return raw


def test_a_reopened_file_mirror_drops_stale_statistics(store, tmp_path):
    path = tmp_path / "mirror.db"
    _analyzed_file(store, path).close()
    backend = SQLiteBackend(path)
    try:
        session = Session(store, default_document="auction.xml", sql_backend=backend)
        backend.sync(session.processor.context.encoding)
        assert _statistics_tables(backend) == []
        assert _blooms(session) == {}
        for suffix, key_columns in ACCESS_PATH_INDEXES:
            info = backend.connection.execute(f"PRAGMA index_info(doc_idx_{suffix})")
            assert [row[2] for row in info] == list(key_columns)
    finally:
        backend.close()


def _nested(rows) -> list[tuple[int, str]]:
    """Plan rows as ``(depth, detail)``: the row ids shift with the text."""
    depth = {0: 0}
    for row_id, parent, _unused, _detail in rows:
        depth[row_id] = depth[parent] + 1
    return [(depth[row_id], detail) for row_id, _parent, _unused, detail in rows]


def test_the_sized_stacked_chain_plans_as_with_statistics(store, tmp_path):
    """Stating ``doc``'s row count buys the stacked chain what ``ANALYZE`` did.

    Unsized, SQLite plans ``doc`` at 2**20 rows, and Q1, Q13 and Q15 probe
    their text nodes before the culling window (Q1 7x slower at this scale).
    """
    analyzed = _analyzed_file(store, tmp_path / "analyzed.db")
    session = Session(store, default_document="auction.xml")
    processor = session.processor
    context = processor.context
    backend = context.sql_backend_supplier()
    backend.sync(context.encoding)
    rows = len(context.encoding.records)
    try:
        for case in RUNNABLE:
            stacked_sql = processor.compile(case.xquery).stacked_sql
            sized = sized_stacked_sql(stacked_sql, rows)
            planned = _nested(_plan(backend.pool.acquire(), sized))
            assert planned == _nested(_plan(analyzed, stacked_sql)), case.name
    finally:
        analyzed.close()


@pytest.mark.parametrize("engine", ["sql", "sql-stacked"])
def test_an_sql_outcome_holds_its_answer_once(store, engine):
    session = Session(store, default_document="auction.xml")
    processor = session.processor
    query = next(case.xquery for case in RUNNABLE if case.name == "Q2")
    outcome = processor.execute(query, configuration=engine)
    details = outcome.details
    assert not hasattr(details, "rows") and not hasattr(details, "column_data")
    rows = session.sql_backend.execute(details.sql, details.bindings).rows
    assert details.row_count == len(rows) > 0
    records = processor.context.encoding.records
    assert outcome.items and all(item is records[item][0] for item in outcome.items)


LET_BOUND = "<r><v>-2.5</v><v>-40</v><v>7</v><w>3</w><w>1000</w></r>"


@pytest.mark.parametrize(
    "query,expected",
    [
        ('let $s := fn:sum(doc("n.xml")/descendant::v) return $s', [-35.5]),
        ('let $s := fn:sum(doc("n.xml")/descendant::w) return $s', [1003.0]),
        ('let $s := fn:avg(doc("n.xml")/descendant::x) return $s', []),
        ('let $s := fn:count(doc("n.xml")/descendant::v) return $s', [3]),
        ('for $x in doc("n.xml")/descendant::v let $s := fn:sum($x) return $s', [-2.5, -40.0, 7.0]),
    ],
)
def test_a_let_bound_aggregate_keeps_its_values(query, expected):
    """The return position is a variable, so these count as node results:
    an aggregate's value is no ``pre`` rank and must pass through as it is."""
    session = Session()
    session.register("n.xml", LET_BOUND)
    for engine in ("stacked", "sql", "sql-stacked"):
        assert session.execute(query, configuration=engine).items == expected, engine
