"""Unit tests for the SQLite backend: schema, loading, execution, budgets."""

import gc
import sqlite3
import time

import pytest

from repro.errors import (
    BackendClosedError,
    BackendExecutionError,
    CatalogError,
    MirrorIntegrityError,
    QueryTimeoutError,
    TransientBackendError,
)
from repro.sqlbackend import ACCESS_PATH_INDEXES, SQLiteBackend
from repro.sqlbackend.backend import _FETCH_BATCH
from repro.sqlbackend.decode import sequence_items
from repro.xmldb.encoding import DocumentEncoding, encode_document
from repro.xmldb.parser import parse_xml


def _encoding(xml="<a><b>1</b><b>2</b></a>", uri="t.xml"):
    return encode_document(parse_xml(xml, uri=uri))


# -- schema bootstrap ---------------------------------------------------------------


def test_bootstrap_creates_doc_table_and_indexes():
    backend = SQLiteBackend()
    names = backend.indexes()
    for suffix, _keys in ACCESS_PATH_INDEXES:
        assert f"doc_idx_{suffix}" in names
    assert backend.row_count() == 0
    assert backend.loaded_rows == 0


def test_pre_is_the_clustered_rowid():
    backend = SQLiteBackend.from_encoding(_encoding())
    rows = backend.execute("SELECT rowid, pre FROM doc ORDER BY pre").rows
    assert all(rowid == pre for rowid, pre in rows)


# -- loading ------------------------------------------------------------------------


def test_sync_mirrors_all_rows():
    encoding = _encoding()
    backend = SQLiteBackend()
    assert backend.sync(encoding) == len(encoding)
    assert backend.row_count() == len(encoding)
    mirrored = backend.execute("SELECT * FROM doc ORDER BY pre").rows
    assert mirrored == encoding.rows()


def test_sync_is_incremental_and_idempotent():
    encoding = _encoding()
    backend = SQLiteBackend()
    first = backend.sync(encoding)
    assert backend.sync(encoding) == 0  # no new rows -> no-op
    encoding.append_document(parse_xml("<c><d/></c>", uri="u.xml"))
    second = backend.sync(encoding)
    assert first + second == len(encoding) == backend.row_count()
    # pre stays a key across documents
    pres = [row[0] for row in backend.execute("SELECT pre FROM doc ORDER BY pre").rows]
    assert pres == list(range(len(encoding)))


def test_sync_rejects_a_different_encoding():
    backend = SQLiteBackend.from_encoding(_encoding())
    with pytest.raises(CatalogError):
        backend.sync(_encoding("<x/>", uri="other.xml"))


def test_sync_rejects_replacement_after_source_is_gone():
    backend = SQLiteBackend()
    encoding = _encoding()
    backend.sync(encoding)
    del encoding
    gc.collect()
    with pytest.raises(CatalogError):
        backend.sync(_encoding("<x/>", uri="other.xml"))


def test_file_backed_database_reopens(tmp_path):
    path = tmp_path / "mirror.db"
    encoding = _encoding()
    SQLiteBackend.from_encoding(encoding, path=path).close()
    reopened = SQLiteBackend(path=path)
    assert reopened.loaded_rows == len(encoding)
    assert reopened.sync(encoding) == 0  # already mirrored, nothing to load


def test_reopened_mirror_rejects_a_diverging_catalog(tmp_path):
    path = tmp_path / "mirror.db"
    SQLiteBackend.from_encoding(_encoding(), path=path).close()
    reopened = SQLiteBackend(path=path)
    # Same row count, different content: adopting it would silently serve
    # the old catalog's rows — the prefix check must refuse.
    other = _encoding("<a><b>1</b><c>2</c></a>", uri="t.xml")
    assert len(other) == reopened.loaded_rows
    with pytest.raises(CatalogError):
        reopened.sync(other)


def test_reopened_mirror_extends_a_matching_catalog(tmp_path):
    path = tmp_path / "mirror.db"
    encoding = _encoding()
    SQLiteBackend.from_encoding(encoding, path=path).close()
    encoding.append_document(parse_xml("<c><d/></c>", uri="u.xml"))
    reopened = SQLiteBackend(path=path)
    assert reopened.sync(encoding) == 3  # verified prefix, loaded only the tail (DOC+c+d)
    assert reopened.row_count() == len(encoding)


class _DyingDisk:
    """Encoding records whose bulk-load slice fails after ``after`` rows."""

    def __init__(self, records, after):
        self.records = records
        self.after = after

    def __getitem__(self, index):
        yield from self.records[index][: self.after]
        raise sqlite3.OperationalError("disk I/O error")


def test_a_failed_bulk_load_rolls_back_and_the_retry_loads(monkeypatch):
    """Regression: with ``journal_mode = OFF`` the rollback after a failed
    load was a no-op, so its first rows stayed behind the high-water mark
    and every later sync failed on ``UNIQUE constraint failed: doc.pre``."""
    encoding = _encoding()
    records = encoding.records
    backend = SQLiteBackend()
    monkeypatch.setattr(
        DocumentEncoding, "records", property(lambda self: _DyingDisk(records, 3))
    )
    with pytest.raises(TransientBackendError, match="disk I/O error"):
        backend.sync(encoding)
    assert backend.row_count() == backend.loaded_rows == 0
    monkeypatch.undo()
    assert backend.sync(encoding) == len(encoding)
    assert backend.row_count() == backend.loaded_rows == len(encoding)
    assert backend.verify_integrity()
    backend.close()


def test_a_file_backed_mirror_keeps_wal_across_a_rebuild(tmp_path):
    encoding = _encoding()  # the rebuild copies from it; keep it alive
    backend = SQLiteBackend.from_encoding(encoding, path=tmp_path / "mirror.db")

    def journal_mode():
        return backend.execute("PRAGMA journal_mode").rows

    assert journal_mode() == [("wal",)]
    backend.rebuild_mirror()
    assert journal_mode() == [("wal",)]
    backend.close()


# -- execution ----------------------------------------------------------------------


def test_named_parameter_binding():
    backend = SQLiteBackend.from_encoding(_encoding())
    result = backend.execute(
        "SELECT pre FROM doc WHERE name = :tag ORDER BY pre", {"tag": "b"}
    )
    assert result.rows == [(2,), (4,)]
    assert result.columns == ("pre",)
    assert result.bindings == {"tag": "b"}


def test_name_lookup_uses_an_access_path_index():
    backend = SQLiteBackend.from_encoding(_encoding())
    plan = backend.query_plan(
        "SELECT pre FROM doc WHERE name = 'b' AND kind = 'ELEM' AND level = 1"
    )
    assert any("USING" in line and "INDEX" in line.upper() for line in plan), plan


def test_timeout_budget_aborts_execution():
    backend = SQLiteBackend()
    runaway = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) "
        "SELECT COUNT(*) FROM r"
    )
    with pytest.raises(QueryTimeoutError):
        backend.execute(runaway, timeout_seconds=0.05)
    # The budget machinery is disarmed afterwards: normal queries still run.
    assert backend.execute("SELECT 1").rows == [(1,)]


_PAST_A_BATCH = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < "
    f"{_FETCH_BATCH * 2 + 5}) SELECT i, 'v' || i FROM r"
)


@pytest.mark.parametrize(
    "sql",
    ["SELECT 1 AS x WHERE 0", "CREATE TABLE drained (x)", _PAST_A_BATCH],
    ids=["empty", "zero_columns", "past_a_batch"],
)
def test_result_rows_equal_the_drivers_rows(sql):
    """The result is held once, by column; its rows still read as the driver's."""
    backend = SQLiteBackend()
    result = backend.execute(sql)
    expected = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert result.rows == expected
    assert result.row_count == len(expected)
    assert len(result.column_data) == len(result.columns)
    backend.close()


def test_timeout_in_the_middle_of_a_drain():
    """The statement yields its first row at once, so ``execute`` returns and
    the budget runs out while the batches are fetched."""
    backend = SQLiteBackend()
    endless = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) "
        "SELECT i FROM r WHERE i % 100 = 1"
    )
    with pytest.raises(QueryTimeoutError):
        backend.execute(endless, timeout_seconds=0.05)
    assert backend.execute("SELECT 1").rows == [(1,)]
    backend.close()


def test_error_mentioning_interrupt_is_not_a_timeout():
    """Regression (PR 5, extended): timeouts were once classified by
    substring-matching "interrupt" in the error text; a legitimate error
    whose message happens to contain that word (an unknown table named
    ``interrupt_log``) must surface as a *permanent* error even while a
    budget is armed — not a timeout, and since PR 6's transient/permanent
    taxonomy, not a retryable TransientBackendError either."""
    backend = SQLiteBackend()
    with pytest.raises(BackendExecutionError) as excinfo:
        backend.execute("SELECT * FROM interrupt_log", timeout_seconds=5.0)
    assert "interrupt" in str(excinfo.value).lower()
    assert not isinstance(excinfo.value, QueryTimeoutError)
    assert not isinstance(excinfo.value, TransientBackendError)
    # The original driver exception stays reachable for diagnostics.
    assert isinstance(excinfo.value.cause, sqlite3.OperationalError)


def test_context_manager_closes_connection():
    with SQLiteBackend() as backend:
        assert backend.execute("SELECT 1").rows == [(1,)]
    # After close the backend fails with a library error, not a raw
    # sqlite3.ProgrammingError (regression: the seed leaked the latter).
    with pytest.raises(BackendClosedError):
        backend.execute("SELECT 1")


# -- decode -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "items, positions, distinct, expected",
    [
        pytest.param([9, 4, 9, 4], [2, 1, 3, 1], True, [4, 9], id="orders_by_pos_and_dedupes"),
        pytest.param([7, 3, 7], None, True, [7, 3], id="without_pos_keeps_row_order"),
        # Value-join select lists carry extra ordering columns, so SQL's
        # DISTINCT dedupes full rows while the XQuery sequence dedupes
        # items.  NULL items (aggregate tails: avg over an empty group)
        # are dropped.
        pytest.param(
            [5, 2, None, 5], None, True, [5, 2], id="keeps_first_occurrence_and_drops_nulls"
        ),
        pytest.param([4, None, 9, None], [2, 1, 1, 3], True, [9, 4], id="drops_nulls_with_pos"),
        pytest.param([2, 2, None, 1], [1, 2, 3, 3], False, [2, 2, 1], id="values_keep_repeats"),
    ],
)
def test_sequence_items(items, positions, distinct, expected):
    assert sequence_items(items, positions, distinct) == expected


# -- connection pool / lifecycle ----------------------------------------------------


def test_close_is_idempotent_and_sync_fails_after_close():
    backend = SQLiteBackend()
    encoding = _encoding()
    backend.sync(encoding)
    backend.close()
    backend.close()  # second close is a no-op, not an error
    with pytest.raises(BackendClosedError):
        backend.execute("SELECT 1")
    with pytest.raises(BackendClosedError):
        backend.sync(encoding)
    # BackendClosedError is part of the CatalogError family: one except
    # clause catches every backend misuse.
    assert issubclass(BackendClosedError, CatalogError)


def test_pooled_reads_from_many_threads_see_identical_rows():
    import threading

    backend = SQLiteBackend.from_encoding(_encoding())
    results = {}

    def read(i):
        results[i] = backend.execute("SELECT pre FROM doc WHERE name = 'b'").rows

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(rows == [(2,), (4,)] for rows in results.values()), results
    # Each thread got its own reader on top of the primary connection.
    assert backend.pool.size > 1
    backend.close()


def test_sync_invalidates_pooled_readers():
    import threading

    from repro.xmldb.encoding import DocumentEncoding

    encoding = DocumentEncoding()
    encoding.append_document(parse_xml("<a><b>1</b></a>", uri="one.xml"))
    backend = SQLiteBackend.from_encoding(encoding)

    counts = {}

    def count(i):
        counts[i] = backend.execute(
            "SELECT COUNT(*) FROM doc WHERE name = 'b'"
        ).rows[0][0]

    threads = [threading.Thread(target=count, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(value == 1 for value in counts.values())

    encoding.append_document(parse_xml("<x><b>2</b><b>3</b></x>", uri="two.xml"))
    backend.sync(encoding)

    threads = [threading.Thread(target=count, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(value == 3 for value in counts.values()), counts
    backend.close()


def test_write_statements_route_to_primary_and_invalidate_readers():
    import threading

    backend = SQLiteBackend.from_encoding(_encoding())
    # Reads on this thread now come from a pooled reader connection.
    assert backend.execute("SELECT COUNT(*) FROM doc").rows[0][0] == 6
    backend.execute("CREATE TABLE scratch (x INTEGER)")
    backend.execute("INSERT INTO scratch VALUES (41), (42)")
    # The DDL/DML ran on the primary, in the database every reader shares,
    # so the readers see the new table — from any thread.
    seen = {}

    def read(i):
        seen[i] = backend.execute("SELECT x FROM scratch ORDER BY x").rows

    read(0)
    thread = threading.Thread(target=read, args=(1,))
    thread.start()
    thread.join()
    assert seen[0] == seen[1] == [(41,), (42,)]
    backend.close()


def test_cte_prefixed_dml_routes_to_the_primary():
    """Regression: SQLite allows WITH-prefixed INSERT/UPDATE/DELETE — those
    must not run on a thread's reader connection (a write belongs on the
    primary, which owns the mirror's transactions)."""
    import threading

    backend = SQLiteBackend.from_encoding(_encoding())
    backend.execute("CREATE TABLE scratch2 (x INTEGER)")
    backend.execute(
        "WITH v(x) AS (VALUES (7), (8)) INSERT INTO scratch2 SELECT x FROM v"
    )
    seen = {}

    def read(i):
        seen[i] = backend.execute("SELECT x FROM scratch2 ORDER BY x").rows

    read(0)
    thread = threading.Thread(target=read, args=(1,))
    thread.start()
    thread.join()
    assert seen[0] == seen[1] == [(7,), (8,)]
    backend.close()


def test_a_write_on_the_primary_is_visible_to_a_reader_thread():
    """Readers share the primary's database: nothing refreshes them."""
    import threading

    backend = SQLiteBackend.from_encoding(_encoding())
    seen = []
    read = threading.Event()
    written = threading.Event()

    def reader():
        seen.append(backend.execute("SELECT COUNT(*) FROM doc").rows)
        read.set()
        assert written.wait(10)
        seen.append(backend.execute("SELECT COUNT(*) FROM doc").rows)

    thread = threading.Thread(target=reader)
    thread.start()
    assert read.wait(10)
    with backend.pool.write_lock:
        backend.pool.primary.execute("DELETE FROM doc WHERE pre >= 2")
        backend.pool.primary.commit()
    written.set()
    thread.join(10)
    assert not thread.is_alive()
    assert seen == [[(6,)], [(2,)]]
    assert backend.pool.size == 2  # the reader thread kept its one connection
    backend.close()


def test_a_commit_that_waits_out_a_reader_fails_transient_and_rolls_back():
    """On the shared memdb database a commit waits for in-flight reads; one
    that outlasts the busy timeout is a classified, retryable error and
    leaves no half-written transaction behind."""
    backend = SQLiteBackend.from_encoding(_encoding())
    backend.execute("CREATE TABLE scratch4 (x INTEGER)")
    backend.pool.primary.execute("PRAGMA busy_timeout = 50")
    held = backend.pool.acquire().execute("SELECT pre FROM doc")
    held.fetchone()  # an undrained cursor keeps its read lock
    with pytest.raises(TransientBackendError, match="locked"):
        backend.execute("INSERT INTO scratch4 VALUES (1)")
    held.fetchall()
    backend.execute("INSERT INTO scratch4 VALUES (2)")
    assert backend.execute("SELECT x FROM scratch4").rows == [(2,)]
    backend.close()


def test_two_in_memory_backends_never_share_rows():
    loaded = SQLiteBackend.from_encoding(_encoding())
    empty = SQLiteBackend()
    assert loaded.row_count() == 6
    assert empty.row_count() == 0
    loaded.close()
    empty.close()


def test_an_in_memory_mirror_needs_a_shared_memdb(monkeypatch):
    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 35, 5))
    with pytest.raises(BackendExecutionError, match="3.36"):
        SQLiteBackend()


def test_a_failed_write_does_not_lock_the_readers_out():
    """Regression: a write statement that failed left its transaction open
    on the primary, and every read waited out the busy timeout on the
    shared memdb database, then failed as ``database is locked``."""
    backend = SQLiteBackend()
    backend.execute("CREATE TABLE scratch3 (x INTEGER PRIMARY KEY)")
    backend.execute("INSERT INTO scratch3 VALUES (1)")
    with pytest.raises(BackendExecutionError, match="UNIQUE"):
        backend.execute("INSERT INTO scratch3 VALUES (2), (1)")
    started = time.perf_counter()
    assert backend.execute("SELECT x FROM scratch3").rows == [(1,)]
    assert time.perf_counter() - started < 1.0
    backend.close()


def test_dead_thread_readers_are_pruned():
    """A long-lived backend serving short-lived threads must not keep one
    reader connection per thread that ever existed."""
    import threading

    backend = SQLiteBackend.from_encoding(_encoding())
    for _ in range(10):
        thread = threading.Thread(
            target=lambda: backend.execute("SELECT COUNT(*) FROM doc")
        )
        thread.start()
        thread.join()
    # One more reader creation sweeps the dead threads' connections.
    backend.execute("SELECT 1")
    assert backend.pool.size <= 3  # primary + this thread (+ <=1 unswept)
    backend.close()


# -- driver-error classification ------------------------------------------------------


@pytest.mark.parametrize(
    "message, expected",
    [
        ("database is locked", TransientBackendError),
        ("database table is locked: doc", TransientBackendError),
        ("database is busy", TransientBackendError),
        ("disk I/O error", TransientBackendError),
        ("interrupted", TransientBackendError),
        ("database disk image is malformed", MirrorIntegrityError),
        ("file is not a database", MirrorIntegrityError),
        ("malformed database schema (doc_idx_name)", MirrorIntegrityError),
        ("no such table: missing", BackendExecutionError),
        ("near \"FROM\": syntax error", BackendExecutionError),
        # A genuine SQL error that merely *mentions* interrupt stays
        # permanent — only the bare "interrupted" message is the VM abort.
        ("no such table: interrupt_log", BackendExecutionError),
        ("interrupted transfer table missing", BackendExecutionError),
    ],
)
def test_classify_driver_error_table(message, expected):
    from repro.sqlbackend.backend import classify_driver_error

    original = sqlite3.OperationalError(message)
    classified = classify_driver_error(original)
    assert type(classified) is expected
    assert classified.cause is original
    # The taxonomy is strict: transient and integrity never overlap, and a
    # timeout is never produced by classification (that is the progress
    # handler's flag, not a message).
    assert not isinstance(classified, QueryTimeoutError)


def test_no_raw_sqlite_error_escapes_execute():
    backend = SQLiteBackend.from_encoding(_encoding())
    with pytest.raises(BackendExecutionError) as excinfo:
        backend.execute("SELECT * FROM nowhere")
    assert isinstance(excinfo.value.cause, sqlite3.Error)
    backend.close()


# -- integrity verification & self-healing --------------------------------------------


def test_verify_integrity_passes_on_a_healthy_mirror():
    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding)
    assert backend.verify_integrity()
    assert backend.rebuilds == 0
    backend.close()


def test_verify_integrity_detects_silent_row_loss():
    """PRAGMA integrity_check cannot see a DELETE — the prefix check must."""
    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding)
    with backend.pool.write_lock:
        backend.pool.primary.execute("DELETE FROM doc WHERE pre = 2")
        backend.pool.primary.commit()
    assert not backend.verify_integrity()
    backend.close()


def test_verify_integrity_detects_mutated_rows():
    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding)
    with backend.pool.write_lock:
        backend.pool.primary.execute("UPDATE doc SET name = 'zzz' WHERE pre = 2")
        backend.pool.primary.commit()
    assert not backend.verify_integrity()
    backend.close()


def test_heal_rebuilds_a_damaged_mirror_and_queries_recover():
    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding)
    expected = backend.execute("SELECT * FROM doc ORDER BY pre").rows
    with backend.pool.write_lock:
        backend.pool.primary.execute("DELETE FROM doc")
        backend.pool.primary.commit()
    assert backend.heal() is True
    assert backend.rebuilds == 1
    assert backend.heal() is False  # already healthy again
    assert backend.execute("SELECT * FROM doc ORDER BY pre").rows == expected
    assert backend.verify_integrity()
    backend.close()


def test_rebuild_without_an_encoding_raises_catalog_error():
    backend = SQLiteBackend()  # never synced: nothing canonical to copy
    with pytest.raises(CatalogError):
        backend.rebuild_mirror()
    backend.close()


def test_rebuild_invalidates_pooled_readers_in_other_threads():
    import threading

    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding)
    seen = {}
    ready = threading.Event()
    go = threading.Event()

    def reader():
        seen["before"] = backend.execute("SELECT COUNT(*) FROM doc").rows
        ready.set()
        assert go.wait(10)
        seen["after"] = backend.execute("SELECT COUNT(*) FROM doc").rows

    thread = threading.Thread(target=reader)
    thread.start()
    assert ready.wait(10)
    backend.rebuild_mirror()
    go.set()
    thread.join()
    assert seen["before"] == seen["after"] == [(len(encoding),)]
    backend.close()


def test_file_backed_rebuild_quarantines_the_corrupt_file(tmp_path):
    path = tmp_path / "mirror.db"
    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding, path=path)
    expected = backend.execute("SELECT * FROM doc ORDER BY pre").rows
    with backend.pool.write_lock:
        backend.pool.primary.execute("DELETE FROM doc WHERE pre >= 2")
        backend.pool.primary.commit()
    assert not backend.verify_integrity()
    assert backend.heal() is True
    assert backend.execute("SELECT * FROM doc ORDER BY pre").rows == expected
    quarantined = tmp_path / "mirror.db.quarantined-0"
    assert quarantined.exists()
    # The quarantined image still holds the damaged state for post-mortems.
    leftovers = sqlite3.connect(quarantined)
    assert leftovers.execute("SELECT COUNT(*) FROM doc").fetchone()[0] < len(
        encoding
    )
    leftovers.close()
    backend.close()


def test_corruption_during_execute_triggers_auto_heal():
    """An injected malformed-image fault classifies as integrity, the
    backend rebuilds in place, and the surfaced error is *transient* — the
    retry layer's cue that a re-execution will hit a healthy mirror."""
    from repro.testing.faults import FaultPlan

    encoding = _encoding()
    backend = SQLiteBackend.from_encoding(encoding)
    with FaultPlan() as plan:
        plan.script(
            "backend.execute",
            sqlite3.DatabaseError("database disk image is malformed"),
            times=1,
        )
        with pytest.raises(TransientBackendError, match="rebuilt; retry"):
            backend.execute("SELECT COUNT(*) FROM doc")
        assert plan.fired == {"backend.execute": 1}
    assert backend.rebuilds == 1
    assert backend.execute("SELECT COUNT(*) FROM doc").rows == [(len(encoding),)]
    backend.close()


def test_corruption_with_no_encoding_left_surfaces_integrity_error():
    """When the canonical encoding is gone the rebuild is impossible — the
    integrity error must stand (not masquerade as transient)."""
    from repro.testing.faults import FaultPlan

    backend = SQLiteBackend.from_encoding(_encoding())
    gc.collect()  # drop the weakly-referenced encoding
    with FaultPlan() as plan:
        plan.script(
            "backend.execute",
            sqlite3.DatabaseError("database disk image is malformed"),
            times=1,
        )
        with pytest.raises(MirrorIntegrityError):
            backend.execute("SELECT COUNT(*) FROM doc")
    assert backend.rebuilds == 0
    backend.close()
