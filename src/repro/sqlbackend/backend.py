""":class:`SQLiteBackend` — the off-the-shelf RDBMS behind ``configuration="sql"``.

The backend mirrors a :class:`~repro.xmldb.encoding.DocumentEncoding`
into the Fig. 2 ``doc`` table (in-memory by default, file-backed on
request) and executes the two SQL renderings of :mod:`repro.core.sqlgen`:

* the isolated join-graph SFW block (Fig. 8/9) — the paper's headline:
  one indexed n-fold self-join the RDBMS join workhorse handles well;
* the stacked ``WITH``-chain — the unrewritten plan, one CTE per operator,
  whose ``DISTINCT``/``RANK() OVER`` fences are exactly what Section IV
  blames for the stacked configuration's poor behaviour.

Mirroring is *incremental*: the encoding is append-only (``pre`` ranks
never change), so :meth:`SQLiteBackend.sync` bulk-loads only the rows
beyond the current high-water mark.  A session that registers documents
over time re-uses one backend and pays load cost once per new document.

External-variable bindings arrive as plain mappings and are forwarded to
SQLite's native named-parameter binding (the ``:x`` markers the SQL
renderers emit for :class:`~repro.core.joingraph.ParameterTerm` /
:class:`~repro.algebra.predicates.Parameter` slots) — prepared queries
re-execute without any SQL re-rendering.

Concurrency
-----------

One backend serves many threads.  Instead of funnelling every statement
through one connection (SQLite would serialize them on its internal
mutex), the backend owns a :class:`ConnectionPool` of per-thread *read*
connections:

* **file-backed** mirrors hand each thread its own connection to the same
  database file — SQLite allows any number of concurrent readers;
* **in-memory** mirrors hand each thread a private *clone* of the primary
  database (via the SQLite online-backup API — effectively a memcpy),
  because a ``:memory:`` database is invisible to other connections.
  Clones carry a generation tag; :meth:`sync` bumps the generation and
  stale clones are re-cloned on their next checkout.

All mutation — :meth:`sync`, non-``SELECT`` statements through
:meth:`execute` — is serialized behind one write lock and runs on the
primary connection; reads never take that lock (except the brief clone
refresh after a catalog change).  SQLite releases the GIL while a
statement executes, so pooled reads scale with cores.
"""

from __future__ import annotations

import os
import re
import sqlite3
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.errors import (
    BackendClosedError,
    BackendExecutionError,
    CatalogError,
    MirrorIntegrityError,
    QueryTimeoutError,
    TransientBackendError,
)
from repro.sqlbackend.schema import bootstrap_schema, index_names, insert_statement
from repro.testing.faults import fire as _fire_fault
from repro.xmldb.encoding import DOC_COLUMNS, DocumentEncoding

#: VM instructions between progress-handler ticks while a timeout is armed.
_PROGRESS_INTERVAL = 4000

#: Rows per ``fetchmany`` batch while draining a cursor.  Large enough that
#: the per-batch transpose amortises, small enough that the progress handler
#: (and thus the timeout) keeps firing between batches.
_FETCH_BATCH = 4096

#: Statements that only read.  Anything else routes to the primary
#: connection under the write lock (PRAGMA included: many pragmas write).
_READ_STATEMENTS = ("SELECT", "EXPLAIN", "VALUES")

#: SQLite allows CTE-prefixed DML (``WITH ... INSERT/UPDATE/DELETE``), so a
#: leading WITH alone does not make a statement a read.  The scan is
#: deliberately conservative: a false *write* classification only costs the
#: statement its read concurrency (it runs serialized on the primary,
#: still correct); a false read would lose the write in a thread-private
#: clone.
_WRITE_KEYWORD = re.compile(
    r"\b(INSERT|UPDATE|DELETE|REPLACE|CREATE|DROP|ALTER|ATTACH|DETACH|VACUUM|REINDEX)\b",
    re.IGNORECASE,
)


def _is_read_statement(sql: str) -> bool:
    """True when ``sql`` is a pure query (safe to run on a pooled reader)."""
    text = re.sub(r"^(\s|--[^\n]*\n|/\*.*?\*/)+", "", sql, flags=re.DOTALL)
    first = text[:10].upper()
    if any(first.startswith(keyword) for keyword in _READ_STATEMENTS):
        return True
    return first.startswith("WITH") and not _WRITE_KEYWORD.search(text)


#: Driver-message classes that clear on retry: another writer holds a lock,
#: the OS hiccuped, someone interrupted the VM.  Substring matches against
#: the lowercased message (SQLite appends detail after these prefixes, e.g.
#: ``database table is locked: doc``).
_TRANSIENT_MESSAGES = (
    "database is locked",
    "database table is locked",
    "database is busy",
    "disk i/o error",
)

#: Driver-message classes that mean the mirror itself can no longer be
#: trusted — the quarantine-and-rebuild path recovers from these.
_INTEGRITY_MESSAGES = (
    "database disk image is malformed",
    "file is not a database",
    "malformed database schema",
)

#: SQLite refuses a FROM clause of more tables ("at most 64 tables in a join").
MAX_JOIN_TABLES = 64


def check_join_width(table_count: int) -> None:
    """Refuse a block SQLite cannot join — before anyone plans or renders it.

    Raises the class SQLite's own refusal is classified as, so callers and
    fallback policies see one error whether the limit is met here or there.
    """
    if table_count > MAX_JOIN_TABLES:
        raise BackendExecutionError(
            f"SQLite joins at most {MAX_JOIN_TABLES} tables in one block; "
            f"this join graph references the doc table {table_count} times"
        )


def classify_driver_error(error: BaseException) -> Exception:
    """Translate a driver exception into the repro error taxonomy.

    The boundary rule: no raw :mod:`sqlite3` exception escapes the backend.
    Transient subcases (locked/busy/disk I/O/interrupted) become
    :class:`~repro.errors.TransientBackendError` — the only class retry
    policies act on; integrity subcases become
    :class:`~repro.errors.MirrorIntegrityError` (triggering the rebuild
    path); everything else is a permanent
    :class:`~repro.errors.BackendExecutionError`.

    Classification keys on SQLite's fixed message prefixes, never on loose
    substrings: a genuine SQL error that merely *mentions* ``interrupt``
    (``no such table: interrupt_log``) stays permanent.  ``interrupted``
    must be the entire message — that is exactly what ``sqlite3_interrupt``
    produces, and anything longer is a different error that happens to
    contain the word.
    """
    message = str(error).lower()
    if message == "interrupted":
        return TransientBackendError(
            "the statement was interrupted mid-execution", cause=error
        )
    for needle in _INTEGRITY_MESSAGES:
        if needle in message:
            return MirrorIntegrityError(str(error), cause=error)
    for needle in _TRANSIENT_MESSAGES:
        if needle in message:
            return TransientBackendError(str(error), cause=error)
    return BackendExecutionError(str(error), cause=error)


@dataclass
class SQLResult:
    """Rows produced by one SQL execution, plus the statement that ran."""

    sql: str
    columns: tuple[str, ...]
    rows: list[tuple]
    elapsed_seconds: float
    bindings: dict[str, object] = field(default_factory=dict)
    #: Column-major view of ``rows`` (one list per column), built while the
    #: cursor drains so the decode step never re-transposes the result.
    #: ``None`` only for hand-built results that skipped the backend.
    column_data: Optional[list[list]] = None

    @property
    def row_count(self) -> int:
        return len(self.rows)


class ConnectionPool:
    """Per-thread SQLite read connections over one primary database.

    The pool owns the *primary* connection (the only one that writes) and
    lazily creates one reader per thread:

    * for a file-backed database, a fresh connection to the same path;
    * for ``:memory:``, a clone of the primary made with the online-backup
      API (``Connection.backup`` — available on every supported Python).

    A generation counter invalidates readers: :meth:`mark_changed` (called
    by the backend after every committed write) bumps it, and a stale
    reader is refreshed on its next :meth:`acquire` — file readers just
    adopt the new generation (the file already has the data), memory
    readers are re-cloned from the primary under the write lock.

    All connections are created with ``check_same_thread=False``; the pool's
    discipline — one reader per thread, writes only on the primary under
    :attr:`write_lock` — is what makes that safe.
    """

    def __init__(self, path: str):
        self.path = path
        self.in_memory = path == ":memory:"
        #: Serializes every mutation of the primary (sync, writes, clones).
        self.write_lock = threading.RLock()
        self.primary = sqlite3.connect(path, check_same_thread=False)
        self._generation = 0
        #: Bumped when the primary is *replaced* (mirror rebuild): stale
        #: readers cannot be refreshed in place — for a file-backed pool the
        #: old connections still hold the quarantined file's inode — so an
        #: epoch change makes every thread discard its reader and connect
        #: anew on the next acquire.
        self._epoch = 0
        self._local = threading.local()
        #: thread ident -> (weakref to the owning thread, its reader).
        #: Lets close() reach every reader, and lets reader creation prune
        #: connections whose threads have died — a long-lived session
        #: serving short-lived threads must not accumulate clones forever.
        self._readers: dict[int, tuple["weakref.ref", sqlite3.Connection]] = {}
        self._registry_lock = threading.Lock()
        self.closed = False

    # -- lifecycle ---------------------------------------------------------------

    def mark_changed(self) -> None:
        """Record a committed write; existing readers are now stale."""
        self._generation += 1

    def replace_primary(self, connection: sqlite3.Connection) -> None:
        """Swap in a new primary (mirror rebuild); every reader is retired.

        Called with a fully initialized replacement database under
        :attr:`write_lock`.  The epoch bump makes every pooled reader —
        in-memory clone or file connection to a quarantined inode — rebuild
        from scratch on its owning thread's next :meth:`acquire`; the old
        primary is closed here, old readers close lazily as their threads
        return.
        """
        with self.write_lock:
            retired = self.primary
            self.primary = connection
            self._generation += 1
            self._epoch += 1
        try:
            retired.close()
        except sqlite3.Error:  # pragma: no cover - close() best effort
            pass

    def close(self) -> None:
        """Close the primary and every pooled reader.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        with self._registry_lock:
            connections = [reader for _owner, reader in self._readers.values()]
            self._readers.clear()
        connections.append(self.primary)
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close() best effort
                pass

    # -- checkout ----------------------------------------------------------------

    def acquire(self) -> sqlite3.Connection:
        """The calling thread's read connection, refreshed if stale.

        Failure-safe: if refresh or creation fails mid-acquire (a clone
        fault, a dying filesystem), the half-initialized connection is
        closed and dropped from both the thread-local slot and the registry
        — never cached, so the next acquire starts clean.  Driver errors
        cross the same classification boundary as execution errors: no raw
        :mod:`sqlite3` exception escapes the pool.
        """
        try:
            return self._acquire()
        except sqlite3.DatabaseError as error:
            raise classify_driver_error(error) from error

    def _acquire(self) -> sqlite3.Connection:
        _fire_fault("pool.acquire")
        if self.closed:
            raise BackendClosedError("this SQLiteBackend has been closed")
        generation = self._generation
        epoch = self._epoch
        connection = getattr(self._local, "connection", None)
        if connection is not None and getattr(self._local, "epoch", None) != epoch:
            # The primary was replaced (mirror rebuild): this reader may
            # point at a quarantined database — discard it outright.
            self._discard_local_reader()
            connection = None
        if connection is not None and self._local.generation == generation:
            return connection
        if connection is None:
            connection = self._new_reader()
            self._local.connection = connection
        elif self.in_memory:
            # Stale clone: re-copy the primary (file readers see the file).
            try:
                _fire_fault("mirror.clone")
                with self.write_lock:
                    self.primary.backup(connection)
            except BaseException:
                self._discard_local_reader()
                raise
        self._local.generation = generation
        self._local.epoch = epoch
        return connection

    def _discard_local_reader(self) -> None:
        """Close + forget the calling thread's reader (refresh failed/stale)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        self._local.connection = None
        with self._registry_lock:
            registered = self._readers.get(threading.get_ident())
            if registered is not None and registered[1] is connection:
                del self._readers[threading.get_ident()]
        try:
            connection.close()
        except sqlite3.Error:  # pragma: no cover - close() best effort
            pass

    def _new_reader(self) -> sqlite3.Connection:
        if self.in_memory:
            connection = sqlite3.connect(":memory:", check_same_thread=False)
            try:
                _fire_fault("mirror.clone")
                with self.write_lock:
                    self.primary.backup(connection)
            except BaseException:
                # Clone failed mid-setup: the half-initialized connection
                # must not leak (it was never registered).
                connection.close()
                raise
        else:
            connection = sqlite3.connect(self.path, check_same_thread=False)
        stale: list[sqlite3.Connection] = []
        with self._registry_lock:
            if self.closed:  # closed while we were connecting
                connection.close()
                raise BackendClosedError("this SQLiteBackend has been closed")
            # Reader creation is rare — piggyback the dead-thread sweep on
            # it so clones never outlive their threads by more than one
            # pool-growth event.
            for ident, (owner, reader) in list(self._readers.items()):
                thread = owner()
                if thread is None or not thread.is_alive():
                    del self._readers[ident]
                    stale.append(reader)
            # A reused thread ident means the previous owner is dead but
            # was not swept above (weakref still alive); close it too
            # rather than leaking it on overwrite.
            previous = self._readers.get(threading.get_ident())
            if previous is not None:
                stale.append(previous[1])
            self._readers[threading.get_ident()] = (
                weakref.ref(threading.current_thread()),
                connection,
            )
        for reader in stale:
            try:
                reader.close()
            except sqlite3.Error:  # pragma: no cover - close() best effort
                pass
        return connection

    @property
    def size(self) -> int:
        """Connections currently open (primary + per-thread readers)."""
        with self._registry_lock:
            return 1 + len(self._readers)


class SQLiteBackend:
    """A SQLite mirror of one document encoding, ready to execute plans.

    Example:

    >>> from repro.xmldb.encoding import encode_document
    >>> from repro.xmldb.parser import parse_xml
    >>> encoding = encode_document(parse_xml("<a><b>1</b><b>2</b></a>", uri="t.xml"))
    >>> backend = SQLiteBackend()
    >>> backend.sync(encoding)
    6
    >>> backend.execute("SELECT pre FROM doc WHERE name = :n", {"n": "b"}).rows
    [(2,), (4,)]
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"] = ":memory:",
        table_name: str = "doc",
        with_indexes: bool = True,
    ):
        self.table_name = table_name
        self.path = str(path)
        self.with_indexes = with_indexes
        #: Times the quarantine-and-rebuild path reconstructed this mirror.
        self.rebuilds = 0
        self.pool = ConnectionPool(self.path)
        if not self.pool.in_memory:
            # Readers and the sync writer coexist under WAL; without it a
            # pooled reader could starve a registration for the busy timeout.
            try:
                self.pool.primary.execute("PRAGMA journal_mode=WAL")
            except sqlite3.Error:  # pragma: no cover - exotic filesystems
                pass
        self.index_names = bootstrap_schema(
            self.connection, table_name, with_indexes=with_indexes
        )
        self._insert_sql = insert_statement(table_name, DOC_COLUMNS)
        #: High-water mark of mirrored rows (== ``pre`` of the next row).
        self.loaded_rows = int(
            self.connection.execute(f"SELECT COUNT(*) FROM {table_name}").fetchone()[0]
        )
        self._source: Optional["weakref.ref[DocumentEncoding]"] = None
        self.pool.mark_changed()  # schema bootstrap happened on the primary

    @property
    def connection(self) -> sqlite3.Connection:
        """The primary (write) connection — reads go through :attr:`pool`."""
        if self.pool.closed:
            raise BackendClosedError("this SQLiteBackend has been closed")
        return self.pool.primary

    @property
    def closed(self) -> bool:
        return self.pool.closed

    @classmethod
    def from_encoding(cls, encoding: DocumentEncoding, **kwargs) -> "SQLiteBackend":
        """Create a backend and load ``encoding`` in one step."""
        backend = cls(**kwargs)
        backend.sync(encoding)
        return backend

    # -- loading -----------------------------------------------------------------

    def sync(self, encoding: DocumentEncoding) -> int:
        """Mirror ``encoding`` into the ``doc`` table; returns rows appended.

        Incremental: only rows past the high-water mark are loaded (the
        encoding is append-only, so previously mirrored rows are final).
        One backend mirrors one encoding object for its lifetime; syncing a
        different encoding raises :class:`~repro.errors.CatalogError`
        instead of silently interleaving two catalogs.  A backend opened
        over a pre-populated (file-backed) database verifies once that the
        existing rows are a prefix of ``encoding`` before adopting it.

        Thread-safe: the whole load is serialized behind the pool's write
        lock, and concurrent no-op syncs (the common per-execution case)
        return without blocking readers.
        """
        with self.pool.write_lock:
            if self.pool.closed:
                raise BackendClosedError("this SQLiteBackend has been closed")
            try:
                # Fires on every sync — including the per-execution no-op
                # path — so chaos runs can fault any query's sync stage.
                _fire_fault("backend.sync")
            except sqlite3.DatabaseError as error:
                raise classify_driver_error(error) from error
            if self._source is not None and self._source() is not encoding:
                raise CatalogError(
                    "this SQLiteBackend already mirrors a different DocumentEncoding"
                )
            total = len(encoding)
            if total < self.loaded_rows:
                raise CatalogError(
                    f"encoding has {total} rows but {self.loaded_rows} are already "
                    "mirrored; encodings are append-only"
                )
            if self._source is None and self.loaded_rows:
                self._verify_mirrored_prefix(encoding)
            self._source = weakref.ref(encoding)
            if total == self.loaded_rows:
                return 0
            # Slice up to the observed total, not the open end: another
            # document may be (atomically) appended while we load, and its
            # rows must wait for the next sync or they would be re-inserted.
            fresh = encoding.records[self.loaded_rows : total]
            try:
                self.connection.executemany(
                    self._insert_sql, (record.as_tuple() for record in fresh)
                )
                self.connection.commit()
            except sqlite3.DatabaseError as error:
                # A failed bulk load may have left a partial tail behind an
                # aborted transaction; roll it back so the high-water mark
                # stays truthful, then surface the classified error.
                try:
                    self.connection.rollback()
                except sqlite3.Error:  # pragma: no cover - rollback best effort
                    pass
                raise classify_driver_error(error) from error
            self.loaded_rows = total
            # Refresh planner statistics so access-path choices see the new data.
            self.connection.execute("PRAGMA analysis_limit = 1000")
            self.connection.execute("ANALYZE")
            self.pool.mark_changed()
            return len(fresh)

    def _verify_mirrored_prefix(self, encoding: DocumentEncoding) -> None:
        """Check that already-mirrored rows equal ``encoding``'s prefix.

        Runs once when a backend adopts an encoding over a database that
        already holds rows (a reopened file-backed mirror): a persisted
        database loaded from a *different* catalog must fail loudly here,
        not return wrong query results later.  Streaming comparison,
        O(mirrored rows), paid a single time per process.
        """
        cursor = self.connection.execute(
            f"SELECT * FROM {self.table_name} ORDER BY pre"
        )
        for record, mirrored in zip(encoding.records, cursor):
            expected = record.as_tuple()
            # SQLite persists NaN as NULL; normalize before comparing.
            data = expected[-1]
            if isinstance(data, float) and data != data:
                expected = expected[:-1] + (None,)
            if expected != tuple(mirrored):
                raise CatalogError(
                    f"the mirrored database diverges from the encoding at "
                    f"pre = {mirrored[0]}: it was loaded from a different catalog"
                )

    def row_count(self) -> int:
        """Rows currently in the ``doc`` table (sanity/monitoring hook)."""
        cursor = self.pool.acquire().execute(f"SELECT COUNT(*) FROM {self.table_name}")
        return int(cursor.fetchone()[0])

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        sql: str,
        bindings: Optional[Mapping[str, object]] = None,
        timeout_seconds: Optional[float] = None,
    ) -> SQLResult:
        """Run one SQL statement; named ``:x`` markers bind from ``bindings``.

        Queries (``SELECT``/``WITH``/``EXPLAIN``/``VALUES``) run on the
        calling thread's pooled connection, concurrently with other
        readers; anything else runs on the primary connection behind the
        write lock and invalidates the pool.

        ``timeout_seconds`` arms SQLite's progress handler as an execution
        budget; overruns raise :class:`~repro.errors.QueryTimeoutError`
        (the paper's DNF), like every other execution configuration.  The
        handler is installed on the thread-private connection, so budgets
        on parallel queries never interfere.
        """
        if self.pool.closed:
            raise BackendClosedError(
                "this SQLiteBackend has been closed; create a new backend "
                "(or a new Session) to keep executing"
            )
        if _is_read_statement(sql):
            return self._run(self.pool.acquire(), sql, bindings, timeout_seconds)
        with self.pool.write_lock:
            result = self._run(self.connection, sql, bindings, timeout_seconds)
            self.connection.commit()
            self.pool.mark_changed()
            return result

    def _run(
        self,
        connection: sqlite3.Connection,
        sql: str,
        bindings: Optional[Mapping[str, object]],
        timeout_seconds: Optional[float],
    ) -> SQLResult:
        values = dict(bindings or {})
        started = time.perf_counter()
        #: Set by the progress handler the instant it aborts the statement.
        #: The except-clause keys on this flag, *not* on the error text — an
        #: ordinary OperationalError whose message merely contains the word
        #: "interrupt" (say, ``no such table: interrupt_log``) must surface
        #: as-is, never be misreported as a timeout.
        interrupted = False
        if timeout_seconds is not None:
            deadline = started + timeout_seconds

            def _over_budget() -> int:
                nonlocal interrupted
                if time.perf_counter() > deadline:
                    interrupted = True
                    return 1
                return 0

            connection.set_progress_handler(_over_budget, _PROGRESS_INTERVAL)
        try:
            _fire_fault("backend.execute")
            cursor = connection.execute(sql, values)
            # Drain in fixed-size batches, transposing each batch as it
            # arrives: the decode step consumes whole columns, and per-batch
            # ``zip(*batch)`` builds them without a second full-result pass.
            rows: list[tuple] = []
            column_data: Optional[list[list]] = None
            while True:
                batch = cursor.fetchmany(_FETCH_BATCH)
                if not batch:
                    break
                rows.extend(batch)
                transposed = zip(*batch)
                if column_data is None:
                    column_data = [list(column) for column in transposed]
                else:
                    for accumulated, column in zip(column_data, transposed):
                        accumulated.extend(column)
        except sqlite3.ProgrammingError as error:
            if self.pool.closed:
                raise BackendClosedError(
                    "this SQLiteBackend has been closed"
                ) from None
            raise BackendExecutionError(str(error), cause=error) from error
        except sqlite3.DatabaseError as error:
            if interrupted:
                raise QueryTimeoutError(
                    timeout_seconds, time.perf_counter() - started
                ) from None
            classified = classify_driver_error(error)
            if isinstance(classified, MirrorIntegrityError):
                # Self-healing path: quarantine + rebuild from the canonical
                # encoding; on success the retry layer re-executes against
                # the fresh mirror (reported as transient), on failure the
                # integrity error stands.
                raise self._heal_after_corruption(classified) from error
            raise classified from error
        finally:
            if timeout_seconds is not None:
                try:
                    connection.set_progress_handler(None, 0)
                except sqlite3.ProgrammingError:
                    pass  # closed concurrently; nothing left to disarm
        columns = tuple(item[0] for item in cursor.description or ())
        if column_data is None:
            column_data = [[] for _ in columns]
        return SQLResult(
            sql=sql,
            columns=columns,
            rows=rows,
            elapsed_seconds=time.perf_counter() - started,
            bindings=values,
            column_data=column_data,
        )

    def query_plan(
        self, sql: str, bindings: Optional[Mapping[str, object]] = None
    ) -> list[str]:
        """SQLite's EXPLAIN QUERY PLAN detail lines for ``sql``.

        Unsupplied ``:name`` markers are bound to NULL for the explain —
        plan *introspection* needs no real values, so prepared SQL can be
        explained without inventing bindings (extra keys are harmless).
        """
        values = {name: None for name in re.findall(r":([A-Za-z_]\w*)", sql)}
        values.update(bindings or {})
        cursor = self.pool.acquire().execute("EXPLAIN QUERY PLAN " + sql, values)
        return [row[-1] for row in cursor.fetchall()]

    def indexes(self) -> list[str]:
        """Names of the indexes currently defined on the ``doc`` table."""
        return index_names(self.pool.acquire(), self.table_name)

    # -- integrity & self-healing -------------------------------------------------

    def verify_integrity(self) -> bool:
        """True when the mirror is structurally sound and still faithful.

        Two layers of checking: SQLite's ``PRAGMA integrity_check`` (page
        and index structure) and the append-only prefix verification
        against the canonical encoding (exact row count at the high-water
        mark plus row-by-row comparison) — a mirror that silently lost or
        mutated rows passes the PRAGMA but fails here.  Runs behind the
        write lock; pooled readers are not disturbed.
        """
        with self.pool.write_lock:
            if self.pool.closed:
                raise BackendClosedError("this SQLiteBackend has been closed")
            try:
                report = self.pool.primary.execute(
                    "PRAGMA integrity_check"
                ).fetchall()
                if report != [("ok",)]:
                    return False
                count = self.pool.primary.execute(
                    f"SELECT COUNT(*) FROM {self.table_name}"
                ).fetchone()[0]
            except sqlite3.DatabaseError:
                return False
            if count != self.loaded_rows:
                return False
            encoding = self._source() if self._source is not None else None
            if encoding is None:
                return True  # nothing canonical left to compare against
            try:
                self._verify_mirrored_prefix(encoding)
            except (CatalogError, sqlite3.DatabaseError):
                return False
            return True

    def rebuild_mirror(self) -> int:
        """Quarantine the database and reconstruct it from the encoding.

        The rebuild happens on a *fresh* database — a new ``:memory:``
        connection, or the file path after the corrupt file (and its WAL
        sidecars) is moved aside to ``<path>.quarantined-N`` — because
        issuing DDL inside a malformed image can itself fail; nothing of
        the quarantined state is reused.  The finished replacement swaps in
        as the pool's primary with an epoch bump, so every pooled reader
        re-clones (in-memory) or reconnects (file) on its next acquire.

        Returns the number of rows loaded; raises
        :class:`~repro.errors.CatalogError` when no canonical encoding is
        attached to rebuild from.
        """
        with self.pool.write_lock:
            if self.pool.closed:
                raise BackendClosedError("this SQLiteBackend has been closed")
            encoding = self._source() if self._source is not None else None
            if encoding is None:
                raise CatalogError(
                    "cannot rebuild the mirror: no canonical encoding is attached"
                )
            total = len(encoding)
            fresh = self._fresh_primary()
            try:
                bootstrap_schema(
                    fresh, self.table_name, with_indexes=self.with_indexes
                )
                fresh.executemany(
                    self._insert_sql,
                    (record.as_tuple() for record in encoding.records[:total]),
                )
                fresh.commit()
                fresh.execute("PRAGMA analysis_limit = 1000")
                fresh.execute("ANALYZE")
            except BaseException:
                fresh.close()
                raise
            self.pool.replace_primary(fresh)
            self.loaded_rows = total
            self.rebuilds += 1
            return total

    def heal(self) -> bool:
        """Verify the mirror, rebuilding it when unhealthy; True if rebuilt."""
        with self.pool.write_lock:
            if self.verify_integrity():
                return False
            self.rebuild_mirror()
            return True

    def _heal_after_corruption(self, error: MirrorIntegrityError) -> Exception:
        """Attempt the rebuild; decide which error the caller raises.

        The statement that observed the corruption is lost either way.  A
        successful rebuild downgrades the failure to
        :class:`~repro.errors.TransientBackendError` (retry hits a healthy
        mirror); an impossible rebuild leaves the integrity error standing.
        """
        try:
            self.rebuild_mirror()
        except (CatalogError, sqlite3.Error):
            return error
        return TransientBackendError(
            f"the mirror was corrupted ({error}) and has been rebuilt; retry",
            cause=error,
        )

    def _fresh_primary(self) -> sqlite3.Connection:
        """A brand-new empty database at this backend's location.

        File-backed mirrors quarantine the existing file first (main file
        plus WAL sidecars, which belong to the old inode and must not be
        replayed into the replacement).
        """
        if self.pool.in_memory:
            return sqlite3.connect(":memory:", check_same_thread=False)
        quarantine = f"{self.path}.quarantined-{self.rebuilds}"
        for suffix in ("", "-wal", "-shm"):
            try:
                os.replace(self.path + suffix, quarantine + suffix)
            except OSError:
                pass  # that piece is already gone; a fresh one appears below
        connection = sqlite3.connect(self.path, check_same_thread=False)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:  # pragma: no cover - exotic filesystems
            pass
        return connection

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the primary connection and every pooled reader.

        Idempotent: closing twice (or via nested ``with`` blocks) is a
        no-op.  Any later :meth:`execute`/:meth:`sync` raises
        :class:`~repro.errors.BackendClosedError`.
        """
        self.pool.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
