"""Query-service facade: multi-document sessions and prepared queries.

The paper evaluates one encoded document at a time; a production service
instead keeps a *catalog* of documents and amortizes compilation over
repeated traffic.  This module provides that layer:

* :class:`DocumentStore` — a named-document catalog over one shared
  ``pre|size|level|...`` encoding (``doc("uri")`` resolves against it), with
  the original trees retained for the navigational (pureXML) configuration;
* :class:`Session` — the service entry point: register documents, run
  ad-hoc queries, and :meth:`~Session.prepare` parameterized queries whose
  compiled plans live in a shared :class:`~repro.core.pipeline.PlanCache`.

The plan cache survives document registration (compiled plans reference the
``doc`` table and document URIs, never document content), so a long-running
session keeps its compiled queries while its catalog grows.

Example:

>>> session = Session()
>>> session.register("books.xml", "<books><book>A</book><book>B</book></books>")
0
>>> session.register("tiny.xml", "<a><b>1</b><b>2</b></a>")
6
>>> session.execute('doc("books.xml")/child::books/child::book').node_count
2
>>> prepared = session.prepare(
...     'declare variable $n as xs:decimal external; doc("tiny.xml")/descendant::b[. > $n]')
>>> prepared.run({"n": 1}).node_count
1
>>> sorted(session.document_uris())
['books.xml', 'tiny.xml']
"""

from __future__ import annotations

import threading
from typing import Mapping, Optional

from repro.errors import CatalogError
from repro.core.pipeline import (
    ExecutionOutcome,
    PlanCache,
    PreparedQuery,
    XQueryProcessor,
)
from repro.core.rewriter import JoinGraphIsolation
from repro.purexml.engine import PureXMLEngine
from repro.sqlbackend.backend import SQLiteBackend
from repro.purexml.storage import XMLColumnStore
from repro.xmldb.encoding import DocumentEncoding
from repro.xmldb.infoset import NodeKind, XMLNode
from repro.xmldb.parser import parse_xml


class DocumentStore:
    """A catalog of named documents sharing one ``doc`` encoding.

    The encoding is append-only (``pre`` ranks of already-registered
    documents never change), which is what lets sessions keep compiled
    plans and previously returned ``pre`` ranks valid as the catalog grows.

    Thread-safe: registrations serialize behind :attr:`lock` (a write
    lock), and :attr:`version` is only ever bumped *after* the encoding
    append completed.  A session publishing a processor for version ``v``
    takes the same lock just long enough to read ``v`` together with the
    row count ``n = len(encoding)`` — an O(1) snapshot.  Derived state
    (doc table, database, indexes) is built later, lazily and *without*
    this lock, from the first ``n`` rows: the encoding is append-only, so
    those rows never change and a registration running beside a build can
    neither tear it nor leak newer rows into it.
    """

    def __init__(self) -> None:
        self.encoding = DocumentEncoding()
        self._documents: dict[str, XMLNode] = {}
        #: Serializes registration and the (version, row count) snapshot.
        self.lock = threading.RLock()
        #: Bumped on every registration; sessions publish a new processor
        #: (an O(1) snapshot — derived state is lazy) when it moves.
        self.version = 0

    # -- registration ----------------------------------------------------------

    def register_xml(self, uri: str, xml_text: str) -> int:
        """Parse ``xml_text`` and register it under ``uri``.

        Returns the ``pre`` rank of the new document's DOC row.
        """
        return self.register_document(parse_xml(xml_text, uri=uri))

    def register_document(self, doc: XMLNode) -> int:
        """Register an already-parsed document tree (a DOC node with a URI)."""
        if doc.kind is not NodeKind.DOC:
            raise CatalogError("register_document expects a document node")
        uri = doc.name
        if not uri:
            raise CatalogError("documents need a URI (the DOC node's name)")
        with self.lock:
            if uri in self._documents:
                raise CatalogError(f"document {uri!r} is already registered")
            root = self.encoding.append_document(doc)
            self._documents[uri] = doc
            self.version += 1
            return root

    # -- lookups ---------------------------------------------------------------

    def document(self, uri: str) -> XMLNode:
        """The original tree of a registered document (used by pureXML)."""
        with self.lock:
            try:
                return self._documents[uri]
            except KeyError:
                raise CatalogError(f"unknown document {uri!r}") from None

    def document_uris(self) -> list[str]:
        with self.lock:
            return list(self._documents)

    def __len__(self) -> int:
        with self.lock:
            return len(self._documents)

    def __contains__(self, uri: str) -> bool:
        with self.lock:
            return uri in self._documents

    def column_store(self, uri: str, segmented: bool = False) -> XMLColumnStore:
        """An XML column store over one document (the pureXML substrate)."""
        doc = self.document(uri)
        if segmented:
            return XMLColumnStore.from_segments(doc)
        return XMLColumnStore.whole(doc)


class Session:
    """The query-service entry point: documents in, (prepared) queries out.

    A session wraps a :class:`DocumentStore` and lazily maintains an
    :class:`~repro.core.pipeline.XQueryProcessor` over its current state.
    The :class:`~repro.core.pipeline.PlanCache` is owned by the *session*
    and handed to every new processor, so compiled plans survive document
    registration; :class:`~repro.core.pipeline.PreparedQuery` handles
    resolve the processor at execution time and therefore always run
    against the current catalog.

    Thread-safe: the processor refresh is **copy-on-write** — a new store
    version gets a new processor, swapped in with one atomic assignment, so
    concurrent queries either keep using the previous processor (whose
    snapshot stays valid: the encoding is append-only) or see the new one.
    Publishing costs O(1) whatever the catalog size: the processor only
    captures, under the store's registration lock, the version and the
    number of rows it stands for.  Its derived state is **write-once
    lazy** — the doc table, the database and each B+-tree are built from
    that snapshot of *n* rows by the first engine that reads them, exactly
    once under concurrent first use, so a ``sql``-only session never
    builds any of it and registration costs O(new document).  The plan
    cache and the SQLite mirror are shared across versions and are
    themselves thread-safe.
    """

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        default_document: Optional[str] = None,
        with_default_indexes: bool = True,
        add_serialization_step: bool = False,
        plan_cache_size: int = 128,
        sql_backend: Optional[SQLiteBackend] = None,
        columnar_execution: bool = True,
    ):
        self.store = store or DocumentStore()
        self.default_document = default_document
        self.with_default_indexes = with_default_indexes
        self.add_serialization_step = add_serialization_step
        self.columnar_execution = columnar_execution
        self.plan_cache = PlanCache(plan_cache_size)
        #: The session-owned SQLite mirror of the catalog.  Handed to every
        #: new processor, so registration only ever *appends* to it
        #: (incremental sync) and ``configuration="sql"`` keeps its loaded
        #: database and statistics across catalog growth — exactly like the
        #: plan cache keeps compiled plans.  Pass a file-backed
        #: :class:`~repro.sqlbackend.backend.SQLiteBackend` to persist the
        #: mirror on disk.
        self.sql_backend = sql_backend or SQLiteBackend()
        #: The current ``(store version, processor)`` pair, swapped
        #: atomically by :attr:`processor` (copy-on-write).
        self._current: Optional[tuple[int, XQueryProcessor]] = None

    # -- documents -------------------------------------------------------------

    def register(self, uri: str, xml_text: str) -> int:
        """Register an XML document under ``uri``; returns its DOC ``pre`` rank."""
        return self.store.register_xml(uri, xml_text)

    def register_document(self, doc: XMLNode) -> int:
        """Register an already-parsed document tree."""
        return self.store.register_document(doc)

    def document_uris(self) -> list[str]:
        return self.store.document_uris()

    # -- the current processor ---------------------------------------------------

    @property
    def processor(self) -> XQueryProcessor:
        """The processor over the store's *current* state (lazily refreshed).

        Fast path: one attribute read + version compare, no locks.  On a
        version change a new processor is published under the store lock
        (double-checked, so racing threads publish one) with an atomic
        tuple swap.  That is O(1): the processor captures the version's row
        count, and builds its doc table / database / indexes only when an
        engine first reads them.
        """
        current = self._current
        if current is not None and current[0] == self.store.version:
            return current[1]
        with self.store.lock:
            version = self.store.version
            current = self._current
            if current is not None and current[0] == version:
                return current[1]
            if not len(self.store):
                raise CatalogError("the session has no registered documents yet")
            processor = XQueryProcessor(
                self.store.encoding,
                default_document=self.default_document,
                with_default_indexes=self.with_default_indexes,
                add_serialization_step=self.add_serialization_step,
                plan_cache=self.plan_cache,
                sql_backend=self.sql_backend,
                columnar_execution=self.columnar_execution,
            )
            self._current = (version, processor)
            return processor

    # -- queries -----------------------------------------------------------------

    def prepare(
        self, source: str, isolation: Optional[JoinGraphIsolation] = None
    ) -> PreparedQuery:
        """Compile ``source`` once (through the shared plan cache).

        The handle stays valid across later document registrations: it
        re-resolves the session's processor on every
        :meth:`~repro.core.pipeline.PreparedQuery.run`.
        """
        compilation = self.processor.compile(source, isolation)
        return PreparedQuery(compilation, lambda: self.processor)

    def execute(
        self,
        source: str,
        bindings: Optional[Mapping[str, object]] = None,
        timeout_seconds: Optional[float] = None,
        configuration: str = "auto",
    ) -> ExecutionOutcome:
        """Execute ad-hoc; ``configuration`` picks the engine (default auto).

        ``"sql"`` routes through the session's SQLite mirror (the catalog
        is synced incrementally before execution).
        """
        return self.processor.execute(
            source,
            timeout_seconds=timeout_seconds,
            bindings=bindings,
            configuration=configuration,
        )

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the session's shared plan cache.

        The counters span processor refreshes (the cache is session-owned),
        so benchmarks and tests can assert that document registration does
        not invalidate compiled plans — for any backend configuration.
        """
        return self.plan_cache.stats()

    def mirror_health(self) -> dict[str, object]:
        """Health report of the session's SQLite mirror (self-healing facade).

        Runs :meth:`~repro.sqlbackend.backend.SQLiteBackend.verify_integrity`
        — ``PRAGMA integrity_check`` plus a row-for-row prefix comparison
        against the canonical in-memory encoding — and reports how many
        times the mirror has been quarantined and rebuilt from that
        canonical store.  Call :meth:`heal_mirror` to repair an unhealthy
        mirror in place.
        """
        return {
            "healthy": self.sql_backend.verify_integrity(),
            "rebuilds": self.sql_backend.rebuilds,
            "loaded_rows": self.sql_backend.loaded_rows,
        }

    def heal_mirror(self) -> bool:
        """Verify the SQLite mirror and rebuild it if corrupted.

        Returns True when a rebuild happened (the old image is quarantined
        and every pooled reader transparently re-clones), False when the
        mirror was already healthy.
        """
        return self.sql_backend.heal()

    def explain(
        self, source: str, bindings: Optional[Mapping[str, object]] = None
    ) -> str:
        """DB2-style explain of the relational plan for ``source``."""
        return self.processor.explain(source, bindings=bindings)

    def serialize(self, items: list[int], separator: str = "") -> str:
        """Serialize result ``pre`` ranks back to XML text."""
        return self.processor.serialize(items, separator)

    # -- the navigational configuration -------------------------------------------

    def purexml_engine(self, uri: str, segmented: bool = False) -> PureXMLEngine:
        """A pureXML engine over one registered document.

        Prepared pureXML queries (``engine.prepare(...)``) bind external
        variables into the surface AST per run, exactly like the relational
        configurations bind parameter slots.
        """
        return PureXMLEngine(self.store.column_store(uri, segmented=segmented))
