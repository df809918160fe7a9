"""End-to-end XQuery processing pipeline.

:class:`XQueryProcessor` ties all the pieces together, mirroring the setup
of the paper's evaluation:

1. parse + normalize + loop-lift an XQuery expression into the stacked plan
   (Fig. 4),
2. run join graph isolation (Section III) to obtain the isolated plan
   (Fig. 7) and the SQL join graph (Fig. 8 / Fig. 9),
3. execute either
   * the **stacked** plan with the algebra interpreter (the configuration the
     paper labels "stacked" in Table IX), or
   * the **join graph** through the relational back-end with its B-tree
     indexes and cost-based planner (the "join graph" configuration), or
   * the **SQL** renderings on a real RDBMS — SQLite via
     :mod:`repro.sqlbackend` (``configuration="sql"`` runs the isolated
     SFW block of Fig. 8/9, ``"sql-stacked"`` the stacked ``WITH``-chain
     that Section IV measures against it).

Both executions return the result node sequence as ``pre`` ranks, which can
be serialized back to XML text via :mod:`repro.xmldb.serializer`.

The flow itself lives in :mod:`repro.core.stages` as explicit, immutable
stage objects: the processor assembles a :class:`CompilationPipeline` and a
frozen :class:`~repro.core.stages.ExecutionContext` at construction time.
Construction is O(1): it captures *how many* rows of the encoding the
processor stands for, and the engine state derived from those rows (``doc``
table, database, B+-trees) is write-once lazy — built by the first engine
that reads it.  Everything that changes after construction (those lazy
members, the :class:`PlanCache` and its source-text memo) is lock-protected,
so one processor can serve many threads (see :mod:`repro.service`).

Compilation is amortized through a keyed :class:`PlanCache`, and queries
that declare ``declare variable $x external;`` compile once into
parameter-carrying plans that re-execute with fresh ``bindings`` via
:class:`PreparedQuery` — without re-running the parser, the loop-lifting
compiler, join graph isolation, or join-graph extraction.

Example:

>>> from repro.xmldb.encoding import encode_document
>>> from repro.xmldb.parser import parse_xml
>>> encoding = encode_document(parse_xml("<a><b>1</b><b>2</b></a>", uri="tiny.xml"))
>>> processor = XQueryProcessor(encoding, default_document="tiny.xml")
>>> processor.execute("//b").items
[2, 4]
>>> prepared = processor.prepare(
...     'declare variable $n as xs:decimal external; //b[. > $n]')
>>> prepared.run({"n": 1}).items
[4]
>>> prepared.run({"n": 0}).items
[2, 4]
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Optional

from repro.lazy import Lazy
from repro.core.rewriter import JoinGraphIsolation
from repro.core.stages import (
    CatalogSnapshot,
    CompilationPipeline,
    CompilationResult,
    ExecutionContext,
    ExecutionOutcome,
    execute_compiled,
    explain_compiled,
)
from repro.algebra.table import Table
from repro.relational.catalog import Database
from repro.relational.engine import RelationalEngine
from repro.sqlbackend.backend import SQLiteBackend
from repro.xmldb.encoding import DocumentEncoding
from repro.xquery.compiler import CompilerSettings

__all__ = [
    "CompilationResult",
    "ExecutionOutcome",
    "PlanCache",
    "PreparedQuery",
    "XQueryProcessor",
]


class PlanCache:
    """A keyed LRU cache for :class:`CompilationResult` objects.

    **Cache key contract.** Entries are keyed on the tuple

    ``(normalized core AST, external declarations, CompilerSettings,
    isolation configuration)``

    — everything that determines the compiled plans and their binding
    interface.  Consequences:

    * source texts that differ only in whitespace / comments / syntactic
      sugar share one entry (they normalize to the same core AST);
    * a per-call ``isolation`` override gets its *own* entry instead of
      bypassing the cache (the historical behaviour), so ablation runs and
      default runs never cross-contaminate;
    * external-variable *bindings* are deliberately **not** part of the key:
      plans carry parameter slots, so one cached entry serves every binding;
    * document *content* is not part of the key either — plans only
      reference the ``doc`` table and document URIs, so a cache may outlive
      re-registration of documents (the :class:`~repro.core.session.Session`
      facade relies on this).

    **Raw-source memo.** The cache also owns the source-text side-map
    (raw ``(source, settings, isolation)`` memo key → plan cache key) that
    lets byte-identical re-executions skip parse+normalize.  It lives
    *inside* the cache so that source entries are evicted in lockstep with
    the plans they point to: the previous per-processor map pruned purely
    by size, so it could retain mappings to evicted plans while dropping
    mappings to live ones — and :meth:`clear` left it populated entirely.

    **Thread safety.** Every operation (lookups, inserts, :meth:`clear`,
    :meth:`stats`) holds one internal lock, so concurrent workers see
    consistent LRU order and counters.  :meth:`clear` resets the counters
    together with the entries *and* the source memo — ``stats()`` never
    mixes the hit/miss history of one cache generation with the size of
    another.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("PlanCache needs a maxsize of at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, CompilationResult]" = OrderedDict()
        #: memo key (raw source + compilation configuration) -> cache key.
        self._key_by_source: "OrderedDict[Hashable, Hashable]" = OrderedDict()
        #: cache key -> memo keys pointing at it (for lockstep eviction).
        self._sources_by_key: dict[Hashable, set[Hashable]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[CompilationResult]:
        """Look up ``key``; a hit refreshes the entry's recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: CompilationResult) -> None:
        """Insert ``key``, evicting the least recently used entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                evicted_key, _entry = self._entries.popitem(last=False)
                self.evictions += 1
                self._drop_sources_of(evicted_key)

    # -- the raw-source memo -------------------------------------------------------

    def key_for_source(self, memo_key: Hashable) -> Optional[Hashable]:
        """The cache key previously recorded for this raw source, if any.

        A hit refreshes the entry's recency, so a hot source replayed among
        many distinct texts is never the one the size bound prunes.
        """
        with self._lock:
            cache_key = self._key_by_source.get(memo_key)
            if cache_key is not None:
                self._key_by_source.move_to_end(memo_key)
            return cache_key

    def remember_source(self, memo_key: Hashable, cache_key: Hashable) -> None:
        """Record ``memo_key`` → ``cache_key``; bounded at 4x the plan LRU.

        A no-op when the cache no longer holds ``cache_key`` (cleared or
        evicted between the caller's ``put`` and this call) — the memo must
        never map a source to a plan the cache cannot produce.
        """
        with self._lock:
            if cache_key not in self._entries:
                return
            previous = self._key_by_source.pop(memo_key, None)
            if previous is not None:
                sources = self._sources_by_key.get(previous)
                if sources is not None:
                    sources.discard(memo_key)
                    if not sources:
                        del self._sources_by_key[previous]
            self._key_by_source[memo_key] = cache_key
            self._sources_by_key.setdefault(cache_key, set()).add(memo_key)
            # Several formatting variants may share one plan; allow slack,
            # evicting the stalest raw-source entries (never the plans).
            while len(self._key_by_source) > 4 * self.maxsize:
                stale_memo, stale_key = self._key_by_source.popitem(last=False)
                sources = self._sources_by_key.get(stale_key)
                if sources is not None:
                    sources.discard(stale_memo)
                    if not sources:
                        del self._sources_by_key[stale_key]

    def _drop_sources_of(self, cache_key: Hashable) -> None:
        """Remove every memo entry pointing at an evicted plan (lock held)."""
        for memo_key in self._sources_by_key.pop(cache_key, ()):
            self._key_by_source.pop(memo_key, None)

    def clear(self) -> None:
        """Drop every entry *and* reset the counters.

        The seed dropped entries but kept ``hits``/``misses``/``evictions``,
        leaving ``stats()`` incoherent (non-zero traffic counters against a
        size that no request ever produced); a cleared cache now reports
        like a fresh one.  The raw-source memo clears with it, so no source
        can resolve to a plan from a previous cache generation.
        """
        with self._lock:
            self._entries.clear()
            self._key_by_source.clear()
            self._sources_by_key.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counters for tests and monitoring (one consistent snapshot)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "source_memo_size": len(self._key_by_source),
            }


def _isolation_key(isolation: Optional[JoinGraphIsolation]) -> tuple:
    """A hashable rendering of an isolation configuration (``None`` = default).

    ``astuple`` keeps the key complete if ``JoinGraphIsolation`` grows new
    configuration fields (all fields are plain scalars).
    """
    return dataclasses.astuple(isolation or JoinGraphIsolation())


class XQueryProcessor:
    """A purely relational XQuery processor over one document encoding.

    The processor owns the execution configurations of the paper's
    Table IX experiment — stacked plan, isolated plan, the interpreted SQL
    join graph, and the join graph on a *real* RDBMS (SQLite, reachable via
    :attr:`sql_backend`) — plus the :class:`PlanCache` that amortizes
    compilation, and it is the factory for :class:`PreparedQuery` handles
    (:meth:`prepare`).

    The processor stands for the rows the encoding held **when it was
    constructed** (a :class:`~repro.core.stages.CatalogSnapshot` of the
    first *n* rows, inside the frozen :attr:`context`); the encoding may
    keep growing behind it.  :attr:`doc_table`, :attr:`database` and
    :attr:`engine` are **write-once lazy**: each is built from those *n*
    rows by the first read, exactly once however many threads read first,
    and never changes afterwards.  Every execution routes through the pure
    :func:`~repro.core.stages.execute_compiled`, so any number of threads
    may compile and execute through one processor concurrently.
    """

    def __init__(
        self,
        encoding: DocumentEncoding,
        default_document: Optional[str] = None,
        with_default_indexes: bool = True,
        plan_cache: Optional[PlanCache] = None,
        sql_backend: Optional[SQLiteBackend] = None,
    ):
        self.encoding = encoding
        self.default_document = default_document or (
            encoding.document_uris()[0] if encoding.document_uris() else None
        )
        self.settings = CompilerSettings(default_document=self.default_document)
        #: Keyed LRU of compilation results (see :class:`PlanCache` for the
        #: key contract).  May be shared between processors serving the same
        #: logical catalog (e.g. across Session refreshes).  It also owns
        #: the raw-source memo (evicted in lockstep with the plans), so the
        #: memo survives processor refreshes and clears with the cache.
        # NB: an empty PlanCache is falsy (it has __len__), so test for None.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: The frozen context the engines of :mod:`repro.core.stages` run
        #: against; workers may hold onto it.  The RDBMS behind
        #: ``configuration="sql"`` is created lazily (first ``sql``/
        #: ``sql-stacked`` use) unless a shared backend (e.g. Session-owned)
        #: was injected.
        self.context = ExecutionContext(
            snapshot=CatalogSnapshot(encoding, with_default_indexes),
            settings=self.settings,
            sql_backend_supplier=Lazy(lambda: sql_backend or SQLiteBackend()).get,
        )

    @property
    def doc_table(self) -> Table:
        """The ``doc`` table of the snapshot's rows (built on first read)."""
        return self.context.doc_table

    @property
    def database(self) -> Database:
        """Table, statistics and index metadata (built on first read)."""
        return self.context.database

    @property
    def engine(self) -> RelationalEngine:
        """The relational back-end over :attr:`database` (built on first read)."""
        return self.context.engine

    @property
    def sql_backend(self) -> SQLiteBackend:
        """The SQLite mirror of :attr:`encoding`, synced on every access.

        The sync is incremental (and a no-op once mirrored), so touching
        this property per execution is cheap; injecting a backend through
        the constructor lets a :class:`~repro.core.session.Session` keep
        one mirror alive across processor refreshes.
        """
        backend = self.context.sql_backend_supplier()
        backend.sync(self.encoding)
        return backend

    # -- compilation -----------------------------------------------------------------

    def pipeline(
        self, isolation: Optional[JoinGraphIsolation] = None
    ) -> CompilationPipeline:
        """The explicit stage pipeline for one isolation configuration."""
        return CompilationPipeline.configure(self.settings, isolation)

    def compile(
        self, source: str, isolation: Optional[JoinGraphIsolation] = None
    ) -> CompilationResult:
        """Parse, normalize, loop-lift and isolate ``source``.

        Results are cached in :attr:`plan_cache` under the normalized core
        AST + compiler settings + isolation configuration; loop lifting,
        isolation and join-graph extraction are amortized across calls.
        Parse/normalize produce the key; for byte-identical source texts a
        memo skips even that.
        """
        compilation, _ = self._compile(source, isolation)
        return compilation

    def _compile(
        self, source: str, isolation: Optional[JoinGraphIsolation] = None
    ) -> tuple[CompilationResult, bool]:
        """:meth:`compile` plus a flag: was the plan built by *this* call?

        Concurrent first compilations of the same query may both build (the
        cache is consulted, not locked across the build) — the last ``put``
        wins and both callers get a correct result; the duplicated work is
        bounded by the number of racing threads.
        """
        isolation_key = _isolation_key(isolation)
        # The compiler settings are part of the memo key: the plan cache may
        # be shared by processors with different settings (e.g. a different
        # default document), and the same source text then compiles to
        # different plans.
        memo_key = (source, self.settings, isolation_key)
        known_key = self.plan_cache.key_for_source(memo_key)
        if known_key is not None:
            cached = self.plan_cache.get(known_key)
            if cached is not None:
                return cached, False
        pipeline = self.pipeline(isolation)
        keyed = pipeline.key(source)
        # The declarations are part of the key: two sources with the same
        # core AST but different prologs (extra/unused or differently-typed
        # externals) have different binding interfaces.
        cache_key = (keyed.core, keyed.module.externals, self.settings, isolation_key)
        if known_key != cache_key:  # not already looked up (and missed) above
            cached = self.plan_cache.get(cache_key)
            if cached is not None:
                self.plan_cache.remember_source(memo_key, cache_key)
                return cached, False
        result = pipeline.build(keyed)
        self.plan_cache.put(cache_key, result)
        # Remember the source only after the put: a memo entry must never
        # point at a key the cache does not (yet) hold, or a concurrent
        # clear() between the two writes could leave a dangling mapping.
        self.plan_cache.remember_source(memo_key, cache_key)
        return result, True

    def prepare(
        self, source: str, isolation: Optional[JoinGraphIsolation] = None
    ) -> "PreparedQuery":
        """Compile once, re-execute many times with fresh bindings.

        The returned :class:`PreparedQuery` holds the compilation result
        directly: :meth:`PreparedQuery.run` goes straight to execution —
        no parsing, compilation, isolation or join-graph extraction.
        """
        compilation = self.compile(source, isolation)
        return PreparedQuery(compilation, lambda: self)

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        source: str,
        timeout_seconds: Optional[float] = None,
        bindings: Optional[Mapping[str, object]] = None,
        configuration: str = "auto",
    ) -> ExecutionOutcome:
        """Execute ``source`` in one Table IX configuration.

        ``configuration`` is ``"auto"`` (join graph when one was isolated,
        else stacked) or the name of one of
        :data:`~repro.core.stages.ENGINES`.
        """
        compilation, fresh = self._compile(source)
        # Seed the timing breakdown with the compile stages only when this
        # very call compiled the plan — a plan-cache hit costs (almost)
        # nothing and must not re-report the original compile time.
        timings = dict(compilation.timings) if fresh else {}
        return execute_compiled(
            compilation, self.context, configuration, timeout_seconds, bindings, timings
        )

    def explain(
        self, source: str, bindings: Optional[Mapping[str, object]] = None
    ) -> str:
        """The relational back-end's execution plan for the query's join graph."""
        return explain_compiled(self.compile(source), self.context, bindings)

    def serialize(self, items: list[int], separator: str = "") -> str:
        """Serialize a result node sequence back to XML text."""
        from repro.xmldb.serializer import serialize_sequence

        return serialize_sequence(self.encoding, items, separator)


@dataclass
class PreparedQuery:
    """A compiled query, re-executable with fresh bindings.

    ``run`` goes straight from the cached plans to execution: per call only
    binding validation, parameter substitution and — on the relational
    path — physical planning happen,
    which is what makes prepared re-execution cheap and lets the planner
    pick value-aware access paths per binding.

    The processor is obtained through ``processor_supplier`` at each
    execution, so handles created by a :class:`~repro.core.session.Session`
    keep working (and see newly registered documents) after the session
    refreshes its processor.
    """

    compilation: CompilationResult
    processor_supplier: Callable[[], XQueryProcessor] = field(repr=False)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Names of the external variables that must be bound to run."""
        return self.compilation.parameter_names

    @property
    def join_graph_sql(self) -> Optional[str]:
        """The Fig. 8 / Fig. 9 SFW rendering (with ``:name`` parameter markers)."""
        return self.compilation.join_graph_sql

    def run(
        self,
        bindings: Optional[Mapping[str, object]] = None,
        engine: str = "auto",
        timeout_seconds: Optional[float] = None,
    ) -> ExecutionOutcome:
        """Execute with ``bindings``; ``engine`` picks the configuration.

        ``"auto"`` uses the join graph when one was isolated (falling back
        to the stacked plan), mirroring ``XQueryProcessor.execute``; the
        name of one of :data:`~repro.core.stages.ENGINES` forces that
        engine.  On the SQL path the
        bindings flow into SQLite's native ``:name`` parameters — the SQL
        text itself is rendered once per compilation, never per run.
        """
        context = self.processor_supplier().context
        return execute_compiled(self.compilation, context, engine, timeout_seconds, bindings)

    def explain(self, bindings: Optional[Mapping[str, object]] = None) -> str:
        """Explain the relational plan the bindings would be executed with."""
        return explain_compiled(self.compilation, self.processor_supplier().context, bindings)
