"""Reproduction of *XQuery Join Graph Isolation* (Grust, Mayr, Rittinger, ICDE 2009).

The package is organised as follows:

``repro.xmldb``
    XML substrate: parser, infoset model, the ``pre|size|level|kind|name|value|data``
    document encoding of Section II-A, XPath axis semantics, and synthetic
    XMark / DBLP document generators.

``repro.algebra``
    The table algebra of Table I (logical operators, plan DAGs, a reference
    interpreter that evaluates any plan over in-memory tables, and plan
    rendering).

``repro.xquery``
    XQuery front-end for the fragment of Fig. 1 (lexer, parser, XQuery Core
    normalization, and the loop-lifting compiler of Fig. 13).

``repro.core``
    The paper's contribution: plan property inference (Tables II-V), the
    rewrite rules (1)-(17) of Fig. 5, the goal-directed join graph isolation
    rewriter, join-graph extraction, SQL emission, and the end-to-end
    pipeline.

``repro.relational``
    The relational back-end standing in for IBM DB2 V9: tables, B-tree
    indexes, statistics, a SQL parser, a cost-based optimizer with access
    path selection and join ordering, physical operators, an index advisor,
    and a query engine facade.

``repro.purexml``
    The navigational baseline standing in for DB2 pureXML: XML column
    storage (whole / segmented), XMLPATTERN value indexes, and a
    TurboXPath-style XISCAN/XSCAN evaluator.

``repro.sqlbackend``
    The *real* RDBMS backend: the Fig. 2 encoding mirrored into SQLite,
    the paper's access-path indexes, and execution of both emitted SQL
    renderings (isolated SFW block vs stacked WITH-chain) with named
    parameter binding — ``configuration="sql"`` end to end.

``repro.service``
    The concurrent serving layer: ``QueryService`` runs queries from many
    threads over one shared ``Session`` — worker pool, admission control,
    per-query budgets, batched ``execute_many``, per-engine metrics, and
    opt-in resilience (retry with backoff, per-engine circuit breakers,
    and engine-fallback degradation down the equivalence chain).

``repro.testing``
    What the test suites share: deterministic fault injection (named fault
    points in the SQLite backend and connection pool, scripted or
    seeded-random fault plans), the seeded generator of fragment-conformant
    queries behind the differential sweeps, and the two query corpora — the
    paper's Q1-Q6 and the adapted XMark Q1-Q20 suite.
"""

from repro.core.pipeline import (
    CompilationResult,
    PlanCache,
    PreparedQuery,
    XQueryProcessor,
)
from repro.core.session import DocumentStore, Session
from repro.service import (
    BreakerPolicy,
    FallbackPolicy,
    QueryRequest,
    QueryService,
    RetryPolicy,
)
from repro.sqlbackend.backend import SQLiteBackend

__all__ = [
    "XQueryProcessor",
    "CompilationResult",
    "PlanCache",
    "PreparedQuery",
    "QueryRequest",
    "QueryService",
    "RetryPolicy",
    "BreakerPolicy",
    "FallbackPolicy",
    "Session",
    "DocumentStore",
    "SQLiteBackend",
    "__version__",
]

__version__ = "0.4.0"
