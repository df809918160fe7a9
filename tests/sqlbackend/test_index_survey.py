"""Every access-path index earns its upkeep: SQLite chooses each one somewhere.

An index the planner never reads still costs every registration its
insert upkeep.  This survey runs ``EXPLAIN QUERY PLAN`` on the SQL both
SQLite engines execute (``sql``: the ordered join-graph block;
``sql-stacked``: the WITH-chain) over XMark Q1-Q20 and the 300-query
generated slice (seed 0), and requires every
:data:`~repro.sqlbackend.schema.ACCESS_PATH_INDEXES` entry in some plan.
"""

import re

from repro.core.session import Session
from repro.core.stages import sql_backend_sql
from repro.sqlbackend import ACCESS_PATH_INDEXES
from repro.sqlbackend.backend import MAX_JOIN_TABLES
from repro.testing.corpus import XMARK_SUITE
from repro.testing.queries import DIFFERENTIAL_XML, QueryGenerator
from repro.xmldb.generators.xmark import generate_xmark_document
from tests.integration.test_xmark_suite import DATASET

GENERATED_SEED = 0
GENERATED_CASES = 300


def chosen_indexes(session, sources) -> set[str]:
    """Names of the indexes SQLite's plans read for ``sources`` on both engines."""
    processor = session.processor
    context = processor.context
    backend = context.sql_backend_supplier()
    backend.sync(context.encoding)
    chosen = set()
    for source in sources:
        compilation = processor.compile(source)
        texts = [compilation.stacked_sql]
        graph = compilation.join_graph
        if graph is not None and graph.self_join_width <= MAX_JOIN_TABLES:
            texts.append(sql_backend_sql(compilation, context))
        for text in texts:
            for line in backend.query_plan(text):
                chosen.update(re.findall(r"\bdoc_idx_\w+", line))
    return chosen


def test_every_access_path_index_is_chosen_by_some_plan():
    xmark = Session(default_document="auction.xml")
    xmark.register_document(generate_xmark_document(DATASET))
    generated = Session()
    generated.register("site.xml", DIFFERENTIAL_XML)
    generator = QueryGenerator(GENERATED_SEED)
    chosen = chosen_indexes(
        xmark, [case.xquery for case in XMARK_SUITE if case.refusal is None]
    ) | chosen_indexes(
        generated, [generator.case(i).source for i in range(GENERATED_CASES)]
    )
    declared = {f"doc_idx_{suffix}" for suffix, _keys in ACCESS_PATH_INDEXES}
    assert declared - chosen == set()
