"""Session / DocumentStore: multi-document catalogs and prepared queries."""

import re
import time

import pytest

from repro.errors import CatalogError, XQueryBindingError
from repro.core.session import DocumentStore, Session
from repro.xmldb.parser import parse_xml

BOOKS = "<books><book><title>AA</title></book><book><title>BB</title></book></books>"
AUCTION = (
    "<site><open_auction><initial>15</initial></open_auction>"
    "<open_auction><initial>7</initial></open_auction></site>"
)


@pytest.fixture()
def session():
    s = Session()
    s.register("books.xml", BOOKS)
    s.register("auction.xml", AUCTION)
    return s


# -- DocumentStore ----------------------------------------------------------------


def test_store_registers_multiple_documents():
    store = DocumentStore()
    first = store.register_xml("a.xml", "<a/>")
    second = store.register_xml("b.xml", "<b><c/></b>")
    assert first == 0 and second > first
    assert set(store.document_uris()) == {"a.xml", "b.xml"}
    assert "a.xml" in store and len(store) == 2
    # pre ranks continue across documents; both DOC rows are resolvable.
    assert store.encoding.document_root("a.xml") == first
    assert store.encoding.document_root("b.xml") == second


def test_store_rejects_duplicates_and_anonymous_documents():
    store = DocumentStore()
    store.register_xml("a.xml", "<a/>")
    with pytest.raises(CatalogError, match="already registered"):
        store.register_xml("a.xml", "<a/>")
    with pytest.raises(CatalogError, match="document node"):
        doc = parse_xml("<a/>", uri="x.xml")
        store.register_document(doc.children[0])


# -- query routing ------------------------------------------------------------------


def test_doc_function_targets_the_named_document(session):
    books = session.execute('doc("books.xml")/descendant::title')
    auctions = session.execute('doc("auction.xml")/descendant::initial')
    assert books.node_count == 2
    assert auctions.node_count == 2
    # Serialization proves the items belong to the right documents.
    assert "<title>" in session.serialize(sorted(books.items))
    assert "<initial>" in session.serialize(sorted(auctions.items))


def test_session_without_documents_refuses_queries():
    with pytest.raises(CatalogError, match="no registered documents"):
        Session().execute("//a")


# -- prepared queries across catalog growth ------------------------------------------


def test_prepared_query_survives_document_registration(session):
    prepared = session.prepare(
        "declare variable $lo as xs:decimal external; "
        'doc("auction.xml")/descendant::initial[. > $lo]'
    )
    before = prepared.run({"lo": 10}).items
    assert len(before) == 1
    # Growing the catalog must not invalidate the handle, the cached plan,
    # or the pre ranks of already-registered documents (append-only).
    session.register("more.xml", "<more><initial>99</initial></more>")
    misses = session.plan_cache.stats()["misses"]
    after = prepared.run({"lo": 10}).items
    assert after == before
    assert session.plan_cache.stats()["misses"] == misses
    # And the new document is immediately queryable.
    assert session.execute('doc("more.xml")/descendant::initial').node_count == 1


def test_plan_cache_is_shared_across_processor_refreshes(session):
    query = 'doc("books.xml")/descendant::title'
    session.execute(query)
    misses = session.plan_cache.stats()["misses"]
    session.register("extra.xml", "<x/>")
    session.execute(query)  # processor rebuilt, compilation reused
    stats = session.plan_cache.stats()
    assert stats["misses"] == misses
    assert stats["hits"] >= 1


def test_prepared_binding_validation(session):
    prepared = session.prepare(
        "declare variable $lo as xs:decimal external; "
        'doc("auction.xml")/descendant::initial[. > $lo]'
    )
    with pytest.raises(XQueryBindingError, match="missing binding"):
        prepared.run()
    with pytest.raises(XQueryBindingError, match="undeclared"):
        prepared.run({"lo": 1, "hi": 2})
    with pytest.raises(XQueryBindingError, match="xs:decimal"):
        prepared.run({"lo": "cheap"})


def test_engine_passed_positionally_is_a_binding_error_via_execute(session):
    """Regression: ``execute(query, "sql")`` lands the engine in ``bindings``
    and used to surface a raw ``ValueError`` from ``dict("sql")``."""
    with pytest.raises(XQueryBindingError, match=r"got str 'sql'.*configuration="):
        session.execute('doc("auction.xml")/descendant::initial', "sql")


def test_engine_passed_positionally_is_a_binding_error_via_prepared_run(session):
    prepared = session.prepare('doc("auction.xml")/descendant::initial')
    with pytest.raises(XQueryBindingError, match=r"got str 'sql'.*configuration="):
        prepared.run("sql")
    with pytest.raises(XQueryBindingError, match="must be a mapping"):
        prepared.run([("lo", 1)])


def test_prepared_explain_requires_bindings(session):
    from repro.errors import PlanningError

    prepared = session.prepare(
        "declare variable $lo as xs:decimal external; "
        'doc("auction.xml")/descendant::initial[. > $lo]'
    )
    assert prepared.join_graph_sql is not None
    assert ":lo" in prepared.join_graph_sql  # unbound marker in the SQL text
    assert "RETURN" in prepared.explain({"lo": 10})
    # The raw (unbound) graph refuses to plan: slots must be bound first.
    with pytest.raises(PlanningError, match=":lo"):
        session.processor.engine.plan(prepared.compilation.join_graph)


def test_purexml_engine_over_store(session):
    engine = session.purexml_engine("books.xml")
    prepared = engine.prepare(
        "declare variable $t external; "
        'doc("books.xml")/descendant::title[. = $t]'
    )
    assert [n.string_value() for n in prepared.run({"t": "BB"}).nodes] == ["BB"]
    assert prepared.run({"t": "nope"}).node_count == 0


# -- write-once lazy derived state ----------------------------------------------------

PRICED = (
    "<site>"
    + "".join(
        f"<closed_auction><price>{price}</price><buyer person='p{price}'/></closed_auction>"
        for price in range(40)
    )
    + "</site>"
)
PARAMETERISED = (
    "declare variable $lo as xs:decimal external; "
    'doc("{uri}")/descendant::closed_auction[child::price > $lo]'
)
LITERAL = 'doc("{uri}")/descendant::closed_auction[child::price > 30]'


@pytest.fixture()
def builds(monkeypatch):
    """Count what derived state gets built: doc tables, databases, B+-trees, Tables."""
    from repro.algebra.table import Table
    from repro.core import stages
    from repro.relational.btree import BPlusTree

    counts = {"doc_table": 0, "database": 0, "trees": 0, "tables": 0}

    def counting(key, wrapped):
        def spy(*args, **kwargs):
            counts[key] += 1
            return wrapped(*args, **kwargs)

        return spy

    monkeypatch.setattr(stages, "Table", counting("doc_table", stages.Table))
    monkeypatch.setattr(stages, "Database", counting("database", stages.Database))
    monkeypatch.setattr(BPlusTree, "__init__", counting("trees", BPlusTree.__init__))
    monkeypatch.setattr(Table, "__init__", counting("tables", Table.__init__))
    return counts


def _planned_indexes(session, query):
    """Names of the indexes the relational plan for ``query`` probes."""
    return set(re.findall(r"index=(\w+)", session.explain(query)))


@pytest.mark.parametrize(
    "engine,parameterised,doc_table,database,probes",
    [
        ("sql", True, 0, 0, False),
        ("sql", False, 1, 1, False),  # pins its join order from statistics only
        ("sql-stacked", False, 0, 0, False),
        ("stacked", False, 1, 0, False),
        ("isolated", False, 1, 0, False),
        ("join-graph", False, 1, 1, True),
        ("auto", False, 1, 1, True),
        ("explain", False, 1, 1, False),
    ],
)
def test_materialisation_matrix(builds, engine, parameterised, doc_table, database, probes):
    """Each engine builds the derived state it reads — once — and nothing else.

    The database hosts the snapshot's ``doc`` table, so building it builds
    that table (once, shared with the plan interpreters).
    """
    session = Session()
    session.register("d.xml", PRICED)
    trees = len(_planned_indexes(session, LITERAL.format(uri="d.xml"))) if probes else 0
    if probes:  # some index is probed, and some index never is
        assert 0 < trees < len(session.processor.database.indexes)
    session.register("pad.xml", "<pad/>")  # a fresh version: nothing is built yet
    builds.update(dict.fromkeys(builds, 0))

    def call():
        if engine == "explain":
            return session.explain(LITERAL.format(uri="d.xml"))
        if parameterised:
            return session.execute(
                PARAMETERISED.format(uri="d.xml"), bindings={"lo": 30}, configuration=engine
            )
        return session.execute(LITERAL.format(uri="d.xml"), configuration=engine)

    first = call()
    assert (builds["doc_table"], builds["database"], builds["trees"]) == (
        doc_table, database, trees
    )
    second = call()
    assert (builds["doc_table"], builds["database"], builds["trees"]) == (
        doc_table, database, trees
    ), "derived state is write-once per version"
    if engine != "explain":
        assert first.items == second.items and first.node_count == 9
        # The building call — and only it — reports what the build cost.
        assert ("rebuild" in first.timings) == bool(doc_table or database)
        assert "rebuild" not in second.timings


def test_sql_only_session_builds_no_tables_and_no_trees(builds):
    """Registration beside prepared ``sql`` reads costs O(new document)."""
    session = Session()
    session.register("d0.xml", PRICED)
    prepared = session.prepare(PARAMETERISED.format(uri="d0.xml"))
    expected = prepared.run({"lo": 30}, engine="sql").items
    for index in range(1, 9):
        session.register(f"d{index}.xml", PRICED)
        assert prepared.run({"lo": 30}, engine="sql").items == expected
    assert builds == {"doc_table": 0, "database": 0, "trees": 0, "tables": 0}


def test_rebuild_time_is_counted_once():
    """``rebuild`` is carved out of the stage it happened in, not added on top."""
    session = Session()
    session.register("d.xml", PRICED.replace("</site>", "<pad/>" * 4000 + "</site>"))
    compilation = session.processor.compile(LITERAL.format(uri="d.xml"))
    started = time.perf_counter()
    outcome = session.execute(LITERAL.format(uri="d.xml"), configuration="join-graph")
    wall = time.perf_counter() - started
    assert compilation.join_graph is not None
    assert outcome.timings["rebuild"] > outcome.timings["execute"]
    assert outcome.elapsed_seconds <= wall


def test_catalog_key_is_stable_across_later_registrations(session):
    """Regression: the key read the *live* encoding length, so a context
    changed its own key (and re-rendered its SQL) when the catalog grew."""
    context = session.processor.context
    key = context.catalog_key()
    session.register("more.xml", "<more/>")
    assert context.catalog_key() == key
    assert session.processor.context.catalog_key() != key
    assert len(context.doc_table) == context.snapshot.row_count < len(session.store.encoding)
