"""Differential tests for ``configuration="sql"``: SQLite vs the interpreters.

The SQL backend must be *bit-for-bit* interchangeable with the in-tree
engines: the isolated SFW block on SQLite returns exactly the interpreted
join-graph sequence, the stacked WITH-chain on SQLite returns exactly the
stacked interpreter's sequence — across the XMark and DBLP workloads, and
for prepared queries under rebinding.
"""

import pytest

from repro.errors import JoinGraphError
from repro.core import stages
from repro.testing.corpus import WORKLOAD, query_by_name
from repro.core.session import Session

JOIN_GRAPH_QUERIES = ["Q1", "Q3", "Q4", "Q5", "Q6"]
ALL_QUERIES = [query.name for query in WORKLOAD]


def _processor_for(query, xmark_processor, dblp_processor):
    return xmark_processor if query.dataset == "xmark" else dblp_processor


@pytest.mark.parametrize("name", JOIN_GRAPH_QUERIES)
def test_sql_matches_interpreted_join_graph_exactly(name, xmark_processor, dblp_processor):
    query = query_by_name(name)
    processor = _processor_for(query, xmark_processor, dblp_processor)
    sql = processor.execute(query.xquery, timeout_seconds=120, configuration="sql")
    interpreted = processor.execute(query.xquery, timeout_seconds=120, configuration="join-graph")
    assert sql.configuration == "sql"
    assert sql.items == interpreted.items


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_sql_stacked_matches_interpreted_stacked_exactly(
    name, xmark_processor, dblp_processor
):
    query = query_by_name(name)
    processor = _processor_for(query, xmark_processor, dblp_processor)
    sql = processor.execute(query.xquery, timeout_seconds=240, configuration="sql-stacked")
    interpreted = processor.execute(query.xquery, timeout_seconds=240, configuration="stacked")
    assert sql.configuration == "sql-stacked"
    assert sql.items == interpreted.items


@pytest.mark.parametrize("name", JOIN_GRAPH_QUERIES)
def test_sql_agrees_with_stacked_on_node_sets(name, xmark_processor, dblp_processor):
    query = query_by_name(name)
    processor = _processor_for(query, xmark_processor, dblp_processor)
    sql = processor.execute(query.xquery, timeout_seconds=120, configuration="sql")
    stacked = processor.execute(query.xquery, timeout_seconds=240, configuration="stacked")
    isolated = processor.execute(query.xquery, timeout_seconds=240, configuration="isolated")
    assert set(sql.items) == set(stacked.items) == set(isolated.items)


def test_unknown_configuration_is_rejected(small_processor):
    with pytest.raises(ValueError):
        small_processor.execute("//b", configuration="")
    with pytest.raises(ValueError):
        small_processor.execute("//b", configuration="sqlite")
    prepared = small_processor.prepare("//b")
    with pytest.raises(ValueError):
        prepared.run(engine="")


def test_q2_value_join_isolates_and_runs_on_sql(xmark_processor):
    # The multi-conjunct key-join collapse reduces Q2 (value joins over
    # itemref/@item and incategory/@category) to one pure join graph; it
    # executes on SQLite bit-for-bit like the interpreted configurations.
    query = query_by_name("Q2")
    compilation = xmark_processor.compile(query.xquery)
    assert compilation.join_graph is not None
    via_sql = xmark_processor.execute(query.xquery, configuration="sql")
    stacked = xmark_processor.execute(query.xquery, configuration="stacked")
    assert via_sql.items == stacked.items


def test_positional_predicate_isolates_and_runs_on_sql(xmark_processor):
    # A positional predicate filters on a rank column; the windowed-rank
    # extraction renders it as a DENSE_RANK derived table inside the single
    # SFW block, bit-for-bit with the interpreted configurations.
    query = 'doc("auction.xml")/descendant::open_auction[2]/child::bidder'
    compilation = xmark_processor.compile(query)
    assert compilation.join_graph is not None
    assert len(compilation.join_graph.windows) == 1
    via_sql = xmark_processor.execute(query, configuration="sql")
    stacked = xmark_processor.execute(query, configuration="stacked")
    assert via_sql.items == stacked.items


def test_sql_requires_a_join_graph(xmark_processor):
    # A windowed rank condition combined with an aggregate-valued result
    # still exceeds the single-SFW fragment — the sql configuration must
    # refuse, not guess.
    query = (
        'for $a in doc("auction.xml")/descendant::open_auction[2] '
        "return fn:count($a/child::bidder)"
    )
    compilation = xmark_processor.compile(query)
    assert compilation.join_graph is None
    with pytest.raises(JoinGraphError):
        xmark_processor.execute(query, configuration="sql")


def test_sql_results_serialize(small_processor):
    outcome = small_processor.execute(
        'doc("auction.xml")/descendant::bidder/child::time', configuration="sql"
    )
    xml = small_processor.serialize(sorted(set(outcome.items)))
    assert xml.count("<time>") == 3


# -- prepared queries ---------------------------------------------------------------

PREPARED = (
    "declare variable $lo as xs:decimal external; "
    'doc("auction.xml")/descendant::open_auction[child::initial > $lo]'
)
AD_HOC = 'doc("auction.xml")/descendant::open_auction[child::initial > {value}]'


def test_prepared_sql_rebinds_through_named_parameters(xmark_processor):
    prepared = xmark_processor.prepare(PREPARED)
    sweep = [0, 5, 50, 500]
    for value in sweep:
        via_sql = prepared.run({"lo": value}, engine="sql")
        ad_hoc = xmark_processor.execute(AD_HOC.format(value=value), configuration="sql")
        interpreted = prepared.run({"lo": value}, engine="join-graph")
        assert via_sql.items == ad_hoc.items == interpreted.items
    # The sweep must actually discriminate, otherwise the test proves nothing.
    assert len({tuple(prepared.run({"lo": v}, engine="sql").items) for v in sweep}) > 1


def test_prepared_sql_renders_once(xmark_processor):
    prepared = xmark_processor.prepare(PREPARED)
    first = prepared.run({"lo": 1}, engine="sql")
    second = prepared.run({"lo": 99}, engine="sql")
    # Both runs executed the same SQL text (named :lo markers, no re-render)...
    assert first.details.sql is second.details.sql
    assert ":lo" in first.details.sql
    # ... with different bound values.
    assert first.details.bindings != second.details.bindings


def test_prepared_sql_can_be_explained_without_bindings(xmark_processor):
    prepared = xmark_processor.prepare(PREPARED)
    sql = prepared.run({"lo": 1}, engine="sql").details.sql
    plan = xmark_processor.sql_backend.query_plan(sql)  # :lo stays unbound
    assert any("doc" in line for line in plan), plan


def test_prepared_sql_stacked_rebinds(xmark_processor):
    prepared = xmark_processor.prepare(PREPARED)
    for value in (0, 30):
        via_sql = prepared.run({"lo": value}, engine="sql-stacked")
        interpreted = prepared.run({"lo": value}, engine="stacked")
        assert via_sql.items == interpreted.items


# -- session integration ------------------------------------------------------------


def test_session_mirrors_catalog_incrementally():
    session = Session()
    session.register("books.xml", "<books><book>A</book><book>B</book></books>")
    first = session.execute(
        'doc("books.xml")/child::books/child::book', configuration="sql"
    )
    assert first.node_count == 2
    loaded_before = session.sql_backend.loaded_rows
    session.register("tiny.xml", "<a><b>1</b><b>2</b></a>")
    second = session.execute('doc("tiny.xml")/descendant::b', configuration="sql")
    assert second.node_count == 2
    # Registration appended to the existing mirror rather than reloading it.
    assert session.sql_backend.loaded_rows > loaded_before
    assert session.sql_backend.row_count() == len(session.store.encoding)
    # Earlier results stay valid: pre ranks are append-only.
    assert session.execute(
        'doc("books.xml")/child::books/child::book', configuration="sql"
    ).items == first.items


def test_session_cache_stats_span_backends_and_registrations():
    session = Session()
    session.register("tiny.xml", "<a><b>1</b><b>2</b></a>")
    query = 'doc("tiny.xml")/descendant::b'
    baseline = session.cache_stats()
    session.execute(query, configuration="sql")
    session.execute(query, configuration="join-graph")
    session.execute(query, configuration="sql-stacked")
    stats = session.cache_stats()
    # One compilation serves every backend: first call misses, the rest hit.
    assert stats["misses"] == baseline["misses"] + 1
    assert stats["hits"] >= baseline["hits"] + 2
    session.register("more.xml", "<m><b>3</b></m>")
    session.execute(query, configuration="sql")
    after = session.cache_stats()
    assert after["misses"] == stats["misses"]  # registration kept the plan cache

def test_join_order_hint_refreshes_after_catalog_growth():
    session = Session()
    session.register("tiny.xml", "<a><b>1</b><b>2</b></a>")
    query = 'doc("tiny.xml")/descendant::b'
    first = session.execute(query, configuration="sql")
    session.register("big.xml", "<big>" + "<b>9</b>" * 50 + "</big>")
    second = session.execute(query, configuration="sql")
    assert second.items == first.items
    # The CROSS JOIN order is re-planned against the grown catalog's
    # statistics, not frozen from the first (tiny) database.
    compilation = session.processor.compile(query)
    stats_key, _sql = compilation.sql_backend_sql
    assert stats_key[1] == len(session.store.encoding)


def test_a_parameterized_graph_renders_once_across_registrations(monkeypatch):
    """A parameterized graph's CROSS JOIN order is the static descent order,
    whatever the catalog holds: its text is rendered on the first run and
    re-bound after every registration, never rendered again.  An
    unparameterized graph is re-planned against each grown catalog."""
    session = Session()
    session.register("tiny.xml", "<a><b>1</b><b>2</b></a>")
    prepared = session.prepare(
        "declare variable $n as xs:decimal external; "
        'doc("tiny.xml")/descendant::b[. > $n]'
    )
    plain = session.prepare('doc("tiny.xml")/descendant::b')
    renders = []
    render = stages.render_join_graph

    def counting_render(graph, *args, **kwargs):
        renders.append(graph)
        return render(graph, *args, **kwargs)

    monkeypatch.setattr(stages, "render_join_graph", counting_render)
    before = prepared.run({"n": 0}, engine="sql").items
    plain.run(engine="sql")
    parameterized = prepared.compilation.join_graph
    assert [graph is parameterized for graph in renders] == [True, False]
    for index in range(3):
        session.register(f"more{index}.xml", f"<m><b>{index + 3}</b></m>")
        assert prepared.run({"n": 0}, engine="sql").items == before
        plain.run(engine="sql")
    assert sum(graph is parameterized for graph in renders) == 1
    assert len(renders) == 1 + 1 + 3


def test_prepared_session_handle_survives_registration_on_sql():
    session = Session()
    session.register("tiny.xml", "<a><b>1</b><b>2</b></a>")
    prepared = session.prepare(
        "declare variable $n as xs:decimal external; "
        'doc("tiny.xml")/descendant::b[. > $n]'
    )
    before = prepared.run({"n": 0}, engine="sql").items
    session.register("other.xml", "<o><b>9</b></o>")
    assert prepared.run({"n": 0}, engine="sql").items == before
    assert prepared.run({"n": 1}, engine="sql").items != before


def test_a_block_wider_than_sqlites_join_limit_is_refused_before_any_work(monkeypatch):
    from repro.errors import BackendExecutionError
    from repro.relational.optimizer.planner import Planner
    from repro.sqlbackend.backend import MAX_JOIN_TABLES, SQLiteBackend

    session = Session()
    session.register("t.xml", "<a><a><a/></a></a>")
    prepared = session.prepare('doc("t.xml")' + "/child::a" * (MAX_JOIN_TABLES + 2))
    width = prepared.compilation.join_graph.self_join_width
    assert width == MAX_JOIN_TABLES + 3

    def unreachable(*args, **kwargs):
        raise AssertionError("a refused block must not reach the planner or the backend")

    with monkeypatch.context() as patch:
        patch.setattr(Planner, "plan", unreachable)
        patch.setattr(SQLiteBackend, "__init__", unreachable)
        with pytest.raises(BackendExecutionError, match=f"{MAX_JOIN_TABLES} tables.*{width} times"):
            prepared.run(engine="sql")
    # The engines without the limit still answer (auto picks the join graph).
    assert prepared.run(engine="join-graph").items == []
    assert prepared.run(engine="auto").configuration == "join-graph"
    assert prepared.run(engine="stacked").items == []
