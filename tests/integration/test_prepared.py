"""Differential tests: prepared-with-bindings ≡ ad-hoc-with-literals.

For every parameterized query and every binding, the prepared execution must
produce results identical to compiling the query with the bound value spliced
in as a literal — per engine configuration (stacked plan, isolated plan, SQL
join graph, and the navigational pureXML path).
"""

import pytest

from repro.core.stages import ENGINES
from repro.purexml.engine import PureXMLEngine
from repro.purexml.storage import XMLColumnStore


#: (name, prepared source template, ad-hoc literal template, bindings to sweep)
#: The ad-hoc template receives the binding values via str.format.
PARAM_QUERIES = [
    (
        "initial-threshold",
        "declare variable $lo as xs:decimal external; "
        'doc("auction.xml")/descendant::open_auction[child::initial > $lo]',
        'doc("auction.xml")/descendant::open_auction[child::initial > {lo}]',
        [{"lo": 10}, {"lo": 100}, {"lo": 1000}],
    ),
    (
        "flwor-where",
        "declare variable $lo as xs:decimal external; "
        'for $a in doc("auction.xml")/descendant::open_auction '
        "where $a/child::initial > $lo return $a/child::initial",
        'for $a in doc("auction.xml")/descendant::open_auction '
        "where $a/child::initial > {lo} return $a/child::initial",
        [{"lo": 50}, {"lo": 500}],
    ),
    (
        "string-equality",
        "declare variable $c external; "
        'doc("auction.xml")/descendant::item[child::location = $c]',
        'doc("auction.xml")/descendant::item[child::location = "{c}"]',
        [{"c": "Europe"}, {"c": "Asia"}, {"c": "Atlantis"}],
    ),
]


def _literal_source(template: str, bindings: dict) -> str:
    rendered = {
        name: (int(value) if isinstance(value, (int, float)) else value)
        for name, value in bindings.items()
    }
    return template.format(**rendered)


@pytest.mark.parametrize("name,prepared_src,adhoc_tpl,sweeps", PARAM_QUERIES)
def test_prepared_equals_adhoc_stacked(name, prepared_src, adhoc_tpl, sweeps, xmark_processor):
    prepared = xmark_processor.prepare(prepared_src)
    for bindings in sweeps:
        adhoc = xmark_processor.execute(
            _literal_source(adhoc_tpl, bindings), timeout_seconds=120,
            configuration="stacked",
        )
        got = prepared.run(bindings, engine="stacked", timeout_seconds=120)
        assert got.items == adhoc.items, f"{name} {bindings}"


@pytest.mark.parametrize("name,prepared_src,adhoc_tpl,sweeps", PARAM_QUERIES)
def test_prepared_equals_adhoc_isolated(name, prepared_src, adhoc_tpl, sweeps, xmark_processor):
    prepared = xmark_processor.prepare(prepared_src)
    for bindings in sweeps:
        adhoc = xmark_processor.execute(
            _literal_source(adhoc_tpl, bindings), timeout_seconds=120,
            configuration="isolated",
        )
        got = prepared.run(bindings, engine="isolated", timeout_seconds=120)
        assert got.items == adhoc.items, f"{name} {bindings}"


@pytest.mark.parametrize("name,prepared_src,adhoc_tpl,sweeps", PARAM_QUERIES)
def test_prepared_equals_adhoc_join_graph(name, prepared_src, adhoc_tpl, sweeps, xmark_processor):
    prepared = xmark_processor.prepare(prepared_src)
    assert prepared.compilation.join_graph is not None, prepared.compilation.join_graph_error
    for bindings in sweeps:
        adhoc = xmark_processor.execute(
            _literal_source(adhoc_tpl, bindings), timeout_seconds=120,
            configuration="join-graph",
        )
        got = prepared.run(bindings, engine="join-graph", timeout_seconds=120)
        assert got.items == adhoc.items, f"{name} {bindings}"


@pytest.mark.parametrize("name,prepared_src,adhoc_tpl,sweeps", PARAM_QUERIES)
def test_prepared_equals_adhoc_purexml(name, prepared_src, adhoc_tpl, sweeps, xmark_document):
    engine = PureXMLEngine(XMLColumnStore.whole(xmark_document))
    prepared = engine.prepare(prepared_src)
    for bindings in sweeps:
        adhoc = engine.execute(_literal_source(adhoc_tpl, bindings), timeout_seconds=120)
        got = prepared.run(bindings, timeout_seconds=120)
        assert [id(n) for n in got.nodes] == [id(n) for n in adhoc.nodes], f"{name} {bindings}"


def test_param_query_sweeps_are_not_vacuous(xmark_processor):
    """Guard: every differential case matches something for some binding."""
    for name, prepared_src, _adhoc_tpl, sweeps in PARAM_QUERIES:
        prepared = xmark_processor.prepare(prepared_src)
        counts = [prepared.run(bindings, timeout_seconds=120).node_count for bindings in sweeps]
        assert any(counts), f"{name}: all sweeps returned empty results"


def test_prepared_rerun_skips_the_compiler(xmark_processor):
    """Re-execution touches neither the parser, the compiler nor isolation."""
    source = (
        "declare variable $lo as xs:decimal external; "
        'doc("auction.xml")/descendant::open_auction[child::initial > $lo]'
    )
    prepared = xmark_processor.prepare(source)
    stats_before = dict(xmark_processor.plan_cache.stats())
    results = {lo: prepared.run({"lo": lo}).node_count for lo in (10, 100, 1000)}
    # Monotonically fewer auctions as the threshold rises; bindings matter.
    assert results[10] >= results[100] >= results[1000]
    assert results[10] > results[1000]
    # No cache traffic at all: run() never went back through compile().
    assert xmark_processor.plan_cache.stats() == stats_before


def test_cross_engine_agreement_on_prepared_results(xmark_processor, xmark_document):
    source = (
        "declare variable $lo as xs:decimal external; "
        'doc("auction.xml")/descendant::open_auction[child::initial > $lo]'
    )
    prepared = xmark_processor.prepare(source)
    pure = PureXMLEngine(XMLColumnStore.whole(xmark_document)).prepare(source)
    for lo in (10, 500):
        stacked = prepared.run({"lo": lo}, engine="stacked", timeout_seconds=120)
        relational = prepared.run({"lo": lo}, engine="join-graph", timeout_seconds=120)
        navigational = pure.run({"lo": lo}, timeout_seconds=120)
        assert set(stacked.items) == set(relational.items)
        assert len(set(stacked.items)) == navigational.node_count


ALL_ENGINES = tuple(engine.name for engine in ENGINES)


def test_prepared_equals_adhoc_on_the_newest_document_after_each_registration():
    """The same differential across catalog growth: each new store version's
    lazily derived state (doc table, database, B+-trees, SQLite mirror) must
    cover exactly the catalog including the newest document — all five
    engines agree bit-for-bit, prepared and ad-hoc, on a query over it."""
    from repro.core.session import Session
    from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_document

    _name, prepared_src, adhoc_tpl, sweeps = PARAM_QUERIES[0]
    session = Session()
    for index in range(3):
        uri = f"auction-{index}.xml"
        session.register_document(
            generate_xmark_document(XMarkConfig(scale=0.02, seed=20 + index, uri=uri))
        )
        prepared = session.prepare(prepared_src.replace("auction.xml", uri))
        for bindings in sweeps:
            adhoc_src = _literal_source(adhoc_tpl, bindings).replace("auction.xml", uri)
            reference = session.execute(adhoc_src, configuration="stacked").items
            assert all(item >= session.store.encoding.document_root(uri) for item in reference)
            for engine in ALL_ENGINES:
                adhoc = session.execute(adhoc_src, configuration=engine).items
                got = prepared.run(bindings, engine=engine).items
                assert got == adhoc == reference, f"{uri} {engine} {bindings}"
        assert any(
            prepared.run(bindings).node_count for bindings in sweeps
        ), f"{uri}: all sweeps returned empty results"
