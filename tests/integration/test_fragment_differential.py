"""Differential tests for the widened fragment (PR 5).

Every construct the widened front end accepts — FLWOR ``let``/``where``,
value joins between two bound sequences, positional predicates, and
``fn:count``/``fn:sum``/``fn:avg`` aggregates — must produce bit-for-bit
identical item sequences on every engine configuration that accepts the
query, ad-hoc and prepared, including the property-style edge cases the
paper's workloads exercise: empty sequences, duplicate join keys, and
aggregates over empty groups.
"""

import pytest

from repro.core.session import Session
from repro.core.stages import ENGINES
from repro.purexml.engine import PureXMLEngine
from repro.purexml.storage import XMLColumnStore
from repro.xmldb.parser import parse_xml

#: Engines with a join graph; positional queries run on the subset below.
ALL_CONFIGS = tuple(engine.name for engine in ENGINES)
NO_JOIN_GRAPH_CONFIGS = tuple(engine.name for engine in ENGINES if not engine.needs_join_graph)

#: Duplicate join keys on both sides (two watches naming one item, two
#: items sharing a name), an empty person, and an unreferenced item.
XML = """<site>
 <people>
  <person id="p0"><name>Alice</name><watch>i3</watch><watch>i1</watch></person>
  <person id="p1"><name>Bob</name><watch>i2</watch><watch>i3</watch></person>
  <person id="p2"><name>Cleo</name></person>
 </people>
 <items>
  <item id="i1"><name>Lamp</name><quantity>5</quantity></item>
  <item id="i2"><name>Desk</name><quantity>7</quantity></item>
  <item id="i3"><name>Lamp</name><quantity>2</quantity></item>
  <item id="i4"><name>Vase</name></item>
 </items>
</site>"""

VALUE_JOIN_QUERIES = [
    # plain value join, duplicate keys on both sides
    (
        'for $p in doc("site.xml")/descendant::person '
        'for $i in doc("site.xml")/descendant::item '
        "where $p/child::watch = $i/attribute::id "
        "return $i/child::name"
    ),
    # let-bound document, multi-variable for, conjunction with a literal test
    (
        'let $a := doc("site.xml") '
        "for $p in $a/descendant::person, $i in $a/descendant::item "
        'where $p/child::watch = $i/attribute::id and $p/attribute::id = "p0" '
        "return $i"
    ),
    # inequality value join
    (
        'for $p in doc("site.xml")/descendant::person '
        'for $i in doc("site.xml")/descendant::item '
        "where $p/child::watch != $i/attribute::id "
        "return $i"
    ),
    # empty result: no watch matches a nonexistent id scheme
    (
        'for $p in doc("site.xml")/descendant::person '
        'for $i in doc("site.xml")/descendant::item '
        "where $p/child::name = $i/attribute::id "
        "return $i"
    ),
]

AGGREGATE_QUERIES = [
    'fn:count(doc("site.xml")/descendant::watch)',
    'fn:count(doc("site.xml")/descendant::nosuch)',  # aggregate over empty
    'fn:sum(doc("site.xml")/descendant::quantity)',
    'fn:sum(doc("site.xml")/descendant::nosuch)',  # sum(()) = 0
    'fn:avg(doc("site.xml")/descendant::quantity)',
    'fn:avg(doc("site.xml")/descendant::nosuch)',  # avg(()) = ()
    # nested, with empty groups (p2 has no watch; i4 has no quantity)
    'for $p in doc("site.xml")/descendant::person return fn:count($p/child::watch)',
    'for $i in doc("site.xml")/descendant::item return fn:sum($i/child::quantity)',
    'for $i in doc("site.xml")/descendant::item return fn:avg($i/child::quantity)',
    # let-bound argument
    'let $ws := doc("site.xml")/descendant::watch return fn:count($ws)',
    # aggregate over a value-joined argument (XMark Q8 shape)
    (
        'for $p in doc("site.xml")/descendant::person '
        "return fn:count(doc(\"site.xml\")/descendant::item[attribute::id = $p/child::watch])"
    ),
]

POSITIONAL_QUERIES = [
    'doc("site.xml")/descendant::watch[2]',
    'doc("site.xml")/descendant::watch[9]',  # out of range: empty
    'doc("site.xml")/descendant::person[1]/child::watch',
]

ORDER_BY_QUERIES = [
    # order by a child value; Alice/Bob/Cleo are already sorted, so use the
    # watch values which are not in document order
    (
        'for $p in doc("site.xml")/descendant::person '
        "order by $p/child::name/text() return $p/child::name"
    ),
    (
        'for $w in doc("site.xml")/descendant::watch '
        "order by $w/text() return $w"
    ),
    # a binding with no key (i4 has no quantity) drops out of the result
    (
        'for $i in doc("site.xml")/descendant::item '
        "order by $i/child::quantity/text() return $i/attribute::id"
    ),
    # explicit ascending keyword
    (
        'for $i in doc("site.xml")/descendant::item '
        "order by $i/child::name/text() ascending return $i/child::name"
    ),
    # order by under a where clause
    (
        'for $p in doc("site.xml")/descendant::person '
        "where fn:count($p/child::watch) > 0 "
        "order by $p/child::name/text() return $p"
    ),
]

QUANTIFIED_QUERIES = [
    (
        'for $p in doc("site.xml")/descendant::person '
        'where some $w in $p/child::watch satisfies $w/text() = "i3" '
        "return $p/child::name"
    ),
    (  # vacuously true for the watch-less person p2
        'for $p in doc("site.xml")/descendant::person '
        'where every $w in $p/child::watch satisfies $w/text() = "i3" '
        "return $p/attribute::id"
    ),
    (  # quantifier inside a path predicate
        'doc("site.xml")/descendant::person'
        '[some $w in child::watch satisfies $w/text() = "i2"]/child::name'
    ),
]

EXISTS_EMPTY_QUERIES = [
    (
        'for $p in doc("site.xml")/descendant::person '
        "where fn:exists($p/child::watch) return $p/child::name"
    ),
    (
        'for $p in doc("site.xml")/descendant::person '
        "where fn:empty($p/child::watch) return $p/child::name"
    ),
    # unprefixed built-in names inside path predicates
    'doc("site.xml")/descendant::item[exists(child::quantity)]/attribute::id',
    'doc("site.xml")/descendant::item[empty(child::quantity)]/attribute::id',
    # exists over an empty-everywhere path: empty result
    (
        'for $p in doc("site.xml")/descendant::person '
        "where fn:exists($p/child::nosuch) return $p"
    ),
]

WHERE_AGGREGATE_QUERIES = [
    (
        'for $p in doc("site.xml")/descendant::person '
        "where fn:count($p/child::watch) > 1 return $p"
    ),
    (  # literal on the left: must mean the same as the flipped form
        'for $p in doc("site.xml")/descendant::person '
        "where 1 < fn:count($p/child::watch) return $p"
    ),
    (
        'for $p in doc("site.xml")/descendant::person '
        "where fn:count($p/child::watch) = 0 return $p/child::name"
    ),
]


@pytest.fixture(scope="module")
def session():
    session = Session()
    session.register("site.xml", XML)
    return session


def _assert_engines_agree(session, query, configs):
    results = {}
    for configuration in configs:
        results[configuration] = session.execute(query, configuration=configuration).items
    reference = results[configs[0]]
    for configuration, items in results.items():
        assert items == reference, (configuration, items, reference)
    return reference


@pytest.mark.parametrize("query", VALUE_JOIN_QUERIES)
def test_value_joins_agree_on_all_engines(session, query):
    _assert_engines_agree(session, query, ALL_CONFIGS)
    # Value joins reach the Fig. 8/9 SQL path: a join graph must exist.
    assert session.processor.compile(query).join_graph is not None


@pytest.mark.parametrize("query", AGGREGATE_QUERIES)
def test_aggregates_agree_on_all_engines(session, query):
    _assert_engines_agree(session, query, ALL_CONFIGS)
    compilation = session.processor.compile(query)
    assert compilation.join_graph is not None
    assert compilation.join_graph.aggregate is not None


@pytest.mark.parametrize("query", POSITIONAL_QUERIES)
def test_positional_predicates_agree_on_all_engines(session, query):
    """Positional predicates select on a rank; the windowed-rank extraction
    carries them into the join graph as DENSE_RANK conditions, so every
    configuration — including join-graph and sql — agrees bit-for-bit."""
    _assert_engines_agree(session, query, ALL_CONFIGS)
    compilation = session.processor.compile(query)
    assert compilation.join_graph is not None
    assert compilation.join_graph.windows


@pytest.mark.parametrize("query", WHERE_AGGREGATE_QUERIES)
def test_aggregates_in_conditions_agree_on_all_engines(session, query):
    """An aggregate compared inside a where clause renders as a correlated
    HAVING-style subquery on the grouped encoding; every configuration
    agrees bit-for-bit, including aggregates over empty groups."""
    _assert_engines_agree(session, query, ALL_CONFIGS)
    compilation = session.processor.compile(query)
    assert compilation.join_graph is not None
    assert compilation.join_graph.having


@pytest.mark.parametrize("query", ORDER_BY_QUERIES)
def test_order_by_agrees_on_all_engines(session, query):
    """``order by`` re-ranks each FLWOR iteration by its (single, ascending,
    string-valued) key before the positional rank is taken; all five
    relational configurations agree bit-for-bit."""
    _assert_engines_agree(session, query, ALL_CONFIGS)


@pytest.mark.parametrize("query", QUANTIFIED_QUERIES)
def test_quantified_expressions_agree_on_all_engines(session, query):
    """``some`` desugars to an existence test over a witness loop and
    ``every`` to a zero-violations aggregate comparison; both run on every
    configuration."""
    _assert_engines_agree(session, query, ALL_CONFIGS)


@pytest.mark.parametrize("query", EXISTS_EMPTY_QUERIES)
def test_exists_empty_agree_on_all_engines(session, query):
    """``fn:exists`` is the plain existence test; ``fn:empty`` routes through
    the count-comparison (HAVING) machinery so empty groups stay visible."""
    _assert_engines_agree(session, query, ALL_CONFIGS)


def test_a_nan_data_value_agrees_on_all_engines():
    """A text that parses as NaN stores a NULL ``data`` value, which SQLite
    would make of a bound NaN anyway: no engine compares it."""
    session = Session()
    session.register("t.xml", "<r><a>NaN</a><a>1</a><a>x</a><a>3</a></r>")
    assert _assert_engines_agree(session, 'doc("t.xml")//a[. != 1]', ALL_CONFIGS) == [8]


def test_every_with_existence_predicate_refuses_on_join_graph(session):
    """``every … satisfies <path>`` negates to fn:empty, which nests a count
    aggregate inside the violation count — outside the single-join-graph
    fragment.  Interpreted configurations still agree; join-graph and sql
    refuse with the documented error class."""
    from repro.errors import JoinGraphError

    query = (
        'for $i in doc("site.xml")/descendant::item '
        "where every $q in $i/child::quantity satisfies $q/text() "
        "return $i/attribute::id"
    )
    _assert_engines_agree(session, query, NO_JOIN_GRAPH_CONFIGS)
    for configuration in ("join-graph", "sql"):
        with pytest.raises(JoinGraphError):
            session.execute(query, configuration=configuration)


@pytest.mark.parametrize(
    "query,bindings",
    [
        (
            'for $p in doc("site.xml")/descendant::person '
            'where fn:count($p/child::watch) < "3" return $p/child::name',
            None,
        ),
        (
            "declare variable $n external; "
            'for $p in doc("site.xml")/descendant::person '
            "where fn:count($p/child::watch) < $n return $p/child::name",
            {"n": "3"},
        ),
    ],
)
def test_a_where_count_against_a_string_keeps_no_row_on_join_graph(session, query, bindings):
    """A range test between a count and a string fails, as it does in the
    interpreter; join-graph must not raise a raw ``TypeError``.  (sql and
    sql-stacked follow SQLite, where every number sorts below text.)"""
    stacked = session.execute(query, bindings=bindings, configuration="stacked").items
    assert stacked == []
    assert session.execute(query, bindings=bindings, configuration="join-graph").items == stacked


@pytest.mark.parametrize("bound,expected", [(3, [1]), (9, [])])
def test_a_top_level_where_count_runs_on_join_graph(session, bound, expected):
    """``fn:count(...) > n`` at the top level leaves no alias outside the
    count's argument: join-graph runs that block as one row of its
    constant select items, as SQL's FROM-less ``SELECT`` does."""
    query = f'fn:count(doc("site.xml")/descendant::watch) > {bound}'
    stacked = session.execute(query, configuration="stacked").items
    assert stacked == expected
    assert session.execute(query, configuration="join-graph").items == stacked


def test_order_by_result_is_key_ordered(session):
    """Acceptance: watches sorted by their text value, not document order."""
    query = (
        'for $w in doc("site.xml")/descendant::watch '
        "order by $w/text() return $w"
    )
    items = session.execute(query, configuration="sql").items
    encoding = session.processor.encoding
    assert [encoding.record(item).value for item in items] == [
        "i1",
        "i2",
        "i3",
        "i3",
    ]


def test_purexml_agrees_on_phase_c_constructs():
    """The navigational engine implements order by / quantifiers / exists /
    empty natively (no normalization) yet selects the same nodes in the same
    order as the relational stack."""
    document = parse_xml(XML, uri="site.xml")
    engine = PureXMLEngine(XMLColumnStore.whole(document))
    session = Session()
    session.register("site.xml", XML)
    encoding = session.processor.encoding
    for query in (
        ORDER_BY_QUERIES[:2]
        + QUANTIFIED_QUERIES[:2]
        + EXISTS_EMPTY_QUERIES[:2]
    ):
        relational = session.execute(query, configuration="sql")
        pure = engine.execute(query)
        assert [node.string_value() for node in pure.nodes] == [
            _string_value(encoding, item) for item in relational.items
        ], query


def _string_value(encoding, pre):
    """String value of an encoded node: concatenated text of its subtree."""
    record = encoding.record(pre)
    if record.kind in ("TEXT", "ATTR"):
        return record.value
    return "".join(
        encoding.record(inner).value
        for inner in encoding.subtree(pre, include_self=False)
        if encoding.record(inner).kind == "TEXT"
    )


def test_aggregate_value_duplicates_survive_decode(session):
    """Regression: per-iteration aggregate *values* may repeat across
    iterations (two persons each watching two items), and the decode step
    must not apply the node-sequence dedup to them.  Every configuration
    returns one count per person, duplicates included."""
    query = (
        'for $p in doc("site.xml")/descendant::person '
        "return fn:count($p/child::watch)"
    )
    for configuration in ALL_CONFIGS:
        items = session.execute(query, configuration=configuration).items
        assert items == [2, 2, 0], configuration
    correlated = (
        'for $p in doc("site.xml")/descendant::person '
        'return fn:count(doc("site.xml")/descendant::item'
        "[attribute::id = $p/child::watch])"
    )
    for configuration in ALL_CONFIGS:
        items = session.execute(correlated, configuration=configuration).items
        assert items == [2, 2, 0], configuration


def test_aggregates_rendered_as_native_sql():
    """Acceptance: the sql configuration must aggregate *in* SQL — COUNT/
    SUM/AVG appear in the executed statement and the result arrives already
    aggregated (a single row / one row per group), not as rows that Python
    re-aggregates."""
    session = Session()
    session.register("site.xml", XML)
    scalar = session.execute(
        'fn:count(doc("site.xml")/descendant::watch)', configuration="sql"
    )
    assert "COUNT(" in scalar.details.sql
    assert scalar.details.row_count == 1  # aggregated by SQLite, not in decode
    nested = session.execute(
        'for $p in doc("site.xml")/descendant::person return fn:count($p/child::watch)',
        configuration="sql",
    )
    assert "COUNT(" in nested.details.sql
    assert "GROUP BY" in nested.details.sql
    assert "LEFT JOIN" in nested.details.sql
    assert nested.details.row_count == 3  # one row per person
    summed = session.execute(
        'for $i in doc("site.xml")/descendant::item return fn:sum($i/child::quantity)',
        configuration="sql",
    )
    assert "SUM(" in summed.details.sql
    assert summed.items == [5.0, 7.0, 2.0, 0]


@pytest.mark.parametrize(
    "query,bindings_list",
    [
        (
            "declare variable $id external; "
            'for $p in doc("site.xml")/descendant::person '
            'for $i in doc("site.xml")/descendant::item '
            "where $p/child::watch = $i/attribute::id and $p/attribute::id = $id "
            "return $i",
            [{"id": "p0"}, {"id": "p1"}, {"id": "p2"}],
        ),
        (
            "declare variable $n as xs:integer external; "
            'doc("site.xml")/descendant::watch[$n]',
            [{"n": 1}, {"n": 3}, {"n": 9}],
        ),
    ],
)
def test_prepared_rebinding_matches_adhoc(session, query, bindings_list):
    prepared = session.prepare(query)
    configs = (
        ALL_CONFIGS if prepared.compilation.join_graph is not None else NO_JOIN_GRAPH_CONFIGS
    )
    for bindings in bindings_list:
        for configuration in configs:
            prepared_items = prepared.run(bindings, engine=configuration).items
            adhoc_items = session.execute(
                query, bindings=bindings, configuration=configuration
            ).items
            assert prepared_items == adhoc_items, (configuration, bindings)


def test_purexml_agrees_on_the_widened_fragment():
    """The navigational engine agrees with the relational stack on value
    joins (distinct node string values), positional predicates, and
    aggregate values."""
    document = parse_xml(XML, uri="site.xml")
    engine = PureXMLEngine(XMLColumnStore.whole(document))
    session = Session()
    session.register("site.xml", XML)
    encoding = session.processor.encoding

    join_query = (
        'for $p in doc("site.xml")/descendant::person '
        'for $i in doc("site.xml")/descendant::item '
        "where $p/child::watch = $i/attribute::id "
        "return $i/child::name"
    )
    relational = session.execute(join_query, configuration="sql")
    pure = engine.execute(join_query)
    # pureXML keeps per-iteration duplicates; compare the distinct value sets.
    assert {node.string_value() for node in pure.nodes} == {
        encoding.record(item).value for item in relational.items
    }

    positional = 'doc("site.xml")/descendant::watch[2]'
    pure_positional = engine.execute(positional)
    relational_positional = session.execute(positional, configuration="stacked")
    assert [node.string_value() for node in pure_positional.nodes] == [
        encoding.record(item).value for item in relational_positional.items
    ]

    for aggregate_query, expected in [
        ('fn:count(doc("site.xml")/descendant::watch)', [4]),
        ('fn:sum(doc("site.xml")/descendant::quantity)', [14.0]),
        ('fn:avg(doc("site.xml")/descendant::nosuch)', []),
    ]:
        assert engine.execute(aggregate_query).values == expected
        assert session.execute(aggregate_query, configuration="sql").items == expected
