"""The full XMark Q1-Q20 suite, differentially across the five engines.

Every query of the XMark benchmark [Schmidt et al., VLDB 2002], adapted to
the reproduction's XQuery fragment and the in-tree auction-document
generator, runs on all five engine configurations — ad-hoc and prepared —
and must return bit-for-bit identical item sequences, with the stacked
interpreter as the oracle.  Queries whose original formulation uses a
construct outside the fragment (arithmetic in Q7/Q11/Q12/Q20,
``contains()`` in Q14, user-defined functions in Q18, node-order
comparison in Q4, element construction in Q10/Q19) are adapted to preserve
the query's *access pattern* — the joins, predicates, positionals,
quantifiers and aggregates the paper's compiler has to handle — and three
(Q7, Q14, Q18) are kept in their original out-of-fragment form as
executable refusal annotations: the documented error class is asserted on
every configuration, so the README coverage matrix stays checkable, not
prose.

This suite is the stress harness the ROADMAP asks for: it is what flushed
out the decode-stage bug where per-iteration aggregate values were
deduplicated like node sequences (Q8 returned one row per *distinct*
count instead of one per person).
"""

import pytest

from repro.testing.corpus import XMARK_SUITE as SUITE
from repro.core.session import Session
from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_document

CONFIGS = ("stacked", "isolated", "join-graph", "sql", "sql-stacked")

#: Small but structurally rich instance: every query below has a non-empty
#: answer (except where emptiness is the point), bidders/buyers/profiles
#: all exist, and incomes straddle the 50000 threshold Q12/Q20 test.  The
#: auction count is deliberately modest — Q3's two windowed ranks are
#: compared by an *inequality*, which gives the interpreted join graph no
#: equality predicate to order that comparison on, so tier-1 keeps the
#: auction count small even though window-scope pruning keeps each rank
#: pass itself cheap.
DATASET = XMarkConfig(
    scale=1.0,
    seed=11,
    items_per_region=2,
    categories=4,
    people=10,
    open_auctions=6,
    closed_auctions=8,
    max_bidders=4,
)

#: XMarkCase.min_items floors assume this module's DATASET counts.
assert DATASET.people == 10
assert DATASET.items_per_region * 6 == 12



@pytest.fixture(scope="module")
def session():
    session = Session(default_document="auction.xml")
    session.register_document(generate_xmark_document(DATASET))
    return session


@pytest.mark.parametrize("case", SUITE, ids=[case.name for case in SUITE])
def test_adhoc_differential(session, case):
    """Ad-hoc: every configuration matches the stacked oracle bit-for-bit,
    or every configuration raises the annotated error class."""
    if case.refusal is not None:
        for configuration in CONFIGS:
            with pytest.raises(case.refusal):
                session.execute(case.xquery, configuration=configuration)
        return
    oracle = session.execute(
        case.xquery, configuration="stacked", timeout_seconds=120
    ).items
    assert len(oracle) >= case.min_items, (case.name, oracle)
    for configuration in CONFIGS[1:]:
        items = session.execute(
            case.xquery, configuration=configuration, timeout_seconds=120
        ).items
        assert items == oracle, (case.name, configuration, items, oracle)


@pytest.mark.parametrize("case", SUITE, ids=[case.name for case in SUITE])
def test_prepared_differential(session, case):
    """Prepared: the compiled-once handle returns the same items as ad-hoc
    on every configuration; refusals surface at prepare time."""
    if case.refusal is not None:
        with pytest.raises(case.refusal):
            session.prepare(case.xquery)
        return
    prepared = session.prepare(case.xquery)
    oracle = session.execute(
        case.xquery, configuration="stacked", timeout_seconds=120
    ).items
    for configuration in CONFIGS:
        items = prepared.run(engine=configuration, timeout_seconds=120).items
        assert items == oracle, (case.name, configuration, items, oracle)


def test_every_runnable_query_isolates(session):
    """Acceptance for the closed matrix: every in-fragment XMark query now
    isolates a join graph — positionals (Q2/Q3) and where-aggregates
    included — so the join-graph and sql columns have no refusal rows
    left among Q1-Q20."""
    for case in SUITE:
        if case.refusal is not None:
            continue
        compilation = session.processor.compile(case.xquery)
        assert compilation.join_graph is not None, case.name
    windows = session.processor.compile(SUITE[1].xquery).join_graph.windows
    assert windows, "Q2 must carry its positional predicate as a window"


def test_refusals_are_uniform_and_documented(session):
    """The three out-of-fragment queries refuse with the *same* documented
    error class on every configuration: the refusal happens in the shared
    front end, never in one engine's private code path."""
    for case in SUITE:
        if case.refusal is None:
            continue
        for configuration in CONFIGS:
            with pytest.raises(case.refusal):
                session.execute(case.xquery, configuration=configuration)
