"""The engine table: one ``Engine`` value per configuration, one executor.

Pins what :func:`repro.core.stages.execute_compiled` does for every engine
alike — the label an outcome carries, ``auto`` resolution, the unknown-name
error — and the order it does it in: a refused or mis-bound call never
touches the SQLite mirror.
"""

import pytest

from repro.core.session import Session
from repro.core.stages import ENGINES
from repro.errors import JoinGraphError, XQueryBindingError
from repro.sqlbackend.backend import SQLiteBackend
from repro.testing.queries import DIFFERENTIAL_XML

NAMES = tuple(engine.name for engine in ENGINES)
ISOLABLE = 'doc("site.xml")/descendant::person[child::watch]'
PARAMETERISED = (
    "declare variable $lo as xs:decimal external; "
    'doc("site.xml")/descendant::item[child::quantity > $lo]'
)
#: ``every … satisfies <path>`` nests an aggregate: no single join graph.
REFUSED = (
    'for $i in doc("site.xml")/descendant::item '
    "where every $q in $i/child::quantity satisfies $q/text() "
    "return $i/attribute::id"
)

#: The ``timings`` keys a successful, cache-hit call reports per engine; the
#: benchmark's span layout reads them.
STAGE_KEYS = {
    "stacked": {"bind", "execute", "decode"},
    "isolated": {"bind", "execute", "decode"},
    "join-graph": {"bind", "execute", "decode"},
    "sql": {"bind", "sync", "render", "execute", "decode"},
    "sql-stacked": {"bind", "sync", "execute", "decode"},
}


@pytest.fixture()
def session():
    session = Session()
    session.register("site.xml", DIFFERENTIAL_XML)
    return session


@pytest.fixture()
def syncs(monkeypatch):
    """Count ``SQLiteBackend.sync`` calls."""
    calls = []
    real = SQLiteBackend.sync

    def spy(self, encoding):
        calls.append(len(encoding))
        return real(self, encoding)

    monkeypatch.setattr(SQLiteBackend, "sync", spy)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_outcome_is_labelled_with_the_requested_engine(session, name):
    adhoc = session.execute(ISOLABLE, configuration=name)
    prepared = session.prepare(PARAMETERISED).run({"lo": 2}, engine=name)
    assert adhoc.configuration == prepared.configuration == name
    assert adhoc.items and prepared.items


def test_auto_reports_the_engine_it_resolved_to(session):
    assert session.execute(ISOLABLE).configuration == "join-graph"
    assert session.execute(REFUSED, configuration="auto").configuration == "stacked"


def test_unknown_engine_lists_auto_and_every_name(session):
    expected = ", ".join(("auto", *NAMES))
    with pytest.raises(ValueError, match=f"expected one of: {expected}"):
        session.execute(ISOLABLE, configuration="nosuch")


@pytest.mark.parametrize("name", NAMES)
def test_stage_keys_per_engine(session, name):
    session.execute(ISOLABLE, configuration=name)  # compile and build first
    outcome = session.execute(ISOLABLE, configuration=name)
    assert set(outcome.timings) == STAGE_KEYS[name]


def test_refused_query_does_not_sync_the_mirror(session, syncs):
    with pytest.raises(JoinGraphError):
        session.execute(REFUSED, configuration="sql")
    assert syncs == []


@pytest.mark.parametrize("name", ("sql", "sql-stacked"))
def test_wrong_binding_name_does_not_sync_the_mirror(session, syncs, name):
    prepared = session.prepare(PARAMETERISED)
    with pytest.raises(XQueryBindingError):
        prepared.run({"hi": 2}, engine=name)
    assert syncs == []
