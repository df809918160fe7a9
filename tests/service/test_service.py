"""QueryService unit tests: submission, batching, admission, metrics.

Determinism note: tests that need a query to *stay* in flight use a stub
session whose ``execute`` blocks on an event — no sleeps, no reliance on
real queries being slow.
"""

import threading

import pytest

from repro.core.session import Session
from repro.core.stages import ENGINES
from repro.errors import (
    QueryTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service import QueryRequest, QueryService

XML = "<site><a><b>1</b><b>2</b></a><a><b>3</b></a></site>"
QUERY = 'doc("t.xml")/descendant::b'
PARAM_QUERY = (
    'declare variable $n as xs:decimal external; doc("t.xml")/descendant::b[. > $n]'
)

CONFIGURATIONS = ("auto", *(engine.name for engine in ENGINES))


@pytest.fixture()
def session():
    session = Session()
    session.register("t.xml", XML)
    return session


# -- the real stack through the service ----------------------------------------------


def test_submit_returns_future_with_serial_result(session):
    expected = session.execute(QUERY).items
    with QueryService(session, max_workers=2) as service:
        assert service.submit(QUERY).result().items == expected


def test_every_engine_configuration_matches_serial_execution(session):
    serial = {
        configuration: session.execute(QUERY, configuration=configuration).items
        for configuration in CONFIGURATIONS
    }
    with QueryService(session, max_workers=4) as service:
        for configuration in CONFIGURATIONS:
            outcome = service.execute(QUERY, configuration=configuration)
            assert outcome.items == serial[configuration], configuration


def test_execute_many_preserves_request_order(session):
    requests = [
        QueryRequest(source=QUERY, configuration="sql"),
        QueryRequest(source=PARAM_QUERY, bindings={"n": 1}, configuration="stacked"),
        QueryRequest(source=QUERY, configuration="join-graph"),
        QueryRequest(source=PARAM_QUERY, bindings={"n": 2}, configuration="sql"),
    ]
    serial = [
        session.execute(
            request.source,
            bindings=request.bindings,
            configuration=request.configuration,
        ).items
        for request in requests
    ]
    with QueryService(session, max_workers=4) as service:
        outcomes = service.execute_many(requests)
    assert [outcome.items for outcome in outcomes] == serial


def test_execute_many_accepts_strings_and_prepared_handles(session):
    prepared = session.prepare(PARAM_QUERY)
    expected_adhoc = session.execute(QUERY, configuration="sql").items
    expected_prepared = prepared.run({"n": 1}, engine="sql").items
    with QueryService(session) as service:
        adhoc, via_prepared = service.execute_many(
            [QUERY, QueryRequest(prepared=prepared, bindings={"n": 1})],
            configuration="sql",
        )
    assert adhoc.items == expected_adhoc
    # QueryRequest keeps its own configuration ("auto" resolves via the
    # join graph) — the point here is binding flow, not engine choice.
    assert set(via_prepared.items) == set(expected_prepared)


def test_execute_many_return_exceptions_keeps_batch(session):
    with QueryService(session) as service:
        good, bad = service.execute_many(
            [QUERY, "][ this does not parse"], return_exceptions=True
        )
    assert good.items
    assert isinstance(bad, Exception)


def test_batch_larger_than_max_in_flight_self_throttles(session):
    expected = session.execute(QUERY).items
    with QueryService(session, max_workers=2, max_in_flight=2) as service:
        outcomes = service.execute_many([QUERY] * 8)
    assert all(outcome.items == expected for outcome in outcomes)


def test_outcome_timings_expose_latency_breakdown(session):
    with QueryService(session) as service:
        outcome = service.execute(QUERY, configuration="sql")
    assert "execute" in outcome.timings and "decode" in outcome.timings
    assert outcome.elapsed_seconds >= 0.0


def test_request_validation():
    with pytest.raises(ValueError):
        QueryRequest()  # neither source nor prepared
    with pytest.raises(ValueError):
        QueryRequest(source=QUERY, prepared=object())  # both


# -- deterministic admission / metrics tests against a stub session -------------------


class _StubSession:
    """A session double whose queries block/fail on command."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.seen_timeouts = []

    def execute(self, source, bindings=None, timeout_seconds=None, configuration="auto"):
        self.seen_timeouts.append(timeout_seconds)
        if source == "block":
            self.started.set()
            assert self.release.wait(10), "test never released the blocked query"
            return "blocked-done"
        if source == "timeout":
            raise QueryTimeoutError(0.1, 0.2)
        if source == "boom":
            raise ValueError("boom")
        return f"ok:{source}"

    def cache_stats(self):
        return {"size": 0, "hits": 0, "misses": 0}


def test_admission_reject_raises_when_full():
    stub = _StubSession()
    service = QueryService(stub, max_workers=1, max_in_flight=1, admission="reject")
    try:
        blocked = service.submit("block")
        assert stub.started.wait(10)
        with pytest.raises(ServiceOverloadedError):
            service.submit("fast")
        stats = service.service_stats()
        assert stats["engines"]["auto"]["rejected"] == 1
        assert stats["in_flight"] == 1
    finally:
        stub.release.set()
        assert blocked.result(10) == "blocked-done"
        service.close()


def test_admission_block_waits_for_a_slot():
    stub = _StubSession()
    service = QueryService(stub, max_workers=1, max_in_flight=1, admission="block")
    try:
        service.submit("block")
        assert stub.started.wait(10)
        admitted = threading.Event()
        second: list = []

        def submit_second():
            second.append(service.submit("fast"))
            admitted.set()

        thread = threading.Thread(target=submit_second)
        thread.start()
        # The slot is taken: the second submit must still be waiting.
        assert not admitted.wait(0.2)
        stub.release.set()
        assert admitted.wait(10)
        thread.join()
        assert second[0].result(10) == "ok:fast"
    finally:
        stub.release.set()
        service.close()


def test_per_query_and_default_timeout_budgets_reach_the_engine():
    stub = _StubSession()
    with QueryService(stub, default_timeout_seconds=2.5) as service:
        service.execute("fast")                      # default budget
        service.execute("fast", timeout_seconds=0.5)  # per-request override
    assert stub.seen_timeouts == [2.5, 0.5]


def test_timeout_and_failure_metrics_are_separate():
    stub = _StubSession()
    with QueryService(stub) as service:
        with pytest.raises(QueryTimeoutError):
            service.execute("timeout")
        with pytest.raises(ValueError):
            service.execute("boom")
        service.execute("fast")
        stats = service.service_stats()["engines"]["auto"]
    assert stats["submitted"] == 3
    assert stats["completed"] == 1
    assert stats["timed_out"] == 1
    assert stats["failed"] == 1
    assert stats["rejected"] == 0


def test_closed_service_rejects_new_work():
    stub = _StubSession()
    service = QueryService(stub)
    service.close()
    service.close()  # idempotent
    with pytest.raises(ServiceClosedError):
        service.submit("fast")


def test_service_stats_surface_plan_cache(session):
    with QueryService(session) as service:
        service.execute(QUERY)
        service.execute(QUERY)
        stats = service.service_stats()
    assert stats["plan_cache"]["hits"] >= 1
    assert stats["engines"]["auto"]["completed"] == 2
    assert stats["in_flight"] == 0


def test_close_drain_waits_for_in_flight_then_shuts_down():
    """Graceful drain: admission stops immediately, in-flight work finishes."""
    stub = _StubSession()
    service = QueryService(stub, max_workers=2)
    blocked = service.submit("block")
    assert stub.started.wait(10)

    drained = threading.Event()

    def drain():
        service.close(drain=True, drain_timeout=10.0)
        drained.set()

    thread = threading.Thread(target=drain)
    thread.start()
    # Admission is already closed while the drain is still waiting...
    with pytest.raises(ServiceClosedError):
        service.submit("fast")
    # ...and the drain cannot have finished: the query is still in flight.
    assert not drained.wait(0.2)
    stub.release.set()
    assert drained.wait(10)
    thread.join()
    assert blocked.result(10) == "blocked-done"
    assert service.service_stats()["in_flight"] == 0


def test_close_drain_timeout_bounds_the_wait():
    """A straggler past the drain window must not wedge the shutdown."""
    stub = _StubSession()
    service = QueryService(stub, max_workers=1)
    blocked = service.submit("block")
    assert stub.started.wait(10)
    try:
        service.close(drain=True, drain_timeout=0.1)  # returns despite straggler
        assert service.closed
    finally:
        stub.release.set()
    assert blocked.result(10) == "blocked-done"  # straggler still completed


def test_execute_many_reject_mode_keeps_admitted_results():
    """Regression: a mid-batch ServiceOverloadedError must not discard the
    results of already-admitted requests when return_exceptions=True.

    Determinism: the blocked query is only released once *both* over-limit
    entries have provably been rejected (observed via service_stats) — the
    earlier version released as soon as the blocker started, racing the
    batch thread's remaining submissions against the freed slot.
    """
    import time

    stub = _StubSession()
    service = QueryService(stub, max_workers=1, max_in_flight=1, admission="reject")
    try:
        gathered: list = []
        done = threading.Event()

        def run_batch():
            gathered.extend(
                service.execute_many(
                    ["block", "fast", "fast"], return_exceptions=True
                )
            )
            done.set()

        thread = threading.Thread(target=run_batch)
        thread.start()
        assert stub.started.wait(10)   # first entry occupies the only slot
        deadline = time.monotonic() + 10
        while (
            service.service_stats()["engines"]["auto"]["rejected"] < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        assert service.service_stats()["engines"]["auto"]["rejected"] == 2
        stub.release.set()
        assert done.wait(10)
        thread.join()
    finally:
        stub.release.set()
        service.close()

    assert gathered[0] == "blocked-done"
    assert all(isinstance(item, ServiceOverloadedError) for item in gathered[1:])
    assert len(gathered) == 3
    assert service.service_stats()["engines"]["auto"]["rejected"] == 2
