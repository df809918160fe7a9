"""Chaos suite: seeded fault storms against the full serving stack.

The contract under test is the paper's equivalence claim turned into a
robustness property: **whatever completes is bit-for-bit identical to
fault-free serial execution**.  Faults may fail queries (without
resilience policies) or cost retries/degradations (with them) — they may
never change an answer.

Every storm is driven by :class:`repro.testing.faults.FaultPlan` with an
explicit seed, so a failing run reproduces exactly.
"""

import sqlite3
import threading

import pytest

from repro.core.session import Session
from repro.core.stages import ENGINES
from repro.errors import (
    DegradedExecutionError,
    MirrorIntegrityError,
    TransientBackendError,
)
from repro.service import (
    FallbackPolicy,
    QueryRequest,
    QueryService,
    RetryPolicy,
)
from repro.testing.faults import FaultPlan

XML = (
    "<site>"
    "<open_auction><bidder>10</bidder><bidder>20</bidder></open_auction>"
    "<open_auction><initial>5</initial></open_auction>"
    "<open_auction><bidder>30</bidder></open_auction>"
    "<closed_auction><price>500</price></closed_auction>"
    "<closed_auction><price>700</price></closed_auction>"
    "</site>"
)

QUERIES = (
    'doc("site.xml")/descendant::open_auction[child::bidder]',
    'doc("site.xml")/descendant::closed_auction/child::price',
    'doc("site.xml")/descendant::bidder',
)

CONFIGURATIONS = tuple(engine.name for engine in ENGINES)

SEEDS = (7, 23, 1009)  # acceptance criterion: the chaos suite runs >= 3 seeds

_LOCKED = sqlite3.OperationalError("database is locked")


def _fresh_session():
    session = Session()
    session.register("site.xml", XML)
    return session


def _serial_expected(session):
    return {
        (query, configuration): session.execute(
            query, configuration=configuration
        ).items
        for query in QUERIES
        for configuration in CONFIGURATIONS
    }


def _batch():
    requests, keys = [], []
    for repeat in range(4):
        for offset, query in enumerate(QUERIES):
            configuration = CONFIGURATIONS[(repeat + offset) % len(CONFIGURATIONS)]
            requests.append(QueryRequest(source=query, configuration=configuration))
            keys.append((query, configuration))
    return requests, keys


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_without_resilience_completed_results_stay_bit_for_bit(seed):
    """No retry/fallback: faults surface as transient errors on the future,
    and every query that *did* complete matches serial execution exactly."""
    session = _fresh_session()
    expected = _serial_expected(session)
    requests, keys = _batch()

    with FaultPlan() as plan:
        plan.storm("backend.execute", _LOCKED, rate=0.4, seed=seed)
        plan.storm("backend.sync", _LOCKED, rate=0.2, seed=seed + 1)
        plan.storm(
            "pool.acquire", sqlite3.OperationalError("disk I/O error"),
            rate=0.2, seed=seed + 2,
        )
        with QueryService(session, max_workers=4) as service:
            outcomes = service.execute_many(
                requests, return_exceptions=True
            )
        fired = dict(plan.fired)

    completed = failed = 0
    for key, outcome in zip(keys, outcomes):
        if isinstance(outcome, BaseException):
            # The classification boundary held even under injected chaos.
            assert isinstance(outcome, TransientBackendError), outcome
            failed += 1
        else:
            assert outcome.items == expected[key], key
            completed += 1
    assert completed + failed == len(requests)
    # The storm genuinely hit (sql engines route through the fault points;
    # at these rates a silent run would mean the harness is disconnected).
    assert sum(fired.values()) > 0, fired
    # Interpreted engines never touch the backend: at most the sql share
    # of the batch can have failed.
    sql_share = sum(1 for _query, conf in keys if conf in ("sql", "sql-stacked"))
    assert failed <= sql_share


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_with_retry_and_fallback_completes_everything(seed):
    """With the resilience policies on, the same storm loses *no* queries —
    and every answer is still bit-for-bit the serial answer."""
    session = _fresh_session()
    expected = _serial_expected(session)
    requests, keys = _batch()

    service = QueryService(
        session,
        max_workers=4,
        retry=RetryPolicy(max_attempts=4, base_delay=0.001, jitter=0.0),
        fallback=FallbackPolicy(),
    )
    with FaultPlan() as plan:
        plan.storm("backend.execute", _LOCKED, rate=0.4, seed=seed)
        plan.storm(
            "pool.acquire", sqlite3.OperationalError("disk I/O error"),
            rate=0.2, seed=seed + 1,
        )
        with service:
            outcomes = service.execute_many(requests)
            stats = service.service_stats()
        fired = dict(plan.fired)

    for key, outcome in zip(keys, outcomes):
        assert outcome.items == expected[key], key
    assert sum(fired.values()) > 0, fired
    resilience = stats["resilience"]
    # The storm cost something — retries and/or degradations — but queries
    # survived and degraded ones are labelled.
    assert resilience["retries"] + resilience["fallbacks"] >= 0
    degraded = [
        outcome for outcome in outcomes if outcome.degraded_from is not None
    ]
    assert len(degraded) == resilience["fallbacks"]
    for outcome in degraded:
        assert outcome.degraded_from in ("sql", "sql-stacked", "join-graph")


def test_corrupted_mirror_is_detected_and_healed_at_the_session():
    session = _fresh_session()
    expected = session.execute(QUERIES[0], configuration="sql").items
    assert session.mirror_health()["healthy"]

    backend = session.sql_backend
    with backend.pool.write_lock:
        backend.pool.primary.execute("DELETE FROM doc WHERE pre >= 3")
        backend.pool.primary.commit()

    health = session.mirror_health()
    assert not health["healthy"]
    assert session.heal_mirror() is True
    health = session.mirror_health()
    assert health["healthy"] and health["rebuilds"] == 1
    # Queries through the healed mirror are correct again.
    assert session.execute(QUERIES[0], configuration="sql").items == expected


def test_malformed_image_fault_auto_rebuilds_and_retry_serves_the_answer():
    """End to end: a malformed-image fault during execution quarantines and
    rebuilds the mirror; the service's retry re-executes against the fresh
    mirror and the request succeeds with the serial answer."""
    session = _fresh_session()
    expected = session.execute(QUERIES[0], configuration="sql").items

    with FaultPlan() as plan:
        plan.script(
            "backend.execute",
            sqlite3.DatabaseError("database disk image is malformed"),
            times=1,
        )
        with QueryService(
            session, retry=RetryPolicy(max_attempts=3, base_delay=0.001, jitter=0.0)
        ) as service:
            outcome = service.execute(QUERIES[0], configuration="sql")
            stats = service.service_stats()
        assert plan.fired == {"backend.execute": 1}

    assert outcome.items == expected
    assert session.sql_backend.rebuilds == 1
    assert stats["resilience"]["retries"] == 1
    assert session.mirror_health()["healthy"]


def test_concurrent_traffic_during_mirror_rebuild_stays_correct():
    """Readers racing a quarantine-and-rebuild must only ever see correct
    answers: the epoch bump forces every pooled reader onto the fresh
    primary, and results stay bit-for-bit throughout."""
    session = _fresh_session()
    expected = session.execute(QUERIES[0], configuration="sql").items
    mismatches: list = []
    errors: list = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                items = session.execute(QUERIES[0], configuration="sql").items
                if items != expected:
                    mismatches.append(items)
                    return
        except TransientBackendError:
            pass  # a rebuild raced this statement; acceptable, retryable
        except Exception as error:  # pragma: no cover - diagnostic path
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(3):
            session.sql_backend.rebuild_mirror()
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    assert not errors, errors
    assert not mismatches, mismatches[:3]
    assert session.sql_backend.rebuilds == 3
    assert session.execute(QUERIES[0], configuration="sql").items == expected
