"""Concurrency stress tests: one shared Session, many threads, identical results.

The serving layer's whole contract is that concurrency is *transparent*:
N threads hammering one :class:`~repro.core.session.Session` (directly or
through a :class:`~repro.service.QueryService`) must produce bit-for-bit
the results serial execution produces, for every engine configuration, and
must leave the shared plan cache in a deterministically explainable state.

Design notes for determinism:

* every (query, configuration, binding) combination is first executed
  serially to record the expected items; worker threads then re-execute
  the same combinations many times and record mismatches;
* the plan-cache invariant checked at the end is exact: each ad-hoc
  ``execute``/``prepare`` performs exactly one cache lookup, so
  ``hits + misses == lookups``; racing *first* compilations may miss more
  than once (both threads build, last put wins), so ``misses`` is bounded
  by [distinct entries, thread count x distinct entries] and ``size`` is
  exactly the number of distinct entries.
"""

import sys
import threading
import time

import pytest

from repro.core.session import Session
from repro.service import QueryService

THREADS = 8
ITERATIONS = 3

XML = (
    "<site>"
    "<open_auction><bidder>10</bidder><bidder>20</bidder></open_auction>"
    "<open_auction><initial>5</initial></open_auction>"
    "<open_auction><bidder>30</bidder></open_auction>"
    "<closed_auction><price>500</price></closed_auction>"
    "<closed_auction><price>700</price></closed_auction>"
    "</site>"
)
OTHER_XML = "<log><entry>1</entry><entry>2</entry><entry>3</entry></log>"

ADHOC_QUERIES = (
    'doc("site.xml")/descendant::open_auction[child::bidder]',
    'doc("site.xml")/descendant::closed_auction/child::price',
    'doc("site.xml")/descendant::bidder',
)
PARAM_QUERY = (
    "declare variable $lo as xs:decimal external; "
    'doc("site.xml")/descendant::price[. > $lo]'
)
BINDINGS = ({"lo": 400}, {"lo": 600}, {"lo": 900})

CONFIGURATIONS = ("stacked", "isolated", "join-graph", "sql", "sql-stacked")


def _fresh_session():
    session = Session()
    session.register("site.xml", XML)
    session.register("log.xml", OTHER_XML)
    return session


def _expected_results(session, prepared):
    expected = {}
    for query in ADHOC_QUERIES:
        for configuration in CONFIGURATIONS:
            expected[(query, configuration, None)] = session.execute(
                query, configuration=configuration
            ).items
    for binding in BINDINGS:
        for configuration in CONFIGURATIONS:
            expected[(PARAM_QUERY, configuration, binding["lo"])] = prepared.run(
                binding, engine=configuration
            ).items
    return expected


def test_eight_threads_on_one_session_match_serial_bit_for_bit():
    session = _fresh_session()
    prepared = session.prepare(PARAM_QUERY)
    expected = _expected_results(session, prepared)
    lookups_before = _cache_lookups(session)
    size_before = session.cache_stats()["size"]

    mismatches = []
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(seed: int):
        try:
            barrier.wait()  # maximize interleaving
            for iteration in range(ITERATIONS):
                for offset, query in enumerate(ADHOC_QUERIES):
                    configuration = CONFIGURATIONS[
                        (seed + iteration + offset) % len(CONFIGURATIONS)
                    ]
                    outcome = session.execute(query, configuration=configuration)
                    key = (query, configuration, None)
                    if outcome.items != expected[key]:
                        mismatches.append((key, outcome.items))
                for offset, binding in enumerate(BINDINGS):
                    configuration = CONFIGURATIONS[
                        (seed + iteration + offset + 1) % len(CONFIGURATIONS)
                    ]
                    outcome = prepared.run(binding, engine=configuration)
                    key = (PARAM_QUERY, configuration, binding["lo"])
                    if outcome.items != expected[key]:
                        mismatches.append((key, outcome.items))
        except Exception as error:  # pragma: no cover - diagnostic path
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, errors
    assert not mismatches, mismatches[:5]

    # -- deterministic cache invariants ------------------------------------------
    stats = session.cache_stats()
    # No new compilations: every source text was compiled during the serial
    # warm-up, so concurrent traffic was pure hits and the entry set is frozen.
    assert stats["size"] == size_before
    assert stats["evictions"] == 0
    # Exactly one lookup per ad-hoc execute; prepared runs never look up.
    adhoc_executions = THREADS * ITERATIONS * len(ADHOC_QUERIES)
    assert _cache_lookups(session) == lookups_before + adhoc_executions
    # All misses came from the serial warm-up (one per distinct source);
    # every concurrent lookup was a hit.
    assert stats["misses"] == stats["size"]


def _cache_lookups(session) -> int:
    stats = session.cache_stats()
    return stats["hits"] + stats["misses"]


def test_query_service_stress_matches_serial_across_configurations():
    session = _fresh_session()
    prepared = session.prepare(PARAM_QUERY)
    expected = _expected_results(session, prepared)

    requests = []
    keys = []
    for repeat in range(THREADS):
        for offset, query in enumerate(ADHOC_QUERIES):
            configuration = CONFIGURATIONS[(repeat + offset) % len(CONFIGURATIONS)]
            requests.append((query, configuration, None))
            keys.append((query, configuration, None))
        for offset, binding in enumerate(BINDINGS):
            configuration = CONFIGURATIONS[(repeat + offset + 2) % len(CONFIGURATIONS)]
            requests.append((PARAM_QUERY, configuration, binding))
            keys.append((PARAM_QUERY, configuration, binding["lo"]))

    from repro.service import QueryRequest

    violations: list = []
    stop_sampling = threading.Event()

    def sample_invariant(service):
        # The snapshot-consistency invariant: every engine snapshot is taken
        # under the metrics lock, so a submitted query is never double- or
        # un-counted — even mid-flight, submitted covers all finished work.
        while not stop_sampling.is_set():
            for name, engine in service.service_stats()["engines"].items():
                finished = engine["completed"] + engine["failed"] + engine["timed_out"]
                if engine["submitted"] < finished:
                    violations.append((name, engine))

    with QueryService(session, max_workers=THREADS) as service:
        sampler = threading.Thread(target=sample_invariant, args=(service,))
        sampler.start()
        try:
            outcomes = service.execute_many(
                [
                    QueryRequest(
                        source=source, configuration=configuration, bindings=binding
                    )
                    for source, configuration, binding in requests
                ]
            )
        finally:
            stop_sampling.set()
            sampler.join()
        stats = service.service_stats()

    assert not violations, violations[:3]

    for key, outcome in zip(keys, outcomes):
        assert outcome.items == expected[key], key

    completed = sum(engine["completed"] for engine in stats["engines"].values())
    assert completed == len(requests)
    assert stats["in_flight"] == 0
    assert all(
        engine["failed"] == 0 and engine["timed_out"] == 0
        for engine in stats["engines"].values()
    )


def test_registration_during_concurrent_traffic_is_safe():
    """Catalog growth mid-traffic: old queries stay valid, new doc appears."""
    session = _fresh_session()
    expected = session.execute(ADHOC_QUERIES[0], configuration="sql").items
    errors = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                outcome = session.execute(ADHOC_QUERIES[0], configuration="sql")
                assert outcome.items == expected
        except Exception as error:  # pragma: no cover - diagnostic path
            errors.append(error)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        for index in range(5):
            session.register(f"extra-{index}.xml", f"<extra><n>{index}</n></extra>")
    finally:
        stop.set()
        for thread in readers:
            thread.join()

    assert not errors, errors
    # The new documents are queryable, through every backend.
    for configuration in CONFIGURATIONS:
        outcome = session.execute(
            'doc("extra-4.xml")/descendant::n', configuration=configuration
        )
        assert len(outcome.items) == 1, configuration
    # Old results survived the rebuilds bit-for-bit.
    assert session.execute(ADHOC_QUERIES[0], configuration="sql").items == expected


def test_concurrent_processor_rebuild_happens_once():
    session = _fresh_session()
    results = []
    barrier = threading.Barrier(THREADS)

    def grab():
        barrier.wait()
        results.append(session.processor)

    threads = [threading.Thread(target=grab) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(processor) for processor in results}) == 1


# -- write-once lazy derived state under concurrent first use -------------------------


def _race(work):
    """Run ``work(i)`` on THREADS threads released together; return their results.

    A shortened switch interval makes the interpreter interleave the racing
    threads inside the check-then-build windows the tests are about.
    """
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = []

    def run(i):
        barrier.wait(timeout=60)
        try:
            results[i] = work(i)
        except Exception as error:  # pragma: no cover - diagnostic path
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return results


def _counting(monkeypatch, target, name):
    """Replace ``target.name`` by a spy that counts calls (and dawdles a little,
    so racing threads really do arrive while the first build is in flight)."""
    calls = []
    wrapped = getattr(target, name)

    def spy(*args, **kwargs):
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(target, name, spy)
    return calls


def test_first_join_graph_calls_on_a_fresh_version_build_the_database_once(monkeypatch):
    from repro.core import stages

    session = _fresh_session()
    expected = session.execute(ADHOC_QUERIES[0], configuration="stacked").items
    session.register("fresh.xml", "<fresh/>")  # new version: nothing derived yet
    builds = _counting(monkeypatch, stages, "database_from_encoding")
    outcomes = _race(
        lambda _i: session.execute(ADHOC_QUERIES[0], configuration="join-graph")
    )
    assert len(builds) == 1
    assert [outcome.items for outcome in outcomes] == [expected] * THREADS
    # Only the thread that built the database reports its cost (the spy's 50 ms);
    # the others waited in `execute` — one of them may be first to probe a lazy
    # index and report that tree's (sub-millisecond) load instead.
    assert sum(outcome.timings.get("rebuild", 0.0) >= 0.05 for outcome in outcomes) == 1


def test_first_probes_through_one_lazy_index_load_one_tree(monkeypatch):
    from repro.relational.btree import BPlusTree

    session = _fresh_session()
    index = session.processor.database.index("doc_idx_nkpl")
    loads = _counting(monkeypatch, BPlusTree, "__init__")
    probes = _race(lambda _i: list(index.lookup(("bidder", "ELEM"))))
    assert len(loads) == 1
    assert len(probes[0]) == 3 and probes == [probes[0]] * THREADS


def test_eight_threads_run_one_cached_program_with_identical_counters(monkeypatch):
    """A planned program is immutable: per-call state lives in its context."""
    from repro.relational.optimizer.planner import Planner

    session = _fresh_session()
    graph = session.prepare(ADHOC_QUERIES[0]).compilation.join_graph
    engine = session.processor.engine
    serial = engine.execute(graph)
    assert serial.rows_scanned and serial.index_probes
    plans = _counting(monkeypatch, Planner, "plan")
    batches = _race(lambda _i: [engine.execute(graph) for _ in range(ITERATIONS)])
    assert not plans
    observed = [
        (result.items(), result.rows_scanned, result.index_probes)
        for batch in batches
        for result in batch
    ]
    expected = (serial.items(), serial.rows_scanned, serial.index_probes)
    assert observed == [expected] * (THREADS * ITERATIONS)


def test_registration_racing_a_lazy_build_never_leaks_newer_rows(monkeypatch):
    """A version-v snapshot is its first n rows, whenever they are read."""
    from repro.xmldb.encoding import DocumentEncoding

    session = _fresh_session()
    processor = session.processor
    captured = len(session.store.encoding)

    # Deterministic interleaving: a registration lands *inside* each build,
    # after the build started and before it reads the rows.  (It also shows
    # the build does not hold the store lock: registering would deadlock.)
    rows = DocumentEncoding.rows
    landed = []

    def rows_after_a_registration(self, limit=None):
        landed.append(session.register(f"mid-{len(landed)}.xml", OTHER_XML))
        return rows(self, limit)

    with monkeypatch.context() as patch:
        patch.setattr(DocumentEncoding, "rows", rows_after_a_registration)
        assert len(processor.doc_table) == captured
        assert len(processor.database.table("doc")) == captured
    assert len(landed) == 2 and len(session.store.encoding) > captured

    # And under real threads: writers keep registering while readers force
    # the derived state of whichever version they happen to hold.
    stop = threading.Event()

    def writer():
        for index in range(200):
            if stop.is_set():
                break
            session.register(f"late-{index}.xml", OTHER_XML)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        def check(_i):
            for _ in range(10):
                context = session.processor.context
                rows_captured = context.snapshot.row_count
                assert len(context.doc_table) == rows_captured
                assert len(context.database.table("doc")) == rows_captured
                assert context.database.index("doc_pk_pre").entry_count == rows_captured

        _race(check)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


def test_plan_cache_clear_during_service_traffic_stays_consistent():
    """Regression: Session.cache_stats() and QueryService.service_stats()
    must describe one coherent cache generation even when the plan cache is
    cleared mid-traffic — no memo entry may survive pointing at a plan the
    cleared cache cannot produce, and results stay bit-for-bit correct."""
    session = _fresh_session()
    expected = {
        source: session.execute(source, configuration="stacked").items
        for source in ADHOC_QUERIES
    }
    mismatches: list = []
    stop = threading.Event()

    def traffic(seed: int) -> None:
        i = 0
        while not stop.is_set() or i < 30:
            if i >= 30 and stop.is_set():
                break
            source = ADHOC_QUERIES[(seed + i) % len(ADHOC_QUERIES)]
            outcome = service.submit(source, configuration="stacked").result()
            if outcome.items != expected[source]:
                mismatches.append((source, outcome.items))
                break
            i += 1

    with QueryService(session, max_workers=4) as service:
        threads = [threading.Thread(target=traffic, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(15):
            session.plan_cache.clear()
        stop.set()
        for thread in threads:
            thread.join()
        assert not mismatches
        service_view = service.service_stats()["plan_cache"]
        session_view = session.cache_stats()

    # Both views come from the same locked snapshot mechanism.
    assert set(service_view) == set(session_view)
    cache = session.plan_cache
    with cache._lock:
        for memo_key, cache_key in cache._key_by_source.items():
            assert cache_key in cache._entries, (memo_key, cache_key)
    stats = session.cache_stats()
    assert stats["size"] <= stats["maxsize"]
    assert stats["source_memo_size"] <= 4 * stats["maxsize"]
