"""The compilation cache: key contract, settings sensitivity, LRU behaviour.

Regression background: the seed cached compilations keyed on the raw source
string and handled per-call ``isolation`` overrides by *disabling* caching
altogether, so ablation runs recompiled on every call and a cached default
result could never coexist with an override.  The keyed :class:`PlanCache`
keys on (core AST, compiler settings, isolation configuration) instead.
"""

import pytest

from repro.core.pipeline import PlanCache, XQueryProcessor
from repro.core.rewriter import JoinGraphIsolation
from repro.xmldb.encoding import encode_document
from repro.xmldb.parser import parse_xml

XML = "<site><a><b>1</b></a><a><b>2</b></a></site>"
QUERY = 'doc("t.xml")/descendant::a/child::b'


@pytest.fixture()
def processor():
    encoding = encode_document(parse_xml(XML, uri="t.xml"))
    return XQueryProcessor(encoding, default_document="t.xml")


# -- key contract --------------------------------------------------------------------


def test_recompilation_hits_the_cache(processor):
    first = processor.compile(QUERY)
    second = processor.compile(QUERY)
    assert second is first
    assert processor.plan_cache.stats()["hits"] == 1


def test_source_formatting_does_not_miss(processor):
    """Whitespace / comment variants normalize to the same core AST key."""
    first = processor.compile(QUERY)
    variant = processor.compile(
        ' doc("t.xml") (: the same query :) /descendant::a/child::b '
    )
    assert variant is first


def test_auto_fallback_decision_is_cached(processor, monkeypatch):
    """Auto-mode refusals are decided once per plan-cache key.

    A query whose isolated plan is not a pure join graph (here: ``order
    by`` over a grouped aggregate) makes ``"auto"`` fall back to the
    stacked interpreter.  That decision is recorded on the cached
    :class:`CompilationResult` (``auto_engine``/``join_graph_error``), so
    re-executing the same query must hit the cache and never re-run
    isolation — the historical failure mode was paying the full rewrite
    search on every refused call.
    """
    refused = (
        'for $a in doc("t.xml")/descendant::a '
        "order by $a/child::b/text() return fn:count($a/child::b)"
    )
    isolate_calls = []
    original = JoinGraphIsolation.isolate

    def counting_isolate(self, plan):
        isolate_calls.append(plan)
        return original(self, plan)

    monkeypatch.setattr(JoinGraphIsolation, "isolate", counting_isolate)
    first = processor.execute(refused, configuration="auto")
    compilation = processor.compile(refused)
    assert compilation.join_graph is None
    assert compilation.join_graph_error is not None
    assert compilation.auto_engine == "stacked"
    assert len(isolate_calls) == 1
    stats_before = processor.plan_cache.stats()
    for _ in range(3):
        repeat = processor.execute(refused, configuration="auto")
        assert repeat.items == first.items
        assert repeat.configuration == first.configuration
    stats_after = processor.plan_cache.stats()
    assert len(isolate_calls) == 1  # isolation ran once, ever
    assert stats_after["misses"] == stats_before["misses"]
    assert stats_after["hits"] == stats_before["hits"] + 3


def test_auto_dispatches_to_the_join_graph_when_isolated(processor):
    """The cached decision's other arm: an isolable query keeps running on
    the join-graph engine under ``"auto"``."""
    compilation = processor.compile(QUERY)
    assert compilation.auto_engine == "join-graph"
    outcome = processor.execute(QUERY, configuration="auto")
    assert outcome.configuration == "join-graph"


def test_isolation_override_is_cached_under_its_own_key(processor):
    """Regression: overrides used to disable caching instead of keying it."""
    ablated = JoinGraphIsolation(enable_join_goal=False, enable_distinct_goal=False)
    full = processor.compile(QUERY)
    off = processor.compile(QUERY, isolation=ablated)
    assert off is not full
    # The ablated pipeline leaves a bigger plan than full isolation.
    assert (
        off.isolation_report.final_operator_count
        > full.isolation_report.final_operator_count
    )
    # Both configurations are cached, independently.
    assert processor.compile(QUERY, isolation=ablated) is off
    assert processor.compile(QUERY) is full


def test_equivalent_isolation_config_shares_the_entry(processor):
    """The key is the isolation *configuration*, not the object identity."""
    first = processor.compile(QUERY, isolation=JoinGraphIsolation())
    default = processor.compile(QUERY)
    again = processor.compile(QUERY, isolation=JoinGraphIsolation())
    assert first is default is again


def test_prologs_with_same_body_do_not_collide(processor):
    """Regression: the declarations are part of the key, not just the body.

    Two sources whose bodies normalize identically but whose prologs differ
    (an extra declared-but-unused external) have different binding
    interfaces and must not share a cache entry.
    """
    one = processor.compile(
        'declare variable $n as xs:decimal external; doc("t.xml")/descendant::b[. > $n]'
    )
    two = processor.compile(
        "declare variable $n as xs:decimal external; "
        "declare variable $m as xs:decimal external; "
        'doc("t.xml")/descendant::b[. > $n]'
    )
    assert two is not one
    assert one.parameter_names == ("n",)
    assert two.parameter_names == ("n", "m")
    # Both entries stay valid and executable with their own interfaces.
    assert (
        processor.execute(two.source, bindings={"n": 0, "m": 9}, configuration="stacked").items
        == processor.execute(one.source, bindings={"n": 0}, configuration="stacked").items
    )


def test_bindings_do_not_fragment_the_cache(processor):
    source = 'declare variable $n as xs:decimal external; doc("t.xml")/descendant::b[. > $n]'
    prepared = processor.prepare(source)
    misses_after_prepare = processor.plan_cache.stats()["misses"]
    assert prepared.run({"n": 0}).items != prepared.run({"n": 1}).items
    assert processor.plan_cache.stats()["misses"] == misses_after_prepare
    assert processor.prepare(source).compilation is prepared.compilation


# -- LRU mechanics -------------------------------------------------------------------


def test_lru_eviction_and_counters():
    encoding = encode_document(parse_xml(XML, uri="t.xml"))
    processor = XQueryProcessor(
        encoding, default_document="t.xml", plan_cache=PlanCache(maxsize=2)
    )
    q1 = 'doc("t.xml")/descendant::a'
    q2 = 'doc("t.xml")/descendant::b'
    q3 = 'doc("t.xml")/child::site'
    first = processor.compile(q1)
    processor.compile(q2)
    processor.compile(q3)  # evicts q1
    stats = processor.plan_cache.stats()
    assert stats["size"] == 2
    assert stats["evictions"] == 1
    assert processor.compile(q1) is not first  # recompiled after eviction


def test_lru_recency_refresh():
    cache = PlanCache(maxsize=2)
    cache.put("a", "A")
    cache.put("b", "B")
    assert cache.get("a") == "A"  # refresh 'a'
    cache.put("c", "C")  # evicts 'b', not 'a'
    assert cache.get("a") == "A"
    assert cache.get("b") is None
    assert cache.stats()["evictions"] == 1


def test_plan_cache_rejects_zero_size():
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


# -- thread safety -------------------------------------------------------------------


def test_clear_resets_counters_with_entries():
    """Regression: clear() used to drop entries but keep the traffic
    counters, so stats() reported hits/misses/evictions that no entry of
    the current cache generation ever produced."""
    cache = PlanCache(maxsize=2)
    cache.put("a", "A")
    cache.put("b", "B")
    cache.put("c", "C")          # one eviction
    assert cache.get("a") is None  # one miss ('a' was evicted)
    assert cache.get("b") == "B"   # one hit
    cache.clear()
    assert cache.stats() == {
        "size": 0,
        "maxsize": 2,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "source_memo_size": 0,
    }


def test_concurrent_get_put_keeps_counters_consistent():
    import threading

    cache = PlanCache(maxsize=8)
    threads_n, per_thread = 8, 200
    keys = [f"k{i}" for i in range(16)]  # 2x maxsize: constant eviction churn
    barrier = threading.Barrier(threads_n)

    def hammer(seed):
        barrier.wait()
        for i in range(per_thread):
            key = keys[(seed + i) % len(keys)]
            if cache.get(key) is None:
                cache.put(key, key.upper())

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    stats = cache.stats()
    # Exact invariant: every get() incremented exactly one of hits/misses.
    assert stats["hits"] + stats["misses"] == threads_n * per_thread
    # Size never exceeds maxsize, and the LRU structure survived the churn.
    assert 0 < stats["size"] <= 8
    assert len(cache) == stats["size"]


# -- the raw-source memo (lockstep with plan eviction) --------------------------------


def test_source_memo_evicts_in_lockstep_with_plans():
    """Regression: the source side-map pruned purely by size, so it could
    retain mappings to evicted plans and drop mappings to live ones.  Memo
    entries now leave exactly when their plan does."""
    cache = PlanCache(maxsize=2)
    cache.put("ka", "A")
    cache.remember_source("src-a", "ka")
    cache.put("kb", "B")
    cache.remember_source("src-b1", "kb")
    cache.remember_source("src-b2", "kb")  # formatting variant, same plan
    assert cache.stats()["source_memo_size"] == 3

    cache.put("kc", "C")  # evicts "ka" (LRU) -> its memo entry goes with it
    assert cache.key_for_source("src-a") is None
    assert cache.key_for_source("src-b1") == "kb"
    assert cache.key_for_source("src-b2") == "kb"
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["source_memo_size"] == 2

    # Every surviving memo entry resolves to a live plan.
    for memo in ("src-b1", "src-b2"):
        assert cache.get(cache.key_for_source(memo)) is not None


def test_source_memo_is_bounded_and_prunes_reverse_index():
    cache = PlanCache(maxsize=1)
    cache.put("k", "V")
    for i in range(10):
        cache.remember_source(f"src-{i}", "k")
    # Bounded at 4x maxsize; the stalest memo entries were dropped.
    assert cache.stats()["source_memo_size"] == 4
    assert cache.key_for_source("src-0") is None
    assert cache.key_for_source("src-9") == "k"


def test_remember_source_refuses_dangling_mappings():
    """A clear() (or eviction) racing between put() and remember_source()
    must not leave a memo entry pointing at a plan the cache cannot
    produce."""
    cache = PlanCache(maxsize=2)
    cache.put("k", "V")
    cache.clear()
    cache.remember_source("src", "k")  # the plan is gone: no-op
    assert cache.key_for_source("src") is None
    assert cache.stats()["source_memo_size"] == 0


def test_clear_mid_traffic_keeps_stats_consistent():
    """Concurrency regression: clears interleaved with compile traffic must
    leave one coherent cache generation — every memo entry resolves to a
    live plan, and the counters obey their exact invariants."""
    import threading

    encoding = encode_document(parse_xml(XML, uri="t.xml"))
    processor = XQueryProcessor(encoding, default_document="t.xml", plan_cache=PlanCache(4))
    cache = processor.plan_cache
    queries = [
        QUERY,
        'doc("t.xml")/descendant::b',
        'fn:count(doc("t.xml")/descendant::b)',
        'for $a in doc("t.xml")/descendant::a return fn:count($a/child::b)',
        'doc("t.xml")/descendant::b[1]',
    ]
    stop = threading.Event()
    errors: list = []

    def traffic(seed):
        i = 0
        while not stop.is_set() or i < 50:
            if i >= 50 and stop.is_set():
                break
            source = queries[(seed + i) % len(queries)]
            try:
                processor.execute(source, configuration="stacked")
            except Exception as error:  # pragma: no cover - the assertion below
                errors.append(error)
                break
            i += 1

    threads = [threading.Thread(target=traffic, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for _ in range(20):
        cache.clear()
    stop.set()
    for t in threads:
        t.join()

    assert not errors
    stats = cache.stats()
    assert stats["size"] <= stats["maxsize"]
    # One coherent generation: every memo entry maps to a live plan.
    with cache._lock:
        for memo_key, cache_key in cache._key_by_source.items():
            assert cache_key in cache._entries, (memo_key, cache_key)
        for cache_key, memo_keys in cache._sources_by_key.items():
            assert cache_key in cache._entries
            for memo_key in memo_keys:
                assert cache._key_by_source.get(memo_key) == cache_key
    assert stats["source_memo_size"] <= 4 * stats["maxsize"]
