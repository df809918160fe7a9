"""Names, units, directions and bounds of every metric — spelled once.

``BENCHMARK.json`` at the repository root carries the same table for the
driver; ``test_harness.py`` asserts the two agree.  Later changes name
metrics and workloads exactly as spelled here.
"""

from __future__ import annotations

#: name → (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse before a change is a regression:
#: about three times the widest spread (IQR ÷ median over ten seeds) any
#: workload showed on the defining box, and never more than 0.25.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_ops_s": ("1/s", "higher", 0.20),
    "latency_p50_ms": ("ms", "lower", 0.20),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "ok_share": ("fraction", "higher", 0.005),
    "peak_rss_mb": ("MB", "lower", 0.08),
}

#: name → (unit, better).  Layer = module name under ``repro``.  A metric a
#: workload does not exercise reads 0 there: that is the prediction ("no
#: share here"), not a missing value.  Sweep metrics (``*_exponent``,
#: ``service.max_rate_ok``, ``paper.isolation_speedup``) are measured only
#: in their home workload's traced run.
PER_LAYER: dict[str, tuple[str, str]] = {
    "xmldb.parse_s": ("s", "lower"),
    "xmldb.encode_s": ("s", "lower"),
    "xmldb.nodes_per_s": ("1/s", "higher"),
    "xquery.parse_ms": ("ms", "lower"),
    "xquery.normalize_ms": ("ms", "lower"),
    "xquery.compile_ms": ("ms", "lower"),
    "xquery.stacked_plan_ops": ("count", "lower"),
    "core.isolate_ms": ("ms", "lower"),
    "core.isolate_steps": ("count", "lower"),
    "core.isolate_rejections": ("count", "lower"),
    "core.isolated_plan_ops": ("count", "lower"),
    "core.isolate_size_exponent": ("exponent", "lower"),
    "core.extract_ms": ("ms", "lower"),
    "core.render_ms": ("ms", "lower"),
    "core.plan_cache_hit_rate": ("fraction", "higher"),
    "core.rebuild_ms": ("ms", "lower"),
    "core.rebuild_ms_per_knode": ("ms", "lower"),
    "algebra.stacked_ms": ("ms", "lower"),
    "algebra.isolated_ms": ("ms", "lower"),
    "algebra.rows_scanned_per_item": ("count", "lower"),
    "algebra.scale_exponent": ("exponent", "lower"),
    "relational.plan_ms": ("ms", "lower"),
    "relational.execute_ms": ("ms", "lower"),
    "relational.rows_scanned_per_item": ("count", "lower"),
    "relational.scale_exponent": ("exponent", "lower"),
    "sqlbackend.sync_s": ("s", "lower"),
    "sqlbackend.sync_rows_per_s": ("1/s", "higher"),
    "sqlbackend.bytes_per_node": ("bytes", "lower"),
    "sqlbackend.bind_ms": ("ms", "lower"),
    "sqlbackend.execute_ms": ("ms", "lower"),
    "sqlbackend.decode_ms": ("ms", "lower"),
    "sqlbackend.scale_exponent": ("exponent", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.generator_late_ms": ("ms", "lower"),
    "service.p99_ms": ("ms", "lower"),
    "service.rejected": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "service.max_rate_ok": ("1/s", "higher"),
    "purexml.execute_ms": ("ms", "lower"),
    "paper.isolation_speedup": ("ratio", "higher"),
    "share.xmldb": ("fraction", "lower"),
    "share.xquery": ("fraction", "lower"),
    "share.core": ("fraction", "lower"),
    "share.algebra": ("fraction", "lower"),
    "share.relational": ("fraction", "lower"),
    "share.sqlbackend": ("fraction", "lower"),
    "share.service": ("fraction", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}

#: The counts that must repeat exactly between two runs of one commit.
EXACT_COUNTS = (
    "xquery.stacked_plan_ops",
    "core.isolate_steps",
    "core.isolate_rejections",
    "core.isolated_plan_ops",
    "sqlbackend.bytes_per_node",
)
