"""The traced run: per-layer metrics from spans around calls into each layer.

End-to-end metrics are never taken from here.  A traced run (``--trace 1``)

1. builds the workload's main document stage by stage (``xmldb.*``,
   ``core.rebuild_ms``, ``sqlbackend.sync_s``) and then its normal state;
2. runs the workload's untraced timed phase for 30 % of the time — the
   reference for ``trace.overhead_share`` and ``core.plan_cache_hit_rate``;
3. replays the same op list for 50 % of the time through the public stage
   objects and executors, one root span per op, one child per layer call;
   where one public call covers several layers (``run_sql``: sync / render /
   bind / execute / decode) its returned ``timings`` become child spans
   flagged ``source: "program"``;
4. runs the sweeps that belong to this workload (query-size, document-scale
   and arrival-rate axes);
5. writes all spans once to ``benchmarks/results/trace-<workload>.json``.

Per-layer times are means per op over the replay (classes have equal
counts), so they add up the way the layer shares do; like the end-to-end
times they are at reference speed (``speed.py``).  Spans in the trace file
are raw clock readings; the file carries the speed samples beside them.
"""

from __future__ import annotations

import gc
import itertools
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Sequence

from repro.core.session import Session
from repro.core.sqlgen import generate_stacked_sql
from repro.core.stages import run_sql, sql_backend_sql
from repro.xmldb.parser import parse_xml

from benchmarks.harness import inputs
from benchmarks.harness.metrics import PER_LAYER
from benchmarks.harness.speed import SpeedProbe
from benchmarks.harness.stats import class_percentile, geomean, loglog_slope, median, percentile
from benchmarks.harness.tracing import Tracer, layer_shares
from benchmarks.harness.workloads import (
    AdhocCold, EnginesWarm, LoadMixed, Op, ServeSql, State, Tally, Workload,
)

REFERENCE_SHARE = 0.3
REPLAY_SHARE = 0.5
SETUP_OP = -1
SQL_STAGES = (
    ("sync", "sqlbackend.sync"), ("render", "core.render"), ("bind", "sqlbackend.bind"),
    ("execute", "sqlbackend.execute"), ("decode", "sqlbackend.decode"),
)
#: per-layer metric → the span whose time per op it reports
SPAN_METRICS = (
    ("xquery.parse_ms", "xquery.parse"), ("xquery.normalize_ms", "xquery.normalize"),
    ("xquery.compile_ms", "xquery.compile"), ("core.isolate_ms", "core.isolate"),
    ("core.extract_ms", "core.extract"), ("core.render_ms", "core.render"),
    ("algebra.stacked_ms", "algebra.stacked"), ("algebra.isolated_ms", "algebra.isolated"),
    ("relational.execute_ms", "relational.execute"), ("sqlbackend.bind_ms", "sqlbackend.bind"),
    ("sqlbackend.execute_ms", "sqlbackend.execute"), ("sqlbackend.decode_ms", "sqlbackend.decode"),
    ("service.queue_wait_ms", "service.queue"),
)


def span_seconds(probe: SpeedProbe, spans: Sequence[dict], name: str) -> list[float]:
    """Durations, at reference speed, of the spans called ``name``."""
    return [probe.normalised(span["start"], span["end"]) for span in spans if span["name"] == name]


def timed(probe: SpeedProbe, call: Callable[[], object], repeats: int = 3) -> float:
    """Median seconds (at reference speed) of ``repeats`` calls after one warm-up call."""
    call()
    intervals = []
    for _ in range(repeats):
        probe.sample()
        started = time.perf_counter()
        call()
        intervals.append((started, time.perf_counter()))
    probe.sample()
    return median([probe.normalised(start, end) for start, end in intervals])


# -- set-up, stage by stage ----------------------------------------------------------


def trace_setup(
    text: str, uri: str, tracer: Tracer, probe: SpeedProbe, layer: dict[str, float]
) -> None:
    """Parse → encode → processor rebuild → mirror sync, each timed alone."""
    session = Session(default_document=uri)
    probe.sample()
    with tracer.span("op.setup", SETUP_OP) as root:
        with tracer.span("xmldb.parse", SETUP_OP, root):
            document = parse_xml(text, uri=uri)
        probe.sample()
        with tracer.span("xmldb.encode", SETUP_OP, root):
            session.register_document(document)
        probe.sample()
        with tracer.span("core.rebuild", SETUP_OP, root):
            _ = session.processor
        probe.sample()
        with tracer.span("sqlbackend.sync", SETUP_OP, root):
            session.sql_backend.sync(session.store.encoding)
    probe.sample()
    nodes = len(session.store.encoding)
    parse, encode, rebuild, sync = (
        span_seconds(probe, tracer.spans, name)[0]
        for name in ("xmldb.parse", "xmldb.encode", "core.rebuild", "sqlbackend.sync")
    )
    connection = session.sql_backend.connection
    pages = connection.execute("PRAGMA page_count").fetchone()[0]
    page_size = connection.execute("PRAGMA page_size").fetchone()[0]
    session.sql_backend.close()
    layer.update({
        "xmldb.parse_s": parse,
        "xmldb.encode_s": encode,
        "xmldb.nodes_per_s": nodes / (parse + encode),
        "core.rebuild_ms": rebuild * 1e3,
        "core.rebuild_ms_per_knode": rebuild * 1e3 / (nodes / 1000.0),
        "sqlbackend.sync_s": sync,
        "sqlbackend.sync_rows_per_s": nodes / sync,
        "sqlbackend.bytes_per_node": pages * page_size / nodes,
    })


# -- replays -------------------------------------------------------------------------


def replay_adhoc(
    workload: AdhocCold, state: State, seconds: float,
    tracer: Tracer, tally: Tally, layer: dict[str, float],
) -> None:
    counts: dict[str, tuple] = {}
    op_ids = itertools.count()

    def perform(state: State, op: Op) -> list:
        processor = state.session.processor
        pipeline = processor.pipeline()
        # Untimed and outside the op's spans: the stage objects below return
        # plans, not the CompilationResult that render and run_sql take.  The
        # pass cleared the cache, so this is a cold build with an empty render memo.
        compilation = processor.compile(op.query)
        workload.probe.sample()
        op_id = next(op_ids)
        with tracer.span(f"op.{op.name}", op_id) as root:
            with tracer.span("xquery.parse", op_id, root):
                module = pipeline.parse.run(op.query)
            with tracer.span("xquery.normalize", op_id, root):
                core = pipeline.normalize.run(module)
            with tracer.span("xquery.compile", op_id, root):
                stacked = pipeline.compile.run(core)
            with tracer.span("core.isolate", op_id, root):
                isolated, report = pipeline.isolate.run(stacked)
            with tracer.span("core.extract", op_id, root):
                pipeline.extract.run(isolated)
                generate_stacked_sql(stacked)
            with tracer.span("core.render", op_id, root):
                sql_backend_sql(compilation, processor.context)
            with tracer.span("sqlbackend.run", op_id, root) as run:
                outcome = run_sql(compilation, processor.context)
        tracer.add_program_children(run, SQL_STAGES, outcome.timings)
        counts[op.name] = (
            report.initial_operator_count, report.steps,
            len(report.rejections), report.final_operator_count,
        )
        return outcome.items

    # Results are checked as usual; the traced latency is the root span, not
    # the call that contains the untimed compile.
    before = len(tracer.spans)
    checked = Tally(workload.probe)
    workload.run_passes(state, seconds, checked, perform)
    tally.absorb(checked)
    for span in tracer.spans[before:]:
        if span["parent"] is None:
            tally.intervals[span["name"].split(".", 1)[1]].append((span["start"], span["end"]))
    stacked_ops, steps, rejections, isolated_ops = (sum(column) for column in zip(*counts.values()))
    layer.update({
        "xquery.stacked_plan_ops": stacked_ops,
        "core.isolate_steps": steps,
        "core.isolate_rejections": rejections,
        "core.isolated_plan_ops": isolated_ops,
    })


def replay_engines(
    workload: EnginesWarm, state: State, seconds: float,
    tracer: Tracer, tally: Tally, layer: dict[str, float],
) -> None:
    scanned: dict[str, list[float]] = defaultdict(list)
    op_ids = itertools.count()
    spans = {"stacked": "algebra.stacked", "isolated": "algebra.isolated", "join-graph": "relational.run"}

    def perform(state: State, op: Op) -> list:
        name = spans[op.engine]
        prefix = name.split(".")[0]
        op_id = next(op_ids)
        with tracer.span(f"op.{op.name}", op_id) as root:
            with tracer.span(name, op_id, root) as run:
                outcome = state.prepared[op.query].run(engine=op.engine)
        tracer.add_program_children(
            run,
            (("bind", f"{prefix}.bind"), ("execute", f"{prefix}.execute"), ("decode", f"{prefix}.decode")),
            outcome.timings,
        )
        scanned[prefix].append(outcome.rows_scanned / max(1, len(outcome.items)))
        return outcome.items

    workload.run_passes(state, seconds, tally, perform)
    # Planning alone: run_join_graph plans inside its "execute" stage.
    engine = state.session.processor.context.engine
    plans = [
        timed(workload.probe, lambda: engine.plan(prepared.compilation.join_graph))
        for prepared in state.prepared.values()
    ]
    layer.update({
        "algebra.rows_scanned_per_item": sum(scanned["algebra"]) / len(scanned["algebra"]),
        "relational.rows_scanned_per_item": sum(scanned["relational"]) / len(scanned["relational"]),
        "relational.plan_ms": sum(plans) / len(plans) * 1e3,
    })


def replay_serve(
    workload: ServeSql, state: State, seconds: float,
    tracer: Tracer, tally: Tally, layer: dict[str, float],
) -> None:
    probe = workload.probe
    with workload.service(state) as service:
        requests, _backlog = workload.open_loop(service, state, seconds, workload.RATE_PER_S)
        workload.settle(requests, tally)
        for op_id, request in enumerate(requests):
            if request.future is None or request.future.exception() is not None:
                continue
            outcome = request.future.result()
            executing = min(outcome.elapsed_seconds, request.done - request.due)
            root = tracer.add(f"op.{request.op.name}", op_id, request.due, request.done)
            tracer.add("service.queue", op_id, request.due, request.done - executing, root)
            run = tracer.add("sqlbackend.run", op_id, request.done - executing, request.done, root)
            tracer.add_program_children(run, SQL_STAGES, outcome.timings)

        # The same requests, one at a time: through the service, then directly.
        served, direct = Tally(probe), Tally(probe)
        classes = len(workload.ops())
        for sequence in range(classes * (5 if workload.quick else 30)):
            op = workload.op_at(sequence, sequence // classes)
            expected = workload.expected[op.expected_key]
            probe.sample(workload.SAMPLE_GAP_S)
            started = time.perf_counter()
            outcome = workload.submit(service, state, op, started).future.result()
            served.record(op.name, started, time.perf_counter(), outcome.items, expected)
            started = time.perf_counter()
            items = workload.perform(state, op)
            direct.record(op.name, started, time.perf_counter(), items, expected)
        probe.sample()
        through, without = served.latencies(), direct.latencies()
        overhead = [median(through[name]) - median(without[name]) for name in through]

        # The highest fixed rate that keeps p95 within the limit without a growing backlog.
        max_rate_ok = 0.0
        for rate in (40.0, 80.0, 160.0):
            swept = Tally(probe)
            arrivals, backlog = workload.open_loop(
                service, state, 0.5 if workload.quick else 3.0, rate
            )
            workload.settle(arrivals, swept)
            pooled = [value for samples in swept.latencies().values() for value in samples]
            if (
                not swept.failed and pooled and percentile(pooled, 95) <= 0.050
                and backlog <= max(2.0, rate * 0.05)
            ):
                max_rate_ok = rate
            tally.absorb(swept)
        tally.absorb(served)
        tally.absorb(direct)
        stats = service.service_stats()

    pooled = [value for samples in tally.latencies().values() for value in samples]
    late = workload.generator_late
    layer.update({
        "service.overhead_ms": sum(overhead) / len(overhead) * 1e3,
        "service.generator_late_ms": sum(late) / len(late) * 1e3,
        "service.p99_ms": percentile(pooled, 99) * 1e3,
        "service.rejected": sum(engine["rejected"] for engine in stats["engines"].values()),
        "service.retries": stats["resilience"]["retries"],
        "service.max_rate_ok": max_rate_ok,
    })


def replay_load(
    workload: LoadMixed, state: State, seconds: float,
    tracer: Tracer, tally: Tally, layer: dict[str, float],
) -> None:
    probe = workload.probe
    rebuilds: list[tuple[int, int]] = []  # (span id, catalog nodes)
    op_ids = itertools.count()

    def query(session: Session, prepared, name: str, slot: int, rebuild: bool) -> None:
        probe.sample(min_gap=0.002)
        op_id = next(op_ids)
        with tracer.span(f"op.{name}", op_id) as root:
            if rebuild:
                with tracer.span("core.rebuild", op_id, root) as rebuilt:
                    _ = session.processor
                rebuilds.append((rebuilt, len(session.store.encoding)))
            with tracer.span("sqlbackend.run", op_id, root) as run:
                outcome = prepared.run(workload.bindings[slot], engine="sql")
        tracer.add_program_children(run, SQL_STAGES, outcome.timings)
        span = tracer.spans[root]
        tally.record(name, span["start"], span["end"], outcome.items, workload.expected[f"price#{slot}"])

    started = time.perf_counter()
    rounds = 0
    while rounds < workload.MIN_ROUNDS or time.perf_counter() - started < seconds:
        session = Session(default_document=workload.uri(0))
        session.register(workload.uri(0), state.texts[workload.uri(0)])
        prepared = session.prepare(inputs.PRICE_QUERY)
        prepared.run(workload.bindings[0], engine="sql")
        slot = 0
        for index in range(1, workload.documents + 1):
            uri = workload.uri(index)
            probe.sample(min_gap=0.002)
            op_id = next(op_ids)
            with tracer.span("op.register", op_id) as root:
                with tracer.span("xmldb.parse", op_id, root):
                    document = parse_xml(state.texts[uri], uri=uri)
                with tracer.span("xmldb.encode", op_id, root):
                    base = session.register_document(document)
            span = tracer.spans[root]
            tally.record("register", span["start"], span["end"], base, workload.expected[f"register#{index}"])
            for position in range(1 + workload.STEADY_QUERIES):
                name = "query_after_register" if position == 0 else "query_steady"
                query(session, prepared, name, slot, rebuild=position == 0)
                slot += 1
        probe.sample()
        session.sql_backend.close()
        rounds += 1
    seconds_and_nodes = [
        (probe.normalised(tracer.spans[span]["start"], tracer.spans[span]["end"]), nodes)
        for span, nodes in rebuilds
    ]
    layer.update({
        "core.rebuild_ms": sum(s for s, _ in seconds_and_nodes) / len(rebuilds) * 1e3,
        "core.rebuild_ms_per_knode": sum(
            s * 1e3 / (nodes / 1000.0) for s, nodes in seconds_and_nodes
        ) / len(rebuilds),
    })


REPLAYS = {
    "adhoc_cold": replay_adhoc, "engines_warm": replay_engines,
    "serve_sql": replay_serve, "load_mixed": replay_load,
}


# -- sweeps --------------------------------------------------------------------------


def sweep_query_size(workload: AdhocCold, state: State, layer: dict[str, float]) -> None:
    """``core.isolate_size_exponent``: isolate time over path lengths 8 / 16 / 32."""
    pipeline = state.session.processor.pipeline()
    steps, seconds = (8, 16, 32), []
    for count in steps:
        module = pipeline.parse.run(inputs.path_query(count))
        stacked = pipeline.compile.run(pipeline.normalize.run(module))
        seconds.append(timed(workload.probe, lambda: pipeline.isolate.run(stacked)))
    layer["core.isolate_size_exponent"] = loglog_slope(steps, seconds)


def sweep_document_scale(workload: EnginesWarm, state: State, layer: dict[str, float]) -> None:
    """Warm execute time of Q8 and Q10 over three document scales, per engine;
    and the paper's stacked-vs-isolated SQL contrast at the workload's own scale."""
    probe = workload.probe
    scales = (0.02, 0.04, 0.08) if workload.quick else (0.5, 1.0, 2.0)
    engines = {"algebra": "stacked", "relational": "join-graph", "sqlbackend": "sql"}
    seconds: dict[str, list[float]] = defaultdict(list)
    for scale in scales:
        session = Session(default_document=inputs.XMARK_URI)
        session.register(inputs.XMARK_URI, inputs.xmark_xml(scale, workload.seed))
        prepared = [session.prepare(inputs.XMARK_QUERIES[name]) for name in ("Q8", "Q10")]
        for layer_name, engine in engines.items():
            seconds[layer_name].append(
                geomean(timed(probe, lambda: query.run(engine=engine)) for query in prepared)
            )
        session.sql_backend.close()
    for layer_name, samples in seconds.items():
        layer[f"{layer_name}.scale_exponent"] = loglog_slope(scales, samples)
    # Only the queries whose stacked WITH-chain SQLite finishes well within a
    # second at this scale: Q8 and Q10 take more than six.
    layer["paper.isolation_speedup"] = geomean(
        timed(probe, lambda: query.run(engine="sql-stacked"))
        / timed(probe, lambda: query.run(engine="sql"))
        for query in (state.prepared[name] for name in ("Q1", "Q2", "Q13"))
    )


# -- the run -------------------------------------------------------------------------


def traced_run(workload: Workload, seconds: float, results_dir: Path):
    """Returns ``(state, tally of the whole run, per-layer metric values)``."""
    tracer = Tracer()
    probe = workload.probe
    layer: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)

    state = workload.build()
    uri, text = max(state.texts.items(), key=lambda item: len(item[1]))
    trace_setup(text, uri, tracer, probe, layer)
    workload.expect(state)
    layer["purexml.execute_ms"] = median(workload.oracle_seconds) * 1e3
    gc.collect()

    reference = Tally(probe)
    compiled_before = workload.compilations(state)
    workload.measure(state, seconds * REFERENCE_SHARE, reference)
    compiled = workload.compilations(state) - compiled_before
    layer["core.plan_cache_hit_rate"] = 1.0 - compiled / reference.attempted

    tally = Tally(probe)
    first_op_span = len(tracer.spans)
    REPLAYS[workload.name](workload, state, seconds * REPLAY_SHARE, tracer, tally, layer)
    untraced = class_percentile(reference.latencies(), 50)
    layer["trace.overhead_share"] = (class_percentile(tally.latencies(), 50) - untraced) / untraced
    tally.absorb(reference)

    op_spans = tracer.spans[first_op_span:]
    ops = sum(1 for span in op_spans if span["parent"] is None)
    for metric, span_name in SPAN_METRICS:
        layer[metric] = sum(span_seconds(probe, op_spans, span_name)) / ops * 1e3
    shares = layer_shares(op_spans)
    for name in PER_LAYER:
        if name.startswith("share."):
            layer[name] = shares.get(name.split(".", 1)[1], 0.0)

    if isinstance(workload, AdhocCold):
        sweep_query_size(workload, state, layer)
    if isinstance(workload, EnginesWarm):
        sweep_document_scale(workload, state, layer)

    tracer.write(
        results_dir / f"trace-{workload.name}.json",
        {
            "workload": workload.name, "seed": workload.seed, "layer_shares": shares,
            "speed_samples": {"at": probe.at, "factor": probe.factor},
        },
    )
    print("  layer shares of op self time: " + ", ".join(
        f"{name} {share:.1%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ))
    return state, tally, layer
