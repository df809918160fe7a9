"""The four workloads: state building, expected results, the timed phase.

Everything here drives the program through its top-level API only
(``Session``, ``PreparedQuery``, ``QueryService``), so the end-to-end
numbers survive any refactoring below that surface.  The traced replays,
which reach into the stage objects, live in ``traced.py``.

An *op class* is one (query, engine) pair or one write-op kind; the classes
of a workload are fixed, and every timed phase runs whole passes over them,
so each class gets the same number of samples.

Every phase takes speed samples between ops (see ``speed.py``); a
:class:`Tally` keeps each op's raw interval and rescales it afterwards.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.core.pipeline import PreparedQuery
from repro.core.session import Session
from repro.errors import ServiceError
from repro.service import QueryService

from benchmarks.harness import inputs
from benchmarks.harness.environment import usable_cores
from benchmarks.harness.oracle import Oracle, pre_ranks
from benchmarks.harness.speed import SpeedProbe

#: An op slower than this counts as failed, whatever it returned.  Far above
#: every class's latency at the defining commit (the slowest is ~0.6 s).
TIMEOUT_BUDGET_S = 5.0


@dataclass(frozen=True)
class Op:
    """One request of a class: what to run, on which engine, with which bindings."""

    name: str
    query: str
    engine: str = "sql"
    bindings: Optional[Mapping[str, object]] = None
    #: Key into the workload's expected results (several ops of the price
    #: class share the class name but differ in bindings).
    key: str = ""

    @property
    def expected_key(self) -> str:
        return self.key or self.name


class Tally:
    """Outcomes of a timed phase: one interval per completed op, and failures."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported = 0

    def record(self, name: str, start: float, end: float, items: object, expected: object) -> None:
        self.attempted += 1
        self.intervals[name].append((start, end))
        if items != expected:
            self.wrong += 1
            self.failed += 1
            self._report(f"{name}: wrong result ({_brief(items)} != {_brief(expected)})")
        elif end - start > TIMEOUT_BUDGET_S:
            self.failed += 1
            self._report(f"{name}: {end - start:.2f}s exceeds the {TIMEOUT_BUDGET_S}s budget")

    def error(self, name: str, error: BaseException) -> None:
        """An op that raised or was refused: attempted, failed, no latency."""
        self.attempted += 1
        self.failed += 1
        self._report(f"{name}: {type(error).__name__}: {error}")

    def absorb(self, other: "Tally") -> None:
        """Add another phase's counts (not its latency samples)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong

    def latencies(self, raw: bool = False) -> dict[str, list[float]]:
        """Seconds per op and class, at reference speed unless ``raw``."""
        if raw:
            return {name: [end - start for start, end in spans] for name, spans in self.intervals.items()}
        return {
            name: [self.probe.normalised(start, end) for start, end in spans]
            for name, spans in self.intervals.items()
        }

    def _report(self, message: str) -> None:
        if self._reported < 5:  # the first few explain a failure; the count says how many
            print(f"FAILED op {message}", file=sys.stderr)
        self._reported += 1


def _brief(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


@dataclass
class State:
    """What one build leaves behind for the timed phase."""

    session: Session
    #: uri → ``pre`` rank of the document node, as ``Session.register`` returned it.
    bases: dict[str, int]
    prepared: dict[str, PreparedQuery] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)

    def close(self) -> None:
        self.session.sql_backend.close()


class Workload:
    """Base: a workload builds state, derives expectations, and measures."""

    name = ""
    why = ""
    #: The highest percentile that keeps >= 10 samples beyond it at the
    #: defining commit's sample count; fixed so the metric never changes
    #: meaning between runs.
    tail_percentile = 80.0

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.expected: dict[str, object] = {}
        self.oracle_seconds: list[float] = []
        self.probe = SpeedProbe()

    # -- to implement ----------------------------------------------------------
    def build(self) -> State:
        """Seed → XML text → register → prepare → one warm-up pass (``setup_s``).

        Takes a speed sample between its steps, so that a build that
        straddles a slow phase is still rescaled piece by piece.
        """
        raise NotImplementedError

    def expect(self, state: State) -> None:
        """Fill :attr:`expected` from the oracle (outside ``setup_s``)."""
        raise NotImplementedError

    def measure(self, state: State, seconds: float, tally: Tally) -> tuple[int, float]:
        """Run the timed phase into a fresh ``tally``; returns the throughput
        phase's (correct completed ops, wall seconds at reference speed)."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------------
    def inputs_digest(self, state: State) -> str:
        return inputs.digest(sorted(state.texts.items()))

    def compilations(self, state: State) -> int:
        """Plan-cache misses so far (monotone; the traced run takes differences)."""
        return state.session.cache_stats()["misses"]

    def _session(self, texts: Mapping[str, str], sources: Mapping[str, str]) -> State:
        """A fresh session over ``texts`` (the first is the default document)
        with ``sources`` prepared, a speed sample after every step."""
        self.probe.sample()
        session = Session(default_document=next(iter(texts)))
        bases, prepared = {}, {}
        for uri, text in texts.items():
            bases[uri] = session.register(uri, text)
            self.probe.sample()
        for name, source in sources.items():
            prepared[name] = session.prepare(source)
            self.probe.sample()
        return State(session, bases, prepared, dict(texts))

    def _oracle(self, state: State, uri: str) -> Oracle:
        oracle = Oracle(state.session, uri, state.bases[uri])
        self.oracle_seconds = oracle.seconds
        return oracle


# -- closed loop, one client ---------------------------------------------------------


class ClosedLoopWorkload(Workload):
    """One client sends each class once per pass, the next op only after
    the previous one returned, until ``seconds`` have passed."""

    min_passes = 5

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def perform(self, state: State, op: Op) -> list:
        raise NotImplementedError

    def before_pass(self, state: State) -> None:
        """Hook run (inside the timed wall) before each pass."""

    def run_passes(
        self, state: State, seconds: float, tally: Tally,
        perform: Optional[Callable[[State, Op], list]] = None,
    ) -> tuple[int, float]:
        perform = perform or self.perform
        ops = self.ops()
        started = time.perf_counter()
        passes = 0
        while passes < self.min_passes or time.perf_counter() - started < seconds:
            self.before_pass(state)
            for op in ops:
                self.probe.sample()
                op_started = time.perf_counter()
                try:
                    items = perform(state, op)
                except Exception as error:  # the loop must outlive a failing op
                    traceback.print_exc(limit=3)
                    tally.error(op.name, error)
                    continue
                tally.record(
                    op.name, op_started, time.perf_counter(), items, self.expected[op.expected_key]
                )
            passes += 1
        self.probe.sample()
        # One client: the wall is the ops themselves (the samples between them are not).
        busy = sum(sum(samples) for samples in tally.latencies().values())
        return tally.attempted - tally.failed, busy

    def measure(self, state: State, seconds: float, tally: Tally) -> tuple[int, float]:
        return self.run_passes(state, seconds, tally)

    def warm_up(self, state: State) -> None:
        self.before_pass(state)
        for op in self.ops():
            self.probe.sample()
            self.perform(state, op)


class AdhocCold(ClosedLoopWorkload):
    name = "adhoc_cold"
    why = (
        "ad-hoc text on a cold plan cache: the front end (isolate, then render) does "
        ">= 90 % of the work, the engines almost none"
    )
    tail_percentile = 75.0
    XMARK = ("Q1", "Q5", "Q8", "Q19")
    PATHS = (8, 16)
    banked_misses = 0

    @property
    def scale(self) -> float:
        return 0.05 if self.quick else 0.5

    def ops(self) -> list[Op]:
        xmark = [Op(name, inputs.XMARK_QUERIES[name]) for name in self.XMARK]
        paths = [Op(f"path{steps}", inputs.path_query(steps)) for steps in self.PATHS]
        return xmark + paths

    def build(self) -> State:
        texts = {
            inputs.XMARK_URI: inputs.xmark_xml(self.scale, self.seed),
            inputs.NESTED_URI: inputs.nested_xml(self.seed),
        }
        state = self._session(texts, {})
        self.warm_up(state)
        return state

    def expect(self, state: State) -> None:
        xmark = self._oracle(state, inputs.XMARK_URI)
        nested = Oracle(state.session, inputs.NESTED_URI, state.bases[inputs.NESTED_URI])
        for op in self.ops():
            oracle = nested if op.name.startswith("path") else xmark
            self.expected[op.name] = oracle.expected(op.query)

    def before_pass(self, state: State) -> None:
        # clear() also resets the cache's counters, so bank them first.
        self.banked_misses += state.session.cache_stats()["misses"]
        state.session.plan_cache.clear()

    def compilations(self, state: State) -> int:
        return self.banked_misses + state.session.cache_stats()["misses"]

    def perform(self, state: State, op: Op) -> list:
        return state.session.execute(op.query, configuration=op.engine).items


class EnginesWarm(ClosedLoopWorkload):
    name = "engines_warm"
    why = (
        "prepared plans on the three in-process engines (the paper's Table IX contrast): "
        "algebra and relational do all the work, compile and SQLite none"
    )
    tail_percentile = 80.0
    QUERIES = ("Q1", "Q2", "Q8", "Q10", "Q13", "Q19")
    ENGINES = ("stacked", "isolated", "join-graph")

    @property
    def scale(self) -> float:
        return 0.05 if self.quick else 1.0

    def ops(self) -> list[Op]:
        return [
            Op(f"{query}.{engine}", query, engine, key=query)
            for query in self.QUERIES
            for engine in self.ENGINES
        ]

    def build(self) -> State:
        texts = {inputs.XMARK_URI: inputs.xmark_xml(self.scale, self.seed)}
        state = self._session(texts, {name: inputs.XMARK_QUERIES[name] for name in self.QUERIES})
        self.warm_up(state)
        return state

    def expect(self, state: State) -> None:
        oracle = self._oracle(state, inputs.XMARK_URI)
        for name in self.QUERIES:
            self.expected[name] = oracle.expected(inputs.XMARK_QUERIES[name])

    def perform(self, state: State, op: Op) -> list:
        return state.prepared[op.query].run(engine=op.engine).items


# -- the service ---------------------------------------------------------------------


@dataclass
class Request:
    """One submitted request, stamped from outside the service."""

    op: Op
    due: float
    future: Optional["Future"] = None
    refused: Optional[BaseException] = None
    done: float = 0.0

    def _finished(self, _future: "Future") -> None:
        self.done = time.perf_counter()


class ServeSql(Workload):
    name = "serve_sql"
    why = (
        "QueryService over prepared sql plans, closed-loop saturation then open-loop "
        "arrivals: SQLite execute/decode and service queueing do the work, compile none"
    )
    tail_percentile = 95.0
    QUERIES = ("Q1", "Q13", "Q15", "Q17")
    BINDINGS = 16
    #: Open-loop arrival rate; about a fifth of what one worker sustains
    #: at the defining commit, so the queue is short but never empty.
    RATE_PER_S = 100.0
    #: Share of ``seconds`` spent in the closed-loop (throughput) phase.
    CLOSED_SHARE = 0.2
    MAX_IN_FLIGHT = 64
    #: The generating thread takes a speed sample at most this often: the
    #: kernel holds the interpreter lock for ~0.4 ms, which a worker would
    #: feel if it ran around every request.
    SAMPLE_GAP_S = 0.04

    @property
    def scale(self) -> float:
        return 0.05 if self.quick else 2.0

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        cores = usable_cores()
        #: One thread generates all load (it only sleeps and submits), so
        #: generator + workers never exceed the cores.
        self.workers = max(1, cores - 1)
        self.clients = cores
        self.bindings = inputs.price_bindings(seed, self.BINDINGS)
        self.generator_late: list[float] = []
        self._classes = [Op(name, name) for name in self.QUERIES] + [Op("price", "price")]

    def ops(self) -> list[Op]:
        """One op per class; the price class cycles its bindings via :meth:`op_at`."""
        return self._classes

    def op_at(self, class_index: int, sequence: int) -> Op:
        op = self._classes[class_index % len(self._classes)]
        if op.name != "price":
            return op
        slot = sequence % len(self.bindings)
        return Op("price", "price", bindings=self.bindings[slot], key=f"price#{slot}")

    def build(self) -> State:
        texts = {inputs.XMARK_URI: inputs.xmark_xml(self.scale, self.seed)}
        sources = {name: inputs.XMARK_QUERIES[name] for name in self.QUERIES}
        state = self._session(texts, {**sources, "price": inputs.PRICE_QUERY})
        for index in range(len(self.ops())):
            self.probe.sample()
            self.perform(state, self.op_at(index, 0))
        return state

    def expect(self, state: State) -> None:
        oracle = self._oracle(state, inputs.XMARK_URI)
        for name in self.QUERIES:
            self.expected[name] = oracle.expected(inputs.XMARK_QUERIES[name])
        for slot, bindings in enumerate(self.bindings):
            self.expected[f"price#{slot}"] = oracle.expected(inputs.PRICE_QUERY, bindings)

    def perform(self, state: State, op: Op) -> list:
        """The same request without the service (the ``service.overhead_ms`` base)."""
        return state.prepared[op.query].run(op.bindings, engine="sql").items

    def service(self, state: State) -> QueryService:
        return QueryService(
            state.session, max_workers=self.workers,
            max_in_flight=self.MAX_IN_FLIGHT, admission="reject",
        )

    def submit(self, service: QueryService, state: State, op: Op, due: float) -> Request:
        request = Request(op, due)
        try:
            request.future = service.submit(
                prepared=state.prepared[op.query], bindings=op.bindings, configuration="sql"
            )
        except ServiceError as refused:
            request.refused = refused
            request.done = time.perf_counter()
        else:
            request.future.add_done_callback(request._finished)
        return request

    def closed_loop(
        self, service: QueryService, state: State, seconds: float, clients: int
    ) -> tuple[list[Request], float]:
        """``clients`` logical clients, each with one request in flight;
        returns the requests and the phase's wall seconds at reference speed."""
        requests: list[Request] = []
        pending: set = set()
        self.probe.sample()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            while len(pending) < clients:
                sequence = len(requests)
                request = self.submit(
                    service, state, self.op_at(sequence, sequence // len(self.ops())),
                    time.perf_counter(),
                )
                requests.append(request)
                if request.future is not None:
                    pending.add(request.future)
            _done, pending = wait(pending, return_when=FIRST_COMPLETED)
            self.probe.sample(self.SAMPLE_GAP_S)
        wait(pending)
        ended = time.perf_counter()
        self.probe.sample()
        return requests, self.probe.normalised(started, ended)

    def open_loop(
        self, service: QueryService, state: State, seconds: float, rate_per_s: float
    ) -> tuple[list[Request], int]:
        """Seeded Poisson arrivals; returns the requests and the backlog
        (requests still unfinished) when the last one was sent."""
        schedule = inputs.poisson_schedule(self.seed, rate_per_s, seconds, len(self.ops()))
        requests: list[Request] = []
        per_class: dict[int, int] = defaultdict(int)
        self.probe.sample()
        started = time.perf_counter()
        for offset, class_index in schedule:
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.generator_late.append(max(0.0, time.perf_counter() - due))
            requests.append(
                self.submit(service, state, self.op_at(class_index, per_class[class_index]), due)
            )
            per_class[class_index] += 1
            self.probe.sample(self.SAMPLE_GAP_S)
        backlog = sum(1 for r in requests if r.future is not None and not r.future.done())
        wait([r.future for r in requests if r.future is not None], timeout=30)
        self.probe.sample()
        return requests, backlog

    def settle(self, requests: list[Request], tally: Tally) -> None:
        """Read every future; latency runs from the due time."""
        for request in requests:
            if request.future is None:
                tally.error(request.op.name, request.refused)
                continue
            try:
                outcome = request.future.result(timeout=30)
            except Exception as error:  # whatever the engine raised is the op's failure
                tally.error(request.op.name, error)
                continue
            tally.record(
                request.op.name, request.due, request.done,
                outcome.items, self.expected[request.op.expected_key],
            )

    def measure(self, state: State, seconds: float, tally: Tally) -> tuple[int, float]:
        closed_seconds = seconds * self.CLOSED_SHARE
        with self.service(state) as service:
            closed, wall = self.closed_loop(service, state, closed_seconds, self.clients)
            saturation = Tally(self.probe)
            self.settle(closed, saturation)
            opened, _backlog = self.open_loop(
                service, state, seconds - closed_seconds, self.RATE_PER_S
            )
            self.settle(opened, tally)
        # Latencies come from the open loop only; failures from both phases.
        tally.absorb(saturation)
        return saturation.attempted - saturation.failed, wall


# -- writes beside reads -------------------------------------------------------------


class LoadMixed(Workload):
    name = "load_mixed"
    why = (
        "documents registered one at a time beside prepared sql reads: parse, encode, "
        "mirror sync and the copy-on-write processor rebuild do the work"
    )
    tail_percentile = 80.0
    STEADY_QUERIES = 4
    MIN_ROUNDS = 2
    banked_misses = 0

    @property
    def scale(self) -> float:
        return 0.02 if self.quick else 0.1

    @property
    def documents(self) -> int:
        """Documents registered per round after the first (which the round's
        untimed preamble registers, so that the query can be prepared)."""
        return 3 if self.quick else 8

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.bindings = inputs.price_bindings(seed, self.documents * (1 + self.STEADY_QUERIES))

    @staticmethod
    def uri(index: int) -> str:
        return f"d{index:02d}.xml"

    def texts(self) -> dict[str, str]:
        return {
            self.uri(index): inputs.xmark_xml(self.scale, self.seed, tag=f"load{index}")
            for index in range(self.documents + 1)
        }

    def build(self) -> State:
        texts = self.texts()
        return self.round(texts, None)

    def expect(self, state: State) -> None:
        oracle = self._oracle(state, self.uri(0))
        for slot, bindings in enumerate(self.bindings):
            self.expected[f"price#{slot}"] = oracle.expected(inputs.PRICE_QUERY, bindings)
        # A registration answers with the new document's ``pre`` rank: the
        # node count of everything before it, counted by the oracle's walk.
        base = 0
        for index in range(self.documents + 1):
            self.expected[f"register#{index}"] = base
            base += len(pre_ranks(state.session.store.document(self.uri(index)), base))

    def round(self, texts: Mapping[str, str], tally: Optional[Tally]) -> State:
        """One fresh session: preamble, then register / query ops per document.

        With ``tally=None`` nothing is timed or checked (the build's warm-up
        round, which also is the state the oracle reads).
        """
        self.probe.sample()
        session = Session(default_document=self.uri(0))
        bases = {self.uri(0): session.register(self.uri(0), texts[self.uri(0)])}
        prepared = session.prepare(inputs.PRICE_QUERY)
        prepared.run(self.bindings[0], engine="sql")
        state = State(session, bases, {"price": prepared}, dict(texts))
        slot = 0
        for index in range(1, self.documents + 1):
            uri = self.uri(index)
            bases[uri] = self._op(
                tally, "register", f"register#{index}", lambda: session.register(uri, texts[uri])
            )
            for position in range(1 + self.STEADY_QUERIES):
                bindings = self.bindings[slot]
                self._op(
                    tally, "query_after_register" if position == 0 else "query_steady",
                    f"price#{slot}", lambda: prepared.run(bindings, engine="sql").items,
                )
                slot += 1
        self.probe.sample()
        return state

    def _op(self, tally: Optional[Tally], name: str, key: str, call: Callable[[], object]):
        """Time one op into ``tally``; returns its result (None if it failed)."""
        # The steady queries take ~0.1 ms each: a sample per op would dwarf them.
        self.probe.sample(min_gap=0.002)
        started = time.perf_counter()
        try:
            result = call()
        except Exception as error:  # the round must outlive a failing op
            if tally is None:
                raise
            traceback.print_exc(limit=3)
            tally.error(name, error)
            return None
        if tally is not None:
            tally.record(name, started, time.perf_counter(), result, self.expected[key])
        return result

    def measure(self, state: State, seconds: float, tally: Tally) -> tuple[int, float]:
        started = time.perf_counter()
        rounds = 0
        while rounds < self.MIN_ROUNDS or time.perf_counter() - started < seconds:
            finished = self.round(state.texts, tally)
            self.banked_misses += finished.session.cache_stats()["misses"]
            finished.close()
            rounds += 1
        # The wall covers only the ops: each round's preamble and teardown
        # are not requests a client sent.
        wall = sum(sum(samples) for samples in tally.latencies().values())
        return tally.attempted - tally.failed, wall

    def compilations(self, state: State) -> int:
        """Each round's session compiles in its preamble; sum over finished rounds."""
        return self.banked_misses


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AdhocCold, EnginesWarm, ServeSql, LoadMixed)
}
