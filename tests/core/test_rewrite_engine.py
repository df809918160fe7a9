"""Driver vs. reference, pinned XMark histograms, ablations, and provenance.

The worklist driver's memos, skips and in-place gluing must be an
*optimisation only*: on every runnable XMark query, a seeded slice of
generated queries and the harness's ``pathN`` shapes it has to apply the
identical rule sequence, record the identical rejections, and produce the
identical plan as the restart-from-root reference loop
(``restart_reference.py``); the property values it keeps from step to step
must equal a cold inference on the same plan; the plan it was handed must
come back untouched; and what a step constructs must not grow with the plan.  The histograms below are additionally **pinned** — a
change to any count is a behaviour change of the rewrite system and must
be deliberate, not incidental.

Also covered here: cleanup-phase rules and the normaliser never reject
(their premises are purely local, so the global operator invariants cannot
trip), the non-convergence ``RewriteError`` message is diagnosable
(histogram + last applications) and raised by compilation, 64 nested
predicates converge, each ``enable_*`` ablation knob produces its
documented degraded plan shape, and ``CompilationResult.rewrite_trace``
surfaces the full provenance.
"""

import re

import pytest

from repro.errors import RewriteError
from repro.algebra.dag import count_operators, iter_nodes, node_count
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    DocTable,
    Join,
    LiteralTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate
from repro.algebra.render import render_plan
from repro.testing.corpus import XMARK_SUITE
from repro.testing.queries import QueryGenerator
from repro.core.properties import PlanProperties, infer_properties
from repro.core.pipeline import XQueryProcessor
from repro.core.rewrite import (
    CLEANUP_GROUP,
    RANK_GROUP,
    REGISTRY,
    Rule,
    RuleContext,
    WorklistDriver,
    run_phases,
)
from repro.core.rewrite.normalize import NORMALIZE
from repro.core.rewrite.rule import MATCHED, _structural_fingerprint, pattern
from repro.core.rewriter import JoinGraphIsolation, isolate
from repro.xmldb.encoding import encode_document
from repro.xmldb.parser import parse_xml
from repro.xquery.compiler import CompilerSettings, compile_query

from tests.core.restart_reference import (
    assert_driver_matches_reference,
    driver_records,
    for_query,
    full_render,
    isolate_by_restart,
    normalize,
    normalized,
    path_query,
    pred_query,
)

SETTINGS = CompilerSettings(default_document="auction.xml")

RUNNABLE = tuple(case for case in XMARK_SUITE if case.refusal is None)

CLEANUP_RULE_NAMES = frozenset(rule.name for rule in CLEANUP_GROUP) | {NORMALIZE}

#: The generated slice the driver is compared against the reference on.
GENERATED_SEED, GENERATED_CASES = 20091, 60


#: ``rules_fired()`` for every runnable XMark query, pinned so histogram
#: drift is a deliberate act, not an accident.
PINNED_HISTOGRAMS = {
    "Q1": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 9,
        "normalize(1-4)": 13,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
        "remove_distinct(6)": 3,
    },
    "Q2": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "normalize(1-4)": 12,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 2,
    },
    "Q3": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 14,
        "normalize(1-4)": 20,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 5,
    },
    "Q4": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 12,
        "normalize(1-4)": 18,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 5,
    },
    "Q5": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 8,
        "normalize(1-4)": 11,
        "remove_distinct(6)": 4,
    },
    "Q6": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 4,
        "normalize(1-4)": 10,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 1,
    },
    "Q8": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 15,
        "normalize(1-4)": 21,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q9": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 29,
        "normalize(1-4)": 38,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 4,
        "remove_distinct(6)": 7,
    },
    "Q10": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 17,
        "normalize(1-4)": 24,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 4,
    },
    "Q11": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 16,
        "normalize(1-4)": 23,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 4,
    },
    "Q12": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 19,
        "normalize(1-4)": 27,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 6,
    },
    "Q13": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 5,
        "normalize(1-4)": 8,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
    },
    "Q15": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "normalize(1-4)": 10,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
    },
    "Q16": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 10,
        "normalize(1-4)": 16,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q17": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "normalize(1-4)": 13,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q19": {
        "cross_to_attach(5)": 1,
        "introduce_distinct(8)": 1,
        "key_join_collapse(9*)": 8,
        "normalize(1-4)": 14,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 2,
    },
    "Q20": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 8,
        "normalize(1-4)": 11,
        "remove_distinct(6)": 3,
    },
}


# -- driver vs. reference + pinned histograms ---------------------------------------


@pytest.mark.parametrize("case", RUNNABLE, ids=lambda case: case.name)
def test_drivers_agree_and_histograms_are_pinned(case):
    # The worklist driver is an optimisation only: identical applications,
    # identical rejections, identical isolated plan.
    report = assert_driver_matches_reference(compile_query(case.xquery, SETTINGS))

    # Pinned counts: a drifted histogram is a behaviour change.
    assert report.rules_fired() == PINNED_HISTOGRAMS[case.name]

    # Cleanup rules and the normaliser only ever shrink what is already
    # there — their premises are local, so the global operator invariants
    # cannot trip.
    for rejection in report.rejections:
        assert rejection.rule not in CLEANUP_RULE_NAMES, (
            f"cleanup rule {rejection.rule!r} rejected on {case.name}"
        )


@pytest.mark.parametrize(
    "query", QueryGenerator(GENERATED_SEED).corpus(GENERATED_CASES), ids=lambda q: q.index
)
def test_drivers_agree_on_generated_queries(query):
    """The same comparison over a seeded slice of the property-test
    generator: value joins, aggregates, quantifiers, positionals, order by."""
    report = assert_driver_matches_reference(
        compile_query(query.source, SETTINGS), f"(generated: {query.source!r})"
    )
    assert report.steps > 0


@pytest.mark.parametrize("steps", (8, 16, 32, 64))
def test_drivers_agree_on_path_queries(steps):
    """... and over the benchmark harness's query-size shape (``pathN``)."""
    report = assert_driver_matches_reference(compile_query(path_query(steps), SETTINGS))
    assert report.steps > 0


def test_drivers_agree_on_nested_fors():
    """... and over nested FLWORs (``for16``), where isolation time grew
    fastest with depth."""
    report = assert_driver_matches_reference(compile_query(for_query(16), SETTINGS))
    assert report.steps > 0


@pytest.mark.parametrize("depth", (8, 16))
def test_drivers_agree_on_nested_predicates(depth):
    """... and over nested predicates, where the skipped re-tries are deepest
    (80 / 144 steps at depth 8 / 16)."""
    report = assert_driver_matches_reference(compile_query(pred_query(depth), SETTINGS))
    assert report.steps > 0


def _fused_over_a_narrowed_projection():
    """A shared π narrowed by the pass while another π fuses through a
    third one onto it: the fused π is built over the shared π's old self
    and re-pointed at its replacement by the glue, so the pass's new nodes
    are not parents-first in the order they were built."""
    shared = Project(LiteralTable(("c0", "c1"), []), [("c5", "c0"), ("c6", "c0")])
    left = Project(shared, [("s0_c5", "c5"), ("s0_c6", "c6")])
    right = Project(Project(shared, [("c7", "c5")]), [("s1_c7", "c7")])
    return Serialize(Project(Cross(left, right), [("s0_c5", "s0_c5")]))


#: Plans whose kept properties are checked against cold inference at every
#: absorb: the runnable XMark queries, nested predicates and nested FLWORs,
#: and one pass whose glue re-points a new node at another.
MIGRATION_CASES = [
    pytest.param(lambda xquery=case.xquery: compile_query(xquery, SETTINGS), id=case.name)
    for case in RUNNABLE
] + [
    pytest.param(lambda: compile_query(pred_query(32), SETTINGS), id="pred32"),
    pytest.param(lambda: compile_query(for_query(16), SETTINGS), id="for16"),
    pytest.param(_fused_over_a_narrowed_projection, id="fused-over-narrowed"),
]


def test_a_pass_that_fuses_over_a_projection_it_narrows_matches_the_reference():
    plan = _fused_over_a_narrowed_projection()
    phases = [("normalize", CLEANUP_GROUP)]
    reference_plan, applications, _rejections = isolate_by_restart(plan, phases, normalize=True)
    driver_plan, driver = run_phases(plan, phases, normalize=True)
    assert driver_records(driver.steps, driver.rejections)[0] == normalized(applications)
    assert normalize(full_render(driver_plan)) == normalize(full_render(reference_plan))


@pytest.mark.parametrize("build", MIGRATION_CASES)
def test_migrated_properties_equal_cold_inference_at_every_step(build, monkeypatch):
    """The property store the driver keeps for a whole run changes nothing.

    After every absorb — a structural step fused with its normaliser pass,
    or the input plan's pass — the id-keyed values, re-inferred from the
    glues' dirty frontiers and taken from the needs the pass computed,
    must equal what a cold ``infer_properties`` computes for the thawed
    plan as it then stands — for exactly its nodes, no entry of a dropped
    node left behind.
    """
    names = ("_needed", "_const", "_keys", "_set")
    absorbs = 0
    #: The store after the last absorb, then before each pass glue since.
    states: list[dict] = []
    init, absorb, retry = PlanProperties.__init__, PlanProperties.absorb, WorklistDriver._retry

    def snapshot(properties):
        states.append({name: dict(getattr(properties, name)) for name in names})

    def recording_init(properties, *args, **kwargs):
        init(properties, *args, **kwargs)
        if not states:  # the driver's store, not a cold inference below
            snapshot(properties)

    def recording_absorb(properties, *args):
        snapshot(properties)
        return absorb(properties, *args)

    def checked_retry(driver, ctx, absorbed):
        nonlocal absorbs
        absorbs += 1
        warm = ctx.properties
        cold = infer_properties(warm.root)
        for name in names:
            assert getattr(warm, name) == getattr(cold, name), (
                f"{name[1:]} diverged from cold inference at absorb {absorbs}"
            )
        # What each glue's absorb reports as changed is exactly what it moved
        # (a new node moves from nothing): the driver re-tries nodes on these
        # events.
        snapshot(warm)
        for (_glued, top_down, bottom_up), (old, new) in zip(
            absorbed, list(zip(states, states[1:]))[-len(absorbed):]
        ):

            def moved(*changed):
                return {
                    node_id
                    for node_id in new["_needed"]
                    if any(old[name].get(node_id) != new[name][node_id] for name in changed)
                }

            assert {id(node) for node in bottom_up} == moved("_const", "_keys"), (
                f"bottom-up changes misreported at absorb {absorbs}"
            )
            assert {id(node) for node in top_down} == moved("_needed", "_set"), (
                f"top-down changes misreported at absorb {absorbs}"
            )
            assert len(bottom_up) == len(set(map(id, bottom_up)))
            assert len(top_down) == len(set(map(id, top_down)))
        del states[:-1]
        retry(driver, ctx, absorbed)

    plan = build()
    monkeypatch.setattr(PlanProperties, "__init__", recording_init)
    monkeypatch.setattr(PlanProperties, "absorb", recording_absorb)
    monkeypatch.setattr(WorklistDriver, "_retry", checked_retry)
    _isolated, report = JoinGraphIsolation().isolate(plan)
    structural = [step for step in report.applications if step.rule != NORMALIZE]
    initial = report.applications[0].rule == NORMALIZE
    assert absorbs == len(structural) + initial > 0


# -- the input plan is not the scratch pad --------------------------------------------


@pytest.mark.parametrize("name", ("Q1", "Q8", "Q19"))
def test_isolating_one_stacked_plan_twice(name):
    (case,) = [case for case in RUNNABLE if case.name == name]
    stacked = compile_query(case.xquery, SETTINGS)
    fingerprint = _structural_fingerprint(stacked)
    first_plan, first = JoinGraphIsolation().isolate(stacked)
    second_plan, second = JoinGraphIsolation().isolate(stacked)

    assert _structural_fingerprint(stacked) == fingerprint
    assert driver_records(first.applications, first.rejections) == driver_records(
        second.applications, second.rejections
    )
    assert normalize(render_plan(first_plan)) == normalize(render_plan(second_plan))
    inner = {id(node) for node in iter_nodes(stacked) if not node.is_leaf}
    assert not inner & {id(node) for node in iter_nodes(first_plan)}
    assert not inner & {id(node) for node in iter_nodes(second_plan)}


def test_stacked_configuration_still_answers_after_isolation(small_processor):
    query = 'doc("auction.xml")/descendant::open_auction[bidder]'
    compiled = small_processor.compile(query)
    fingerprint = _structural_fingerprint(compiled.stacked_plan)
    # ``compile`` isolated ``stacked_plan`` already; the plan cache hands both
    # executions this one CompilationResult.
    assert small_processor.compile(query) is compiled
    isolated = small_processor.execute(query, configuration="isolated")
    stacked = small_processor.execute(query, configuration="stacked")
    assert stacked.items == isolated.items and stacked.items
    assert _structural_fingerprint(compiled.stacked_plan) == fingerprint


# -- a deterministic cost guard, no clock ---------------------------------------------


def test_a_step_costs_the_match_not_the_plan(monkeypatch):
    """``Operator.__init__`` calls per applied step stay flat in plan size.

    The driver glues in place: a step constructs the rule's own replacement
    (2-4 operators) or the normaliser's rebuilt projections, never the
    ancestor cone; the thaw copies without constructing and glue validation
    builds nothing (3.1 / 3.4 / 3.7 per step on ``path8`` / ``path16`` /
    ``path32``; 8.0 / 8.5 / 8.9 while the thaw constructed its copies and
    validation rebuilt each re-validated parent).  Rebuilding the cone cost
    29 / 45 / 76 constructions per step — a change that quietly reintroduces
    any of these fails here rather than in a benchmark.
    """
    constructed = 0
    init = Operator.__init__

    def counting_init(self, children, columns):
        nonlocal constructed
        constructed += 1
        init(self, children, columns)

    totals, per_step = {}, {}
    for steps in (8, 16, 32):
        plan = compile_query(path_query(steps), SETTINGS)
        constructed = 0
        with monkeypatch.context() as patch:
            patch.setattr(Operator, "__init__", counting_init)
            _isolated, report = JoinGraphIsolation().isolate(plan)
        totals[steps] = constructed
        per_step[steps] = constructed / report.steps
        assert per_step[steps] <= 5
    assert per_step[32] <= 1.25 * per_step[8]
    assert totals[32] <= 2.2 * totals[16]


def test_a_step_costs_its_frontier():
    """Rule attempts and full re-walks per applied step stay near flat.

    A failed node is re-tried only on an event its guards' recorded reads
    can see, and the post-order is spliced, not re-walked.  The bounds are
    half the attempts a driver makes that re-tries every ancestor of a glue
    point (28.4 / 45.7 / 79.5 / 146.4 per step on ``path8`` … ``path64``,
    31.4 over the runnable XMark queries), so reintroducing that fails here.
    """
    before = {8: 28.4, 16: 45.7, 32: 79.5, 64: 146.4}
    per_step, steps, rewalks = {}, 0, 0
    for size, attempts in before.items():
        _plan, driver = run_phases(
            compile_query(path_query(size), SETTINGS),
            JoinGraphIsolation().phases(),
            normalize=True,
        )
        per_step[size] = driver.attempts / driver.step_count
        assert per_step[size] <= attempts / 2, (size, per_step[size])
        steps += driver.step_count
        rewalks += driver.rewalks
    assert per_step[64] <= 2 * per_step[8]
    xmark_steps = xmark_attempts = 0
    for case in RUNNABLE:
        _plan, driver = run_phases(
            compile_query(case.xquery, SETTINGS), JoinGraphIsolation().phases(), normalize=True
        )
        xmark_steps += driver.step_count
        xmark_attempts += driver.attempts
        rewalks += driver.rewalks
    assert xmark_attempts / xmark_steps <= 31.4 / 2
    assert rewalks <= 0.05 * (steps + xmark_steps)


#: Every query the kept post-order is checked on, step by step.
ORDER_CASES = (
    [pytest.param(case.xquery, id=case.name) for case in RUNNABLE]
    + [
        pytest.param(query.source, id=f"generated{query.index}")
        for query in QueryGenerator(GENERATED_SEED).corpus(GENERATED_CASES)
    ]
    + [pytest.param(path_query(steps), id=f"path{steps}") for steps in (8, 16, 32)]
)


@pytest.mark.parametrize("query", ORDER_CASES)
def test_kept_post_order_equals_a_fresh_walk_at_every_step(query, monkeypatch):
    """The post-order the driver splices each glue into is the plan's own.

    It is the scan order (which node is tried first) and the order the
    property refresh relies on, so after every step it must equal a fresh
    ``iter_nodes`` walk, positions and stretch starts included.
    """
    checked = 0
    place = WorklistDriver._place

    def checked_place(driver, ctx, *pending):
        nonlocal checked
        place(driver, ctx, *pending)
        checked += 1
        walked = list(iter_nodes(ctx.root))
        assert driver._order == walked, f"kept order diverged at step {checked}"
        assert driver._position == {id(node): at for at, node in enumerate(walked)}
        fresh = WorklistDriver(0)
        fresh._walk(ctx.root)
        assert driver._first.keys() == fresh._first.keys()
        assert all(driver._first[key] is first for key, first in fresh._first.items())

    monkeypatch.setattr(WorklistDriver, "_place", checked_place)
    _isolated, report = JoinGraphIsolation().isolate(compile_query(query, SETTINGS))
    assert checked == report.steps > 0


@pytest.mark.parametrize("query", ORDER_CASES)
def test_every_skipped_node_still_fails(query, monkeypatch):
    """The failure memo is sound even where the trace cannot tell.

    Agreement with the reference only shows that no skipped node would
    have matched *first*.  Before every scan, every node the driver skips
    must still fail its whole bucket on the plan as it stands.
    """
    scans = 0
    step = WorklistDriver._step

    def checked_step(driver, ctx, index, phase):
        nonlocal scans
        scans += 1
        for node in iter_nodes(ctx.root):
            if id(node) in driver._dirty or isinstance(node, Serialize):
                continue
            for rule in index.for_node(node):
                assert rule.apply(node, ctx) is None, (
                    f"skipped {node.label()!r} matches {rule.name} at scan {scans}"
                )
        return step(driver, ctx, index, phase)

    monkeypatch.setattr(WorklistDriver, "_step", checked_step)
    _isolated, report = JoinGraphIsolation().isolate(compile_query(query, SETTINGS))
    structural = [step for step in report.applications if step.rule != NORMALIZE]
    assert scans > len(structural) > 0


# -- fresh names are numbered per run ------------------------------------------------


def test_fresh_names_do_not_depend_on_process_history(small_auction_encoding):
    """Two processors in one process (each compiles afresh into its own
    plan cache) isolate every query to the same plan text and trace."""

    def isolate_all():
        processor = XQueryProcessor(small_auction_encoding, default_document="auction.xml")
        runs = {}
        for case in RUNNABLE:
            compiled = processor.compile(case.xquery)
            runs[case.name] = (
                render_plan(compiled.isolated_plan, max_label_width=1 << 30),
                [(s.rule, s.target, s.replacement) for s in compiled.rewrite_trace.steps],
            )
        return runs

    first = isolate_all()
    assert any("_w" in text for text, _trace in first.values())
    assert isolate_all() == first


@pytest.mark.parametrize("name", ("Q8", "Q9"))
def test_reisolating_an_isolated_plan_keeps_fresh_names_fresh(name):
    (case,) = [case for case in RUNNABLE if case.name == name]
    isolated, _report = JoinGraphIsolation().isolate(compile_query(case.xquery, SETTINGS))
    taken = {column for node in iter_nodes(isolated) for column in node.columns}
    assert any("_w" in column for column in taken)
    ctx = RuleContext(isolated, infer_properties(isolated))
    for hint in {column.rsplit("_w", 1)[0] for column in taken if "_w" in column}:
        assert ctx.fresh_column(hint) not in taken
    again, report = JoinGraphIsolation().isolate(isolated)
    assert report.converged
    assert normalize(render_plan(again)) == normalize(render_plan(isolated))


# -- non-convergence diagnostics ----------------------------------------------------


def test_divergence_error_includes_histogram_and_tail():
    plan = compile_query(RUNNABLE[0].xquery, SETTINGS)
    with pytest.raises(RewriteError) as excinfo:
        isolate(plan, JoinGraphIsolation(max_steps=3))
    message = str(excinfo.value)
    assert "did not converge within 3 steps" in message
    assert "rules fired:" in message
    assert "last" in message and "applications:" in message
    # The histogram names actual rules, not an empty placeholder.
    assert re.search(r"\w+.*×\d+", message)


# -- depth: deep nesting converges, and the step guard is a classified error ----------


@pytest.fixture(scope="module")
def nested_processor():
    encoding = encode_document(parse_xml("<a><b><b/></b></a>", uri="nested.xml"))
    return XQueryProcessor(encoding, default_document="nested.xml")


def test_sixty_four_nested_predicates_converge(nested_processor):
    """``a[b[b[…]]]`` 64 deep isolates well within the default 5 000-step
    guard: the normaliser's work is one step per structural step, not one
    per pruned column."""
    report = nested_processor.compile(pred_query(64)).isolation_report
    assert report.converged
    assert report.steps < 1000


def test_compilation_raises_when_the_step_guard_stops_isolation(nested_processor):
    with pytest.raises(RewriteError, match="did not converge within 10 steps"):
        nested_processor.compile(pred_query(8), JoinGraphIsolation(max_steps=10))


# -- ablation knobs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def q1_plan():
    return compile_query('doc("auction.xml")/descendant::open_auction[bidder]', SETTINGS)


@pytest.fixture(scope="module")
def q1_full(q1_plan):
    return JoinGraphIsolation().isolate(q1_plan)


def test_ablation_no_cleanup_fires_no_cleanup_rules(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, report = JoinGraphIsolation(enable_cleanup=False).isolate(q1_plan)
    assert report.converged
    assert not set(report.rules_fired()) & CLEANUP_RULE_NAMES
    # Without house cleaning the dead operators stay in the plan.
    assert node_count(partial) > node_count(full_plan)


def test_ablation_no_rank_goal_leaves_ranks_in_place(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, report = JoinGraphIsolation(enable_rank_goal=False).isolate(q1_plan)
    assert report.converged
    rank_rules = {rule.name for rule in RANK_GROUP}
    assert not set(report.rules_fired()) & rank_rules
    assert count_operators(partial, RowRank) >= count_operators(full_plan, RowRank)


def test_ablation_no_distinct_goal_fires_no_distinct_rules(q1_plan):
    partial, report = JoinGraphIsolation(enable_distinct_goal=False).isolate(q1_plan)
    assert report.converged
    assert not any("distinct" in rule for rule in report.rules_fired())


def test_ablation_no_join_goals_keeps_the_join_bundle(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, report = JoinGraphIsolation(
        enable_join_goal=False, enable_distinct_goal=False
    ).isolate(q1_plan)
    assert report.converged
    assert count_operators(partial, Join) > count_operators(full_plan, Join)
    assert "key_join_collapse(9*)" not in report.rules_fired()


def test_ablation_all_goals_off_still_converges(q1_plan):
    config = JoinGraphIsolation(
        enable_cleanup=False,
        enable_rank_goal=False,
        enable_distinct_goal=False,
        enable_join_goal=False,
    )
    partial, report = config.isolate(q1_plan)
    assert report.converged
    assert report.applications == []
    assert node_count(partial) == node_count(q1_plan)


def test_ablation_no_distinct_goal_may_leave_extra_distincts(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, _report = JoinGraphIsolation(
        enable_distinct_goal=False, enable_join_goal=False
    ).isolate(q1_plan)
    assert count_operators(partial, Distinct) >= count_operators(full_plan, Distinct)


# -- provenance surface -------------------------------------------------------------


def test_compilation_result_exposes_rewrite_trace(small_processor):
    result = small_processor.compile(
        'doc("auction.xml")/descendant::open_auction[bidder]'
    )
    trace = result.rewrite_trace
    assert trace.steps == tuple(result.isolation_report.applications)
    assert trace.rejections == tuple(result.isolation_report.rejections)
    assert trace.rules_fired() == result.isolation_report.rules_fired()
    assert trace.converged
    rendered = trace.render()
    assert rendered.startswith("isolation:")
    # Every applied step appears in the rendering, in order.
    for step in trace.steps:
        assert step.rule in rendered


def test_trace_records_node_identities(small_processor):
    trace = small_processor.compile(
        'doc("auction.xml")//open_auction/child::bidder'
    ).rewrite_trace
    assert trace.steps
    for position, step in enumerate(trace.steps):
        assert step.index == position
        assert step.target_id != 0
        assert step.replacement_id != 0
    # A later step may rewrite an earlier step's replacement; identities
    # make that correlation observable.
    replacement_ids = {step.replacement_id for step in trace.steps}
    assert any(step.target_id in replacement_ids for step in trace.steps[1:])


# -- the rejection path --------------------------------------------------------------


def test_globally_rejected_rule_is_recorded_per_visit_and_never_memoized():
    """A rule whose replacement always trips a far ancestor's constructor.

    No XMark or generated query produces a rejection, so this drives the
    path synthetically: the rule renames the ``⋈``'s left join column under
    a ``#``, which makes the join two levels up unconstructible.  Every
    walk that reaches the ``#`` must record one rejection (the pair is never
    memoized), leave the plan untouched, and keep scanning — exactly what the
    restart reference does.
    """
    doc = DocTable()
    left = RowId(Project(doc, [("a", "pre")]), "x")
    right = Cross(
        Project(doc, [("b", "pre"), ("dead", "size")]), LiteralTable(("unused",), [(2,)])
    )
    joined = Join(Distinct(left), right, Predicate.equality("a", "b"))
    plan = Serialize(Project(joined, [("pos", "a"), ("item", "x")]))
    always_rejected = Rule(
        name="always_rejected",
        pattern=pattern(RowId),
        guard=lambda node, ctx: MATCHED,
        build=lambda node, match, ctx: Project(node, [("b", "a"), ("x", "x")]),
        exemplar=lambda: plan,
    )
    phases = [("synthetic", (always_rejected,) + CLEANUP_GROUP)]

    reference_plan, applications, rejections = isolate_by_restart(plan, phases, normalize=True)
    driver_plan, driver = run_phases(plan, phases, normalize=True)
    steps, rejected = driver_records(driver.steps, driver.rejections)

    assert steps == normalized(applications)
    assert rejected == normalized(rejections)
    assert render_plan(driver_plan) == render_plan(reference_plan)
    # One rejection per walk: one walk per structural step (each starts
    # where the previous step and its normaliser pass left the count) plus
    # the final, rule-less one — a memoized rejection would show up as fewer.
    walks = [step.index for step in driver.steps if step.rule != NORMALIZE]
    assert [rule for rule, _target, _replacement in steps] == [
        NORMALIZE, "cross_to_attach(5)", NORMALIZE
    ]
    assert [r.step for r in driver.rejections] == walks + [len(steps)]
    assert {r.rule for r in driver.rejections} == {"always_rejected"}
    assert all("join inputs share columns" in r.error for r in driver.rejections)


# -- the re-try channels, one synthetic plan each -------------------------------------
#
# On the corpus above a node's own events happen to re-try every failure that
# later matches; these plans isolate one channel each, so a driver that
# dropped it would skip an application the reference makes.


def _agrees_with_reference(plan, rules):
    phases = [("synthetic", rules)]
    reference_plan, applications, rejections = isolate_by_restart(plan, phases)
    driver_plan, driver = run_phases(plan, phases)
    steps, rejected = driver_records(driver.steps, driver.rejections)
    assert steps == normalized(applications)
    assert rejected == normalized(rejections)
    assert normalize(full_render(driver_plan)) == normalize(full_render(reference_plan))
    return [rule for rule, _target, _replacement in steps]


def _synthetic(name, root, guard, build=lambda node, match, ctx: node.child):
    return Rule(name=name, pattern=pattern(root), guard=guard, build=build, exemplar=lambda: None)


def test_a_premise_failure_is_retried_when_the_compared_origins_move():
    """ϱ r is compared by the σ, so rule (12) fails on it for the premise
    only: dropping the σ leaves ϱ's own state as it was (the π above still
    needs ``r``), and only the premise channel re-tries it."""
    rank = RowRank(DocTable(), "r", ("pre",))
    selected = Select(rank, Predicate.of(Comparison(ColumnRef("r"), "=", Literal(1))))
    plan = Serialize(Project(selected, [("pos", "r"), ("item", "pre")]))
    drop_select = _synthetic("drop_select", Select, lambda node, ctx: MATCHED)
    fired = _agrees_with_reference(plan, (REGISTRY.get("rank_to_project(12)"), drop_select))
    assert fired == ["drop_select", "rank_to_project(12)"]


def _shared_rowid_plan(consumer):
    """``T = # r`` over doc, read by ``consumer(π r, pre (T))`` and by a
    ``π s:size, pre2:pre (T)`` beside it.  A first step drops ``s``, which
    frees ``size`` below ``T`` and so lets ``T`` be swapped — after
    ``consumer`` has already failed, and without an event of its own."""
    row_id = RowId(DocTable(), "r")
    side = Project(row_id, [("s", "size"), ("pre2", "pre")])
    body = Cross(consumer(Project(row_id, [("r", "r"), ("pre", "pre")])), side)
    plan = Serialize(Project(body, [("pos", "pre"), ("item", "pre2")]))
    drop_s = _synthetic(
        "drop_s",
        Project,
        lambda node, ctx: MATCHED if ("s", "size") in node.items else None,
        lambda node, match, ctx: Project(node.child, [i for i in node.items if i[0] != "s"]),
    )
    return plan, drop_s


def _swap(replacement):
    return _synthetic(
        "swap",
        RowId,
        lambda node, ctx: None if "size" in ctx.properties.needed(node) else MATCHED,
        lambda node, match, ctx: replacement(node.child),
    )


def test_a_deep_failure_is_retried_when_its_subtree_changes():
    """The δ's guard traces ``r`` to its origin; swapping ``# r`` for
    ``ϱ r:⟨pre⟩`` moves that origin but no ``const`` / ``keys`` value, so
    only the all-ancestors channel re-tries the δ."""
    plan, drop_s = _shared_rowid_plan(Distinct)
    by_rank = _synthetic(
        "by_rank",
        Distinct,
        lambda node, ctx: MATCHED if isinstance(ctx.origin(node.child, "r")[0], RowRank) else None,
    )
    swap = _swap(lambda child: RowRank(child, "r", ("pre",)))
    fired = _agrees_with_reference(plan, (swap, by_rank, drop_s))
    assert fired == ["drop_s", "swap", "by_rank"]


def test_a_failure_is_retried_when_a_childs_const_changes():
    """The outer π's guard reads its child's ``const``; swapping ``# r`` for
    ``@ r:0`` makes ``r`` constant there but not in the π's own (projected)
    state, so only the child-``const`` event re-tries it."""
    plan, drop_s = _shared_rowid_plan(lambda child: Project(child, [("pre", "pre")]))
    const_below = _synthetic(
        "const_below",
        Project,
        lambda node, ctx: MATCHED
        if "r" not in node.column_set and "r" in ctx.properties.const(node.child)
        else None,
        lambda node, match, ctx: Project(node.child.child, list(node.items)),
    )
    swap = _swap(lambda child: Attach(child, "r", 0))
    fired = _agrees_with_reference(plan, (swap, const_below, drop_s))
    assert fired[:3] == ["drop_s", "swap", "const_below"]
