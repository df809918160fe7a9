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

Also covered here: cleanup-phase rules never reject (their premises are
purely local, so the global operator invariants cannot trip), the
non-convergence ``RewriteError`` message is diagnosable (histogram + last
applications), each ``enable_*`` ablation knob produces its documented
degraded plan shape, and ``CompilationResult.rewrite_trace`` surfaces the
full provenance.
"""

import re

import pytest

from repro.errors import RewriteError
from repro.algebra.dag import count_operators, iter_nodes, node_count
from repro.algebra.operators import (
    Attach,
    Distinct,
    DocTable,
    Join,
    Operator,
    Project,
    RowId,
    RowRank,
    Serialize,
)
from repro.algebra.predicates import Predicate
from repro.algebra.render import render_plan
from repro.testing.corpus import XMARK_SUITE
from repro.testing.queries import QueryGenerator
from repro.core.properties import PlanProperties, infer_properties
from repro.core.rewrite import (
    CLEANUP_GROUP,
    RANK_GROUP,
    Rule,
    run_phases,
)
from repro.core.rewrite.rule import MATCHED, _structural_fingerprint, pattern
from repro.core.rewriter import JoinGraphIsolation, isolate
from repro.xquery.compiler import CompilerSettings, compile_query

from tests.core.restart_reference import (
    assert_driver_matches_reference,
    driver_records,
    isolate_by_restart,
    normalize,
    normalized,
)

SETTINGS = CompilerSettings(default_document="auction.xml")

RUNNABLE = tuple(case for case in XMARK_SUITE if case.refusal is None)

CLEANUP_RULE_NAMES = frozenset(rule.name for rule in CLEANUP_GROUP)

#: The generated slice the driver is compared against the reference on.
GENERATED_SEED, GENERATED_CASES = 20091, 60


def path_query(steps):
    """The harness's ``pathN`` shape: ``for $x in doc(..)//b return $x/c/c/…``."""
    return 'for $x in doc("nested.xml")//b return $x' + "/c" * steps

#: ``rules_fired()`` for every runnable XMark query, pinned so histogram
#: drift is a deliberate act, not an accident.
PINNED_HISTOGRAMS = {
    "Q1": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 9,
        "project_const_source": 16,
        "project_fuse": 20,
        "prune_attach(3)": 21,
        "prune_project(4)": 19,
        "prune_rank(2)": 8,
        "prune_rowid(1)": 1,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
        "remove_distinct(6)": 3,
    },
    "Q2": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "project_const_source": 9,
        "project_fuse": 17,
        "prune_attach(3)": 13,
        "prune_project(4)": 13,
        "prune_rank(2)": 6,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 2,
    },
    "Q3": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 14,
        "project_const_source": 9,
        "project_fuse": 31,
        "prune_attach(3)": 16,
        "prune_project(4)": 33,
        "prune_rank(2)": 10,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 5,
    },
    "Q4": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 12,
        "project_const_source": 10,
        "project_fuse": 30,
        "prune_attach(3)": 16,
        "prune_project(4)": 40,
        "prune_rank(2)": 9,
        "prune_rowid(1)": 2,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 5,
    },
    "Q5": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 8,
        "project_const_source": 11,
        "project_fuse": 19,
        "prune_attach(3)": 15,
        "prune_project(4)": 21,
        "prune_rank(2)": 8,
        "prune_rowid(1)": 1,
        "remove_distinct(6)": 4,
    },
    "Q6": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 4,
        "project_const_source": 7,
        "project_fuse": 12,
        "prune_attach(3)": 11,
        "prune_project(4)": 10,
        "prune_rank(2)": 4,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 1,
    },
    "Q8": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 15,
        "project_const_source": 10,
        "project_fuse": 35,
        "prune_attach(3)": 18,
        "prune_project(4)": 36,
        "prune_rank(2)": 11,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q9": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 29,
        "project_const_source": 12,
        "project_fuse": 60,
        "prune_attach(3)": 23,
        "prune_project(4)": 83,
        "prune_rank(2)": 17,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 4,
        "remove_distinct(6)": 7,
    },
    "Q10": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 17,
        "project_const_source": 9,
        "project_fuse": 39,
        "prune_attach(3)": 16,
        "prune_project(4)": 45,
        "prune_rank(2)": 11,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 4,
    },
    "Q11": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 16,
        "project_const_source": 10,
        "project_fuse": 37,
        "prune_attach(3)": 17,
        "prune_project(4)": 42,
        "prune_rank(2)": 10,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 4,
    },
    "Q12": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 19,
        "project_const_source": 11,
        "project_fuse": 42,
        "prune_attach(3)": 20,
        "prune_project(4)": 43,
        "prune_rank(2)": 12,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 6,
    },
    "Q13": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 5,
        "project_const_source": 12,
        "project_fuse": 11,
        "prune_attach(3)": 14,
        "prune_project(4)": 6,
        "prune_rank(2)": 5,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
    },
    "Q15": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "project_const_source": 16,
        "project_fuse": 15,
        "prune_attach(3)": 18,
        "prune_project(4)": 8,
        "prune_rank(2)": 7,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
    },
    "Q16": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 10,
        "project_const_source": 9,
        "project_fuse": 25,
        "prune_attach(3)": 12,
        "prune_project(4)": 28,
        "prune_rank(2)": 9,
        "prune_rowid(1)": 1,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q17": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "project_const_source": 9,
        "project_fuse": 19,
        "prune_attach(3)": 15,
        "prune_project(4)": 18,
        "prune_rank(2)": 6,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q19": {
        "cross_to_attach(5)": 1,
        "introduce_distinct(8)": 1,
        "key_join_collapse(9*)": 8,
        "project_const_source": 9,
        "project_fuse": 18,
        "prune_attach(3)": 12,
        "prune_project(4)": 13,
        "prune_rank(2)": 7,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 2,
    },
    "Q20": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 8,
        "project_const_source": 12,
        "project_fuse": 18,
        "prune_attach(3)": 16,
        "prune_project(4)": 18,
        "prune_rank(2)": 7,
        "prune_rowid(1)": 1,
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

    # Cleanup rules only ever shrink what is already there — their
    # premises are local, so the global operator invariants cannot trip.
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


@pytest.mark.parametrize("steps", (8, 16, 32))
def test_drivers_agree_on_path_queries(steps):
    """... and over the benchmark harness's query-size shape (``pathN``)."""
    report = assert_driver_matches_reference(compile_query(path_query(steps), SETTINGS))
    assert report.steps > 0


@pytest.mark.parametrize("case", RUNNABLE, ids=lambda case: case.name)
def test_migrated_properties_equal_cold_inference_at_every_step(case, monkeypatch):
    """The property store the driver keeps for a whole run changes nothing.

    After every step the id-keyed values, re-inferred from the glue's dirty
    frontier only, must equal what a cold ``infer_properties`` computes for
    the thawed plan as it then stands — for exactly its nodes, no entry of
    a dropped node left behind.
    """
    refreshes = 0
    refresh = PlanProperties.refresh

    def checked_refresh(warm, order, parents, glued):
        nonlocal refreshes
        refreshes += 1
        changed = refresh(warm, order, parents, glued)
        cold = infer_properties(warm.root)
        for name in ("_icols", "_const", "_keys", "_set", "_refs"):
            assert getattr(warm, name) == getattr(cold, name), (
                f"{name[1:]} diverged from cold inference at step {refreshes}"
            )
        return changed

    monkeypatch.setattr(PlanProperties, "refresh", checked_refresh)
    _isolated, report = JoinGraphIsolation().isolate(
        compile_query(case.xquery, SETTINGS)
    )
    assert refreshes == report.steps > 0


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
    (2-4 operators) plus the odd throw-away validation rebuild, never the
    ancestor cone.  Rebuilding it cost 29 / 45 / 76 constructions per step on
    ``path8`` / ``path16`` / ``path32`` — a change that quietly reintroduces
    that fails here rather than in a benchmark.
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
        assert per_step[steps] <= 15
    assert per_step[32] <= 1.25 * per_step[8]
    assert totals[32] <= 2.2 * totals[16]


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
    right = Attach(Project(doc, [("b", "pre"), ("dead", "size")]), "unused", 2)
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

    reference_plan, applications, rejections = isolate_by_restart(plan, phases)
    driver_plan, driver = run_phases(plan, phases)
    steps, rejected = driver_records(driver.steps, driver.rejections)

    assert steps == normalized(applications) and len(steps) >= 2
    assert rejected == normalized(rejections)
    assert render_plan(driver_plan) == render_plan(reference_plan)
    # One rejection per walk: one walk per applied step plus the final,
    # rule-less one — a memoized rejection would show up as fewer.
    assert len(driver.rejections) == len(steps) + 1
    assert {r.rule for r in driver.rejections} == {"always_rejected"}
    assert [r.step for r in driver.rejections] == list(range(len(steps) + 1))
    assert all("join inputs share columns" in r.error for r in driver.rejections)
