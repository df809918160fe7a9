"""The goal-directed join graph isolation rewriter (Section III of the paper).

The rewriting proceeds through the paper's goals:

1. **house cleaning** — the simplification rules (1)-(5), (10), (12), (13)
   are applied until no more of them fire;
2. **goal ϱ** — the row-rank operators are simplified and moved towards the
   plan tail (rules (12)-(14), (16), (17));
3. **goals δ and ⋈** — a single duplicate elimination is established in the
   plan tail and the equi-joins introduced by loop lifting (and the
   ``pre = item`` context joins) are collapsed (rules (6)-(8) and the
   generalised rule (9*));
4. **final cleaning** — a last house-cleaning pass removes operators whose
   attached columns became unreferenced during the join collapses.

The rules themselves are declarative :class:`~repro.core.rewrite.rule.Rule`
objects (:mod:`repro.core.rewrite.rules`); this module assembles them into
the goal sequence and hands the sequence to the pattern-indexed worklist
driver of :mod:`repro.core.rewrite.engine`.

The applicability of each rule is decided locally on a single operator and
its inferred properties (Tables II-V), exactly as the paper's peephole
strategy prescribes.  Progress is guaranteed because every rule either
removes an operator, strictly shrinks one, or replaces a join by a narrower
plan; a step limit guards against bugs nonetheless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RewriteError
from repro.algebra.dag import node_count
from repro.algebra.operators import Serialize
from repro.core.rewrite.engine import Phase, run_phases
from repro.core.rewrite.rule import Rule
from repro.core.rewrite.rules import CLEANUP_GROUP, JOIN_GROUP, RANK_GROUP
from repro.core.rewrite.trace import (
    RejectedApplication,
    RewriteStep,
    RewriteTrace,
    format_divergence,
)


@dataclass
class IsolationReport:
    """A record of one isolation run (used by tests and the ablation bench)."""

    applications: list[RewriteStep] = field(default_factory=list)
    rejections: list[RejectedApplication] = field(default_factory=list)
    steps: int = 0
    initial_operator_count: int = 0
    final_operator_count: int = 0
    converged: bool = True

    def rules_fired(self) -> dict[str, int]:
        """Histogram of rule names over all applied steps."""
        histogram: dict[str, int] = {}
        for application in self.applications:
            histogram[application.rule] = histogram.get(application.rule, 0) + 1
        return histogram

    def trace(self) -> RewriteTrace:
        """The run as an immutable provenance trace (see ``rewrite_trace``)."""
        return RewriteTrace(
            steps=tuple(self.applications),
            rejections=tuple(self.rejections),
            initial_operator_count=self.initial_operator_count,
            final_operator_count=self.final_operator_count,
            converged=self.converged,
        )


@dataclass
class JoinGraphIsolation:
    """Configuration and driver of the isolation rewriting.

    ``enable_rank_goal``, ``enable_distinct_goal`` and ``enable_join_goal``
    exist for the ablation experiment (switching off individual goals shows
    how far DB2-style back-ends get without them).
    """

    max_steps: int = 5000
    enable_cleanup: bool = True
    enable_rank_goal: bool = True
    enable_distinct_goal: bool = True
    enable_join_goal: bool = True

    def isolate(self, root: Serialize) -> tuple[Serialize, IsolationReport]:
        """Rewrite ``root`` and return the isolated plan plus a report."""
        plan, engine = run_phases(root, self.phases(), max_steps=self.max_steps)
        report = IsolationReport(
            applications=engine.steps,
            rejections=engine.rejections,
            steps=engine.step_count,
            initial_operator_count=node_count(root),
            final_operator_count=node_count(plan),
            converged=engine.converged,
        )
        if not isinstance(plan, Serialize):
            plan = Serialize(plan)
        return plan, report

    def phases(self) -> list[Phase]:
        """The goal sequence: one ``(name, rule group)`` pair per enabled goal."""
        cleanup: tuple[Rule, ...] = CLEANUP_GROUP if self.enable_cleanup else ()
        phases: list[Phase] = []
        if self.enable_cleanup:
            phases.append(("cleanup", cleanup))
        if self.enable_rank_goal:
            phases.append(("rank", cleanup + RANK_GROUP))
        join_rules = tuple(
            rule
            for rule in JOIN_GROUP
            if self.enable_distinct_goal or "distinct" not in rule.name
        )
        if self.enable_join_goal or self.enable_distinct_goal:
            phases.append(
                (
                    "join",
                    cleanup + (RANK_GROUP if self.enable_rank_goal else ()) + join_rules,
                )
            )
        if self.enable_cleanup:
            phases.append(("final", cleanup))
        return phases


def isolate(
    root: Serialize, config: JoinGraphIsolation | None = None
) -> tuple[Serialize, IsolationReport]:
    """Convenience wrapper: run join graph isolation with default settings."""
    isolation = config or JoinGraphIsolation()
    plan, report = isolation.isolate(root)
    if not report.converged:
        raise RewriteError(format_divergence(report.applications, isolation.max_steps))
    return plan, report
