"""Rewrite provenance: what fired, where, and what was turned away.

Every isolation run produces a :class:`RewriteTrace` — the ordered list of
applied :class:`RewriteStep` records plus the :class:`RejectedApplication`
records for rules whose local premise held but whose *global* premise (the
operator invariants checked while gluing the replacement into the plan)
did not.  The trace is carried by
:class:`~repro.core.rewriter.IsolationReport` and surfaces on
:attr:`~repro.core.stages.CompilationResult.rewrite_trace`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite step: a rule's, or a normaliser pass named
    after its topmost replacement.

    ``target_id`` / ``replacement_id`` are the object identities of the
    matched operator and of the node glued in at its position — stable
    within one compilation, so a later step's target may be seen to *be* an
    earlier step's replacement.
    """

    rule: str
    target: str
    replacement: str
    index: int = 0
    phase: str = ""
    target_id: int = 0
    replacement_id: int = 0

    def describe(self) -> str:
        return f"[{self.index}:{self.phase}] {self.rule}: {self.target}  →  {self.replacement}"


@dataclass(frozen=True)
class RejectedApplication:
    """A rule application whose global premise failed.

    The rule matched locally and built a replacement, but gluing it into
    the plan tripped an operator invariant (e.g. a widened shared spine
    made a far-away join's inputs overlap).  The driver treats this as
    "not applicable" and keeps scanning — this record makes the refusal
    observable instead of silently swallowed.
    """

    rule: str
    target: str
    error: str
    step: int = 0
    phase: str = ""
    target_id: int = 0

    def describe(self) -> str:
        return f"[step {self.step}:{self.phase}] {self.rule} rejected at {self.target}: {self.error}"


@dataclass(frozen=True)
class RewriteTrace:
    """The full provenance of one isolation run."""

    steps: tuple[RewriteStep, ...] = ()
    rejections: tuple[RejectedApplication, ...] = ()
    initial_operator_count: int = 0
    final_operator_count: int = 0
    converged: bool = True

    def rules_fired(self) -> dict[str, int]:
        """Histogram of rule names over all applied steps."""
        return rules_fired(self.steps)

    def render(self) -> str:
        """A human-readable account of the run (README's trace example)."""
        lines = [
            f"isolation: {self.initial_operator_count} → {self.final_operator_count} "
            f"operators in {len(self.steps)} steps"
        ]
        lines.extend(step.describe() for step in self.steps)
        if self.rejections:
            lines.append(f"rejected applications ({len(self.rejections)}):")
            lines.extend(rejection.describe() for rejection in self.rejections)
        if not self.converged:
            lines.append("WARNING: did not converge (step limit hit)")
        return "\n".join(lines)


def rules_fired(steps: Iterable[RewriteStep]) -> dict[str, int]:
    """Histogram of rule names over ``steps``, in order of first firing."""
    return dict(Counter(step.rule for step in steps))


def format_divergence(
    steps: list[RewriteStep], max_steps: int, last: int = 8
) -> str:
    """The :class:`~repro.errors.RewriteError` message for non-convergence.

    Includes the full rule histogram and the last ``last`` applications so
    a livelocked rule pair is diagnosable straight from the exception.
    """
    fired = ", ".join(
        f"{name}×{count}"
        for name, count in sorted(rules_fired(steps).items(), key=lambda kv: (-kv[1], kv[0]))
    )
    tail = "; ".join(
        f"{step.rule} @ {step.target} → {step.replacement}" for step in steps[-last:]
    )
    return (
        f"join graph isolation did not converge within {max_steps} steps; "
        f"rules fired: {{{fired}}}; last {min(last, len(steps))} applications: {tail}"
    )
