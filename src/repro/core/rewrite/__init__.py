"""The declarative rewrite engine behind join graph isolation.

The paper's Section III describes isolation as a *peephole rewriting
system*: small local rules, each with a structural shape and a premise over
inferred plan properties, applied until a fixpoint.  This package makes
that description literal — rules are **data**, not Python control flow:

* :mod:`repro.core.rewrite.rule` — the :class:`Rule` object (a structural
  :class:`Pattern` over operator shapes, a guard over inferred properties,
  and a builder for the replacement), the :class:`RuleRegistry`, and the
  registration-time left-linearity / sharing validator;
* :mod:`repro.core.rewrite.context` — the premise-evaluation
  :class:`RuleContext` (column provenance, upstream references, the
  ``rank_compared_upstream`` guard), kept for a whole run and invalidated
  by what each step changed;
* :mod:`repro.core.rewrite.rules` — the paper's rules (1)-(17) and the
  generalised key-join collapse (9*) re-expressed in the declarative form,
  assembled into the goal groups the driver runs;
* :mod:`repro.core.rewrite.engine` — the driver: pattern-indexed dispatch
  over a worklist of dirty nodes of a plan copy that is rewritten in
  place, with property re-inference scoped to the region a step changed;
* :mod:`repro.core.rewrite.trace` — rewrite provenance: every applied
  step and every rejected application, threaded through
  :class:`~repro.core.rewriter.IsolationReport` into
  :attr:`~repro.core.stages.CompilationResult.rewrite_trace`.
"""

from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.engine import WorklistDriver, run_phases
from repro.core.rewrite.rule import (
    Pattern,
    Rule,
    RuleRegistry,
    RuleValidationError,
    validate_rule,
)
from repro.core.rewrite.rules import (
    CLEANUP_GROUP,
    JOIN_GROUP,
    RANK_GROUP,
    REGISTRY,
)
from repro.core.rewrite.trace import RejectedApplication, RewriteStep, RewriteTrace

__all__ = [
    "CLEANUP_GROUP",
    "JOIN_GROUP",
    "Pattern",
    "RANK_GROUP",
    "REGISTRY",
    "RejectedApplication",
    "RewriteStep",
    "RewriteTrace",
    "Rule",
    "RuleContext",
    "RuleRegistry",
    "RuleValidationError",
    "WorklistDriver",
    "run_phases",
    "validate_rule",
]
