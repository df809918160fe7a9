"""The declarative rewrite engine behind join graph isolation.

The paper's Section III describes isolation as a *peephole rewriting
system*: small local rules, each with a structural shape and a premise over
inferred plan properties, applied until a fixpoint.  Here rules are data:

* :mod:`~repro.core.rewrite.rule` — :class:`Rule` (pattern, guard,
  builder), the :class:`RuleRegistry` and its registration-time validator;
* :mod:`~repro.core.rewrite.context` — the premise-evaluation
  :class:`RuleContext`, kept for a run and invalidated step by step;
* :mod:`~repro.core.rewrite.rules` — the paper's rules and the key-join
  collapse (9*), in the goal groups the driver runs;
* :mod:`~repro.core.rewrite.normalize` — rules (1)-(4) as one ``icols``
  normaliser pass, run after every structural step;
* :mod:`~repro.core.rewrite.engine` — the worklist driver over a plan copy
  rewritten in place;
* :mod:`~repro.core.rewrite.trace` — rewrite provenance (applied steps and
  rejected applications), surfaced as
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
