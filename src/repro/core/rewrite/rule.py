"""Declarative rewrite rules: pattern + guard + builder, validated as data.

A :class:`Rule` is the unit the isolation engine executes:

``pattern``
    A :class:`Pattern` — the structural shape the rule matches: the
    operator class(es) at the match root plus optional per-position child
    class constraints.  Patterns are **left-linear by construction**: they
    can only constrain *classes*, never require two matched positions to
    be one and the same object.  Identity premises (the key-join
    collapse's shared anchor, rule (8)'s row-id origin) belong in guards,
    where the in-place gluing of :func:`repro.algebra.dag.glue` preserves
    the sharing they rely on.

``guard``
    ``guard(node, ctx) -> match | None`` — the premise over the inferred
    plan properties (Tables II-V), evaluated only when the pattern
    matched.  A non-``None`` return is the *match payload* handed to the
    builder; ``None`` means the premise failed.

``build``
    ``build(node, match, ctx) -> Operator | {id(old): new}`` — constructs
    the replacement (a single node, or a substitution map covering
    several nodes at once, as the key-join collapse uses to widen a
    shared spine).  Builders must be pure: they never mutate matched
    operators, and they reuse matched sub-plans by object identity so the
    glue keeps the DAG's sharing intact.

``exemplar``
    A zero-argument callable returning a small plan on which the rule fires
    — the fixture of the validator and of the per-rule tests.

Every :class:`RuleRegistry` registration runs :func:`validate_rule`: a
malformed rule (no pattern root, a non-left-linear pattern, a builder that
mutates operators in place or copies leaves instead of sharing them) fails
at import time, not in the middle of an isolation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import ReproError
from repro.algebra.dag import iter_nodes
from repro.algebra.operators import Operator, Serialize

#: What a builder may return: one replacement for the matched node, or a
#: substitution map ``{id(old): new}`` covering several nodes at once.
RuleResult = Union[Operator, Dict[int, Operator]]

Guard = Callable[[Operator, object], Optional[object]]
Builder = Callable[[Operator, object, object], RuleResult]

#: Guard payload for rules whose premise is a plain yes/no (no bound parts).
MATCHED = object()


class RuleValidationError(ReproError):
    """A rule failed registration-time validation."""


@dataclass(frozen=True)
class Pattern:
    """A structural pattern over operator shapes.

    ``root`` is the tuple of operator classes the rule can match at;
    ``children`` optionally constrains child positions (``None`` entries
    leave a position unconstrained).  Class-only constraints make every
    pattern left-linear: no operator *instance* — i.e. no identity
    constraint — can be embedded, so a pattern never requires two matched
    positions to coincide.
    """

    root: tuple[type, ...]
    children: tuple[Optional[tuple[type, ...]], ...] = ()

    def matches(self, node: Operator) -> bool:
        if not isinstance(node, self.root):
            return False
        if self.children:
            if len(node.children) < len(self.children):
                return False
            for constraint, child in zip(self.children, node.children):
                if constraint is not None and not isinstance(child, constraint):
                    return False
        return True


def pattern(
    root: Union[type, Tuple[type, ...]],
    *children: Optional[Union[type, Tuple[type, ...]]],
) -> Pattern:
    """Convenience constructor normalising classes to tuples."""
    root_tuple = root if isinstance(root, tuple) else (root,)
    child_constraints = tuple(
        None if c is None else (c if isinstance(c, tuple) else (c,)) for c in children
    )
    return Pattern(root=root_tuple, children=child_constraints)


@dataclass(frozen=True)
class Rule:
    """One declarative rewrite rule (see the module docstring)."""

    #: The rule's name ends in its Fig. 5 number, e.g. ``"(9*)"``.
    name: str
    pattern: Pattern
    guard: Guard
    build: Builder
    #: A pinned plan on which the rule fires (validator + test fixture).
    exemplar: Optional[Callable[[], Operator]] = None

    def match(self, node: Operator, ctx) -> Optional[object]:
        """Pattern + guard; the match payload, or ``None``."""
        if not self.pattern.matches(node):
            return None
        return self.guard(node, ctx)

    def apply(self, node: Operator, ctx) -> Optional[RuleResult]:
        """Match and build in one step (``None`` when not applicable)."""
        match = self.match(node, ctx)
        if match is None:
            return None
        result = self.build(node, match, ctx)
        if result is node:
            return None
        return result


# -- validation --------------------------------------------------------------------


def is_left_linear(rule: Rule) -> bool:
    """True when the rule's pattern contains class constraints only.

    The :class:`Pattern` dataclass can in principle be constructed with
    arbitrary objects; a well-formed (left-linear) pattern names operator
    *classes*, never instances, so matching can never demand that two
    positions resolve to one shared object.
    """
    entries = list(rule.pattern.root)
    for constraint in rule.pattern.children:
        if constraint is not None:
            entries.extend(constraint)
    return all(isinstance(entry, type) and issubclass(entry, Operator) for entry in entries)


def _structural_fingerprint(root: Operator) -> tuple:
    """A deep structural rendering used to detect in-place mutation."""
    nodes = list(iter_nodes(root))
    index = {id(node): position for position, node in enumerate(nodes)}
    return tuple(
        (type(node).__name__, node.label(), node.columns, tuple(index[id(c)] for c in node.children))
        for node in nodes
    )


def validate_rule(rule: Rule, run_exemplar: bool = True) -> None:
    """Registration-time validation; raises :class:`RuleValidationError`.

    Structural checks (always): the rule declares a non-empty pattern root
    of operator classes, the pattern is left-linear, guard and builder are
    callable, and the match root is not the serialization point (the
    driver never rewrites ``Serialize`` itself).

    Behavioural checks (``run_exemplar``): the rule's exemplar plan is
    matched and rebuilt once, asserting that (a) the rule actually fires
    on its own fixture, (b) the input plan is structurally untouched
    afterwards — builders must not mutate operators in place — and
    (c) every leaf reachable from the replacement is one of the input
    plan's own leaf objects: builders splice matched sub-plans in by
    identity, they never deep-copy them (the sharing contract the glue
    relies on).
    """
    if not rule.name:
        raise RuleValidationError("a rewrite rule needs a name")
    if not rule.pattern.root:
        raise RuleValidationError(f"rule {rule.name!r} lacks a declared pattern root")
    if not is_left_linear(rule):
        raise RuleValidationError(
            f"rule {rule.name!r} is not left-linear: pattern constraints must be "
            "operator classes (identity premises belong in the guard)"
        )
    if any(issubclass(entry, Serialize) for entry in rule.pattern.root):
        raise RuleValidationError(
            f"rule {rule.name!r} matches at the serialization point; the driver "
            "only rewrites below it"
        )
    if not callable(rule.guard) or not callable(rule.build):
        raise RuleValidationError(f"rule {rule.name!r}: guard and build must be callable")
    if rule.exemplar is None:
        raise RuleValidationError(f"rule {rule.name!r} lacks an exemplar plan")
    if run_exemplar:
        _validate_on_exemplar(rule)


def _validate_on_exemplar(rule: Rule) -> None:
    # Deferred: properties/context import rule-free modules, but pulling
    # them at module import keeps the import graph acyclic only this way.
    from repro.core.properties import infer_properties
    from repro.core.rewrite.context import RuleContext

    plan = rule.exemplar()  # type: ignore[misc]
    before = _structural_fingerprint(plan)
    ctx = RuleContext(plan, infer_properties(plan))
    result = None
    for node in iter_nodes(plan):
        if isinstance(node, Serialize):
            continue
        result = rule.apply(node, ctx)
        if result is not None:
            break
    if result is None:
        raise RuleValidationError(f"rule {rule.name!r} does not fire on its exemplar plan")
    if _structural_fingerprint(plan) != before:
        raise RuleValidationError(f"rule {rule.name!r} mutated the matched plan in place")
    replacements = result if isinstance(result, dict) else {id(node): result}
    input_leaves = {id(n) for n in iter_nodes(plan) if n.is_leaf}
    for replacement in replacements.values():
        for part in iter_nodes(replacement):
            if part.is_leaf and id(part) not in input_leaves:
                raise RuleValidationError(
                    f"rule {rule.name!r} broke sharing: replacement leaf {part!r} "
                    "is not an input-plan object (builders must splice matched "
                    "sub-plans in by identity, not copy them)"
                )


class RuleRegistry:
    """The validated collection of rewrite rules, indexed for dispatch."""

    def __init__(self) -> None:
        self._rules: list[Rule] = []
        self._by_name: dict[str, Rule] = {}

    def register(self, rule: Rule, run_exemplar: bool = True) -> Rule:
        validate_rule(rule, run_exemplar=run_exemplar)
        if rule.name in self._by_name:
            raise RuleValidationError(f"duplicate rule name {rule.name!r}")
        self._rules.append(rule)
        self._by_name[rule.name] = rule
        return rule

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def get(self, name: str) -> Rule:
        return self._by_name[name]


class PatternIndex:
    """Rules bucketed by concrete operator class (lazy, order-preserving).

    Dispatch by ``type(node)`` replaces a "try every rule at every node"
    inner loop: only rules whose declared pattern root covers the node's
    class are ever consulted.
    """

    def __init__(self, rules: tuple[Rule, ...]):
        self._rules = rules
        self._buckets: dict[type, tuple[Rule, ...]] = {}

    def for_node(self, node: Operator) -> tuple[Rule, ...]:
        bucket = self._buckets.get(type(node))
        if bucket is None:
            bucket = tuple(
                rule for rule in self._rules if isinstance(node, rule.pattern.root)
            )
            self._buckets[type(node)] = bucket
        return bucket
