"""Abstract syntax trees for the supported XQuery fragment.

The same node classes serve as the *surface* AST (what the parser emits)
and as the *core* AST (what normalization emits); the core form simply
guarantees a number of invariants:

* every path expression is wrapped in :class:`FsDdo`,
* every conditional test is wrapped in :class:`FnBoolean`,
* ``[...]`` predicates, ``where`` clauses and ``and`` conjunctions have been
  desugared into ``for``/``if`` nests,
* :class:`ContextItem` and :class:`Root` no longer occur (they have been
  replaced by variables / ``doc(...)`` calls).

All nodes are immutable dataclasses, rendered back to (pseudo) XQuery text
via :func:`render`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from repro.errors import XQueryBindingError

#: General comparison operators of the fragment (grammar rule [60]).
GENERAL_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

#: ``xs:`` atomic types accepted in ``declare variable $x as <type> external;``
#: that select the numeric ``data`` column of the encoding.
NUMERIC_XS_TYPES = frozenset(
    {"xs:decimal", "xs:double", "xs:float", "xs:integer", "xs:int", "xs:long"}
)

#: The numeric types that additionally require integral values at bind time.
INTEGER_XS_TYPES = frozenset({"xs:integer", "xs:int", "xs:long"})

#: All accepted external-variable type annotations.
EXTERNAL_XS_TYPES = NUMERIC_XS_TYPES | {"xs:string"}


class Expression:
    """Base class of all AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class StringLiteral(Expression):
    """A string literal, e.g. ``"person0"``."""

    value: str


@dataclass(frozen=True)
class NumberLiteral(Expression):
    """A numeric literal, e.g. ``500``."""

    value: float


@dataclass(frozen=True)
class EmptySequence(Expression):
    """The empty sequence ``()``."""


@dataclass(frozen=True)
class Doc(Expression):
    """``doc("uri")`` — the document node of a persistently stored document."""

    uri: str


@dataclass(frozen=True)
class Root(Expression):
    """A leading ``/`` — the document node of the statically known context document."""


@dataclass(frozen=True)
class ContextItem(Expression):
    """The context item ``.`` (only valid inside predicates in the surface syntax)."""


@dataclass(frozen=True)
class VarRef(Expression):
    """A variable reference ``$name``."""

    name: str


@dataclass(frozen=True)
class ExternalVar(Expression):
    """An occurrence of a ``declare variable $name ... external`` parameter.

    Unlike :class:`VarRef` — which denotes a node sequence bound by ``for`` /
    ``let`` — an external variable denotes an atomic *value* supplied at
    execution time.  ``xs_type`` is the declared ``xs:`` type (``None`` for
    an untyped declaration, which is treated as ``xs:string``); it decides
    whether comparisons target the ``data`` (numeric) or ``value`` (string)
    column of the encoding.
    """

    name: str
    xs_type: Optional[str] = None

    @property
    def is_numeric(self) -> bool:
        return self.xs_type in NUMERIC_XS_TYPES


@dataclass(frozen=True)
class ExternalVariable:
    """One ``declare variable $name (as xs:type)? external;`` declaration."""

    name: str
    xs_type: Optional[str] = None

    @property
    def is_numeric(self) -> bool:
        return self.xs_type in NUMERIC_XS_TYPES

    def render(self) -> str:
        annotation = f" as {self.xs_type}" if self.xs_type else ""
        return f"declare variable ${self.name}{annotation} external;"


@dataclass(frozen=True)
class QueryModule:
    """A parsed query: external-variable declarations plus the body expression."""

    externals: tuple[ExternalVariable, ...]
    body: Expression

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(declaration.name for declaration in self.externals)


@dataclass(frozen=True)
class Step(Expression):
    """One XPath location step ``input / axis :: node_test``."""

    input: Expression
    axis: str
    node_test: str


@dataclass(frozen=True)
class Filter(Expression):
    """A predicate application ``input [ predicate ]`` (surface form only)."""

    input: Expression
    predicate: Expression


@dataclass(frozen=True)
class ForExpr(Expression):
    """``for $var in sequence (order by order_key)? return body``.

    ``order_key`` (when set) reorders the loop's contributions by the string
    value of the key expression, ascending, ties broken by binding order —
    the supported ``order by`` subset.  The key is evaluated once per
    binding; the supported contract is a single existent string-valued key
    (a text or attribute node) per binding.
    """

    var: str
    sequence: Expression
    body: Expression
    order_key: Optional[Expression] = None


@dataclass(frozen=True)
class LetExpr(Expression):
    """``let $var := value return body``."""

    var: str
    value: Expression
    body: Expression


@dataclass(frozen=True)
class PositionFilter(Expression):
    """``sequence[n]`` — the item at sequence position ``n`` (core form).

    The normalizer emits this for numeric predicates (``//item[2]``): XPath
    treats a numeric predicate value as a ``position() = n`` test, not as an
    effective boolean value.  ``position`` carries a literal position;
    ``parameter`` the name of a numeric external variable whose value
    arrives at execution time (``//item[$n]``) — exactly one of the two is
    set.
    """

    sequence: Expression
    position: Optional[float] = None
    parameter: Optional[str] = None


@dataclass(frozen=True)
class IfExpr(Expression):
    """``if (condition) then then_branch else ()`` — the fragment's conditional."""

    condition: Expression
    then_branch: Expression


@dataclass(frozen=True)
class AndExpr(Expression):
    """``left and right`` (surface form only; desugared into nested ifs)."""

    left: Expression
    right: Expression


@dataclass(frozen=True)
class Comparison(Expression):
    """A general comparison ``left op right``."""

    left: Expression
    op: str
    right: Expression


#: The aggregate functions of the widened fragment (Section III-C workloads:
#: XMark Q8-Q12 and Q20 count/sum/avg over bound sequences).
AGGREGATE_FUNCTIONS = ("count", "sum", "avg")


@dataclass(frozen=True)
class Aggregate(Expression):
    """``fn:count(argument)`` / ``fn:sum`` / ``fn:avg`` over a sequence.

    ``function`` is one of :data:`AGGREGATE_FUNCTIONS`.  Aggregates follow
    SQL's NULL discipline over the ``data`` column of the encoding (nodes
    without a numeric value are ignored by ``sum``/``avg``), which is what
    lets the SQL configuration push them down as native ``COUNT``/``SUM``/
    ``AVG`` without a Python-side re-aggregation.
    """

    function: str
    argument: Expression


@dataclass(frozen=True)
class Exists(Expression):
    """``fn:exists(argument)`` — true iff the argument sequence is non-empty.

    Surface form only; valid in condition position, where normalization
    turns it into the plain existence test (the effective boolean value of
    the argument).
    """

    argument: Expression


@dataclass(frozen=True)
class Empty(Expression):
    """``fn:empty(argument)`` — true iff the argument sequence is empty.

    Surface form only; normalization desugars it into the aggregate
    comparison ``fn:count(argument) = 0``, which every engine already
    evaluates (including over empty groups).
    """

    argument: Expression


@dataclass(frozen=True)
class Quantified(Expression):
    """``some|every $var in sequence satisfies predicate`` (surface form only).

    ``some`` desugars into the existence test of a filtered ``for`` nest;
    ``every`` into ``fn:count(for $var in sequence where not(predicate)
    return $var) = 0``, with ``not`` realized by negating the comparison
    operator (exact for the fragment's single-valued comparisons — the
    supported contract) or by the ``empty``/``exists`` duality for
    existence predicates.
    """

    quantifier: str
    var: str
    sequence: Expression
    predicate: Expression


@dataclass(frozen=True)
class FnBoolean(Expression):
    """``fn:boolean(argument)`` — effective boolean value (core form)."""

    argument: Expression


@dataclass(frozen=True)
class FsDdo(Expression):
    """``fs:distinct-doc-order(argument)`` — duplicate removal + document order (core form)."""

    argument: Expression


Literal = Union[StringLiteral, NumberLiteral]


def render(expr: Expression, indent: int = 0) -> str:
    """Render an AST back to readable (pseudo-)XQuery text."""
    pad = "  " * indent
    if isinstance(expr, StringLiteral):
        return f'"{expr.value}"'
    if isinstance(expr, NumberLiteral):
        value = expr.value
        if float(value).is_integer():
            return str(int(value))
        return str(value)
    if isinstance(expr, EmptySequence):
        return "()"
    if isinstance(expr, Doc):
        return f'doc("{expr.uri}")'
    if isinstance(expr, Root):
        return "/"
    if isinstance(expr, ContextItem):
        return "."
    if isinstance(expr, VarRef):
        return f"${expr.name}"
    if isinstance(expr, ExternalVar):
        return f"${expr.name}"
    if isinstance(expr, Step):
        return f"{render(expr.input)}/{expr.axis}::{expr.node_test}"
    if isinstance(expr, Filter):
        return f"{render(expr.input)}[{render(expr.predicate)}]"
    if isinstance(expr, ForExpr):
        ordering = f" order by {render(expr.order_key)}" if expr.order_key is not None else ""
        return (
            f"for ${expr.var} in {render(expr.sequence)}{ordering}\n"
            f"{pad}return {render(expr.body, indent + 1)}"
        )
    if isinstance(expr, LetExpr):
        return (
            f"let ${expr.var} := {render(expr.value)}\n"
            f"{pad}return {render(expr.body, indent + 1)}"
        )
    if isinstance(expr, IfExpr):
        return (
            f"if ({render(expr.condition)})\n"
            f"{pad}then {render(expr.then_branch, indent + 1)}\n"
            f"{pad}else ()"
        )
    if isinstance(expr, AndExpr):
        return f"{render(expr.left)} and {render(expr.right)}"
    if isinstance(expr, Comparison):
        return f"{render(expr.left)} {expr.op} {render(expr.right)}"
    if isinstance(expr, PositionFilter):
        position = f"${expr.parameter}" if expr.parameter else render(NumberLiteral(expr.position))
        return f"{render(expr.sequence)}[{position}]"
    if isinstance(expr, Aggregate):
        return f"fn:{expr.function}({render(expr.argument)})"
    if isinstance(expr, Exists):
        return f"fn:exists({render(expr.argument)})"
    if isinstance(expr, Empty):
        return f"fn:empty({render(expr.argument)})"
    if isinstance(expr, Quantified):
        return (
            f"{expr.quantifier} ${expr.var} in {render(expr.sequence)} "
            f"satisfies {render(expr.predicate)}"
        )
    if isinstance(expr, FnBoolean):
        return f"fn:boolean({render(expr.argument)})"
    if isinstance(expr, FsDdo):
        return f"fs:ddo({render(expr.argument)})"
    raise TypeError(f"cannot render AST node {type(expr).__name__}")


def child_expressions(expr: Expression) -> tuple[Expression, ...]:
    """The direct sub-expressions of ``expr`` (used by AST walks in tests)."""
    if isinstance(expr, Step):
        return (expr.input,)
    if isinstance(expr, Filter):
        return (expr.input, expr.predicate)
    if isinstance(expr, ForExpr):
        if expr.order_key is not None:
            return (expr.sequence, expr.body, expr.order_key)
        return (expr.sequence, expr.body)
    if isinstance(expr, LetExpr):
        return (expr.value, expr.body)
    if isinstance(expr, IfExpr):
        return (expr.condition, expr.then_branch)
    if isinstance(expr, AndExpr):
        return (expr.left, expr.right)
    if isinstance(expr, Comparison):
        return (expr.left, expr.right)
    if isinstance(expr, PositionFilter):
        return (expr.sequence,)
    if isinstance(expr, Aggregate):
        return (expr.argument,)
    if isinstance(expr, (Exists, Empty)):
        return (expr.argument,)
    if isinstance(expr, Quantified):
        return (expr.sequence, expr.predicate)
    if isinstance(expr, FnBoolean):
        return (expr.argument,)
    if isinstance(expr, FsDdo):
        return (expr.argument,)
    return ()


def check_bindings(
    externals: tuple[ExternalVariable, ...],
    bindings: Optional[Mapping[str, object]],
) -> dict[str, object]:
    """Validate ``bindings`` against the declared external variables.

    Returns the normalized binding map (numeric values coerced to ``float``,
    matching what the parser produces for number literals, so prepared
    execution is bit-for-bit identical to ad-hoc literal execution).  Raises
    :class:`~repro.errors.XQueryBindingError` for a ``bindings`` argument
    that is not a mapping, missing bindings, bindings to undeclared names,
    and values that do not match the declared type.
    """
    if bindings is not None and not isinstance(bindings, Mapping):
        raise XQueryBindingError(
            f"bindings must be a mapping of external variable names to values, "
            f"got {type(bindings).__name__} {bindings!r} (an engine such as "
            f'"sql" is selected with configuration=, not positionally)'
        )
    supplied = dict(bindings or {})
    declared = {declaration.name: declaration for declaration in externals}
    unknown = sorted(set(supplied) - set(declared))
    if unknown:
        known = ", ".join(f"${name}" for name in declared) or "none"
        raise XQueryBindingError(
            f"bindings for undeclared external variable(s) "
            f"{', '.join(f'${name}' for name in unknown)} (declared: {known})"
        )
    missing = sorted(set(declared) - set(supplied))
    if missing:
        raise XQueryBindingError(
            "missing binding(s) for external variable(s) "
            + ", ".join(f"${name}" for name in missing)
        )
    normalized: dict[str, object] = {}
    for name, declaration in declared.items():
        value = supplied[name]
        if declaration.is_numeric:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise XQueryBindingError(
                    f"external variable ${name} is declared {declaration.xs_type} "
                    f"but was bound to {type(value).__name__} {value!r}"
                )
            if declaration.xs_type in INTEGER_XS_TYPES and not float(value).is_integer():
                raise XQueryBindingError(
                    f"external variable ${name} is declared {declaration.xs_type} "
                    f"but was bound to non-integral value {value!r}"
                )
            normalized[name] = float(value)
        else:
            if not isinstance(value, str):
                hint = (
                    " (declare it 'as xs:decimal' to bind numbers)"
                    if isinstance(value, (int, float)) and not isinstance(value, bool)
                    else ""
                )
                raise XQueryBindingError(
                    f"external variable ${name} is declared as a string "
                    f"but was bound to {type(value).__name__} {value!r}{hint}"
                )
            normalized[name] = value
    return normalized


#: Leaf node types that carry no sub-expressions (and no variable names).
_LEAF_NODES = (StringLiteral, NumberLiteral, EmptySequence, Doc, Root, ContextItem)


def rewrite_variables(
    expr: Expression,
    rewrite,
    shadowed: frozenset[str] = frozenset(),
) -> Expression:
    """Structure-preserving rewrite of the variable leaves of an AST.

    ``rewrite(node, shadowed)`` is called for every :class:`VarRef` and
    :class:`ExternalVar` and returns its replacement; ``shadowed`` is the
    set of names bound by enclosing ``for``/``let`` clauses at that point
    (bindings shadow in their body, not in their own sequence / value
    expression).  Composite nodes are rebuilt; an unknown node type raises,
    so extending the AST without teaching this walker fails loudly instead
    of silently skipping variables.
    """
    if isinstance(expr, (VarRef, ExternalVar)):
        return rewrite(expr, shadowed)
    if isinstance(expr, _LEAF_NODES):
        return expr
    if isinstance(expr, Step):
        return Step(rewrite_variables(expr.input, rewrite, shadowed), expr.axis, expr.node_test)
    if isinstance(expr, Filter):
        return Filter(
            rewrite_variables(expr.input, rewrite, shadowed),
            rewrite_variables(expr.predicate, rewrite, shadowed),
        )
    if isinstance(expr, ForExpr):
        return ForExpr(
            expr.var,
            rewrite_variables(expr.sequence, rewrite, shadowed),
            rewrite_variables(expr.body, rewrite, shadowed | {expr.var}),
            rewrite_variables(expr.order_key, rewrite, shadowed | {expr.var})
            if expr.order_key is not None
            else None,
        )
    if isinstance(expr, LetExpr):
        return LetExpr(
            expr.var,
            rewrite_variables(expr.value, rewrite, shadowed),
            rewrite_variables(expr.body, rewrite, shadowed | {expr.var}),
        )
    if isinstance(expr, IfExpr):
        return IfExpr(
            rewrite_variables(expr.condition, rewrite, shadowed),
            rewrite_variables(expr.then_branch, rewrite, shadowed),
        )
    if isinstance(expr, AndExpr):
        return AndExpr(
            rewrite_variables(expr.left, rewrite, shadowed),
            rewrite_variables(expr.right, rewrite, shadowed),
        )
    if isinstance(expr, Comparison):
        return Comparison(
            rewrite_variables(expr.left, rewrite, shadowed),
            expr.op,
            rewrite_variables(expr.right, rewrite, shadowed),
        )
    if isinstance(expr, PositionFilter):
        return PositionFilter(
            rewrite_variables(expr.sequence, rewrite, shadowed),
            expr.position,
            expr.parameter,
        )
    if isinstance(expr, Aggregate):
        return Aggregate(expr.function, rewrite_variables(expr.argument, rewrite, shadowed))
    if isinstance(expr, Exists):
        return Exists(rewrite_variables(expr.argument, rewrite, shadowed))
    if isinstance(expr, Empty):
        return Empty(rewrite_variables(expr.argument, rewrite, shadowed))
    if isinstance(expr, Quantified):
        return Quantified(
            expr.quantifier,
            expr.var,
            rewrite_variables(expr.sequence, rewrite, shadowed),
            rewrite_variables(expr.predicate, rewrite, shadowed | {expr.var}),
        )
    if isinstance(expr, FnBoolean):
        return FnBoolean(rewrite_variables(expr.argument, rewrite, shadowed))
    if isinstance(expr, FsDdo):
        return FsDdo(rewrite_variables(expr.argument, rewrite, shadowed))
    raise TypeError(f"rewrite_variables cannot traverse {type(expr).__name__}")


def bind_external_variables(expr: Expression, values: Mapping[str, object]) -> Expression:
    """Replace every :class:`ExternalVar` by the corresponding literal node.

    ``values`` must already be normalized via :func:`check_bindings`.  This
    is the late-binding step of the navigational (XSCAN) path, where patterns
    are matched directly over the surface AST.
    """

    def replace(node: Expression, shadowed: frozenset[str]) -> Expression:
        if not isinstance(node, ExternalVar):
            return node
        try:
            value = values[node.name]
        except KeyError:
            raise XQueryBindingError(
                f"external variable ${node.name} is unbound"
            ) from None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return NumberLiteral(float(value))
        return StringLiteral(str(value))

    return rewrite_variables(expr, replace)
