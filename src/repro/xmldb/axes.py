"""XPath axis and node-test semantics over the pre/size/level encoding.

Fig. 3 of the paper maps every XPath axis to a conjunctive range predicate
over the columns ``pre``, ``size`` and ``level`` of the context node (written
``pre°``, ``size°``, ``level°``) and of the candidate node.  This module
states those predicates *declaratively* (:data:`AXES`) so that

* the loop-lifting compiler can turn them into algebra join predicates,
* the SQL generator can print them as ``WHERE`` conjuncts, and
* tests can evaluate them directly
  (:func:`evaluate_axis`).

Following the paper, the structural predicates are pure range/equality
conditions; name and kind tests contribute the ``kind``/``name`` equality
conjuncts separately (:func:`node_test_conditions`).

The sibling axes cannot be expressed exactly with pre/size/level alone; the
declarative spec uses the standard level-based approximation (documented on
:data:`AXES`) while :func:`evaluate_axis` implements the exact semantics via
parent lookup.  None of the paper's benchmark queries use sibling axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.xmldb.encoding import DocumentEncoding, NodeRecord
from repro.xmldb.infoset import NodeKind


@dataclass(frozen=True)
class Operand:
    """One side of an axis condition.

    ``side`` is ``"ctx"`` (the context node, the ° columns of Fig. 3) or
    ``"node"`` (the candidate node).  The operand denotes
    ``column (+ plus_column) (+ offset)``, which is exactly the expression
    vocabulary Fig. 3 needs (``pre + size``, ``level + 1``).
    """

    side: str
    column: str
    plus_column: Optional[str] = None
    offset: int = 0

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``ctx.pre + ctx.size``."""
        parts = [f"{self.side}.{self.column}"]
        if self.plus_column:
            parts.append(f"{self.side}.{self.plus_column}")
        text = " + ".join(parts)
        if self.offset:
            text = f"{text} + {self.offset}"
        return text

    def evaluate(self, ctx: NodeRecord, node: NodeRecord) -> int:
        record = ctx if self.side == "ctx" else node
        value = getattr(record, self.column)
        if self.plus_column:
            value += getattr(record, self.plus_column)
        return value + self.offset


@dataclass(frozen=True)
class AxisCondition:
    """One conjunct of an axis predicate: ``left op right``."""

    left: Operand
    op: str
    right: Operand

    def describe(self) -> str:
        return f"{self.left.describe()} {self.op} {self.right.describe()}"

    def holds(self, ctx: NodeRecord, node: NodeRecord) -> bool:
        left = self.left.evaluate(ctx, node)
        right = self.right.evaluate(ctx, node)
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == "=":
            return left == right
        if self.op == ">":
            return left > right
        if self.op == ">=":
            return left >= right
        if self.op == "!=":
            return left != right
        raise ValueError(f"unknown comparison operator {self.op!r}")


def _ctx(column: str, plus: Optional[str] = None, offset: int = 0) -> Operand:
    return Operand("ctx", column, plus, offset)


def _node(column: str, plus: Optional[str] = None, offset: int = 0) -> Operand:
    return Operand("node", column, plus, offset)


def _cond(left: Operand, op: str, right: Operand) -> AxisCondition:
    return AxisCondition(left, op, right)


@dataclass(frozen=True)
class AxisSpec:
    """The declarative description of one XPath axis."""

    name: str
    conditions: tuple[AxisCondition, ...]
    #: Principal node kind of the axis ("ELEM" for all but attribute).
    principal_kind: str = NodeKind.ELEM.value
    #: True for forward axes (document order = result order).
    forward: bool = True
    #: Name of the dual axis (descendant <-> ancestor etc.), used to discuss
    #: axis reversal in the optimizer experiments.
    dual: Optional[str] = None
    #: True when the declarative predicate is an approximation (siblings).
    approximate: bool = False


#: The 12 XPath axes of the full axis feature, keyed by axis name.
AXES: dict[str, AxisSpec] = {
    "child": AxisSpec(
        "child",
        (
            _cond(_ctx("pre"), "<", _node("pre")),
            _cond(_node("pre"), "<=", _ctx("pre", "size")),
            _cond(_ctx("level", offset=1), "=", _node("level")),
        ),
        dual="parent",
    ),
    "descendant": AxisSpec(
        "descendant",
        (
            _cond(_ctx("pre"), "<", _node("pre")),
            _cond(_node("pre"), "<=", _ctx("pre", "size")),
        ),
        dual="ancestor",
    ),
    "descendant-or-self": AxisSpec(
        "descendant-or-self",
        (
            _cond(_ctx("pre"), "<=", _node("pre")),
            _cond(_node("pre"), "<=", _ctx("pre", "size")),
        ),
        dual="ancestor-or-self",
    ),
    "self": AxisSpec(
        "self",
        (_cond(_node("pre"), "=", _ctx("pre")),),
        dual="self",
    ),
    "attribute": AxisSpec(
        "attribute",
        (
            _cond(_ctx("pre"), "<", _node("pre")),
            _cond(_node("pre"), "<=", _ctx("pre", "size")),
            _cond(_ctx("level", offset=1), "=", _node("level")),
        ),
        principal_kind=NodeKind.ATTR.value,
    ),
    "following": AxisSpec(
        "following",
        (_cond(_ctx("pre", "size"), "<", _node("pre")),),
        dual="preceding",
    ),
    "following-sibling": AxisSpec(
        "following-sibling",
        (
            _cond(_ctx("pre", "size"), "<", _node("pre")),
            _cond(_node("level"), "=", _ctx("level")),
        ),
        dual="preceding-sibling",
        approximate=True,
    ),
    "parent": AxisSpec(
        "parent",
        (
            _cond(_node("pre"), "<", _ctx("pre")),
            _cond(_ctx("pre"), "<=", _node("pre", "size")),
            _cond(_node("level", offset=1), "=", _ctx("level")),
        ),
        forward=False,
        dual="child",
    ),
    "ancestor": AxisSpec(
        "ancestor",
        (
            _cond(_node("pre"), "<", _ctx("pre")),
            _cond(_ctx("pre"), "<=", _node("pre", "size")),
        ),
        forward=False,
        dual="descendant",
    ),
    "ancestor-or-self": AxisSpec(
        "ancestor-or-self",
        (
            _cond(_node("pre"), "<=", _ctx("pre")),
            _cond(_ctx("pre"), "<=", _node("pre", "size")),
        ),
        forward=False,
        dual="descendant-or-self",
    ),
    "preceding": AxisSpec(
        "preceding",
        (_cond(_node("pre", "size"), "<", _ctx("pre")),),
        forward=False,
        dual="following",
    ),
    "preceding-sibling": AxisSpec(
        "preceding-sibling",
        (
            _cond(_node("pre", "size"), "<", _ctx("pre")),
            _cond(_node("level"), "=", _ctx("level")),
        ),
        forward=False,
        dual="following-sibling",
        approximate=True,
    ),
}

#: Forward axes (grammar rule [73] of the XQuery specification).
FORWARD_AXES = tuple(name for name, spec in AXES.items() if spec.forward)

#: Reverse axes (grammar rule [76]).
REVERSE_AXES = tuple(name for name, spec in AXES.items() if not spec.forward)


def axis_predicate_spec(axis: str) -> AxisSpec:
    """Return the :class:`AxisSpec` for ``axis`` (raising for unknown axes)."""
    try:
        return AXES[axis]
    except KeyError:
        raise ValueError(f"unknown XPath axis {axis!r}") from None


def node_test_conditions(node_test: str, axis: str) -> list[tuple[str, str, Optional[str]]]:
    """Kind/name equality conjuncts implied by a node test, as in Fig. 3.

    Returns a list of ``(column, op, value)`` triples over the candidate
    node's ``kind`` / ``name`` columns.  ``node_test`` follows the surface
    syntax: a plain name, ``*``, ``text()``, ``node()``, ``comment()``,
    ``element()``, ``attribute()``, ``processing-instruction()`` or
    ``document-node()``.
    """
    spec = axis_predicate_spec(axis)
    if node_test == "node()":
        return []
    if node_test == "text()":
        return [("kind", "=", NodeKind.TEXT.value)]
    if node_test == "comment()":
        return [("kind", "=", NodeKind.COMM.value)]
    if node_test == "processing-instruction()":
        return [("kind", "=", NodeKind.PI.value)]
    if node_test == "document-node()":
        return [("kind", "=", NodeKind.DOC.value)]
    if node_test == "element()":
        return [("kind", "=", NodeKind.ELEM.value)]
    if node_test == "attribute()":
        return [("kind", "=", NodeKind.ATTR.value)]
    if node_test == "*":
        return [("kind", "=", spec.principal_kind)]
    # A plain QName: name test against the axis' principal node kind.
    return [("kind", "=", spec.principal_kind), ("name", "=", node_test)]


def _structurally_related(spec: AxisSpec, ctx: NodeRecord, node: NodeRecord) -> bool:
    return all(condition.holds(ctx, node) for condition in spec.conditions)


def evaluate_axis(
    encoding: DocumentEncoding,
    context_pre: int,
    axis: str,
    node_test: str = "node()",
) -> list[int]:
    """Evaluate ``axis::node_test`` from the context node, in document order.

    The executable reading of the declarative Fig. 3 predicates: one full
    pass over ``encoding.records`` per context node, plus the exact sibling
    test via parent lookup.
    """
    spec = axis_predicate_spec(axis)
    ctx = encoding.record(context_pre)
    test_conditions = node_test_conditions(node_test, axis)
    result: list[int] = []
    for record in encoding.records:
        if not _structurally_related(spec, ctx, record):
            continue
        if axis == "attribute":
            if record.kind != NodeKind.ATTR.value:
                continue
        elif axis != "self" and record.kind == NodeKind.ATTR.value and node_test != "attribute()":
            continue
        if axis in ("following-sibling", "preceding-sibling"):
            if encoding.parent(record.pre) != encoding.parent(context_pre):
                continue
        matches = True
        for column, _op, value in test_conditions:
            if getattr(record, column) != value:
                matches = False
                break
        if matches:
            result.append(record.pre)
    return result
