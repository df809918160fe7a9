"""XSCAN: navigational evaluation of the XQuery fragment over node trees.

This is the TurboXPath-style tree traversal the pureXML baseline performs on
every candidate row after the (optional) XISCAN index lookup.  It evaluates
the same AST the relational pipeline uses, but directly over
:class:`~repro.xmldb.infoset.XMLNode` trees — no encoding, no joins.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PureXMLError, check_deadline
from repro.xmldb.infoset import NodeKind, XMLNode
from repro.xquery import ast


class XScan:
    """Evaluate one (surface or core) XQuery AST over one document tree.

    ``deadline`` is an absolute ``time.perf_counter()`` instant; ``budget``
    is the caller's original budget in seconds, threaded through so that a
    timeout reports the real budget and measured elapsed time instead of
    placeholder zeros.
    """

    def __init__(
        self,
        doc: XMLNode,
        deadline: Optional[float] = None,
        budget: Optional[float] = None,
    ):
        self.doc = doc
        self.deadline = deadline
        self.budget = budget

    def _check(self) -> None:
        check_deadline(self.deadline, self.budget)

    def evaluate(self, expr: ast.Expression, env: Optional[dict[str, list]] = None) -> list:
        env = env or {}
        self._check()
        if isinstance(expr, ast.Doc) or isinstance(expr, ast.Root):
            return [self.doc]
        if isinstance(expr, ast.VarRef):
            if expr.name not in env:
                raise PureXMLError(f"unbound variable ${expr.name}")
            return env[expr.name]
        if isinstance(expr, (ast.StringLiteral,)):
            return [expr.value]
        if isinstance(expr, ast.NumberLiteral):
            return [expr.value]
        if isinstance(expr, ast.EmptySequence):
            return []
        if isinstance(expr, ast.FsDdo):
            return self._document_order(self.evaluate(expr.argument, env))
        if isinstance(expr, ast.FnBoolean):
            return [self._effective_boolean_value(self.evaluate(expr.argument, env))]
        if isinstance(expr, ast.Step):
            context = self.evaluate(expr.input, env)
            result: list[XMLNode] = []
            for node in context:
                if isinstance(node, XMLNode):
                    result.extend(self._step(node, expr.axis, expr.node_test))
            return self._document_order(result)
        if isinstance(expr, ast.Filter):
            context = self.evaluate(expr.input, env)
            if isinstance(expr.predicate, ast.NumberLiteral):
                # Numeric predicate == positional test (position() = n).
                position = expr.predicate.value
                if float(position).is_integer() and 1 <= int(position) <= len(context):
                    return [context[int(position) - 1]]
                return []
            return [node for node in context if self._boolean(expr.predicate, env, node)]
        if isinstance(expr, ast.PositionFilter):
            context = self.evaluate(expr.sequence, env)
            if expr.parameter is not None:
                raise PureXMLError(
                    f"positional parameter ${expr.parameter} is unbound; bind it "
                    "before XSCAN evaluation"
                )
            position = expr.position
            if (
                position is not None
                and float(position).is_integer()
                and 1 <= int(position) <= len(context)
            ):
                return [context[int(position) - 1]]
            return []
        if isinstance(expr, ast.Aggregate):
            sequence = self.evaluate(expr.argument, env)
            if expr.function == "count":
                return [len(sequence)]
            values = self._atomize_numeric(sequence)
            if expr.function == "sum":
                return [sum(values) if values else 0]
            return [sum(values) / len(values)] if values else []  # avg(()) = ()
        if isinstance(expr, ast.ForExpr):
            sequence = self.evaluate(expr.sequence, env)
            if expr.order_key is not None:
                return self._ordered_for(expr, sequence, env)
            result = []
            for item in sequence:
                inner = dict(env)
                inner[expr.var] = [item]
                result.extend(self.evaluate(expr.body, inner))
            return result
        if isinstance(expr, ast.Exists):
            return [len(self.evaluate(expr.argument, env)) > 0]
        if isinstance(expr, ast.Empty):
            return [len(self.evaluate(expr.argument, env)) == 0]
        if isinstance(expr, ast.Quantified):
            sequence = self.evaluate(expr.sequence, env)
            verdicts = []
            for item in sequence:
                inner = dict(env)
                inner[expr.var] = [item]
                verdicts.append(self._boolean(expr.predicate, inner, None))
            if expr.quantifier == "some":
                return [any(verdicts)]
            return [all(verdicts)]
        if isinstance(expr, ast.LetExpr):
            inner = dict(env)
            inner[expr.var] = self.evaluate(expr.value, env)
            return self.evaluate(expr.body, inner)
        if isinstance(expr, ast.IfExpr):
            if self._boolean(expr.condition, env, None):
                return self.evaluate(expr.then_branch, env)
            return []
        if isinstance(expr, ast.AndExpr):
            left = self._boolean(expr.left, env, None)
            right = self._boolean(expr.right, env, None)
            return [True] if left and right else []
        if isinstance(expr, ast.Comparison):
            return [True] if self._compare(expr, env, None) else []
        if isinstance(expr, ast.ExternalVar):
            raise PureXMLError(
                f"external variable ${expr.name} is unbound; bind it "
                "(PureXMLEngine.prepare / bindings=) before XSCAN evaluation"
            )
        raise PureXMLError(f"cannot evaluate AST node {type(expr).__name__}")

    # -- helpers -----------------------------------------------------------------------

    def _ordered_for(self, expr: ast.ForExpr, sequence: list, env: dict[str, list]) -> list:
        """``for ... order by K``: bindings sorted by key string value.

        Mirrors the relational ORD rule exactly — each binding contributes
        once per key node (the supported contract is a single existent
        string-valued key, under which this is a plain stable sort), keys
        compare as strings ascending, and binding order breaks ties.
        Bindings whose key sequence is empty contribute nothing (the inner
        key join drops them).
        """
        keyed: list[tuple[str, int, list]] = []
        for position, item in enumerate(sequence):
            inner = dict(env)
            inner[expr.var] = [item]
            keys = self._atomize(self.evaluate(expr.order_key, inner))
            if not keys:
                continue
            body = self.evaluate(expr.body, inner)
            for key in keys:
                keyed.append((str(key), position, body))
        keyed.sort(key=lambda entry: (entry[0], entry[1]))
        result: list = []
        for _, _, body in keyed:
            result.extend(body)
        return result

    def _step(self, node: XMLNode, axis: str, node_test: str) -> list[XMLNode]:
        from repro.xmldb.infoset import NodeKind

        def test(candidate: XMLNode, principal: NodeKind) -> bool:
            if node_test == "node()":
                return True
            if node_test == "text()":
                return candidate.kind is NodeKind.TEXT
            if node_test == "*":
                return candidate.kind is principal
            return candidate.kind is principal and candidate.name == node_test

        if axis == "attribute":
            return [a for a in node.attributes if test(a, NodeKind.ATTR)]
        if axis == "child":
            return [c for c in node.children if test(c, NodeKind.ELEM)]
        if axis == "descendant":
            return [
                d
                for d in node.iter_descendants(include_self=False)
                if d.kind is not NodeKind.ATTR and test(d, NodeKind.ELEM)
            ]
        if axis == "descendant-or-self":
            return [d for d in node.iter_descendants(include_self=True) if test(d, NodeKind.ELEM) or node_test == "node()"]
        if axis == "self":
            return [node] if test(node, NodeKind.ELEM) else []
        if axis == "parent":
            return [node.parent] if node.parent is not None and test(node.parent, NodeKind.ELEM) else []
        if axis == "ancestor":
            result = []
            current = node.parent
            while current is not None:
                if test(current, NodeKind.ELEM):
                    result.append(current)
                current = current.parent
            return result
        raise PureXMLError(f"axis {axis!r} is not supported by XSCAN")

    @staticmethod
    def _effective_boolean_value(sequence: list) -> bool:
        """``fn:boolean`` semantics (XQuery 1.0, 2.4.3).

        Empty sequence -> false; any sequence whose first item is a node ->
        true; a singleton boolean / string / number follows the usual value
        rules; every other operand is a type error (err:FORG0006).
        """
        if not sequence:
            return False
        first = sequence[0]
        if isinstance(first, XMLNode):
            return True
        if len(sequence) > 1:
            raise PureXMLError(
                "fn:boolean on a multi-item sequence whose first item is not a node"
            )
        if isinstance(first, bool):
            return first
        if isinstance(first, str):
            return len(first) > 0
        if isinstance(first, (int, float)):
            return first == first and first != 0  # NaN != NaN
        raise PureXMLError(f"fn:boolean is undefined for {type(first).__name__} items")

    def _boolean(self, expr: ast.Expression, env: dict[str, list], context: Optional[XMLNode]) -> bool:
        if isinstance(expr, ast.AndExpr):
            return self._boolean(expr.left, env, context) and self._boolean(expr.right, env, context)
        if isinstance(expr, ast.Comparison):
            return self._compare(expr, env, context)
        return self._effective_boolean_value(self._evaluate_in_context(expr, env, context))

    def _compare(self, expr: ast.Comparison, env: dict[str, list], context: Optional[XMLNode]) -> bool:
        left = self._atomize(self._evaluate_in_context(expr.left, env, context))
        right = self._atomize(self._evaluate_in_context(expr.right, env, context))
        for lv in left:
            for rv in right:
                if _general_compare(lv, expr.op, rv):
                    return True
        return False

    def _evaluate_in_context(
        self, expr: ast.Expression, env: dict[str, list], context: Optional[XMLNode]
    ) -> list:
        if context is not None:
            scan = XScan(self.doc, self.deadline, self.budget)
            env = dict(env)
            env["__context__"] = [context]
            rewritten = _replace_context(expr)
            return scan.evaluate(rewritten, env)
        return self.evaluate(expr, env)

    @staticmethod
    def _atomize_numeric(values: list) -> list:
        """Numeric atomization mirroring the encoding's ``data`` column.

        Nodes whose string value does not parse as a number contribute
        nothing (SQL's NULL discipline: ``SUM``/``AVG`` ignore them), so a
        navigational aggregate matches the relational configurations.
        """
        numbers = []
        for value in values:
            if isinstance(value, XMLNode):
                value = value.string_value()
            try:
                numbers.append(float(value))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
        return numbers

    @staticmethod
    def _atomize(values: list) -> list:
        atoms = []
        for value in values:
            if isinstance(value, XMLNode):
                atoms.append(value.string_value())
            else:
                atoms.append(value)
        return atoms

    @staticmethod
    def _document_order(nodes: list) -> list:
        ordered = []
        seen: set[int] = set()
        for node in nodes:
            if isinstance(node, XMLNode) and id(node) in seen:
                continue
            if isinstance(node, XMLNode):
                seen.add(id(node))
            ordered.append(node)
        return ordered


def _replace_context(expr: ast.Expression) -> ast.Expression:
    if isinstance(expr, ast.ContextItem):
        return ast.VarRef("__context__")
    if isinstance(expr, ast.Step):
        return ast.Step(_replace_context(expr.input), expr.axis, expr.node_test)
    if isinstance(expr, ast.Filter):
        return ast.Filter(_replace_context(expr.input), expr.predicate)
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(_replace_context(expr.left), expr.op, _replace_context(expr.right))
    if isinstance(expr, ast.AndExpr):
        return ast.AndExpr(_replace_context(expr.left), _replace_context(expr.right))
    if isinstance(expr, ast.Aggregate):
        return ast.Aggregate(expr.function, _replace_context(expr.argument))
    if isinstance(expr, ast.Exists):
        return ast.Exists(_replace_context(expr.argument))
    if isinstance(expr, ast.Empty):
        return ast.Empty(_replace_context(expr.argument))
    if isinstance(expr, ast.Quantified):
        return ast.Quantified(
            expr.quantifier,
            expr.var,
            _replace_context(expr.sequence),
            _replace_context(expr.predicate),
        )
    return expr


def _general_compare(left: object, op: str, right: object) -> bool:
    # General comparisons over untyped values: compare numerically when both
    # sides cast to a number and the literal side is numeric, else as strings.
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        try:
            left_value = float(left)  # type: ignore[arg-type]
            right_value = float(right)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
    else:
        left_value, right_value = str(left), str(right)
    if op == "=":
        return left_value == right_value
    if op == "!=":
        return left_value != right_value
    if op == "<":
        return left_value < right_value
    if op == "<=":
        return left_value <= right_value
    if op == ">":
        return left_value > right_value
    if op == ">=":
        return left_value >= right_value
    raise PureXMLError(f"unknown comparison operator {op!r}")
