"""Recursive-descent parser for the supported XQuery surface syntax.

The accepted grammar is the fragment of Fig. 1 of the paper plus the
extensions its Section III-C uses (``let``, ``where``, multi-variable
``for`` clauses, path predicates ``[...]`` and general comparisons between
two path expressions), plus the usual XPath abbreviations:

* ``//name``  for ``/descendant-or-self::node()/child::name`` (equivalently
  ``descendant::name`` for element name tests, which is how it is expanded),
* ``name``    for ``child::name``,
* ``@name``   for ``attribute::name``,
* ``text()``  and the other kind tests,
* a leading ``/`` for the root of the statically known context document.
"""

from __future__ import annotations

from repro.errors import XQuerySyntaxError
from repro.algebra.predicates import COMPARISON_OPS
from repro.xmldb.axes import AXES
from repro.xquery.ast import (
    Aggregate,
    AGGREGATE_FUNCTIONS,
    AndExpr,
    Comparison,
    ContextItem,
    Doc,
    Empty,
    EmptySequence,
    Exists,
    EXTERNAL_XS_TYPES,
    Expression,
    ExternalVar,
    ExternalVariable,
    Filter,
    ForExpr,
    IfExpr,
    LetExpr,
    NumberLiteral,
    Quantified,
    QueryModule,
    Root,
    Step,
    StringLiteral,
    VarRef,
    rewrite_variables,
)
from repro.xquery.lexer import Token, tokenize

_KIND_TESTS = frozenset(
    {"text", "node", "comment", "element", "attribute", "processing-instruction", "document-node"}
)

#: Function-call spellings of the supported aggregates (``count`` is also a
#: legal element name — only a following ``(`` makes it a call).
_AGGREGATE_NAMES = {
    name: function
    for function in AGGREGATE_FUNCTIONS
    for name in (function, f"fn:{function}")
}

#: Sequence tests, parsed with the same name-plus-``(`` lookahead as the
#: aggregates (``exists``/``empty`` are also legal element names).
_SEQUENCE_TESTS = {
    name: node_type
    for node_type in (Exists, Empty)
    for name in (node_type.__name__.lower(), f"fn:{node_type.__name__.lower()}")
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        self.position += 1
        return token

    def check(self, token_type: str, text: str | None = None) -> bool:
        token = self.peek()
        if token.type != token_type:
            return False
        return text is None or token.text == text

    def accept(self, token_type: str, text: str | None = None) -> Token | None:
        if self.check(token_type, text):
            return self.advance()
        return None

    def expect(self, token_type: str, text: str | None = None) -> Token:
        if not self.check(token_type, text):
            token = self.peek()
            expected = text or token_type
            raise XQuerySyntaxError(
                f"expected {expected!r} but found {token.text or token.type!r}", token.position
            )
        return self.advance()

    def _peek_is_keyword(self, offset: int, text: str) -> bool:
        token = self.peek(offset)
        return token.type == "keyword" and token.text == text

    def _peek_is_name(self, offset: int, text: str) -> bool:
        """Contextual keywords (``order``, ``by``, ``satisfies``, ...) stay
        plain names in the lexer so they remain legal element names."""
        token = self.peek(offset)
        return token.type == "name" and token.text == text

    def _expect_var_name_token(self) -> Token:
        """Variable names may collide with keywords (``$variable``, ``$as``, ...)."""
        token = self.peek()
        if token.type in ("name", "keyword"):
            return self.advance()
        raise XQuerySyntaxError(
            f"expected a variable name, found {token.text or token.type!r}", token.position
        )

    # -- grammar ----------------------------------------------------------------

    def parse_module(self) -> QueryModule:
        externals = self.parse_prolog()
        body = self.parse_expr_single()
        self.expect("eof")
        if externals:
            substitutions = {
                declaration.name: ExternalVar(declaration.name, declaration.xs_type)
                for declaration in externals
            }
            body = _substitute_externals(body, substitutions)
        return QueryModule(externals=tuple(externals), body=body)

    def parse_prolog(self) -> list[ExternalVariable]:
        """Parse ``declare variable $name (as xs:type)? external ;`` declarations."""
        externals: list[ExternalVariable] = []
        seen: set[str] = set()
        # Two-token lookahead: a lone ``declare`` is a legal element name
        # (e.g. the path ``declare/child::x``), only ``declare variable``
        # opens a declaration.
        while self.check("keyword", "declare") and self._peek_is_keyword(1, "variable"):
            self.advance()
            self.expect("keyword", "variable")
            self.expect("$")
            name_token = self._expect_var_name_token()
            xs_type: str | None = None
            if self.accept("keyword", "as"):
                type_token = self.expect("name")
                if type_token.text not in EXTERNAL_XS_TYPES:
                    supported = ", ".join(sorted(EXTERNAL_XS_TYPES))
                    raise XQuerySyntaxError(
                        f"unsupported external variable type {type_token.text!r} "
                        f"(supported: {supported})",
                        type_token.position,
                    )
                xs_type = type_token.text
            self.expect("keyword", "external")
            self.expect(";")
            if name_token.text in seen:
                raise XQuerySyntaxError(
                    f"duplicate declaration of external variable ${name_token.text}",
                    name_token.position,
                )
            seen.add(name_token.text)
            externals.append(ExternalVariable(name_token.text, xs_type))
        return externals

    def parse_expr_single(self) -> Expression:
        if self.check("keyword", "for") or self.check("keyword", "let"):
            return self.parse_flwor()
        if self.check("keyword", "if"):
            return self.parse_if()
        return self.parse_or_and()

    def parse_flwor(self) -> Expression:
        """Parse ``for``/``let`` clauses, an optional ``where`` and the ``return``."""
        bindings: list[tuple[str, str, Expression]] = []  # (kind, var, expr)
        while True:
            if self.accept("keyword", "for"):
                bindings.append(("for",) + self._parse_binding(":= not allowed", "in"))
                while self.accept(","):
                    bindings.append(("for",) + self._parse_binding(":= not allowed", "in"))
            elif self.accept("keyword", "let"):
                bindings.append(("let",) + self._parse_binding("in not allowed", ":="))
                while self.accept(","):
                    bindings.append(("let",) + self._parse_binding("in not allowed", ":="))
            else:
                break
        condition: Expression | None = None
        if self.accept("keyword", "where"):
            condition = self.parse_condition()
        order_key = self._parse_order_by(bindings)
        self.expect("keyword", "return")
        body = self.parse_expr_single()
        if condition is not None:
            body = IfExpr(condition, body)
        for kind, var, expr in reversed(bindings):
            if kind == "for":
                body = ForExpr(var, expr, body, order_key)
                order_key = None
            else:
                body = LetExpr(var, expr, body)
        return body

    def _parse_order_by(self, bindings: list) -> Expression | None:
        """Parse the supported ``order by`` subset: one ascending key."""
        if not (self._peek_is_name(0, "order") and self._peek_is_name(1, "by")):
            return None
        order_token = self.advance()
        self.advance()
        for_count = sum(1 for kind, _, _ in bindings if kind == "for")
        if for_count != 1:
            raise XQuerySyntaxError(
                "'order by' is supported for FLWORs with exactly one 'for' "
                f"binding (this one has {for_count})",
                order_token.position,
            )
        order_key = self.parse_path()
        if self._peek_is_name(0, "descending"):
            token = self.peek()
            raise XQuerySyntaxError(
                "descending order is not supported (ascending only)", token.position
            )
        if self._peek_is_name(0, "ascending"):
            self.advance()
        if self._peek_is_name(0, "empty"):
            token = self.peek()
            raise XQuerySyntaxError(
                "'empty greatest/least' modifiers are not supported", token.position
            )
        if self.check(","):
            token = self.peek()
            raise XQuerySyntaxError(
                "multiple 'order by' keys are not supported", token.position
            )
        return order_key

    def _parse_binding(self, error_hint: str, separator: str) -> tuple[str, Expression]:
        self.expect("$")
        var = self._expect_var_name_token().text
        if separator == "in":
            self.expect("keyword", "in")
        else:
            self.expect(":=")
        expr = self.parse_expr_single()
        return var, expr

    def parse_if(self) -> Expression:
        self.expect("keyword", "if")
        self.expect("(")
        condition = self.parse_condition()
        self.expect(")")
        self.expect("keyword", "then")
        then_branch = self.parse_expr_single()
        self.expect("keyword", "else")
        self.expect("(")
        self.expect(")")
        return IfExpr(condition, then_branch)

    def parse_condition(self) -> Expression:
        """A conjunction of comparisons / existence tests (``and`` only)."""
        left = self.parse_or_and()
        while self.accept("keyword", "and"):
            right = self.parse_or_and()
            left = AndExpr(left, right)
        return left

    def parse_or_and(self) -> Expression:
        if self.check("keyword", "or"):
            token = self.peek()
            raise XQuerySyntaxError("'or' is not part of the supported fragment", token.position)
        token = self.peek()
        if (
            token.type == "name"
            and token.text in ("some", "every")
            and self.peek(1).type == "$"
        ):
            return self.parse_quantified()
        return self.parse_comparison()

    def parse_quantified(self) -> Expression:
        """``some|every $var in sequence satisfies predicate`` (one binding)."""
        quantifier = self.advance().text
        self.expect("$")
        var = self._expect_var_name_token().text
        self.expect("keyword", "in")
        sequence = self.parse_path()
        if self.check(","):
            token = self.peek()
            raise XQuerySyntaxError(
                "quantified expressions support a single variable binding", token.position
            )
        if not self._peek_is_name(0, "satisfies"):
            token = self.peek()
            raise XQuerySyntaxError(
                f"expected 'satisfies' but found {token.text or token.type!r}",
                token.position,
            )
        self.advance()
        predicate = self.parse_condition()
        return Quantified(quantifier, var, sequence, predicate)

    def parse_comparison(self) -> Expression:
        left = self.parse_path()
        for op in COMPARISON_OPS:  # the general comparisons of grammar rule [60]
            if self.check(op):
                self.advance()
                right = self.parse_path()
                return Comparison(left, op, right)
        return left

    # -- paths --------------------------------------------------------------------

    def parse_path(self) -> Expression:
        token = self.peek()
        if token.type == "string":
            self.advance()
            return StringLiteral(token.text)
        if token.type == "number":
            self.advance()
            return NumberLiteral(float(token.text))
        if self.check("/") or self.check("//"):
            base: Expression = Root()
        else:
            base = self.parse_primary()
        return self.parse_relative_path(base)

    def parse_relative_path(self, base: Expression) -> Expression:
        expr = base
        expr = self.parse_filters(expr)
        while True:
            if self.accept("//"):
                # ``E//n`` abbreviates ``E/descendant-or-self::node()/child::n``;
                # for child steps this is equivalent to the single step
                # ``E/descendant::n``, which is also how the paper states Q1/Q2.
                step = self._parse_step(expr)
                if isinstance(step, Step) and step.axis == "child":
                    expr = Step(step.input, "descendant", step.node_test)
                elif isinstance(step, Step) and step.axis == "attribute":
                    expr = Step(Step(step.input, "descendant-or-self", "node()"), "attribute", step.node_test)
                else:
                    expr = step
            elif self.accept("/"):
                expr = self._parse_step(expr)
            else:
                break
            expr = self.parse_filters(expr)
        return expr

    def parse_filters(self, expr: Expression) -> Expression:
        while self.accept("["):
            predicate = self.parse_condition()
            self.expect("]")
            expr = Filter(expr, predicate)
        return expr

    def parse_primary(self) -> Expression:
        if self.check("keyword", "doc") and self.peek(1).type == "(":
            self.advance()
            self.expect("(")
            uri = self.expect("string").text
            self.expect(")")
            return Doc(uri)
        token = self.peek()
        if (
            token.type == "name"
            and token.text in _AGGREGATE_NAMES
            and self.peek(1).type == "("
        ):
            self.advance()
            self.expect("(")
            argument = self.parse_expr_single()
            self.expect(")")
            return Aggregate(_AGGREGATE_NAMES[token.text], argument)
        if (
            token.type == "name"
            and token.text in _SEQUENCE_TESTS
            and self.peek(1).type == "("
        ):
            self.advance()
            self.expect("(")
            argument = self.parse_expr_single()
            self.expect(")")
            return _SEQUENCE_TESTS[token.text](argument)
        if self.accept("$"):
            return VarRef(self._expect_var_name_token().text)
        if self.accept("."):
            return ContextItem()
        if self.check("("):
            if self.peek(1).type == ")":
                self.advance()
                self.advance()
                return EmptySequence()
            self.advance()
            inner = self.parse_expr_single()
            self.expect(")")
            return inner
        # A relative path starting with a step: the implicit base is the context item.
        if self.check("name") or self.check("@") or self.check("*") or self.check("keyword"):
            return self._parse_step(ContextItem())
        token = self.peek()
        raise XQuerySyntaxError(
            f"unexpected token {token.text or token.type!r} in expression", token.position
        )

    def _parse_step(self, base: Expression) -> Expression:
        """Parse one location step and attach it to ``base``."""
        if self.accept("@"):
            name = self._expect_step_name()
            return Step(base, "attribute", name)
        if self.accept("*"):
            return Step(base, "child", "*")
        token = self.peek()
        if token.type not in ("name", "keyword"):
            raise XQuerySyntaxError(
                f"expected a location step, found {token.text or token.type!r}", token.position
            )
        name = self.advance().text
        if self.accept("::"):
            axis = name
            if axis not in AXES:
                raise XQuerySyntaxError(f"unknown XPath axis {axis!r}", token.position)
            if self.accept("@"):
                return Step(base, axis, self._expect_step_name())
            if self.accept("*"):
                return Step(base, axis, "*")
            test_token = self.peek()
            if test_token.type not in ("name", "keyword"):
                raise XQuerySyntaxError(
                    f"expected a node test, found {test_token.text or test_token.type!r}",
                    test_token.position,
                )
            self.advance()
            node_test = self._maybe_kind_test(test_token.text)
            return Step(base, axis, node_test)
        node_test = self._maybe_kind_test(name)
        if node_test.endswith("()") and node_test[:-2] == "attribute":
            return Step(base, "attribute", "*")
        return Step(base, "child", node_test)

    def _expect_step_name(self) -> str:
        if self.accept("*"):
            return "*"
        token = self.peek()
        if token.type in ("name", "keyword"):
            return self.advance().text
        return self.expect("name").text

    def _maybe_kind_test(self, name: str) -> str:
        """Turn ``text`` + ``()`` into the kind test ``text()``; plain names stay."""
        if name in _KIND_TESTS and self.check("("):
            self.expect("(")
            self.expect(")")
            return f"{name}()"
        return name


def _substitute_externals(
    expr: Expression, substitutions: dict[str, ExternalVar]
) -> Expression:
    """Replace unshadowed :class:`VarRef` occurrences of declared externals.

    ``for``/``let`` bindings shadow an external of the same name inside their
    body (but not inside their own sequence / value expression), following
    the usual XQuery scoping rules — :func:`rewrite_variables` threads the
    shadow set.
    """

    def replace(node: Expression, shadowed: frozenset[str]) -> Expression:
        if isinstance(node, VarRef) and node.name in substitutions and node.name not in shadowed:
            return substitutions[node.name]
        return node

    return rewrite_variables(expr, replace)


def parse_module(source: str) -> QueryModule:
    """Parse XQuery text (prolog + body) into a :class:`QueryModule`.

    External variables declared in the prolog occur in the body as
    :class:`~repro.xquery.ast.ExternalVar` nodes, ready for the compiler to
    turn into late-bound parameter slots.
    """
    return _Parser(tokenize(source)).parse_module()


def parse_xquery(source: str) -> Expression:
    """Parse XQuery text into a surface AST.

    Queries that declare external variables must go through
    :func:`parse_module` (or a prepared-query API such as
    ``XQueryProcessor.prepare``) so that bindings can be supplied.
    """
    module = _Parser(tokenize(source)).parse_module()
    if module.externals:
        names = ", ".join(f"${declaration.name}" for declaration in module.externals)
        raise XQuerySyntaxError(
            f"query declares external variable(s) {names}; "
            "use parse_module() / prepare() and supply bindings"
        )
    return module.body
