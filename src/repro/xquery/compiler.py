"""The loop-lifting XQuery compiler (Fig. 13 of the paper).

Every expression ``e`` is compiled relative to

* an *environment* Γ mapping in-scope variables to algebra plans, and
* a *loop* plan — a single-column table ``iter`` holding one row per
  iteration of the innermost enclosing ``for`` loop.

The compiled plan of ``e`` is a table with schema ``iter | pos | item``:
a row ``[i, p, v]`` states that in iteration ``i`` the evaluation of ``e``
produced the node with ``pre`` rank ``v`` at sequence position ``p``.

The implemented inference rules are DOC, DDO, STEP, IF, COMP, FOR and VAR
of the paper's appendix, extended — as its Section III-C describes — with
LET bindings and general comparisons between two node-valued expressions
(value joins over the ``doc`` encoding).

Column naming: every rule instance draws *fresh* names for its auxiliary
columns (``pre1``/``size1``/``level1`` for step contexts, ``inner``/
``outer``/``sort`` for loop lifting, ...).  The paper's figures do the
same (cf. ``pre°`` vs. ``pre1`` in Fig. 7); it guarantees that the join
graph isolation rewrites can combine plan fragments without column clashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import XQueryCompilationError
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    DocTable,
    GroupAggregate,
    Join,
    LiteralTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.algebra.predicates import (
    FLIPPED_OP,
    ColumnRef,
    Comparison as AlgComparison,
    Literal,
    Parameter,
    Predicate,
    Sum,
)
from repro.xmldb.axes import Operand, axis_predicate_spec, node_test_conditions
from repro.xquery import ast
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_xquery

#: The standard interface schema every compiled sub-plan exposes.
ITER_POS_ITEM = ("iter", "pos", "item")


@dataclass(frozen=True)
class CompilerSettings:
    """Knobs of the compilation scheme.

    ``add_serialization_step`` appends the extra
    ``/descendant-or-self::node()`` step the paper uses to make the cost of
    result serialization explicit to the back-end (Section IV, "Autonomous
    index design").
    """

    add_serialization_step: bool = False
    default_document: Optional[str] = None


@dataclass
class LoopLiftingCompiler:
    """Compile (normalized) XQuery ASTs into table algebra plan DAGs."""

    settings: CompilerSettings = field(default_factory=CompilerSettings)

    def __post_init__(self) -> None:
        #: The single shared ``doc`` leaf all node references resolve to (Fig. 4).
        self.doc = DocTable()
        self._fresh = 0

    # -- public API ---------------------------------------------------------------

    def compile(self, expr: ast.Expression) -> Serialize:
        """Compile a *core* AST (cf. :func:`repro.xquery.normalize.normalize`)."""
        if self.settings.add_serialization_step:
            expr = self._wrap_serialization_step(expr)
        loop = LiteralTable(("iter",), [(1,)])
        plan = self._compile(expr, {}, loop)
        return Serialize(plan)

    def compile_source(self, source: str) -> Serialize:
        """Parse, normalize and compile XQuery source text."""
        surface = parse_xquery(source)
        core = normalize(surface, default_document=self.settings.default_document)
        return self.compile(core)

    # -- helpers --------------------------------------------------------------------

    def _fresh_suffix(self) -> str:
        self._fresh += 1
        return str(self._fresh)

    @staticmethod
    def _wrap_serialization_step(expr: ast.Expression) -> ast.Expression:
        """``for $ser in Q return $ser/descendant-or-self::node()``."""
        var = "serialization_context"
        return ast.ForExpr(
            var,
            expr,
            ast.FsDdo(ast.Step(ast.VarRef(var), "descendant-or-self", "node()")),
        )

    # -- the compilation scheme -------------------------------------------------------

    def _compile(
        self, expr: ast.Expression, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        if isinstance(expr, ast.VarRef):
            return self._compile_var(expr, env)
        if isinstance(expr, ast.Doc):
            return self._compile_doc(expr, loop)
        if isinstance(expr, ast.FsDdo):
            return self._compile_ddo(expr, env, loop)
        if isinstance(expr, ast.Step):
            return self._compile_step(expr, env, loop)
        if isinstance(expr, ast.IfExpr):
            return self._compile_if(expr, env, loop)
        if isinstance(expr, ast.ForExpr):
            return self._compile_for(expr, env, loop)
        if isinstance(expr, ast.LetExpr):
            return self._compile_let(expr, env, loop)
        if isinstance(expr, ast.FnBoolean):
            # Effective boolean value == existence of rows; the IF rule keys on
            # the iterations present in the condition plan, so fn:boolean is the
            # identity at the plan level.
            return self._compile(expr.argument, env, loop)
        if isinstance(expr, ast.Comparison):
            return self._compile_comparison(expr, env, loop)
        if isinstance(expr, ast.PositionFilter):
            return self._compile_position_filter(expr, env, loop)
        if isinstance(expr, ast.Aggregate):
            return self._compile_aggregate(expr, env, loop)
        if isinstance(expr, ast.EmptySequence):
            return LiteralTable(ITER_POS_ITEM, [])
        if isinstance(expr, (ast.StringLiteral, ast.NumberLiteral)):
            raise XQueryCompilationError(
                "standalone literals are only supported as comparison operands"
            )
        if isinstance(expr, ast.ExternalVar):
            raise XQueryCompilationError(
                f"external variable ${expr.name} is only supported as a comparison operand"
            )
        raise XQueryCompilationError(f"cannot compile AST node {type(expr).__name__}")

    # Rule VAR.
    def _compile_var(self, expr: ast.VarRef, env: Mapping[str, Operator]) -> Operator:
        try:
            return env[expr.name]
        except KeyError:
            raise XQueryCompilationError(f"unbound variable ${expr.name}") from None

    # Rule DOC.
    def _compile_doc(self, expr: ast.Doc, loop: Operator) -> Operator:
        doc_nodes = Select(
            self.doc,
            Predicate.of(
                AlgComparison(ColumnRef("kind"), "=", Literal("DOC")),
                AlgComparison(ColumnRef("name"), "=", Literal(expr.uri)),
            ),
        )
        lifted_loop = Attach(loop, "pos", 1)
        return Project(
            Cross(doc_nodes, lifted_loop),
            [("iter", "iter"), ("pos", "pos"), ("item", "pre")],
        )

    # Rule DDO.
    def _compile_ddo(
        self, expr: ast.FsDdo, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q = self._compile(expr.argument, env, loop)
        projected = Project(q, [("iter", "iter"), ("item", "item")])
        return RowRank(Distinct(projected), "pos", ("item",), ("iter",))

    # Rule STEP.
    def _compile_step(
        self, expr: ast.Step, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q = self._compile(expr.input, env, loop)
        suffix = self._fresh_suffix()
        pre_ctx, size_ctx, level_ctx = f"pre{suffix}", f"size{suffix}", f"level{suffix}"
        context = Project(
            Join(self.doc, q, Predicate.equality("pre", "item")),
            [("iter", "iter"), (pre_ctx, "pre"), (size_ctx, "size"), (level_ctx, "level")],
        )
        candidates: Operator = self.doc
        test_conjuncts = [
            AlgComparison(ColumnRef(column), op, Literal(value))
            for column, op, value in node_test_conditions(expr.node_test, expr.axis)
        ]
        if test_conjuncts:
            candidates = Select(self.doc, Predicate(test_conjuncts))
        axis_predicate = self._axis_predicate(expr.axis, pre_ctx, size_ctx, level_ctx)
        step_join = Join(candidates, context, axis_predicate)
        projected = Project(step_join, [("iter", "iter"), ("item", "pre")])
        return RowRank(projected, "pos", ("item",), ("iter",))

    def _axis_predicate(
        self, axis: str, pre_ctx: str, size_ctx: str, level_ctx: str
    ) -> Predicate:
        """Translate the declarative axis spec into an algebra join predicate."""
        rename = {"pre": pre_ctx, "size": size_ctx, "level": level_ctx}

        def term(operand: Operand):
            if operand.side == "ctx":
                base = ColumnRef(rename[operand.column])
                plus = ColumnRef(rename[operand.plus_column]) if operand.plus_column else None
            else:
                base = ColumnRef(operand.column)
                plus = ColumnRef(operand.plus_column) if operand.plus_column else None
            parts = [base]
            if plus is not None:
                parts.append(plus)
            if operand.offset:
                parts.append(Literal(operand.offset))
            if len(parts) == 1:
                return parts[0]
            return Sum(*parts)

        spec = axis_predicate_spec(axis)
        conjuncts = [
            AlgComparison(term(condition.left), condition.op, term(condition.right))
            for condition in spec.conditions
        ]
        return Predicate(conjuncts)

    # Rule IF.
    def _compile_if(
        self, expr: ast.IfExpr, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q_if = self._compile(expr.condition, env, loop)
        suffix = self._fresh_suffix()
        iter1 = f"iter1_{suffix}"
        loop_if = Distinct(Project(q_if, [(iter1, "iter")]))
        new_env = {
            name: Project(
                Join(loop_if, plan, Predicate.of(AlgComparison(ColumnRef(iter1), "=", ColumnRef("iter")))),
                [("iter", "iter"), ("pos", "pos"), ("item", "item")],
            )
            for name, plan in env.items()
        }
        new_loop = Project(loop_if, [("iter", iter1)])
        return self._compile(expr.then_branch, new_env, new_loop)

    # Rule FOR.
    def _compile_for(
        self, expr: ast.ForExpr, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q_in = self._compile(expr.sequence, env, loop)
        suffix = self._fresh_suffix()
        inner, outer, sort = f"inner{suffix}", f"outer{suffix}", f"sort{suffix}"
        pos1 = f"pos1_{suffix}"
        q_bound = RowId(q_in, inner)
        loop_map = Project(q_bound, [(outer, "iter"), (inner, inner), (sort, "pos")])
        new_env = {
            name: Project(
                Join(loop_map, plan, Predicate.of(AlgComparison(ColumnRef(outer), "=", ColumnRef("iter")))),
                [("iter", inner), ("pos", "pos"), ("item", "item")],
            )
            for name, plan in env.items()
        }
        new_env[expr.var] = Attach(
            Project(q_bound, [("iter", inner), ("item", "item")]), "pos", 1
        )
        new_loop = Project(loop_map, [("iter", inner)])
        q_body = self._compile(expr.body, new_env, new_loop)
        joined: Operator = Join(
            q_body, loop_map, Predicate.of(AlgComparison(ColumnRef("iter"), "=", ColumnRef(inner)))
        )
        order_by: tuple[str, ...] = (sort, "pos")
        if expr.order_key is not None:
            # ORD: the key plan maps each binding (iter = inner) to the
            # string value of its key node; ranking by ⟨key, sort, pos⟩
            # instead of ⟨sort, pos⟩ reorders the loop's contributions by
            # key value ascending, binding order as tiebreak.  The inner
            # key join also drops bindings without a key — the supported
            # contract is one existent string-valued key per binding.
            key_col, key_iter = f"okey{suffix}", f"oiter{suffix}"
            q_key = self._compile(expr.order_key, new_env, new_loop)
            key_map = Project(
                Join(self.doc, q_key, Predicate.equality("pre", "item")),
                [(key_iter, "iter"), (key_col, "value")],
            )
            joined = Join(
                joined,
                key_map,
                Predicate.of(AlgComparison(ColumnRef("iter"), "=", ColumnRef(key_iter))),
            )
            order_by = (key_col, sort, "pos")
        ranked = RowRank(joined, pos1, order_by, (outer,))
        return Project(ranked, [("iter", outer), ("pos", pos1), ("item", "item")])

    # Rule LET (extension, Section III-C).
    def _compile_let(
        self, expr: ast.LetExpr, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        bound = self._compile(expr.value, env, loop)
        new_env = dict(env)
        new_env[expr.var] = bound
        return self._compile(expr.body, new_env, loop)

    # Rule POS (positional predicates ``E[n]`` beyond the range-join form).
    def _compile_position_filter(
        self, expr: ast.PositionFilter, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q = self._compile(expr.sequence, env, loop)
        position: "Literal | Parameter"
        if expr.parameter is not None:
            position = Parameter(expr.parameter)
        else:
            value = expr.position
            if value is None or not float(value).is_integer():
                # A non-integral position() test never holds.
                return LiteralTable(ITER_POS_ITEM, [])
            position = Literal(int(value))
        selected = Select(q, Predicate.of(AlgComparison(ColumnRef("pos"), "=", position)))
        # The selected item is a singleton per iteration: its position is 1.
        return Attach(Project(selected, [("iter", "iter"), ("item", "item")]), "pos", 1)

    # Rule AGGR (fn:count / fn:sum / fn:avg, Section III-C).
    def _compile_aggregate(
        self, expr: ast.Aggregate, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q = self._compile(expr.argument, env, loop)
        suffix = self._fresh_suffix()
        if expr.function == "count":
            child: Operator = Project(q, [("iter", "iter"), ("item", "item")])
            value_column = None
        else:
            # sum/avg aggregate the numeric ``data`` column of the nodes the
            # argument evaluates to; the pre = item context join collapses
            # into the argument's own doc alias during isolation.
            value_column = f"data{suffix}"
            atomized = Join(self.doc, q, Predicate.equality("pre", "item"))
            child = Project(
                atomized, [("iter", "iter"), ("item", "item"), (value_column, "data")]
            )
        aggregated = GroupAggregate(
            child,
            loop,
            expr.function,
            group_column="iter",
            unit_column="item",
            value_column=value_column,
        )
        return Attach(aggregated, "pos", 1)

    # Rule COMP (and its value-join extension).
    _LITERAL_OPERANDS = (ast.StringLiteral, ast.NumberLiteral, ast.ExternalVar)

    def _compile_comparison(
        self, expr: ast.Comparison, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        left_literal = isinstance(expr.left, self._LITERAL_OPERANDS)
        right_literal = isinstance(expr.right, self._LITERAL_OPERANDS)
        if left_literal and right_literal:
            raise XQueryCompilationError(
                "comparisons between two literals / external variables are not supported"
            )
        left_aggregate = isinstance(expr.left, ast.Aggregate)
        right_aggregate = isinstance(expr.right, ast.Aggregate)
        if left_aggregate or right_aggregate:
            if right_aggregate and not left_aggregate:
                aggregate, other, op = expr.right, expr.left, FLIPPED_OP[expr.op]
            else:
                aggregate, other, op = expr.left, expr.right, expr.op
            if not isinstance(other, self._LITERAL_OPERANDS):
                raise XQueryCompilationError(
                    "aggregates compare against literals or external variables only"
                )
            return self._compile_aggregate_comparison(aggregate, op, other, env, loop)  # type: ignore[arg-type]
        if left_literal or right_literal:
            if right_literal:
                node_expr, literal, op = expr.left, expr.right, expr.op
            else:
                node_expr, literal, op = expr.right, expr.left, FLIPPED_OP[expr.op]
            return self._compile_comparison_with_literal(node_expr, op, literal, env, loop)
        return self._compile_value_join(expr, env, loop)

    def _compile_comparison_with_literal(
        self,
        node_expr: ast.Expression,
        op: str,
        literal: ast.Expression,
        env: Mapping[str, Operator],
        loop: Operator,
    ) -> Operator:
        q = self._compile(node_expr, env, loop)
        atomized = Join(self.doc, q, Predicate.equality("pre", "item"))
        value_term: "Literal | Parameter"
        if isinstance(literal, ast.ExternalVar):
            # A late-bound parameter slot: the declared type picks the column
            # (numeric comparisons go against ``data``, string ones against
            # ``value``), the value arrives at execution time.
            column = "data" if literal.is_numeric else "value"
            value_term = Parameter(literal.name)
        elif isinstance(literal, ast.NumberLiteral):
            column, value_term = "data", Literal(literal.value)
        else:
            column, value_term = "value", Literal(literal.value)  # type: ignore[union-attr]
        selected = Select(atomized, Predicate.of(AlgComparison(ColumnRef(column), op, value_term)))
        per_iteration = Distinct(Project(selected, [("iter", "iter")]))
        return Attach(Attach(per_iteration, "pos", 1), "item", 1)

    def _compile_aggregate_comparison(
        self,
        aggregate: "ast.Aggregate",
        op: str,
        literal: ast.Expression,
        env: Mapping[str, Operator],
        loop: Operator,
    ) -> Operator:
        """``count($x) > 2`` — the aggregate's value compares directly.

        Unlike node operands, an aggregate's ``item`` column already *is*
        the comparison value — no atomization join against ``doc``.
        """
        q = self._compile_aggregate(aggregate, env, loop)
        value_term: "Literal | Parameter"
        if isinstance(literal, ast.ExternalVar):
            value_term = Parameter(literal.name)
        elif isinstance(literal, ast.NumberLiteral):
            value_term = Literal(literal.value)
        else:
            value_term = Literal(literal.value)  # type: ignore[union-attr]
        selected = Select(q, Predicate.of(AlgComparison(ColumnRef("item"), op, value_term)))
        per_iteration = Distinct(Project(selected, [("iter", "iter")]))
        return Attach(Attach(per_iteration, "pos", 1), "item", 1)

    def _compile_value_join(
        self, expr: ast.Comparison, env: Mapping[str, Operator], loop: Operator
    ) -> Operator:
        q_left = self._compile(expr.left, env, loop)
        q_right = self._compile(expr.right, env, loop)
        suffix = self._fresh_suffix()
        left_value, right_value, right_iter = f"lval{suffix}", f"rval{suffix}", f"riter{suffix}"
        left_plan = Project(
            Join(self.doc, q_left, Predicate.equality("pre", "item")),
            [("iter", "iter"), (left_value, "value")],
        )
        right_plan = Project(
            Join(self.doc, q_right, Predicate.equality("pre", "item")),
            [(right_iter, "iter"), (right_value, "value")],
        )
        joined = Join(
            left_plan,
            right_plan,
            Predicate.of(
                AlgComparison(ColumnRef("iter"), "=", ColumnRef(right_iter)),
                AlgComparison(ColumnRef(left_value), expr.op, ColumnRef(right_value)),
            ),
        )
        per_iteration = Distinct(Project(joined, [("iter", "iter")]))
        return Attach(Attach(per_iteration, "pos", 1), "item", 1)


def compile_query(
    source: str,
    settings: Optional[CompilerSettings] = None,
) -> Serialize:
    """Parse, normalize and compile XQuery source text into a plan DAG."""
    compiler = LoopLiftingCompiler(settings or CompilerSettings())
    return compiler.compile_source(source)
