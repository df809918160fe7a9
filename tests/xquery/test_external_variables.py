"""External variable declarations: prolog parsing, substitution, compilation."""

import pytest

from repro.errors import (
    XQueryBindingError,
    XQueryCompilationError,
    XQuerySyntaxError,
)
from repro.xquery import ast
from repro.xquery.ast import (
    ExternalVar,
    ExternalVariable,
    bind_external_variables,
    check_bindings,
)
from repro.xquery.compiler import LoopLiftingCompiler
from repro.xquery.lexer import tokenize
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_module, parse_xquery


# -- lexing -----------------------------------------------------------------------


def test_lexer_prolog_tokens():
    tokens = tokenize("declare variable $x as xs:decimal external;")
    kinds = [(token.type, token.text) for token in tokens]
    assert ("keyword", "declare") in kinds
    assert ("keyword", "variable") in kinds
    assert ("keyword", "as") in kinds
    assert ("keyword", "external") in kinds
    assert (";", ";") in kinds
    assert ("name", "xs:decimal") in kinds


def test_prolog_keywords_still_work_as_element_names():
    expr = parse_xquery('doc("a.xml")/child::variable/child::external')
    assert isinstance(expr, ast.Step)
    assert expr.node_test == "external"


def test_prolog_keywords_still_work_as_variable_names():
    """Regression: promoting declare/variable/external/as to keywords must
    not break ``$variable``-style names or FLWOR bindings using them."""
    expr = parse_xquery('for $variable in doc("t.xml")/child::a return $variable')
    assert isinstance(expr, ast.ForExpr)
    assert expr.var == "variable"
    assert expr.body == ast.VarRef("variable")
    let = parse_xquery('let $as := doc("t.xml")/child::a return $as')
    assert isinstance(let, ast.LetExpr) and let.var == "as"


def test_path_starting_with_declare_element():
    """A lone ``declare`` is an element name; only ``declare variable``
    opens a prolog declaration."""
    expr = parse_xquery("declare/child::x")
    assert isinstance(expr, ast.Step)
    assert expr.node_test == "x"
    inner = expr.input
    assert isinstance(inner, ast.Step) and inner.node_test == "declare"


# -- parsing ----------------------------------------------------------------------


def test_parse_module_without_prolog():
    module = parse_module('doc("a.xml")/descendant::b')
    assert module.externals == ()
    assert isinstance(module.body, ast.Step)


def test_parse_module_declarations_and_substitution():
    module = parse_module(
        "declare variable $lo as xs:decimal external;"
        "declare variable $tag external;"
        'for $b in doc("a.xml")/descendant::b '
        "where $b/child::c > $lo and $b/child::d = $tag return $b"
    )
    assert module.externals == (
        ExternalVariable("lo", "xs:decimal"),
        ExternalVariable("tag", None),
    )
    rendered = ast.render(module.body)
    assert "$lo" in rendered and "$tag" in rendered
    found = set()

    def walk(expr):
        if isinstance(expr, ExternalVar):
            found.add((expr.name, expr.xs_type))
        for child in ast.child_expressions(expr):
            walk(child)

    walk(module.body)
    assert found == {("lo", "xs:decimal"), ("tag", None)}


def test_for_binding_shadows_external_of_same_name():
    module = parse_module(
        "declare variable $x external;"
        'for $x in doc("a.xml")/descendant::b return $x'
    )
    body = module.body
    assert isinstance(body, ast.ForExpr)
    assert body.body == ast.VarRef("x")  # shadowed: still a VarRef, not ExternalVar


def test_duplicate_declaration_rejected():
    with pytest.raises(XQuerySyntaxError, match="duplicate"):
        parse_module(
            "declare variable $x external; declare variable $x external; //b"
        )


def test_unsupported_type_annotation_rejected():
    with pytest.raises(XQuerySyntaxError, match="unsupported external variable type"):
        parse_module("declare variable $x as xs:date external; //b")


def test_parse_xquery_rejects_external_declarations():
    with pytest.raises(XQuerySyntaxError, match="external variable"):
        parse_xquery("declare variable $x external; //b")


# -- bindings validation ------------------------------------------------------------


DECLS = (ExternalVariable("n", "xs:decimal"), ExternalVariable("s", None))


def test_check_bindings_normalizes_numerics_to_float():
    values = check_bindings(DECLS, {"n": 5, "s": "x"})
    assert values == {"n": 5.0, "s": "x"}
    assert isinstance(values["n"], float)


def test_check_bindings_missing_and_unknown():
    with pytest.raises(XQueryBindingError, match=r"missing binding.*\$s"):
        check_bindings(DECLS, {"n": 1})
    with pytest.raises(XQueryBindingError, match=r"undeclared.*\$oops"):
        check_bindings(DECLS, {"n": 1, "s": "x", "oops": 2})


def test_check_bindings_type_errors():
    with pytest.raises(XQueryBindingError, match="xs:decimal"):
        check_bindings(DECLS, {"n": "5", "s": "x"})
    with pytest.raises(XQueryBindingError, match="as xs:decimal"):
        # Binding a number to an untyped (string) external suggests the fix.
        check_bindings(DECLS, {"n": 1, "s": 7})
    with pytest.raises(XQueryBindingError):
        check_bindings((ExternalVariable("b", "xs:integer"),), {"b": True})


def test_integer_types_require_integral_values():
    decls = (ExternalVariable("k", "xs:integer"),)
    assert check_bindings(decls, {"k": 3})["k"] == 3.0
    assert check_bindings(decls, {"k": 3.0})["k"] == 3.0
    with pytest.raises(XQueryBindingError, match="non-integral"):
        check_bindings(decls, {"k": 2.5})
    with pytest.raises(XQueryBindingError, match="non-integral"):
        check_bindings(decls, {"k": float("nan")})
    # xs:decimal keeps accepting fractional values.
    assert check_bindings((ExternalVariable("k", "xs:decimal"),), {"k": 2.5})["k"] == 2.5


def test_a_nan_binding_is_refused_on_every_engine():
    # SQLite would bind NaN as NULL and the in-process engines as a number.
    from repro.core.session import Session
    from repro.core.stages import ENGINES

    session = Session()
    session.register("t.xml", "<r><a>3</a><a>1</a><a>x</a><a>2</a></r>")
    query = 'declare variable $n as xs:decimal external; doc("t.xml")//a[. != $n]'
    for engine in ENGINES:
        with pytest.raises(XQueryBindingError, match="NaN"):
            session.execute(query, configuration=engine.name, bindings={"n": float("nan")})
    with pytest.raises(XQueryBindingError, match="NaN"):
        check_bindings(DECLS, {"n": float("nan"), "s": "x"})


def test_bind_external_variables_substitutes_literals():
    module = parse_module(
        "declare variable $n as xs:decimal external; //b[. > $n]"
    )
    bound = bind_external_variables(module.body, {"n": 2.0})
    rendered = ast.render(bound)
    assert "$n" not in rendered
    assert "2" in rendered


# -- normalization + compilation -----------------------------------------------------


def test_normalize_keeps_external_vars():
    module = parse_module("declare variable $n as xs:decimal external; //b[. > $n]")
    core = normalize(module.body, default_document="a.xml")
    assert "$n" in ast.render(core)


def _compiled_parameters(plan):
    from repro.algebra.dag import iter_nodes
    from repro.algebra.operators import Join, Select

    names = set()
    for node in iter_nodes(plan):
        if isinstance(node, (Select, Join)):
            names |= node.predicate.parameters()
    return names


def test_compiler_emits_parameter_slots():
    module = parse_module(
        "declare variable $n as xs:decimal external; "
        'doc("a.xml")/descendant::b[. > $n]'
    )
    core = normalize(module.body)
    plan = LoopLiftingCompiler().compile(core)
    assert _compiled_parameters(plan) == {"n"}


def test_typed_parameter_targets_data_untyped_targets_value():
    from repro.algebra.dag import iter_nodes
    from repro.algebra.operators import Select
    from repro.algebra.predicates import ColumnRef, Parameter

    def column_for(source):
        module = parse_module(source)
        plan = LoopLiftingCompiler().compile(normalize(module.body))
        for node in iter_nodes(plan):
            if isinstance(node, Select) and node.predicate.parameters():
                (conjunct,) = node.predicate.conjuncts
                assert isinstance(conjunct.right, Parameter)
                assert isinstance(conjunct.left, ColumnRef)
                return conjunct.left.name
        raise AssertionError("no parameterized selection in the plan")

    numeric = 'declare variable $v as xs:decimal external; doc("a.xml")/descendant::b[. > $v]'
    untyped = 'declare variable $v external; doc("a.xml")/descendant::b[. = $v]'
    assert column_for(numeric) == "data"
    assert column_for(untyped) == "value"


def test_standalone_external_variable_rejected():
    module = parse_module("declare variable $x external; $x")
    with pytest.raises(XQueryCompilationError, match="comparison operand"):
        LoopLiftingCompiler().compile(normalize(module.body))
