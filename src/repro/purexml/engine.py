"""The pureXML-substitute engine: XISCAN (value index) + XSCAN (traversal).

Example — evaluate navigationally over a column store, ad-hoc and prepared:

>>> from repro.xmldb.parser import parse_xml
>>> from repro.purexml.storage import XMLColumnStore
>>> doc = parse_xml("<a><b>1</b><b>2</b></a>", uri="tiny.xml")
>>> engine = PureXMLEngine(XMLColumnStore.whole(doc))
>>> engine.execute('doc("tiny.xml")/child::a/child::b').node_count
2
>>> prepared = engine.prepare('declare variable $v external; //b[. = $v]')
>>> [node.string_value() for node in prepared.run({"v": "2"}).nodes]
['2']

Binding happens on the surface AST (external variables become literal
nodes), so a bound comparison is XISCAN-eligible exactly like its ad-hoc
literal counterpart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import check_deadline
from repro.purexml.pattern_index import XMLPatternIndex
from repro.purexml.storage import XMLColumnStore
from repro.purexml.xscan import XScan
from repro.xmldb.infoset import XMLNode
from repro.xquery import ast
from repro.xquery.ast import QueryModule, bind_external_variables, check_bindings
from repro.xquery.parser import parse_module


@dataclass
class PureXMLResult:
    """Result of one pureXML evaluation.

    ``nodes`` holds the result nodes; ``values`` the atomic items the query
    produced alongside them (aggregate results such as ``fn:count(...)`` —
    numbers, in sequence order).
    """

    nodes: list[XMLNode]
    rows_visited: int
    used_index: Optional[str] = None
    values: list = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass
class PureXMLEngine:
    """Evaluate the XQuery fragment navigationally over an XML column store."""

    store: XMLColumnStore
    pattern_indexes: list[XMLPatternIndex] = field(default_factory=list)

    def create_pattern_index(self, pattern: str, as_type: str = "VARCHAR") -> XMLPatternIndex:
        index = XMLPatternIndex(pattern, as_type).build(self.store)
        self.pattern_indexes.append(index)
        return index

    # -- evaluation --------------------------------------------------------------------

    def execute(
        self,
        source: str,
        timeout_seconds: Optional[float] = None,
        bindings: Optional[Mapping[str, object]] = None,
    ) -> PureXMLResult:
        """Evaluate ``source`` over every candidate row (XISCAN → XSCAN).

        ``bindings`` supplies values for external variables the query
        declares; for repeated execution with changing bindings, use
        :meth:`prepare` to skip re-parsing.
        """
        return self._execute_module(parse_module(source), timeout_seconds, bindings)

    def prepare(self, source: str) -> "PreparedPureXMLQuery":
        """Parse once; re-run with fresh bindings via the returned handle."""
        return PreparedPureXMLQuery(engine=self, module=parse_module(source))

    def _execute_module(
        self,
        module: QueryModule,
        timeout_seconds: Optional[float],
        bindings: Optional[Mapping[str, object]],
    ) -> PureXMLResult:
        values = check_bindings(module.externals, bindings)
        expr = bind_external_variables(module.body, values) if values else module.body
        deadline = time.perf_counter() + timeout_seconds if timeout_seconds else None
        candidate_rids, used_index = self._xiscan(expr)
        nodes: list[XMLNode] = []
        values: list = []
        visited = 0
        for rid in sorted(candidate_rids):
            check_deadline(deadline, timeout_seconds)
            doc = self.store.rows[rid]
            visited += 1
            scan = XScan(doc, deadline, budget=timeout_seconds)
            for item in scan.evaluate(expr):
                if isinstance(item, XMLNode):
                    nodes.append(item)
                elif isinstance(item, (int, float)) and not isinstance(item, bool):
                    values.append(item)
        return PureXMLResult(
            nodes=nodes, rows_visited=visited, used_index=used_index, values=values
        )

    # -- XISCAN: index eligibility and lookup ---------------------------------------------

    def _xiscan(self, expr: ast.Expression) -> tuple[set[int], Optional[str]]:
        """Find an eligible value index for a comparison in the query, if any."""
        all_rids = set(range(len(self.store.rows)))
        comparison = _find_literal_comparison(expr)
        if comparison is None or not self.pattern_indexes:
            return all_rids, None
        path_text, op, value = comparison
        for index in self.pattern_indexes:
            if index.covers(path_text):
                rids = index.lookup(value) if op == "=" else index.lookup_range(op, value)
                return rids, index.pattern
        return all_rids, None


def _find_literal_comparison(expr: ast.Expression) -> Optional[tuple[str, str, object]]:
    """Locate a ``path op literal`` comparison usable for an index lookup."""
    if isinstance(expr, ast.Comparison):
        literal = None
        path = None
        if isinstance(expr.right, (ast.StringLiteral, ast.NumberLiteral)):
            literal, path, op = expr.right, expr.left, expr.op
        elif isinstance(expr.left, (ast.StringLiteral, ast.NumberLiteral)):
            literal, path, op = expr.left, expr.right, expr.op
        if literal is not None and isinstance(path, ast.Step):
            return _path_text(path), op, literal.value
        return None
    for child in _children(expr):
        found = _find_literal_comparison(child)
        if found is not None:
            return found
    return None


def _children(expr: ast.Expression) -> tuple[ast.Expression, ...]:
    from repro.xquery.ast import child_expressions

    return child_expressions(expr)


def _path_text(step: ast.Step) -> str:
    parts: list[str] = []
    node: ast.Expression = step
    while isinstance(node, ast.Step):
        prefix = "@" if node.axis == "attribute" else ""
        separator = "//" if node.axis in ("descendant", "descendant-or-self") else "/"
        parts.append(f"{separator}{prefix}{node.node_test}")
        node = node.input
    return "".join(reversed(parts))


@dataclass
class PreparedPureXMLQuery:
    """A parsed pureXML query, re-runnable with fresh bindings.

    Late binding substitutes the external-variable slots of the surface AST
    with literal nodes right before XISCAN/XSCAN, so index eligibility is
    decided per binding.
    """

    engine: PureXMLEngine
    module: QueryModule

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return self.module.parameter_names

    def run(
        self,
        bindings: Optional[Mapping[str, object]] = None,
        timeout_seconds: Optional[float] = None,
    ) -> PureXMLResult:
        """Evaluate with the given bindings (all declared externals required)."""
        return self.engine._execute_module(self.module, timeout_seconds, bindings)
