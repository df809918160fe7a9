"""Predicate terms used by selections and joins of the table algebra.

The paper's predicates are conjunctions of comparisons whose sides are
columns, constants, or sums of columns and constants (``pre° + size°``,
``level° + 1``).  This module models exactly that vocabulary:

* :class:`ColumnRef` — a column reference,
* :class:`Literal` — a constant,
* :class:`Sum` — a sum of terms (used for ``pre + size`` and ``level + 1``),
* :class:`Comparison` — ``term op term`` with ``op ∈ {=, !=, <, <=, >, >=}``,
* :class:`Predicate` — a conjunction of comparisons.

All predicate objects are immutable and hashable so they can be shared
between plan nodes and compared structurally in tests.  The auxiliary
function ``cols(·)`` of the paper corresponds to the ``columns()`` methods.

This is the only comparison vocabulary.  A join graph's WHERE clause
(:mod:`repro.core.joingraph`) is a list of these comparisons over the same
literals, parameters and sums, its columns alias-qualified
:class:`~repro.core.joingraph.ColumnTerm` objects (the term protocol of
:class:`ColumnRef`: ``columns``, ``rename``, ``evaluate``, ``render``).  One
compiler turns either into a columnar mask; only how a column reference
resolves differs — a schema position of a
:class:`~repro.algebra.columnar.ColumnarTable` in the interpreter, an
alias's view of ``Rows`` in the B-tree engine:

>>> from repro.algebra.table import Table
>>> from repro.core.joingraph import ColumnTerm, JoinGraph
>>> from repro.core.sqlgen import render_join_graph
>>> from repro.relational.physical.operators import Rows, alias_columns
>>> condition = Comparison(ColumnTerm("d1", "pre"), "<", Sum(ColumnTerm("d2", "size"), Literal(1)))
>>> item = [(ColumnTerm("d1", "pre"), "item")]
>>> graph = JoinGraph(["d1", "d2"], [condition], item, order_terms=[], distinct=False)
>>> print(render_join_graph(graph))
SELECT d1.pre AS item
FROM doc AS d1,
     doc AS d2
WHERE d1.pre < d2.size + 1
>>> table = Table(("pre", "size"), [(0, 3), (1, 0), (2, 0), (3, 0)])
>>> rows = Rows({"d1": table, "d2": table}, {"d1": None, "d2": None}, 4)  # rows (k, k)
>>> compile_comparisons_mask([condition], alias_columns(rows.tables))(rows).tolist()
[True, False, False, False]
>>> algebra = Comparison(ColumnRef("pre"), "<", Sum(ColumnRef("size"), Literal(1)))
>>> compile_comparisons_mask([algebra], schema_columns(table.columns))(table.columnar()).tolist()
[True, False, False, False]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

from repro.errors import AlgebraError

#: Comparison operators admitted by the algebra (GeneralComp of Fig. 1).
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: ``a op b`` holds exactly when ``b FLIPPED_OP[op] a`` does.
FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column of the input table(s)."""

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def rename(self, mapping: Mapping[str, str]) -> "ColumnRef":
        return ColumnRef(mapping.get(self.name, self.name))

    def evaluate(self, row: Mapping[str, object]) -> object:
        try:
            return row[self.name]
        except KeyError:
            raise AlgebraError(f"unknown column {self.name!r} in predicate evaluation") from None

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal:
    """A constant value (number or string)."""

    value: object

    def columns(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Literal":
        return self

    def evaluate(self, row: Mapping[str, object]) -> object:
        return self.value

    def render(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter:
    """A late-bound query parameter slot (an external variable).

    Parameter terms are placeholders for values supplied at execution time:
    compiled plans carry them through predicates, and :meth:`Predicate.bind`
    turns them into :class:`Literal` terms once bindings are known.  They
    evaluate like the bound literal would; evaluating or compiling an
    *unbound* parameter is an error.
    """

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Parameter":
        return self

    def evaluate(self, row: Mapping[str, object]) -> object:
        raise AlgebraError(
            f"parameter ${self.name} is unbound; bind() the predicate "
            "(or pass parameters to the interpreter) before evaluation"
        )

    def render(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Sum:
    """A sum of terms, e.g. ``pre + size`` or ``level + 1``."""

    terms: tuple["Term", ...]

    def __init__(self, *terms: "Term"):
        if len(terms) < 2:
            raise AlgebraError("Sum needs at least two terms")
        object.__setattr__(self, "terms", tuple(terms))

    def columns(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for term in self.terms:
            result |= term.columns()
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Sum":
        return Sum(*(term.rename(mapping) for term in self.terms))

    def evaluate(self, row: Mapping[str, object]) -> object:
        total = 0
        for term in self.terms:
            value = term.evaluate(row)
            if value is None:
                return None
            total += value  # type: ignore[operator]
        return total

    def render(self) -> str:
        return " + ".join(term.render() for term in self.terms)


Term = Union[ColumnRef, Literal, Sum, Parameter]


def term_parameters(term: Term) -> frozenset[str]:
    """The names of all :class:`Parameter` slots occurring in ``term``."""
    if isinstance(term, Parameter):
        return frozenset((term.name,))
    if isinstance(term, Sum):
        result: frozenset[str] = frozenset()
        for part in term.terms:
            result |= term_parameters(part)
        return result
    return frozenset()


def term_aliases(term: Term) -> frozenset[str]:
    """The aliases qualifying the column terms in ``term`` (none in the algebra)."""
    if isinstance(term, Sum):
        return frozenset().union(*map(term_aliases, term.terms))
    alias = getattr(term, "alias", None)
    return frozenset() if alias is None else frozenset((alias,))


def bind_term(term: Term, values: Mapping[str, object]) -> Term:
    """Replace :class:`Parameter` slots in ``term`` by :class:`Literal` values."""
    if isinstance(term, Parameter):
        try:
            return Literal(values[term.name])
        except KeyError:
            raise AlgebraError(f"no binding supplied for parameter ${term.name}") from None
    if isinstance(term, Sum) and term_parameters(term):
        return Sum(*(bind_term(part, values) for part in term.terms))
    return term


def _compare(left: object, op: str, right: object) -> bool:
    """Three-valued-ish comparison: any ``None`` operand makes the test fail."""
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    # Mixed numeric / string comparisons fail rather than raise, mirroring
    # SQL's type checking at a level adequate for the doc encoding.
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        return False
    raise AlgebraError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True)
class Comparison:
    """A single comparison ``left op right``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise AlgebraError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def aliases(self) -> frozenset[str]:
        """The aliases qualifying the column terms: a join-graph condition's
        ``doc`` aliases, none in the algebra.  Computed once: the planner
        reads it for every condition it orders."""
        return self._aliases

    @cached_property
    def _aliases(self) -> frozenset[str]:
        return term_aliases(self.left) | term_aliases(self.right)

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(self.left.rename(mapping), self.op, self.right.rename(mapping))

    def flipped(self) -> "Comparison":
        """Return the equivalent comparison with sides exchanged."""
        return Comparison(self.right, FLIPPED_OP[self.op], self.left)

    def parameters(self) -> frozenset[str]:
        """Names of the unbound :class:`Parameter` slots in this comparison."""
        return term_parameters(self.left) | term_parameters(self.right)

    def bind(self, values: Mapping[str, object]) -> "Comparison":
        """Resolve parameter slots against ``values`` (identity if none occur)."""
        if not self.parameters():
            return self
        return Comparison(bind_term(self.left, values), self.op, bind_term(self.right, values))

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return _compare(self.left.evaluate(row), self.op, self.right.evaluate(row))

    def is_column_equality(self) -> bool:
        """True for ``a = b`` with both sides plain columns (a key-join conjunct)."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"


@dataclass(frozen=True)
class Predicate:
    """A conjunction of comparisons (possibly a single one)."""

    conjuncts: tuple[Comparison, ...]

    def __init__(self, conjuncts: Iterable[Comparison]):
        conjuncts = tuple(conjuncts)
        if not conjuncts:
            raise AlgebraError("a predicate needs at least one conjunct")
        object.__setattr__(self, "conjuncts", conjuncts)

    @staticmethod
    def of(*conjuncts: Comparison) -> "Predicate":
        return Predicate(conjuncts)

    @staticmethod
    def equality(left: str, right: str) -> "Predicate":
        """Convenience constructor for a single-column equi-join predicate."""
        return Predicate.of(Comparison(ColumnRef(left), "=", ColumnRef(right)))

    def columns(self) -> frozenset[str]:
        return self._columns

    @cached_property
    def _columns(self) -> frozenset[str]:
        # Built once: a predicate is immutable, and the rewrite rules and
        # property inference ask for its columns thousands of times per plan.
        return frozenset().union(*(conjunct.columns() for conjunct in self.conjuncts))

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        return Predicate(conjunct.rename(mapping) for conjunct in self.conjuncts)

    def parameters(self) -> frozenset[str]:
        """Names of all unbound :class:`Parameter` slots in the conjunction."""
        result: frozenset[str] = frozenset()
        for conjunct in self.conjuncts:
            result |= conjunct.parameters()
        return result

    def bind(self, values: Mapping[str, object]) -> "Predicate":
        """Resolve parameter slots against ``values`` (identity if none occur)."""
        if not self.parameters():
            return self
        return Predicate(conjunct.bind(values) for conjunct in self.conjuncts)

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return all(conjunct.evaluate(row) for conjunct in self.conjuncts)

    def column_equalities(self) -> list[tuple[str, str]]:
        """All ``a = b`` column/column equality conjuncts as ``(a, b)`` pairs."""
        pairs = []
        for conjunct in self.conjuncts:
            if conjunct.is_column_equality():
                pairs.append((conjunct.left.name, conjunct.right.name))  # type: ignore[union-attr]
        return pairs

    def is_single_column_equality(self) -> bool:
        """True when the predicate is exactly one ``a = b`` column equality."""
        return len(self.conjuncts) == 1 and self.conjuncts[0].is_column_equality()

    def render(self) -> str:
        return " ∧ ".join(conjunct.render() for conjunct in self.conjuncts)


# ---------------------------------------------------------------------------
# Columnar (mask) compilation
# ---------------------------------------------------------------------------
#
# ``Term.evaluate`` / ``Predicate.evaluate`` take one row *dictionary* at a
# time — the reference semantics the naive interpreter runs.  The production
# paths compile a predicate tree *once* per operator instead: a term into a
# closure over a columnar source returning a whole
# :class:`~repro.algebra.columnar.Column` (or a scalar), and a conjunction
# into a closure returning one boolean *mask* over all rows.  The mask
# kernels in :mod:`repro.algebra.columnar` implement exactly the
# :func:`_compare` semantics as one comparison of order ranks.  ``resolve``
# compiles a column reference: :func:`schema_columns` reads a
# ColumnarTable's columns by schema position, and the B-tree engine reads
# an alias's view of its ``Rows``.


def schema_columns(columns: Sequence[str]):
    """Compile a :class:`ColumnRef` to its column of a ColumnarTable with schema ``columns``."""
    index_of = {name: position for position, name in enumerate(columns)}

    def resolve(term):
        if not isinstance(term, ColumnRef):
            raise AlgebraError(f"cannot compile term {term!r}")
        try:
            position = index_of[term.name]
        except KeyError:
            raise AlgebraError(
                f"unknown column {term.name!r} in predicate compilation"
            ) from None
        return lambda table: table.cols[position]

    return resolve


def compile_term_columnar(term: Term, resolve):
    """Compile ``term`` into a closure over a columnar source (``resolve`` compiles its columns)."""
    if not isinstance(term, (Literal, Sum, Parameter)):  # a column reference
        return resolve(term)
    if isinstance(term, Literal):
        value = term.value
        return lambda source: value
    if isinstance(term, Sum):
        from repro.algebra import columnar as _columnar

        parts = tuple(compile_term_columnar(part, resolve) for part in term.terms)
        return lambda source: _columnar.sum_columns(
            [part(source) for part in parts], source.length
        )
    raise AlgebraError(
        f"parameter ${term.name} must be bound before predicate compilation; "
        "call Predicate.bind() or pass parameters to the interpreter"
    )


def compile_comparisons_mask(comparisons: Iterable[Comparison], resolve):
    """Compile a conjunction into one mask closure over a columnar source (``None`` if empty)."""
    compiled = tuple(
        (
            compile_term_columnar(conjunct.left, resolve),
            conjunct.op,
            compile_term_columnar(conjunct.right, resolve),
        )
        for conjunct in comparisons
    )
    if not compiled:
        return None
    from repro.algebra import columnar as _columnar

    return lambda source: _columnar.conjunction_mask(compiled, source)


def compile_predicate_mask(predicate: Predicate, columns: Sequence[str]):
    """Compile a predicate into one boolean-mask closure over a :class:`ColumnarTable`."""
    return compile_comparisons_mask(predicate.conjuncts, schema_columns(columns))


def column(name: str) -> ColumnRef:
    """Shorthand constructor used pervasively by the compiler."""
    return ColumnRef(name)


def const(value: object) -> Literal:
    """Shorthand constructor for literal terms."""
    return Literal(value)
