"""Join graph extraction from an isolated plan.

After join graph isolation the plan consists of a *plan tail* (projection,
duplicate elimination, ordering) over a *join bundle*: projections,
selections, column attachments, joins and cross products over references to
the ``doc`` encoding table (Section III-B / Fig. 7 of the paper).

This module casts that plan into an explicit :class:`JoinGraph`:

* one alias (``d1``, ``d2``, ...) per reference to ``doc``,
* a conjunctive ``WHERE`` condition over the aliases' columns,
* the output items, the ordering terms and the DISTINCT flag of the tail.

Shared sub-plans are emitted once (their aliases and conditions appear a
single time), which matches the relational reading of the DAG: the loop
bookkeeping columns introduced by the compiler (``#``-generated row ids)
then only ever occur in trivially-true equalities and never have to be
rendered.  If a non-trivial condition or an output item would require such
a column, extraction fails with :class:`~repro.errors.JoinGraphError` and
the caller falls back to evaluating the algebra plan directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from repro.errors import JoinGraphError
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
    Comparison,
    Literal,
    Parameter,
    Predicate,
    Sum,
    bind_term,
    term_aliases,
    term_parameters,
)


# ---------------------------------------------------------------------------
# Join-graph terms
# ---------------------------------------------------------------------------
#
# A graph's conditions are the algebra's own :class:`Comparison` objects and
# its constants, parameters and sums the algebra's :class:`Literal`,
# :class:`Parameter` and :class:`Sum`; extraction only requalifies columns.


@dataclass(frozen=True)
class ColumnTerm:
    """A reference to a column of one ``doc`` alias, e.g. ``d2.pre``.

    The :class:`~repro.algebra.predicates.ColumnRef` protocol over the
    qualified name; a row without the column reads it as NULL, as the
    B-tree engine reads a column its alias lacks.
    """

    alias: str
    column: str

    def columns(self) -> frozenset[str]:
        return frozenset((self.render(),))

    def rename(self, mapping: Mapping[str, str]) -> "ColumnTerm":
        return self

    def evaluate(self, row: Mapping[str, object]) -> object:
        return row.get(self.render())

    def render(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class PseudoTerm:
    """A value generated by ``#`` / ``ϱ`` — never renderable in SQL.

    Pseudo terms may only participate in trivially-true equalities (both
    sides identical); anything else aborts extraction.
    """

    token: str

    def render(self) -> str:  # pragma: no cover - defensive
        raise JoinGraphError(f"generated column {self.token} cannot appear in SQL")


@dataclass(frozen=True)
class AggregateTerm:
    """The value produced by a pushed-down aggregate (Aggr's ``item``).

    A marker in the select list: the SQL renderers and the relational
    engine resolve it through the graph's :class:`AggregateSpec` (it has no
    standalone rendering).  Like a pseudo term it must not appear in
    predicates — an aggregate compared inside a condition is outside the
    join-graph fragment and aborts extraction.
    """

    function: str

    def render(self) -> str:  # pragma: no cover - defensive
        raise JoinGraphError(
            f"aggregate {self.function}(...) renders through the graph's aggregate spec"
        )


Term = Union[ColumnTerm, Literal, Sum, Parameter, PseudoTerm, AggregateTerm]


def _parameters(terms) -> frozenset[str]:
    return frozenset().union(*map(term_parameters, terms))


def _bind_all(terms, values: Mapping[str, object]) -> tuple[Term, ...]:
    return tuple(bind_term(term, values) for term in terms)


@dataclass(frozen=True)
class WindowSpec:
    """A rank (ϱ) that survives into the SFW block as a window function.

    ``partition``/``order`` are the renderable terms of the rank's
    ``PARTITION BY`` / ``ORDER BY`` clauses.  ``alias_count`` and
    ``condition_count`` mark the prefix of the graph's aliases/conditions
    that had been emitted when the rank was — a superset of the rank's own
    subtree; :meth:`JoinGraph.window_block` cuts the rank's scope from it.
    The window value must be computed over that scope (a derived table),
    never over the fully-joined SFW block: join partners added
    *downstream* of the rank can eliminate context rows and would silently
    shift every rank below them.

    ``DENSE_RANK`` (not ``ROW_NUMBER``/``RANK``) is the correct function
    over the raw bundle: the δ below the compiled rank dedups exactly the
    rank's (partition, order) identity, so dense-ranking the bundle *with*
    duplicates equals ranking the deduplicated rows.
    """

    token: str
    partition: tuple[Term, ...]
    order: tuple[Term, ...]
    alias_count: int
    condition_count: int

    def key_terms(self) -> tuple[Term, ...]:
        """The terms that uniquely determine one window value."""
        return self.partition + self.order

    def bind(self, values: Mapping[str, object]) -> "WindowSpec":
        return replace(
            self, partition=_bind_all(self.partition, values), order=_bind_all(self.order, values)
        )


@dataclass(frozen=True)
class WindowCondition:
    """One comparison of a rank's window value: ``DENSE_RANK(...) op value``."""

    spec: WindowSpec
    op: str
    value: Term

    def parameters(self) -> frozenset[str]:
        return _parameters((self.value, *self.spec.key_terms()))

    def bind(self, values: Mapping[str, object]) -> "WindowCondition":
        return replace(self, spec=self.spec.bind(values), value=bind_term(self.value, values))


@dataclass(frozen=True)
class HavingCondition:
    """An aggregate value compared inside ``where`` — HAVING on the grouping.

    The aggregate's *inner* scope (its argument bundle) occupies the alias
    range ``[spec.outer_alias_count, alias_count)`` and the condition range
    ``[spec.outer_condition_count, condition_count)`` of the graph
    (:meth:`JoinGraph.having_argument`).  The outer SFW block must not join
    those aliases; instead the aggregate renders as a correlated scalar
    subquery over exactly that range —
    ``(SELECT COUNT(u) FROM (SELECT DISTINCT g, u FROM ... WHERE ...) h)
    op value`` — which is the grouped ``GROUP BY g HAVING agg op value``
    encoding folded onto one (correlated) group.  The scalar form is what
    keeps empty groups visible: ``fn:count`` over an empty argument is 0
    and must still satisfy conditions like ``= 0`` (the ``empty()``
    desugaring), which a bare ``GROUP BY ... HAVING`` would lose.
    """

    spec: "AggregateSpec"
    op: str
    value: Term
    alias_count: int
    condition_count: int

    def parameters(self) -> frozenset[str]:
        return _parameters((self.value, *self.spec.terms()))

    def bind(self, values: Mapping[str, object]) -> "HavingCondition":
        return replace(self, spec=self.spec.bind(values), value=bind_term(self.value, values))


@dataclass
class AggregateSpec:
    """A pushed-down aggregate over the join graph (Section III-C widening).

    The graph's ``aliases``/``conditions`` are partitioned into an *outer*
    scope (the aliases that define the enclosing loop's iterations — the
    first ``outer_alias_count`` aliases and ``outer_condition_count``
    conditions, in emission order) and an *inner* scope (everything after:
    the aggregate argument's bundle, including its correlations to the
    outer aliases).

    ``group`` is the outer iteration identity (a constant for a top-level
    aggregate — the scalar form); ``child_group`` the same identity as the
    argument bundle computes it.  ``unit`` identifies one argument node
    (its ``pre``): the aggregation runs over the *distinct*
    ``(group, unit[, value])`` rows of the bundle, mirroring the
    :class:`~repro.algebra.operators.GroupAggregate` semantics, so bundle
    row multiplicities never leak into a count or sum.  ``value`` is the
    aggregated ``data`` term (``None`` for count).
    """

    function: str
    group: Term
    child_group: Term
    unit: Term
    value: Optional[Term]
    outer_distinct: bool
    outer_alias_count: int
    outer_condition_count: int

    @property
    def is_scalar(self) -> bool:
        """Top-level aggregate: the loop is the constant singleton."""
        return isinstance(self.group, Literal)

    def inner_items(self) -> tuple[list[tuple[Term, str]], str, Optional[str]]:
        """The argument bundle's select list, its COUNT column, its value column.

        The select list names the group identity ``g``, the unit ``u`` (the
        argument node's ``pre``) and the aggregated value ``v``, each
        distinct term once.  The bundle is always ``DISTINCT`` over these
        columns (the operator's dedup-own semantics).  The COUNT column is
        never NULL per real row, which is what makes ``COUNT(i.<col>)`` over
        a LEFT JOIN report 0 for empty groups.
        """
        items: list[tuple[Term, str]] = [(self.child_group, "g")]

        def resolve(term: Term, fallback_name: str) -> str:
            for existing, name in items:
                if existing == term:
                    return name
            items.append((term, fallback_name))
            return fallback_name

        count_column = resolve(self.unit, "u")
        value_column = resolve(self.value, "v") if self.value is not None else None
        return items, count_column, value_column

    def terms(self) -> list[Term]:
        result = [self.group, self.child_group, self.unit]
        if self.value is not None:
            result.append(self.value)
        return result

    def bind(self, values: Mapping[str, object]) -> "AggregateSpec":
        group, child_group, unit = _bind_all((self.group, self.child_group, self.unit), values)
        value = bind_term(self.value, values)  # None for count stays None
        return replace(self, group=group, child_group=child_group, unit=unit, value=value)


@dataclass
class JoinGraph:
    """The isolated join graph of one query, ready for SQL emission / planning.

    A graph with an aggregate, windows or HAVING filters spans several SFW
    blocks.  Each block is a method returning a plain :class:`JoinGraph`
    (no aggregate, window or HAVING of its own), and both the SQL renderer
    and the relational engine read exactly these blocks.
    """

    aliases: list[str]
    conditions: list[Comparison]
    select_items: list[tuple[Term, str]]
    order_terms: list[Term]
    distinct: bool
    #: Set when the tail aggregates the bundle (fn:count/sum/avg pushdown).
    aggregate: Optional[AggregateSpec] = None
    #: Positional predicates over surviving ranks (windowed-rank isolation).
    windows: list[WindowCondition] = field(default_factory=list)
    #: Aggregate-vs-value comparisons from ``where`` (HAVING-style filters).
    having: list["HavingCondition"] = field(default_factory=list)

    @property
    def self_join_width(self) -> int:
        """Number of ``doc`` references — the "n-fold self-join" of the paper."""
        return len(self.aliases)

    def conditions_for(self, alias: str) -> list[Comparison]:
        """All conditions that touch exactly the given alias (local predicates)."""
        return [c for c in self.conditions if c.aliases() == frozenset({alias})]

    def parameters(self) -> frozenset[str]:
        """Names of all unbound :class:`~repro.algebra.predicates.Parameter` slots in the graph."""
        terms = [term for term, _name in self.select_items] + list(self.order_terms)
        if self.aggregate is not None:
            terms += self.aggregate.terms()
        filters = [*self.conditions, *self.windows, *self.having]
        return _parameters(terms).union(*(each.parameters() for each in filters))

    def bind(self, values: Mapping[str, object]) -> "JoinGraph":
        """Resolve every parameter slot against ``values``.

        Returns a structurally identical graph with
        :class:`~repro.algebra.predicates.Literal` values in place of the
        slots — exactly the graph the ad-hoc path would have extracted for a
        query with those values as literals — so the cost-based planner gets
        to make value-aware access-path choices per binding.  Identity when
        the graph has no parameters.
        """
        if not self.parameters():
            return self
        return replace(
            self,
            aliases=list(self.aliases),
            conditions=[condition.bind(values) for condition in self.conditions],
            select_items=[(bind_term(term, values), name) for term, name in self.select_items],
            order_terms=list(_bind_all(self.order_terms, values)),
            aggregate=self.aggregate.bind(values) if self.aggregate is not None else None,
            windows=[window.bind(values) for window in self.windows],
            having=[having.bind(values) for having in self.having],
        )

    # -- SFW blocks ------------------------------------------------------------------

    def _block(self, aliases, conditions, select_items, order_terms=(), distinct=True):
        """A plain sub-graph; nested blocks are sets (a rank or aggregate owns its dedup)."""
        return JoinGraph(
            aliases=list(aliases),
            conditions=list(conditions),
            select_items=list(select_items),
            order_terms=list(order_terms),
            distinct=distinct,
        )

    def _without_arguments(self, alias_end: int, condition_end: int, keep=None):
        """The aliases/conditions before the marks, minus every where-aggregate's
        argument range except ``keep``'s."""
        aliases, conditions = set(), set()
        for having in self.having:
            if having is not keep:
                aliases.update(range(having.spec.outer_alias_count, having.alias_count))
                conditions.update(
                    range(having.spec.outer_condition_count, having.condition_count)
                )
        return (
            [a for i, a in enumerate(self.aliases[:alias_end]) if i not in aliases],
            [c for i, c in enumerate(self.conditions[:condition_end]) if i not in conditions],
        )

    def outer_block(self) -> "JoinGraph":
        """The main block: every alias and condition outside the where-aggregates'
        argument ranges, with the graph's select list, order and DISTINCT."""
        aliases, conditions = self._without_arguments(len(self.aliases), len(self.conditions))
        return self._block(
            aliases, conditions, self.select_items, self.order_terms, self.distinct
        )

    def aggregate_inner(self) -> "JoinGraph":
        """The aggregate's argument bundle: every alias and condition, DISTINCT
        over :meth:`AggregateSpec.inner_items`.

        >>> from repro.core.pipeline import XQueryProcessor
        >>> from repro.xmldb.encoding import encode_document
        >>> from repro.xmldb.parser import parse_xml
        >>> encoding = encode_document(parse_xml("<a><b><c/></b><b/></a>", uri="t.xml"))
        >>> processor = XQueryProcessor(encoding, default_document="t.xml")
        >>> graph = processor.compile("for $b in //b return fn:count($b/c)").join_graph
        >>> inner, outer = graph.aggregate_inner(), graph.aggregate_outer()
        >>> inner.aliases, [(term.render(), name) for term, name in inner.select_items]
        (['d1', 'd2', 'd3'], [('d1.pre', 'g'), ('d3.pre', 'u')])
        >>> outer.aliases, [(term.render(), name) for term, name in outer.select_items]
        (['d1', 'd2'], [('d1.pre', 'g')])
        """
        items, _count_column, _value_column = self.aggregate.inner_items()
        return self._block(self.aliases, self.conditions, items)

    def aggregate_outer(self) -> "JoinGraph":
        """The iterations of a grouped aggregate: the loop prefix, selecting the
        group term once as ``g`` and every other result column after it
        (example: :meth:`aggregate_inner`)."""
        spec = self.aggregate
        items = [(spec.group, "g")]
        for term, name in self.select_items[1:]:
            if all(term != existing for existing, _name in items):
                items.append((term, name))
        return self._block(
            self.aliases[: spec.outer_alias_count],
            self.conditions[: spec.outer_condition_count],
            items,
            self.order_terms,
            spec.outer_distinct,
        )

    def window_block(self, spec: WindowSpec) -> "JoinGraph":
        """A rank's scope, DISTINCT over its key terms ``k0``, ``k1``, ...

        Starts from the alias/condition prefix the rank was emitted against
        and keeps only the join closure of the key terms' aliases.  The
        prefix may contain aliases whose connecting conditions come *after*
        the rank (a downstream step's target, e.g. the ``increase`` child
        below a ranked ``bidder``): inside the scope they are a disconnected
        component — a pure multiplicative factor the DISTINCT erases, at
        cross-product cost that grows with the document.  Dropping a
        component can only *add* ranks for rows the outer block (which
        repeats every condition) already rejects, so the join-back result
        is unchanged.
        """
        conditions = self.conditions[: spec.condition_count]
        needed: set[str] = set()
        for term in spec.key_terms():
            needed |= term_aliases(term)
        while True:
            grown = set(needed)
            for condition in conditions:
                if condition.aliases() & grown:
                    grown |= condition.aliases()
            if grown == needed:
                break
            needed = grown
        return self._block(
            [alias for alias in self.aliases[: spec.alias_count] if alias in needed],
            [condition for condition in conditions if condition.aliases() <= needed],
            [(term, f"k{index}") for index, term in enumerate(spec.key_terms())],
        )

    def having_argument(self, having: HavingCondition) -> "JoinGraph":
        """A where-aggregate's own range: the correlated subquery SQL renders."""
        spec = having.spec
        items, _count_column, _value_column = spec.inner_items()
        return self._block(
            self.aliases[spec.outer_alias_count : having.alias_count],
            self.conditions[spec.outer_condition_count : having.condition_count],
            items,
        )

    def having_bundle(self, having: HavingCondition) -> "JoinGraph":
        """A where-aggregate's outer prefix plus its own range, uncorrelated.

        The relational engine cannot correlate, so it groups this bundle
        once; SQL renders :meth:`having_argument` instead, so SQLite need not
        re-join the prefix per outer row.  Sibling where-aggregates' ranges
        stay out of the bundle.
        """
        items, _count_column, _value_column = having.spec.inner_items()
        aliases, conditions = self._without_arguments(
            having.alias_count, having.condition_count, keep=having
        )
        return self._block(aliases, conditions, items)

    def _is_closed(self) -> bool:
        """Every condition, result and ordering term stays inside the block's aliases."""
        inside = set(self.aliases)
        terms = [term for term, _name in self.select_items] + list(self.order_terms)
        return all(condition.aliases() <= inside for condition in self.conditions) and all(
            term_aliases(term) <= inside for term in terms
        )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


#: The operators a join graph is made of, besides ``doc`` and the Aggr (commonest first).
_EXTRACTABLE = (
    Project, Select, Join, Distinct, Serialize, RowRank, RowId, Cross, Attach, LiteralTable
)

#: The steps of :meth:`_Extractor.emit`'s walk: before a node's inputs, after
#: them, and between an Aggr's loop and its argument.
_ENTER, _FINISH, _INNER = range(3)


class _Extractor:
    def __init__(self):
        self.aliases: list[str] = []
        self.conditions: list[Comparison] = []
        self.distinct = False
        self.rank_orders: dict[str, list[Term]] = {}
        self.rank_windows: dict[str, WindowSpec] = {}
        self.rowid_keys: dict[str, tuple[Term, ...]] = {}
        self.windows: list[WindowCondition] = []
        self.having: list[HavingCondition] = []
        self._memo: dict[int, Mapping[str, Term]] = {}
        self._alias_counter = itertools.count(1)
        self._pseudo_counter = itertools.count(1)
        #: Aggregate pushdown state: ``None`` outside an Aggr, else the
        #: scope the walk is currently inside ("outer" = the loop bundle,
        #: "inner" = the argument bundle).
        self.aggregate: Optional[AggregateSpec] = None
        self._aggregate_scope: Optional[str] = None
        #: The alias/condition counts where the pending Aggr's inner scope starts.
        self._inner_marks = (0, 0)
        self._outer_distinct = False

    # -- helpers -------------------------------------------------------------------

    def _new_alias(self) -> str:
        return f"d{next(self._alias_counter)}"

    def _new_pseudo(self, hint: str) -> PseudoTerm:
        return PseudoTerm(f"{hint}#{next(self._pseudo_counter)}")

    def _translate_term(self, term, mapping: Mapping[str, Term]) -> Term:
        if isinstance(term, ColumnRef):
            resolved = mapping.get(term.name)
            if resolved is None:
                raise JoinGraphError(f"column {term.name!r} is not available in the join graph")
            return resolved
        if isinstance(term, (Literal, Parameter)):
            return term
        if isinstance(term, Sum):
            return Sum(*(self._translate_term(part, mapping) for part in term.terms))
        raise JoinGraphError(f"cannot translate predicate term {term!r}")

    def _add_predicate(self, predicate: Predicate, mapping: Mapping[str, Term]) -> None:
        for conjunct in predicate.conjuncts:
            left = self._translate_term(conjunct.left, mapping)
            right = self._translate_term(conjunct.right, mapping)
            if conjunct.op == "=" and left == right:
                continue  # trivially true (e.g. the collapsed iteration equalities)
            if self._try_window_condition(left, conjunct.op, right):
                continue
            if isinstance(left, PseudoTerm) or isinstance(right, PseudoTerm):
                raise JoinGraphError(
                    "a generated (row id / rank) column appears in a non-trivial predicate; "
                    "the plan is not a pure join graph"
                )
            if self._try_having_condition(left, conjunct.op, right):
                continue
            if isinstance(left, AggregateTerm) or isinstance(right, AggregateTerm):
                raise JoinGraphError(
                    "an aggregate value appears inside a predicate; aggregates are "
                    "only expressible in the result position of a join graph"
                )
            self.conditions.append(Comparison(left, conjunct.op, right))

    def _try_window_condition(self, left: Term, op: str, right: Term) -> bool:
        """A rank pseudo compared against a renderable value → window filter."""
        if isinstance(left, PseudoTerm) and left.token in self.rank_windows:
            pseudo, value = left, right
        elif isinstance(right, PseudoTerm) and right.token in self.rank_windows:
            pseudo, value = right, left
            op = FLIPPED_OP[op]
        else:
            return False
        if not isinstance(value, (Literal, Parameter)):
            return False
        self.windows.append(
            WindowCondition(spec=self.rank_windows[pseudo.token], op=op, value=value)
        )
        return True

    def _try_having_condition(self, left: Term, op: str, right: Term) -> bool:
        """The pending aggregate's value compared in ``where`` → HAVING filter.

        Converts the extractor's pending :class:`AggregateSpec` (just
        emitted, directly below the σ being translated) into a
        :class:`HavingCondition` closing the aggregate's inner scope at the
        current alias/condition marks.  The aggregate slot is released: the
        result position belongs to whatever the plan produces upstream.
        """
        if isinstance(left, AggregateTerm) and not isinstance(right, AggregateTerm):
            value = right
        elif isinstance(right, AggregateTerm) and not isinstance(left, AggregateTerm):
            value = left
            op = FLIPPED_OP[op]
        else:
            return False
        if self.aggregate is None:
            return False
        if not isinstance(value, (Literal, Parameter)):
            return False
        self.having.append(
            HavingCondition(
                spec=self.aggregate,
                op=op,
                value=value,
                alias_count=len(self.aliases),
                condition_count=len(self.conditions),
            )
        )
        self.aggregate = None
        return True

    def _rowid_key_term(self, node: RowId) -> Optional[Term]:
        """A renderable stand-in for a ``#`` row id, when one provably exists.

        ``#`` promises *unique* ids; any column (term) whose values are
        unique per input row is a valid refinement.  The compiler's loop
        row ids sit above the ddo of the loop's binding sequence: when that
        δ's dedup identity consists of columns of **one** ``doc`` alias
        including its ``pre`` (the encoding key), the δ's rows — and hence
        the row ids — are keyed by exactly ``alias.pre``.  This is what lets
        a surviving iteration row id (e.g. the group column feeding a
        pushed-down aggregate) render as the paper's pre/level encoding
        instead of aborting extraction.
        """
        current: Operator = node.child
        while isinstance(current, (Project, Select, Attach, RowRank, Serialize)):
            current = current.children[0]
        if isinstance(current, Distinct):
            source: Operator = current.child
        else:
            # Rule (6) may have pruned the ddo's δ because duplicates were
            # unobservable upstream; a ``#`` observes multiplicity, so the
            # pruning already committed to the input being duplicate-free.
            # Its *visible* columns then carry the proof: when every
            # non-constant one renders from a single doc alias including
            # ``pre``, each is functionally determined by that ``pre``
            # (the encoding key), so distinct rows imply distinct ``pre``.
            source = node.child
        inner_mapping = self._memo.get(id(source))
        if inner_mapping is None:  # pragma: no cover - child was just emitted
            return None
        alias: Optional[str] = None
        saw_pre = False
        for column in source.columns:
            term = inner_mapping.get(column)
            if isinstance(term, Literal):
                continue
            if not isinstance(term, ColumnTerm):
                return None
            if alias is None:
                alias = term.alias
            elif term.alias != alias:
                return None
            if term.column == "pre":
                saw_pre = True
        if alias is None or not saw_pre:
            return None
        return ColumnTerm(alias, "pre")

    def _rowid_key_terms(
        self, child_mapping: Mapping[str, Term], node: RowId
    ) -> Optional[tuple[Term, ...]]:
        """A *compound* renderable key for a multi-alias ``#`` input.

        An inner loop's row id numbers the cross of the outer iteration with
        the inner binding sequence, so its input spans several aliases and no
        single ``pre`` stands in for it.  But every visible column is
        functionally determined by its alias's ``pre`` (the encoding key),
        and a visible row-id pseudo carries its own recorded key; the tuple
        of those therefore keys the visible row.  The tuple is usable
        wherever a term *list* is spliced — rank partitions and the
        ϱ-splice of orders — though never as a single value.
        """
        expanded: list[Term] = []
        for column in node.child.columns:
            term = child_mapping.get(column)
            if isinstance(term, Literal):
                continue
            if isinstance(term, ColumnTerm):
                expanded.append(ColumnTerm(term.alias, "pre"))
                continue
            if isinstance(term, PseudoTerm):
                recorded = self.rank_orders.get(term.token)
                if recorded is None:
                    key = self.rowid_keys.get(term.token)
                    recorded = list(key) if key is not None else None
                if recorded is None:
                    return None
                expanded.extend(recorded)
                continue
            return None
        deduped: list[Term] = []
        for term in expanded:
            if term not in deduped:
                deduped.append(term)
        if not deduped:
            return None
        return tuple(deduped)

    # -- the walk ---------------------------------------------------------------------

    def emit(self, root: Operator) -> Mapping[str, Term]:
        """The column → term mapping of ``root``'s output.

        One post-order walk over an explicit stack (a plan's depth is data),
        inputs left to right and an Aggr's loop before its argument, so
        aliases and conditions are numbered in the order a recursive descent
        would give them.  Every *reference* to ``doc`` becomes its own alias
        (self-joins!); any other shared node is emitted once.
        """
        memo = self._memo
        finished: list[Mapping[str, Term]] = []  # the mappings of emitted inputs
        stack: list[tuple[Operator, int]] = [(root, _ENTER)]
        while stack:
            node, step = stack.pop()
            if step == _FINISH:
                count = len(node.children)
                mapping = self._finish(node, *finished[len(finished) - count:])
                del finished[len(finished) - count:]
                memo[id(node)] = mapping
                finished.append(mapping)
            elif step == _INNER:
                # The loop bundle is the outer scope; the argument adds the inner one.
                self._inner_marks = (len(self.aliases), len(self.conditions))
                self._aggregate_scope = "inner"
            elif isinstance(node, DocTable):
                alias = self._new_alias()
                self.aliases.append(alias)
                finished.append({column: ColumnTerm(alias, column) for column in node.columns})
            elif id(node) in memo:
                finished.append(memo[id(node)])
            elif isinstance(node, _EXTRACTABLE):
                stack.append((node, _FINISH))
                for child in reversed(node.children):
                    stack.append((child, _ENTER))
            elif isinstance(node, GroupAggregate):
                if self.aggregate is not None or self._aggregate_scope is not None:
                    raise JoinGraphError(
                        "nested aggregates are not expressible in a single join graph"
                    )
                self._aggregate_scope = "outer"
                stack += (node, _FINISH), (node.child, _ENTER), (node, _INNER), (node.loop, _ENTER)
            else:
                raise JoinGraphError(
                    f"operator {type(node).__name__} cannot appear in a join graph"
                )
        return finished.pop()

    def _finish(
        self, node: Operator, mapping: Optional[Mapping] = None, other: Optional[Mapping] = None
    ) -> Mapping[str, Term]:
        """``node``'s mapping from its inputs': ``mapping`` is the one, the left
        or the loop input's, ``other`` the right or the argument input's."""
        if isinstance(node, Project):
            return {new: mapping[old] for new, old in node.items}
        if isinstance(node, Select):
            self._add_predicate(node.predicate, mapping)
            return mapping
        if isinstance(node, (Join, Cross)):
            combined = {**mapping, **other}
            if isinstance(node, Join):
                self._add_predicate(node.predicate, combined)
            return combined
        if isinstance(node, Serialize):
            return mapping
        if isinstance(node, Attach):
            mapping = dict(mapping)
            mapping[node.column] = Literal(node.value)
            return mapping
        if isinstance(node, Distinct):
            # Inside the argument bundle the aggregate owns the dedup
            # (DISTINCT (group, unit, value) in the rendered subquery), so a
            # δ surviving there adds nothing.
            if self._aggregate_scope == "outer":
                self._outer_distinct = True
            elif self._aggregate_scope is None:
                self.distinct = True
            return mapping
        if isinstance(node, LiteralTable):
            if len(node.rows) != 1:
                raise JoinGraphError("a multi-row literal table cannot appear in a join graph")
            return dict(zip(node.columns, (Literal(v) for v in node.rows[0])))
        if isinstance(node, GroupAggregate):
            return self._finish_aggregate(node, mapping, other)
        if isinstance(node, RowId):
            mapping = dict(mapping)
            key_term = self._rowid_key_term(node)
            if key_term is not None:
                mapping[node.column] = key_term
                return mapping
            pseudo = self._new_pseudo(node.column)
            compound = self._rowid_key_terms(mapping, node)
            if compound is not None:
                self.rowid_keys[pseudo.token] = compound
            mapping[node.column] = pseudo
            return mapping
        mapping = dict(mapping)  # a RowRank, the last extractable kind
        pseudo = self._new_pseudo(node.column)
        # Expand nested rank columns into the orders they were recorded
        # with (the ϱ-splice semantics of rule (17)), so a FLWOR nest's
        # complete iteration order — outer sort keys first, inner rank
        # keys after — survives into one total ORDER BY.  An order
        # column that maps to an unrecorded pseudo (a ``#`` row id)
        # cannot be rendered and would leave the sequence order
        # under-specified; that aborts extraction instead of silently
        # producing a nondeterministic ordering.

        def expand(columns) -> list[Term]:
            expanded: list[Term] = []
            for column in columns:
                term = mapping[column]
                if isinstance(term, PseudoTerm):
                    recorded = self.rank_orders.get(term.token)
                    if recorded is None:
                        key = self.rowid_keys.get(term.token)
                        recorded = list(key) if key is not None else None
                    if recorded is None:
                        raise JoinGraphError(
                            f"ordering column {column!r} maps to the generated "
                            f"value {term.token}; the sequence order is not "
                            "expressible over the join graph"
                        )
                    expanded.extend(recorded)
                else:
                    expanded.append(term)
            deduped: list[Term] = []
            for term in expanded:
                if term not in deduped:
                    deduped.append(term)
            return deduped

        partition_terms = [
            term for term in expand(node.partition_by)
            if not isinstance(term, Literal)
        ]
        order_terms = expand(node.order_by)
        # For pure ordering use the partition keys precede the order
        # keys (rule (17)'s expansion of a partitioned rank).
        combined = list(partition_terms)
        combined.extend(term for term in order_terms if term not in combined)
        self.rank_orders[pseudo.token] = combined
        renderable_orders = [
            term for term in order_terms if not isinstance(term, Literal)
        ]
        if renderable_orders:
            # Remember the window shape in case a positional selection
            # compares this rank's value upstream; the scope marks pin
            # the alias/condition prefix the rank may see.
            self.rank_windows[pseudo.token] = WindowSpec(
                token=pseudo.token,
                partition=tuple(partition_terms),
                order=tuple(renderable_orders),
                alias_count=len(self.aliases),
                condition_count=len(self.conditions),
            )
        mapping[node.column] = pseudo
        return mapping

    def _finish_aggregate(
        self, node: GroupAggregate, loop_mapping: Mapping[str, Term], child_mapping: Mapping
    ) -> Mapping[str, Term]:
        """Cast Aggr into an :class:`AggregateSpec` over a scope partition.

        The loop bundle was emitted first (its aliases/conditions form the
        *outer* scope), the argument bundle second (the *inner* scope —
        everything it adds, including correlations to outer aliases).
        Shared sub-plans are memoized, so plan parts the argument shares
        with the loop stay in the outer scope.
        """
        self._aggregate_scope = None
        inner_alias_mark, inner_condition_mark = self._inner_marks
        group = loop_mapping[node.group_column]
        child_group = child_mapping[node.group_column]
        if isinstance(group, (PseudoTerm, AggregateTerm)) or isinstance(
            child_group, (PseudoTerm, AggregateTerm)
        ):
            raise JoinGraphError(
                "the aggregate's grouping column maps to a generated value "
                "(a multi-level loop nest); the aggregate cannot be pushed down"
            )
        if child_group != group and not (
            isinstance(group, Literal) and isinstance(child_group, Literal)
        ):
            # The argument computes its iteration identity through a
            # different term — correlate it explicitly (an inner condition).
            self.conditions.append(Comparison(child_group, "=", group))
        unit = child_mapping[node.unit_column]
        value = child_mapping[node.value_column] if node.value_column is not None else None
        if isinstance(unit, (PseudoTerm, AggregateTerm)) or isinstance(
            value, (PseudoTerm, AggregateTerm)
        ):
            raise JoinGraphError("the aggregated value maps to a generated column")
        self.aggregate = AggregateSpec(
            function=node.function,
            group=group,
            child_group=child_group,
            unit=unit,
            value=value,
            outer_distinct=self._outer_distinct,
            outer_alias_count=inner_alias_mark,
            outer_condition_count=inner_condition_mark,
        )
        mapping = dict(loop_mapping)
        mapping[node.item_column] = AggregateTerm(node.function)
        return mapping


def extract_join_graph(plan: Operator) -> JoinGraph:
    """Cast an isolated plan into its :class:`JoinGraph`.

    Raises :class:`~repro.errors.JoinGraphError` when the plan is not (yet)
    a pure join graph + tail, or when a block's terms reach past its aliases.
    """
    extractor = _Extractor()
    root = plan.child if isinstance(plan, Serialize) else plan
    mapping = extractor.emit(root)
    if "item" not in mapping:
        raise JoinGraphError("the isolated plan does not expose an 'item' output column")
    item_term = mapping["item"]
    if isinstance(item_term, PseudoTerm):
        raise JoinGraphError("the result column maps to a generated value")
    if isinstance(item_term, AggregateTerm) and extractor.aggregate is None:
        raise JoinGraphError("an aggregate marker survived without its spec")
    order_terms = [
        term
        for term in _order_terms(mapping, extractor, item_term)
        if not isinstance(term, AggregateTerm)
    ]
    select_items: list[tuple[Term, str]] = [(item_term, "item")]
    for position, term in enumerate(order_terms, start=1):
        if term != item_term and all(term != existing for existing, _name in select_items):
            select_items.append((term, f"item{position}"))
    if extractor.windows and extractor.aggregate is not None:
        raise JoinGraphError(
            "a positional window and a pushed-down aggregate cannot share "
            "one SFW block"
        )
    if extractor.having and (extractor.aggregate is not None or extractor.windows):
        raise JoinGraphError(
            "a HAVING-style aggregate condition cannot be combined with "
            "another aggregate or a positional window in one SFW block"
        )
    graph = JoinGraph(
        aliases=extractor.aliases,
        conditions=extractor.conditions,
        select_items=select_items,
        order_terms=order_terms,
        distinct=extractor.distinct,
        aggregate=extractor.aggregate,
        windows=extractor.windows,
        having=extractor.having,
    )
    # Each block renders (and plans) on its own: a term reaching past its
    # block's aliases — an ordering column over an aggregate's argument, a
    # result column inside a where-aggregate's range — has no SFW reading.
    blocks = [graph.outer_block()] + [graph.having_bundle(h) for h in graph.having]
    if graph.aggregate is not None:
        blocks.append(graph.aggregate_outer())
    if not all(block._is_closed() for block in blocks):
        raise JoinGraphError(
            "a condition, result or ordering column reaches outside its SFW "
            "block (an aggregate's argument bundle); the plan is not a pure "
            "join graph"
        )
    return graph


def _order_terms(
    mapping: Mapping[str, Term], extractor: _Extractor, item_term: Term
) -> list[Term]:
    """Determine the ORDER BY terms representing the XQuery sequence order."""
    pos_term = mapping.get("pos")
    if pos_term is None:
        return [item_term]
    if isinstance(pos_term, PseudoTerm):
        recorded = extractor.rank_orders.get(pos_term.token, [])
        terms = [term for term in recorded if not isinstance(term, Literal)]
        return terms or [item_term]
    if isinstance(pos_term, Literal):
        return [item_term]
    return [pos_term]
