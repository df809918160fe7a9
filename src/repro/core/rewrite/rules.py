"""The join graph isolation rules (Fig. 5 of the paper), as declarative data.

Every rule is a :class:`~repro.core.rewrite.rule.Rule` object — a
structural pattern (root operator class, child constraints), a guard over
the inferred plan properties, and a builder for the replacement — rather
than a hand-coded match/replace function.  The logic is a 1:1
re-expression of the pre-declarative ``core/rules.py`` (zero behaviour
change, pinned by the per-rule differential tests and the XMark rule
histograms), organised so that every premise is visible in one place:

* the *pattern* says where the rule can possibly fire (this is what the
  engine's pattern index dispatches on);
* the *guard* evaluates the paper's premises through the
  :class:`~repro.core.rewrite.context.RuleContext` and returns the bound
  match parts;
* the *builder* assembles the replacement from those parts, splicing
  matched sub-plans in by object identity (the sharing contract the
  registration-time validator enforces on every rule's exemplar).

The implemented set corresponds to the paper's rules with two adaptations
required by this implementation's column-disjoint join operator (the
paper's algebra allows both join inputs to expose the same column name,
ours — matching SQL — does not):

* Rule (9) is generalised into the *key-join collapse* rule (``(9*)``): a
  join ``A ⋈ a=b B`` whose two join columns stem from the same column
  ``c`` of the same operator ``X`` with ``{c}`` a key of ``X``, and whose
  one side is a row-preserving column chain over ``X``, is replaced by the
  other side widened with the columns it still needs.  This single rule
  subsumes the paper's Rule (9) (removal of the degenerated equi-joins
  introduced by FOR / IF compilation, Fig. 6) and also eliminates the
  ``pre = item`` context joins of the STEP / COMP rules, which is what
  turns Q1 into the *three*-fold self-join of Fig. 7/8.  Its
  multi-conjunct form collapses value joins: the iteration-bookkeeping
  equality is the pivot and the value comparison survives as a selection.
* Rules (11) and (15) — join push-down below and row-rank pull-up above
  binary operators — are not needed once the collapse rule is in place
  and are therefore not part of the default goal sequence.

All remaining rules ((1)-(8), (10), (12)-(14), (16), (17)) follow the paper.
"""

from __future__ import annotations

from typing import Optional

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
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate
from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.rule import (
    MATCHED,
    Rule,
    RuleRegistry,
    RuleResult,
    pattern,
)

#: Operators that neither filter nor multiply the rows flowing through them
#: (with respect to a key column they carry) — the "safe" spine of the side
#: a key-join collapse is allowed to drop.
_ROW_PRESERVING = (Project, Attach, RowId, RowRank, Distinct, Serialize)


# ---------------------------------------------------------------------------
# Shared helpers (constant folding, collapse machinery)
# ---------------------------------------------------------------------------


def _safe_spine(path: list[tuple[Operator, str]]) -> bool:
    """True when every node strictly above the origin is row-preserving.

    ``count``/``sum`` aggregations emit exactly one row per loop row (the
    provenance path descends into the loop side), so they preserve rows;
    ``avg`` drops empty groups and does not.
    """
    for op, _name in path[:-1]:
        if isinstance(op, GroupAggregate):
            if op.function == "avg":
                return False
            continue
        if not isinstance(op, _ROW_PRESERVING):
            return False
    return True


def _resolve_needed(
    ctx: RuleContext, dropped: Operator, needed: list[str], anchor: Operator
) -> Optional[dict[str, tuple[str, object]]]:
    """Express the needed columns of the dropped side relative to ``anchor``.

    Returns ``{column: ("const", value) | ("anchor", anchor_column)}`` or
    ``None`` when some column is not recoverable.
    """
    resolution: dict[str, tuple[str, object]] = {}
    for column in needed:
        path = ctx.provenance(dropped, column)
        origin_node, origin_column = path[-1]
        if isinstance(origin_node, Attach):
            resolution[column] = ("const", origin_node.value)
            continue
        anchored = next((name for op, name in path if op is anchor), None)
        if anchored is not None:
            resolution[column] = ("anchor", anchored)
            continue
        return None
    return resolution


def _widen_chain(
    ctx: RuleContext,
    kept: Operator,
    kept_join_column: str,
    anchor: Operator,
    carries: dict[str, str],
    collapsing_join: Optional[Operator] = None,
) -> Optional[tuple[Operator, dict[int, Operator]]]:
    """Thread ``carries`` (target name → anchor column) up the kept side's spine.

    The spine is the provenance path of the kept side's join column; the
    anchor lies on it by construction.  Operators other than π pass all of
    their input columns through, so only the projections on the spine need to
    be extended; everything above the first extended projection is rebuilt as
    well.

    Returns the widened kept root together with a substitution map
    ``{id(old spine node): rebuilt node}``.  The caller applies that map to
    the whole plan, so other references to the (possibly shared) spine nodes
    keep pointing at one single widened copy — the extra columns are ignored
    by those other consumers.  ``None`` is returned when a name clash or an
    intolerant foreign parent makes the widening unsafe; the rule then simply
    does not fire.
    """
    if not carries:
        return kept, {}
    path = ctx.provenance(kept, kept_join_column)
    spine = [op for op, _name in path]
    if anchor not in spine:
        return None
    anchor_index = spine.index(anchor)
    #: Nodes whose parent-tolerance need not be checked: the collapsing join
    #: itself (it is being replaced) and the spine nodes (rebuilt together).
    exempt = {id(op) for op in spine}
    if collapsing_join is not None:
        exempt.add(id(collapsing_join))
    #: Current name of each carried column while walking up the spine.
    names: dict[str, str] = dict(carries)
    substitutions: dict[int, Operator] = {}
    current: Operator = anchor
    changed = False
    for position in range(anchor_index - 1, -1, -1):
        op = spine[position]
        below = spine[position + 1]
        if isinstance(op, Project):
            items = list(op.items)
            taken = {new for new, _old in items}
            extra: list[tuple[str, str]] = []
            for target in carries:
                # Always thread carries under fresh names: spine projections
                # may be *shared* (other consumers see the widened copy), and
                # surfacing the target name inside the spine would collide
                # when a second widening carries the same column up a sibling
                # branch.  Only the unshared top projection below surfaces
                # the target names.
                output = ctx.fresh_column(target)
                while output in taken:
                    output = ctx.fresh_column(target)
                taken.add(output)
                extra.append((output, names[target]))
                names[target] = output
            rebuilt: Operator = Project(current if changed else below, items + extra)
            changed = True
        elif not changed:
            current = op
            continue
        else:
            if isinstance(op, (Join, Cross)):
                other = next(child for child in op.children if child is not below)
                if other.column_set & set(names.values()):
                    return None
            children = [current if child is below else child for child in op.children]
            rebuilt = op.with_children(children)
        if not _foreign_parents_tolerate(ctx, op, set(names.values()), exempt):
            return None
        substitutions[id(op)] = rebuilt
        current = rebuilt
    # Surface each carried column under its target name next to the kept columns.
    if all(names[target] == target for target in carries) and all(
        target in current.columns for target in carries
    ):
        return current, substitutions
    items = [(column, column) for column in kept.columns]
    for target in carries:
        if names[target] not in current.columns:
            return None
        items.append((target, names[target]))
    return Project(current, items), substitutions


def _foreign_parents_tolerate(
    ctx: RuleContext, node: Operator, added_columns: set[str], exempt: set[int]
) -> bool:
    """Check that parents outside the widened spine can absorb extra columns.

    Projections, selections, attaches and the like simply ignore columns they
    do not mention; joins and cross products additionally require the added
    columns not to clash with their other input; duplicate eliminations stay
    correct because the added columns are functionally dependent on the key
    column the spine already carries.  Parents listed in ``exempt`` (the
    collapsing join and the spine itself) are rebuilt anyway and skipped.
    """
    for parent in ctx.parents.get(id(node), ()):  # direct parents only
        if id(parent) in exempt:
            continue
        if isinstance(parent, (Join, Cross)):
            sibling = next((c for c in parent.children if c is not node), None)
            if sibling is not None and sibling.column_set & added_columns:
                return False
    return True


def _anchor_keys(anchor: Operator) -> frozenset[frozenset[str]]:
    """Candidate keys of the anchor operator derivable without full inference."""
    keys: set[frozenset[str]] = set()
    if isinstance(anchor, DocTable):
        keys.add(frozenset({"pre"}))
    if isinstance(anchor, RowId):
        keys.add(frozenset({anchor.column}))
    if isinstance(anchor, LiteralTable):
        for index, column in enumerate(anchor.columns):
            values = [row[index] for row in anchor.rows]
            if len(values) == len(set(values)):
                keys.add(frozenset({column}))
    return frozenset(keys)


def _column_has_rowid_origin(ctx: RuleContext, node: Operator, column: str) -> bool:
    origin_node, _origin_column = ctx.origin(node, column)
    return isinstance(origin_node, (RowId,))


# ---------------------------------------------------------------------------
# House-cleaning rules (1) - (5), (10), (12), (13), plus constant folding
# ---------------------------------------------------------------------------


def _guard_prune_rowid(node: Operator, ctx: RuleContext):
    """(1)  a is not needed upstream."""
    if node.column not in ctx.needed_columns(node):
        return MATCHED
    return None


def _guard_prune_rank(node: Operator, ctx: RuleContext):
    """(2)  a is not needed upstream."""
    if node.column not in ctx.needed_columns(node):
        return MATCHED
    return None


def _guard_prune_attach(node: Operator, ctx: RuleContext):
    """(3)  a is not needed upstream."""
    if node.column not in ctx.needed_columns(node):
        return MATCHED
    return None


def _build_child(node: Operator, match, ctx: RuleContext) -> Operator:
    """■(q) → q  (shared by the pruning rules and rule (6))."""
    return node.children[0]


def _guard_prune_project(node: Project, ctx: RuleContext):
    """(4)  some projection items are not needed upstream."""
    needed = ctx.needed_columns(node)
    kept = [item for item in node.items if item[0] in needed]
    if kept and len(kept) < len(node.items):
        return kept
    return None


def _build_prune_project(node: Project, kept, ctx: RuleContext) -> Operator:
    return Project(node.child, kept)


def _guard_project_fuse(node: Project, ctx: RuleContext):
    """The inner projection is not shared by other parents."""
    inner = node.child
    if len(ctx.parents.get(id(inner), ())) > 1:
        return None
    inner_map = inner.renaming()
    return [(new, inner_map[old]) for new, old in node.items]


def _build_project_fuse(node: Project, fused, ctx: RuleContext) -> Operator:
    return Project(node.child.child, fused)


def _guard_cross_to_attach(node: Cross, ctx: RuleContext):
    """(5)  one input is statically a one-row constant table."""
    for side, other in ((node.right, node.left), (node.left, node.right)):
        row = ctx.constant_single_row(side)
        if row is not None:
            return other, row
    return None


def _build_cross_to_attach(node: Cross, match, ctx: RuleContext) -> Operator:
    other, row = match
    result: Operator = other
    for column, value in row.items():
        result = Attach(result, column, value)
    # Column order may differ from the original cross product; operators
    # address columns by name, so no reordering projection is needed.
    return result


def _guard_const_join_to_cross(node: Join, ctx: RuleContext):
    """(10)  both join columns are the same constant."""
    if not node.predicate.is_single_column_equality():
        return None
    (a, b) = node.predicate.column_equalities()[0]
    left, right = node.children
    const_left = ctx.properties.const(left)
    const_right = ctx.properties.const(right)
    values = {}
    for column in (a, b):
        if column in left.columns and column in const_left:
            values[column] = const_left[column]
        elif column in right.columns and column in const_right:
            values[column] = const_right[column]
        else:
            return None
    if values[a] == values[b]:
        return MATCHED
    return None


def _build_const_join_to_cross(node: Join, match, ctx: RuleContext) -> Operator:
    left, right = node.children
    return Cross(left, right)


def _guard_project_const_source(node: Project, ctx: RuleContext):
    """Some (but not all) projection items source a constant column."""
    const = ctx.properties.const(node.child)
    constant_items = [(new, old) for new, old in node.items if old in const]
    if not constant_items or len(constant_items) == len(node.items):
        return None
    remaining = [(new, old) for new, old in node.items if old not in const]
    return constant_items, remaining, const


def _build_project_const_source(node: Project, match, ctx: RuleContext) -> Operator:
    constant_items, remaining, const = match
    result: Operator = Project(node.child, remaining)
    for new, old in constant_items:
        result = Attach(result, new, const[old])
    return result


def _guard_rank_to_project(node: RowRank, ctx: RuleContext):
    """(12)  single ordering column, rank never compared upstream."""
    if len(node.order_by) != 1:
        return None
    if ctx.rank_compared_upstream(node):
        # A positional selection tests this rank's *value*; substituting
        # the ordering column would select by node rank instead of by
        # sequence position.
        return None
    return MATCHED


def _build_rank_to_project(node: RowRank, match, ctx: RuleContext) -> Operator:
    source = node.order_by[0]
    items = [(node.column, source)] + [(c, c) for c in node.child.columns]
    return Project(node.child, items)


def _guard_rank_prune_const(node: RowRank, ctx: RuleContext):
    """(13)  some ordering / partition criteria are constant."""
    const = ctx.properties.const(node.child)
    kept = tuple(column for column in node.order_by if column not in const)
    kept_partition = tuple(column for column in node.partition_by if column not in const)
    if kept == node.order_by and kept_partition == node.partition_by:
        return None
    return kept, kept_partition


def _build_rank_prune_const(node: RowRank, match, ctx: RuleContext) -> Operator:
    kept, kept_partition = match
    if kept:
        return RowRank(node.child, node.column, kept, kept_partition)
    # All ordering columns are constant: every row gets rank 1.
    return Attach(node.child, node.column, 1)


# ---------------------------------------------------------------------------
# δ rules (6) - (8)
# ---------------------------------------------------------------------------


def _guard_remove_distinct(node: Distinct, ctx: RuleContext):
    """(6)  the output is de-duplicated further upstream."""
    if ctx.properties.is_set(node):
        return MATCHED
    return None


def _guard_shrink_distinct(node: Distinct, ctx: RuleContext):
    """(7)  constant, not-needed columns exist underneath the δ."""
    if isinstance(node.child, Project):
        return None
    const = set(ctx.properties.const(node.child))
    needed = ctx.needed_columns(node)
    drop = const - needed
    keep = [column for column in node.child.columns if column not in drop]
    if drop and keep and len(keep) < len(node.child.columns):
        return keep
    return None


def _build_shrink_distinct(node: Distinct, keep, ctx: RuleContext) -> Operator:
    return Distinct(Project.keep(node.child, keep))


def _guard_introduce_distinct(node: Join, ctx: RuleContext):
    """(8)  the equi-join of FOR / IF compilation emits unique rows."""
    if ctx.properties.is_set(node):
        return None
    if not node.predicate.is_single_column_equality():
        return None
    (a, b) = node.predicate.column_equalities()[0]
    if not (
        _column_has_rowid_origin(ctx, node, a) or _column_has_rowid_origin(ctx, node, b)
    ):
        return None
    icols = ctx.needed_columns(node) & node.column_set
    if not icols or not ctx.properties.has_key_within(node, icols):
        return None
    return [column for column in node.columns if column in icols]


def _build_introduce_distinct(node: Join, ordered, ctx: RuleContext) -> Operator:
    return Distinct(Project.keep(node, ordered))


# ---------------------------------------------------------------------------
# ϱ movement rules (14), (16), (17)
# ---------------------------------------------------------------------------


def _guard_rank_pull_up(node: Operator, ctx: RuleContext):
    """(14)  ■(ϱa:⟨b⟩(q)) → ϱa:⟨b⟩(■(q))   for ■ ∈ {σ, δ, @, #}."""
    child = node.children[0]
    if isinstance(node, Select) and child.column in node.predicate.columns():
        return None
    if isinstance(node, (Attach, RowId)) and node.column == child.column:
        return None
    if isinstance(node, (Select, Distinct)) and ctx.rank_compared_upstream(child):
        # A positional selection upstream tests this rank's value; filtering
        # or de-duplicating *before* ranking would renumber the rows it sees.
        return None
    return MATCHED


def _build_rank_pull_up(node: Operator, match, ctx: RuleContext) -> Operator:
    child = node.children[0]
    rebuilt = node.with_children([child.child])
    return RowRank(rebuilt, child.column, child.order_by, child.partition_by)


def _guard_rank_pull_up_project(node: Project, ctx: RuleContext):
    """(16)  π a,c1..cm (ϱa:⟨b⟩(q)) → ϱa:⟨b⟩(π b,c1..cm(q))   (renaming-aware)."""
    child = node.child
    rank_items = [(new, old) for new, old in node.items if old == child.column]
    if len(rank_items) != 1:
        return None
    rank_name = rank_items[0][0]
    other_items = [(new, old) for new, old in node.items if old != child.column]
    # The ordering and partition columns must survive the projection
    # (possibly renamed).
    extended_items = list(other_items)

    def thread(columns: tuple[str, ...]) -> Optional[list[str]]:
        renamed_columns: list[str] = []
        for column in columns:
            renamed = next((new for new, old in extended_items if old == column), None)
            if renamed is None:
                if column in {new for new, _old in extended_items} or column == rank_name:
                    return None
                extended_items.append((column, column))
                renamed = column
            renamed_columns.append(renamed)
        return renamed_columns

    order_by = thread(child.order_by)
    if order_by is None:
        return None
    partition_by = thread(child.partition_by)
    if partition_by is None:
        return None
    if not extended_items:
        return None
    return rank_name, extended_items, tuple(order_by), tuple(partition_by)


def _build_rank_pull_up_project(node: Project, match, ctx: RuleContext) -> Operator:
    rank_name, extended_items, order_by, partition_by = match
    projected = Project(node.child.child, extended_items)
    return RowRank(projected, rank_name, order_by, partition_by)


def _guard_rank_splice(node: RowRank, ctx: RuleContext):
    """(17)  merge the ordering criteria of two adjacent ϱ operators.

    A partitioned child rank expands into its partition columns followed by
    its ordering columns: whenever the outer criteria preceding the child
    rank pin one partition (the FOR/DDO compilation shapes), ordering by
    ⟨partition, order⟩ coincides with ordering by the rank value.
    """
    child = node.child
    if child.column not in node.order_by:
        return None
    expansion = tuple(child.partition_by) + tuple(child.order_by)
    new_order: list[str] = []
    for column in node.order_by:
        if column == child.column:
            new_order.extend(c for c in expansion if c not in new_order)
        elif column not in new_order:
            new_order.append(column)
    if tuple(new_order) == node.order_by:
        return None
    return tuple(new_order)


def _build_rank_splice(node: RowRank, new_order, ctx: RuleContext) -> Operator:
    return RowRank(node.child, node.column, new_order, node.partition_by)


# ---------------------------------------------------------------------------
# (9) generalised: key-join collapse
# ---------------------------------------------------------------------------


def _guard_key_join_collapse(node: Join, ctx: RuleContext):
    """(9*)  collapse a join on a column equality stemming from the same key.

    ``A ⋈ a=b ∧ rest B`` is replaced by the *kept* side widened with the
    columns it still needs from the *dropped* side (with ``rest`` — if any —
    re-applied as a selection over the widened result) when

    * the two pivot columns trace back to the same column ``c`` of the same
      operator ``X`` (the anchor) with ``{c}`` a candidate key of ``X``,
    * the dropped side is a row-preserving column chain over ``X`` (so each
      kept row matches exactly the dropped row it originated from), and
    * every dropped-side column still needed upstream — including the ones
      the residual conjuncts mention — is either a constant or readable from
      ``X``'s output (it is then threaded up the kept side's spine).
    """
    for pivot in node.predicate.conjuncts:
        if not pivot.is_column_equality():
            continue
        result = _try_key_join_collapse(node, ctx, pivot)
        if result is not None:
            return result
    return None


def _try_key_join_collapse(
    node: Join, ctx: RuleContext, pivot: Comparison
) -> Optional[dict[int, Operator]]:
    a = pivot.left.name  # type: ignore[union-attr]
    b = pivot.right.name  # type: ignore[union-attr]
    residual = [c for c in node.predicate.conjuncts if c is not pivot]
    left, right = node.children
    if a in right.columns:
        a, b = b, a
    if a not in left.columns or b not in right.columns:
        return None
    left_path = ctx.provenance(left, a)
    right_path = ctx.provenance(right, b)
    left_origin = left_path[-1]
    right_origin = right_path[-1]
    if left_origin[0] is not right_origin[0] or left_origin[1] != right_origin[1]:
        return None
    anchor, anchor_column = left_origin
    if frozenset({anchor_column}) not in _anchor_keys(anchor):
        return None
    needed_all = ctx.needed_columns(node)
    for conjunct in residual:
        needed_all |= conjunct.columns()
    for dropped, kept, dropped_path, kept_column in (
        (right, left, right_path, a),
        (left, right, left_path, b),
    ):
        if not _safe_spine(dropped_path):
            continue
        needed = [
            column
            for column in dropped.columns
            if column in needed_all and column not in kept.columns
        ]
        resolution = _resolve_needed(ctx, dropped, needed, anchor)
        if resolution is None:
            continue
        carries = {
            column: source
            for column, (kind, source) in resolution.items()
            if kind == "anchor"
        }
        widening = _widen_chain(ctx, kept, kept_column, anchor, carries, collapsing_join=node)
        if widening is None:
            continue
        widened, substitutions = widening
        result: Operator = widened
        for column, (kind, value) in resolution.items():
            if kind == "const" and column not in result.columns:
                result = Attach(result, column, value)
        if residual:
            result = Select(result, Predicate(residual))
        replacements: dict[int, Operator] = dict(substitutions)
        replacements[id(node)] = result
        return replacements
    return None


def _build_key_join_collapse(node: Join, replacements, ctx: RuleContext) -> RuleResult:
    return replacements


# ---------------------------------------------------------------------------
# Exemplar plans (validator + per-rule differential fixtures)
# ---------------------------------------------------------------------------
#
# Each exemplar is a small evaluable plan (DocTable / LiteralTable leaves,
# ``Serialize(π pos, item)`` root) on which exactly the rule in question
# fires.  The registration-time validator runs the rule against it to
# prove the rule fires, mutates nothing in place, and preserves leaf
# sharing; the per-rule differential tests additionally evaluate the plan
# before and after the step and compare the decoded sequences bit for bit.


def _result_head(body: Operator, pos: str = "pre", item: str = "pre") -> Serialize:
    return Serialize(Project(body, [("pos", pos), ("item", item)]))


def _x_prune_rowid() -> Operator:
    return _result_head(RowId(DocTable(), "rid"))


def _x_prune_rank() -> Operator:
    return _result_head(RowRank(DocTable(), "rnk", ("pre",), ()))


def _x_prune_attach() -> Operator:
    return _result_head(Attach(DocTable(), "dead", 1))


def _x_prune_project() -> Operator:
    inner = Project(DocTable(), [("pos", "pre"), ("item", "pre"), ("junk", "size")])
    # A second parent keeps project_fuse from matching first in scans, so
    # this exemplar isolates the pruning premise.
    return Serialize(Distinct(inner))


def _x_project_fuse() -> Operator:
    inner = Project(DocTable(), [("p", "pre"), ("s", "size")])
    return Serialize(Project(inner, [("pos", "p"), ("item", "p")]))


def _x_cross_to_attach() -> Operator:
    loop = LiteralTable(("iter",), [(1,)])
    return _result_head(Cross(DocTable(), loop))


def _x_const_join_to_cross() -> Operator:
    left = Attach(DocTable(), "a", 1)
    right = Attach(LiteralTable(("v",), [(7,)]), "b", 1)
    joined = Join(left, right, Predicate.equality("a", "b"))
    return _result_head(joined)


def _x_project_const_source() -> Operator:
    body = Attach(DocTable(), "one", 1)
    return Serialize(Project(body, [("pos", "pre"), ("item", "pre"), ("unit", "one")]))


def _x_rank_to_project() -> Operator:
    rank = RowRank(DocTable(), "rnk", ("pre",), ())
    return Serialize(Project(rank, [("pos", "rnk"), ("item", "pre")]))


def _x_rank_prune_const() -> Operator:
    rank = RowRank(Attach(DocTable(), "one", 1), "rnk", ("one", "pre"), ())
    return Serialize(Project(rank, [("pos", "rnk"), ("item", "pre")]))


def _x_remove_distinct() -> Operator:
    inner = Distinct(Project(DocTable(), [("pos", "pre"), ("item", "pre")]))
    return Serialize(Distinct(Project(inner, [("pos", "pos"), ("item", "item")])))


def _x_shrink_distinct() -> Operator:
    body = Attach(Project(DocTable(), [("pos", "pre"), ("item", "pre")]), "one", 1)
    return Serialize(Project(Distinct(body), [("pos", "pos"), ("item", "item")]))


def _x_introduce_distinct() -> Operator:
    anchored = RowId(DocTable(), "rid")
    left = Project(anchored, [("rid", "rid"), ("pos", "pre")])
    right = Project(anchored, [("rid2", "rid"), ("item", "pre")])
    joined = Join(left, right, Predicate.equality("rid", "rid2"))
    return Serialize(Project(joined, [("pos", "pos"), ("item", "item")]))


def _x_rank_pull_up() -> Operator:
    rank = RowRank(DocTable(), "rnk", ("pre",), ())
    selected = Select(rank, Predicate.of(Comparison(ColumnRef("size"), ">=", Literal(0))))
    return Serialize(Project(selected, [("pos", "rnk"), ("item", "pre")]))


def _x_rank_pull_up_project() -> Operator:
    rank = RowRank(DocTable(), "rnk", ("pre",), ())
    return Serialize(Project(rank, [("pos", "rnk"), ("item", "pre")]))


def _x_rank_splice() -> Operator:
    inner = RowRank(DocTable(), "r1", ("pre",), ())
    outer = RowRank(inner, "r2", ("r1", "size"), ())
    return Serialize(Project(outer, [("pos", "r2"), ("item", "pre")]))


def _x_key_join_collapse() -> Operator:
    doc = DocTable()
    kept = Project(doc, [("k", "pre"), ("pos", "pre"), ("item", "pre")])
    dropped = Project(doc, [("d", "pre")])
    joined = Join(kept, dropped, Predicate.equality("k", "d"))
    return Serialize(Project(joined, [("pos", "pos"), ("item", "item")]))


# ---------------------------------------------------------------------------
# The registry and the goal groups
# ---------------------------------------------------------------------------

REGISTRY = RuleRegistry()

_r = REGISTRY.register

#: House-cleaning rules, applied throughout all goals.  Order matters: the
#: driver applies the first match in (node, rule) scan order, so the group
#: tuples below reproduce the pre-declarative engine's rule order exactly.
CLEANUP_GROUP: tuple[Rule, ...] = (
    _r(Rule(
        name="project_fuse",
        paper="",
        pattern=pattern(Project, Project),
        guard=_guard_project_fuse,
        build=_build_project_fuse,
        exemplar=_x_project_fuse,
        cleanup=True,
    )),
    _r(Rule(
        name="prune_project(4)",
        paper="(4)",
        pattern=pattern(Project),
        guard=_guard_prune_project,
        build=_build_prune_project,
        exemplar=_x_prune_project,
        cleanup=True,
    )),
    _r(Rule(
        name="prune_rowid(1)",
        paper="(1)",
        pattern=pattern(RowId),
        guard=_guard_prune_rowid,
        build=_build_child,
        exemplar=_x_prune_rowid,
        cleanup=True,
    )),
    _r(Rule(
        name="prune_rank(2)",
        paper="(2)",
        pattern=pattern(RowRank),
        guard=_guard_prune_rank,
        build=_build_child,
        exemplar=_x_prune_rank,
        cleanup=True,
    )),
    _r(Rule(
        name="prune_attach(3)",
        paper="(3)",
        pattern=pattern(Attach),
        guard=_guard_prune_attach,
        build=_build_child,
        exemplar=_x_prune_attach,
        cleanup=True,
    )),
    _r(Rule(
        name="cross_to_attach(5)",
        paper="(5)",
        pattern=pattern(Cross),
        guard=_guard_cross_to_attach,
        build=_build_cross_to_attach,
        exemplar=_x_cross_to_attach,
        cleanup=True,
    )),
    _r(Rule(
        name="const_join_to_cross(10)",
        paper="(10)",
        pattern=pattern(Join),
        guard=_guard_const_join_to_cross,
        build=_build_const_join_to_cross,
        exemplar=_x_const_join_to_cross,
        cleanup=True,
    )),
    _r(Rule(
        name="project_const_source",
        paper="",
        pattern=pattern(Project),
        guard=_guard_project_const_source,
        build=_build_project_const_source,
        exemplar=_x_project_const_source,
        cleanup=True,
    )),
)

#: Goal ϱ: establish (at most) a single row-rank operator in the plan tail.
RANK_GROUP: tuple[Rule, ...] = (
    _r(Rule(
        name="rank_prune_const(13)",
        paper="(13)",
        pattern=pattern(RowRank),
        guard=_guard_rank_prune_const,
        build=_build_rank_prune_const,
        exemplar=_x_rank_prune_const,
    )),
    _r(Rule(
        name="rank_to_project(12)",
        paper="(12)",
        pattern=pattern(RowRank),
        guard=_guard_rank_to_project,
        build=_build_rank_to_project,
        exemplar=_x_rank_to_project,
    )),
    _r(Rule(
        name="rank_splice(17)",
        paper="(17)",
        pattern=pattern(RowRank, RowRank),
        guard=_guard_rank_splice,
        build=_build_rank_splice,
        exemplar=_x_rank_splice,
    )),
    _r(Rule(
        name="rank_pull_up(14)",
        paper="(14)",
        pattern=pattern((Select, Distinct, Attach, RowId), RowRank),
        guard=_guard_rank_pull_up,
        build=_build_rank_pull_up,
        exemplar=_x_rank_pull_up,
    )),
    _r(Rule(
        name="rank_pull_up_project(16)",
        paper="(16)",
        pattern=pattern(Project, RowRank),
        guard=_guard_rank_pull_up_project,
        build=_build_rank_pull_up_project,
        exemplar=_x_rank_pull_up_project,
    )),
)

#: Goals δ and ⋈: single δ in the tail, joins pushed down / removed.
JOIN_GROUP: tuple[Rule, ...] = (
    _r(Rule(
        name="introduce_distinct(8)",
        paper="(8)",
        pattern=pattern(Join),
        guard=_guard_introduce_distinct,
        build=_build_introduce_distinct,
        exemplar=_x_introduce_distinct,
    )),
    _r(Rule(
        name="remove_distinct(6)",
        paper="(6)",
        pattern=pattern(Distinct),
        guard=_guard_remove_distinct,
        build=_build_child,
        exemplar=_x_remove_distinct,
    )),
    _r(Rule(
        name="shrink_distinct(7)",
        paper="(7)",
        pattern=pattern(Distinct),
        guard=_guard_shrink_distinct,
        build=_build_shrink_distinct,
        exemplar=_x_shrink_distinct,
    )),
    _r(Rule(
        name="key_join_collapse(9*)",
        paper="(9*)",
        pattern=pattern(Join),
        guard=_guard_key_join_collapse,
        build=_build_key_join_collapse,
        exemplar=_x_key_join_collapse,
    )),
)
