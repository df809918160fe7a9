"""Result reassembly: SQL result rows → pre-rank item sequences.

Both SQL renderings deliver tables whose ``item`` column carries ``pre``
ranks (ready for :mod:`repro.xmldb.serializer`); what differs is how much
of the sequence semantics the SQL already enforced:

* the isolated join-graph SFW block (Fig. 8/9) ships ``DISTINCT`` and
  ``ORDER BY`` to the RDBMS — :func:`ordered_items` just projects the
  ``item`` column in row order, mirroring what the in-tree relational
  engine's SORT/RETURN tail produces;
* the stacked ``WITH``-chain (and the algebra interpreter evaluating the
  same plan) returns raw iteration tables with ``iter``/``pos``/``item``
  bookkeeping — :func:`sequence_items` re-derives the XQuery sequence:
  order by (``pos``, ``item``), then drop duplicate items keeping the
  first occurrence.

:func:`sequence_items` is *the* definition of that decode step —
``XQueryProcessor`` delegates to it for every interpreted configuration,
so the SQL backend and the interpreters cannot drift apart.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.algebra.columnar import orderable


def _sort_keys(values: list) -> list:
    """Per-value sort keys for one column, with the type dispatch hoisted.

    When every value in the column is a plain number — the common case:
    ``pos`` counters and ``pre``-rank items are always ints — the values
    themselves already carry :func:`~repro.algebra.columnar.orderable`'s
    order, so no per-value tuple is built at all.  One mixed/NULL/string value falls the whole
    column back to explicit ``(rank, value)`` tuples; keys from different
    columns never meet in a comparison, so the two representations may
    coexist across columns.
    """
    for value in values:
        if not isinstance(value, (int, float)):
            return [orderable(value) for value in values]
    return values


def _column_values(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    column_data: Optional[Sequence[Sequence[object]]],
    name: str,
) -> list:
    index = list(columns).index(name)
    if column_data is not None:
        return list(column_data[index])
    return [row[index] for row in rows]


def sequence_items(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    distinct: bool = True,
    column_data: Optional[Sequence[Sequence[object]]] = None,
) -> list:
    """Decode a raw result table into the pre-rank item sequence.

    Rows are ordered by (``pos``, ``item``) when a ``pos`` column is
    present (the compiler's sequence-position bookkeeping), then duplicate
    ``item`` values are dropped keeping first occurrences.

    ``distinct=False`` keeps duplicates: the item column of a *value*
    result (an aggregate or literal in the FLWOR return clause) carries one
    value per iteration, and two iterations may legitimately produce the
    same value — dedup is only the node-sequence discipline.

    The decode is column-wise: ``column_data`` (one sequence per column,
    e.g. ``SQLResult.column_data``) is consumed directly when supplied,
    otherwise the needed columns are extracted from ``rows`` in one pass.
    Ordering happens on precomputed key columns (:func:`_sort_keys`) zipped
    with the row position — no per-comparison key function, and the trailing
    position breaks every tie before Python ever compares two item values.
    """
    item_values = _column_values(columns, rows, column_data, "item")
    if "pos" in columns:
        pos_values = _column_values(columns, rows, column_data, "pos")
        order = sorted(
            zip(_sort_keys(pos_values), _sort_keys(item_values), range(len(item_values)))
        )
        item_values = [item_values[entry[2]] for entry in order]
    if not distinct:
        return [value for value in item_values if value is not None]
    seen: set[object] = set()
    items: list = []
    for value in item_values:
        if value in seen:
            continue
        seen.add(value)
        items.append(value)
    return items


def ordered_items(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    distinct: bool = True,
    column_data: Optional[Sequence[Sequence[object]]] = None,
) -> list:
    """Project the ``item`` column of an already ordered/distinct result.

    The join-graph SFW block made the RDBMS enforce ``DISTINCT`` (over the
    full select list) and ``ORDER BY``; the decode step projects the item
    column in row order and keeps each item's *first* occurrence.  The
    keep-first pass matters for FLWOR nests whose select list carries extra
    ordering columns (value joins bind the same node under several outer
    iterations): SQL's DISTINCT dedupes full rows, the XQuery sequence
    dedupes items.  ``NULL`` items are dropped — a ``pre`` rank is never
    NULL; aggregate tails use NULL for "this iteration contributes no item"
    (``fn:avg`` over an empty sequence).
    """
    return first_occurrence_items(
        _column_values(columns, rows, column_data, "item"), distinct=distinct
    )


def first_occurrence_items(values, distinct: bool = True) -> list:
    """Keep the first occurrence of each non-NULL item, preserving order.

    Shared by :func:`ordered_items` (the RDBMS path) and the interpreted
    join-graph decode in :mod:`repro.core.stages`, so the two tails cannot
    drift apart.  ``distinct=False`` keeps every non-NULL value in row
    order — the discipline for *value* results, whose per-iteration
    aggregate values may legitimately repeat.
    """
    if not distinct:
        return [value for value in values if value is not None]
    seen: set[object] = set()
    items: list = []
    for value in values:
        if value is None or value in seen:
            continue
        seen.add(value)
        items.append(value)
    return items
