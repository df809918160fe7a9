"""The decode step: an engine's ``item`` column → the XQuery item sequence.

Every configuration of Table IX ends with an ``item`` column of ``pre``
ranks or values (ready for :mod:`repro.xmldb.serializer`), plus a ``pos``
column where the plan keeps the compiler's sequence-position bookkeeping:
the isolated SFW block (Fig. 8/9, which already ran ``DISTINCT`` and
``ORDER BY``), the stacked ``WITH``-chain, both plan interpreters and the
B-tree engine.  :func:`sequence_items` reads the sequence from those
columns with one rule, so no two engines can decode differently.
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


def sequence_items(
    items: Sequence, positions: Optional[Sequence] = None, distinct: bool = True
) -> list:
    """The item sequence of one result's ``item`` (and ``pos``) column.

    With ``positions``, items are ordered by (``pos``, ``item``, row
    index); without, they keep row order.  ``NULL`` items are dropped: a
    ``pre`` rank is never NULL, and an aggregate tail uses NULL for "this
    iteration contributes no item" (``fn:avg`` over an empty sequence).
    ``distinct`` keeps each item's first occurrence, the set discipline of
    a node result.  A value result (an aggregate or literal returned per
    iteration) passes ``distinct=False``: two iterations may produce the
    same value.

    >>> sequence_items([9, 4, 9, 4], positions=[2, 1, 3, 1])
    [4, 9]
    >>> sequence_items([1.0, 1.0, None, 2.0], distinct=False)
    [1.0, 1.0, 2.0]
    """
    if positions is not None:
        order = sorted(zip(_sort_keys(positions), _sort_keys(items), range(len(items))))
        items = [items[entry[2]] for entry in order]
    kept = [item for item in items if item is not None]
    return list(dict.fromkeys(kept)) if distinct else kept
