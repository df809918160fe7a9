"""The table algebra of Table I and its reference interpreter.

The algebra is the compilation target of the loop-lifting XQuery compiler
and the object language of the join graph isolation rewriting.  It contains
exactly the operators of Table I of the paper:

===============================  =======================================
Operator                          Class
===============================  =======================================
serialization point (plan root)  :class:`~repro.algebra.operators.Serialize`
``π`` project / rename            :class:`~repro.algebra.operators.Project`
``σ`` select                      :class:`~repro.algebra.operators.Select`
``⋈`` join                        :class:`~repro.algebra.operators.Join`
``×`` Cartesian product           :class:`~repro.algebra.operators.Cross`
``δ`` duplicate elimination       :class:`~repro.algebra.operators.Distinct`
``@`` attach constant column      :class:`~repro.algebra.operators.Attach`
``#`` attach unique row id        :class:`~repro.algebra.operators.RowId`
``ϱ`` attach row rank             :class:`~repro.algebra.operators.RowRank`
``doc`` document encoding table   :class:`~repro.algebra.operators.DocTable`
literal table                     :class:`~repro.algebra.operators.LiteralTable`
===============================  =======================================

Plans are DAGs: operators may be shared (the single ``doc`` instance of
Fig. 4 serves all node references).  :mod:`repro.algebra.dag` provides
traversal and reconstruction utilities, :mod:`repro.algebra.interpreter` a
reference evaluator (used as the "stacked plan" execution baseline), and
:mod:`repro.algebra.render` textual plan rendering.
"""

from repro.algebra.interpreter import PlanInterpreter, evaluate_plan
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    DocTable,
    Join,
    LiteralTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate, Sum
from repro.algebra.render import render_plan
from repro.algebra.table import Table

__all__ = [
    "Attach",
    "ColumnRef",
    "Comparison",
    "Cross",
    "Distinct",
    "DocTable",
    "Join",
    "Literal",
    "LiteralTable",
    "Operator",
    "PlanInterpreter",
    "Predicate",
    "Project",
    "RowId",
    "RowRank",
    "Select",
    "Serialize",
    "Sum",
    "Table",
    "evaluate_plan",
    "render_plan",
]
