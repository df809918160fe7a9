"""Join graph isolation — the paper's contribution.

* :mod:`repro.core.properties` — inference of the plan properties
  ``needed`` / ``const`` / ``key`` / ``set`` (Tables II-V of the paper).
* :mod:`repro.core.rewrite` — the declarative rewrite engine: the rules
  (1)-(17) of Fig. 5 plus the key-self-join (context join) elimination the
  final plans of Fig. 7/8 rely on, and the worklist driver that runs them.
* :mod:`repro.core.rewriter` — the goal sequence handed to that driver
  (ϱ goal first, then the δ/⋈ goals, house-cleaning throughout).
* :mod:`repro.core.joingraph` — extraction of the isolated join graph and
  plan tail from a rewritten plan.
* :mod:`repro.core.sqlgen` — SQL emission: one
  ``SELECT [DISTINCT] … FROM doc d1, … WHERE … ORDER BY …`` block per
  isolated plan (Fig. 8 / Fig. 9), plus a stacked CTE rendering of the
  unrewritten plan for comparison.
* :mod:`repro.core.pipeline` — the end-to-end processor
  (XQuery text → plans → SQL → results).
"""

from repro.core.joingraph import JoinGraph, extract_join_graph
from repro.core.pipeline import CompilationResult, XQueryProcessor
from repro.core.properties import PlanProperties, infer_properties
from repro.core.rewriter import IsolationReport, JoinGraphIsolation, isolate
from repro.core.sqlgen import generate_join_graph_sql, generate_stacked_sql

__all__ = [
    "CompilationResult",
    "IsolationReport",
    "JoinGraph",
    "JoinGraphIsolation",
    "PlanProperties",
    "XQueryProcessor",
    "extract_join_graph",
    "generate_join_graph_sql",
    "generate_stacked_sql",
    "infer_properties",
    "isolate",
]
