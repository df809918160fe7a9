"""Columnar core vs naive oracle over the generated query corpus.

The same seeded 200-case slice that ``test_queries.py`` pins, evaluated
plan by plan: every case's stacked and isolated plan runs through the
columnar core (``PlanInterpreter(doc)``) and through the naive oracle
(``PlanInterpreter(doc, compiled=False)``), and the two result tables must
be equal — columns, rows and row order.  Refusals are an engine matter,
not an interpreter one; ``test_queries.py``'s five-engine slice covers
them.
"""

import pytest

from repro.algebra.interpreter import PlanInterpreter
from repro.core.session import Session
from repro.testing.queries import DIFFERENTIAL_XML, QueryGenerator

SEED = 0
CASES = 200

#: Same chunking rationale as test_queries.py: readable pytest output,
#: failures still report the reproducing (seed, index, source) triple.
BLOCK = 25


@pytest.fixture(scope="module")
def processor():
    session = Session()
    session.register("site.xml", DIFFERENTIAL_XML)
    return session.processor


@pytest.mark.parametrize("start", range(0, CASES, BLOCK))
def test_columnar_flag_is_differential(processor, start):
    doc = processor.doc_table
    generator = QueryGenerator(SEED)
    for index in range(start, start + BLOCK):
        query = generator.case(index)
        label = f"seed={query.seed} index={query.index} query={query.source!r}"
        compilation = processor.compile(query.source)
        for plan in ("stacked_plan", "isolated_plan"):
            operator = getattr(compilation, plan)
            columnar = PlanInterpreter(doc).evaluate(operator)
            oracle = PlanInterpreter(doc, compiled=False).evaluate(operator)
            assert columnar == oracle, f"columnar core and oracle disagree on {plan} ({label})"
