"""A value returned through a ``let``/``for`` variable keeps its repeats.

``CompilationPipeline.returns_values`` follows a returned variable to the
expression the FLWOR spine bound it to, so an aggregate returned through
its variable decodes as a value result on every engine, like the pureXML
engine, which shares neither the compiler nor the decode step.
"""

import pytest

from repro.core.session import Session
from repro.core.stages import ENGINES

DOC = "<r><v>1</v><v>1</v><v>2</v></r>"
EACH_V = 'for $x in doc("n.xml")/descendant::v '


@pytest.fixture(scope="module")
def session():
    s = Session()
    s.register("n.xml", DOC)
    return s


@pytest.mark.parametrize(
    "query, expected",
    [
        (EACH_V + "let $s := fn:sum($x) return $s", [1.0, 1.0, 2.0]),
        (EACH_V + "let $s := fn:count($x) return $s", [1, 1, 1]),
        (EACH_V + "for $c in fn:count($x) return $c", [1, 1, 1]),
    ],
    ids=["let_sum", "let_count", "for_count"],
)
def test_a_bound_aggregate_is_a_value_result_on_every_engine(session, query, expected):
    assert session.purexml_engine("n.xml").execute(query).values == expected
    for engine in ENGINES:
        assert session.execute(query, configuration=engine.name).items == expected, engine.name


def test_a_variable_bound_to_nodes_stays_a_node_result(session):
    # The inner ``let`` rebinds ``$x`` to its outer ``for`` node, not to a value.
    query = EACH_V + "let $x := $x return $x"
    assert session.processor.compile(query).value_result is False
