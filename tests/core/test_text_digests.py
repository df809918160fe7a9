"""Pinned text of everything the compiler and both relational engines print.

SHA-256 digests over the join-graph SQL, the SQL backend's ordered SQL, the
stacked WITH-chain, the B-tree engine's explain and join order, and the
rendered stacked and isolated plans of XMark Q1-Q20 and of a 300-query
generated slice (seed 0).  Every graph contributes its nested SFW blocks
(``outer_block``, ``aggregate_inner``/``aggregate_outer``, ``window_block``,
``having_argument``, ``having_bundle``) as well, each rendered, planned and
explained on its own.  A refactor of the term vocabulary, the renderers or
the planner must leave every digest as it is; a deliberate change of the
text re-pins them (print ``artifacts(...)`` before and after to see which
query moved).
"""

import hashlib

import pytest

from repro.algebra.render import render_plan
from repro.core.session import Session
from repro.core.sqlgen import render_join_graph
from repro.core.stages import sql_backend_sql
from repro.testing.corpus import XMARK_SUITE
from repro.testing.queries import DIFFERENTIAL_XML, QueryGenerator
from repro.xmldb.generators.xmark import generate_xmark_document
from tests.integration.test_xmark_suite import DATASET

GENERATED_SEED = 0
GENERATED_CASES = 300

KINDS = ("sql", "sql_backend", "stacked_sql", "explain", "join_order", "plans")


def _blocks(graph):
    """The graph itself, then every nested SFW block, each with a label."""
    blocks = [("graph", graph), ("outer", graph.outer_block())]
    if graph.aggregate is not None:
        blocks += [("inner", graph.aggregate_inner()), ("outer_agg", graph.aggregate_outer())]
    for number, window in enumerate(graph.windows):
        blocks.append((f"window{number}", graph.window_block(window.spec)))
    for number, having in enumerate(graph.having):
        blocks.append((f"having_argument{number}", graph.having_argument(having)))
        blocks.append((f"having_bundle{number}", graph.having_bundle(having)))
    return blocks


def _attempt(thunk) -> str:
    try:
        return str(thunk())
    except Exception as error:  # a refusal is part of the pinned text, too
        return f"{type(error).__name__}: {error}"


def artifacts(session, sources) -> dict[str, list[str]]:
    """Per kind, one text per query (and per block) in corpus order."""
    processor = session.processor
    context = processor.context
    texts: dict[str, list[str]] = {kind: [] for kind in KINDS}
    for source in sources:
        compilation = processor.compile(source)
        texts["stacked_sql"].append(compilation.stacked_sql)
        texts["plans"].append(render_plan(compilation.stacked_plan))
        texts["plans"].append(render_plan(compilation.isolated_plan))
        graph = compilation.join_graph
        if graph is None:
            texts["sql"].append(f"no join graph: {compilation.join_graph_error}")
            continue
        texts["sql"].append(compilation.join_graph_sql)
        texts["sql_backend"].append(_attempt(lambda: sql_backend_sql(compilation, context)))
        for label, block in _blocks(graph):
            engine = processor.engine
            texts["sql"].append(f"{label}\n{_attempt(lambda: render_join_graph(block))}")
            texts["explain"].append(f"{label}\n{_attempt(lambda: engine.explain(block))}")
            try:
                order = engine.plan(block).join_order
            except Exception as error:
                texts["join_order"].append(f"{label} {type(error).__name__}: {error}")
                continue
            texts["join_order"].append(f"{label} {order}")
            ordered = _attempt(lambda: render_join_graph(block, join_order=order))
            texts["sql_backend"].append(f"{label}\n{ordered}")
    return texts


def _digests(texts: dict[str, list[str]]) -> dict[str, str]:
    return {
        kind: hashlib.sha256("\x00".join(values).encode()).hexdigest()
        for kind, values in texts.items()
    }


def xmark_artifacts():
    session = Session(default_document="auction.xml")
    session.register_document(generate_xmark_document(DATASET))
    runnable = [case.xquery for case in XMARK_SUITE if case.refusal is None]
    return artifacts(session, runnable)


def generated_artifacts():
    session = Session()
    session.register("site.xml", DIFFERENTIAL_XML)
    generator = QueryGenerator(GENERATED_SEED)
    return artifacts(session, [generator.case(i).source for i in range(GENERATED_CASES)])


PINNED = {
    "xmark": {
        "sql": "2ef061f43d0681b740a1e973f13aefaedb591022754c2845aa0cf4085d0877a4",
        "sql_backend": "dd28c0c93c9182c0ad91e6714808aae0f52a3cd59cc0611139ffa21308651d40",
        "stacked_sql": "c4175d27b1472dc66d4799d44d39c80d8188e551e6c8d1940fb76f0fea4827b9",
        "explain": "a37b7962f4c671490246e6cbf2f7d2e7c82e107e28b22642c075db53195ebe76",
        "join_order": "b80e72dc5c814ae4fc006f25802b646eb701379d05c5224882fccdd41d605edc",
        "plans": "ab525f4e1edbd6468c9ae0c1646fc5bab1ee4a711879e44a17bb811ab9ad7543",
    },
    "generated": {
        "sql": "5988ee284be3ffaff8bfe1e384881d984bd5e9360fbb985e7c2571414775b585",
        "sql_backend": "ac5f439f36c6df0b0b1e7243a0f533754149b15d646bdba14f65f714cc9441a5",
        "stacked_sql": "ff8bc5d4dc754dd8334dfe5a9700eb128170ef01e877016e75061c46de4325f7",
        "explain": "cfb4cd5fb47badbc1fcc9a3577ded951834e78f81ae5e963a0980d1c477d311b",
        "join_order": "63ae59848b1d9730ed86fde3a06688c9c199af14e851abdaa0953395813b09fb",
        "plans": "73c6279d8a0b7ec474c36c12ac92ba4490305cf0c75ecf38861096294911430b",
    },
}


@pytest.mark.parametrize(
    "corpus, build", [("xmark", xmark_artifacts), ("generated", generated_artifacts)]
)
def test_printed_text_is_pinned(corpus, build):
    assert _digests(build()) == PINNED[corpus]
