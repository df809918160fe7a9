"""The engine's cached physical programs, and the join orders they pin.

A prepared ``join-graph`` call executes: one program per (graph, bound
values) per engine — one engine per catalog snapshot — planned once, the
same under every hash seed, and run from any number of threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.session import Session
from repro.relational import engine as engine_module
from repro.relational.optimizer.planner import Planner
from repro.testing.corpus import XMARK_SUITE

PRICE_QUERY = (
    "declare variable $p as xs:decimal external; "
    'doc("auction.xml")//closed_auction[price > $p]/child::itemref'
)


@pytest.fixture
def plan_calls(monkeypatch):
    calls = []
    plan = Planner.plan

    def counting(self, graph):
        calls.append(graph)
        return plan(self, graph)

    monkeypatch.setattr(Planner, "plan", counting)
    return calls


@pytest.fixture
def engine(xmark_processor):
    """An engine with an empty program memo over the shared database."""
    return engine_module.RelationalEngine(xmark_processor.database)


def _graph(processor, name):
    [case] = [case for case in XMARK_SUITE if case.name == name]
    return processor.compile(case.xquery).join_graph


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q8"])  # plain, windowed, grouped aggregate
def test_a_second_call_plans_nothing(xmark_processor, engine, plan_calls, name):
    graph = _graph(xmark_processor, name)
    first = engine.execute(graph)
    engine.plan(graph), engine.explain(graph)
    planned = len(plan_calls)
    assert planned > 0
    again = engine.execute(graph)
    assert engine.plan(graph) is engine.plan(graph)
    engine.explain(graph)
    assert len(plan_calls) == planned
    assert (again.items(), again.rows_scanned, again.index_probes) == (
        first.items(), first.rows_scanned, first.index_probes
    )


def _operators(root):
    yield root
    for child in root.children():
        yield from _operators(child)


def test_a_new_snapshot_plans_again_on_its_own_tables_and_trees(xmark_document, plan_calls):
    session = Session()
    session.register_document(xmark_document)
    prepared = session.prepare(XMARK_SUITE[0].xquery)
    expected = prepared.run(engine="join-graph").items
    old = session.processor.engine
    planned = len(plan_calls)

    session.register("other.xml", "<other><name>x</name></other>")
    new = session.processor.engine
    assert new is not old and not new._programs
    assert prepared.run(engine="join-graph").items == expected
    assert len(plan_calls) == planned + 1  # the new snapshot's engine planned for itself
    [program] = new._programs.values()
    table = new.database.table("doc")
    assert len(table) > len(old.database.table("doc"))
    for operator in _operators(program.planned.root):
        assert getattr(operator, "table", table) is table
        if hasattr(operator, "index"):
            assert operator.index is new.database.index(operator.index.name)


def test_bound_values_get_their_own_programs_and_the_fig10_fig11_flip(
    xmark_processor, engine, plan_calls
):
    graph = xmark_processor.compile(PRICE_QUERY).join_graph
    selective = engine.plan(graph, bindings={"p": 5000.0})
    unselective = engine.plan(graph, bindings={"p": 0.0})
    assert len(engine._programs) == 2
    # Fig. 11 vs Fig. 10: only the selective value starts the plan at the price alias.
    assert "datalow" in selective.root.explain().splitlines()[-1]
    assert selective.join_order[0] != unselective.join_order[0]
    planned = len(plan_calls)
    assert engine.plan(graph, bindings={"p": 5000.0}) is selective
    assert engine.execute(graph, bindings={"p": 0.0}).plan is unselective
    assert len(plan_calls) == planned


def test_the_program_memo_is_a_fixed_size_lru(xmark_processor, engine, plan_calls):
    graph = xmark_processor.compile(PRICE_QUERY).join_graph
    size = engine_module.PROGRAM_CACHE_SIZE
    for value in range(size + 1):
        engine.plan(graph, bindings={"p": float(value)})
    assert len(engine._programs) == size
    planned = len(plan_calls)
    engine.plan(graph, bindings={"p": float(size)})  # most recent: still there
    assert len(plan_calls) == planned
    engine.plan(graph, bindings={"p": 0.0})  # least recent: evicted, planned again
    assert len(plan_calls) == planned + 1 and len(engine._programs) == size


# -- what the cached programs pin -----------------------------------------------------

#: name -> (join order executed, rows_scanned, index_probes) at the parent
#: commit with this tie-break applied, on the ``xmark_processor`` fixture.
PARENT_COUNTERS = {
    "Q1": (["d7", "d6", "d5", "d4", "d3", "d2", "d1"], 24, 24),
    "Q2": (["d7", "d6", "d5", "d4", "d3", "d2", "d1"], 372, 212),
    "Q8": (["d4", "d3", "d2", "d1"], 303, 134),
    "Q10": (
        ["d12", "d11", "d10", "d9", "d13", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d1"],
        224,
        109,
    ),
    "Q13": (["d6", "d5", "d4", "d3", "d2", "d1"], 12, 9),
    "Q19": (["d5", "d4", "d3", "d2", "d7", "d1", "d6"], 99, 76),
}


@pytest.mark.parametrize("name", PARENT_COUNTERS)
def test_rows_scanned_and_probes_are_the_parent_commits(xmark_processor, engine, name):
    result = engine.execute(_graph(xmark_processor, name))
    assert (result.plan.join_order, result.rows_scanned, result.index_probes) == (
        PARENT_COUNTERS[name]
    )


_PLAN_THE_SUITE = """
import json
from repro.core.pipeline import XQueryProcessor
from repro.testing.corpus import XMARK_SUITE
from repro.xmldb.encoding import encode_document
from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_document

document = generate_xmark_document(XMarkConfig(scale=0.05, seed=11))
processor = XQueryProcessor(encode_document(document), default_document="auction.xml")
orders = {}
for case in XMARK_SUITE:
    if case.refusal is None:
        graph = processor.compile(case.xquery).join_graph
        orders[case.name] = processor.engine.plan(graph).join_order
print(json.dumps(orders))
"""


def test_join_orders_do_not_depend_on_the_hash_seed():
    source = str(Path(__file__).resolve().parents[2] / "src")
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _PLAN_THE_SUITE],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in "0123"
    ]
    orders = []
    for run in runs:
        output, _ = run.communicate(timeout=120)
        assert run.returncode == 0
        orders.append(json.loads(output))
    assert len(orders[0]) == 17 and orders == [orders[0]] * 4
