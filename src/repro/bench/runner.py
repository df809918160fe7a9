"""Timing / timeout runner and Table IX reporting helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import JoinGraphError, QueryTimeoutError
from repro.bench.workloads import BenchmarkDataset, BenchmarkQuery
from repro.core.pipeline import XQueryProcessor
from repro.purexml.engine import PureXMLEngine


@dataclass
class ConfigurationTiming:
    """One cell of Table IX: a wall-clock time or DNF."""

    seconds: Optional[float]
    node_count: Optional[int] = None
    dnf: bool = False

    def render(self) -> str:
        if self.dnf or self.seconds is None:
            return "DNF"
        return f"{self.seconds:8.3f}"


@dataclass
class TableNineRow:
    """One row of Table IX: a query in all four configurations."""

    query: str
    result_nodes: Optional[int]
    stacked: ConfigurationTiming
    join_graph: ConfigurationTiming
    purexml_whole: ConfigurationTiming
    purexml_segmented: ConfigurationTiming

    def render(self) -> str:
        return (
            f"{self.query:>4} | {self.result_nodes if self.result_nodes is not None else '-':>8} | "
            f"{self.stacked.render():>9} | {self.join_graph.render():>9} | "
            f"{self.purexml_whole.render():>9} | {self.purexml_segmented.render():>9}"
        )

    @staticmethod
    def header() -> str:
        return (
            "   Q | # nodes  |   stacked | joingraph | pureXML-w | pureXML-s\n"
            + "-" * 72
        )


def _time_call(call: Callable[[], object], budget_seconds: float) -> ConfigurationTiming:
    start = time.perf_counter()
    try:
        result = call()
    except QueryTimeoutError:
        return ConfigurationTiming(seconds=None, dnf=True)
    elapsed = time.perf_counter() - start
    node_count = getattr(result, "node_count", None)
    return ConfigurationTiming(seconds=elapsed, node_count=node_count)


def run_table_nine_row(
    query: BenchmarkQuery,
    dataset: BenchmarkDataset,
    processor: XQueryProcessor,
    budget_seconds: float = 10.0,
) -> TableNineRow:
    """Run one query in all four Table IX configurations.

    The *stacked* configuration evaluates the unrewritten plan with the
    algebra interpreter, *join graph* runs the isolated SQL join graph on
    the relational back-end (falling back to the isolated plan when the
    query could not be cast into a single SFW block — documented for Q2),
    and the two pureXML configurations run the navigational baseline over
    the whole-document and the segmented store respectively.
    """
    stacked = _time_call(
        lambda: processor.execute(query.xquery, budget_seconds, configuration="stacked"),
        budget_seconds,
    )

    def join_graph_call():
        try:
            return processor.execute(
                query.xquery, budget_seconds, configuration="join-graph"
            )
        except JoinGraphError:
            return processor.execute(
                query.xquery, budget_seconds, configuration="isolated"
            )

    join_graph = _time_call(join_graph_call, budget_seconds)

    whole_engine = PureXMLEngine(dataset.whole_store)
    segmented_engine = PureXMLEngine(dataset.segmented_store)
    if query.pattern_index is not None:
        pattern, as_type = query.pattern_index
        whole_engine.create_pattern_index(pattern, as_type)
        segmented_engine.create_pattern_index(pattern, as_type)
    purexml_whole = _time_call(
        lambda: whole_engine.execute(query.xquery, timeout_seconds=budget_seconds),
        budget_seconds,
    )
    purexml_segmented = _time_call(
        lambda: segmented_engine.execute(query.xquery, timeout_seconds=budget_seconds),
        budget_seconds,
    )
    result_nodes = join_graph.node_count if join_graph.node_count is not None else stacked.node_count
    return TableNineRow(
        query=query.name,
        result_nodes=result_nodes,
        stacked=stacked,
        join_graph=join_graph,
        purexml_whole=purexml_whole,
        purexml_segmented=purexml_segmented,
    )
