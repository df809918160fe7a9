"""Tests of the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/harness -q

Everything runs in ``--quick`` mode: tiny documents, ~1 s phases.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.harness import inputs, run, tracing  # noqa: E402
from benchmarks.harness.metrics import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from benchmarks.harness.workloads import WORKLOADS, Tally  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*arguments: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "harness" / "run.py"), "--quick", *arguments],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_benchmark_json_spells_the_same_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER
    assert set(EXACT_COUNTS) <= set(PER_LAYER)
    for name in [*END_TO_END, *PER_LAYER, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_quick_run_reports_every_workload_and_metric():
    results = _run()
    assert list(results) == list(run.WORKLOAD_NAMES)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(END_TO_END), name
        for metric, reported in result["metrics"].items():
            assert reported["unit"] == END_TO_END[metric][0]
            assert reported["value"] > 0, (name, metric)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric_and_a_well_formed_trace(name):
    result = _run("--workload", name, "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    trace = json.loads((ROOT / "benchmarks" / "results" / f"trace-{name}.json").read_text())
    spans = trace["spans"]
    assert spans and tracing.tree_problems(spans) == []
    assert all(NAME.fullmatch(span["name"]) for span in spans)
    assert abs(sum(trace["layer_shares"].values()) - 1.0) < 1e-9


def test_tree_problems_are_detected():
    spans = [
        {"id": 0, "name": "op.x", "op": 0, "parent": None, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "core.isolate", "op": 0, "parent": 0, "start": 0.5, "end": 1.5},
        {"id": 2, "name": "op.x", "op": 0, "parent": None, "start": 2.0, "end": 3.0},
    ]
    problems = tracing.tree_problems(spans)
    assert any("leaves its parent" in problem for problem in problems)
    assert any("2 roots" in problem for problem in problems)
    assert tracing.self_times(spans[:2]) == [0.0, 1.0]


def test_a_wrong_expected_result_lowers_ok_share():
    workload = WORKLOADS["engines_warm"](seed=42, quick=True)
    state = workload.build()
    try:
        workload.expect(state)
        workload.expected["Q1"] = workload.expected["Q1"] + [-1]
        tally = Tally(workload.probe)
        completed, wall = workload.measure(state, 0.2, tally)
    finally:
        state.close()
    per_pass = len(workload.ENGINES)  # Q1 runs once per engine per pass
    assert tally.wrong == tally.failed and tally.failed % per_pass == 0 and tally.failed > 0
    metrics = run.end_to_end_metrics(workload, tally, completed, wall, [1.0])
    assert metrics["ok_share"] == 1.0 - tally.failed / tally.attempted < 1.0
    assert completed == tally.attempted - tally.failed


def test_the_same_seed_gives_the_same_inputs_and_schedules():
    for name, cls in WORKLOADS.items():
        first, second, other = cls(7, quick=True), cls(7, quick=True), cls(8, quick=True)
        states = [workload.build() for workload in (first, second, other)]
        try:
            assert states[0].texts == states[1].texts, name
            assert states[0].texts != states[2].texts, name
            assert first.inputs_digest(states[0]) == second.inputs_digest(states[1])
        finally:
            for state in states:
                state.close()
    assert inputs.poisson_schedule(7, 80.0, 2.0, 5) == inputs.poisson_schedule(7, 80.0, 2.0, 5)
    assert inputs.poisson_schedule(7, 80.0, 2.0, 5) != inputs.poisson_schedule(8, 80.0, 2.0, 5)
    assert inputs.price_bindings(7, 16) == inputs.price_bindings(7, 16)
    serve = WORKLOADS["serve_sql"](7, quick=True)
    assert [serve.op_at(i, i // 5) for i in range(40)] == [serve.op_at(i, i // 5) for i in range(40)]


def test_golden_digests_catch_drift(tmp_path, monkeypatch):
    from benchmarks.harness import oracle

    monkeypatch.setattr(oracle, "GOLDEN_DIR", tmp_path)
    oracle.write_golden("w", 42, True, {"inputs": "aa", "expected:Q1": "bb"})
    assert oracle.check_golden("w", 42, True, {"inputs": "aa", "expected:Q1": "bb"}) == []
    assert oracle.check_golden("w", 42, True, {"inputs": "aa", "expected:Q1": "cc"}) == ["expected:Q1"]
    assert oracle.check_golden("w", 43, True, {"inputs": "zz"}) == []  # no committed file


def test_it_refuses_to_run_without_the_program(tmp_path):
    harness = tmp_path / "benchmarks" / "harness"
    harness.mkdir(parents=True)
    for source in (ROOT / "benchmarks" / "harness").glob("*.py"):
        (harness / source.name).write_text(source.read_text())
    completed = subprocess.run(
        [sys.executable, str(harness / "run.py"), "--workload", "adhoc_cold", "--quick"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0 and completed.stdout == ""
