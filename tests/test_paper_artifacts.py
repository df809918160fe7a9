"""Smoke test: ``examples/paper_artifacts.py`` prints every artifact of Section V."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "examples" / "paper_artifacts.py"

ARTIFACTS = (
    "Table VI",
    "Fig. 4 / Fig. 7",
    "Fig. 8",
    "Fig. 9",
    "Fig. 10",
    "Fig. 11",
    "Table IX",
    "Ablation — isolation goals",
    "Ablation — Table VI index set",
)


def test_report_has_every_artifact_at_a_tiny_scale():
    spec = importlib.util.spec_from_file_location("paper_artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sections = module.sections(scale=0.05)
    assert len(sections) == len(ARTIFACTS)
    for (title, text), artifact in zip(sections.items(), ARTIFACTS):
        assert title.startswith(artifact + " "), title
        assert text.strip(), title
    # All six queries isolate, so Table IX's join-graph cell is a time: never
    # DNF at this scale, never a refusal.
    table_nine = list(sections.values())[ARTIFACTS.index("Table IX")]
    rows = [[cell.strip() for cell in line.split("|")] for line in table_nine.splitlines()[2:]]
    assert [row[0] for row in rows] == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
    for row in rows:
        assert float(row[4]) >= 0.0, row
