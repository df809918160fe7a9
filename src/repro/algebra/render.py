"""Plan rendering: indented text trees and operator summaries.

The text renderer is what the plan-shape experiments (Fig. 4 vs. Fig. 7) and
the examples print.  Shared sub-plans are printed once and referenced
afterwards, so the output reflects the DAG (not an exponentially unfolded
tree).
"""

from __future__ import annotations

from repro.algebra.dag import operator_histogram, parents_map
from repro.algebra.operators import Operator


def render_plan(root: Operator, max_label_width: int = 80) -> str:
    """Render the plan DAG as an indented text tree.

    Nodes with several parents get a ``[*n]`` reference label on their first
    occurrence and are afterwards printed as ``-> [*n]`` back references.
    """
    parents = parents_map(root)
    shared_labels: dict[int, str] = {}
    next_shared = [1]
    lines: list[str] = []
    printed: set[int] = set()

    def shared_label(node: Operator) -> str:
        if id(node) not in shared_labels:
            shared_labels[id(node)] = f"*{next_shared[0]}"
            next_shared[0] += 1
        return shared_labels[id(node)]

    def walk(node: Operator, depth: int) -> None:
        indent = "  " * depth
        label = node.label()
        if len(label) > max_label_width:
            label = label[: max_label_width - 1] + "…"
        is_shared = len(parents[id(node)]) > 1
        if is_shared and id(node) in printed:
            lines.append(f"{indent}-> [{shared_labels[id(node)]}]")
            return
        marker = f" [{shared_label(node)}]" if is_shared else ""
        lines.append(f"{indent}{label}{marker}")
        printed.add(id(node))
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def plan_summary(root: Operator) -> str:
    """A one-paragraph summary of the plan's operator inventory.

    Used by the Fig. 4 / Fig. 7 experiment to contrast the stacked and the
    isolated plan shapes (how many joins, how many blocking δ/ϱ operators).
    """
    histogram = operator_histogram(root)
    total = sum(histogram.values())
    parts = [f"{count}×{name}" for name, count in sorted(histogram.items())]
    return f"{total} operators ({', '.join(parts)})"
