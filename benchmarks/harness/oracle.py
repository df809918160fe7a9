"""Expected results and the committed digests that pin them.

Every op's items are compared with what ``PureXMLEngine`` — the
navigational XISCAN/XSCAN path, which shares no normalize / loop-lift /
isolate / SQL code with the five relational configurations — returns for
the same query, normalised the way the relational engines define a result:
node sequences as distinct ``pre`` ranks in first-occurrence order,
aggregate sequences as their values.  The ``pre`` ranks are assigned here,
by a document-order walk of the parsed tree, not read from the encoding.

All classes of the four workloads evaluate navigationally at the commit
that defined the benchmark, so there is deliberately no fallback to the
stacked plan: an oracle that silently shared the compiler would be weaker
than one that fails loudly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Mapping, Optional

from repro.core.session import Session

from benchmarks.harness.inputs import digest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def pre_ranks(document, base: int) -> dict[int, int]:
    """``id(node) → pre``: a node, then its attributes, then its children."""
    ranks: dict[int, int] = {}
    stack = [document]
    while stack:
        node = stack.pop()
        ranks[id(node)] = base + len(ranks)
        stack.extend(reversed(node.attributes + node.children))
    return ranks


class Oracle:
    """Navigational evaluation over one registered document of a session."""

    def __init__(self, session: Session, uri: str, base: int):
        self.engine = session.purexml_engine(uri)
        self.ranks = pre_ranks(session.store.document(uri), base)
        #: Seconds per oracle evaluation (reported as ``purexml.execute_ms``).
        self.seconds: list[float] = []

    def expected(self, source: str, bindings: Optional[Mapping[str, object]] = None) -> list:
        started = time.perf_counter()
        result = self.engine.execute(source, bindings=bindings)
        self.seconds.append(time.perf_counter() - started)
        if result.values:
            return list(result.values)
        return list(dict.fromkeys(self.ranks[id(node)] for node in result.nodes))


def golden_path(seed: int, quick: bool) -> Path:
    return GOLDEN_DIR / f"seed{seed}{'-quick' if quick else ''}.json"


def check_golden(workload: str, seed: int, quick: bool, digests: Mapping[str, str]) -> list[str]:
    """Names whose digest differs from the committed one (empty = no drift).

    Only seeds with a committed file are checked; any other seed returns
    an empty list.
    """
    path = golden_path(seed, quick)
    if not path.exists():
        return []
    committed = json.loads(path.read_text()).get(workload, {})
    return sorted(
        name for name in set(committed) | set(digests) if committed.get(name) != digests.get(name)
    )


def write_golden(workload: str, seed: int, quick: bool, digests: Mapping[str, str]) -> None:
    path = golden_path(seed, quick)
    content = json.loads(path.read_text()) if path.exists() else {}
    content[workload] = dict(sorted(digests.items()))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(content.items())), indent=2) + "\n")


def expectation_digests(inputs_digest: str, expected: Mapping[str, object]) -> dict[str, str]:
    """The digests one workload commits: its inputs, and each class's result."""
    digests = {"inputs": inputs_digest}
    for name, items in expected.items():
        digests[f"expected:{name}"] = digest(items)
    return digests
