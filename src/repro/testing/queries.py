"""Seeded random generation of fragment-conformant XQuery FLWOR queries.

The differential suites (``tests/integration/``) pin down the engine
configurations on *hand-picked* queries; this module generates arbitrarily
many more from the same fragment — paths, predicates, positionals, value
joins, aggregates (in return and ``where`` position), ``order by``,
``exists``/``empty`` and ``some``/``every`` quantifiers — so the
bit-for-bit property is exercised over combinations nobody thought to
write down.  It is the repository's property-based stress harness: the
tier-1 suite runs a fixed seeded corpus (~200 cases), and CI runs a deeper
nightly sweep via ``python -m repro.testing.queries``.

Generation is deterministic: case *i* of seed *s* is produced by
``random.Random(f"{s}:{i}")``, so a failure report's ``(seed, index)``
pair reproduces the exact query forever.

The **differential contract** checked by :func:`check_differential`:

* ``stacked``, ``isolated`` and ``sql-stacked`` execute every generated
  query (they need no join graph) and must agree bit-for-bit;
* ``join-graph`` and ``sql`` either agree bit-for-bit too or refuse with
  the documented :class:`~repro.errors.JoinGraphError` — any other
  exception, anywhere, is a bug.

Queries run against the fixed :data:`DIFFERENTIAL_XML` document, whose
shape (persons with watches and optional profiles, items with optional
quantities, duplicate values on both sides of every join) the generator's
vocabulary mirrors, so generated predicates hit non-empty and empty
results in roughly equal measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.stages import ENGINES
from repro.errors import JoinGraphError

#: Document the generated queries run against.  Duplicate watch targets,
#: duplicate item names, a watch-less person, a profile-less person and a
#: quantity-less item give every generated predicate both matching and
#: non-matching rows to chew on.
DIFFERENTIAL_XML = """<site>
 <people>
  <person id="p0"><name>Zed</name><watch>i3</watch><watch>i1</watch>
    <profile income="72000"><age>44</age></profile></person>
  <person id="p1"><name>Ann</name><watch>i2</watch><watch>i3</watch></person>
  <person id="p2"><name>Mia</name>
    <profile income="31000"><age>29</age></profile></person>
  <person id="p3"><name>Ann</name><watch>i1</watch></person>
 </people>
 <items>
  <item id="i1"><name>Lamp</name><quantity>5</quantity></item>
  <item id="i2"><name>Desk</name><quantity>7</quantity></item>
  <item id="i3"><name>Lamp</name><quantity>2</quantity></item>
  <item id="i4"><name>Vase</name></item>
 </items>
</site>"""

#: The five engine configurations, oracle first.
CONFIGS = tuple(engine.name for engine in ENGINES)

#: Configurations that interpret plans directly and therefore must never
#: refuse a generated (fragment-conformant) query.
TOTAL_CONFIGS = tuple(engine.name for engine in ENGINES if not engine.needs_join_graph)

#: Configurations that require an isolated join graph; a generated query
#: may legitimately exceed the single-SFW fragment (e.g. nested aggregates
#: from an ``every`` desugaring), in which case these refuse with
#: :class:`JoinGraphError` — the *only* acceptable error class.
PARTIAL_CONFIGS = tuple(engine.name for engine in ENGINES if engine.needs_join_graph)


@dataclass(frozen=True)
class GeneratedQuery:
    """One generated case: the query, its provenance and its features."""

    seed: int
    index: int
    source: str
    #: Constructs the query exercises (``"positional"``, ``"order-by"``,
    #: ``"quantifier"``, ...) — lets sweeps report coverage per feature.
    features: tuple[str, ...]


@dataclass
class DifferentialOutcome:
    """What happened when one generated query ran on every configuration."""

    query: GeneratedQuery
    items: Optional[list] = None
    #: Configurations that raised JoinGraphError (always a subset of
    #: :data:`PARTIAL_CONFIGS` when the contract holds).
    refused: tuple[str, ...] = ()


# -- vocabulary -------------------------------------------------------------------

_WATCH_VALUES = ('"i1"', '"i2"', '"i3"', '"i9"')
_NAME_VALUES = ('"Ann"', '"Lamp"', '"Vase"', '"Nobody"')
_ID_VALUES = ('"p0"', '"p1"', '"i3"', '"i4"', '"x9"')
_NUMBERS = ("0", "2", "5", "31000", "72000")
_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: binding kind → (path under the bound variable, value pool) choices for
#: comparisons; the pools share values with the document so predicates are
#: selective rather than uniformly empty or uniformly full.
_VALUE_PATHS = {
    "person": (
        ("child::watch", _WATCH_VALUES),
        ("child::name/text()", _NAME_VALUES),
        ("attribute::id", _ID_VALUES),
        ("child::profile/attribute::income", _NUMBERS),
    ),
    "item": (
        ("child::name/text()", _NAME_VALUES),
        ("attribute::id", _ID_VALUES),
        ("child::quantity", _NUMBERS),
    ),
}

#: binding kind → node-sequence paths (existence tests, aggregates,
#: quantifier ranges).
_NODE_PATHS = {
    "person": ("child::watch", "child::profile", "child::nosuch"),
    "item": ("child::quantity", "child::name", "child::nosuch"),
}

#: binding kind → return-position paths.
_RETURN_PATHS = {
    "person": ("", "/child::name", "/attribute::id", "/child::watch"),
    "item": ("", "/child::name", "/attribute::id"),
}

_SEQUENCES = {
    "person": 'doc("site.xml")/descendant::person',
    "item": 'doc("site.xml")/descendant::item',
    "watch": 'doc("site.xml")/descendant::watch',
}

_ORDER_KEYS = {
    "person": "child::name/text()",
    "item": "child::name/text()",
    "watch": "text()",
}


class QueryGenerator:
    """Deterministic fragment-conformant query generation.

    Every production below stays inside the compiler's accepted fragment
    *by construction* (no ``or``, no arithmetic, ascending-only single-key
    ``order by``, single-binding quantifiers), so any error other than a
    join-graph refusal on the two SQL-bound configurations is an engine
    bug, not a generator artefact.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def case(self, index: int) -> GeneratedQuery:
        """Generate case ``index`` (stable under corpus size changes)."""
        rng = random.Random(f"{self.seed}:{index}")
        source, features = self._query(rng)
        return GeneratedQuery(self.seed, index, source, tuple(features))

    def corpus(self, count: int) -> list[GeneratedQuery]:
        return [self.case(index) for index in range(count)]

    # -- productions ---------------------------------------------------------------

    def _query(self, rng: random.Random) -> tuple[str, list[str]]:
        production = rng.choice(
            ("path", "path", "flwor", "flwor", "flwor", "flwor", "aggregate")
        )
        if production == "path":
            return self._path_query(rng)
        if production == "aggregate":
            return self._aggregate_query(rng)
        return self._flwor_query(rng)

    def _path_query(self, rng: random.Random) -> tuple[str, list[str]]:
        """A ddo path with an optional predicate or positional filter."""
        kind = rng.choice(("person", "item", "watch"))
        base = _SEQUENCES[kind]
        features = ["path"]
        choice = rng.random()
        if kind != "watch" and choice < 0.45:
            predicate, predicate_features = self._predicate(rng, kind)
            features += predicate_features
            tail = rng.choice(_RETURN_PATHS[kind])
            return f"{base}[{predicate}]{tail}", features
        if choice < 0.7:
            position = rng.choice((1, 2, 3, 9))
            features.append("positional")
            tail = rng.choice(_RETURN_PATHS[kind]) if kind != "watch" else ""
            return f"{base}[{position}]{tail}", features
        tail = rng.choice(_RETURN_PATHS[kind]) if kind != "watch" else ""
        return f"{base}{tail}", features

    def _predicate(self, rng: random.Random, kind: str) -> tuple[str, list[str]]:
        """A context-relative predicate for ``seq[...]`` position."""
        roll = rng.random()
        if roll < 0.5:
            path, pool = rng.choice(_VALUE_PATHS[kind])
            op = rng.choice(_COMPARISON_OPS)
            return f"{path} {op} {rng.choice(pool)}", ["comparison"]
        if roll < 0.8:
            test = rng.choice(("fn:exists", "fn:empty", "exists", "empty"))
            path = rng.choice(_NODE_PATHS[kind])
            return f"{test}({path})", ["exists-empty"]
        range_path = _NODE_PATHS[kind][0]  # watch / quantity
        if kind == "person":
            inner = f"$w/text() = {rng.choice(_WATCH_VALUES)}"
        else:
            inner = f"$w/text() > {rng.choice(_NUMBERS[:3])}"
        quantifier = rng.choice(("some", "every"))
        return (
            f"{quantifier} $w in {range_path} satisfies {inner}",
            ["quantifier"],
        )

    def _aggregate_query(self, rng: random.Random) -> tuple[str, list[str]]:
        """A top-level aggregate over a path."""
        function = rng.choice(("count", "count", "sum"))
        if function == "sum":
            argument = 'doc("site.xml")/descendant::quantity'
        else:
            kind = rng.choice(("person", "item", "watch"))
            argument = _SEQUENCES[kind]
        return f"fn:{function}({argument})", ["aggregate"]

    def _flwor_query(self, rng: random.Random) -> tuple[str, list[str]]:
        features = ["flwor"]
        bindings = [("p" if rng.random() < 0.5 else "i", None)]
        first_kind = "person" if bindings[0][0] == "p" else "item"
        bindings[0] = (bindings[0][0], first_kind)
        two_bindings = rng.random() < 0.35
        if two_bindings:
            second_kind = "item" if first_kind == "person" else "person"
            bindings.append(("q", second_kind))
            features.append("join" if rng.random() < 0.8 else "product")
        clauses = [
            f"for ${var} in {_SEQUENCES[kind]}" for var, kind in bindings
        ]
        where, where_features = self._where(rng, bindings, two_bindings)
        features += where_features
        if where:
            clauses.append(f"where {where}")
        order_by = not two_bindings and rng.random() < 0.3
        if order_by:
            var, kind = bindings[0]
            clauses.append(f"order by ${var}/{_ORDER_KEYS[kind]}")
            features.append("order-by")
        returned, return_features = self._return(rng, bindings[0])
        features += return_features
        clauses.append(f"return {returned}")
        return " ".join(clauses), features

    def _where(
        self,
        rng: random.Random,
        bindings: Sequence[tuple[str, str]],
        two_bindings: bool,
    ) -> tuple[Optional[str], list[str]]:
        conditions: list[str] = []
        features: list[str] = []
        if two_bindings and "join" in self._planned(rng):
            # Value join between the two bound sequences (watch ↔ item id
            # is the only shared value domain in the document).
            (a, _), (b, _) = bindings[0], bindings[1]
            person, item = (a, b) if bindings[0][1] == "person" else (b, a)
            conditions.append(
                f"${person}/child::watch = ${item}/attribute::id"
            )
            features.append("value-join")
        if not conditions or rng.random() < 0.4:
            var, kind = bindings[0]
            condition, condition_features = self._condition(rng, var, kind)
            conditions.append(condition)
            features += condition_features
        if not conditions:
            return None, features
        if rng.random() < 0.8 or len(conditions) > 1:
            return " and ".join(conditions), features
        return conditions[0], features

    @staticmethod
    def _planned(rng: random.Random) -> str:
        return "join" if rng.random() < 0.9 else "product"

    def _condition(
        self, rng: random.Random, var: str, kind: str
    ) -> tuple[str, list[str]]:
        roll = rng.random()
        if roll < 0.35:
            path, pool = rng.choice(_VALUE_PATHS[kind])
            op = rng.choice(_COMPARISON_OPS)
            return f"${var}/{path} {op} {rng.choice(pool)}", ["comparison"]
        if roll < 0.55:
            function = "count"
            path = rng.choice(_NODE_PATHS[kind])
            op = rng.choice(("=", ">", "<=", "!="))
            bound = rng.choice(("0", "1", "2"))
            return (
                f"fn:{function}(${var}/{path}) {op} {bound}",
                ["where-aggregate"],
            )
        if roll < 0.75:
            test = rng.choice(("fn:exists", "fn:empty"))
            path = rng.choice(_NODE_PATHS[kind])
            return f"{test}(${var}/{path})", ["exists-empty"]
        quantifier = rng.choice(("some", "every"))
        if kind == "person":
            range_path, inner = "child::watch", f"$w/text() = {rng.choice(_WATCH_VALUES)}"
        else:
            range_path, inner = (
                "child::quantity",
                f"$w/text() {rng.choice(('>', '<='))} {rng.choice(_NUMBERS[:3])}",
            )
        return (
            f"{quantifier} $w in ${var}/{range_path} satisfies {inner}",
            ["quantifier"],
        )

    def _return(
        self, rng: random.Random, binding: tuple[str, str]
    ) -> tuple[str, list[str]]:
        var, kind = binding
        if rng.random() < 0.25:
            path = rng.choice(_NODE_PATHS[kind])
            return f"fn:count(${var}/{path})", ["return-aggregate"]
        return f"${var}{rng.choice(_RETURN_PATHS[kind])}", []


# -- the differential check --------------------------------------------------------


def check_differential(session, query: GeneratedQuery) -> DifferentialOutcome:
    """Run one generated query on all five configurations and compare.

    Raises :class:`AssertionError` with the reproducing ``(seed, index,
    source)`` triple on any contract violation; returns the outcome (items
    plus which configurations legitimately refused) otherwise.
    """
    label = f"seed={query.seed} index={query.index} query={query.source!r}"
    oracle = session.execute(query.source, configuration=CONFIGS[0]).items
    refused = []
    for configuration in CONFIGS[1:]:
        try:
            items = session.execute(query.source, configuration=configuration).items
        except JoinGraphError:
            assert configuration in PARTIAL_CONFIGS, (
                f"{configuration} may not refuse a generated query ({label})"
            )
            refused.append(configuration)
            continue
        assert items == oracle, (
            f"{configuration} disagrees with the stacked oracle ({label}): "
            f"{items!r} != {oracle!r}"
        )
    return DifferentialOutcome(query, items=oracle, refused=tuple(refused))


def run_sweep(
    count: int, seed: int = 0, session=None
) -> tuple[list[DifferentialOutcome], dict]:
    """Run ``count`` generated cases; return outcomes and a feature census."""
    if session is None:
        from repro.core.session import Session

        session = Session()
        session.register("site.xml", DIFFERENTIAL_XML)
    generator = QueryGenerator(seed)
    outcomes = []
    census: dict = {"features": {}, "refusals": 0, "nonempty": 0}
    for query in generator.corpus(count):
        outcome = check_differential(session, query)
        outcomes.append(outcome)
        for feature in query.features:
            census["features"][feature] = census["features"].get(feature, 0) + 1
        if outcome.refused:
            census["refusals"] += 1
        if outcome.items:
            census["nonempty"] += 1
    return outcomes, census


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point for the nightly sweep: exits non-zero on violation."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    options = parser.parse_args(list(argv) if argv is not None else None)
    outcomes, census = run_sweep(options.count, options.seed)
    print(
        f"{len(outcomes)} generated queries agreed bit-for-bit "
        f"({census['refusals']} legitimate join-graph refusals, "
        f"{census['nonempty']} non-empty results)"
    )
    for feature, hits in sorted(census["features"].items()):
        print(f"  {feature:>16}: {hits}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
