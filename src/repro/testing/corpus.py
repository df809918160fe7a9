"""The two query corpora the tests and the paper-artifact report share.

:data:`WORKLOAD` is the paper's own query set: Q1 and Q2 come from the
running example of Sections II-IV; Q3-Q6 are the TurboXPath-paper queries
of Table VIII.  Q6's non-standard ``return-tuple`` construct (which the
paper itself replaces by an SQL/XML ``XMLTABLE``) is represented here by
returning the thesis titles — the selective part of the query (the
``year < "1994" and author and title`` predicate over ``phdthesis``
entries) is preserved unchanged, only the projection of the three result
columns into a tuple is simplified to a single column.  The differential
suites (``tests/integration/test_differential.py``,
``tests/integration/test_sql_backend.py``) verify it across the engine
configurations and ``examples/paper_artifacts.py`` prints the paper's
tables and figures from it.

:data:`XMARK_SUITE` is the full XMark Q1-Q20 benchmark suite [Schmidt et
al., VLDB 2002] adapted to the accepted fragment, consumed by the
differential test gate (``tests/integration/test_xmark_suite.py``) and the
rewrite-engine pins (``tests/core/test_rewrite_engine.py``).  Each query
preserves its original's access pattern — the joins, predicates,
positionals, quantifiers and aggregates the paper's compiler has to handle
— within the accepted fragment; three (Q7, Q14, Q18) are kept in their
out-of-fragment form as executable refusal annotations (see
:attr:`XMarkCase.refusal`).

The benchmark harness (``benchmarks/harness/inputs.py``) deliberately
carries its own frozen copy of the queries it times, so editing this
module never moves a benchmark number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import XQuerySyntaxError


@dataclass(frozen=True)
class PaperQuery:
    """One query of the paper's evaluation plus the metadata its reports need."""

    name: str
    dataset: str           # "xmark" or "dblp"
    xquery: str
    paper_id: str          # the identifier used in the paper / in [13]
    description: str
    pattern_index: Optional[tuple[str, str]] = None  # (pattern, type) for pureXML


#: The query set of the paper's evaluation (Table VIII plus Q1/Q2).
WORKLOAD: tuple[PaperQuery, ...] = (
    PaperQuery(
        name="Q1",
        dataset="xmark",
        xquery='doc("auction.xml")/descendant::open_auction[bidder]',
        paper_id="Q1",
        description="open auctions that already have a bidder",
    ),
    PaperQuery(
        name="Q2",
        dataset="xmark",
        xquery=(
            'let $a := doc("auction.xml") '
            "for $ca in $a//closed_auction[price > 500], "
            "$i in $a//item, $c in $a//category "
            "where $ca/itemref/@item = $i/@id "
            "and $i/incategory/@category = $c/@id "
            "return $c/name"
        ),
        paper_id="Q2",
        description="categories of items sold above 500",
        pattern_index=("//closed_auction/price", "DOUBLE"),
    ),
    PaperQuery(
        name="Q3",
        dataset="xmark",
        xquery='/site/people/person[@id = "person0"]/name/text()',
        paper_id="XMark 9a",
        description="name of person0 (highly selective value lookup)",
        pattern_index=("/site/people/person/@id", "VARCHAR"),
    ),
    PaperQuery(
        name="Q4",
        dataset="xmark",
        xquery="//closed_auction/price/text()",
        paper_id="XMark 9c",
        description="all closed auction prices (raw traversal)",
    ),
    PaperQuery(
        name="Q5",
        dataset="dblp",
        xquery='/dblp/*[@key = "conf/vldb2001" and editor and title]/title',
        paper_id="DBLP 8c",
        description="title of the VLDB 2001 proceedings",
        pattern_index=("/dblp/*/@key", "VARCHAR"),
    ),
    PaperQuery(
        name="Q6",
        dataset="dblp",
        xquery='for $thesis in /dblp/phdthesis[year < "1994" and author and title] '
        "return $thesis/title",
        paper_id="DBLP 8g",
        description="early PhD theses (selective tag + value test)",
        pattern_index=("/dblp/phdthesis/year", "VARCHAR"),
    ),
)


def query_by_name(name: str) -> PaperQuery:
    """Look up a workload query by its ``Q<n>`` name."""
    for query in WORKLOAD:
        if query.name == name:
            return query
    raise KeyError(name)


@dataclass(frozen=True)
class XMarkCase:
    """One XMark query: either runs everywhere or refuses everywhere."""

    name: str
    xquery: str
    description: str
    #: Documented error class when the query is outside the fragment; the
    #: refusal must be identical on every configuration (it happens at
    #: parse/normalize time, before any engine is chosen).
    refusal: Optional[type] = None
    #: Sanity floor on the oracle's item count for the tier-1 differential
    #: dataset (``tests/integration/test_xmark_suite.py``) — guards against
    #: a query silently degenerating to the empty sequence on a regenerated
    #: dataset, which would make the comparison vacuous.
    min_items: int = 1


XMARK_SUITE: tuple[XMarkCase, ...] = (
    XMarkCase(
        "Q1",
        '/site/people/person[@id = "person0"]/name/text()',
        "exact-match attribute lookup",
    ),
    XMarkCase(
        "Q2",
        "for $b in /site/open_auctions/open_auction "
        "return $b/bidder[1]/increase/text()",
        "positional predicate inside a FLWOR body (windowed rank)",
    ),
    XMarkCase(
        "Q3",
        "for $b in /site/open_auctions/open_auction "
        "where $b/bidder[1]/increase/text() <= $b/bidder[2]/increase/text() "
        "return $b/initial",
        "two positional ranks compared in a where clause "
        "(original multiplies by 2; the arithmetic-free comparison keeps "
        "both windowed ranks)",
    ),
    XMarkCase(
        "Q4",
        "for $b in /site/open_auctions/open_auction "
        'where some $pr in $b/bidder/personref satisfies $pr/@person = "person3" '
        "return $b/initial",
        "existential quantifier over bidders "
        "(original compares node order of two witnesses)",
    ),
    XMarkCase(
        "Q5",
        "fn:count(for $i in /site/closed_auctions/closed_auction "
        "where $i/price > 40 return $i/price)",
        "count over a where-filtered FLWOR",
    ),
    XMarkCase(
        "Q6",
        "for $r in /site/regions return fn:count($r/descendant::item)",
        "per-region descendant count",
    ),
    XMarkCase(
        "Q7",
        "fn:count(/site/descendant::description) + "
        "fn:count(/site/descendant::annotation)",
        "adding two counts — arithmetic is outside the fragment",
        refusal=XQuerySyntaxError,
    ),
    XMarkCase(
        "Q8",
        "for $p in /site/people/person "
        "return fn:count(/site/closed_auctions/closed_auction"
        "[buyer/@person = $p/@id])",
        "items bought per person (correlated count — the duplicate-value "
        "decode regression)",
        min_items=10,  # one count per person, duplicates kept
    ),
    XMarkCase(
        "Q9",
        "for $p in /site/people/person "
        "for $ca in /site/closed_auctions/closed_auction "
        "for $i in /site/regions/europe/item "
        "where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id "
        "return $i/name",
        "three-way value join: European items with their buyers",
    ),
    XMarkCase(
        "Q10",
        "for $c in /site/categories/category for $p in /site/people/person "
        "where $p/profile/interest/@category = $c/@id return $p/name",
        "persons grouped by interest category "
        "(original materializes element-constructed groups)",
    ),
    XMarkCase(
        "Q11",
        "for $p in /site/people/person for $o in /site/open_auctions/open_auction "
        "where $p/profile/@income > $o/initial return $p/name",
        "theta join of incomes against open auctions "
        "(original divides income by 5000)",
    ),
    XMarkCase(
        "Q12",
        "for $p in /site/people/person for $o in /site/open_auctions/open_auction "
        "where $p/profile/@income > $o/initial and $p/profile/@income > 50000 "
        "return $p/name",
        "Q11 restricted to the rich",
    ),
    XMarkCase(
        "Q13",
        "/site/regions/australia/item/name",
        "direct path projection of one region's items",
    ),
    XMarkCase(
        "Q14",
        "for $i in /site/descendant::item "
        'where contains($i/description, "gold") return $i/name',
        "full-text contains() — string functions are outside the fragment",
        refusal=XQuerySyntaxError,
    ),
    XMarkCase(
        "Q15",
        "/site/closed_auctions/closed_auction/annotation/description/text/text()",
        "deep path chain into annotations",
    ),
    XMarkCase(
        "Q16",
        "for $a in /site/closed_auctions/closed_auction "
        "where fn:exists($a/annotation/description/text) "
        "return $a/seller/@person",
        "exists() guard over the annotation path "
        "(original spells not(empty(...)))",
    ),
    XMarkCase(
        "Q17",
        "for $p in /site/people/person "
        "where fn:empty($p/profile) return $p/name",
        "persons without a profile (empty() through the count=0 rule)",
    ),
    XMarkCase(
        "Q18",
        "declare function local:convert($v) { $v } "
        "local:convert(/site/open_auctions/open_auction/initial)",
        "user-defined functions are outside the fragment",
        refusal=XQuerySyntaxError,
    ),
    XMarkCase(
        "Q19",
        "for $i in /site/regions/descendant::item "
        "order by $i/location/text() return $i/name",
        "order by over all items (the ORD rule's re-ranked loop)",
        min_items=12,  # items_per_region x regions on the tier-1 dataset
    ),
    XMarkCase(
        "Q20",
        "fn:count(/site/people/person[profile/@income > 50000])",
        "counting an income bracket (original builds four brackets with "
        "arithmetic percentages)",
    ),
)
