"""Seeded inputs: XML text, query texts, bindings and arrival schedules.

The harness owns its generator and its query texts instead of importing
``repro.xmldb.generators`` / ``repro.bench.xmark``: the program under test
receives only generated inputs, so a change under ``src/`` can never change
what is measured.  Everything here is a pure function of its arguments —
``random.Random`` seeded with a *string* is stable across processes and
Python versions, and the committed digests under ``golden/`` pin seed 42.
"""

from __future__ import annotations

import hashlib
import random

XMARK_URI = "auction.xml"
NESTED_URI = "nested.xml"

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
_WORDS = (
    "gold silver vintage antique rare modern classic signed limited original "
    "mint restored painted carved woven portrait landscape sculpture ceramic "
    "crystal bronze oak walnut marble velvet satin linen amber pearl ivory"
).split()
_FIRST = "Ada Alan Barbara Carl Dana Edsger Frances Grace Hedy Ivan Judy Ken".split()
_LAST = "Lovelace Turing Liskov Scott Dijkstra Allen Hopper Lamarr Clark Wirth".split()

#: Entity counts at scale 1.0 (≈ 11k encoded nodes); all grow linearly.
_BASE = {"items_per_region": 25, "categories": 30, "people": 120, "open": 140, "closed": 120}

#: XMark queries adapted to the accepted fragment (same texts as the tier-1
#: differential suite at the commit that defined the benchmark).
XMARK_QUERIES = {
    "Q1": '/site/people/person[@id = "person0"]/name/text()',
    "Q2": "for $b in /site/open_auctions/open_auction return $b/bidder[1]/increase/text()",
    "Q5": "fn:count(for $i in /site/closed_auctions/closed_auction "
    "where $i/price > 40 return $i/price)",
    "Q8": "for $p in /site/people/person return fn:count("
    "/site/closed_auctions/closed_auction[buyer/@person = $p/@id])",
    "Q10": "for $c in /site/categories/category for $p in /site/people/person "
    "where $p/profile/interest/@category = $c/@id return $p/name",
    "Q13": "/site/regions/australia/item/name",
    "Q15": "/site/closed_auctions/closed_auction/annotation/description/text/text()",
    "Q17": "for $p in /site/people/person where fn:empty($p/profile) return $p/name",
    "Q19": "for $i in /site/regions/descendant::item "
    "order by $i/location/text() return $i/name",
}

#: The one parameterized class: closed-auction prices above a bound value.
PRICE_QUERY = (
    "declare variable $lo as xs:decimal external; "
    "/site/closed_auctions/closed_auction/price[. > $lo]"
)


def rng_for(seed: int, *tags: object) -> random.Random:
    """An independent stream per (seed, purpose), so inputs never shift
    when another part of the harness draws more or fewer numbers."""
    return random.Random(":".join(str(part) for part in (seed, *tags)))


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


def _phrase(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _spread(rng: random.Random, count: int, values: tuple) -> list:
    """``count`` draws that cycle through ``values``, in seeded order.

    Every structural choice (how many bidders, who has a profile, which
    price is expensive) is drawn this way, so a seed moves *which* entity
    gets which shape but never the node count or the result sizes: runs
    with different seeds stay comparable.
    """
    draws = [values[index % len(values)] for index in range(count)]
    rng.shuffle(draws)
    return draws


def _references(rng: random.Random, count: int, targets: int) -> list[int]:
    """``count`` references into ``range(targets)``, in seeded order.

    How many references a target receives cycles through 1, 0, 2, 1 — some
    people buy nothing, some twice — and only *which* target gets which
    share is seeded, so join fan-outs do not move with the seed either.
    """
    order = list(range(targets))
    rng.shuffle(order)
    references: list[int] = []
    while len(references) < count:
        for position, target in enumerate(order):
            references.extend([target] * (1, 0, 2, 1)[position % 4])
    references = references[:count]
    rng.shuffle(references)
    return references


def _prices(rng: random.Random, count: int) -> list[str]:
    """Mostly below 500, one in eight above."""
    expensive = _spread(rng, count, (True,) + (False,) * 7)
    return [
        f"{rng.uniform(500.01, 5000.0):.2f}" if flag else f"{rng.uniform(1.0, 499.99):.2f}"
        for flag in expensive
    ]


def xmark_xml(scale: float, seed: int, tag: str = "xmark") -> str:
    """XMark-like auction site as XML *text* (the form ``Session.register`` takes)."""
    rng = rng_for(seed, tag, scale)
    categories = _scaled(_BASE["categories"], scale)
    per_region = _scaled(_BASE["items_per_region"], scale)
    people = _scaled(_BASE["people"], scale)
    items = per_region * len(_REGIONS)
    opened = _scaled(_BASE["open"], scale)
    closed = _scaled(_BASE["closed"], scale)
    incategories = _spread(rng, items, (1, 2, 3))
    category_of = iter(_references(rng, sum(incategories), categories))
    out: list[str] = ["<site><regions>"]
    item = 0
    for region in _REGIONS:
        out.append(f"<{region}>")
        for _ in range(per_region):
            out.append(
                f'<item id="item{item}"><location>{region.capitalize()}</location>'
                f"<quantity>{rng.randint(1, 10)}</quantity><name>{_phrase(rng, 3)}</name>"
                f"<payment>Creditcard</payment>"
                f"<description><text>{_phrase(rng, 8)}</text></description>"
            )
            for _ in range(incategories[item]):
                out.append(f'<incategory category="category{next(category_of)}"/>')
            out.append("</item>")
            item += 1
        out.append(f"</{region}>")
    out.append("</regions><categories>")
    for index in range(categories):
        out.append(
            f'<category id="category{index}"><name>{_phrase(rng, 2)}</name>'
            f"<description><text>{_phrase(rng, 6)}</text></description></category>"
        )
    out.append("</categories><catgraph/><people>")
    profiled = _spread(rng, people, (True, False, False, True, False))
    interest = iter(_references(rng, sum(profiled), categories))
    for index in range(people):
        name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
        out.append(
            f'<person id="person{index}"><name>{name}</name>'
            f"<emailaddress>mailto:{name.replace(' ', '.').lower()}@example.org</emailaddress>"
        )
        if profiled[index]:
            out.append(
                f'<profile income="{rng.uniform(10000, 100000):.2f}">'
                f'<interest category="category{next(interest)}"/>'
                f"<education>Graduate School</education></profile>"
            )
        out.append("</person>")
    out.append("</people><open_auctions>")
    bidders = _spread(rng, opened, tuple(range(7)))
    initial, current = _prices(rng, opened), _prices(rng, opened)
    bidding = iter(_references(rng, sum(bidders), people))
    offered, offering = _references(rng, opened, items), _references(rng, opened, people)
    for index in range(opened):
        out.append(f'<open_auction id="open_auction{index}"><initial>{initial[index]}</initial>')
        for _ in range(bidders[index]):
            out.append(
                f"<bidder><time>{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}</time>"
                f'<personref person="person{next(bidding)}"/>'
                f"<increase>{rng.uniform(1.5, 60.0):.2f}</increase></bidder>"
            )
        out.append(
            f"<current>{current[index]}</current>"
            f'<itemref item="item{offered[index]}"/>'
            f'<seller person="person{offering[index]}"/>'
            f"<quantity>{rng.randint(1, 5)}</quantity><type>Regular</type></open_auction>"
        )
    out.append("</open_auctions><closed_auctions>")
    sold = _prices(rng, closed)
    sellers, buyers, authors = (_references(rng, closed, people) for _ in range(3))
    sold_items = _references(rng, closed, items)
    for index in range(closed):
        out.append(
            f'<closed_auction id="closed_auction{index}">'
            f'<seller person="person{sellers[index]}"/>'
            f'<buyer person="person{buyers[index]}"/>'
            f'<itemref item="item{sold_items[index]}"/>'
            f"<price>{sold[index]}</price>"
            f"<date>{rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/{rng.randint(1999, 2008)}</date>"
            f"<quantity>{rng.randint(1, 5)}</quantity><type>Regular</type>"
            f'<annotation><author person="person{authors[index]}"/>'
            f"<description><text>{_phrase(rng, 5)}</text></description></annotation>"
            f"</closed_auction>"
        )
    out.append("</closed_auctions></site>")
    return "".join(out)


def nested_xml(seed: int, depth: int = 40, chains: int = 12) -> str:
    """``<a>`` holding ``chains`` ``<b>`` elements, each the head of a
    ``depth``-deep chain of ``<c>`` — the document behind the ``pathN``
    classes, whose cost is query size, not data size."""
    rng = rng_for(seed, "nested")
    out = ["<a>"]
    for _ in range(chains):
        out.append("<b>" + "<c>" * depth + str(rng.randint(0, 999)) + "</c>" * depth + "</b>")
    out.append("</a>")
    return "".join(out)


def path_query(steps: int) -> str:
    """``for $x in doc("nested.xml")//b return $x/c/c/…`` with ``steps`` child steps."""
    return f'for $x in doc("{NESTED_URI}")//b return $x' + "/c" * steps


def price_bindings(seed: int, count: int) -> list[dict[str, float]]:
    """Seeded ``$lo`` values spread over the cheap price band."""
    rng = rng_for(seed, "bindings")
    return [{"lo": round(rng.uniform(5.0, 495.0), 2)} for _ in range(count)]


def poisson_schedule(seed: int, rate_per_s: float, seconds: float, classes: int) -> list[tuple[float, int]]:
    """Open-loop arrivals: ``(due offset in seconds, class index)`` pairs.

    Exponential gaps; classes come in seeded permutations of all of them, so
    every class gets the same number of samples (to within one).
    """
    rng = rng_for(seed, "arrivals", rate_per_s)
    due, schedule, block = 0.0, [], []
    while True:
        due += rng.expovariate(rate_per_s)
        if due >= seconds:
            return schedule
        if not block:
            block = list(range(classes))
            rng.shuffle(block)
        schedule.append((due, block.pop()))


def digest(*parts: object) -> str:
    """Short stable digest of generated inputs or expected results."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]
