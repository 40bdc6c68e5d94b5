"""Named fixture graphs, the published generator orders on them, and the
text formats for graphs and orders.

Fixture vertex/edge numbering follows the labels printed on the figures, so
that edge index j corresponds to edge e_{j+1} of the relevant display.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .graphs import TWO_K2, Graph, expand_vertex, duplicate_vertex, parse_graph
from .linquot import GeneratorOrdering, ordering_from_multisets
from .power_ideals import PowerGenerators, edge_ideal, power_generators

# Pentagon on a, b, c, d, e with edges ab, bc, cd, de, ea.
def c5() -> Graph:
    return Graph(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        labels=("a", "b", "c", "d", "e"),
    )


# Pentagon z-p-a-b-q plus the vertex x adjacent to a, b, z.
# Vertices a, b, p, q, x, z; edges ab, ax, bx, ap, bq, pz, xz, qz.
def fig2() -> Graph:
    return Graph(
        6,
        [(0, 1), (0, 4), (1, 4), (0, 2), (1, 3), (2, 5), (4, 5), (3, 5)],
        labels=("a", "b", "p", "q", "x", "z"),
    )


# Pentagon z-p-a-b-q plus the inner vertex x adjacent to a, b, p, q.
# Vertices a, b, p, q, x, z; edges ab, ap, ax, bx, bq, xp, xq, pz, qz.
def fig4() -> Graph:
    return Graph(
        6,
        [
            (0, 1),
            (0, 2),
            (0, 4),
            (1, 4),
            (1, 3),
            (2, 4),
            (3, 4),
            (2, 5),
            (3, 5),
        ],
        labels=("a", "b", "p", "q", "x", "z"),
    )


# The 7-vertex graph of Figure 5: fig4 with the vertex z duplicated.
def gamma7() -> Graph:
    return duplicate_vertex(fig4(), 5)


def two_k2() -> Graph:
    return TWO_K2.with_labels(("a", "b", "c", "d"))


def c5k(n: int) -> Graph:
    """Pentagon plus a central K_n: fig2 with x expanded n-1 times."""
    if n < 1:
        raise ValueError("clique size must be >= 1")
    g = fig2()
    for _ in range(n - 1):
        g = expand_vertex(g, 4)
    labels = ["a", "b", "p", "q", "x1", "z"] + [f"x{i}" for i in range(2, n + 1)]
    return g.with_labels(labels)


_C5K_RE = re.compile(r"^c5k(\d+)$")


def named_graph(name: str) -> Graph:
    key = name.lower()
    m = _C5K_RE.match(key)
    if m:
        return c5k(int(m.group(1)))
    builders = {
        "c5": c5,
        "fig2": fig2,
        "fig4": fig4,
        "gamma7": gamma7,
        "2k2": two_k2,
    }
    if key not in builders:
        known = ", ".join(builders)
        raise ValueError(f"unknown fixture {name!r} (fixtures: {known}, c5k<n>)")
    return builders[key]()


def resolve_graph(source: str) -> Graph:
    """Resolve a CLI graph argument: a graph file path or a built-in fixture name."""
    p = Path(source)
    if p.is_file():
        return parse_graph(p.read_text())
    return named_graph(source)


# The verified order of the 15 generators of the pentagon's square:
# e1^2, e1e2, e2^2, e1e3, e2e3, e3^2, e2e5, e1e5, e1e4, e2e4, e3e4, e3e5,
# e4e5, e5^2, e4^2 (edge j below is e_{j+1}).
ISTANBUL = [
    (0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (1, 4), (0, 4),
    (0, 3), (1, 3), (2, 3), (2, 4), (3, 4), (4, 4), (3, 3),
]

# Alternate order of the same generators with pure powers
# e1^2 > e5^2 > e2^2 > e3^2 > e4^2.
ISTANBUL_ALT = [
    (0, 0), (0, 4), (0, 1), (1, 4), (4, 4), (1, 1), (0, 2), (0, 3),
    (1, 2), (3, 4), (1, 3), (2, 4), (2, 3), (2, 2), (3, 3),
]

# The 34-generator order on the square of fig2.  Position 18 is (ax)(qz) =
# e2e8; its printed label elsewhere collides with the e3e8 = e5e7 coincidence,
# so the multiset follows the printed monomial.
FIG2_SQUARE = [
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 2), (2, 4),
    (2, 3), (1, 4), (3, 4), (0, 5), (0, 7), (0, 6), (3, 6), (4, 6),
    (2, 5), (1, 7), (1, 6), (2, 6), (3, 5), (4, 7), (3, 7), (4, 5),
    (5, 6), (5, 7), (6, 7), (3, 3), (1, 1), (2, 2), (4, 4), (5, 5),
    (6, 6), (7, 7),
]

# The verified order of the 42 generators of fig4's square.  The generators
# whose only factorizations use a pz or qz edge cannot all trail the ab-block:
# (ab)(pz) needs a q-witness and (ab)(qz) a p-witness, available only from
# apqx/abpq/apqz-type generators, so those are interleaved ahead of them.
FIG4_SQUARE = [
    (0, 0), (0, 2), (0, 3), (0, 1), (0, 5), (0, 4), (0, 6), (1, 2),
    (1, 6), (1, 4), (0, 7), (0, 8), (1, 8), (1, 5), (1, 7), (2, 7),
    (2, 3), (2, 6), (2, 8), (2, 5), (3, 7), (3, 8), (3, 6), (3, 4),
    (3, 5), (4, 8), (4, 5), (4, 7), (4, 6), (5, 8), (5, 7), (5, 6),
    (6, 8), (7, 8), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
    (7, 7), (8, 8),
]

_BUILTIN_ORDERS: dict[str, tuple[str, list[tuple[int, int]]]] = {
    "istanbul": ("c5", ISTANBUL),
    "istanbul-alt": ("c5", ISTANBUL_ALT),
    "fig2": ("fig2", FIG2_SQUARE),
    "fig4": ("fig4", FIG4_SQUARE),
}


def builtin_order(name: str, pg: PowerGenerators) -> GeneratorOrdering:
    """Resolve a built-in order name against the enumerated generators of a square."""
    if name.lower() not in _BUILTIN_ORDERS:
        raise ValueError(f"unknown built-in order {name!r}")
    fixture, multisets = _BUILTIN_ORDERS[name.lower()]
    if pg.q != 2:
        raise ValueError(f"built-in order {name!r} is for q=2, got q={pg.q}")
    if pg.ideal.graph != named_graph(fixture):
        raise ValueError(f"built-in order {name!r} indexes the edge sequence of the {fixture} fixture")
    return ordering_from_multisets(pg, multisets)


def parse_order_file(text: str) -> list[tuple[int, ...]]:
    """Order file: one generator per line as whitespace-separated edge indices."""
    out: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(tuple(int(t) for t in line.split()))
        except ValueError:
            raise ValueError(f"line {lineno}: expected edge indices, got {raw!r}")
    return out


def format_order(o: GeneratorOrdering) -> str:
    names = np.array(list(map(str, range(o.base.ideal.nedges))), dtype=object)
    return "\n".join(map(" ".join, names[o.base.least[list(o.sequence)]].tolist())) + "\n"


def resolve_order(source: str, g: Graph) -> GeneratorOrdering:
    """Resolve a CLI order argument on I(g)^q: ``builtin:<name>`` (each a square)
    or an order file path, whose q is the size of its first multiset (1 for an
    empty file)."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        return builtin_order(name, power_generators(edge_ideal(g), 2))
    p = Path(source)
    if not p.is_file():
        raise ValueError(f"order file {source!r} not found")
    multisets = parse_order_file(p.read_text())
    q = len(multisets[0]) if multisets else 1
    return ordering_from_multisets(power_generators(edge_ideal(g), q), multisets)
