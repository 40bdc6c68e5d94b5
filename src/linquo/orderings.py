"""Order constructions on power generators: the recursive pure-power
("efficient") orders, admissible edge orders, and the compatible orders built
from an admissible edge order plus a square order.

Both recursive constructions end in one lift routine, ``_lift``: given an
order u_1 > ... > u_r of the generators of I^q and an edge sequence
f_1, ..., f_s, the next power is ordered u_1 f_1 > ... > u_r f_1 > u_1 f_2 >
... > u_r f_s with a product omitted when it already appeared.  Each step is
``power_ideals.next_level`` along the sequence.  It skips f_a u when an edge f
of a factorization of u precedes f_a, since f_a u = f (f_a u / f) came first:
f is the earliest edge of u's least factorization in the first step, and the
edge that formed u in each later one.  ``PowerGenerators.locate`` maps the
rows to generator indices.  The constructions differ only in where the edge
sequence comes from.  They only build; the caller verifies.

For q >= 3 a lifted order puts the pure power e_j^q in e_j's block: only
e_j^(q-1) e_j multiplies out to it.  Its pure powers thus appear in the edge
order it was lifted along, so the pure-power lift of I^q to I^(q+1) is the
compatible order of I^(q+1), and a chain of pure-power lifts is one lift.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import Graph
from .linquot import GeneratorOrdering, OrderingPreconditionError
from .power_ideals import next_level, power_generators


def _lift(
    o: GeneratorOrdering, edges: Sequence[int], target_q: int, provenance: str
) -> GeneratorOrdering:
    """Multiply the order ``o`` up to the power ``target_q`` along the edge
    indices ``edges``."""
    ideal = o.base.ideal
    pg = power_generators(ideal, target_q)  # refuses an over-cap power before any work
    erows = ideal.rows[list(edges)].astype(np.min_scalar_type(target_q))
    rows = o.exps().astype(erows.dtype)
    pos = np.full(ideal.nedges, len(edges))  # an edge off the sequence bounds nothing
    pos[list(edges)] = np.arange(len(edges))
    lead = pos[o.base.least[list(o.sequence)]].min(1)
    for _ in range(o.base.q, target_q):
        rows, lead, _ = next_level(erows, rows, lead)
    return GeneratorOrdering(pg, tuple(pg.locate(rows)), provenance)


def pure_power_edge_sequence(o: GeneratorOrdering) -> tuple[int, ...]:
    """Edge indices in the order their pure powers appear in the ordering:
    each pure power's generator index maps to its edge, and the walk over
    ``o.sequence`` keeps the indices in that map."""
    pg = o.base
    edge_of = dict(zip(pg.locate(pg.q * pg.ideal.rows), range(pg.ideal.nedges)))
    return tuple(edge_of[i] for i in o.sequence if i in edge_of)


def efficient_ordering(o: GeneratorOrdering, target_s: int) -> GeneratorOrdering:
    """Recursive pure-power construction from a base order of I^q up to I^s.

    The edge sequence is read off the appearance order of the pure powers in
    the base order.  target_s == q returns the base order unchanged.
    """
    pg = o.base
    if target_s < pg.q:
        raise ValueError(f"target power {target_s} below base power {pg.q}")
    if target_s == pg.q:
        return o
    return _lift(o, pure_power_edge_sequence(o), target_s, "efficient")


def admissible_order(g: Graph) -> tuple[int, ...]:
    """The edges in lexicographic order, which peels the vertices in label
    order: each vertex's edges to larger vertices, in ascending order.

    It is admissible: with every edge written ab, a < b, a disjoint pair ab
    before cd has a < c, so every edge at a, being (x, a) with x < a or
    (a, y), comes before cd.
    """
    return tuple(sorted(range(len(g.edges)), key=g.edges.__getitem__))


def is_admissible(g: Graph, eo: Sequence[int]) -> bool:
    """Check the disjoint-pair condition of an admissible edge ordering: for
    every disjoint pair ab > cd, all edges at a, or all edges at b, come
    before cd.

    One walk checks each edge against those before it.  A vertex is finished
    once all its edges are walked, and a walked edge is open while neither end
    is finished.  Placing cd fails exactly when an open edge ab is disjoint
    from cd: then neither all edges at a nor all edges at b precede cd.
    """
    if sorted(eo) != list(range(len(g.edges))):
        raise ValueError("edge ordering must be a permutation of the edges")
    at = [0] * g.n  # bit j of at[v] is set iff v is an end of edge j
    for j, (u, v) in enumerate(g.edges):
        at[u] |= 1 << j
        at[v] |= 1 << j
    placed = open_ = 0
    for j in eo:
        c, d = g.edges[j]
        if open_ & ~(at[c] | at[d]):
            return False
        placed |= 1 << j
        open_ |= 1 << j
        for v in (c, d):
            if not at[v] & ~placed:
                open_ &= ~at[v]
    return True


def auto_edge_order(g: Graph, o2: GeneratorOrdering) -> tuple[tuple[int, ...], str]:
    """The edge order for ``compatible_orders`` when none is given.

    The pure-power sequence of ``o2`` when it is admissible, the peel order
    otherwise; returned with its source, ``"pure-powers"`` or ``"peel"``.
    """
    eo = pure_power_edge_sequence(o2)
    if is_admissible(g, eo):
        return eo, "pure-powers"
    return admissible_order(g), "peel"


def compatible_orders(
    g: Graph, eo: Sequence[int], o2: GeneratorOrdering, target_q: int
) -> GeneratorOrdering:
    """Build the compatible order for I^target_q from (edge order, square order).

    The caller verifies the square order and the result; the edge order must
    be admissible.  The recursion multiplies block-by-block along the edge
    order with first-appearance dedup.  target_q == 2 returns the square.
    """
    pg2 = o2.base
    if pg2.ideal.graph != g:
        raise ValueError("square order belongs to another graph or edge sequence")
    if pg2.q != 2:
        raise ValueError("the base order must order the generators of the square")
    if target_q < 2:
        raise ValueError("target power must be >= 2")
    if not is_admissible(g, eo):
        raise OrderingPreconditionError(
            "compatible_orders: the edge ordering is not admissible"
        )
    if target_q == 2:
        return o2
    return _lift(o2, eo, target_q, "compatible")
