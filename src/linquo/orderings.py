"""Order constructions on power generators: the recursive pure-power
("efficient") orders, admissible edge orders, and the compatible orders built
from an admissible edge order plus a square order.

Both recursive constructions end in one lift routine, ``_lift``: given an
order u_1 > ... > u_r of the generators of I^q and an edge sequence
f_1, ..., f_s, the next power is ordered u_1 f_1 > ... > u_r f_1 > u_1 f_2 >
... > u_r f_s with a product omitted when it already appeared: the level
steps of ``power_ideals.levels`` with the edges in sequence order.  Their
bound skips f_a u when an edge f of a factorization of u precedes f_a, since
f_a u = f (f_a u / f) came first, so the first step bounds u by the earliest
edge of its least factorization.  ``PowerGenerators.locate`` maps the rows
to generator indices.  The constructions differ only in where the edge
sequence comes from: the pure powers in order, read off ``least``, or an
admissible edge order.  They only build; the caller verifies.  Each check has
one owner: ``_lift`` the target power against the base power,
``require_square`` the square order and ``is_admissible`` the edge order.

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
from .power_ideals import levels, power_generators


def _lift(
    o: GeneratorOrdering, edges: Sequence[int], target_q: int, provenance: str
) -> GeneratorOrdering:
    """Multiply the order ``o`` up to the power ``target_q`` along ``edges``, a
    permutation of the edge indices.  A target below the base power raises
    ValueError, and the base power returns ``o`` itself."""
    if target_q < o.base.q:
        raise ValueError(f"target power {target_q} below base power {o.base.q}")
    if target_q == o.base.q:
        return o
    pg = power_generators(o.base.ideal, target_q)
    pos = np.empty(len(edges), dtype=np.int64)  # each edge's position in the sequence
    pos[list(edges)] = np.arange(len(edges))
    lead = pos[o.base.least[list(o.sequence)]].min(1)
    rows = levels(o.base.ideal.rows[list(edges)], o.exps(), lead, target_q, target_q - o.base.q)[0]
    return GeneratorOrdering(pg, tuple(pg.locate(rows)), provenance)


def pure_power_edge_sequence(o: GeneratorOrdering) -> tuple[int, ...]:
    """Edge indices in the order their pure powers appear in ``o``: e_j^q has
    no factorization but (j, ..., j), so its least one starts and ends on j."""
    least = o.base.least[list(o.sequence)]
    return tuple(least[least[:, 0] == least[:, -1], 0].tolist())


def efficient_ordering(o: GeneratorOrdering, target_s: int) -> GeneratorOrdering:
    """Recursive pure-power construction from a base order of I^q up to I^s.

    The edge sequence is read off the appearance order of the pure powers in
    the base order; ``_lift`` owns the rule on ``target_s`` against q.
    """
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


def require_square(g: Graph, o2: GeneratorOrdering) -> None:
    """Raise ValueError unless ``o2`` orders the generators of I(g)^2, on g's
    edge sequence."""
    if o2.base.ideal.graph != g:
        raise ValueError("square order belongs to another graph or edge sequence")
    if o2.base.q != 2:
        raise ValueError("the base order must order the generators of the square")


def compatible_orders(
    g: Graph, eo: Sequence[int], o2: GeneratorOrdering, target_q: int
) -> GeneratorOrdering:
    """Build the compatible order for I^target_q from (edge order, square order).

    ``require_square`` checks the square order, ``is_admissible`` the edge
    order and ``_lift`` the target power; the caller verifies the square and
    the result.  The recursion multiplies block-by-block along the edge order
    with first-appearance dedup.  target_q == 2 returns the square.
    """
    require_square(g, o2)
    if not is_admissible(g, eo):
        raise OrderingPreconditionError(
            "compatible_orders: the edge ordering is not admissible"
        )
    return _lift(o2, eo, target_q, "compatible")
