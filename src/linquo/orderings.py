"""Order constructions on power generators: the recursive pure-power
("efficient") orders, admissible edge orders, and the compatible orders built
from an admissible edge order plus a square order.

Both recursive constructions end in one lift routine, ``_lift``: given an
order u_1 > ... > u_r of the generators of I^q and an edge sequence
f_1, ..., f_s, the next power is ordered u_1 f_1 > ... > u_r f_1 > u_1 f_2 >
... > u_r f_s with a product omitted when it already appeared.  A step adds
each edge row to the current rows and keeps first appearances, keyed by the
bytes of each row; the final rows are mapped to generator indices with
``PowerGenerators.locate``.  The constructions differ only in where the edge
sequence comes from.  They only build; the caller verifies.

For q >= 3 a lifted order puts the pure power e_j^q in e_j's block: only
e_j^(q-1) e_j multiplies out to it.  Its pure powers thus appear in the edge
order it was lifted along, so the pure-power lift of I^q to I^(q+1) is the
compatible order of I^(q+1), and a chain of pure-power lifts is one lift.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .graphs import Graph
from .linquot import GeneratorOrdering, OrderingPreconditionError
from .power_ideals import power_generators, row_keys


def _lift(
    o: GeneratorOrdering, edges: Sequence[int], target_q: int, provenance: str
) -> GeneratorOrdering:
    """Multiply the order ``o`` up to the power ``target_q`` along the edge
    indices ``edges``."""
    ideal = o.base.ideal
    pg = power_generators(ideal, target_q)  # refuses an over-cap power before any work
    rows = o.exps()
    erows = ideal.rows[list(edges)]
    for _ in range(o.base.q, target_q):
        # One dict per step, fed one edge block of keys at a time.
        keys = dict.fromkeys(chain.from_iterable(row_keys(rows + e) for e in erows))
        rows = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(len(keys), ideal.nvars)
    return GeneratorOrdering(pg, tuple(pg.locate(rows)), provenance)


def pure_power_edge_sequence(o: GeneratorOrdering) -> tuple[int, ...]:
    """Edge indices in the order their pure powers appear in the ordering."""
    pg = o.base
    pos = [0] * pg.count
    for k, i in enumerate(o.sequence):
        pos[i] = k
    pure = pg.locate(pg.q * pg.ideal.rows)
    return tuple(sorted(range(pg.ideal.nedges), key=lambda j: pos[pure[j]]))


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
    """Check the disjoint-pair condition of an admissible edge ordering.

    For every disjoint pair ab > cd, all edges at a, or all edges at b, must
    come before cd.
    """
    s = len(g.edges)
    if sorted(eo) != list(range(s)):
        raise ValueError("edge ordering must be a permutation of the edges")
    pos = [0] * s
    for k, j in enumerate(eo):
        pos[j] = k
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        incident[u].append(j)
        incident[v].append(j)
    last_at = [max((pos[j] for j in incident[v]), default=-1) for v in range(g.n)]
    for j1, j2 in combinations(range(s), 2):
        e1, e2 = g.edges[eo[j1]], g.edges[eo[j2]]
        if set(e1) & set(e2):
            continue
        a, b = e1
        if last_at[a] > j2 and last_at[b] > j2:
            return False
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
