"""Isomorph-free enumeration of small graphs by canonical deletion.  Bit i of
an edge mask is pair i of ``combinations(range(n), 2)``, so vertex 0's pairs
are the lowest n - 1 bits and the bits above them the mask of G - 0; hence the
exact deletion rule: the least mask over all relabelings is M(G) = min over x
of M(G - x) << (n - 1) | c_x, with c_x the least image of x's neighbours under
the relabelings taking G - x to M(G - x)."""

from __future__ import annotations

from itertools import combinations, permutations

from .graphs import Graph

MAX_ENUM_N = 7  # n = 8 needs the tables on 7 vertices: 2^21 masks, 1,044 x 5,040 relabelings


def all_labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _pivots(mask: int, m: int):
    """For x = 0..m-1, the edge mask of G - x and x's neighbours in it, both
    relabeled in order; for x > 0, G - x is vertex 0 over (G - 0) - (x - 1)."""
    low = mask % (1 << m - 1)  # vertex 0's pairs
    yield mask >> m - 1, low
    if m > 1:
        for x, (sub, nb) in enumerate(_pivots(mask >> m - 1, m - 1), 1):
            yield sub << m - 2 | low >> x << x - 1 | low % (1 << x - 1), nb << 1 | low >> x - 1 & 1


def _relabel_tables(classes: list[int], k: int) -> tuple:
    """From the class minima R on k vertices put through the k! relabelings p:
    least[L], the class minimum of each edge mask L; sigma[L], a p taking it to
    L (v to p[v]); orbit[R][S], the least image of vertex bitmask S under Aut(R)."""
    pairs = list(combinations(range(k), 2))
    least, sigma = [None] * (1 << len(pairs)), [None] * (1 << len(pairs))
    edges, orbit = [(r, [i for i in range(len(pairs)) if r >> i & 1]) for r in classes], {}
    for p in permutations(range(k)):
        bits = [1 << pairs.index(tuple(sorted((p[u], p[v])))) for u, v in pairs]
        for r, es in edges:
            mask = sum(map(bits.__getitem__, es))
            if least[mask] is None:
                least[mask], sigma[mask] = r, p
            if mask == r:  # p is an automorphism: fold in its image of every S
                image = [0]
                for v in p:
                    image += [s | 1 << v for s in image]
                orbit[r] = list(map(min, orbit.get(r, image), image))
    return least, sigma, orbit


def _least(mask: int, m: int, tables: tuple, own: int = -1) -> int:
    """The least edge mask of the graph on m vertices of edge mask ``mask`` by
    the deletion rule, or -1 at the first G - x that reads below own's top bits."""
    least, sigma, orbit = tables
    subs = []
    for sub, nb in _pivots(mask, m):
        subs.append((least[sub], sigma[sub], nb))
        if least[sub] < own >> m - 1:
            return -1
    top = min(subs)[0]
    # c_x on ties: x's neighbours taken to the class minimum by p's inverse
    codes = (sum(1 << v for v, w in enumerate(p) if nb >> w & 1) for r, p, nb in subs if r == top)
    return top << m - 1 | min(map(orbit[top].__getitem__, codes))


def _minima(n: int) -> list[int]:
    """The edge masks of the class minima on n <= MAX_ENUM_N vertices, ascending."""
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration is desk-scale only (n <= {MAX_ENUM_N})")
    if n < 2:
        return [0]
    classes = _minima(n - 1)
    tables = _relabel_tables(classes, n - 1)  # afresh on every call
    children = (c for base in classes for c in range(base << n - 1, base + 1 << n - 1))
    return [c for c in children if _least(c, n, tables, c) == c]


def canonical_form(g: Graph) -> int:
    """The least edge mask of g over all relabelings, by the deletion rule (exact:
    vertex 0's pairs are the lowest bits, the bits above them the mask of g - 0)
    on fresh tables of the minima on g.n - 1 vertices; ValueError past MAX_ENUM_N."""
    if g.n > MAX_ENUM_N:
        raise ValueError(f"enumeration is desk-scale only (n <= {MAX_ENUM_N})")
    mask = sum(1 << i for i, e in enumerate(combinations(range(g.n), 2)) if e in g.edges)
    return _least(mask, g.n, _relabel_tables(_minima(g.n - 1), g.n - 1)) if g.n > 1 else 0


def nonisomorphic_graphs(n: int):
    """The least labeled graph of each class on n <= MAX_ENUM_N vertices, ascending.
    The deletion rule is exact (vertex 0's pairs are a mask's lowest bits, the
    bits above them the mask of G - 0), so the minima on m vertices are the
    children base << (m - 1) | nbhd of those on m - 1 that it reads as their own
    least mask: rejected at the first G - x below base, c_x read only on ties."""
    pairs = list(combinations(range(n), 2))
    for mask in _minima(n):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
