"""Isomorph-free enumeration of small graphs by canonical deletion.  Bit i of an
edge mask is pair i of ``combinations(range(n), 2)``, so vertex 0's pairs are
the lowest n - 1 bits and the bits above them the mask of G - 0; hence the
exact deletion rule: the least mask over all relabelings is M(G) = min over x
of M(G - x) << (n - 1) | c_x, with c_x the least image of x's neighbours under
the relabelings taking G - x to M(G - x).  Both stages run on numpy arrays:
the tables on k vertices come from one product of k! relabelings by C class
minima (720 x 156 images at k = 6) and hold 2^C(k,2) + (k! + C) x 2^k entries;
then all children on k + 1 vertices are decided in one array pass."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .graphs import Graph

# n = 8 builds: 12,346 classes, ascending, in 0.3-0.4 s at 161 MB max RSS (2-core
# x86, Python 3.11).  The limit stays until n = 8 has checks of its own (brute-force minima).
MAX_ENUM_N = 7


def all_labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _pair_index(k: int) -> np.ndarray:
    """idx[u, v] = idx[v, u]: the edge-mask bit of the pair {u, v}, u != v < k."""
    idx, (u, v) = np.zeros((k, k), dtype=np.intp), np.triu_indices(k, 1)  # combinations order
    idx[u, v] = idx[v, u] = np.arange(len(u))
    return idx


def _relabel_tables(classes: np.ndarray, k: int) -> tuple:
    """From the ascending class minima on k vertices put through the k!
    relabelings p (v to p[v], in ``permutations`` order): cls_of[L], the
    position in ``classes`` of the class of edge mask L; perm_of[L], the first p
    taking that class minimum to L; pre[p, S], the vertex set {v : p[v] in S};
    orbit[c, S], the least image of vertex set S under Aut(classes[c])."""
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    u, v = np.triu_indices(k, 1)
    images = (1 << _pair_index(k)[perms[:, u], perms[:, v]]) @ (classes[:, None] >> np.arange(len(u)) & 1).T
    first = np.full(1 << len(u), images.size)  # every mask is an image of its class minimum
    np.minimum.at(first, images.ravel(), np.arange(images.size))
    perm_of, cls_of = np.divmod(first, len(classes))
    set_bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    pre = (set_bits[:, perms] @ (1 << np.arange(k))).T
    cs, ps = np.nonzero((images == classes).T)  # the automorphisms, class by class
    image = set_bits @ (1 << perms[ps].T)
    orbit = np.minimum.reduceat(image, np.searchsorted(cs, np.arange(len(classes))), axis=1).T
    return classes, cls_of, perm_of, pre, orbit


def _least(masks: np.ndarray, m: int, tables: tuple) -> np.ndarray:
    """The least edge mask of each graph on m vertices in ``masks`` by the
    deletion rule, on the tables of the classes on m - 1 vertices."""
    classes, cls_of, perm_of, pre, orbit = tables
    keep = np.array([[v for v in range(m) if v != x] for x in range(m)], dtype=np.intp)  # keep[x]: G - x
    (a, b), idx, x = np.triu_indices(m - 1, 1), _pair_index(m), np.arange(m)[:, None]
    # The bits times a fixed selection: column x is G - x, column m + x the neighbours of x.
    select = np.zeros((m * (m - 1) // 2, 2 * m), dtype=np.int64)
    select[idx[keep[:, a], keep[:, b]], x] = 1 << np.arange(len(a))
    select[idx[x, keep], m + x] = 1 << np.arange(m - 1)
    subs, nbs = np.hsplit((masks[:, None] >> np.arange(len(select)) & 1) @ select, 2)
    at = cls_of[subs]
    top = at.min(1)
    # c_x on ties: x's neighbours taken to the class minimum by p's inverse
    codes = orbit[top[:, None], pre[perm_of[subs], nbs]]
    return classes[top] << m - 1 | np.where(at == top[:, None], codes, 1 << m).min(1)


def _minima(n: int) -> np.ndarray:
    """The edge masks of the class minima on n <= MAX_ENUM_N vertices, ascending."""
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration is desk-scale only (n <= {MAX_ENUM_N})")
    if n < 2:
        return np.zeros(1, dtype=np.int64)
    classes = _minima(n - 1)
    tables = _relabel_tables(classes, n - 1)  # afresh on every call
    children = (classes[:, None] << n - 1 | np.arange(1 << n - 1)).ravel()
    return children[_least(children, n, tables) == children]


def canonical_form(g: Graph) -> int:
    """The least edge mask of g over all relabelings, by the deletion rule on
    fresh tables of the minima on g.n - 1 vertices; ValueError past MAX_ENUM_N."""
    if g.n > MAX_ENUM_N:
        raise ValueError(f"enumeration is desk-scale only (n <= {MAX_ENUM_N})")
    if g.n < 2:
        return 0
    mask = sum(1 << i for i, e in enumerate(combinations(range(g.n), 2)) if e in g.edges)
    return int(_least(np.array([mask]), g.n, _relabel_tables(_minima(g.n - 1), g.n - 1))[0])


def nonisomorphic_graphs(n: int):
    """The least labeled graph of each class on n <= MAX_ENUM_N vertices,
    ascending: stage by stage, the children base << (m - 1) | nbhd of the minima
    on m - 1 vertices that the deletion rule reads as their own least mask."""
    pairs = list(combinations(range(n), 2))
    for mask in _minima(n).tolist():
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
