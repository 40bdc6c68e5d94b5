"""Finite simple graphs: classifiers, small-pattern detection, duplication
and expansion constructions.

Vertices are dense integers 0..n-1.  Edges are unordered pairs stored as
``(u, v)`` with ``u < v``; the input edge sequence is preserved because edge
ideals downstream key their generators by it.  Optional ``labels`` name the
vertices for rendering only.  ``Graph.nbrs``, one int bitmask per vertex
built with the edge sequence, is the one adjacency: every reader uses it,
the classifiers and the matching number's branch and bound alike.

Each classifier is its definition: gapfree is "no induced 2K2", tested by
the same induced-pattern search as the cricket, diamond, C4 and C5, and
chordality is the deletion of simplicial vertices down to the empty graph.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Sequence


class Graph:
    """Finite simple graph on vertices 0..n-1 with an ordered edge sequence."""

    __slots__ = ("n", "edges", "labels", "nbrs")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized: list[tuple[int, int]] = []
        nbrs = [0] * n  # bit u of nbrs[v] is set iff uv is an edge
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n-1}")
            if nbrs[u] >> v & 1:
                continue
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
            normalized.append((u, v) if u < v else (v, u))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.n = n
        self.edges = tuple(normalized)
        self.labels = labels
        self.nbrs = tuple(nbrs)

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def vertex_names(self) -> tuple[str, ...]:
        return self.labels if self.labels is not None else tuple(
            f"x{i}" for i in range(self.n)
        )

    def with_labels(self, labels: Sequence[str]) -> "Graph":
        return Graph(self.n, self.edges, labels)

    def __eq__(self, other) -> bool:
        # Orders index the edge sequence, so the same edges in another sequence make another graph.
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# --- reference patterns (Cricket, Diamond, C4, C5, 2K2), drawn on 4/5 vertices ---

CRICKET = Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
C4 = Graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
TWO_K2 = Graph(4, [(0, 1), (2, 3)])

PATTERNS: dict[str, Graph] = {
    "cricket": CRICKET,
    "diamond": DIAMOND,
    "c4": C4,
    "c5": C5,
}


def is_independent(g: Graph, w: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``w``."""
    ws = set(w)
    return not any(u in ws and v in ws for u, v in g.edges)


def induced_subgraph(g: Graph, w: Iterable[int]) -> Graph:
    """Induced subgraph on ``w``, relabeled to 0..|w|-1 in sorted order."""
    verts = sorted(set(w))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[v] for v in verts)
    return Graph(len(verts), edges, labels)


def find_induced(g: Graph, pattern: str | Graph) -> tuple[int, ...] | None:
    """The first vertex subset of ``g`` (in ``combinations`` order) that
    induces a copy of the pattern, or None.

    For each vertex subset of the pattern's size, a filter compares the
    subset's sorted induced degrees with the pattern's sorted degree
    sequence; only subsets that pass it are confirmed by trying every
    bijection (as a permutation of the subset) that maps the pattern's edges
    onto edges of ``g``.  Equal degree sequences give equal edge counts, so
    such a bijection maps edges onto all induced edges and non-edges onto
    non-edges: the copy is induced.

    A "no" on I(G)^q comes from an exhausted search or a checked restriction
    certificate, whose W is an induced 2K2 found here (``search_verdict``).
    """
    p = PATTERNS[pattern] if isinstance(pattern, str) else pattern
    k = p.n
    if g.n < k:
        return None
    degrees = sorted(a.bit_count() for a in p.nbrs)
    nb = g.nbrs
    pedges = p.edges
    for subset in combinations(range(g.n), k):
        s = 0
        for v in subset:
            s |= 1 << v
        if sorted([(nb[v] & s).bit_count() for v in subset]) != degrees:
            continue
        for perm in permutations(subset):
            if all(nb[perm[u]] >> perm[v] & 1 for u, v in pedges):
                return subset
    return None


def contains_induced(g: Graph, pattern: str | Graph) -> bool:
    """True iff some vertex subset of ``g`` induces a copy of the pattern."""
    return find_induced(g, pattern) is not None


def is_gapfree(g: Graph) -> bool:
    """No induced 2K2: every two disjoint edges are joined by a third edge."""
    return not contains_induced(g, TWO_K2)


def is_cdcc(g: Graph) -> bool:
    """Gapfree and containing induced cricket, diamond, C4 and C5."""
    # The four patterns first: they reject far more graphs than the 2K2 test.
    return (
        contains_induced(g, "c5")
        and contains_induced(g, "cricket")
        and contains_induced(g, "c4")
        and contains_induced(g, "diamond")
        and is_gapfree(g)
    )


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.nbrs[u] >> v & 1]
    return Graph(g.n, edges, g.labels)


def is_chordal(g: Graph) -> bool:
    """Chordality by deleting simplicial vertices (vertices whose neighbours
    are pairwise adjacent) one at a time: True iff the graph empties.

    A chordal graph has a simplicial vertex and stays chordal without it
    (Dirac 1961), so the deletions empty it.  No vertex of a chordless cycle
    is simplicial, so they never empty a graph that has one.
    """
    nb = g.nbrs
    left = (1 << g.n) - 1
    while left:
        for v in range(g.n):
            around = nb[v] & left
            if left >> v & 1 and all(
                around & ~nb[u] == 1 << u for u in range(g.n) if around >> u & 1
            ):
                left ^= 1 << v
                break
        else:
            return False
    return True


def is_cochordal(g: Graph) -> bool:
    return is_chordal(complement(g))


def duplicate_vertex(g: Graph, x: int) -> Graph:
    """Duplication at ``x``: new vertex y = n with N(y) = N(x); xy not an edge."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    y = g.n
    new_edges = list(g.edges) + [(b, y) for b in range(g.n) if g.nbrs[x] >> b & 1]
    labels = None
    if g.labels is not None:
        labels = g.labels + (g.labels[x] + "'",)
    return Graph(g.n + 1, new_edges, labels)


def expand_vertex(g: Graph, x: int) -> Graph:
    """Expansion at ``x``: duplication plus the edge xy (xy is the last edge)."""
    gx = duplicate_vertex(g, x)
    return Graph(gx.n, list(gx.edges) + [(x, g.n)], gx.labels)


def matching_number(g: Graph) -> int:
    """Maximum number of pairwise disjoint edges, by branch and bound on
    ``Graph.nbrs``: the lowest free vertex is matched to each free neighbour
    in turn, then left unmatched.  Exact at desk scale (n <= 16); the bound
    is size + floor(free/2)."""
    nb = g.nbrs
    best = 0

    def extend(free: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        while size + free.bit_count() // 2 > best:
            low = free & -free
            free ^= low
            w = nb[low.bit_length() - 1] & free
            while w:
                u = w & -w
                extend(free ^ u, size + 1)
                w ^= u

    extend((1 << g.n) - 1, 0)
    return best


def parse_graph(text: str) -> Graph:
    """Parse the text format: first non-comment line ``n``, then ``u v`` lines.

    Lines starting with ``#`` (and blank lines) are ignored.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: expected vertex count, got {raw!r}")
            n = int(parts[0])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("empty graph file")
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
