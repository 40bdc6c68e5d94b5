"""Generators of edge-ideal powers as the rows of one exponent matrix.

For an equigenerated ideal the distinct products of q edges are exactly the
minimal generators of the q-th power (equal degree 2q, so none divides
another).  ``PowerGenerators`` stores them as ``exps``, an r x n int64 matrix.
Generator i is the i-th distinct product in ``combinations_with_replacement``
order, and ``least[i]``, the multiset where it first appears, is its least
factorization.  ``locate`` maps rows back to indices through one dict keyed
by the bytes of each int64 row, exact for any vertex count.  The full
``factorizations`` and ``multiset_index`` are built on first use.

Each power is built from the one below.  If (j, ...) is the least
factorization of u, its tail is the least one of u / e_j, since a tail with
an edge below j would give u a smaller first edge.  So the products of each
generator p of I^k with each edge j <= lead[p], the first edge of least[p],
taken in the order of (j,) + least[p], hold every generator of I^(k+1), each
first at its least factorization.  ``next_level`` numbers their first
appearances, and the lift in ``orderings`` runs it along an edge sequence.

An enumeration of more than ``CAP`` int64 entries is refused before any array
is filled: the checker is desk-scale.  The ideal of s edges on n vertices
holds s * n entries, and its power q is counted as M * (q + n) for its M =
C(s+q-1, q) edge multisets.  A level forms at most M products, one per
multiset whose tail is a least factorization, and ``least`` holds M * q
entries at most.  ``CAP`` is read at each call, so a test may lower it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement, repeat
from math import comb

import numpy as np

from .graphs import Graph

CAP = 10**7


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed ``CAP``."""


def _check_cap(entries: int, what: str) -> None:
    """Refuse, before any array is filled, an enumeration of more than ``CAP``
    entries."""
    if entries > CAP:
        raise CapExceeded(f"{what} ({entries} entries) exceed cap {CAP}")


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of an int64 matrix: equal keys mean equal rows."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


class EdgeIdeal:
    """Edge ideal of a graph: generator j is the edge ``graph.edges[j]``, with
    exponent vector ``rows[j]``."""

    __slots__ = ("graph", "rows")

    def __init__(self, graph: Graph):
        s = len(graph.edges)
        _check_cap(s * graph.n, f"{s} edges on {graph.n} vertices")
        self.graph = graph
        self.rows = np.zeros((s, graph.n), dtype=np.int64)
        self.rows[np.arange(s)[:, None], np.array(graph.edges, dtype=np.int64).reshape(s, 2)] = 1
        self.rows.setflags(write=False)

    @property
    def nvars(self) -> int:
        return self.graph.n

    @property
    def nedges(self) -> int:
        return len(self.graph.edges)

    def __repr__(self) -> str:
        return f"EdgeIdeal({self.graph!r})"


def edge_ideal(g: Graph) -> EdgeIdeal:
    """One squarefree quadratic generator per edge, in the graph's edge order."""
    return EdgeIdeal(g)


def next_level(edge_rows: np.ndarray, exps: np.ndarray, lead: np.ndarray):
    """The first appearances among the products exps[p] + edge_rows[j] with
    j <= lead[p], taken in (j, p) order, with each one's j and p."""
    j, p = np.nonzero(np.arange(len(edge_rows))[:, None] <= lead)
    prod = exps[p] + edge_rows[j]
    # (j, p) is factorization order, which the stable sort keeps among equal rows
    by_row = np.lexsort(prod.T)
    ranked = prod[by_row]
    first = np.empty(len(j), dtype=bool)
    first[by_row] = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(1)))
    return prod[first], j[first], p[first]


class PowerGenerators:
    """Minimal generators of I^q: row i of ``exps`` is generator i,
    ``least[i]`` its least factorization, and ``locate`` maps exponent rows
    to generator indices."""

    def __init__(self, ideal: EdgeIdeal, q: int):
        if q < 1:
            raise ValueError("power must be >= 1")
        s, n = ideal.nedges, ideal.nvars
        m = comb(s + q - 1, q)
        _check_cap(m * (q + n), f"{m} edge multisets for q={q} over {s} edges on {n} vertices")
        edge_rows = ideal.rows.astype(np.min_scalar_type(q))
        exps, lead = edge_rows, np.arange(s)
        levels = [(lead, lead)]  # an edge's parent is never read
        for _ in range(1, q if s else 1):
            exps, lead, parent = next_level(edge_rows, exps, lead)
            levels.append((lead, parent))
        # least[i] = (lead, then the least factorization of the parent)
        self.least, at = np.empty((len(exps), q), dtype=np.int64), np.arange(len(exps))
        for k, (lead, parent) in enumerate(reversed(levels)):
            self.least[:, k], at = lead[at], parent[at]
        self.ideal, self.q, self.exps = ideal, q, exps.astype(np.int64)
        for a in (self.exps, self.least):
            a.setflags(write=False)
        self._at = dict(zip(row_keys(self.exps), range(len(exps))))

    @property
    def count(self) -> int:
        return len(self._at)

    def locate(self, rows) -> list[int]:
        """The generator index of each exponent row, -1 for a row that is not
        a generator."""
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), self.ideal.nvars)
        return list(map(self._at.get, row_keys(rows), repeat(-1)))

    @cached_property
    def factorizations(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``factorizations[i]``: the edge multisets that multiply out to
        generator i, in enumeration order; built on first use."""
        multisets = list(combinations_with_replacement(range(self.ideal.nedges), self.q))
        prod = np.zeros((len(multisets), self.ideal.nvars), dtype=np.int64)
        for column in zip(*multisets):  # one edge of each multiset at a time
            prod += self.ideal.rows.take(column, 0)
        facs: list[list[tuple[int, ...]]] = [[] for _ in range(self.count)]
        for m, key in zip(multisets, row_keys(prod)):
            facs[self._at[key]].append(m)
        return tuple(map(tuple, facs))

    @cached_property
    def multiset_index(self) -> dict[tuple[int, ...], int]:
        """Each size-q edge multiset's generator index; built on first use."""
        return {ms: i for i, facs in enumerate(self.factorizations) for ms in facs}

    def __repr__(self) -> str:
        return f"PowerGenerators(q={self.q}, count={self.count})"


def power_generators(ideal: EdgeIdeal, q: int) -> PowerGenerators:
    return PowerGenerators(ideal, q)
