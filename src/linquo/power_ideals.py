"""Generators of edge-ideal powers as the rows of one exponent matrix.

For an equigenerated ideal the distinct products of q edges are exactly the
minimal generators of the q-th power (equal degree 2q, so none divides
another).  ``PowerGenerators`` stores them as ``exps``, an r x n int64 matrix
whose row i is the exponent vector of generator i, and ``index``, which maps
an exponent tuple back to its row.  Generator indices follow the first
appearance of each product in ``combinations_with_replacement`` order.  Every
size-q edge multiset is recorded under the generator it multiplies out to,
so the factorizations of a generator are plain lookups.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .graphs import Graph

DEFAULT_CAP = 10**7


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


def _check_cap(s: int, q: int, cap: int) -> None:
    """Refuse, before any work, the power q of an ideal with s edges when its
    C(s+q-1, q) edge multisets, q entries each, hold more than cap entries."""
    multisets = comb(s + q - 1, q)
    if q * multisets > cap:
        raise CapExceeded(
            f"{multisets} edge multisets for q={q} over {s} edges "
            f"({q * multisets} entries) exceed cap {cap}"
        )


class EdgeIdeal:
    """Edge ideal of a graph: generator j is the edge ``graph.edges[j]``."""

    __slots__ = ("graph", "edges")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edges = graph.edges

    @property
    def nvars(self) -> int:
        return self.graph.n

    @property
    def nedges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"EdgeIdeal({self.graph!r})"


def edge_ideal(g: Graph) -> EdgeIdeal:
    """One squarefree quadratic generator per edge, in the graph's edge order."""
    return EdgeIdeal(g)


class PowerGenerators:
    """Minimal generators of I^q: row i of ``exps`` is generator i, ``index``
    maps an exponent tuple to its row, and ``factorizations[i]`` lists the
    edge multisets that multiply out to generator i."""

    __slots__ = ("ideal", "q", "exps", "index", "factorizations", "multiset_index")

    def __init__(self, ideal: EdgeIdeal, q: int, cap: int = DEFAULT_CAP):
        if q < 1:
            raise ValueError("power must be >= 1")
        s = ideal.nedges
        _check_cap(s, q, cap)
        factorizations: list[list[tuple[int, ...]]] = []
        index: dict[tuple[int, ...], int] = {}
        multiset_index: dict[tuple[int, ...], int] = {}
        nvars = ideal.nvars
        for multiset in combinations_with_replacement(range(s), q):
            exps = [0] * nvars
            for j in multiset:
                u, v = ideal.edges[j]
                exps[u] += 1
                exps[v] += 1
            key = tuple(exps)
            at = index.get(key)
            if at is None:
                at = index[key] = len(factorizations)
                factorizations.append([])
            factorizations[at].append(multiset)
            multiset_index[multiset] = at
        self.ideal = ideal
        self.q = q
        self.exps = np.array(list(index), dtype=np.int64).reshape(len(index), nvars)
        self.exps.setflags(write=False)
        self.index = index
        self.factorizations = tuple(tuple(f) for f in factorizations)
        self.multiset_index = multiset_index

    @property
    def count(self) -> int:
        return len(self.factorizations)

    def __repr__(self) -> str:
        return f"PowerGenerators(q={self.q}, count={self.count})"


def power_generators(ideal: EdgeIdeal, q: int, cap: int = DEFAULT_CAP) -> PowerGenerators:
    return PowerGenerators(ideal, q, cap)
