"""Generators of edge-ideal powers as the rows of one exponent matrix.

For an equigenerated ideal the distinct products of q edges are exactly the
minimal generators of the q-th power (equal degree 2q, so none divides
another).  ``PowerGenerators`` stores them as ``exps``, an r x n int64 matrix
built in one vectorized pass over the size-q edge multisets.  Generator i is
the i-th distinct product in ``combinations_with_replacement`` order, and
``least[i]``, the multiset where it first appears, is its least
factorization.  ``locate`` maps rows back to indices through one dict keyed
by the bytes of each int64 row, exact for any vertex count.  The full
``factorizations`` and ``multiset_index`` are built on first use.

An enumeration of more than ``CAP`` int64 entries is refused before any array
is filled: the checker is desk-scale.  The ideal of s edges on n vertices
holds s * n entries, and its power q holds M * (q + n) for its M =
C(s+q-1, q) edge multisets, q edge indices and an n-wide product row each.
``CAP`` is read at each call, so a test may lower it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
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
    endpoints ``ends[j]`` and exponent vector ``rows[j]``."""

    __slots__ = ("graph", "ends", "rows")

    def __init__(self, graph: Graph):
        s = len(graph.edges)
        _check_cap(s * graph.n, f"{s} edges on {graph.n} vertices")
        self.graph = graph
        self.ends = np.array(graph.edges, dtype=np.int64).reshape(s, 2)
        self.rows = np.zeros((s, graph.n), dtype=np.int64)
        self.rows[np.arange(s)[:, None], self.ends] = 1
        self.ends.setflags(write=False)
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


def _products(ideal: EdgeIdeal, q: int) -> tuple[list, list[bytes]]:
    """The size-q edge multisets in ``combinations_with_replacement`` order
    and the ``row_keys`` of their products.  Step k appends to each multiset
    of size k - 1 each edge from its last one on; ``steps[k - 1]`` holds, per
    multiset of size k, its last edge and the index of its prefix."""
    s = ideal.nedges
    last = np.arange(s)
    steps = [(last, last)]  # a single edge's prefix index is never read
    prod = ideal.rows.copy()
    for _ in range(1, q if s else 1):
        counts = s - last
        starts = counts.cumsum() - counts
        prefix = np.arange(len(last)).repeat(counts)
        i = np.arange(len(prefix))
        last = i - (starts - last)[prefix]
        steps.append((last, prefix))
        prod = prod[prefix]
        # The two ends of an edge differ, so no (row, column) pair repeats.
        prod[i.repeat(2), ideal.ends[last].ravel()] += 1
    return steps, row_keys(prod)


def _multisets(steps: list, at: np.ndarray) -> np.ndarray:
    """The multisets of size len(steps) at the indices ``at``, as rows."""
    out = np.empty((len(at), len(steps)), dtype=np.int64)
    for k in range(len(steps) - 1, -1, -1):
        last, prefix = steps[k]
        out[:, k] = last[at]
        at = prefix[at]
    return out


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
        steps, keys = _products(ideal, q)
        # key -> position of its first appearance; sorted, the positions are
        # the generators in index order.
        first = sorted(dict(zip(reversed(keys), range(len(keys) - 1, -1, -1))).values())
        gens = list(map(keys.__getitem__, first))
        self.ideal, self.q = ideal, q
        self.exps = np.frombuffer(b"".join(gens), dtype=np.int64).reshape(len(gens), ideal.nvars)
        self.least = _multisets(steps, np.array(first, dtype=np.int64))
        self.least.setflags(write=False)
        self._at = dict(zip(gens, range(len(gens))))

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
        steps, keys = _products(self.ideal, self.q)
        facs: list[list[tuple[int, ...]]] = [[] for _ in range(self.count)]
        for m, key in zip(_multisets(steps, np.arange(len(keys))).tolist(), keys):
            facs[self._at[key]].append(tuple(m))
        return tuple(map(tuple, facs))

    @cached_property
    def multiset_index(self) -> dict[tuple[int, ...], int]:
        """Each size-q edge multiset's generator index; built on first use."""
        return {ms: i for i, facs in enumerate(self.factorizations) for ms in facs}

    def __repr__(self) -> str:
        return f"PowerGenerators(q={self.q}, count={self.count})"


def power_generators(ideal: EdgeIdeal, q: int) -> PowerGenerators:
    return PowerGenerators(ideal, q)
