"""Generators of edge-ideal powers as the rows of one exponent matrix.

For an equigenerated ideal the distinct products of q edges are exactly the
minimal generators of the q-th power (equal degree 2q, so none divides
another).  ``PowerGenerators`` stores them as ``exps``, an r x n int64 matrix.
Generator i is the i-th distinct product in ``combinations_with_replacement``
order, and ``least[i]``, the multiset where it first appears, is its least
factorization.  The full ``factorizations`` and ``multiset_index``, and the
dict behind ``locate``, are built on first use.

Rows are sorted and looked up by exact keys, ``rows @ key_weights(n, top)``:
int64 words of ``top.bit_length()``-bit fields that never overflow, so a
product's key is the sum of its factors' while no entry exceeds top, and
u / x_w's is u's minus w's weight.  ``locate`` packs with top = q, and gives a
row with an entry outside 0..q, which could alias a generator, the key -1.

Each power is built from the one below.  If (j, ...) is the least
factorization of u, its tail is the least one of u / e_j, since a tail with
an edge below j would give u a smaller first edge.  So the products of each
generator p of I^k with each edge j <= lead[p], the first edge of least[p],
taken in the order of (j,) + least[p], hold every generator of I^(k+1), each
first at its least factorization.  ``levels`` takes these steps, each by one
stable sort of the products' keys: ``PowerGenerators`` from the edges, and
the lift in ``orderings`` from a lower power's order along an edge sequence.

Work beyond ``CAP`` int64 entries is refused before its arrays are filled.
The ideal of s edges on n vertices holds s * n.  Before each step ``levels``
adds the step's products, the sum of lead[p] + 1, at n + q entries each (a
row and a share of ``least``) to a running count, so a power of one edge at
a huge q is refused too.  ``factorizations`` alone enumerates all M =
C(s+q-1, q) edge multisets, counted as M * (q + n).  ``CAP`` is read per call.
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
    """Refuse work of more than ``CAP`` entries before its arrays are filled."""
    if entries > CAP:
        raise CapExceeded(f"{what} ({entries} entries) exceed cap {CAP}")


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of an int64 matrix: equal keys mean equal rows."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


def key_weights(n: int, top: int) -> np.ndarray:
    """The (n, words) int64 matrix that packs n entries in 0..top into keys."""
    bits = top.bit_length() or 1
    weights = np.zeros((n, max(n - 1, 0) // (63 // bits) + 1), dtype=np.int64)
    for v in range(n):
        weights[v, v // (63 // bits)] = 1 << bits * (v % (63 // bits))
    return weights


def sort_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort of non-negative key rows: the ``order``, and whether each sorted
    row differs from the one before (one int64, key then index, if the index fits)."""
    m, shift = len(keys), len(keys).bit_length()
    if keys.shape[1] == 1 and not int(keys.max(initial=0)) >> 63 - shift:
        ranked = np.sort(keys[:, 0] << shift | np.arange(m))
        order = ranked & (1 << shift) - 1
        ranked >>= shift
    else:
        order = np.lexsort(keys.T)
        ranked = keys[order].view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()
    return order, np.concatenate((np.ones(min(m, 1), dtype=bool), ranked[1:] != ranked[:-1]))


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


def levels(edge_rows, rows, lead, q, steps):
    """Take ``steps`` steps from ``rows``, each keeping the first of the products
    rows[p] + edge_rows[j], j <= lead[p], in (j, p) order, with lead j and parent
    p.  Returns the last rows and keys, for entries in 0..q, and each (lead, parent)."""
    s, n = edge_rows.shape
    weights, dtype = key_weights(n, q), np.min_scalar_type(q)
    erows, ekeys = edge_rows.astype(dtype), edge_rows @ weights
    rows, keys = (erows, ekeys) if rows is edge_rows else (rows.astype(dtype), rows @ weights)
    count, pairs = 0, []
    for _ in range(steps if s else 0):
        count += (int(lead.sum()) + len(lead)) * (n + q)
        _check_cap(count, f"level steps to q={q} over {s} edges on {n} vertices")
        j, p = np.nonzero(np.arange(s)[:, None] <= lead)
        # (j, p) is factorization order, which the stable sort keeps among equal keys
        order, new = sort_groups(prod := keys[p] + ekeys[j])
        first = np.empty(len(j), dtype=bool)
        first[order] = new
        pairs.append((lead := j[first], parent := p[first]))
        rows, keys = rows[parent] + erows[lead], prod[first]
    return rows, keys, pairs


class PowerGenerators:
    """Minimal generators of I^q: row i of ``exps`` is generator i,
    ``least[i]`` its least factorization, and ``locate`` maps exponent rows
    to generator indices."""

    def __init__(self, ideal: EdgeIdeal, q: int):
        if q < 1:
            raise ValueError("power must be >= 1")
        lead = np.arange(ideal.nedges)
        exps, self._keys, steps = levels(ideal.rows, ideal.rows, lead, q, q - 1)
        # least[i] = (lead, then the least factorization of the parent)
        self.least, at = np.empty((len(exps), q), dtype=np.int64), np.arange(len(exps))
        for k, (lead, parent) in enumerate(reversed([(lead, lead), *steps])):
            self.least[:, k], at = lead[at], parent[at]
        self.ideal, self.q, self.exps = ideal, q, exps.astype(np.int64)
        for a in (self.exps, self.least):
            a.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.exps)

    @cached_property
    def _at(self) -> dict:
        return dict(zip(row_keys(self._keys), range(self.count)))

    def locate(self, rows) -> list[int]:
        """The generator index of each exponent row, -1 for a row that is not
        a generator."""
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), self.ideal.nvars)
        outside = ((rows < 0) | (rows > self.q)).any(1, keepdims=True)
        keys = np.where(outside, -1, rows @ key_weights(self.ideal.nvars, self.q))
        return list(map(self._at.get, row_keys(keys), repeat(-1)))

    @cached_property
    def factorizations(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``factorizations[i]``: the edge multisets that multiply out to
        generator i, in enumeration order; built on first use."""
        s, n, q = self.ideal.nedges, self.ideal.nvars, self.q
        m = comb(s + q - 1, q)
        _check_cap(m * (q + n), f"{m} edge multisets for q={q} over {s} edges on {n} vertices")
        multisets = list(combinations_with_replacement(range(s), q))
        prod = np.zeros((m, n), dtype=np.int64)
        for column in zip(*multisets):  # one edge of each multiset at a time
            prod += self.ideal.rows.take(column, 0)
        facs: list[list[tuple[int, ...]]] = [[] for _ in range(self.count)]
        for ms, key in zip(multisets, row_keys(prod @ key_weights(n, q))):
            facs[self._at[key]].append(ms)
        return tuple(map(tuple, facs))

    @cached_property
    def multiset_index(self) -> dict[tuple[int, ...], int]:
        """Each size-q edge multiset's generator index; built on first use."""
        return {ms: i for i, facs in enumerate(self.factorizations) for ms in facs}

    def __repr__(self) -> str:
        return f"PowerGenerators(q={self.q}, count={self.count})"


def power_generators(ideal: EdgeIdeal, q: int) -> PowerGenerators:
    return PowerGenerators(ideal, q)
