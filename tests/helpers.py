"""Shared test helpers."""

from itertools import combinations_with_replacement
from typing import Iterable

from linquo.monomials import Monomial


def from_vars(nvars: int, vs: Iterable[int]) -> Monomial:
    """Product of the given variables (with multiplicity)."""
    exps = [0] * nvars
    for v in vs:
        exps[v] += 1
    return Monomial(exps)


def eager_power(g, q):
    """The generators of I(G)^q by the plain loop over every size-q edge
    multiset in ``combinations_with_replacement`` order: returns ``index``,
    each product's exponent tuple -> its generator index by first appearance,
    ``factorizations``, the multisets of each generator, and
    ``multiset_index``, each multiset -> its generator index."""
    index: dict[tuple[int, ...], int] = {}
    factorizations: list[list[tuple[int, ...]]] = []
    multiset_index: dict[tuple[int, ...], int] = {}
    for multiset in combinations_with_replacement(range(len(g.edges)), q):
        exps = [0] * g.n
        for j in multiset:
            u, v = g.edges[j]
            exps[u] += 1
            exps[v] += 1
        key = tuple(exps)
        at = index.get(key)
        if at is None:
            at = index[key] = len(factorizations)
            factorizations.append([])
        factorizations[at].append(multiset)
        multiset_index[multiset] = at
    return index, tuple(tuple(f) for f in factorizations), multiset_index
