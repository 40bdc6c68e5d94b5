"""Shared test helpers."""

import functools
import sys
from itertools import combinations, combinations_with_replacement, permutations
from typing import Iterable

import numpy as np

from linquo import linquot
from linquo.linquot import LqReport, LqWitness, _bitmasks
from linquo.monomials import Monomial


def from_vars(nvars: int, vs: Iterable[int]) -> Monomial:
    """Product of the given variables (with multiplicity)."""
    exps = [0] * nvars
    for v in vs:
        exps[v] += 1
    return Monomial(exps)


def count_verifier_calls(monkeypatch) -> list[int]:
    """Patch ``verify_linear_quotients`` wherever a linquo module binds it;
    the returned list gets the power q of each order verified from then on."""
    orig = linquot.verify_linear_quotients
    verified: list[int] = []

    def counted(o):
        verified.append(o.base.q)
        return orig(o)

    for name, module in list(sys.modules.items()):
        if name.startswith("linquo") and getattr(module, "verify_linear_quotients", None) is orig:
            monkeypatch.setattr(module, "verify_linear_quotients", counted)
    return verified


def neighbour_sets(g):
    """Each vertex's neighbours as a set, read from ``g.edges`` alone, so an
    oracle built on them shares no code with ``Graph.nbrs``."""
    sets = [set() for _ in range(g.n)]
    for u, v in g.edges:
        sets[u].add(v)
        sets[v].add(u)
    return sets


@functools.cache
def relabelings(n: int) -> np.ndarray:
    """Row p, column i: 2 to the edge-mask bit of the image of pair i under
    relabeling p of 0..n-1."""
    index = {e: i for i, e in enumerate(combinations(range(n), 2))}
    rows = [[1 << index[min(p[u], p[v]), max(p[u], p[v])] for u, v in index] for p in permutations(range(n))]
    return np.array(rows, dtype=np.int64)


def brute_least_mask(g) -> int:
    """The oracle of ``enumeration.canonical_form``: the least edge mask of g over
    all n! relabelings."""
    pairs = list(combinations(range(g.n), 2))
    return int(relabelings(g.n)[:, [pairs.index(e) for e in g.edges]].sum(axis=1).min())


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


def mixed_radix_verify(o):
    """The exchange-neighbour verifier that ``verify_linear_quotients``
    replaced, kept as its oracle: rows keyed as mixed-radix ints, and each
    unordered neighbour pair u_t x_v / x_w looked up once, the later of the
    two getting the variable in which the earlier is larger.  Returns the
    same ``LqReport``."""
    E = o.exps()
    r, n = E.shape
    rows = E.tolist()
    top = int(E.max(initial=0))
    # Digits run to top + 1 so that a neighbour key never carries into the
    # next variable's digit.
    place = [(top + 2) ** v for v in range(n)]
    keys = [sum(e * p for e, p in zip(row, place)) for row in rows]
    position = dict(zip(keys, range(r)))
    var_masks = [0] * r
    for a, (row, key) in enumerate(zip(rows, keys)):
        for w in range(1, n):
            if row[w]:
                for v in range(w):
                    b = position.get(key + place[v] - place[w])
                    if b is None:
                        continue
                    if b < a:
                        var_masks[a] |= 1 << v
                    else:
                        var_masks[b] |= 1 << w
    levels = np.arange(top + 1)[:, None]
    above = [_bitmasks(E[:, v] > levels) for v in range(n)]
    shared = {m: frozenset(v for v in range(n) if m >> v & 1) for m in set(var_masks)}
    witness = None
    for t in range(1, r):
        row = rows[t]
        cover = 0
        for v in shared[var_masks[t]]:
            cover |= above[v][row[v]]
        missing = ~cover & ((1 << t) - 1)
        if missing:
            i = (missing & -missing).bit_length() - 1
            witness = LqWitness(t, i, Monomial(np.maximum(E[i] - E[t], 0)))
            break
    return LqReport(witness is None, witness, tuple(shared[m] for m in var_masks))


def one_candidate_colon_tables(E, c):
    """The ``(wide, units)`` colon tables of row c of E alone, from one numpy
    pass over ``E - E[c]``: the search's per-candidate tables before they were
    built in blocks, kept as the blocked tables' oracle."""
    D = E - E[c]
    np.maximum(D, 0, out=D)
    pos = D > 0
    degs = D.sum(axis=1)
    unit = pos & (degs == 1)[:, None]
    wide, *masks = _bitmasks(np.vstack([degs > 1, unit.T, pos.T]))
    n = E.shape[1]
    units = tuple((masks[v], masks[n + v]) for v in range(n) if masks[v])
    return wide, units
