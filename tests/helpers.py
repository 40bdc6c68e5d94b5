"""Shared test helpers."""

import functools
import sys
from itertools import combinations, combinations_with_replacement, permutations, zip_longest
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
    built from divisor keys, kept as ``linquot._search_tables``' oracle."""
    D = E - E[c]
    np.maximum(D, 0, out=D)
    pos = D > 0
    degs = D.sum(axis=1)
    unit = pos & (degs == 1)[:, None]
    wide, *masks = _bitmasks(np.vstack([degs > 1, unit.T, ~pos.T]))
    n = E.shape[1]
    units = tuple((masks[v], masks[n + v]) for v in range(n) if masks[v])
    return wide, units


def admissible_by_pairs(g, eo) -> bool:
    """The oracle of ``orderings.is_admissible``: the disjoint-pair rule read
    literally.  For every disjoint pair ab before cd, all edge positions at a,
    or all edge positions at b, must lie before the position of cd."""
    pos = {j: k for k, j in enumerate(eo)}
    positions = [[pos[j] for j, e in enumerate(g.edges) if v in e] for v in range(g.n)]
    for k1, k2 in combinations(range(len(eo)), 2):
        (a, b), cd = g.edges[eo[k1]], g.edges[eo[k2]]
        if a in cd or b in cd:
            continue
        if not (max(positions[a]) < k2 or max(positions[b]) < k2):
            return False
    return True


def pure_powers_by_position(o) -> tuple[int, ...]:
    """The oracle of ``orderings.pure_power_edge_sequence``: every edge, sorted
    by the position of its pure power in the order."""
    pg = o.base
    pos = {i: k for k, i in enumerate(o.sequence)}
    pure = pg.locate(pg.q * pg.ideal.rows)
    return tuple(sorted(range(pg.ideal.nedges), key=lambda j: pos[pure[j]]))


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def hilbert_numerator(rows) -> list[int]:
    """The numerator K(t) of the Hilbert series HS(S/I) = K(t) / (1 - t)^n of
    the monomial ideal I generated by the exponent rows ``rows``, as its
    coefficients from t^0 up, with no trailing zeros.

    For a variable x, 0 -> S/(I : x)(-1) -> S/I -> S/(I + (x)) -> 0 gives
    K(I) = (1 - t) K(I without the generators x divides) + t K(I : x).  The
    pivot is the variable dividing the most generators; once none divides
    two, the generators are pairwise coprime and K is the product of their
    1 - t^deg.  Shares no code with ``linquo``.
    """
    memo: dict[frozenset, list[int]] = {}

    def minimal(gens) -> frozenset:
        gens = set(gens)
        return frozenset(
            a for a in gens if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in gens)
        )

    def numerator(gens: frozenset) -> list[int]:
        if gens in memo:
            return memo[gens]
        counts = [sum(a[v] > 0 for a in gens) for v in range(n)]
        x = max(range(n), key=counts.__getitem__, default=None)
        if x is None or counts[x] <= 1:
            k = [1]
            for a in gens:
                k = _poly_add(k, [0] * sum(a) + [-c for c in k])
        else:
            rest = numerator(frozenset(a for a in gens if not a[x]))
            colon = numerator(minimal(a[:x] + (max(a[x] - 1, 0),) + a[x + 1 :] for a in gens))
            k = _poly_add(_poly_add(rest, [0] + [-c for c in rest]), [0] + colon)
        memo[gens] = k
        return k

    rows = [tuple(int(e) for e in row) for row in rows]
    n = len(rows[0]) if rows else 0
    return numerator(minimal(rows))


def sign_faults(k: list[int], d: int) -> list[int]:
    """The degrees j at which K(t) rules out a linear resolution of an ideal
    generated in degree d.  Such a resolution gives
    K = 1 + sum_i (-1)^(i+1) beta_i t^(d+i), so the coefficient of t^j is 0
    for 0 < j < d and has the sign (-1)^(j-d+1), or is 0, from j = d on.
    Linear quotients give a linear resolution (Herzog-Takayama 2002), so a
    fault proves that the ideal has none; no fault proves nothing."""
    return [j for j, c in enumerate(k) if (c if 0 < j < d else j >= d and (-1) ** (j - d + 1) * c < 0)]


def shortest_chordless_cycle_of_complement(g) -> tuple[int, ...] | None:
    """The vertex set W of a shortest induced cycle of length >= 4 in the
    complement of g, the first in ``combinations`` order, or None when the
    complement is chordal."""
    nbrs = neighbour_sets(g)
    for k in range(4, g.n + 1):
        for w in combinations(range(g.n), k):
            # the complement's neighbours of each vertex inside W
            co = {u: {v for v in w if v != u and v not in nbrs[u]} for u in w}
            if any(len(vs) != 2 for vs in co.values()):
                continue
            seen, frontier = {w[0]}, [w[0]]
            while frontier:
                new = [v for u in frontier for v in co[u] if v not in seen]
                seen.update(new)
                frontier = new
            if len(seen) == k:
                return w
    return None
