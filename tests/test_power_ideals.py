import random
import tracemalloc
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from linquo import power_ideals
from linquo.fixtures import FIG4_SQUARE, ISTANBUL, c5, fig2, fig4, named_graph
from linquo.graphs import Graph
from linquo.harness import nonisomorphic_graphs
from linquo.linquot import _duplicated_rows, duplication_order, ordering_from_multisets
from linquo.orderings import efficient_ordering, pure_power_edge_sequence
from linquo.power_ideals import CapExceeded, edge_ideal, power_generators

from helpers import eager_power


def test_edge_ideal_generators():
    ei = edge_ideal(c5())
    # the first power's generators are the edges, one row each, in edge order
    assert power_generators(ei, 1).exps.tolist() == [
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1],
        [1, 0, 0, 0, 1],
    ]
    assert edge_ideal(fig2()).nedges == 8
    assert edge_ideal(Graph(4)).nedges == 0


def test_power_counts():
    assert power_generators(edge_ideal(c5()), 2).count == 15
    assert power_generators(edge_ideal(fig2()), 2).count == 34
    assert power_generators(edge_ideal(fig4()), 2).count == 42
    for q in range(1, 7):
        assert power_generators(edge_ideal(c5()), q).count == comb(q + 4, 4)
    with pytest.raises(ValueError, match="power must be >= 1"):
        power_generators(edge_ideal(c5()), 0)


def test_fig2_coincidences():
    pg = power_generators(edge_ideal(fig2()), 2)
    merged = {
        frozenset(facs): tuple(pg.exps[i].tolist())
        for i, facs in enumerate(pg.factorizations)
        if len(facs) > 1
    }
    # (ax)(pz) = (ap)(xz) and (bx)(qz) = (bq)(xz) over a, b, p, q, x, z
    assert merged == {
        frozenset({(1, 5), (3, 6)}): (1, 0, 1, 0, 1, 1),
        frozenset({(2, 7), (4, 6)}): (0, 1, 0, 1, 1, 1),
    }


def test_fig4_coincidences():
    pg = power_generators(edge_ideal(fig4()), 2)
    merged = {frozenset(f) for f in pg.factorizations if len(f) > 1}
    assert merged == {
        frozenset({(0, 5), (1, 3)}),
        frozenset({(0, 6), (2, 4)}),
        frozenset({(5, 8), (6, 7)}),
    }


def test_every_multiset_lands_exactly_once():
    for g, q in ((c5(), 3), (fig2(), 2), (fig4(), 2)):
        pg = power_generators(edge_ideal(g), q)
        total = sum(len(f) for f in pg.factorizations)
        assert total == comb(pg.ideal.nedges + q - 1, q)
        seen = [ms for f in pg.factorizations for ms in f]
        assert len(seen) == len(set(seen))


def brute_force_products(g, q):
    """Exponent tuples of every product of q edges, by direct summation."""
    out = set()
    for ms in combinations_with_replacement(g.edges, q):
        exps = [0] * g.n
        for e in ms:
            for v in e:
                exps[v] += 1
        out.add(tuple(exps))
    return out


def assert_matches_bruteforce(g, q):
    pg = power_generators(edge_ideal(g), q)
    rows = [tuple(row) for row in pg.exps.tolist()]
    assert set(rows) == brute_force_products(g, q)
    assert len(rows) == pg.count
    assert pg.locate(pg.exps) == list(range(pg.count))


def test_generators_match_bruteforce_small():
    # all labeled graphs on 4 vertices, powers up to 3
    pairs4 = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        g = Graph(4, [pairs4[i] for i in range(6) if mask >> i & 1])
        if not g.edges:
            continue
        for q in (1, 2, 3):
            assert_matches_bruteforce(g, q)
    # sampled 5-vertex graphs
    rng = random.Random(29)
    pairs5 = list(combinations(range(5), 2))
    for _ in range(40):
        g = Graph(5, [e for e in pairs5 if rng.random() < 0.5])
        if not g.edges:
            continue
        for q in (2, 3):
            assert_matches_bruteforce(g, q)


def test_expansion_new_generators():
    # The duplication rule: each generator u, then u * y^k / x^k for
    # k = 1..deg_x(u), with y the appended last variable.
    def rows(g, q, multisets, x):
        pg = power_generators(edge_ideal(g), q)
        return _duplicated_rows(ordering_from_multisets(pg, multisets), x)

    # u = (x m)^2 over variables x, m
    assert rows(Graph(2, [(0, 1)]), 2, [(0, 0)], 0) == [(2, 2, 0), (1, 2, 1), (0, 2, 2)]
    # the path m0-x-m2 at x: each edge gains one substitute, right after it
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert rows(p3, 1, [(1,), (0,)], 1) == [
        (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1)
    ]
    # a vertex in no generator adds no substitute
    assert rows(Graph(3, [(0, 1)]), 1, [(0,)], 2) == [(1, 1, 0, 0)]


def test_cap_aborts_cleanly(monkeypatch):
    monkeypatch.setattr(power_ideals, "CAP", 100)
    with pytest.raises(CapExceeded):
        power_generators(edge_ideal(fig2()), 5)


def test_cap_bounds_entries_not_just_multisets(monkeypatch):
    # One or two edges have q + 1 or fewer multisets at any q, but each holds
    # q entries: 2K2 at q = 10^6 and K2 at q = 10^8 are refused at once.
    two_k2 = edge_ideal(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(CapExceeded, match=r"1000001 edge multisets .* exceed cap 10000000"):
        power_generators(two_k2, 10**6)
    with pytest.raises(CapExceeded):
        power_generators(edge_ideal(Graph(2, [(0, 1)])), 10**8)
    # the limit itself: the C(s + q - 1, q) multisets, with q edge indices
    # and an n-wide product row each, may hold as many entries as the cap
    monkeypatch.setattr(power_ideals, "CAP", 28)
    assert power_generators(two_k2, 3).count == 4
    monkeypatch.setattr(power_ideals, "CAP", 27)
    with pytest.raises(CapExceeded):
        power_generators(two_k2, 3)


def test_cap_counts_the_vertices(monkeypatch):
    # A path on 1,000 vertices at q = 1 has 999 multisets of one entry, but
    # its ideal alone is a 999 x 1,000 matrix: refused before it is filled.
    path = Graph(1000, [(v, v + 1) for v in range(999)])
    monkeypatch.setattr(power_ideals, "CAP", 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"999 edges on 1000 vertices \(999000 entries\)"):
            power_generators(edge_ideal(path), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cap_is_checked_before_the_lift(monkeypatch):
    # I(C5)^30 has 46,376 multisets: the lift is refused before any row of it.
    ist = ordering_from_multisets(power_generators(edge_ideal(c5()), 2), ISTANBUL)
    monkeypatch.setattr(power_ideals, "CAP", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            efficient_ordering(ist, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _monomials(n, degree):
    """Every exponent vector of the given degree in n variables."""
    for vs in combinations_with_replacement(range(n), degree):
        yield tuple(vs.count(v) for v in range(n))


def assert_matches_eager(g, q):
    index, factorizations, multiset_index = eager_power(g, q)
    pg = power_generators(edge_ideal(g), q)
    assert [tuple(row) for row in pg.exps.tolist()] == list(index)
    assert [tuple(ms) for ms in pg.least.tolist()] == [min(f) for f in factorizations]
    # every monomial of degree 2q: its generator index, or -1 for one that is
    # no product of q edges
    mons = list(_monomials(g.n, 2 * q))
    assert pg.locate(mons) == [index.get(m, -1) for m in mons]
    assert pg.locate(np.zeros((1, g.n), dtype=np.int64)) == [-1]
    assert pg.factorizations == factorizations
    assert pg.multiset_index == multiset_index


def test_generators_match_the_eager_enumeration_on_every_small_class():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for q in (1, 2, 3):
                assert_matches_eager(g, q)


def test_generators_match_the_eager_enumeration_on_the_fixtures():
    for name, qs in (("c5", (4,)), ("fig2", (2, 3)), ("fig4", (2, 3)), ("gamma7", (3,)), ("c5k3", (2,))):
        for q in qs:
            assert_matches_eager(named_graph(name), q)
    # 276 edges: edge indices past 255, which a one-byte multiset entry cannot hold
    assert_matches_eager(Graph(24, list(combinations(range(24), 2))), 2)
    # K6 at q = 3: 680 multisets for 336 generators
    assert_matches_eager(Graph(6, list(combinations(range(6), 2))), 3)


def test_complete_graph_powers_are_the_monomials_with_exponents_at_most_q():
    # I(K_n)^q is generated by the monomials of degree 2q with every exponent
    # at most q.  On K_n the level step skips the largest share of products.
    for n in range(2, 8):
        g = Graph(n, list(combinations(range(n), 2)))
        for q in range(1, 5):
            rows = [tuple(row) for row in power_generators(edge_ideal(g), q).exps.tolist()]
            want = {m for m in _monomials(n, 2 * q) if max(m) <= q}
            assert len(rows) == len(want) and set(rows) == want


def test_power_build_memory():
    # I(gamma7)^7: 8,142 generators, built level by level in one-byte rows
    ei = edge_ideal(named_graph("gamma7"))
    tracemalloc.start()
    try:
        pg = power_generators(ei, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pg.count == 8142
    assert peak < 3_000_000


def test_lift_memory():
    # I(C5)^16 lifted from the square in 14 level steps: 4,845 generators
    ist = ordering_from_multisets(power_generators(edge_ideal(c5()), 2), ISTANBUL)
    tracemalloc.start()
    try:
        o = efficient_ordering(ist, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(o) == 4845
    assert peak < 2_600_000


def test_factorizations_are_built_on_first_use():
    # Orders are resolved, lifted, written and transported from least and
    # locate alone; the factorizations wait for a caller that reads them.
    pg = power_generators(edge_ideal(fig4()), 2)
    o2 = ordering_from_multisets(pg, FIG4_SQUARE)
    o3 = efficient_ordering(o2, 3)
    o2.multisets(), o3.multisets(), pure_power_edge_sequence(o3)
    dup = duplication_order(o3, 5)
    for p in (pg, o3.base, dup.base):
        assert "factorizations" not in vars(p) and "multiset_index" not in vars(p)
    assert len(pg.multiset_index) == comb(9 + 1, 2)
    assert "factorizations" in vars(pg)
