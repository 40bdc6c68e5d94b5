import random
import time
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
from linquo.power_ideals import CapExceeded, edge_ideal, key_weights, power_generators, sort_groups

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


def test_locate_answers_rows_outside_0_to_q_without_aliasing():
    # I(C5)^3 packs each exponent into 2 bits.  For a generator g with
    # g[0] = 0 and g[1] >= 1, g + 4 e_0 - e_1 holds an entry of 2^bits and
    # g - 4 e_0 + e_1 a negative one; each packs onto g without the guard.
    pg = power_generators(edge_ideal(c5()), 3)
    weights = key_weights(5, 3)
    g = next(row for row in pg.exps if row[0] == 0 and row[1] >= 1)
    carry = np.array([4, -1, 0, 0, 0])
    aliases = [g + carry, g - carry]
    assert (np.array(aliases) @ weights == g @ weights).all()
    assert pg.locate(aliases) == [-1, -1]
    # every row with entries in -1..q + 1 on a random sample: its index, or
    # -1 for a row that is no generator
    index = {tuple(row): i for i, row in enumerate(pg.exps.tolist())}
    rng = np.random.default_rng(61)
    rows = np.vstack([pg.exps, rng.integers(-1, 5, size=(2000, 5))])
    assert pg.locate(rows) == [index.get(tuple(row), -1) for row in rows.tolist()]


def test_keys_that_span_several_words_build_and_locate_exactly():
    # K5 spread over 70 vertices at q = 3: 2-bit fields, 31 to a word, so a
    # key holds 3 words, and the edges at 0, 31, 64 put entries in each.
    g = Graph(70, list(combinations((0, 31, 64, 66, 69), 2)))
    assert key_weights(70, 3).shape == (70, 3)
    assert_matches_bruteforce(g, 3)
    pg = power_generators(edge_ideal(g), 3)
    index = {tuple(row): i for i, row in enumerate(pg.exps.tolist())}
    # one unit moved from each support vertex to each other vertex of K5, and
    # to vertex 30, which no edge meets: a generator or no generator
    moved = []
    for row in pg.exps.tolist():
        for w in (0, 31, 64, 66, 69):
            if row[w]:
                for v in (0, 30, 31, 64, 66, 69):
                    if v != w:
                        m = list(row)
                        m[w] -= 1
                        m[v] += 1
                        moved.append(m)
    got = pg.locate(moved)
    assert got == [index.get(tuple(m), -1) for m in moved]
    assert 0 < got.count(-1) < len(got)


def test_sort_groups_sorts_stably_with_and_without_room_for_the_index():
    # One-word keys small enough to share an int64 with the row index, one-
    # word keys too large for it, and three-word keys: each sorted stably,
    # equal keys together, against the stable sort of the keys as tuples.
    rng = np.random.default_rng(67)
    for words, top in ((1, 40), (1, 1 << 60), (3, 40)):
        keys = rng.integers(0, 8, size=(500, words)) * (top // 8)
        want = sorted(range(500), key=lambda i: tuple(keys[i][::-1]))
        ranked = keys[want]
        order, new = sort_groups(keys)
        assert order.tolist() == want
        assert new.tolist() == [True] + (ranked[1:] != ranked[:-1]).any(1).tolist()
    for words in (1, 3):
        order, new = sort_groups(np.zeros((0, words), dtype=np.int64))
        assert len(order) == len(new) == 0 and new.dtype == bool


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
    # One or two edges give one or two generators a level, but each step
    # counts its products at n + q entries: 2K2 at q = 10^6 and K2 at q = 10^8
    # are refused at once.
    two_k2 = edge_ideal(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(CapExceeded, match=r"q=1000000 .* \(12000048 entries\) exceed cap 10000000"):
        power_generators(two_k2, 10**6)
    with pytest.raises(CapExceeded):
        power_generators(edge_ideal(Graph(2, [(0, 1)])), 10**8)
    # the limit itself: the steps to q = 3 form 3 and then 4 products, of
    # n + q = 7 entries each, and may count as many entries as the cap
    monkeypatch.setattr(power_ideals, "CAP", 49)
    assert power_generators(two_k2, 3).count == 4
    monkeypatch.setattr(power_ideals, "CAP", 48)
    want = r"^level steps to q=3 over 2 edges on 4 vertices \(49 entries\) exceed cap 48$"
    with pytest.raises(CapExceeded, match=want):
        power_generators(two_k2, 3)


def test_one_edge_at_a_huge_power_is_refused_at_once():
    # The steps to I(K2)^(10^6) form one product each, of 10^6 + 2 entries:
    # the tenth passes the cap, before any array of a later level exists.
    k2 = edge_ideal(Graph(2, [(0, 1)]))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"\(10000020 entries\)"):
            power_generators(k2, 10**6)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20


def test_the_cap_admits_the_power_of_k7_and_refuses_its_multisets():
    # I(K7)^7 has 32,292 generators from 888,030 edge multisets: its levels
    # count 1.5M entries, its multisets 12.4M.
    pg = power_generators(edge_ideal(Graph(7, combinations(range(7), 2))), 7)
    assert pg.count == 32292
    with pytest.raises(CapExceeded, match=r"^888030 edge multisets for q=7 over 21 edges on 7 vertices"):
        pg.factorizations


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
    # The steps to I(C5)^30 form 15 and then 35 products, of 35 entries each:
    # 1,750 entries, so the lift is refused before any row of it.
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
    # I(gamma7)^7: 8,142 generators, built level by level on one-word keys
    # (1.3 MB; 2.7 MB when each level sorted its one-byte product rows)
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
