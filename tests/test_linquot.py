import hashlib
import inspect
import json
import random
import sys
import tracemalloc
from itertools import combinations, permutations

import pytest

from linquo import linquot
from linquo.fixtures import (
    FIG2_SQUARE,
    FIG4_SQUARE,
    ISTANBUL,
    c5,
    fig2,
    fig4,
    gamma7,
    two_k2,
)
from linquo.graphs import Graph, complement
from linquo.harness import nonisomorphic_graphs
from linquo.linquot import (
    GeneratorOrdering,
    NotGapfree,
    _extends,
    _search_tables,
    colon_min_gens,
    duplication_order,
    expansion_order,
    find_lq_order,
    ordering_from_multisets,
    verify_linear_quotients,
)
from linquo.orderings import (
    auto_edge_order,
    compatible_orders,
    efficient_ordering,
    pure_power_edge_sequence,
)
from linquo.power_ideals import PowerGenerators, edge_ideal, power_generators

from helpers import from_vars, mixed_radix_verify, one_candidate_colon_tables

A, B, C, D, E = range(5)


def ordering(g, q, multisets):
    pg = power_generators(edge_ideal(g), q)
    return ordering_from_multisets(pg, multisets)


def first_power_ordering(g, edge_sequence):
    pg = power_generators(edge_ideal(g), 1)
    return ordering_from_multisets(pg, [(j,) for j in edge_sequence])


def test_istanbul_passes():
    rep = verify_linear_quotients(ordering(c5(), 2, ISTANBUL))
    assert rep.passed and rep.witness is None


def test_fig2_square_order_passes():
    assert verify_linear_quotients(ordering(fig2(), 2, FIG2_SQUARE)).passed


def test_two_k2_fails_with_colon_witness():
    o = first_power_ordering(two_k2(), (0, 1))
    rep = verify_linear_quotients(o)
    assert not rep.passed
    assert rep.witness.t == 1 and rep.witness.i == 0
    assert rep.witness.colon == from_vars(4, [0, 1])  # a*b


# A 42-entry variant of the fig4 square order that groups every ab-multiple
# up front; it cannot verify, and pins the deterministic first-failure report.
FIG4_SQUARE_BLOCKED = [
    (0, 0), (0, 2), (0, 3), (0, 1), (0, 5), (0, 4), (0, 6), (0, 7),
    (0, 8), (1, 7), (1, 2), (1, 6), (1, 8), (1, 4), (1, 5), (2, 7),
    (2, 3), (2, 6), (2, 8), (2, 5), (3, 7), (3, 6), (3, 8), (3, 4),
    (3, 5), (4, 8), (4, 5), (4, 7), (4, 6), (5, 8), (5, 7), (5, 6),
    (6, 8), (7, 8), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
    (7, 7), (8, 8),
]


def test_blocked_fig4_variant_fails_deterministically():
    o = ordering(fig4(), 2, FIG4_SQUARE_BLOCKED)
    rep = verify_linear_quotients(o)
    assert not rep.passed
    assert (rep.witness.t, rep.witness.i) == (7, 5)
    assert rep.witness.colon == from_vars(6, [1, 3])  # b*q
    assert rep.per_index_variables[7] == {0, 4}  # only a and x are witnessed


def test_per_index_variables():
    o = ordering(c5(), 2, ISTANBUL)
    rep = verify_linear_quotients(o)
    # position 1 is e1*e2; its only earlier colon e1^2 : e1e2 = a
    assert rep.per_index_variables[0] == frozenset()
    assert rep.per_index_variables[1] == {A}


def test_sequence_must_be_permutation(monkeypatch):
    pg = power_generators(edge_ideal(two_k2()), 1)
    with pytest.raises(ValueError, match="each of the 2 generators exactly once"):
        GeneratorOrdering(pg, (0, 0))
    with pytest.raises(ValueError):
        ordering_from_multisets(pg, [(0,), (0,)])
    with pytest.raises(ValueError):
        ordering_from_multisets(pg, [(0, 1)])
    with pytest.raises(ValueError, match="not a factorization of any generator"):
        ordering_from_multisets(power_generators(edge_ideal(two_k2()), 2), [(0, 99)])
    # The constructions leave the check to GeneratorOrdering: a locate that
    # repeats one index (and so drops another), or that loses a row (-1), fails
    # each of them.  The pure-power edge sequence is read off ``least``, not
    # through locate, so efficient_ordering still lifts along all five edges
    # and only the lift's own locate is at fault.
    ist = ordering(c5(), 2, ISTANBUL)
    sq = ordering(fig2(), 2, FIG2_SQUARE)
    locate = PowerGenerators.locate

    def repeating(self, rows):
        seq = locate(self, rows)
        seq[-1] = seq[0]
        return seq

    def losing(self, rows):
        seq = locate(self, rows)
        seq[-1] = -1
        return seq

    monkeypatch.setattr(PowerGenerators, "locate", repeating)
    assert sorted(pure_power_edge_sequence(ist)) == [0, 1, 2, 3, 4]
    for build in (
        lambda: ordering_from_multisets(ist.base, ISTANBUL),
        lambda: efficient_ordering(ist, 3),
        lambda: duplication_order(ist, 0),
        lambda: expansion_order(sq, 4),
    ):
        with pytest.raises(ValueError, match="exactly once"):
            build()
    # expansion_order's duplication prefix, its last row lost: fig2 at x.
    monkeypatch.setattr(PowerGenerators, "locate", losing)
    with pytest.raises(ValueError, match="each of the 70 generators exactly once"):
        expansion_order(sq, 4)


def test_colon_min_gens():
    ist = ordering(c5(), 2, ISTANBUL)
    assert colon_min_gens(ist, 0) == []
    names = ("a", "b", "c", "d", "e")
    # last position is e4^2 = d^2 e^2
    got = [m.format(names) for m in colon_min_gens(ist, 14)]
    assert got == ["c", "a"]
    # independent route: colon every earlier generator, keep divisibility-minimal
    mons = ist.monomials()
    cols = {mons[j].colon(mons[14]) for j in range(14)}
    minimal = {x for x in cols if not any(y != x and y.divides(x) for y in cols)}
    assert set(colon_min_gens(ist, 14)) == minimal


def test_colon_min_gens_cube_last_position():
    o3 = efficient_ordering(ordering(c5(), 2, ISTANBUL), 3)
    mons = o3.monomials()
    t = mons.index(from_vars(5, [D, E, D, E, D, E]))
    assert t == 34
    assert {m.format(("a", "b", "c", "d", "e")) for m in colon_min_gens(o3, t)} == {"a", "c"}


def test_find_lq_order_c5_square():
    pg = power_generators(edge_ideal(c5()), 2)
    res = find_lq_order(pg)
    assert res.status == "found"
    assert verify_linear_quotients(res.ordering).passed
    assert res.ordering.provenance == "search"


def test_find_lq_order_definite_no():
    for q in (1, 2):
        pg = power_generators(edge_ideal(two_k2()), q)
        res = find_lq_order(pg)
        assert res.status == "none"
    # the pentagon itself (first power) has no such order
    pg1 = power_generators(edge_ideal(c5()), 1)
    assert find_lq_order(pg1).status == "none"


def test_find_lq_order_budget_exhaustion():
    pg = power_generators(edge_ideal(c5()), 1)
    res = find_lq_order(pg, budget=1)
    assert res.status == "unknown"
    with pytest.raises(ValueError):
        find_lq_order(pg, budget=0)


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _graph_class(key):
    return Graph(5, [(int(e[0]), int(e[1])) for e in key.split()])


# (graph, q, budget) -> (status, nodes, backtracks, sha256 of the found
# sequence as space-separated indices).  The search tree is pinned: a change to
# how prefixes are tested must visit the same nodes in the same order.
SEARCH_TREE_PINS = [
    (_graph_class("02 04 12 13"), 2, 10**6, ("none", 141, 141, None)),
    (_graph_class("01 04 12 13 23"), 2, 2 * 10**4, ("none", 2918, 2918, None)),
    (complement(cycle(8)), 1, 2 * 10**4, ("unknown", 20001, 19994, None)),
    (
        fig4(),
        3,
        10**6,
        ("found", 138, 0, "dba70018f5da62b02ee38ae6bff50efd75155b2ae2176d70784ca612aa2985f4"),
    ),
    (
        gamma7(),
        2,
        10**6,
        ("found", 61, 0, "37b7eda335176df3fa110246a3853f2f445d279f758917214121d06c8eaf9c00"),
    ),
]


def test_find_lq_order_search_tree_is_pinned():
    for g, q, budget, want in SEARCH_TREE_PINS:
        res = find_lq_order(power_generators(edge_ideal(g), q), budget)
        digest = None
        if res.ordering is not None:
            text = " ".join(map(str, res.ordering.sequence))
            digest = hashlib.sha256(text.encode()).hexdigest()
        assert (res.status, res.nodes, res.backtracks, digest) == want


def test_find_lq_order_exhausts_the_co_cycles():
    # co-C_k is gapfree and not cochordal, so its edge ideal has no order; a
    # prefix set found dead is not entered again under another order, which
    # keeps the exhaustive search small.
    for k, most in ((5, 15), (6, 133), (7, 1652), (8, 28874)):
        res = find_lq_order(power_generators(edge_ideal(complement(cycle(k))), 1))
        assert res.status == "none"
        assert res.nodes <= most


def test_find_lq_order_matches_the_permutation_oracle_on_every_small_class():
    checked = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for q in (1, 2):
                pg = power_generators(edge_ideal(g), q)
                if pg.count > 6:
                    continue
                exists = any(
                    verify_linear_quotients(GeneratorOrdering(pg, perm)).passed
                    for perm in permutations(range(pg.count))
                )
                res = find_lq_order(pg)
                assert res.status == ("found" if exists else "none"), (g, q)
                checked += 1
    assert checked > 40


def test_duplication_order_pentagon_every_vertex():
    ist = ordering(c5(), 2, ISTANBUL)
    for x in range(5):
        o = duplication_order(ist, x)
        assert verify_linear_quotients(o).passed
        assert o.provenance == "duplication"
        # each x-divisible generator contributes its substitution chain
        extra = sum(m.exps[x] for m in ist.monomials())
        assert len(o) == len(ist) + extra


def test_duplication_order_fixture_chain_q_le_3():
    cases = [
        (ordering(c5(), 2, ISTANBUL), 5),
        (efficient_ordering(ordering(c5(), 2, ISTANBUL), 3), 5),
        (ordering(fig2(), 2, FIG2_SQUARE), 6),
        (ordering(fig4(), 2, FIG4_SQUARE), 6),
    ]
    for base, n in cases:
        for x in range(n):
            assert verify_linear_quotients(duplication_order(base, x)).passed


def test_duplication_order_without_the_vertex_is_identity():
    g = Graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    pg = power_generators(edge_ideal(g), 1)
    base = ordering_from_multisets(pg, [(0,), (1,)])
    o = duplication_order(base, 3)
    assert [m.exps[:4] for m in o.monomials()] == [m.exps for m in base.monomials()]
    assert len(o) == len(base)


P3 = Graph(3, [(0, 1), (1, 2)], labels=("a", "x", "b"))


def test_expansion_order_p3_all_b_orders():
    # Nothing lies outside the closed neighborhood of x: B is empty.
    for s in (1, 2):
        pg = power_generators(edge_ideal(P3), s)
        base = find_lq_order(pg).ordering
        o = expansion_order(base, 1)
        assert o.sequence == expansion_order(base, 1, ()).sequence
        assert verify_linear_quotients(o).passed
        assert o.provenance == "expansion"


def test_expansion_order_fig2_both_b_orders():
    base = ordering(fig2(), 2, FIG2_SQUARE)
    # B is p and q; with no b_order, B is taken in label order
    assert expansion_order(base, 4).sequence == expansion_order(base, 4, (2, 3)).sequence
    for b in permutations((2, 3)):
        o = expansion_order(base, 4, b)
        assert verify_linear_quotients(o).passed


def test_expansion_gate_rejects_dependent_exterior():
    ist = ordering(c5(), 2, ISTANBUL)
    with pytest.raises(NotGapfree):
        expansion_order(ist, 0)
    for x in (5, -1):
        for transport in (expansion_order, duplication_order):
            with pytest.raises(ValueError, match="out of range"):
                transport(ist, x)


def test_expansion_gate_is_the_gapfree_test_on_the_expansion():
    # ab and cd with x adjacent to a and c: the exterior {b, d} of x is
    # independent, yet G^[x] keeps ab and cd unjoined, so it is not gapfree.
    # The gate comes before the base order is verified: this one fails.
    a, b, c, d, x = range(5)
    g = Graph(5, [(a, b), (c, d), (x, a), (x, c)])
    o = first_power_ordering(g, (0, 1, 2, 3))
    assert not verify_linear_quotients(o).passed
    with pytest.raises(NotGapfree):
        expansion_order(o, x)


def test_expansion_order_b_order_validation():
    base = ordering(fig2(), 2, FIG2_SQUARE)
    with pytest.raises(ValueError):
        expansion_order(base, 4, b_order=(2, 2))
    with pytest.raises(ValueError):
        expansion_order(base, 4, b_order=(2, 3, 4))


def _mu(pg, m):
    """The least number of xy factors, xy the last edge of the expansion,
    over the factorizations of the generator m."""
    xy = pg.ideal.nedges - 1
    return min(f.count(xy) for f in pg.factorizations[pg.locate([m.exps])[0]])


def test_mu_values():
    o = expansion_order(ordering(fig2(), 2, FIG2_SQUARE), 4)
    pg = o.base
    y = 6
    # a generator of the duplicated ideal's power keeps mu = 0
    assert _mu(pg, from_vars(7, [0, 4, 0, 4])) == 0  # (ax)^2
    # (xy)^s needs every factor
    assert _mu(pg, from_vars(7, [4, y, 4, y])) == 2
    # (xy) * ab refactors as (xa)(yb) since a and b both neighbor x
    assert _mu(pg, from_vars(7, [4, y, 0, 1])) == 0
    # (xy) * pz cannot avoid the clique edge: p is outside N(x)
    assert _mu(pg, from_vars(7, [4, y, 2, 5])) == 1
    assert pg.locate([from_vars(7, [0, 0, 0, 0]).exps]) == [-1]  # a^4 is not a generator
    mus = [_mu(pg, m) for m in o.monomials()]
    assert mus == sorted(mus)  # rule 1 dominates the suffix sort


def test_mu_against_direct_minimum():
    # The order is the mu = 0 generators, the duplication order, and then
    # the rest sorted by mu, the least clique-edge count over factorizations.
    for s in (1, 2, 3):
        base = find_lq_order(power_generators(edge_ideal(P3), s)).ordering
        o = expansion_order(base, 1)
        k = len(duplication_order(base, 1))
        mus = [_mu(o.base, m) for m in o.monomials()]
        assert mus[:k] == [0] * k and all(mus[k:]) and mus == sorted(mus)
        assert max(mus) == s


def test_expansion_prefix_is_duplication_order():
    base = ordering(fig2(), 2, FIG2_SQUARE)
    o = expansion_order(base, 4)
    dup = duplication_order(base, 4)
    prefix = o.monomials()[: len(dup)]
    assert [m.exps for m in prefix] == [m.exps for m in dup.monomials()]
    suffix_mus = [_mu(o.base, m) for m in o.monomials()[len(dup):]]
    assert all(v > 0 for v in suffix_mus)
    assert suffix_mus == sorted(suffix_mus)  # rule 1 dominates the suffix sort


def _oracle_check(rng, q, max_count, want, max_n, density):
    """Compare the search with a brute-force walk over all permutations on
    ``want`` random graphs whose q-th power has 1..max_count generators."""
    checked = 0
    while checked < want:
        n = rng.randint(3, max_n)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        pg = power_generators(edge_ideal(g), q)
        if not 1 <= pg.count <= max_count:
            continue
        checked += 1
        res = find_lq_order(pg)
        assert res.status in ("found", "none")
        exists = False
        for perm in permutations(range(pg.count)):
            o = GeneratorOrdering(pg, perm)
            if verify_linear_quotients(o).passed:
                exists = True
                break
        assert (res.status == "found") == exists


def test_search_verdict_matches_oracle_on_random_graphs():
    _oracle_check(random.Random(31), 1, 6, 25, max_n=5, density=0.5)


def test_search_verdict_matches_oracle_on_random_squares():
    # A square with at most 7 generators has at most 3 edges, hence the
    # sparse draws; they include 2K2 and P3 + K2, whose squares have no order.
    _oracle_check(random.Random(37), 2, 7, 25, max_n=6, density=0.3)


def test_extension_check_matches_colon_min_gens():
    # The search accepts c after a prefix exactly when the colon ideal of the
    # prefix at c has only degree-one minimal generators.
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 6)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
        if not g.edges:
            continue
        pg = power_generators(edge_ideal(g), rng.randint(1, 3))
        if pg.count > 60:
            continue
        seq = list(range(pg.count))
        rng.shuffle(seq)
        t = rng.randrange(pg.count)
        c = seq[t]
        mask = sum(1 << p for p in seq[:t])
        mins = colon_min_gens(GeneratorOrdering(pg, tuple(seq)), t)
        want = all(m.degree() == 1 for m in mins)
        assert _extends(_search_tables(pg.exps)[c], mask) == want


def test_search_tables_match_the_one_candidate_tables():
    # The search's tables come from the divisor keys and the ``_below`` masks,
    # the oracle's from one pass over E - E[c]: the units agree for every c,
    # and the oracle's wide colons are the rows other than c and its units,
    # which is why ``_extends`` needs no wide mask.
    rng = random.Random(43)
    powers = [power_generators(edge_ideal(g), q) for g in (c5(), fig4(), gamma7()) for q in (1, 2)]
    while len(powers) < 36:
        n = rng.randint(3, 6)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        if g.edges:
            pg = power_generators(edge_ideal(g), rng.randint(1, 3))
            if pg.count <= 90:
                powers.append(pg)
    for pg in powers:
        r = pg.count
        tables = _search_tables(pg.exps)
        assert len(tables) == r
        for c, units in enumerate(tables):
            wide, want = one_candidate_colon_tables(pg.exps, c)
            assert units == want
            unit_rows = 0
            for unit, _ in units:
                unit_rows |= unit
            assert wide == (1 << r) - 1 & ~(1 << c | unit_rows)


def test_search_tables_of_a_single_generator():
    # One edge: every power has one generator, no unit colon, and the empty
    # prefix extends.
    for q in (1, 2, 3):
        pg = power_generators(edge_ideal(Graph(2, [(0, 1)])), q)
        assert pg.count == 1
        assert _search_tables(pg.exps) == [()]
        assert _extends((), 0)
        assert find_lq_order(pg).ordering.sequence == (0,)


def test_search_tables_of_two_disjoint_edges():
    # I(2K2) = (ab, cd): each colon against the other is the whole other
    # edge, so neither generator extends a prefix holding the other.
    pg = power_generators(edge_ideal(two_k2()), 1)
    tables = _search_tables(pg.exps)
    assert tables == [(), ()]
    assert not _extends(tables[0], 1 << 1)
    assert not _extends(tables[1], 1 << 0)
    assert _extends(tables[0], 0) and _extends(tables[1], 0)


def reference_verify(o):
    """The pairwise colon criterion, one pair at a time.

    Returns (passed, witness as (t, i, colon exponents) or None, the set of
    degree-one colon variables at every position).
    """
    rows = o.exps().tolist()
    per_index = []
    witness = None
    for t, ut in enumerate(rows):
        colons = [tuple(max(a - b, 0) for a, b in zip(ui, ut)) for ui in rows[:t]]
        vars_t = {c.index(1) for c in colons if sum(c) == 1}
        per_index.append(vars_t)
        if witness is None:
            for i, c in enumerate(colons):
                if sum(c) > 1 and not any(c[v] for v in vars_t):
                    witness = (t, i, c)
                    break
    return witness is None, witness, per_index


def _report_fields(rep):
    w = rep.witness
    return (
        rep.passed,
        None if w is None else (w.t, w.i, w.colon.exps),
        [set(s) for s in rep.per_index_variables],
    )


def test_verifier_matches_pairwise_reference():
    # Random orders fail early.  Perturbed found orders fail later or not at
    # all: an adjacent swap fails, if at all, where it is made; moving a
    # generator from the later half to the end mostly fails late.  All must
    # agree with the reference at every position.
    rng = random.Random(43)
    orders = 0
    failed = 0
    late = 0
    while orders < 400:
        n = rng.randint(2, 6)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        if not g.edges:
            continue
        pg = power_generators(edge_ideal(g), rng.randint(1, 3))
        if pg.count > 60:
            continue
        seq = list(range(pg.count))
        rng.shuffle(seq)
        candidates = [seq]
        found = find_lq_order(pg, budget=2000).ordering
        if found is not None and pg.count > 1:
            for _ in range(2):
                swapped = list(found.sequence)
                k = rng.randrange(pg.count - 1)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                moved = list(found.sequence)
                moved.append(moved.pop(rng.randrange(pg.count // 2, pg.count)))
                candidates += [swapped, moved]
        for s in candidates:
            o = GeneratorOrdering(pg, tuple(s))
            got = _report_fields(verify_linear_quotients(o))
            assert got == reference_verify(o)
            orders += 1
            failed += not got[0]
            late += not got[0] and got[1][0] > 2 * pg.count // 3
    assert 0 < late < failed < orders


def _fig4_cube():
    o2 = ordering(fig4(), 2, FIG4_SQUARE)
    return compatible_orders(fig4(), pure_power_edge_sequence(o2), o2, 3)


def _c5k3_cube_from_transported_square():
    o2 = ordering(fig2(), 2, FIG2_SQUARE)
    for _ in range(2):
        o2 = expansion_order(o2, 4)
    g = o2.base.ideal.graph
    return compatible_orders(g, auto_edge_order(g, o2)[0], o2, 3)


# sha256 of the JSON of (passed, witness, per-position variables); a rewrite
# of the verifier must leave every report unchanged.
VERIFIER_PINS = [
    (_fig4_cube, "59bec9fa1a692d259761572c54b727c9498c582c876e15a16e5e0a7e92457773"),
    (
        lambda: duplication_order(_fig4_cube(), 5),  # gamma7 = fig4 with z duplicated
        "109ad1aa855d31c0e0a7b25acda08583fa0a68341b40163d4477b4431eed5df2",
    ),
    (
        _c5k3_cube_from_transported_square,  # fails at (t, i) = (203, 113)
        "c708fcbe0beed8cca6c231394a2a15ab2ad7ee0ff7e5fd206e39d3e2cf4979df",
    ),
]


def test_verifier_reports_are_pinned():
    for build, want in VERIFIER_PINS:
        passed, witness, per_index = _report_fields(verify_linear_quotients(build()))
        text = json.dumps([passed, witness, [sorted(s) for s in per_index]])
        assert hashlib.sha256(text.encode()).hexdigest() == want


def _with_variants(o, rng):
    """The order, one adjacent swap of it and one shuffle of it."""
    swapped = list(o.sequence)
    k = rng.randrange(len(o) - 1)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    shuffled = list(o.sequence)
    rng.shuffle(shuffled)
    return [o] + [GeneratorOrdering(o.base, tuple(s)) for s in (swapped, shuffled)]


def _mixed_radix_corpus():
    rng = random.Random(47)
    orders = []
    for o, top in ((ordering(fig4(), 2, FIG4_SQUARE), 5), (ordering(c5(), 2, ISTANBUL), 10)):
        for q in range(2, top + 1):
            lifted = o if q == 2 else efficient_ordering(o, q)
            orders += _with_variants(lifted, rng)
    return orders


@pytest.mark.parametrize("block", [None, 1, 64, 65], ids=["None", "cover-1", "cover-64", "cover-65"])
def test_verifier_matches_the_mixed_radix_oracle(monkeypatch, block):
    # Cover blocks of 1, 64 and 65 positions put witnesses on both sides of a
    # block edge: the adjacent swaps of c5's 1,001-generator order at 63, 65
    # and 127 fail at (t, i) = (63, 61), (65, 55) and (127, 126).
    if block is not None:
        monkeypatch.setattr(linquot, "_COVER_BLOCK", block)
    corpus = _mixed_radix_corpus()
    c5_q10 = next(o for o in corpus if len(o) == 1001)
    failed = 0
    for o in corpus:
        got = verify_linear_quotients(o)
        want = mixed_radix_verify(o)
        assert got.passed == want.passed
        assert got.witness == want.witness
        assert got.per_index_variables == want.per_index_variables
        failed += not got.passed
    assert failed == 16  # the 13 shuffles and 3 of the 13 swaps
    witnesses = []
    for k in (63, 65, 127):
        swapped = list(c5_q10.sequence)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        o = GeneratorOrdering(c5_q10.base, tuple(swapped))
        got = verify_linear_quotients(o)
        assert got == mixed_radix_verify(o)
        witnesses.append((got.witness.t, got.witness.i))
    assert witnesses == [(63, 61), (65, 55), (127, 126)]


def _k5_cube_past_64_vertices():
    # K5 on vertices spread up to 69: divisor keys hold 70 int64 exponents.
    spread = (0, 31, 64, 66, 69)
    g = Graph(70, list(combinations(spread, 2)))
    found = find_lq_order(power_generators(edge_ideal(g), 2)).ordering
    return efficient_ordering(found, 3)


def test_verifier_keys_are_exact_past_64_vertices():
    o = _k5_cube_past_64_vertices()
    rep = verify_linear_quotients(o)
    assert rep.passed and _report_fields(rep) == reference_verify(o)
    for v in _with_variants(o, random.Random(53)):
        assert verify_linear_quotients(v) == mixed_radix_verify(v)


def test_unit_colon_paths_agree(monkeypatch):
    # The dict walk and the sort are each forced on every order in turn, from
    # 15 to 1,001 generators and on 70 vertices; masks and reports must agree.
    rng = random.Random(59)
    orders = _mixed_radix_corpus()
    for build in [b for b, _ in VERIFIER_PINS] + [_k5_cube_past_64_vertices]:
        orders += _with_variants(build(), rng)
    results = []
    for rows in (0, max(map(len, orders)) + 1):
        monkeypatch.setattr(linquot, "_SORT_ROWS", rows)
        results.append(
            [(linquot._unit_colon_masks(o.exps()), verify_linear_quotients(o)) for o in orders]
        )
    assert results[0] == results[1]
    assert len(orders) == 51 and sum(not rep.passed for _, rep in results[0]) == 22


def _gamma7_tower_order():
    g = gamma7()
    o2 = find_lq_order(power_generators(edge_ideal(g), 2)).ordering
    return compatible_orders(g, auto_edge_order(g, o2)[0], o2, 7)


def test_verifier_memory_on_the_c5_s16_order():
    # 4,845 and 8,142 generators (c5 at s = 16, and gamma7 at q = 7 as the
    # tower builds it), both verified through one sort of packed divisor
    # keys.  That peaks at about 1.06 MB on c5 and 1.9 MB on gamma7, as the
    # sort of narrow divisor rows did; the dict walk's divisor keys, built in
    # blocks of positions, peaked at 2.09 MB on gamma7, and keys for a whole
    # order at once at about 4.8 MB on c5.
    c5_s16 = efficient_ordering(ordering(c5(), 2, ISTANBUL), 16)
    for o, r in ((c5_s16, 4845), (_gamma7_tower_order(), 8142)):
        tracemalloc.start()
        try:
            rep = verify_linear_quotients(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and len(o) == r
        assert peak < 2_500_000


def test_find_lq_order_depth_is_not_bounded_by_recursion():
    # The search goes one level deeper per generator; c5 q=5 is found without
    # backtracking, so its depth is the generator count.
    pg = power_generators(edge_ideal(c5()), 5)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        res = find_lq_order(pg)
    finally:
        sys.setrecursionlimit(limit)
    assert res.status == "found" and res.backtracks == 0
    assert len(res.ordering) == pg.count > 50


def test_find_lq_order_memory_does_not_grow_with_depth_squared():
    # c5 q=8 (r=495) is found without backtracking; one candidate list per
    # prefix length held about 4 MB at this depth.
    pg = power_generators(edge_ideal(c5()), 8)
    tracemalloc.start()
    try:
        res = find_lq_order(pg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "found" and len(res.ordering) == 495
    assert peak < 2_000_000
