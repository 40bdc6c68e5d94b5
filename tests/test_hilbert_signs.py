"""The Hilbert-series sign oracle of ``helpers``: an independent check of the
search's "no" verdicts, sharing no code with ``linquo``."""

import random
from itertools import combinations_with_replacement

from linquo.fixtures import c5, two_k2
from linquo.graphs import Graph, induced_subgraph
from linquo.harness import scan_small_graphs
from linquo.linquot import find_lq_order
from linquo.power_ideals import edge_ideal, power_generators

from helpers import hilbert_numerator, shortest_chordless_cycle_of_complement, sign_faults


def _power_numerator(g, q):
    return hilbert_numerator(power_generators(edge_ideal(g), q).exps.tolist())


def test_hilbert_numerator_matches_a_count_of_standard_monomials():
    # HS(S/I) counts the monomials that no generator divides, degree by
    # degree; times (1 - t)^n it is K.  With exponents at most 2 in at most 4
    # variables, K has degree at most 8, so its coefficients through degree 10
    # include two that must be 0.
    rng = random.Random(61)
    top = 10
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        counts = [
            sum(
                not any(all(m.count(v) >= row[v] for v in range(n)) for row in rows)
                for m in combinations_with_replacement(range(n), d)
            )
            for d in range(top + 1)
        ]
        for _ in range(n):  # times 1 - t, truncated at degree top
            counts = [c - (counts[d - 1] if d else 0) for d, c in enumerate(counts)]
        k = hilbert_numerator(rows)
        assert len(k) <= 9
        assert k + [0] * (top + 1 - len(k)) == counts


def test_hilbert_numerator_of_the_powers_of_two_disjoint_edges():
    # K(I(2K2)^q) = 1 - (q + 1) t^(2q) + q t^(2q + 2): the t^(2q + 2) term has
    # the wrong sign for a linear resolution, so every restriction
    # certificate has a closed-form cross-check.
    for q in range(1, 5):
        k = _power_numerator(two_k2(), q)
        assert k == [1] + [0] * (2 * q - 1) + [-(q + 1), 0, q]
        assert sign_faults(k, 2 * q) == [2 * q + 2]


def test_no_verified_yes_has_a_wrong_sign():
    checked = 0
    for n in range(2, 6):
        for record in scan_small_graphs(n, 2):
            g = Graph(n, map(tuple, record["edges"]))
            for q, verdict in record["lq"].items():
                if verdict["verdict"] == "yes" and g.edges:
                    assert sign_faults(_power_numerator(g, q), 2 * q) == []
                    checked += 1
    assert checked == 2 + 6 + 18 + 53


def test_every_first_power_no_has_a_wrong_sign_on_the_complements_cycle():
    # I(G) has linear quotients iff the complement of G is chordal (Froberg
    # 1990).  Restricted to W, the vertices of a shortest induced cycle of
    # length >= 4 in the complement, the sign is wrong at t^|W| for every
    # q = 1 "no" on at most 6 vertices.  The whole graph is not enough: C5
    # plus a vertex joined to all five has no order either, but
    # K = 1 - 10t^2 + 20t^3 - 15t^4 + 4t^5, whose signs a linear resolution
    # could have.
    apex = Graph(6, list(c5().edges) + [(v, 5) for v in range(5)])
    for g in (c5(), apex):
        assert find_lq_order(power_generators(edge_ideal(g), 1)).status == "none"
    k = _power_numerator(apex, 1)
    assert k == [1, 0, -10, 20, -15, 4] and sign_faults(k, 2) == []
    assert sign_faults(_power_numerator(c5(), 1), 2) == [5]
    graphs = []
    for n in range(4, 7):
        graphs += [
            Graph(n, map(tuple, record["edges"]))
            for record in scan_small_graphs(n, 1)
            if record["lq"][1]["verdict"] == "no"
        ]
    # the classes whose complement is not chordal: 1 + 7 + 62 of 11 + 34 + 156
    assert len(graphs) == 1 + 7 + 62
    for g in graphs:
        w = shortest_chordless_cycle_of_complement(g)
        assert len(w) in sign_faults(_power_numerator(induced_subgraph(g, w), 1), 2)
