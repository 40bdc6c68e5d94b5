import json
import random
from itertools import combinations, islice, permutations

import numpy as np
import pytest

from linquo import cli, enumeration, fixtures, harness, power_ideals
from linquo.fixtures import c5, fig4, gamma7, two_k2
from linquo.graphs import Graph, induced_subgraph, is_cdcc, is_gapfree
from linquo.harness import (
    all_labeled_graphs,
    canonical_form,
    check_theorem64_premises,
    classify_graph,
    lq_verdict,
    nonisomorphic_graphs,
    scan_small_graphs,
)
from linquo.linquot import OrderingPreconditionError, find_lq_order, ordering_from_multisets
from linquo.power_ideals import edge_ideal, power_generators

from helpers import brute_least_mask, count_verifier_calls, relabelings


# Classes of graphs on n = 0..6 vertices (OEIS A000088).
CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156]


@pytest.fixture(scope="module")
def classes():
    return {n: list(nonisomorphic_graphs(n)) for n in range(len(CLASS_COUNTS))}


def edge_mask(g: Graph) -> int:
    pairs = list(combinations(range(g.n), 2))
    return sum(1 << pairs.index(e) for e in g.edges)


def brute_nonisomorphic_graphs(n: int):
    """The oracle: the first labeled graph of each class in edge-mask order,
    by n!-relabeling dedup over every labeled graph."""
    seen: set[int] = set()
    for g in all_labeled_graphs(n):
        key = brute_least_mask(g)
        if key not in seen:
            seen.add(key)
            yield g


def test_all_labeled_graph_counts():
    assert sum(1 for _ in all_labeled_graphs(3)) == 8
    assert sum(1 for _ in all_labeled_graphs(4)) == 64


def test_nonisomorphic_counts(classes):
    assert [len(classes[n]) for n in range(len(CLASS_COUNTS))] == CLASS_COUNTS


def test_nonisomorphic_graphs_match_the_brute_force_dedup(classes):
    for n in range(6):
        want = [g.edges for g in brute_nonisomorphic_graphs(n)]
        assert [g.edges for g in classes[n]] == want


def test_canonical_form_is_the_least_mask(classes):
    rng = random.Random(8)
    for n in [rng.randint(0, 6) for _ in range(30)] + [7] * 3:
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < rng.random()])
        assert canonical_form(g) == brute_least_mask(g)
    # Each representative is its class minimum: every class on 5 and 6
    # vertices (each call builds the tables on g.n - 1 vertices afresh).
    for g in classes[5] + classes[6]:
        assert canonical_form(g) == edge_mask(g)


def test_relabel_tables_match_brute_force(classes):
    # Every entry of the tables on k <= 5 vertices against the relabelings
    # of the oracle, row p in ``permutations`` order.
    for k in range(6):
        masks = np.array([edge_mask(g) for g in classes[k]], dtype=np.int64)
        got_classes, cls_of, perm_of, pre, orbit = enumeration._relabel_tables(masks, k)
        perms = list(permutations(range(k)))
        relabel = relabelings(k)
        images = [relabel[:, [i for i in range(relabel.shape[1]) if r >> i & 1]].sum(axis=1) for r in masks]
        pairs = list(combinations(range(k), 2))
        for mask in range(1 << len(pairs)):
            least = brute_least_mask(Graph(k, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]))
            assert got_classes[cls_of[mask]] == least
            assert perm_of[mask] == list(images[cls_of[mask]]).index(mask)
        vertex_sets = range(1 << k)
        for p, perm in enumerate(perms):
            assert list(pre[p]) == [sum(1 << v for v in range(k) if s >> perm[v] & 1) for s in vertex_sets]
        for c, image in enumerate(images):
            auts = [perm for perm, to in zip(perms, image) if to == masks[c]]
            want = [min(sum(1 << perm[v] for v in range(k) if s >> v & 1) for perm in auts) for s in vertex_sets]
            assert list(orbit[c]) == want


def test_child_decision_matches_the_brute_force_least_mask(classes):
    # The deletion rule against the brute-force oracle, on the tables of the
    # stage below: every child (a new vertex 0 with any neighbourhood) of
    # every class on at most 5 vertices, and random graphs on at most 6, each
    # size decided in one array pass.  A child is kept exactly when it is its
    # class minimum.
    graphs = [
        Graph(m + 1, [(0, u + 1) for u in range(m) if nbhd >> u & 1] + [(u + 1, v + 1) for u, v in g.edges])
        for m in range(6)
        for g in classes[m]
        for nbhd in range(1 << m)
    ]
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(1, 6)
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < rng.random()]))
    kept = 0
    for n in range(1, 7):
        sized = [g for g in graphs if g.n == n]
        own = np.array([edge_mask(g) for g in sized], dtype=np.int64)
        below = np.array([edge_mask(g) for g in classes[n - 1]], dtype=np.int64)
        decided = enumeration._least(own, n, enumeration._relabel_tables(below, n - 1))
        least = np.array([brute_least_mask(g) for g in sized])
        assert list(decided) == list(least)
        assert list(decided == own) == list(own == least)
        kept += int((decided == own).sum())
    assert kept >= sum(len(classes[n]) for n in range(1, 7))  # each class minimum is a child


def test_nonisomorphic_graphs_match_the_networkx_atlas(classes):
    # The atlas side by the brute-force oracle, which shares no code with the
    # enumerator: on n <= 7 vertices (1,044 classes on 7), each atlas graph is
    # the class of exactly one representative.
    nx = pytest.importorskip("networkx")
    reps = {**classes, 7: list(nonisomorphic_graphs(7))}
    atlas: dict[int, list[int]] = {n: [] for n in reps}
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() in atlas:
            atlas[a.number_of_nodes()].append(brute_least_mask(Graph(a.number_of_nodes(), a.edges())))
    assert len(atlas[7]) == 1044
    for n, graphs in reps.items():
        assert sorted(atlas[n]) == [edge_mask(g) for g in graphs]


def test_each_enumeration_builds_its_own_tables(monkeypatch):
    # Nothing is kept between calls: two enumerations on 6 vertices build the
    # tables of every stage below twice, and yield the same graphs.
    built = []

    def counting(classes, k):
        built.append(k)
        return relabel_tables(classes, k)

    relabel_tables = enumeration._relabel_tables
    monkeypatch.setattr(enumeration, "_relabel_tables", counting)
    first = [g.edges for g in nonisomorphic_graphs(6)]
    assert built == [1, 2, 3, 4, 5]
    assert [g.edges for g in nonisomorphic_graphs(6)] == first
    assert built == [1, 2, 3, 4, 5] * 2


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(
            n, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert canonical_form(g) == canonical_form(relabeled)
    assert canonical_form(Graph(4, [(0, 1), (1, 2), (2, 3)])) != canonical_form(
        Graph(4, [(0, 1), (0, 2), (0, 3)])
    )


def test_lq_verdict_recorded_orders_verify(monkeypatch):
    rec = lq_verdict(c5(), 2)
    assert rec["verdict"] == "yes"
    assert len(rec["order"]) == 15
    assert lq_verdict(two_k2(), 1)["verdict"] == "no"
    monkeypatch.setattr(power_ideals, "CAP", 3)
    assert lq_verdict(c5(), 2)["verdict"] == "unknown"


def test_restriction_agrees_with_the_plain_search(classes):
    # Every class on at most 5 vertices, q <= 2: a non-gapfree class is
    # decided on its induced 2K2, a gapfree one by the search on G itself,
    # and wherever the plain search decides, the verdicts agree.
    plain = {"none": "no", "found": "yes"}
    for n in range(6):
        for g in classes[n]:
            for q in (1, 2):
                rec = lq_verdict(g, q, budget=2 * 10**4)
                if is_gapfree(g):
                    assert rec["by"] == "search" and "W" not in rec
                else:
                    assert rec["verdict"] == "no" and rec["by"] == "restriction"
                    sub = induced_subgraph(g, rec["W"])
                    (a, b), (c, d) = sub.edges  # two disjoint edges, nothing else
                    assert sub.n == 4 and len({a, b, c, d}) == 4
                    assert rec["nodes"] == q + 1
                res = find_lq_order(power_generators(edge_ideal(g), q), 2 * 10**4)
                if res.status != "unknown":
                    assert rec["verdict"] == plain[res.status]


def test_restriction_sub_search_takes_q_plus_one_nodes():
    # Vertex 0 isolated, the edge 12, and the triangle 456 with 3 hanging off
    # 4: W is the first induced 2K2 in combinations order.
    g = Graph(7, [(1, 2), (3, 4), (4, 5), (5, 6), (4, 6)])
    for q in range(1, 9):
        want = {"verdict": "no", "by": "restriction", "W": [0, 1, 2, 3], "nodes": q + 1}
        assert lq_verdict(two_k2(), q) == want
        assert lq_verdict(g, q) == {**want, "W": [1, 2, 3, 4]}


def test_restriction_needs_an_exhausted_sub_search(monkeypatch):
    # The sub-search on I(2K2)^2 takes 3 nodes: a budget of 3 certifies, a
    # budget of 1 leaves it unfinished and the full search reports the budget.
    assert lq_verdict(two_k2(), 2, budget=3)["by"] == "restriction"
    want = {"verdict": "unknown", "nodes": 2, "reason": "budget of 1 nodes exhausted"}
    assert lq_verdict(two_k2(), 2, budget=1) == want
    # A cap below the sub-power's 3 multisets of 2 + 4 entries: the cap is
    # reported for I(G), whose 4 edges on 5 vertices hold 20.
    p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    monkeypatch.setattr(power_ideals, "CAP", 17)
    rec = lq_verdict(p5, 2)
    reason = "4 edges on 5 vertices (20 entries) exceed cap 17"
    assert rec == {"verdict": "unknown", "reason": reason}


def test_scan_small_graphs_classifier_consistency():
    records = scan_small_graphs(4, 2)
    assert len(records) == 11
    for rec in records:
        if not rec["edges"]:
            continue
        if rec["cochordal"]:
            assert rec["lq"][1]["verdict"] == "yes"
            assert rec["lq"][2]["verdict"] == "yes"
        if not rec["gapfree"]:
            assert rec["lq"][1]["verdict"] == "no"
            assert rec["lq"][2]["verdict"] == "no"
        for q in (1, 2):
            if rec["lq"][q]["verdict"] == "yes":
                assert rec["gapfree"]
    # deterministic
    again = scan_small_graphs(4, 2)
    assert records == again


def test_scan_rejects_large_n(monkeypatch):
    # Refused before any table is built: n = 8 would need the tables on 7
    # vertices, 2^21 masks and 1,044 classes x 5,040 relabelings.
    def enumerate_nothing(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(enumeration, "_relabel_tables", enumerate_nothing)
    for n in (8, 9):
        with pytest.raises(ValueError):
            next(nonisomorphic_graphs(n))
        with pytest.raises(ValueError):  # the same refusal, through the scan
            scan_small_graphs(n, 1)
        with pytest.raises(ValueError, match="desk-scale only"):
            canonical_form(Graph(n, [(0, 1)]))


def test_check_theorem64_premises_pentagon():
    report = check_theorem64_premises(c5(), q_through=7)
    assert report["holds_through"] == 7
    assert report["implied"] is not None
    assert report["computed"][7]["count"] == 330
    assert report["edge_order_source"] in ("pure-powers", "peel")


def test_check_theorem64_premises_rejects_a_tower_below_the_square():
    for q_through in (1, 0):
        with pytest.raises(ValueError):
            check_theorem64_premises(c5(), q_through=q_through)


def test_check_theorem64_premises_verifies_each_power_once(monkeypatch):
    # The square is checked once, before the cube is lifted from it along the
    # edge order; every later power is lifted from the one below and verified
    # once.
    verified = count_verifier_calls(monkeypatch)
    o2 = fixtures.builtin_order("fig4", power_generators(edge_ideal(fig4()), 2))
    report = check_theorem64_premises(fig4(), o2=o2)
    assert report["holds_through"] == 7
    assert verified == [2, 3, 4, 5, 6, 7]
    # A searched square's only verification is the search's own.
    verified.clear()
    assert check_theorem64_premises(fig4(), q_through=4)["holds_through"] == 4
    assert verified == [2, 3, 4]


def test_check_theorem64_premises_rejects_a_failing_supplied_square():
    pg = power_generators(edge_ideal(c5()), 2)
    failing = ordering_from_multisets(pg, list(reversed(fixtures.ISTANBUL)))
    for q_through in (2, 7):
        with pytest.raises(
            OrderingPreconditionError,
            match="check_theorem64_premises requires a verified linear-quotients order",
        ):
            check_theorem64_premises(c5(), q_through=q_through, o2=failing)


def test_check_theorem64_premises_rejects_a_square_of_another_graph():
    # The istanbul square orders I(c5)^2; g has five edges too, but it is not
    # c5, so the tower refuses the square even when it stops at the square.
    ist = fixtures.builtin_order("istanbul", power_generators(edge_ideal(c5()), 2))
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    for q_through in (2, 3):
        with pytest.raises(ValueError, match="^square order belongs to another graph or edge sequence$"):
            check_theorem64_premises(g, q_through=q_through, o2=ist)


def test_check_theorem64_premises_gap_graph():
    report = check_theorem64_premises(two_k2(), q_through=7)
    assert report["first_failure_q"] == 2
    assert report["computed"][2] == {
        "verdict": "no", "by": "restriction", "W": [0, 1, 2, 3], "nodes": 3
    }
    assert report["implied"] is None


def test_classify_graph_gamma7():
    info = classify_graph(gamma7())
    assert info["cdcc"] and info["gapfree"]
    assert not info["cochordal"]
    assert info["matching_number"] == 3
    assert all(info["induced"].values())
    info4 = classify_graph(fig4())
    assert not info4["cdcc"]
    assert not info4["induced"]["cricket"]


def test_budget_exhaustion_names_the_budget():
    want = {"verdict": "unknown", "nodes": 2, "reason": "budget of 1 nodes exhausted"}
    assert lq_verdict(c5(), 2, budget=1) == want
    report = check_theorem64_premises(c5(), budget=1)
    assert report["computed"][2] == want
    assert report["holds_through"] is None
    assert "first_failure_q" not in report  # nothing failed; the search stopped


def test_theorem64_cap_hit_reports_no_failure(monkeypatch):
    monkeypatch.setattr(power_ideals, "CAP", 3)
    report = check_theorem64_premises(c5())
    assert report["computed"][2]["verdict"] == "unknown"
    assert report["holds_through"] is None and report["implied"] is None
    assert "first_failure_q" not in report


def test_theorem64_cap_hit_above_the_square_is_unknown(monkeypatch, capsys):
    # I(c5)^q has C(q+4, 4) edge multisets of q + 5 entries: 9 * 70 = 630
    # entries at q = 4, 1,260 at q = 5.
    monkeypatch.setattr(power_ideals, "CAP", 630)
    report = check_theorem64_premises(c5())
    reason = "126 edge multisets for q=5 over 5 edges on 5 vertices (1260 entries) exceed cap 630"
    assert report["computed"][5] == {"verdict": "unknown", "reason": reason}
    assert list(report["computed"]) == [2, 3, 4, 5]
    assert report["holds_through"] == 4
    assert "first_failure_q" not in report and report["implied"] is None
    assert cli.main(["thm64", "--graph", "c5"]) == cli.BUDGET
    assert json.loads(capsys.readouterr().out)["computed"]["5"]["reason"] == reason


# Orders each repro target verifies: constructions only build, so each order
# is verified once, by the target.
REPRO_VERIFIER_CALLS = {
    "istanbul": 2,
    "pentagon-powers": 4,
    "fig2": 3,
    "fig4": 2,
    "gamma7": 6,
    "cdcc6": 0,
    "expansion": 7,
    "thm64-c5": 7,
}


def test_every_repro_target_passes_and_verifies_each_order_once(monkeypatch):
    verified = count_verifier_calls(monkeypatch)
    calls = {}

    def counting(name, target):
        def run(check, budget):
            start = len(verified)
            target(check, budget)
            calls[name] = len(verified) - start

        return run

    for name, target in list(harness.REPRO_SUITE.items()):
        monkeypatch.setitem(harness.REPRO_SUITE, name, counting(name, target))
    reports, ok = harness.run_repro()
    assert [r["name"] for r in reports if r["passed"]] == list(REPRO_VERIFIER_CALLS)
    assert ok
    assert calls == REPRO_VERIFIER_CALLS


def test_classify_graph_cdcc_matches_is_cdcc():
    for g in [*all_labeled_graphs(5), gamma7()]:
        assert classify_graph(g)["cdcc"] == is_cdcc(g)


def test_repro_cdcc6_counts_the_graphs(monkeypatch):
    def first_100(n):
        return islice(nonisomorphic_graphs(n), 100)

    monkeypatch.setattr(harness, "nonisomorphic_graphs", first_100)
    (report,), ok = harness.run_repro(["cdcc6"])
    assert not ok and not report["passed"]
    assert list(report) == ["name", "passed", "elapsed_s", "checks"]
    assert report["checks"][0]["graphs"] == 100
