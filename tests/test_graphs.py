import random
from itertools import combinations

import pytest

from linquo.fixtures import c5, fig2, gamma7, two_k2
from linquo.graphs import (
    C4,
    CRICKET,
    DIAMOND,
    Graph,
    PATTERNS,
    complement,
    contains_induced,
    duplicate_vertex,
    expand_vertex,
    format_graph,
    induced_subgraph,
    is_cdcc,
    is_chordal,
    is_gapfree,
    is_independent,
    matching_number,
    parse_graph,
)
from linquo.harness import all_labeled_graphs

from helpers import neighbour_sets

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def random_small_graph(rng, max_n=7, min_n=1):
    n = rng.randint(min_n, max_n)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], labels=("a",))
    # duplicate edges collapse, either orientation
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)
    assert g.nbrs == (0b010, 0b001, 0)
    g = Graph(4, [(2, 1), (1, 2), (3, 1), (1, 3), (2, 1)])
    assert g.edges == ((1, 2), (1, 3))
    assert g.nbrs == (0, 0b1100, 0b0010, 0b0010)


def test_graph_equality_is_edge_sequence_based():
    # Orders index the edge sequence, so reordering the edges makes another graph.
    g, h = Graph(3, [(0, 1), (1, 2)]), Graph(3, [(1, 2), (0, 1)])
    assert g.edge_set == h.edge_set
    assert g != h
    assert g == Graph(3, [(1, 0), (2, 1)], labels=("a", "b", "c"))
    assert hash(g) == hash(Graph(3, [(1, 0), (2, 1)]))
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])


def test_gapfree_examples():
    assert is_gapfree(c5())
    assert not is_gapfree(two_k2())
    assert is_gapfree(P4)
    assert is_gapfree(Graph(3))  # fewer than two edges, vacuous


def gapfree_edge_pairs(g):
    """Independent cross-check from the definition by edges: every two
    vertex-disjoint edges are met by a third edge."""
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    return all(
        any(h & a and h & b for h in masks)
        for a, b in combinations(masks, 2)
        if not a & b
    )


def test_gapfree_matches_edge_pair_oracle():
    for n in range(6):
        for g in all_labeled_graphs(n):
            assert is_gapfree(g) == gapfree_edge_pairs(g), g
    rng = random.Random(23)
    for _ in range(200):
        g = random_small_graph(rng, max_n=9, min_n=6)
        assert is_gapfree(g) == gapfree_edge_pairs(g), g


def test_is_independent():
    g = c5()
    assert is_independent(g, {0, 2})
    assert not is_independent(g, {0, 1})
    # p and q in fig2 are non-adjacent
    assert is_independent(fig2(), {2, 3})


def test_induced_subgraph():
    g = c5()
    assert induced_subgraph(g, range(5)) == g
    assert induced_subgraph(g, [0, 1, 2, 3]) == P4
    # a, b, x, p, q of gamma7 induce a diamond-bearing subgraph
    sub = induced_subgraph(gamma7(), [0, 1, 4, 2, 3])
    assert contains_induced(sub, "diamond")


def test_contains_induced_examples():
    g5 = c5()
    for p in ("c4", "cricket", "diamond"):
        assert not contains_induced(g5, p)
    assert contains_induced(g5, "c5")
    assert contains_induced(gamma7(), "c5")
    assert not contains_induced(K4, "diamond")
    assert contains_induced(DIAMOND, "diamond")
    assert not contains_induced(C4, "diamond")
    assert contains_induced(CRICKET, "cricket")


def contains_induced_extension(g, pattern):
    """Independent cross-check: extend a partial injective map vertex by
    vertex, enforcing induced-adjacency equality at every step."""
    p = PATTERNS[pattern] if isinstance(pattern, str) else pattern
    k = p.n
    if g.n < k:
        return False
    padj = neighbour_sets(p)
    gadj = neighbour_sets(g)

    def extend(mapped, used):
        i = len(mapped)
        if i == k:
            return True
        for cand in range(g.n):
            if cand in used:
                continue
            if all((j in padj[i]) == (mapped[j] in gadj[cand]) for j in range(i)):
                mapped.append(cand)
                used.add(cand)
                if extend(mapped, used):
                    return True
                mapped.pop()
                used.discard(cand)
        return False

    return extend([], set())


def test_contains_induced_two_implementations_agree():
    # P5 shares its degree sequence with K3 + K2, so only the permutation
    # confirmation tells them apart; the other patterns are fixed by theirs.
    patterns = {**PATTERNS, "2k2": two_k2(), "p5": P5}
    hits_on_5 = dict.fromkeys(patterns, 0)
    for n in range(6):
        for g in all_labeled_graphs(n):
            for name, p in patterns.items():
                found = contains_induced(g, p)
                assert found == contains_induced_extension(g, p), (g, name)
                if n == 5:
                    hits_on_5[name] += found
    assert hits_on_5 == {
        "cricket": 30, "diamond": 305, "c4": 190, "c5": 12, "2k2": 190, "p5": 60
    }
    rng = random.Random(11)
    for _ in range(150):
        g = random_small_graph(rng, min_n=6)
        for p in patterns.values():
            assert contains_induced(g, p) == contains_induced_extension(g, p), g


def test_is_cdcc():
    assert is_cdcc(gamma7())
    assert not is_cdcc(c5())
    assert not is_cdcc(two_k2())


def test_complement_of_pentagon():
    comp = complement(c5())
    assert len(comp.edges) == 5
    assert contains_induced(comp, "c5")
    assert not is_chordal(comp)


def test_chordal_examples():
    assert is_chordal(P4)
    assert is_chordal(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))  # star
    assert not is_chordal(C4)
    assert not is_chordal(c5())
    assert is_chordal(K4)
    assert is_chordal(Graph(0))


def has_chordless_cycle(g):
    # brute force: some subset of >= 4 vertices induces a cycle
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            h = induced_subgraph(g, sub)
            hadj = neighbour_sets(h)
            degs = [len(a) for a in hadj]
            if any(d != 2 for d in degs):
                continue
            # 2-regular: connected iff a single cycle
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in hadj[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == k:
                return True
    return False


def test_chordal_against_bruteforce():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert is_chordal(g) == (not has_chordless_cycle(g))
    rng = random.Random(13)
    for _ in range(200):
        g = random_small_graph(rng, min_n=6)
        assert is_chordal(g) == (not has_chordless_cycle(g))


def test_duplicate_vertex():
    # the 4-cycle x-a-b-c with x duplicated: y picks up a and c
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], labels=("x", "a", "b", "c"))
    gx = duplicate_vertex(g, 0)
    assert gx.n == 5
    assert gx.edge_set == g.edge_set | {(1, 4), (3, 4)}
    adj = neighbour_sets(gx)
    assert adj[4] == adj[0] == {1, 3}  # N(y) = N(x)
    assert (0, 4) not in gx.edge_set
    assert gx.labels[4] == "x'"
    # duplicating an isolated vertex adds an isolated vertex
    iso = duplicate_vertex(Graph(3, [(0, 1)]), 2)
    assert iso.edge_set == {(0, 1)} and iso.n == 4


def test_expand_vertex_p3_gives_diamond():
    p3 = Graph(3, [(0, 1), (1, 2)])
    dx = expand_vertex(p3, 1)
    assert dx.n == 4 and len(dx.edges) == 5
    assert contains_induced(dx, "diamond")
    assert dx.edges[-1] == (1, 3)  # the clique edge comes last


def test_duplication_edge_counts_random():
    rng = random.Random(17)
    for _ in range(100):
        g = random_small_graph(rng)
        x = rng.randrange(g.n)
        deg = len(neighbour_sets(g)[x])
        assert len(duplicate_vertex(g, x).edges) == len(g.edges) + deg
        assert len(expand_vertex(g, x).edges) == len(g.edges) + deg + 1


def test_duplication_preserves_gapfree_exhaustive_n5():
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(5, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if not is_gapfree(g):
            continue
        for x in range(g.n):
            assert is_gapfree(duplicate_vertex(g, x))


def test_duplication_preserves_gapfree_sampled_n6():
    rng = random.Random(19)
    checked = 0
    while checked < 60:
        g = Graph(6, [e for e in combinations(range(6), 2) if rng.random() < 0.5])
        if not is_gapfree(g):
            continue
        checked += 1
        for x in range(g.n):
            assert is_gapfree(duplicate_vertex(g, x))


def matching_bruteforce(g):
    best = 0
    for k in range(len(g.edges), 0, -1):
        for sub in combinations(g.edges, k):
            verts = [v for e in sub for v in e]
            if len(set(verts)) == 2 * k:
                return k
    return best


def test_matching_number():
    assert matching_number(gamma7()) == 3
    assert matching_number(two_k2()) == 2
    assert matching_number(K4) == 2
    assert matching_number(Graph(3)) == 0
    rng = random.Random(23)
    for _ in range(60):
        g = random_small_graph(rng, max_n=6)
        assert matching_number(g) == matching_bruteforce(g)


def test_graph_file_roundtrip():
    g = fig2()
    text = format_graph(g)
    back = parse_graph(text)
    assert back == g
    commented = "# fixture\n6\n# edges\n0 1\n0 4\n"
    assert parse_graph(commented).edge_set == {(0, 1), (0, 4)}
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("3\n0 1 2\n")
