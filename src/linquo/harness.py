"""Experiment harness: scanning, the bounded-power premise checker, and the
reproduction suite behind the ``repro`` subcommand.  Isomorph-free
enumeration lives in ``enumeration``; its public names are bound here too.

Every search verdict comes from ``search_verdict``: a "yes" carries an order
re-verified before the record was written, a "no" an exhausted search or a
checked restriction certificate, and an "unknown" the budget or the
multiset cap (``power_ideals.CAP``) that ran out.  Theorem-implied
conclusions are reported apart from computed facts.
"""

from __future__ import annotations

import time
from contextlib import suppress
from itertools import permutations
from math import comb

from . import fixtures
from .enumeration import all_labeled_graphs, canonical_form, nonisomorphic_graphs
from .graphs import (
    TWO_K2,
    Graph,
    contains_induced,
    find_induced,
    induced_subgraph,
    is_cdcc,
    is_chordal,
    is_cochordal,
    is_gapfree,
    matching_number,
)
from .linquot import (
    DEFAULT_BUDGET,
    GeneratorOrdering,
    NotGapfree,
    duplication_order,
    expansion_order,
    find_lq_order,
    require_verified,
    verify_linear_quotients,
)
from .orderings import auto_edge_order, compatible_orders, efficient_ordering, require_square
from .power_ideals import CapExceeded, edge_ideal, power_generators

def classify_graph(g: Graph) -> dict:
    gapfree = is_gapfree(g)
    induced = {name: contains_induced(g, name) for name in ("cricket", "diamond", "c4", "c5")}
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "gapfree": gapfree,
        "chordal": is_chordal(g),
        "cochordal": is_cochordal(g),
        "cdcc": gapfree and all(induced.values()),  # same as is_cdcc(g)
        "matching_number": matching_number(g),
        "induced": induced,
    }


def search_verdict(
    g: Graph, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[dict, GeneratorOrdering | None]:
    """The order search's verdict on I(G)^q, and the order when one was found.

    A cap hit or a spent budget gives "unknown" with the reason, a found order
    "yes" once re-verified, and a "no" comes from an exhausted search or a
    checked restriction certificate: linear quotients pass from I(G)^q to
    I(G[W])^q, so a search on an induced 2K2 G[W] exhausted within budget is one.
    """
    w, sub = find_induced(g, TWO_K2), None
    if w is not None:
        with suppress(CapExceeded):  # then so is I(G)^q, reported below
            sub = power_generators(edge_ideal(induced_subgraph(g, w)), q)
    if sub is not None:
        res = find_lq_order(sub, budget)
        if res.status == "none":
            return {"verdict": "no", "by": "restriction", "W": list(w), "nodes": res.nodes}, None
    try:
        pg = power_generators(edge_ideal(g), q)
    except CapExceeded as e:
        return {"verdict": "unknown", "reason": str(e)}, None
    res = find_lq_order(pg, budget)
    if res.status == "none":
        return {"verdict": "no", "by": "search", "nodes": res.nodes}, None
    if res.status == "unknown":
        reason = f"budget of {budget} nodes exhausted"
        return {"verdict": "unknown", "nodes": res.nodes, "reason": reason}, None
    if not verify_linear_quotients(res.ordering).passed:
        raise AssertionError("search returned an order that fails verification")
    record = {
        "verdict": "yes",
        "by": "search",
        "order": res.ordering.multisets(),
        "nodes": res.nodes,
        "backtracks": res.backtracks,
    }
    return record, res.ordering


def lq_verdict(g: Graph, q: int, budget: int = DEFAULT_BUDGET) -> dict:
    """The record of ``search_verdict``: the verdict on one power."""
    return search_verdict(g, q, budget)[0]


def scan_small_graphs(n: int, q_max: int, budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Classify and search one graph per isomorphism class on n vertices."""
    if q_max < 1:
        raise ValueError("power must be >= 1")
    return [
        {
            "edges": [list(e) for e in g.edges],
            "gapfree": is_gapfree(g),
            "cochordal": is_cochordal(g),
            "cdcc": is_cdcc(g),
            "lq": {q: lq_verdict(g, q, budget) for q in range(1, q_max + 1)},
        }
        for g in nonisomorphic_graphs(n)
    ]


def check_theorem64_premises(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    q_through: int = 7,
    o2: GeneratorOrdering | None = None,
) -> dict:
    """Verify the bounded tower of compatible orders up to q_through.

    Theorem 6.4 is read with an admissible edge order and a verified square
    order as its premises.  The square's order is searched (or accepted) and
    verified once; the edge order is its pure-power order when admissible,
    else the always admissible peel order.  The compatible order of every
    power up to q_through is then built and verified: the cube lifts the
    square along the edge order, each later power is the pure-power lift of
    the one below, which is its compatible order (see ``orderings``).
    A supplied order not of I(g)^2 raises ValueError (``require_square``), a
    supplied square that fails verification OrderingPreconditionError.  When
    the tower holds through 7, all later powers inherit linear quotients;
    that conclusion is reported under ``implied``, separate from what was
    computed.  ``q_through`` below 2 raises ValueError: the tower starts at
    the square.
    """
    if q_through < 2:
        raise ValueError(f"q_through must be at least 2, got {q_through}")
    report: dict = {"n": g.n, "edges": [list(e) for e in g.edges], "computed": {}}
    if o2 is None:
        record, o2 = search_verdict(g, 2, budget)
        if o2 is None:
            report["computed"][2] = record
            if record["verdict"] == "no":
                report["first_failure_q"] = 2
            report["holds_through"] = report["implied"] = None
            return report
    else:
        require_square(g, o2)
        require_verified(o2, "check_theorem64_premises")
    report["computed"][2] = {"verdict": "yes", "count": len(o2)}
    eo, report["edge_order_source"] = auto_edge_order(g, o2)
    report["edge_order"] = list(eo)
    holds = 2
    for q in range(3, q_through + 1):
        try:
            o = compatible_orders(g, eo, o2, q) if q == 3 else efficient_ordering(o, q)
        except CapExceeded as e:  # the edge order is admissible by construction
            report["computed"][q] = {"verdict": "unknown", "reason": str(e)}
            break
        rep = verify_linear_quotients(o)
        report["computed"][q] = {"verdict": "yes" if rep.passed else "fail", "count": len(o)}
        if not rep.passed:
            report["first_failure_q"] = q
            break
        holds = q
    report["holds_through"] = holds
    report["implied"] = None if holds < 7 else (
        "compatible orders verified for q = 2..7; the tower extends to every power q >= 2"
    )
    return report


# ---------------------------------------------------------------------------
# Reproduction suite: one function per published desk-scale result.
# ---------------------------------------------------------------------------


def repro_istanbul(check, budget: int) -> None:
    pg = power_generators(edge_ideal(fixtures.c5()), 2)
    check("square has 15 generators", pg.count == 15, count=pg.count)
    for name in ("istanbul", "istanbul-alt"):
        o = fixtures.builtin_order(name, pg)
        check(f"{name} order verifies", verify_linear_quotients(o).passed)


def repro_pentagon_powers(check, budget: int) -> None:
    pg = power_generators(edge_ideal(fixtures.c5()), 2)
    o = fixtures.builtin_order("istanbul", pg)
    for s in (3, 4, 5, 6):
        o = efficient_ordering(o, s)
        want = comb(s + 4, 4)
        ok = verify_linear_quotients(o).passed and len(o) == want
        check(f"power {s}: {want} generators, order verifies", ok, count=len(o))


def repro_fig2(check, budget: int) -> None:
    pg = power_generators(edge_ideal(fixtures.fig2()), 2)
    check("square has 34 generators", pg.count == 34, count=pg.count)
    merged = {frozenset(f) for f in pg.factorizations if len(f) > 1}
    expected = {
        frozenset({(1, 5), (3, 6)}),  # (ax)(pz) = (ap)(xz)
        frozenset({(2, 7), (4, 6)}),  # (bx)(qz) = (bq)(xz)
    }
    check("exactly the two expected coincidences", merged == expected)
    o2 = fixtures.builtin_order("fig2", pg)
    check("square order verifies", verify_linear_quotients(o2).passed)
    o = o2
    for s in (3, 4):
        o = efficient_ordering(o, s)
        check(f"power {s} order verifies", verify_linear_quotients(o).passed, count=len(o))


def repro_fig4(check, budget: int) -> None:
    pg = power_generators(edge_ideal(fixtures.fig4()), 2)
    check("square has 42 generators", pg.count == 42, count=pg.count)
    merged = {frozenset(f) for f in pg.factorizations if len(f) > 1}
    expected = {
        frozenset({(0, 5), (1, 3)}),  # (ab)(xp) = (ap)(bx)
        frozenset({(0, 6), (2, 4)}),  # (ab)(xq) = (ax)(bq)
        frozenset({(5, 8), (6, 7)}),  # (xp)(qz) = (xq)(pz)
    }
    check("exactly the three expected coincidences", merged == expected)
    o2 = fixtures.builtin_order("fig4", pg)
    check("square order verifies", verify_linear_quotients(o2).passed)
    o3 = efficient_ordering(o2, 3)
    check("cube order verifies", verify_linear_quotients(o3).passed, count=len(o3))


def repro_gamma7(check, budget: int) -> None:
    g7 = fixtures.gamma7()
    check("gamma7 is CDCC", is_cdcc(g7))
    check("gamma7 matching number is 3", matching_number(g7) == 3)
    pg4 = power_generators(edge_ideal(fixtures.fig4()), 2)
    o2 = fixtures.builtin_order("fig4", pg4)
    o3 = efficient_ordering(o2, 3)
    # Duplicate z, then keep duplicating the freshest copy: 7, 8, 9 vertices.
    for q, base in ((2, o2), (3, o3)):
        o, vertex = base, 5
        for _ in range(3):
            o = duplication_order(o, vertex)
            graph = o.base.ideal.graph
            what = f"power {q}, {graph.n} vertices: duplicated order verifies and CDCC holds"
            check(what, verify_linear_quotients(o).passed and is_cdcc(graph), count=len(o))
            vertex = graph.n - 1


def repro_cdcc6(check, budget: int) -> None:
    examined = hits = 0
    for g in nonisomorphic_graphs(6):
        examined += 1
        hits += is_cdcc(g)
    what = "no CDCC graph among the 156 classes on 6 vertices"
    check(what, examined == 156 and hits == 0, graphs=examined, hits=hits)


def repro_expansion(check, budget: int) -> None:
    p3 = Graph(3, [(0, 1), (1, 2)], labels=("a", "x", "b"))
    cases = [("path a-x-b at x", p3, 1, (1, 2)), ("fig2 at x", fixtures.fig2(), 4, (2,))]
    for label, g, x, ss in cases:
        for s in ss:
            base = search_verdict(g, s, budget)[1]
            if not check(f"{label}, power {s}: base order found", base is not None):
                continue
            closed = g.nbrs[x] | 1 << x
            b_orders = list(permutations([b for b in range(g.n) if not closed >> b & 1]))
            ok = True
            for b in b_orders:
                o = expansion_order(base, x, b)
                ok = ok and verify_linear_quotients(o).passed
            what = f"{label}, power {s}: expansion order verifies for all {len(b_orders)} B-orders"
            check(what, ok)
    pgc5 = power_generators(edge_ideal(fixtures.c5()), 2)
    ist = fixtures.builtin_order("istanbul", pgc5)
    try:
        expansion_order(ist, 0)
        rejected = False
    except NotGapfree:
        rejected = True
    check("expansion with a non-independent exterior is rejected", rejected)


def repro_thm64_c5(check, budget: int) -> None:
    g = fixtures.c5()
    pg = power_generators(edge_ideal(g), 2)
    o2 = fixtures.builtin_order("istanbul", pg)
    report = check_theorem64_premises(g, q_through=8, o2=o2)
    computed = {str(k): v for k, v in report["computed"].items()}
    c8 = computed.pop("8", {})
    check("compatible orders verify for powers 3..7", report["holds_through"] >= 7, computed=computed)
    what = "power 8 compatible order (495 generators) verifies"
    check(what, c8 == {"verdict": "yes", "count": 495}, count=c8.get("count"))


REPRO_SUITE = {
    "istanbul": repro_istanbul,
    "pentagon-powers": repro_pentagon_powers,
    "fig2": repro_fig2,
    "fig4": repro_fig4,
    "gamma7": repro_gamma7,
    "cdcc6": repro_cdcc6,
    "expansion": repro_expansion,
    "thm64-c5": repro_thm64_c5,
}


def run_repro(
    names: list[str] | None = None, budget: int = DEFAULT_BUDGET
) -> tuple[list[dict], bool]:
    """Run the named targets (all by default), one report per target.  An
    unknown name raises ValueError before any target runs.

    A target records each of its checks by calling ``check(what, ok,
    **detail)``, which returns ``ok``; the report holds the target's name,
    whether every check passed, its wall time and the checks.
    """
    names = names or list(REPRO_SUITE)
    for name in names:
        if name not in REPRO_SUITE:
            raise ValueError(f"unknown repro target {name!r}")
    reports = []
    for name in names:
        checks: list[dict] = []

        def check(what: str, ok, **detail) -> bool:
            checks.append({"check": what, "ok": bool(ok), **detail})
            return bool(ok)

        t0 = time.perf_counter()
        REPRO_SUITE[name](check, budget)
        passed, elapsed = all(c["ok"] for c in checks), round(time.perf_counter() - t0, 3)
        reports.append({"name": name, "passed": passed, "elapsed_s": elapsed, "checks": checks})
    return reports, all(r["passed"] for r in reports)
