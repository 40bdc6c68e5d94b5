"""The benchmark's workloads and the correctness gates their outputs must pass.

Each workload drives the same ``linquo.harness`` entry points as the CLI
subcommands it stands for, in one process and one thread, including the
``json.dumps`` of every report.  Layer functions are always called through
their module (``linquot.verify_linear_quotients``, not an imported name) so
that the traced pass, which replaces module attributes, sees every call.

The inputs are the paper's fixed instances; the seed only draws the positions
at which the verifier is cross-checked against the slow colon oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

from linquo import fixtures, graphs, harness, linquot, orderings, power_ideals

REPRO_TARGETS = (
    "istanbul",
    "pentagon-powers",
    "fig2",
    "fig4",
    "gamma7",
    "cdcc6",
    "expansion",
    "thm64-c5",
)

# Generator counts of the compatible orders for q = 2..7.
TOWER_COUNTS = {
    "fig4": (42, 138, 363, 819, 1652, 3060),
    "gamma7": (61, 233, 700, 1778, 3990, 8142),
}
# c5k3 from a searched square (as `linquo thm64 c5k3` does) and from the fig2
# square transported by expanding x twice; both cubes fail the verifier.
TOWER_FAILING = ("c5k3", "c5k3-transported")
FIG2_X = 4
C5_S = 16
C5_S_COUNT = 4845
# sha256 of format_order(efficient_ordering(istanbul, 16)): the deterministic
# constructions must stay byte-identical across refactors.
C5_S_SHA256 = "cc6c41fb2a1cb9d4abf787cf1dbccaf2cb04b02ce9be3a83077109c564f1e649"

SCAN_N = 5
SCAN_Q_MAX = 2
SCAN_BUDGET = 2 * 10**4
SCAN_TABLE = Path(__file__).with_name("scan5_verdicts.json")

# Positions drawn per order for the verifier's oracle cross-check.
ORACLE_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    setup: Callable[[], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]
    jobs: Callable[[dict], tuple[int, int]]  # (verdict jobs, ended unknown)


# --- repro: `linquo repro --json` -----------------------------------------


def repro_setup() -> dict:
    return {}


def repro_run(fx: dict) -> dict:
    reports, ok = harness.run_repro()
    json.dumps(reports, indent=2)
    return {"reports": reports, "ok": ok}


def repro_check(fx: dict, out: dict) -> list[str]:
    reports = out["reports"]
    names = tuple(r["name"] for r in reports)
    fails = []
    if names != REPRO_TARGETS:
        fails.append(f"repro ran {names}, expected {REPRO_TARGETS}")
    for r in reports:
        if not r["checks"]:
            fails.append(f"repro {r['name']}: no checks")
        fails += [
            f"repro {r['name']}: check failed: {c['check']}"
            for c in r["checks"]
            if not c["ok"]
        ]
        if r["passed"] != all(c["ok"] for c in r["checks"]):
            fails.append(f"repro {r['name']}: passed flag disagrees with its checks")
    if out["ok"] != all(r["passed"] for r in reports):
        fails.append("repro: overall flag disagrees with the reports")
    return fails


def repro_jobs(out: dict) -> tuple[int, int]:
    # A repro check that hits a budget fails, so no job ends unknown.
    return sum(len(r["checks"]) for r in out["reports"]), 0


# --- tower: `linquo thm64` and `linquo efficient-order` -------------------


def tower_setup() -> dict:
    fx = {name: fixtures.named_graph(name) for name in ("fig4", "gamma7", "c5k3")}
    pg_c5 = power_ideals.power_generators(power_ideals.edge_ideal(fixtures.c5()), 2)
    pg_fig2 = power_ideals.power_generators(power_ideals.edge_ideal(fixtures.fig2()), 2)
    fx["istanbul"] = fixtures.builtin_order("istanbul", pg_c5)
    fx["fig2-square"] = fixtures.builtin_order("fig2", pg_fig2)
    return fx


def tower_run(fx: dict) -> dict:
    reports = {}
    for name in ("fig4", "gamma7", "c5k3"):
        reports[name] = harness.check_theorem64_premises(fx[name], harness.DEFAULT_BUDGET, 7)
        json.dumps(reports[name], indent=2)
    o2 = fx["fig2-square"]
    for _ in range(2):
        o2 = linquot.expansion_order(o2, FIG2_X)
    reports["c5k3-transported"] = harness.check_theorem64_premises(
        fx["c5k3"], harness.DEFAULT_BUDGET, 7, o2=o2
    )
    json.dumps(reports["c5k3-transported"], indent=2)
    o = orderings.efficient_ordering(fx["istanbul"], C5_S)
    passed = linquot.verify_linear_quotients(o).passed
    text = fixtures.format_order(o)
    return {"reports": reports, "c5": {"count": len(o), "passed": passed, "text": text}}


def tower_check(fx: dict, out: dict) -> list[str]:
    reports = out["reports"]
    fails = []
    for name, want in TOWER_COUNTS.items():
        rep = reports[name]
        counts = tuple(rep["computed"][q].get("count") for q in range(2, 8))
        if rep["holds_through"] != 7:
            fails.append(f"tower {name}: holds through {rep['holds_through']}, expected 7")
        if counts != want:
            fails.append(f"tower {name}: generator counts {counts}, expected {want}")
    for name in TOWER_FAILING:
        rep = reports[name]
        if rep.get("first_failure_q") != 3 or rep["computed"][3]["verdict"] != "fail":
            fails.append(
                f"tower {name}: first failure at q={rep.get('first_failure_q')}, expected 3"
            )
    c5 = out["c5"]
    digest = hashlib.sha256(c5["text"].encode()).hexdigest()
    if c5["count"] != C5_S_COUNT or not c5["passed"]:
        fails.append(f"tower c5 s={C5_S}: {c5['count']} generators, verified={c5['passed']}")
    if digest != C5_S_SHA256:
        fails.append(f"tower c5 s={C5_S}: order digest {digest} differs from the pin")
    return fails


def tower_jobs(out: dict) -> tuple[int, int]:
    computed = [v for rep in out["reports"].values() for v in rep["computed"].values()]
    unknown = sum(v["verdict"] == "unknown" for v in computed)
    return len(computed) + 1, unknown


# --- scan5: `linquo scan --n 5 --q-max 2 --budget 20000` ------------------


def canonical_key(n: int, edges) -> str:
    """Isomorphism-invariant key: the least relabeled sorted edge list."""
    best = min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in permutations(range(n))
    )
    return " ".join(f"{u}{v}" for u, v in best) or "empty"


def scan5_setup() -> dict:
    return {"table": json.loads(SCAN_TABLE.read_text())}


def scan5_run(fx: dict) -> dict:
    records = harness.scan_small_graphs(SCAN_N, SCAN_Q_MAX, SCAN_BUDGET)
    json.dumps(records, indent=2)
    return {"records": records}


def scan5_check(fx: dict, out: dict) -> list[str]:
    table = fx["table"]
    verdicts = table["verdicts"]
    fails = []
    seen = set()
    for rec in out["records"]:
        key = canonical_key(SCAN_N, rec["edges"])
        if key in seen:
            fails.append(f"scan5: class {key} scanned twice")
        seen.add(key)
        want = verdicts.get(key)
        if want is None:
            fails.append(f"scan5: {key} is not a graph class of the table")
            continue
        if sorted(rec["lq"]) != list(range(1, SCAN_Q_MAX + 1)):
            fails.append(f"scan5 {key}: powers {sorted(rec['lq'])}")
            continue
        for q, v in rec["lq"].items():
            got = v["verdict"]
            if got != "unknown" and got != want[str(q)]:
                fails.append(f"scan5 {key} q={q}: verdict {got}, true verdict {want[str(q)]}")
    if seen != set(verdicts):
        fails.append(f"scan5: classes missing from the scan: {sorted(set(verdicts) - seen)}")
    return fails + _restriction_check(table)


def _restriction_check(table: dict) -> list[str]:
    """Re-derive the table's "no" verdicts that rest on an induced subgraph.

    If I(G)^q has linear quotients, so does I(G[W])^q, so an induced copy of a
    graph whose q-th power has no such order certifies "no" for G.
    """
    fails = []
    for key, cert in table["by_restriction"].items():
        q = cert["q"]
        edges = [(int(e[0]), int(e[1])) for e in key.split()]
        g = graphs.Graph(SCAN_N, edges)
        pattern = fixtures.named_graph(cert["pattern"])
        if table["verdicts"][key][str(q)] != "no":
            fails.append(f"scan5 {key}: restriction certificate on a verdict that is not no")
        if not graphs.contains_induced(g, pattern):
            fails.append(f"scan5 {key}: no induced {cert['pattern']}")
        sub = harness.lq_verdict(pattern, q, SCAN_BUDGET)["verdict"]
        if sub != "no":
            fails.append(f"scan5 {key}: {cert['pattern']} at q={q} is {sub}, not no")
    return fails


def scan5_jobs(out: dict) -> tuple[int, int]:
    verdicts = [v["verdict"] for rec in out["records"] for v in rec["lq"].values()]
    return len(verdicts), verdicts.count("unknown")


WORKLOADS: dict[str, Workload] = {
    "repro": Workload(repro_setup, repro_run, repro_check, repro_jobs),
    "tower": Workload(tower_setup, tower_run, tower_check, tower_jobs),
    "scan5": Workload(scan5_setup, scan5_run, scan5_check, scan5_jobs),
}


# --- verifier cross-check against the colon oracle ------------------------


def _oracle(o, t: int) -> tuple[bool, frozenset[int]]:
    """(colon ideal at t is variable-generated, its variable generators)."""
    mins = linquot.colon_min_gens(o, t)
    variables = frozenset(m.support()[0] for m in mins if m.degree() == 1)
    return all(m.degree() == 1 for m in mins), variables


def _swapped(o, a: int, b: int):
    seq = list(o.sequence)
    seq[a], seq[b] = seq[b], seq[a]
    return linquot.GeneratorOrdering(o.base, tuple(seq), "planted")


def oracle_corpus() -> list[tuple[str, object, bool | tuple[int, int]]]:
    """(label, order, expected outcome): True passes, False fails at some
    witness, a pair (t, i) fails with exactly that witness."""
    pg_c5 = power_ideals.power_generators(power_ideals.edge_ideal(fixtures.c5()), 2)
    istanbul = fixtures.builtin_order("istanbul", pg_c5)
    pg_fig4 = power_ideals.power_generators(power_ideals.edge_ideal(fixtures.fig4()), 2)
    fig4_cube = orderings.efficient_ordering(fixtures.builtin_order("fig4", pg_fig4), 3)
    pg_fig2 = power_ideals.power_generators(power_ideals.edge_ideal(fixtures.fig2()), 2)
    o2 = fixtures.builtin_order("fig2", pg_fig2)
    for _ in range(2):
        o2 = linquot.expansion_order(o2, FIG2_X)
    c5k3 = o2.base.ideal.graph
    c5k3_cube = orderings.compatible_orders(
        c5k3, orderings.pure_power_edge_sequence(o2), o2, 3
    )
    return [
        ("istanbul square", istanbul, True),
        # Swapping entries 0 and 1 still passes; 1 and 14 does not.
        ("istanbul square, entries 1 and 14 swapped", _swapped(istanbul, 1, 14), (1, 0)),
        ("fig4 cube", fig4_cube, True),
        ("c5k3 cube from the transported square", c5k3_cube, False),
    ]


def verifier_oracle_check(
    rng: random.Random, verify=linquot.verify_linear_quotients
) -> list[str]:
    """Compare the verifier with ``colon_min_gens`` on positions drawn by rng.

    A passing report must agree with the oracle at every drawn position.  A
    failing report's witness (t, i) must be the first failure: the oracle
    fails at t and passes at every earlier position, u_i : u_t is not
    explained by a variable generator, and every earlier i is.
    """
    fails = []
    for label, o, expect in oracle_corpus():
        report = verify(o)
        r = len(o)
        w = report.witness
        if expect is True and not report.passed:
            fails.append(f"oracle {label}: verifier fails an order that has linear quotients")
        if expect is not True and report.passed:
            fails.append(f"oracle {label}: verifier passes an order without linear quotients")
            continue
        if report.passed != (w is None):
            fails.append(f"oracle {label}: a report with passed={report.passed} and witness {w}")
            continue
        if isinstance(expect, tuple) and (w.t, w.i) != expect:
            fails.append(f"oracle {label}: witness {(w.t, w.i)}, expected {expect}")
        positions = set(rng.sample(range(1, r), min(ORACLE_SAMPLES, r - 1)))
        if w is not None:
            positions |= set(range(1, w.t + 1))
        for t in sorted(positions):
            ok, variables = _oracle(o, t)
            if report.per_index_variables[t] != variables:
                fails.append(f"oracle {label} t={t}: variable sets differ")
            if w is None or t < w.t:
                if not ok:
                    fails.append(f"oracle {label} t={t}: verifier missed a failure")
            elif t == w.t:
                fails += _witness_check(label, o, w, ok, variables)
    return fails


def _witness_check(label, o, w, ok, variables) -> list[str]:
    mons = o.monomials()

    def explained(i: int) -> bool:
        c = mons[i].colon(mons[w.t])
        return c.degree() <= 1 or any(c.exps[v] for v in variables)

    fails = []
    if ok:
        fails.append(f"oracle {label} t={w.t}: the oracle finds no failure at the witness")
    if mons[w.i].colon(mons[w.t]) != w.colon or explained(w.i):
        fails.append(f"oracle {label}: witness ({w.t}, {w.i}) is not a failing pair")
    if not all(explained(i) for i in range(w.i)):
        fails.append(f"oracle {label}: witness ({w.t}, {w.i}) is not the first failing pair")
    return fails
