"""Each correctness gate accepts the right answer and rejects a planted wrong one.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

import copy
import random

import pytest

import tracing
import workloads
from linquo import fixtures, harness, linquot, orderings, power_ideals


def _repro_out():
    reports = [
        {"name": n, "passed": True, "checks": [{"check": f"{n} holds", "ok": True}]}
        for n in workloads.REPRO_TARGETS
    ]
    return {"reports": reports, "ok": True}


def test_repro_gate_rejects_a_failed_check():
    out = _repro_out()
    assert workloads.repro_check({}, out) == []
    bad = copy.deepcopy(out)
    bad["reports"][5]["checks"][0]["ok"] = False
    bad["reports"][5]["passed"] = False
    bad["ok"] = False
    assert workloads.repro_check({}, bad)


def test_repro_gate_rejects_a_missing_target():
    out = _repro_out()
    del out["reports"][2]
    assert workloads.repro_check({}, out)


@pytest.fixture(scope="module")
def scan_fx():
    return workloads.scan5_setup()


def _scan_records(table):
    records = []
    for key, want in table["verdicts"].items():
        edges = [] if key == "empty" else [[int(e[0]), int(e[1])] for e in key.split()]
        lq = {int(q): {"verdict": v} for q, v in want.items()}
        if key in table["by_restriction"]:
            lq[table["by_restriction"][key]["q"]] = {"verdict": "unknown"}
        records.append({"edges": edges, "lq": lq})
    return {"records": records}


def test_scan5_gate_accepts_the_table_with_unknowns(scan_fx):
    out = _scan_records(scan_fx["table"])
    assert workloads.scan5_check(scan_fx, out) == []
    assert workloads.scan5_jobs(out) == (68, 2)


@pytest.mark.parametrize("flip", [("yes", "no"), ("no", "yes")])
def test_scan5_gate_rejects_a_flipped_verdict(scan_fx, flip):
    out = _scan_records(scan_fx["table"])
    rec, q = next(
        (rec, q)
        for rec in out["records"]
        for q, v in rec["lq"].items()
        if v["verdict"] == flip[0]
    )
    rec["lq"][q]["verdict"] = flip[1]
    assert workloads.scan5_check(scan_fx, out)


def test_scan5_gate_rejects_yes_on_a_restriction_no(scan_fx):
    out = _scan_records(scan_fx["table"])
    rec = next(r for r in out["records"] if r["lq"][2]["verdict"] == "unknown")
    rec["lq"][2]["verdict"] = "yes"
    assert workloads.scan5_check(scan_fx, out)


def test_scan5_gate_rejects_a_missing_class(scan_fx):
    out = _scan_records(scan_fx["table"])
    out["records"].pop()
    assert workloads.scan5_check(scan_fx, out)


@pytest.fixture(scope="module")
def tower_out():
    fx = workloads.tower_setup()
    o = orderings.efficient_ordering(fx["istanbul"], workloads.C5_S)
    reports = {
        name: {
            "holds_through": 7,
            "computed": {q: {"verdict": "yes", "count": c} for q, c in zip(range(2, 8), counts)},
        }
        for name, counts in workloads.TOWER_COUNTS.items()
    }
    for name in workloads.TOWER_FAILING:
        reports[name] = {
            "holds_through": 2,
            "first_failure_q": 3,
            "computed": {2: {"verdict": "yes", "count": 129}, 3: {"verdict": "fail", "count": 626}},
        }
    c5 = {"count": len(o), "passed": True, "text": fixtures.format_order(o)}
    return {"reports": reports, "c5": c5}


def test_tower_gate_accepts_the_pinned_outputs(tower_out):
    assert workloads.tower_check({}, tower_out) == []


def test_tower_gate_rejects_a_changed_digest(tower_out):
    bad = copy.deepcopy(tower_out)
    lines = bad["c5"]["text"].splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    bad["c5"]["text"] = "".join(lines)
    assert workloads.tower_check({}, bad)


def test_tower_gate_rejects_a_changed_count(tower_out):
    bad = copy.deepcopy(tower_out)
    bad["reports"]["gamma7"]["computed"][7]["count"] = 8141
    assert workloads.tower_check({}, bad)


def test_oracle_check_accepts_the_verifier():
    assert workloads.verifier_oracle_check(random.Random(0)) == []


def test_oracle_check_rejects_a_verifier_that_always_passes():
    real = linquot.verify_linear_quotients

    def always_pass(o):
        return linquot.LqReport(True, None, real(o).per_index_variables)

    assert workloads.verifier_oracle_check(random.Random(0), always_pass)


def test_oracle_check_rejects_a_late_witness():
    real = linquot.verify_linear_quotients

    def late(o):
        rep = real(o)
        if rep.witness is None:
            return rep
        w = rep.witness
        return linquot.LqReport(False, linquot.LqWitness(w.t + 1, w.i, w.colon), rep.per_index_variables)

    assert workloads.verifier_oracle_check(random.Random(0), late)


def test_tracer_counts_calls_and_restores_the_modules():
    pg = power_ideals.power_generators(power_ideals.edge_ideal(fixtures.c5()), 2)
    o2 = fixtures.builtin_order("istanbul", pg)
    before = harness.verify_linear_quotients
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.verify_linear_quotients is not before
        o3 = orderings.efficient_ordering(o2, 3)
    assert harness.verify_linear_quotients is before
    c = tracer.counts
    assert c["orderings.construct_calls"] == 1
    assert c["orderings.gens_out"] == len(o3) == 35
    assert c["power_ideals.calls"] == 1 and c["power_ideals.gens"] == 35
    # One step from the square: 15 generators times 5 edges.
    assert tracer.products_formed(None) == 75
    selfs = tracer.self_times()
    assert selfs["orderings.construct"] > 0 and selfs["power_ideals.gens"] > 0
