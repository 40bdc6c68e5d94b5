import hashlib
import json
from itertools import combinations

import pytest

from linquo import cli, fixtures, harness
from linquo.graphs import Graph, format_graph
from linquo.linquot import GeneratorOrdering, SearchResult
from linquo.orderings import efficient_ordering
from linquo.power_ideals import edge_ideal, power_generators

from helpers import count_verifier_calls

PASS, FAIL, USAGE, BUDGET = cli.PASS, cli.FAIL, cli.USAGE, cli.BUDGET
Q2000 = "<q2000.order>"  # stands for an order file of I^2000 written by the test
BAD = "<bad.order>"  # stands for an order file whose line 2 is not edge indices
MISSING = "<missing.order>"  # stands for a path with no file
EDGES = "<01234>"  # stands for a file that holds the edge order 0 4 1 2 3, never read


@pytest.mark.parametrize(
    "argv, code",
    [
        (["powers", "--graph", "c5", "--q", "2"], PASS),
        (["verify", "--graph", "c5", "--order", "builtin:istanbul"], PASS),
        (["find-order", "--graph", "c5", "--q", "2"], PASS),
        (["find-order", "--graph", "2k2", "--q", "1"], FAIL),
        (["efficient-order", "--graph", "c5", "--base-order", "builtin:istanbul", "--s", "3"], PASS),
        (["admissible-order", "--graph", "c5"], PASS),
        (["compatible-orders", "--graph", "fig2", "--i2-order", "builtin:fig2", "--q", "3"], PASS),
        (["duplicate", "--graph", "fig2", "--vertex", "x"], PASS),
        (["duplicate", "--graph", "c5", "--vertex", "2"], PASS),
        (["duplicate", "--graph", "c5", "--vertex", "9"], USAGE),
        (["duplicate", "--graph", "fig4", "--vertex", "z", "--order", "builtin:fig4"], PASS),
        (["expand", "--graph", "fig2", "--vertex", "x", "--order", "builtin:fig2"], PASS),
        (["expand", "--graph", "c5", "--vertex", "a", "--order", "builtin:istanbul"], FAIL),
        (["classify", "--graph", "gamma7"], PASS),
        (["scan", "--n", "3", "--q-max", "1"], PASS),
        (["thm64", "--graph", "c5", "--q-through", "3", "--i2-order", "builtin:istanbul"], PASS),
        (["thm64", "--graph", "c5"], PASS),
        (["thm64", "--graph", "2k2"], FAIL),
        (["--budget", "1", "thm64", "--graph", "c5"], BUDGET),
        (["thm64", "--graph", "c5", "--q-through", "1"], USAGE),
        (["repro", "istanbul"], PASS),
        (["classify", "--graph", "no-such-fixture"], USAGE),
        (["verify", "--graph", "c5", "--order", BAD], USAGE),
        (["verify", "--graph", "c5", "--order", MISSING], USAGE),
        (["compatible-orders", "--graph", "c5", "--i2-order", "builtin:istanbul", "--edge-order", EDGES, "--q", "3"], USAGE),
        (["--budget", "1", "find-order", "--graph", "c5", "--q", "2"], BUDGET),
        (["powers", "--graph", "2k2", "--q", "1000000"], BUDGET),
        (["verify", "--graph", "c5", "--order", Q2000], BUDGET),
        (["compatible-orders", "--graph", "fig2", "--i2-order", "builtin:fig2", "--q", "1000000"], BUDGET),
        (["compatible-orders", "--graph", "fig2", "--i2-order", "builtin:fig2", "--q", "1"], USAGE),
        (["duplicate", "--graph", "fig4", "--vertex", "z", "--order", Q2000], BUDGET),
        (["expand", "--graph", "fig2", "--vertex", "x", "--order", Q2000], BUDGET),
        (["efficient-order", "--graph", "c5", "--base-order", "builtin:istanbul", "--s", "200"], BUDGET),
        (["find-order", "--graph", "2k2", "--q", "1000000"], BUDGET),
        (["scan", "--n", "8"], USAGE),
        (["scan", "--n", "3", "--q-max", "0"], USAGE),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_exit_codes(argv, code, tmp_path, capsys):
    # One multiset of 2,000 edges: the order is of I^2000, over the cap.
    (tmp_path / "q2000.order").write_text(" ".join(["0"] * 2000) + "\n")
    (tmp_path / "bad.order").write_text("0 0\n0 x\n")
    (tmp_path / "01234").write_text("0 4 1 2 3\n")
    paths = {Q2000: "q2000.order", BAD: "bad.order", MISSING: "missing.order", EDGES: "01234"}
    assert cli.main([str(tmp_path / paths[a]) if a in paths else a for a in argv]) == code
    if BAD in argv:
        assert "line 2: expected edge indices, got '0 x'" in capsys.readouterr().err


def test_verify_fails_a_reversed_order_file(tmp_path, capsys):
    pg = power_generators(edge_ideal(fixtures.c5()), 2)
    lines = fixtures.format_order(fixtures.builtin_order("istanbul", pg)).splitlines()
    path = tmp_path / "reversed.order"
    path.write_text("\n".join(reversed(lines)) + "\n")
    argv = ["verify", "--graph", "c5", "--order", str(path)]
    assert cli.main(argv) == FAIL
    out = json.loads(capsys.readouterr().out)
    assert not out["pass"] and out["witness"] is not None


C5_SWAPPED = "5\n1 2\n0 1\n2 3\n3 4\n0 4\n"  # c5's edges with the first two swapped


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", "G", "--order", "builtin:istanbul"],
        ["thm64", "--graph", "G", "--i2-order", "builtin:istanbul"],
    ],
    ids=lambda v: v[0],
)
def test_a_published_order_is_refused_on_another_edge_sequence(argv, tmp_path, capsys):
    swapped, own = tmp_path / "c5swap.graph", tmp_path / "c5.graph"
    swapped.write_text(C5_SWAPPED)
    own.write_text(format_graph(fixtures.c5()))
    assert cli.main([str(swapped) if a == "G" else a for a in argv]) == USAGE
    assert "edge sequence of the c5 fixture" in capsys.readouterr().err
    assert cli.main([str(own) if a == "G" else a for a in argv]) == PASS


def test_an_order_file_states_its_power(tmp_path, capsys):
    pg = power_generators(edge_ideal(fixtures.fig4()), 2)
    cube = efficient_ordering(fixtures.builtin_order("fig4", pg), 3)
    path = tmp_path / "cube.order"
    path.write_text(fixtures.format_order(cube))
    assert cli.main(["verify", "--graph", "fig4", "--order", str(path)]) == PASS
    assert json.loads(capsys.readouterr().out)["pass"]
    # A cube is not a square: the tower refuses it even when it stops at the square.
    for q_through in ("2", "7"):
        argv = ["thm64", "--graph", "fig4", "--q-through", q_through, "--i2-order", str(path)]
        assert cli.main(argv) == USAGE
        assert capsys.readouterr().err == "error: the base order must order the generators of the square\n"
    # An empty order file is read at q = 1, which orders the empty power of an edgeless graph.
    edgeless, empty = tmp_path / "edgeless.graph", tmp_path / "empty.order"
    edgeless.write_text("3\n")
    empty.write_text("")
    assert cli.main(["verify", "--graph", str(edgeless), "--order", str(empty)]) == PASS


FAILING = "<failing.order>"  # stands for fig2's square order reversed, written by the test


@pytest.mark.parametrize(
    "argv, what",
    [
        pytest.param(argv, what, id=argv[0])
        for argv, what in [
            (["compatible-orders", "--graph", "fig2", "--i2-order", FAILING, "--q", "3"], "compatible_orders"),
            (["duplicate", "--graph", "fig2", "--vertex", "x", "--order", FAILING], "duplication_order"),
            (["expand", "--graph", "fig2", "--vertex", "x", "--order", FAILING], "expansion_order"),
            (["efficient-order", "--graph", "fig2", "--base-order", FAILING, "--s", "3"], "efficient_ordering"),
        ]
    ],
)
def test_a_given_order_that_fails_is_rejected_before_the_construction(argv, what, tmp_path, capsys):
    # The constructions only build; the command verifies the order it is given.
    square = fixtures.builtin_order("fig2", power_generators(edge_ideal(fixtures.fig2()), 2))
    path = tmp_path / "failing.order"
    path.write_text("\n".join(reversed(fixtures.format_order(square).splitlines())) + "\n")
    assert cli.main([str(path) if a == FAILING else a for a in argv]) == FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"rejected: {what} requires a verified linear-quotients order; fails at position 1")


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["compatible-orders", "--graph", "c5", "--i2-order", "builtin:istanbul", "--edge-order", "0,2,1,3,4", "--q", "3"],
            "rejected: compatible_orders: the edge ordering is not admissible\n",
        ),
        (
            ["expand", "--graph", "c5", "--vertex", "a", "--order", "builtin:istanbul"],
            "rejected: expansion at vertex 0: the expanded graph is not gapfree\n",
        ),
    ],
    ids=["compatible-orders", "expand"],
)
def test_a_failed_precondition_is_reported_rejected_once(argv, err, capsys):
    assert cli.main(argv) == FAIL
    out, got = capsys.readouterr()
    assert (out, got) == ("", err)


# The power of each order a command verifies: the given or searched order,
# then the built one.  A searched square's only verification is the search's own.
VERIFIED_POWERS = [
    (["compatible-orders", "--graph", "fig2", "--q", "3"], [2, 3]),
    (["compatible-orders", "--graph", "fig2", "--i2-order", "builtin:fig2", "--q", "3"], [2, 3]),
    (["duplicate", "--graph", "fig2", "--vertex", "x", "--order", "builtin:fig2"], [2, 2]),
    (["expand", "--graph", "fig2", "--vertex", "x", "--order", "builtin:fig2"], [2, 2]),
    (["efficient-order", "--graph", "fig2", "--base-order", "builtin:fig2", "--s", "3"], [2, 3]),
]


@pytest.mark.parametrize("argv, powers", [pytest.param(a, p, id=" ".join(a)) for a, p in VERIFIED_POWERS])
def test_each_order_is_verified_once(argv, powers, monkeypatch, capsys):
    verified = count_verifier_calls(monkeypatch)
    assert cli.main(argv) == PASS
    assert verified == powers


def test_edge_order_reads_what_admissible_order_prints(capsys):
    assert cli.main(["admissible-order", "--graph", "c5"]) == PASS
    printed = capsys.readouterr().out
    assert printed == "0 4 1 2 3\n"
    outputs = []
    for eo in (printed, "0,4,1,2,3"):
        argv = ["compatible-orders", "--graph", "c5", "--i2-order", "builtin:istanbul", "--edge-order", eo, "--q", "3"]
        outputs.append((cli.main(argv), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].out.count("\n") == 35


def test_powers_list(capsys):
    assert cli.main(["powers", "--graph", "c5", "--q", "2", "--list"]) == PASS
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == len(out["gens"]) == 15
    assert out["gens"][0] == {
        "monomial": "a^2*b^2",
        "exps": [2, 2, 0, 0, 0],
        "factorizations": [[0, 0]],
    }


def test_powers_of_k7_at_q7_are_counted_but_not_listed(tmp_path, capsys):
    # 32,292 generators, built level by level; --list needs the 888,030 edge
    # multisets, over the cap.
    path = tmp_path / "k7.txt"
    path.write_text(format_graph(Graph(7, combinations(range(7), 2))))
    assert cli.main(["powers", "--graph", str(path), "--q", "7"]) == PASS
    assert json.loads(capsys.readouterr().out)["count"] == 32292
    assert cli.main(["powers", "--graph", str(path), "--q", "7", "--list"]) == BUDGET
    assert "888030 edge multisets" in capsys.readouterr().err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", "1", "classify", "--graph", "c5"])
    assert exc.value.code == USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["powers", "--graph", "c5", "--q", "2", "--count-only"],
        ["scan", "--n", "3", "--q-max", "1", "--no-dedup"],
        ["--cap", "3", "powers", "--graph", "c5", "--q", "2"],
        ["verify", "--graph", "c5", "--q", "2", "--order", "builtin:istanbul"],
        ["efficient-order", "--graph", "c5", "--base-order", "builtin:istanbul", "--base-q", "2", "--s", "3"],
        ["duplicate", "--graph", "fig4", "--vertex", "z", "--q", "2", "--order", "builtin:fig4"],
        ["expand", "--graph", "fig2", "--vertex", "x", "--q", "2", "--order", "builtin:fig2"],
        ["find-order", "--graph", "c5", "--q", "2", "--emit", "c5.order"],
        ["efficient-order", "--graph", "c5", "--base-order", "builtin:istanbul", "--s", "3", "--emit", "c5.order"],
        ["compatible-orders", "--graph", "fig2", "--i2-order", "builtin:fig2", "--q", "3", "--emit", "fig2.order"],
        ["duplicate", "--graph", "fig2", "--vertex", "x", "--emit", "fig2x.graph"],
        ["expand", "--graph", "fig2", "--vertex", "x", "--order", "builtin:fig2", "--emit", "fig2x.order"],
    ],
    ids=lambda v: " ".join(v),
)
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == USAGE


def test_graph_names_are_not_looked_up_in_an_environment_directory(tmp_path, monkeypatch):
    (tmp_path / "c5.graph").write_text("2\n0 1\n")
    (tmp_path / "k2").write_text("2\n0 1\n")
    monkeypatch.setenv("LINQUO_FIXTURES", str(tmp_path))
    assert fixtures.resolve_graph("c5") == fixtures.c5()
    with pytest.raises(ValueError):
        fixtures.resolve_graph("k2")


@pytest.mark.parametrize("graph, q", [("c5", 2), ("2k2", 1)])
def test_find_order_json_is_the_verdict_record(graph, q, capsys):
    code = cli.main(["--json", "find-order", "--graph", graph, "--q", str(q)])
    record = harness.lq_verdict(fixtures.named_graph(graph), q)
    assert json.loads(capsys.readouterr().out) == record
    assert code == cli.VERDICT_EXIT[record["verdict"]]


def test_a_searched_order_that_fails_verification_is_never_yes(monkeypatch, capsys):
    def reversed_istanbul(pg, budget):
        seq = fixtures.builtin_order("istanbul", pg).sequence[::-1]
        return SearchResult("found", GeneratorOrdering(pg, seq, "search"), len(seq), 0)

    monkeypatch.setattr(harness, "find_lq_order", reversed_istanbul)
    with pytest.raises(AssertionError):
        harness.lq_verdict(fixtures.c5(), 2)
    with pytest.raises(AssertionError):
        harness.check_theorem64_premises(fixtures.c5(), q_through=2)
    with pytest.raises(AssertionError):
        cli.main(["find-order", "--graph", "c5", "--q", "2"])


def test_search_commands_name_the_exhausted_budget(capsys):
    argv = ["--budget", "1", "find-order", "--graph", "c5", "--q", "2"]
    assert cli.main(argv) == BUDGET
    assert capsys.readouterr().err == "unknown after 2 nodes (budget 1)\n"
    argv = ["--budget", "1", "compatible-orders", "--graph", "c5", "--q", "3"]
    assert cli.main(argv) == BUDGET
    assert capsys.readouterr().err == "no square order: unknown after 2 nodes (budget 1)\n"


def test_search_commands_name_the_restriction_certificate(capsys):
    assert cli.main(["find-order", "--graph", "2k2", "--q", "3"]) == FAIL
    assert capsys.readouterr().err == "no: induced 2K2 on a b c d, whose power q=3 has no order (4 nodes)\n"
    assert cli.main(["compatible-orders", "--graph", "2k2", "--q", "3"]) == FAIL
    want = "no square order: no: induced 2K2 on a b c d, whose power q=2 has no order (3 nodes)\n"
    assert capsys.readouterr().err == want
    for argv in (["find-order", "--q", "2"], ["compatible-orders", "--q", "3"]):
        assert cli.main(["--json", *argv, "--graph", "2k2"]) == FAIL
        record = {"verdict": "no", "by": "restriction", "W": [0, 1, 2, 3], "nodes": 3}
        assert json.loads(capsys.readouterr().out) == record


def test_repro_checks_every_name_before_running_any(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(harness.REPRO_SUITE, "cdcc6", lambda *args: ran.append(args))
    assert cli.main(["repro", "cdcc6", "nosuch"]) == USAGE
    assert ran == []
    assert capsys.readouterr().err == "error: unknown repro target 'nosuch'\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["verify", "--graph", "c5", "--order", "builtin:nosuch"],
            "error: unknown built-in order 'nosuch'\n",
        ),
        (["classify", "--graph", "c5k0"], "error: clique size must be >= 1\n"),
        (
            ["expand", "--graph", "fig2", "--vertex", "x", "--order", "builtin:fig2", "--b-order", "p,w"],
            "error: unknown vertex 'w' (labels: a, b, p, q, x, z)\n",
        ),
        (
            ["compatible-orders", "--graph", "c5", "--i2-order", "builtin:istanbul", "--edge-order", "0,4;1,2,3", "--q", "3"],
            "error: invalid literal for int() with base 10: '4;1'\n",
        ),
    ],
    ids=["builtin:nosuch", "c5k0", "b-order p,w", "edge-order 0,4;1,2,3"],
)
def test_usage_errors_print_their_message_plainly(argv, err, capsys):
    assert cli.main(argv) == USAGE
    assert capsys.readouterr().err == err


def test_scan_output_is_pinned(capsys):
    # Every "yes" and "no" of the scan comes from the search or a restriction
    # certificate, so a change to how the search tests a prefix must print
    # the same bytes.  CI pins the 7-vertex scan at q <= 3 the same way.
    assert cli.main(["scan", "--n", "5", "--q-max", "3"]) == PASS
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "87f23d33930517ccbb18bf3c3f595b0e325e5b560e27b34938feecd0e70b74de"
