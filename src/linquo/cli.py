"""Command-line interface.

Exit codes: 0 success or verified pass; 1 verified failure or rejection;
2 usage error or malformed input; 3 the node budget ran out or the work is
over the fixed cap on entries (``power_ideals.CAP``).

An order (``--order``, ``--base-order``, ``--i2-order``) states its power q,
the size of its edge multisets (every ``builtin:<name>`` order is a square),
and indexes the graph's edge sequence, which must be the one it was written for.
Constructions only build: a command verifies a given order before using it.
Every command writes its result to standard output; redirect it to keep a file.

A verdict gives its exit code through ``VERDICT_EXIT``, the same table for
``find-order``, ``verify``, the order constructions, ``compatible-orders``
with a searched square and ``thm64`` (the verdict of the last power it
computed):

    verdict   meaning                                                             exit
    yes       an order found or built, and verified                               0
    no        no order: an exhausted search or a checked restriction certificate  1
    fail      a given or built order fails the verifier                           1
    unknown   the node budget or the cap on entries ran out                       3
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import fixtures, harness
from .graphs import format_graph, duplicate_vertex, expand_vertex
from .linquot import (
    NotGapfree,
    OrderingPreconditionError,
    duplication_order,
    expansion_order,
    require_verified,
    verify_linear_quotients,
)
from .monomials import Monomial
from .orderings import (
    admissible_order,
    auto_edge_order,
    compatible_orders,
    efficient_ordering,
)
from .power_ideals import CapExceeded, edge_ideal, power_generators

PASS, FAIL, USAGE, BUDGET = 0, 1, 2, 3
VERDICT_EXIT = {"yes": PASS, "no": FAIL, "fail": FAIL, "unknown": BUDGET}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linquo",
        description="Edge ideal powers and linear-quotients orderings of finite simple graphs.",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--budget", type=int, default=harness.DEFAULT_BUDGET, help="search node budget")
    sub = p.add_subparsers(dest="command", required=True)

    def graph_arg(sp):
        sp.add_argument("--graph", required=True, help="graph file or fixture name")

    sp = sub.add_parser("powers", help="enumerate generators of a power")
    graph_arg(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--list", action="store_true", help="include generators in the output")

    sp = sub.add_parser("verify", help="verify a generator order")
    graph_arg(sp)
    sp.add_argument("--order", required=True, help="order file or builtin:<name>")

    sp = sub.add_parser("find-order", help="search for a linear-quotients order")
    graph_arg(sp)
    sp.add_argument("--q", type=int, required=True)

    sp = sub.add_parser("efficient-order", help="recursive pure-power order from a base order")
    graph_arg(sp)
    sp.add_argument("--base-order", required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = sub.add_parser("admissible-order", help="construct an admissible edge order")
    graph_arg(sp)

    sp = sub.add_parser("compatible-orders", help="compatible order of a power from a square order")
    graph_arg(sp)
    sp.add_argument("--edge-order", default="auto", help="'auto' or edge indices separated by commas or spaces")
    sp.add_argument("--i2-order", default="auto", help="order file, builtin:<name>, or 'auto'")
    sp.add_argument("--q", type=int, required=True)

    sp = sub.add_parser("duplicate", help="duplicate a vertex; optionally transport an order")
    graph_arg(sp)
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--order")

    sp = sub.add_parser("expand", help="expand a vertex; optionally transport an order")
    graph_arg(sp)
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--order")
    sp.add_argument("--b-order", help="B's vertices, indices or labels, by commas or spaces (default: index order)")

    sp = sub.add_parser("classify", help="graph classifiers and invariants")
    graph_arg(sp)

    sp = sub.add_parser("scan", help="classify and search all small graphs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q-max", type=int, default=2)

    sp = sub.add_parser("thm64", help="verify the bounded tower of compatible orders")
    graph_arg(sp)
    sp.add_argument("--q-through", type=int, default=7)
    sp.add_argument("--i2-order", help="order file or builtin:<name> (searched when omitted)")

    sp = sub.add_parser("repro", help="run the acceptance reproductions")
    sp.add_argument("names", nargs="*", help=f"subset of: {', '.join(harness.REPRO_SUITE)}")

    return p


def _vertex(g, token: str) -> int:
    if token.isdigit():
        return int(token)
    names = g.vertex_names()
    if token not in names:
        raise ValueError(f"unknown vertex {token!r} (labels: {', '.join(names)})")
    return names.index(token)


def _witness_json(report, names) -> dict | None:
    if report.witness is None:
        return None
    w = report.witness
    return {"t": w.t, "i": w.i, "colon": w.colon.format(names), "colon_exps": list(w.colon.exps)}


def _print_verified(o, args) -> int:
    """Print a constructed order and exit with the verifier's verdict on it."""
    passed = verify_linear_quotients(o).passed
    if args.json:
        print(json.dumps({"order": o.multisets()}, indent=2))
    else:
        sys.stdout.write(fixtures.format_order(o))
    return VERDICT_EXIT["yes" if passed else "fail"]


def _not_found(record: dict, budget: int, g, q: int) -> str:
    """What a search that gave no order reports on stderr."""
    if "nodes" not in record:
        return f"cap exceeded: {record['reason']}"
    if record.get("by") == "restriction":
        w = " ".join(g.vertex_names()[v] for v in record["W"])
        return f"no: induced 2K2 on {w}, whose power q={q} has no order ({record['nodes']} nodes)"
    return f"{record['verdict']} after {record['nodes']} nodes (budget {budget})"


def _cmd_powers(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    pg = power_generators(edge_ideal(g), args.q)
    out: dict = {"q": args.q, "count": pg.count}
    if args.list:
        names = g.vertex_names()
        out["gens"] = [
            {
                "monomial": Monomial(row).format(names),
                "exps": row,
                "factorizations": [list(ms) for ms in facs],
            }
            for row, facs in zip(pg.exps.tolist(), pg.factorizations)
        ]
    print(json.dumps(out, indent=2))
    return PASS


def _cmd_verify(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    o = fixtures.resolve_order(args.order, g)
    t0 = time.perf_counter()
    report = verify_linear_quotients(o)
    out = {
        "pass": report.passed,
        "witness": _witness_json(report, g.vertex_names()),
        "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    print(json.dumps(out, indent=2))
    return VERDICT_EXIT["yes" if report.passed else "fail"]


def _cmd_find_order(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    record, o = harness.search_verdict(g, args.q, args.budget)
    if args.json:
        print(json.dumps(record, indent=2))
    elif o is not None:
        sys.stdout.write(fixtures.format_order(o))
    else:
        print(_not_found(record, args.budget, g, args.q), file=sys.stderr)
    return VERDICT_EXIT[record["verdict"]]


def _cmd_efficient_order(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    base = fixtures.resolve_order(args.base_order, g)
    require_verified(base, "efficient_ordering")
    return _print_verified(efficient_ordering(base, args.s), args)


def _cmd_admissible_order(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    eo = admissible_order(g)
    if args.json:
        print(json.dumps({"edge_order": list(eo), "edges": [list(g.edges[j]) for j in eo]}))
    else:
        print(" ".join(str(j) for j in eo))
    return PASS


def _resolve_edge_order(g, token: str, o2) -> tuple[int, ...]:
    if token == "auto":
        return auto_edge_order(g, o2)[0]
    return tuple(int(t) for t in token.replace(",", " ").split())


def _cmd_compatible_orders(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    if args.i2_order == "auto":
        record, o2 = harness.search_verdict(g, 2, args.budget)
        if o2 is None:
            if args.json:
                print(json.dumps(record, indent=2))
            else:
                print(f"no square order: {_not_found(record, args.budget, g, 2)}", file=sys.stderr)
            return VERDICT_EXIT[record["verdict"]]
    else:
        o2 = fixtures.resolve_order(args.i2_order, g)
        require_verified(o2, "compatible_orders")
    eo = _resolve_edge_order(g, args.edge_order, o2)
    return _print_verified(compatible_orders(g, eo, o2, args.q), args)


def _cmd_transport(args) -> int:
    """``duplicate`` and ``expand``: the new graph, or with ``--order`` the
    order transported to the same power of its edge ideal."""
    g = fixtures.resolve_graph(args.graph)
    x = _vertex(g, args.vertex)
    expand = args.command == "expand"
    # built before the order is read, so an out-of-range vertex reports first
    new_graph = (expand_vertex if expand else duplicate_vertex)(g, x)
    if args.order is None:
        sys.stdout.write(format_graph(new_graph))
        return PASS
    o = fixtures.resolve_order(args.order, g)
    if not expand:
        require_verified(o, "duplication_order")
        return _print_verified(duplication_order(o, x), args)
    b_order = [_vertex(g, t) for t in (args.b_order or "").replace(",", " ").split()] or None
    built = expansion_order(o, x, b_order)  # its gapfree and B-order checks report first
    require_verified(o, "expansion_order")
    return _print_verified(built, args)


def _cmd_classify(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    print(json.dumps(harness.classify_graph(g), indent=2))
    return PASS


def _cmd_scan(args) -> int:
    records = harness.scan_small_graphs(args.n, args.q_max, args.budget)
    print(json.dumps(records, indent=2))
    return PASS


def _cmd_thm64(args) -> int:
    g = fixtures.resolve_graph(args.graph)
    o2 = fixtures.resolve_order(args.i2_order, g) if args.i2_order else None
    report = harness.check_theorem64_premises(g, args.budget, args.q_through, o2=o2)
    print(json.dumps(report, indent=2))
    # The tower stops at its first power that is not "yes".
    last = list(report["computed"].values())[-1]
    return VERDICT_EXIT[last["verdict"]]


def _cmd_repro(args) -> int:
    reports, ok = harness.run_repro(args.names, args.budget)
    if args.json:
        print(json.dumps(reports, indent=2))
    else:
        for rep in reports:
            status = "PASS" if rep["passed"] else "FAIL"
            print(f"{status} {rep['name']} ({rep['elapsed_s']}s)")
            if not rep["passed"]:
                for c in rep["checks"]:
                    if not c["ok"]:
                        print(f"  failed: {c['check']}")
    return PASS if ok else FAIL


_COMMANDS = {
    "powers": _cmd_powers,
    "verify": _cmd_verify,
    "find-order": _cmd_find_order,
    "efficient-order": _cmd_efficient_order,
    "admissible-order": _cmd_admissible_order,
    "compatible-orders": _cmd_compatible_orders,
    "duplicate": _cmd_transport,
    "expand": _cmd_transport,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "thm64": _cmd_thm64,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NotGapfree, OrderingPreconditionError) as e:
        print(f"rejected: {e}", file=sys.stderr)
        return FAIL
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return BUDGET
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
