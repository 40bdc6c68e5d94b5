"""The deterministic constructions emit byte-identical order files.

Each digest is the sha256 of an order file (``fixtures.format_order``), of
a scan's JSON or of a command's standard output.  A refactor of the generator
representation or of the order constructions must leave every digest
unchanged; a deliberate change of an order is a change of these pins.
"""

import hashlib
import json

import pytest

from linquo import cli, fixtures
from linquo.harness import scan_small_graphs
from linquo.linquot import duplication_order, expansion_order
from linquo.orderings import (
    admissible_order,
    compatible_orders,
    efficient_ordering,
    pure_power_edge_sequence,
)
from linquo.power_ideals import edge_ideal, power_generators

FIG2_X = 4

PINS = {
    "efficient c5 s=3": "8fd61e84eb7d71281bc94ae4cac233376766c55742732402ac051dfc52b1a021",
    "efficient c5 s=4": "c3a0fcdc7789268e2a6744c60e0679ef57e6635032c486ee328e2268dac06095",
    "efficient c5 s=5": "87db939666549c25f8de7f14ce0da1f4253789be5daa688541d6ee8369cc46ae",
    "efficient c5 s=6": "57d9f3020e909d1568bc4444656d013e7134e9c68e13dd37ab75b4c5f0492d79",
    "compatible fig2 q=3": "a8102d8fc5848c07db1a610e53eec1d29caebda4ceae634975c62cebc622de94",
    "compatible fig2 q=4": "9b378f736a6367eb2106360a23ff695df19bee159e8a66c2fc95d4f0a0cca1ab",
    "compatible fig4 q=3": "b76e6323179d1430793379bd0587c80cc227df8a7623f58327b4b5fac2e0c4de",
    "compatible fig4 q=4": "05843dd1eae98068f98abba3bcf35707717ccf6eb67843812f6e49b22150e0dd",
    "compatible c5 peel q=3": "7fe7c1ac24a4d0ee21121c89b0ebb7040780d4c8b4d6f067c702f6fcc5a02943",
    "duplication fig2 at x": "9c6c43213ec5a55d0fcd04a098485b4e6ea1f312ea3ebb83ec4dcaa13c1ccdc9",
    "expansion fig2 at x, B=(2, 3)": "bc404a87038bd02dd95c0b3e44a6f1fd0238d1ed06fe86689d60593645b9bfbe",
    "expansion fig2 at x, B=(3, 2)": "b7c50bcd4a50b8343ea30e28e25e16e8d7e5d66b9fb0ff6d2affa2fec192405f",
    "scan n=4 q<=2": "01a4fa7c6238160dbbc38106c172d3fb41460085cde1850887247218c4912a88",
}

# The standard output of each command line.
CLI_PINS = {
    "thm64 --graph fig4": "29fae0e3e853345fca89f6744ec33a3f45330585b09399b38beef94131dee162",
    "thm64 --graph gamma7": "07db5965956e663524a9f3b8cedfcb45c0b8561041edade20429c1158c2c124e",
    "thm64 --graph c5": "326202ddad65607a2cdfa231513542e6158b18c8bd86c6408999495d24606054",
    "thm64 --graph c5k3": "834be3d0211d5f01e3cec3c2298f23d087fb49264b09716ba2c4fd0bf54a0268",
    "--json find-order --graph c5 --q 2": "808bc04ba2b25b5d1faa6d1bf4b1cedbbf2004d11f6b1e65122feeffedd19736",
    "--json compatible-orders --graph fig2 --i2-order builtin:fig2 --q 3":
        "39ef17d7a0a9a383b6df5b03d7456d2d48cf0810398d3831d06b6522fe703483",
}


def _square(name):
    fixture = {"istanbul": "c5", "fig2": "fig2", "fig4": "fig4"}[name]
    pg = power_generators(edge_ideal(fixtures.named_graph(fixture)), 2)
    return fixtures.builtin_order(name, pg)


def _outputs():
    ist = _square("istanbul")
    for s in (3, 4, 5, 6):
        yield f"efficient c5 s={s}", fixtures.format_order(efficient_ordering(ist, s))
    for name in ("fig2", "fig4"):
        o2 = _square(name)
        g = o2.base.ideal.graph
        eo = pure_power_edge_sequence(o2)
        for q in (3, 4):
            o = compatible_orders(g, eo, o2, q)
            yield f"compatible {name} q={q}", fixtures.format_order(o)
    c5 = fixtures.c5()
    o3 = compatible_orders(c5, admissible_order(c5), ist, 3)
    yield "compatible c5 peel q=3", fixtures.format_order(o3)
    fig2_square = _square("fig2")
    yield "duplication fig2 at x", fixtures.format_order(duplication_order(fig2_square, FIG2_X))
    for b in ((2, 3), (3, 2)):
        o = expansion_order(fig2_square, FIG2_X, b)
        yield f"expansion fig2 at x, B={b}", fixtures.format_order(o)
    yield "scan n=4 q<=2", json.dumps(scan_small_graphs(4, 2))


@pytest.fixture(scope="module")
def digests():
    return {
        label: hashlib.sha256(text.encode()).hexdigest() for label, text in _outputs()
    }


def test_construction_outputs_are_byte_identical(digests):
    assert digests == PINS


@pytest.mark.parametrize("argv", CLI_PINS)
def test_command_outputs_are_byte_identical(argv, capsys):
    cli.main(argv.split())
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_PINS[argv]


def test_orders_from_files_and_builtins_keep_their_pins(tmp_path, capsys):
    """What ``--base-q`` and the transports' ``--q`` did is done from the
    order alone: the power is read from its multisets."""
    cube = tmp_path / "fig4-cube.order"
    cube.write_text(fixtures.format_order(efficient_ordering(_square("fig4"), 3)))
    transport = ["--graph", "fig2", "--vertex", "x", "--order", "builtin:fig2"]
    runs = [
        ("compatible fig4 q=4", ["efficient-order", "--graph", "fig4", "--base-order", str(cube), "--s", "4"]),
        ("duplication fig2 at x", ["duplicate", *transport]),
        ("expansion fig2 at x, B=(2, 3)", ["expand", *transport, "--b-order", "2,3"]),
        ("expansion fig2 at x, B=(3, 2)", ["expand", *transport, "--b-order", "3,2"]),
        # B is read as ``--vertex`` is: p and q are fig2's vertices 2 and 3
        ("expansion fig2 at x, B=(2, 3)", ["expand", *transport, "--b-order", "p,q"]),
        ("expansion fig2 at x, B=(3, 2)", ["expand", *transport, "--b-order", "q,p"]),
    ]
    for label, argv in runs:
        assert cli.main(argv) == cli.PASS
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS[label]


def test_a_printed_order_is_read_back_from_its_file(tmp_path, capsys):
    """A command writes its order to standard output, and that output saved
    to a file is an order file that ``verify`` and the constructions read."""
    path = tmp_path / "c5-cube.order"
    assert cli.main(["efficient-order", "--graph", "c5", "--base-order", "builtin:istanbul", "--s", "3"]) == cli.PASS
    path.write_text(capsys.readouterr().out)
    assert cli.main(["verify", "--graph", "c5", "--order", str(path)]) == cli.PASS
    capsys.readouterr()
    assert cli.main(["efficient-order", "--graph", "c5", "--base-order", str(path), "--s", "4"]) == cli.PASS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS["efficient c5 s=4"]
