"""Byte pins on the command line's outputs, the products of the factor pool,
the product-bound catalog and the naive engine's witnesses.

Each digest is the sha256 of one command's stdout, of every product or every
answer the bound catalog gives over a fixed factor pool, or of every naive
result over a fixed graph set; a digest that moves means a user-visible
output changed.
"""

import hashlib
import json
import random

import pytest

from mcgraph import cli
from mcgraph import io as gio
from mcgraph.bounds import corollary_lower, corollary_source, product_mc_bounds
from mcgraph.graph import Graph
from mcgraph.mc import mc_bounds_combined
from mcgraph.naive import mc_exact_naive
from mcgraph.products import ProductKind, make_product
from mcgraph.smallgraphs import random_connected_graph
from mcgraph.treecover import mc_exact
from mcgraph.verification import factor_pool

FAMILY_ARGS = {
    "path": ["4"],
    "cycle": ["5"],
    "clique": ["4"],
    "star": ["4"],
    "hypercube": ["3"],
    "petersen": [],
    "grid": ["3", "2"],
    "mesh": ["2", "2", "2"],
    "lex_mesh": ["3", "2"],
    "torus": ["3", "3"],
    "lex_torus": ["3", "3"],
    "generalized_hypercube": ["2", "3"],
    "lex_generalized_hypercube": ["2", "3"],
    "hyper_petersen": ["4"],
    "hl": ["4"],
}
KINDS = ("cartesian", "lexicographic", "strong", "direct")

GEN_DIGESTS = {
    "clique": "3b2481982e21cd4a4243c1efe35f2ecdd28230117628c1c61af6187e601b0b0d",
    "cycle": "73a3cb60ae6a7ac22c40541a6a1cfa5e330cc527210e97829d5d4a004f180c87",
    "generalized_hypercube": "71a30b3db281bc115b3f499dac20211ad2c655d491801c1a2bd56fd8bc47b631",
    "grid": "8e8f85c2cdcced658c2f6577f93cb272e9a4354fe92f34653a747957db3d900a",
    "hl": "7613a6a18a62caa26f707e4e4e42d7646e8cb110cd9f48c1f67e9f498dd3ee2f",
    "hyper_petersen": "859702a36ef4f9f0b1e4972ca5382d66cd73144da56c8e7affe4c74eb3d2a7b0",
    "hypercube": "781346bce0b6c178bc09d50ba0892b6cceb59234c243407227f88e53c5fb4739",
    "lex_generalized_hypercube": "56e798b3c7a61ab0a7e01fb16d0090c0d51adf80f95db2d2e31594ce0686bd20",
    "lex_mesh": "ba146cb0a987d6acf659813bf627aee0e44246c94b85c2f2c0a35a977e2fdbb8",
    "lex_torus": "fde63911994262763d139ade9348bf84d881de0beec50025942658f7dd033734",
    "mesh": "781346bce0b6c178bc09d50ba0892b6cceb59234c243407227f88e53c5fb4739",
    "path": "0086342a0f68c4e51cbcbe4c6a7302ae8c8f2be51c4405e1c6cdb29c1cf56800",
    "petersen": "21a6fc7002d82febf6f288107cb18e3094d1c110bb6b3813b0e1613506a8d152",
    "star": "2aa848ffa0aa6d9c4f737868dd30ea7d07ca08884316147ee63e368e9ca38fd7",
    "torus": "b801542468ee8cfb685c8953c221b407921b7319f37b1a972ab07728b46fe8d1",
}
# a second parameter set of each product family, and the one-vertex 0-cube
GEN_MORE_DIGESTS = {
    "generalized_hypercube 3 2 2": "1c028525fdd363c380955b30db4470c033c789ecf351f3101537846d9eb66bdf",
    "grid 2 4": "31375c90a3c70d1895fadbfc52c7f143f9f3016a5286186ae56b4c7fbc87487d",
    "hl 3": "30183de5055b41b56aa59b19cf1e94fb1cfd2bd22ba628be2b4e7f091ce1afae",
    "hyper_petersen 3": "edaa7d35448e8cb86f7672401f29553d8b837a542a5783f2318a83b4ab1fb163",
    "hypercube 0": "e8709616d448954c85e394de8939c77add7999b33ca813aaf4761b2cb224599e",
    "lex_generalized_hypercube 2 2 2": "66a549c96ec670eb56def6513be553725f51f43f8c3f3e8ce6a29856db38b6ef",
    "lex_mesh 2 2 3": "e08aae0118e71a80009add6e37efc2792f94e2d4cc19be6764ec15831c922b6c",
    "lex_torus 3 4": "e2601ab4dec2c9d668309be9495d2c9cabf34b4787ed8368b64f7f2036651fc8",
    "mesh 2 3 4": "e79b72024850050e218e84da525b251a7fdfe525ba3d9349d5e6929b73514c3a",
    "torus 3 4 3": "88ec8fafcf690a98791c3f843ae00a2eb8ab8b375d293a88412e2f62e8295a9f",
}
PRODUCT_DIGESTS = {
    "cartesian": "0932026c0184a13d8c5aa82da184177471cf67306f3603596512dae3596025ca",
    "lexicographic": "36579fe7b213d2e7c3f859a2744e58eb391855993975edd1b1e4e0f4052135d5",
    "strong": "8a5dd67acab84edbfee7025e3d702f127eb12fe284e12fa6e7c9a98b750953e3",
    "direct": "65c181a21abd0eaf8c20d4e20e569234b4efba9a19d0e5fb61b7ff2060650616",
}
# every kind over every ordered pair of the factor pool, as graph JSON
POOL_PRODUCT_DIGEST = "ae46d43d785d39ae0b29c713d99fd81356479c72538f2a7435813592b8527f2e"
BOUNDS_DIGESTS = {
    "cartesian": "b9f9f268333e9bea0c10c38b6b91f2886f099ed728cd2b46e593965e5d66d0e4",
    "lexicographic": "86fe8bcdab74c6f06189a44651808b9768dfe0cc7fa2c50bb7e8a4bd4a625fec",
    "strong": "3849e5fea1cc578ef0dcf0ec1b4a2c2fe20c2d1a98c233dbfcff1fb468607db2",
    "direct": "e54e1a1e563d601a0fbb22e10defacb8fce5cc9f9490a240814f67ab0278a12a",
}
CATALOG_DIGEST = "768ec2a4ab5b0398232567732b52c43486259e3229c820c09802921bd9d1a592"
NAIVE_DIGEST = "8ec89b8f2f995e58e1bc54611859f0a16c02ebb92e78c36a14bc74dc96e19bda"
REPORT_DIGESTS = {
    "csv": "4cb3643ead1d0936e326c4aafbb3ced06d0aa7771462088fa4675893ff8006c4",
    "json": "b005161afe72104e4cc207b187d5d756aa775151a153fa57584dee1fa0c375b8",
}


def stdout_digest(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_gen_json(capsys, family):
    assert stdout_digest(capsys, "gen", family, *FAMILY_ARGS[family]) == (
        GEN_DIGESTS[family]
    )


@pytest.mark.parametrize("spec", sorted(GEN_MORE_DIGESTS))
def test_gen_json_second_parameters(capsys, spec):
    assert stdout_digest(capsys, "gen", *spec.split()) == GEN_MORE_DIGESTS[spec]


@pytest.mark.parametrize("kind", KINDS)
def test_product_json_and_bounds(tmp_path, capsys, kind):
    p3, c4, out = tmp_path / "p3.json", tmp_path / "c4.json", tmp_path / "out.json"
    assert cli.main(["gen", "path", "3", "-o", str(p3)]) == 0
    assert cli.main(["gen", "cycle", "4", "-o", str(c4)]) == 0
    assert cli.main(["product", kind, str(p3), str(c4), "-o", str(out)]) == 0
    # -o writes exactly what stdout would show
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRODUCT_DIGESTS[kind]
    assert stdout_digest(capsys, "mc", "bounds", str(out)) == BOUNDS_DIGESTS[kind]


def test_pool_products():
    pool = factor_pool()
    h = hashlib.sha256()
    for kind in ProductKind:
        for _, g in pool:
            for _, f in pool:
                h.update(gio.dumps(gio.graph_to_obj(make_product(kind, g, f))).encode())
                h.update(b"\n")
    assert h.hexdigest() == POOL_PRODUCT_DIGEST


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report(capsys, fmt):
    assert stdout_digest(capsys, "report", "--format", fmt) == REPORT_DIGESTS[fmt]


def _answer(call) -> object:
    """What a catalog call returns, or the type and text of what it raises."""
    try:
        out = call()
    except Exception as exc:  # the error messages are pinned too
        return [type(exc).__name__, str(exc)]
    return out.to_dict() if hasattr(out, "to_dict") else out


def test_bound_catalog():
    factors = factor_pool() + [
        ("K1", Graph(1, ())),
        ("2K2", Graph(4, ((0, 1), (2, 3)))),
    ]
    mc = {name: mc_exact(f).value for name, f in factors}
    lines = []
    for kind in ProductKind:
        for gname, g in factors:
            for hname, h in factors:
                answers = [
                    _answer(lambda: product_mc_bounds(kind, g, h)),
                    _answer(
                        lambda: product_mc_bounds(
                            kind, g, h, allow_complete_first_factor=True
                        )
                    ),
                    _answer(lambda: corollary_lower(kind, g, h, mc[gname], mc[hname])),
                    _answer(lambda: corollary_source(kind, g, h)),
                    _answer(lambda: mc_bounds_combined(make_product(kind, g, h))),
                ]
                lines.append(json.dumps([kind.value, gname, hname, answers]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CATALOG_DIGEST


def test_naive_witnesses(corpus6):
    # corpus6 plus the 24 seven-vertex draws of oracle-sweep at seed 1; the
    # digest was taken on the unpruned partition search
    rng = random.Random(1)
    drawn = [random_connected_graph(7, m, rng) for m in (9, 10, 11) for _ in range(8)]
    h = hashlib.sha256()
    for g in corpus6 + drawn:
        res = mc_exact_naive(g)
        h.update(json.dumps(res.to_dict(), sort_keys=True).encode())
        h.update(repr(res.witness.colors).encode())
    assert h.hexdigest() == NAIVE_DIGEST
