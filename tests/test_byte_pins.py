"""Byte pins on the command line's outputs.

Each digest is the sha256 of one command's stdout; a digest that moves means
a user-visible output changed.
"""

import hashlib

import pytest

from mcgraph import cli

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
PRODUCT_DIGESTS = {
    "cartesian": "0932026c0184a13d8c5aa82da184177471cf67306f3603596512dae3596025ca",
    "lexicographic": "36579fe7b213d2e7c3f859a2744e58eb391855993975edd1b1e4e0f4052135d5",
    "strong": "8a5dd67acab84edbfee7025e3d702f127eb12fe284e12fa6e7c9a98b750953e3",
    "direct": "65c181a21abd0eaf8c20d4e20e569234b4efba9a19d0e5fb61b7ff2060650616",
}
BOUNDS_DIGESTS = {
    "cartesian": "b9f9f268333e9bea0c10c38b6b91f2886f099ed728cd2b46e593965e5d66d0e4",
    "lexicographic": "86fe8bcdab74c6f06189a44651808b9768dfe0cc7fa2c50bb7e8a4bd4a625fec",
    "strong": "3849e5fea1cc578ef0dcf0ec1b4a2c2fe20c2d1a98c233dbfcff1fb468607db2",
    "direct": "e54e1a1e563d601a0fbb22e10defacb8fce5cc9f9490a240814f67ab0278a12a",
}
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


@pytest.mark.parametrize("kind", KINDS)
def test_product_json_and_bounds(tmp_path, capsys, kind):
    p3, c4, out = tmp_path / "p3.json", tmp_path / "c4.json", tmp_path / "out.json"
    assert cli.main(["gen", "path", "3", "-o", str(p3)]) == 0
    assert cli.main(["gen", "cycle", "4", "-o", str(c4)]) == 0
    assert cli.main(["product", kind, str(p3), str(c4), "-o", str(out)]) == 0
    # -o writes exactly what stdout would show
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRODUCT_DIGESTS[kind]
    assert stdout_digest(capsys, "mc", "bounds", str(out)) == BOUNDS_DIGESTS[kind]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report(capsys, fmt):
    assert stdout_digest(capsys, "report", "--format", fmt) == REPORT_DIGESTS[fmt]
