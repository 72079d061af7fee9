import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgraph import cli, families, products
from mcgraph import io as gio
from mcgraph import smallgraphs
from mcgraph.families import NetworkSpec, cycle_graph, generate, path_graph
from mcgraph.graph import Graph, metrics
from mcgraph.mc import (
    EdgeColoring,
    check_mc_coloring,
    mc_bounds_combined,
    spanning_tree_coloring,
)
from mcgraph.products import ProductGraph, ProductKind, make_product
from mcgraph.treecover import mc_exact
from mcgraph.verification import SuiteResult


class TestGraphJson:
    @pytest.mark.parametrize(
        "fam,params",
        [("petersen", ()), ("grid", (3, 2)), ("hl", (4,)), ("path", (4,))],
    )
    def test_roundtrip_byte_identical(self, fam, params):
        built = generate(NetworkSpec(fam, params))
        text = gio.dumps(gio.graph_to_obj(built))
        again = gio.dumps(gio.graph_to_obj(gio.loads_graph(text)))
        assert text == again

    def test_product_metadata_survives(self):
        built = generate(NetworkSpec("grid", (3, 2)))
        loaded = gio.loads_graph(gio.dumps(gio.graph_to_obj(built)))
        assert isinstance(loaded, ProductGraph)
        assert loaded.kind.value == "cartesian"
        assert loaded.factor_sizes == (3, 2)

    def test_inconsistent_product_metadata_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            gio.graph_from_obj(
                {"n": 4, "edges": [[0, 1]], "product": {"kind": "cartesian", "factors": [3, 2]}}
            )

    def test_edge_list_format(self):
        g = gio.loads_graph("4 3\n0 1\n1 2\n2 3\n")
        assert g.edges == path_graph(4).edges

    def test_edge_list_bad_count(self):
        with pytest.raises(ValueError, match="expected 2"):
            gio.loads_graph("3 2\n0 1\n")


class TestColoringJson:
    def test_roundtrip(self):
        g = cycle_graph(4)
        c = EdgeColoring(g, (0, 0, 0, 1))
        obj = json.loads(gio.dumps(gio.coloring_to_obj(c)))
        again = gio.coloring_from_obj(g, obj)
        assert again.colors == c.colors

    def test_mismatched_edges_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="does not match"):
            gio.coloring_from_obj(g, {"edges": [[0, 1]], "colors": [0]})


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_gen_petersen(self, workdir, capsys):
        out_path = workdir / "p.json"
        code, _, _ = run_cli(capsys, "gen", "petersen", "-o", str(out_path))
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["n"] == 10 and len(obj["edges"]) == 15

    def test_gen_grid_counts(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "gen", "grid", "3", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 6 and len(obj["edges"]) == 7

    def test_gen_torus_too_small(self, capsys):
        code, _, err = run_cli(capsys, "gen", "torus", "2", "3")
        assert code == 2
        assert "at least three" in err

    def test_product_lex_petersen(self, workdir, capsys):
        p2 = workdir / "p2.json"
        pet = workdir / "pet.json"
        run_cli(capsys, "gen", "path", "2", "-o", str(p2))
        run_cli(capsys, "gen", "petersen", "-o", str(pet))
        code, out, _ = run_cli(capsys, "product", "lex", str(p2), str(pet))
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 20 and len(obj["edges"]) == 130

    def test_product_direct_flags_disconnected(self, workdir, capsys):
        p2 = workdir / "p2.json"
        run_cli(capsys, "gen", "path", "2", "-o", str(p2))
        code, out, _ = run_cli(capsys, "product", "direct", str(p2), str(p2))
        assert code == 0
        assert json.loads(out)["connected"] is False

    def test_mc_exact_c4_with_witness_checks(self, workdir, capsys):
        c4 = workdir / "c4.json"
        wit = workdir / "w.json"
        run_cli(capsys, "gen", "cycle", "4", "-o", str(c4))
        code, out, _ = run_cli(capsys, "mc", "exact", str(c4), "--witness", str(wit))
        assert code == 0
        assert json.loads(out)["value"] == 2
        code, out, _ = run_cli(capsys, "check", str(c4), str(wit))
        assert code == 0 and out.strip() == "VALID 2 colors"

    def test_mc_exact_unwritable_witness_emits_nothing(self, workdir, capsys):
        # exit 2 comes with an empty stdout and one error line, stats included
        c4 = workdir / "c4.json"
        wit = workdir / "missing" / "w.json"
        run_cli(capsys, "gen", "cycle", "4", "-o", str(c4))
        code, out, err = run_cli(
            capsys, "mc", "exact", str(c4), "--witness", str(wit), "--stats"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not wit.exists()

    def test_check_invalid_pair(self, workdir, capsys):
        p3 = workdir / "p3.json"
        bad = workdir / "bad.json"
        run_cli(capsys, "gen", "path", "3", "-o", str(p3))
        bad.write_text(json.dumps({"edges": [[0, 1], [1, 2]], "colors": [0, 1]}))
        code, out, _ = run_cli(capsys, "check", str(p3), str(bad))
        assert code == 1
        assert out.strip() == "INVALID pair (0, 2)"

    def test_check_at_scale_q10(self, workdir, capsys):
        # Q10's spanning-tree coloring has 4,098 classes, 4,097 of them one
        # edge: valid.  Moving edge 0, (0, 1), to a fresh color cuts the tree
        # at vertex 1, so the smallest unserved pair is (0, 3).
        q10, tree, moved = workdir / "q10.json", workdir / "tree.json", workdir / "moved.json"
        assert run_cli(capsys, "gen", "hypercube", "10", "-o", str(q10))[0] == 0
        obj = gio.coloring_to_obj(spanning_tree_coloring(gio.loads_graph(q10.read_text())))
        tree.write_text(json.dumps(obj))
        obj["colors"][0] = 4098
        moved.write_text(json.dumps(obj))
        assert run_cli(capsys, "check", str(q10), str(tree)) == (0, "VALID 4098 colors\n", "")
        assert run_cli(capsys, "check", str(q10), str(moved)) == (
            1, "INVALID pair (0, 3)\n", ""
        )

    def test_check_refuses_a_field_the_writer_never_writes(self, workdir, capsys):
        # a round trip would drop the note, and check would call the file valid
        p3, noted = workdir / "p3.json", workdir / "noted.json"
        run_cli(capsys, "gen", "path", "3", "-o", str(p3))
        noted.write_text('{"edges":[[0,1],[1,2]],"colors":[0,0],"note":"x"}')
        assert run_cli(capsys, "check", str(p3), str(noted)) == (
            2, "", "error: unknown field 'note' in coloring object\n"
        )

    def test_check_mismatch_is_usage_error(self, workdir, capsys):
        p3 = workdir / "p3.json"
        bad = workdir / "bad.json"
        run_cli(capsys, "gen", "path", "3", "-o", str(p3))
        bad.write_text(json.dumps({"edges": [[0, 1]], "colors": [0]}))
        code, _, err = run_cli(capsys, "check", str(p3), str(bad))
        assert code == 2 and "match" in err

    def test_mc_bounds_hl4(self, workdir, capsys):
        hl4 = workdir / "hl4.json"
        run_cli(capsys, "gen", "hl", "4", "-o", str(hl4))
        code, out, _ = run_cli(capsys, "mc", "bounds", str(hl4))
        assert code == 0
        obj = json.loads(out)
        assert (obj["lower"], obj["upper"]) == (112, 121)

    def test_mc_certify_petersen(self, workdir, capsys):
        pet = workdir / "pet.json"
        run_cli(capsys, "gen", "petersen", "-o", str(pet))
        code, out, _ = run_cli(capsys, "mc", "certify", str(pet))
        assert code == 0
        obj = json.loads(out)
        assert "b" in obj["conditions"] and obj["value"] == 7

    def test_mc_exact_budget_exhaustion(self, workdir, capsys, monkeypatch):
        # the search stops at the first node past the budget the variable
        # sets, and prints the bounds the root floor proves
        hl4 = workdir / "hl4.json"
        run_cli(capsys, "gen", "hl", "4", "-o", str(hl4))
        monkeypatch.setenv("MCGRAPH_BUDGET", "10")
        code, out, err = run_cli(capsys, "mc", "exact", str(hl4), "--stats")
        assert code == 3
        obj = json.loads(out)
        assert obj["method"] == "bounds-only" and obj["value"] is None
        assert (obj["bounds"]["lower"], obj["bounds"]["upper"]) == (112, 120)
        assert json.loads(err)["nodes"] == 11

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_non_positive_budget_is_an_input_error(
        self, workdir, capsys, monkeypatch, raw
    ):
        c4 = workdir / "c4.json"
        run_cli(capsys, "gen", "cycle", "4", "-o", str(c4))
        monkeypatch.setenv("MCGRAPH_BUDGET", raw)
        code, out, err = run_cli(capsys, "mc", "exact", str(c4))
        assert code == 2 and out == ""
        assert err == f"error: MCGRAPH_BUDGET must be positive, got {raw!r}\n"

    def test_mc_exact_stats_go_to_stderr_only(self, workdir, capsys):
        # grid 3x3 is settled by the capacity floor (n - 2) with no search;
        # lex_mesh 2 3 needs one round at its floor
        for params, value, searched in ((("grid", "3", "3"), 5, False),
                                        (("lex_mesh", "2", "3"), 11, True)):
            path = workdir / "g.json"
            run_cli(capsys, "gen", *params, "-o", str(path))
            code, plain_out, plain_err = run_cli(capsys, "mc", "exact", str(path))
            assert code == 0 and plain_err == ""
            code, out, err = run_cli(capsys, "mc", "exact", str(path), "--stats")
            assert code == 0 and out == plain_out
            assert err.count("\n") == 1
            stats = json.loads(err)
            assert set(stats) == {
                "nodes", "floor", "floor_by", "targets", "cut", "matching_cut",
                "symmetric",
            }
            assert stats["floor_by"] in {"Lem1", "matching", "capacity"}
            assert 0 <= stats["matching_cut"] <= stats["cut"]
            if searched:
                assert stats["nodes"] > 0 and stats["targets"] == [stats["floor"]]
            else:
                assert stats["nodes"] == 0 and stats["targets"] == []
            assert json.loads(out)["value"] == value

    def test_mc_exact_disconnected_is_zero_exit_zero(self, workdir, capsys):
        path = workdir / "g.json"
        path.write_text('{"n":4,"edges":[[0,1],[2,3]]}')
        code, out, _ = run_cli(capsys, "mc", "exact", str(path))
        assert code == 0 and json.loads(out)["value"] == 0

    def test_report_csv_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert out.splitlines()[0].startswith("family,params,proposition")
        code, out, _ = run_cli(capsys, "report", "--format", "json")
        rows = json.loads(out)
        assert code == 0 and all(row["agree"] for row in rows)

    def test_verify_propositions(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "propositions")
        assert code == 0
        assert "PASS propositions.proposition_agreement" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("core", "--max-n", "0"), "--max-n must be a positive integer, got 0"),
            (("products", "--max-n", "-1"), "--max-n must be a positive integer, got -1"),
            (("propositions", "--max-n", "3"), "verify propositions takes no --max-n"),
        ],
    )
    def test_verify_rejects_a_bad_max_n(self, capsys, monkeypatch, argv, message):
        def never(**kwargs):
            pytest.fail("a suite started")

        monkeypatch.setattr(cli, "SUITES", dict.fromkeys(cli.SUITES, never))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_verify_core_refuses_max_n_8_before_any_work(self, capsys, monkeypatch):
        # the real suite runs; it must stop at the corpus size, before the
        # enumeration lists a pair or a permutation
        def never(*args):
            pytest.fail("the enumeration started")

        monkeypatch.setattr(smallgraphs, "combinations", never)
        monkeypatch.setattr(smallgraphs, "permutations", never)
        code, out, err = run_cli(capsys, "verify", "core", "--max-n", "8")
        assert code == 2 and out == ""
        assert err == "error: exhaustive graph enumeration stops at 7 vertices, got 8\n"

    @pytest.mark.parametrize(
        "argv,kwargs",
        [
            (("core",), {"seed": 0}),
            (("core", "--max-n", "4", "--seed", "2"), {"max_n": 4, "seed": 2}),
            (("products",), {}),
            (("products", "--max-n", "7"), {"max_vertices": 7}),
            (("bounds", "--max-n", "8"), {"max_exact_vertices": 8}),
            (("propositions",), {}),
        ],
    )
    def test_verify_passes_max_n_only_when_given(self, capsys, monkeypatch, argv, kwargs):
        calls = []

        def suite(**given):
            calls.append(given)
            return SuiteResult(argv[0])

        monkeypatch.setattr(cli, "SUITES", dict.fromkeys(cli.SUITES, suite))
        code, _, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and calls == [kwargs]

    def test_gen_roundtrip_reserialization(self, workdir, capsys):
        out_path = workdir / "g.json"
        run_cli(capsys, "gen", "grid", "3", "2", "-o", str(out_path))
        text = out_path.read_text()
        loaded = gio.loads_graph(text)
        assert gio.dumps(gio.graph_to_obj(loaded)) + "\n" == text

    def test_pretty_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--pretty", "gen", "path", "3")
        assert code == 0 and out.startswith("{\n")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(*args):
    """Run ``python -m mcgraph`` with this checkout's sources first on the path."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "mcgraph", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    done = run_module("gen", "path", "3")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"n": 3, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize(
    "text",
    [
        '{"n":"3","edges":[]}',
        '{"n":2,"edges":[[0,1]],"product":{"factors":[1,2]}}',
        '{"n":2,"edges":[[0,1.5]]}',
        # K4 minus an edge: believed, mc bounds would print [3, 3] but mc = 4
        '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3]],'
        '"product":{"kind":"cartesian","factors":[2,2]}}',
        # a triangle with a pendant edge has as many edges as the square C4
        '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2]],'
        '"product":{"kind":"cartesian","factors":[2,2]}}',
        # gen hypercube 2 with its flag flipped
        '{"n":4,"edges":[[0,1],[0,2],[1,3],[2,3]],"labels":[[0,0],[0,1],[1,0],[1,1]],'
        '"product":{"kind":"cartesian","factors":[2,2]},"connected":false}',
        # fields the writer never writes, which a round trip would drop
        '{"n":2,"edges":[[0,1]],"connected":true}',
        '{"n":2,"edges":[[0,1]],"labels":null}',
        '{"n":2,"edges":[[0,1]],"colour":5}',
        '{"n":4,"edges":[[0,1],[0,2],[1,3],[2,3]],'
        '"product":{"kind":"cartesian","factors":[2,2],"colour":5}}',
    ],
    ids=[
        "string-n",
        "product-without-kind",
        "float-endpoint",
        "forged-product-k4-minus-edge",
        "forged-product-paw",
        "false-connected-flag",
        "connected-without-product",
        "null-labels",
        "unknown-field",
        "unknown-product-field",
    ],
)
def test_malformed_graph_exits_2_without_traceback(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    done = run_module("mc", "bounds", str(path))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "value,message",
    [
        ("false", "'connected' is false, but the edges make the graph connected"),
        ("1", "'connected' must be true or false, got 1"),
        ('"true"', "'connected' must be true or false, got 'true'"),
        ("null", "'connected' must be true or false, got None"),
    ],
)
def test_a_connected_flag_the_edges_refute_is_refused(tmp_path, capsys, value, message):
    path = tmp_path / "q2.json"
    assert cli.main(["gen", "hypercube", "2", "-o", str(path)]) == 0
    text = path.read_text()
    assert text.count('"connected":true') == 1
    path.write_text(text.replace('"connected":true', f'"connected":{value}'))
    with pytest.raises(ValueError, match=f"^{message}$"):
        gio.loads_graph(path.read_text())
    code, out, err = run_cli(capsys, "mc", "bounds", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_a_disconnected_product_claimed_connected_is_refused(tmp_path, capsys):
    p2, prod = tmp_path / "p2.json", tmp_path / "direct.json"
    run_cli(capsys, "gen", "path", "2", "-o", str(p2))
    run_cli(capsys, "product", "direct", str(p2), str(p2), "-o", str(prod))
    text = prod.read_text()
    assert gio.dumps(gio.graph_to_obj(gio.loads_graph(text))) + "\n" == text
    prod.write_text(text.replace('"connected":false', '"connected":true'))
    code, out, err = run_cli(capsys, "mc", "bounds", str(prod))
    assert code == 2 and out == ""
    assert err == "error: 'connected' is true, but the edges make the graph disconnected\n"


def test_the_flag_check_leaves_one_search_for_the_metrics(connectedness_searches):
    text = gio.dumps(gio.graph_to_obj(generate(NetworkSpec("grid", (3, 4)))))
    connectedness_searches.clear()
    g = gio.loads_graph(text)
    assert len(connectedness_searches) == 1 and connectedness_searches[0] is g
    assert metrics(g).is_connected
    assert gio.dumps(gio.graph_to_obj(g)) == text
    assert len(connectedness_searches) == 1


@pytest.fixture()
def parser_builds(monkeypatch):
    """The number of top-level parsers built, from a cleared parser cache;
    the cache is cleared again afterwards, so no later test sees the
    counting class."""
    builds = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "mcgraph":
                builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    yield builds
    cli.build_parser.cache_clear()


def test_the_shared_parser_leaks_nothing_between_calls(
    tmp_path, capsys, monkeypatch, parser_builds
):
    mine, fresh = tmp_path / "mine", tmp_path / "fresh"
    mine.mkdir()
    fresh.mkdir()
    c4 = tmp_path / "c4.json"
    c4.write_text(gio.dumps(gio.graph_to_obj(cycle_graph(4))) + "\n")
    # each command with and without each option, in turn; OUT is a file in
    # the run's own directory
    commands = [
        ("--pretty", "gen", "path", "3"),
        ("gen", "path", "3"),
        ("gen", "grid", "2", "2", "-o", "OUT/g.json"),
        ("gen", "grid", "2", "2"),
        ("mc", "exact", str(c4), "--stats", "--witness", "OUT/w.json"),
        ("mc", "exact", str(c4)),
        ("--pretty", "mc", "exact", str(c4), "--witness", "OUT/w2.json"),
        ("mc", "bounds", str(c4)),
        ("--pretty", "report", "--format", "json", "-o", "OUT/r.json"),
        ("report", "--format", "json"),
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *(a.replace("OUT", str(mine)) for a in argv))
        done = run_module(*(a.replace("OUT", str(fresh)) for a in argv))
        assert (code, out, err) == (done.returncode, done.stdout, done.stderr), argv
    assert sorted(p.name for p in mine.iterdir()) == ["g.json", "r.json", "w.json", "w2.json"]
    for path in mine.iterdir():
        assert path.read_text() == (fresh / path.name).read_text(), path.name
    # a usage error after all that is still one line, exit 2
    with pytest.raises(SystemExit) as exited:
        cli.main(["mc", "nope", str(c4)])
    captured = capsys.readouterr()
    assert exited.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the suites are looked up when a command runs, not when it was parsed
    ran = []
    monkeypatch.setattr(
        cli, "SUITES", dict.fromkeys(cli.SUITES, lambda **kw: ran.append(kw) or SuiteResult("x"))
    )
    code, _, _ = run_cli(capsys, "verify", "products", "--max-n", "5")
    assert code == 0 and ran == [{"max_vertices": 5}]
    assert len(parser_builds) == 1
    # but their names were read when the parser was built: a new one is
    # refused until the cache is cleared
    monkeypatch.setitem(cli.SUITES, "extra", cli.SUITES["core"])
    with pytest.raises(SystemExit) as exited:
        cli.main(["verify", "extra"])
    assert exited.value.code == 2 and "invalid choice: 'extra'" in capsys.readouterr().err
    cli.build_parser.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "extra")
    assert code == 0 and ran[1:] == [{}] and len(parser_builds) == 2


@pytest.mark.parametrize(
    "argv",
    [("gen", "torus", "x"), ("verify", "core", "--max-n", "x"), ("mc", "nope", "f.json"), ()],
    ids=["gen-bad-int", "verify-bad-max-n", "mc-bad-mode", "no-command"],
)
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exited.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--help",), ("gen", "--help")])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exited.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: mcgraph")


def test_forged_product_metadata_never_excludes_mc(corpus6):
    """Every (kind, a x b) claim on every corpus graph: rejected, or sound."""
    loaded = 0
    for g in corpus6:
        splits = [(a, g.n // a) for a in range(1, g.n + 1) if g.n % a == 0]
        for kind in ProductKind:
            for split in splits:
                obj = {
                    "n": g.n,
                    "edges": [list(e) for e in g.edges],
                    "product": {"kind": kind.value, "factors": list(split)},
                }
                try:
                    forged = gio.graph_from_obj(obj)
                except ValueError as exc:
                    assert "inconsistent" in str(exc)
                    continue
                loaded += 1
                assert mc_exact(forged).value in mc_bounds_combined(forged), obj
    # the genuine products among the 1,768 claims, most of them K1 times the
    # graph itself, still load
    assert loaded == 750


def test_product_claim_with_a_wrong_edge_count_is_refused_unbuilt(monkeypatch):
    # rebuilding lex(K2, 100000 isolated vertices) would take 10^10 edges
    monkeypatch.setattr(gio, "product_edges", lambda *args: pytest.fail("rebuilt"))
    n = 100_000
    obj = {"n": 2 * n, "edges": [[0, n]], "product": {"kind": "lex", "factors": [2, n]}}
    with pytest.raises(ValueError, match="inconsistent"):
        gio.graph_from_obj(obj)


@pytest.fixture()
def recoveries(monkeypatch):
    """The product of every ``recover_factors`` call, under each name the
    package binds it to."""
    calls = []
    real = products.recover_factors

    def counting(product):
        calls.append(product)
        return real(product)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mcgraph" and hasattr(module, "recover_factors"):
            monkeypatch.setattr(module, "recover_factors", counting)
    return calls


def test_mc_bounds_on_a_product_file_recovers_its_factors_once(
    tmp_path, capsys, recoveries
):
    path = tmp_path / "hl4.json"
    assert cli.main(["gen", "hl", "4", "-o", str(path)]) == 0
    assert recoveries == []
    code, out, _ = run_cli(capsys, "mc", "bounds", str(path))
    assert code == 0 and json.loads(out)["upper"] == 121
    assert len(recoveries) == 1


def test_mc_bounds_combined_on_a_built_product_recovers_its_factors_once(recoveries):
    p = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(4))
    first = mc_bounds_combined(p)
    assert mc_bounds_combined(p) == first and len(recoveries) == 1


def never(*args):
    pytest.fail("a product was built")


# hl(40) is Q37 lex Petersen: its first factor, a cartesian product, is
# refused before the lexicographic one is sized
@pytest.mark.parametrize(
    "argv",
    [("gen", "hypercube", "40"), ("gen", "hl", "40"), ("gen", "torus", "100", "100", "100")],
)
def test_gen_refuses_too_large_a_product_before_building(capsys, monkeypatch, argv):
    monkeypatch.setattr(families, "make_product", never)
    monkeypatch.setattr(products, "product_edges", never)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: cartesian product too large: ") and err.count("\n") == 1
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv,message",
    [
        # C600000 alone would peak at about 156 MB
        (
            ("gen", "torus", "600000", "3"),
            "cartesian product too large: 1800000 vertices and 3600000 edges",
        ),
        (("gen", "clique", "2000"), "clique too large: 2000 vertices and 1999000 edges"),
        (("gen", "mesh", "600000"), "mesh too large: 600000 vertices and 599999 edges"),
    ],
)
def test_gen_refuses_before_building_any_factor(capsys, monkeypatch, argv, message):
    # every base graph goes through build_graph
    monkeypatch.setattr(families, "build_graph", never)
    monkeypatch.setattr(families, "make_product", never)
    monkeypatch.setattr(products, "product_edges", never)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == f"error: {message} (at most 524288 of each)\n"
    assert peak < 1 << 20


def test_product_refuses_too_large_a_product_before_building(
    tmp_path, capsys, monkeypatch
):
    # lex(P3, 600 isolated vertices) would have 2 * 600^2 = 720,000 edges
    a, b = tmp_path / "p3.json", tmp_path / "empty.json"
    a.write_text(gio.dumps(gio.graph_to_obj(path_graph(3))))
    b.write_text(gio.dumps({"n": 600, "edges": []}))
    monkeypatch.setattr(products, "product_edges", never)
    code, out, err = run_cli(capsys, "product", "lex", str(a), str(b))
    assert code == 2 and out == ""
    assert err == (
        "error: lexicographic product too large: 1800 vertices and 720000 edges "
        "(at most 524288 of each)\n"
    )


@pytest.mark.parametrize("kind", ["cartesian", "strong", "lexicographic"])
def test_product_file_tampered_off_row_and_column_0_is_refused(tmp_path, capsys, kind):
    # factors are read off row 0 and column 0 only; moving the edge
    # (5, 6) = ((1, 1), (1, 2)) to the non-edge (5, 7) = ((1, 1), (1, 3))
    # keeps both copies and the edge count, and the regeneration refuses it
    obj = gio.graph_to_obj(make_product(ProductKind(kind), path_graph(3), cycle_graph(4)))
    obj["edges"].remove([5, 6])
    obj["edges"] = sorted(obj["edges"] + [[5, 7]])
    path = tmp_path / "tampered.json"
    path.write_text(gio.dumps(obj))
    code, out, err = run_cli(capsys, "mc", "bounds", str(path))
    assert code == 2 and out == ""
    assert err == (
        f"error: product metadata inconsistent: the edges are not a {kind} "
        "product of graphs on 3 and 4 vertices\n"
    )


@pytest.mark.parametrize("product", [None, {"kind": "cartesian", "factors": [1000, 1000]}])
def test_load_cost_follows_the_file_not_the_declared_order(product):
    # a few dozen bytes declare 10^6 vertices; nothing may be built per vertex
    obj = {"n": 10**6, "edges": []}
    if product is not None:
        obj["product"] = product
    g = gio.loads_graph(gio.dumps(obj))
    assert isinstance(g, ProductGraph) == (product is not None)
    iv = mc_bounds_combined(g)
    assert (iv.lower, iv.upper) == (0, 0)
    assert "adjacency" not in g.__dict__


def test_check_cost_follows_the_edges_not_the_declared_order(tmp_path, capsys):
    # 2^62 declared vertices and no edge: every pair is unserved, and nothing
    # may be built per vertex to find the first one
    graph, coloring = tmp_path / "huge.json", tmp_path / "empty.json"
    graph.write_text('{"n":4611686018427387904,"edges":[]}')
    coloring.write_text('{"edges":[],"colors":[]}')
    assert run_cli(capsys, "check", str(graph), str(coloring)) == (
        1, "INVALID pair (0, 1)\n", ""
    )


@pytest.mark.parametrize(
    "edges,colors,pair",
    [
        ((), (), (0, 1)),
        (((0, 1),), (0,), (0, 2)),
        # classes that reach far past the first isolated vertex, 1
        (((0, 2**62 - 1),), (0,), (0, 1)),
        (((0, 2**62 - 2), (2**62 - 2, 2**62 - 1)), (0, 0), (0, 1)),
    ],
    ids=["no-edge", "one-edge", "far-edge", "far-class"],
)
def test_checker_stops_at_the_first_isolated_vertex(edges, colors, pair):
    g = Graph(2**62, edges)
    assert check_mc_coloring(g, EdgeColoring(g, colors)) == (False, pair)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
PAIRS = st.lists(st.lists(SCALARS | st.integers(0, 3), max_size=3), max_size=4)
GRAPH_OBJS = st.fixed_dictionaries(
    {"n": st.integers(-1, 4) | JSON_VALUES, "edges": PAIRS | JSON_VALUES},
    optional={
        "labels": PAIRS | JSON_VALUES,
        "connected": st.booleans() | JSON_VALUES,
        "product": st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(["cartesian", "lex", "bogus"]) | JSON_VALUES,
                "factors": st.lists(st.integers(-1, 4) | SCALARS, max_size=3)
                | JSON_VALUES,
                "colour": SCALARS,
            },
        )
        | JSON_VALUES,
        "colour": SCALARS,
    },
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(GRAPH_OBJS.map(json.dumps), JSON_VALUES.map(json.dumps), st.text()))
def test_loads_graph_rejects_only_with_value_error(text):
    try:
        gio.loads_graph(text)
    except ValueError:
        pass




def _edited(obj, drop, add, add_to_product):
    obj = {key: value for key, value in obj.items() if key not in drop}
    if "product" in obj:
        obj["product"] = {**obj["product"], **add_to_product}
    return {**obj, **add}


# what the writer writes, with fields dropped, nulled or added: random
# objects alone seldom load, and almost never with a product or a stray key
EDITED_OBJS = st.builds(
    _edited,
    st.sampled_from(
        [gio.graph_to_obj(g) for g in (path_graph(2), generate(NetworkSpec("hypercube", (2,))))]
    ),
    st.sets(st.sampled_from(["labels", "product", "connected"])),
    st.fixed_dictionaries(
        {}, optional={"labels": st.none(), "connected": st.booleans(), "colour": SCALARS}
    ),
    st.fixed_dictionaries({}, optional={"colour": SCALARS}),
)


@settings(max_examples=200, deadline=None)
@given(GRAPH_OBJS | EDITED_OBJS)
def test_a_loaded_object_has_only_fields_the_writer_writes(obj):
    try:
        g = gio.graph_from_obj(obj)
    except ValueError:
        return
    written = gio.graph_to_obj(g)
    assert set(obj) <= set(written)
    if "product" in obj:
        assert set(obj["product"]) <= set(written["product"])


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "edges": st.just([[0, 1], [1, 2]]) | PAIRS | JSON_VALUES,
            "colors": st.lists(st.integers(-1, 2) | SCALARS, max_size=3) | JSON_VALUES,
        },
        optional={"note": SCALARS},
    )
    | JSON_VALUES
)
def test_coloring_from_obj_rejects_only_with_value_error(obj):
    try:
        gio.coloring_from_obj(path_graph(3), obj)
    except ValueError:
        pass


def test_deeply_nested_json_is_an_input_error(tmp_path):
    with pytest.raises(ValueError, match="nested"):
        gio.loads_graph('{"n":' + "[" * 100000)
    graph, coloring = tmp_path / "p3.json", tmp_path / "deep.json"
    graph.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    coloring.write_text('{"edges":' + "[" * 100000)
    done = run_module("check", str(graph), str(coloring))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "nested" in done.stderr
