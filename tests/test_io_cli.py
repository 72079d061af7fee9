import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgraph import cli
from mcgraph import io as gio
from mcgraph.exact import mc_exact
from mcgraph.families import NetworkSpec, cycle_graph, generate, path_graph
from mcgraph.mc import EdgeColoring, mc_bounds_combined
from mcgraph.products import ProductGraph, ProductKind


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

    def test_check_invalid_pair(self, workdir, capsys):
        p3 = workdir / "p3.json"
        bad = workdir / "bad.json"
        run_cli(capsys, "gen", "path", "3", "-o", str(p3))
        bad.write_text(json.dumps({"edges": [[0, 1], [1, 2]], "colors": [0, 1]}))
        code, out, _ = run_cli(capsys, "check", str(p3), str(bad))
        assert code == 1
        assert out.strip() == "INVALID pair (0, 2)"

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
        hl4 = workdir / "hl4.json"
        run_cli(capsys, "gen", "hl", "4", "-o", str(hl4))
        monkeypatch.setenv("MCGRAPH_BUDGET", "10")
        code, out, _ = run_cli(capsys, "mc", "exact", str(hl4))
        assert code == 3
        obj = json.loads(out)
        assert obj["method"] == "bounds-only" and obj["value"] is None

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
                "nodes", "floor", "floor_by", "targets", "cut", "path_nodes"
            }
            assert stats["floor_by"] in {"Lem1", "matching", "capacity"}
            if searched:
                assert stats["nodes"] > 0 and stats["targets"] == [stats["floor"]]
                assert 0 < stats["path_nodes"] < stats["nodes"]
            else:
                assert stats["nodes"] == 0 and stats["targets"] == []
                assert stats["path_nodes"] == 0
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
    ],
    ids=[
        "string-n",
        "product-without-kind",
        "float-endpoint",
        "forged-product-k4-minus-edge",
        "forged-product-paw",
    ],
)
def test_malformed_graph_exits_2_without_traceback(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    done = run_module("mc", "bounds", str(path))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


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
    monkeypatch.setattr(gio, "make_product", lambda *args: pytest.fail("rebuilt"))
    n = 100_000
    obj = {"n": 2 * n, "edges": [[0, n]], "product": {"kind": "lex", "factors": [2, n]}}
    with pytest.raises(ValueError, match="inconsistent"):
        gio.graph_from_obj(obj)


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
        "product": st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(["cartesian", "lex", "bogus"]) | JSON_VALUES,
                "factors": st.lists(st.integers(-1, 4) | SCALARS, max_size=3)
                | JSON_VALUES,
            },
        )
        | JSON_VALUES,
    },
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(GRAPH_OBJS.map(json.dumps), JSON_VALUES.map(json.dumps), st.text()))
def test_loads_graph_rejects_only_with_value_error(text):
    try:
        gio.loads_graph(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "edges": st.just([[0, 1], [1, 2]]) | PAIRS | JSON_VALUES,
            "colors": st.lists(st.integers(-1, 2) | SCALARS, max_size=3) | JSON_VALUES,
        }
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
