import pytest

from mcgraph import cli, families
from mcgraph.families import (
    _FAMILIES,
    FAMILIES,
    NetworkSpec,
    generate,
    hypercube_graph,
    path_graph,
    petersen_graph,
    proposition_report,
    report_to_csv,
    report_to_json_obj,
)
from mcgraph.mc import check_mc_coloring
from mcgraph.products import ProductGraph, ProductKind


def spec(family, *params):
    return NetworkSpec(family, tuple(params))


class TestSpecs:
    def test_all_families_known(self):
        assert len(FAMILIES) == 15

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            spec("grid", 3)
        with pytest.raises(ValueError):
            spec("petersen", 1)
        with pytest.raises(ValueError, match="at least three"):
            spec("torus", 2, 3)
        with pytest.raises(ValueError, match=">= 3"):
            spec("hl", 2)
        with pytest.raises(ValueError):
            spec("generalized_hypercube", 1, 2)
        with pytest.raises(ValueError):
            spec("nonsense", 1)


# family -> (message for one parameter below the floor, message for a wrong
# parameter count); petersen takes no parameter to lower
TABLE_MESSAGES = {
    "path": ("path parameters must be positive", "path takes exactly one parameter"),
    "cycle": ("cycle size must be at least three", "cycle takes exactly one parameter"),
    "clique": ("clique parameters must be positive", "clique takes exactly one parameter"),
    "star": ("star needs at least two vertices", "star takes exactly one parameter"),
    "hypercube": (
        "hypercube parameters must be non-negative",
        "hypercube takes exactly one parameter",
    ),
    "petersen": (None, "petersen takes no parameters"),
    "grid": ("grid parameters must be positive", "grid takes exactly two parameters"),
    "mesh": ("mesh parameters must be positive", "mesh needs parameters"),
    "lex_mesh": ("lex_mesh parameters must be positive", "lex_mesh needs parameters"),
    "torus": ("torus rings must have size at least three", "torus needs parameters"),
    "lex_torus": (
        "lex_torus rings must have size at least three",
        "lex_torus needs parameters",
    ),
    "generalized_hypercube": (
        "generalized_hypercube cliques need size at least two",
        "generalized_hypercube needs parameters",
    ),
    "lex_generalized_hypercube": (
        "lex_generalized_hypercube cliques need size at least two",
        "lex_generalized_hypercube needs parameters",
    ),
    "hyper_petersen": (
        "hyper_petersen needs parameter n >= 3",
        "hyper_petersen takes exactly one parameter",
    ),
    "hl": ("hl needs parameter n >= 3", "hl takes exactly one parameter"),
}


def least_params(family):
    """The floor in every position; two positions for a family of any count,
    so that a product family builds a product."""
    row = _FAMILIES[family]
    return (row.floor,) * (2 if row.count is None else row.count)


def bad_specs(family):
    """(params, pinned message): one value below the floor, a wrong count."""
    row = _FAMILIES[family]
    below, wrong_count = TABLE_MESSAGES[family]
    wrong = () if row.count is None else (row.floor,) * (row.count + 1)
    specs = [(wrong, wrong_count)]
    if below is not None:
        specs.append(((row.floor - 1,) + least_params(family)[1:], below))
    return specs


@pytest.mark.parametrize("family", FAMILIES)
class TestFamilyTable:
    def test_least_parameters_build_the_row_kind(self, family):
        row = _FAMILIES[family]
        params = least_params(family)
        g = generate(spec(family, *params))
        one_factor = len(row.factors(params)) == 1
        assert getattr(g, "kind", None) is (None if one_factor else row.kind)

    @pytest.mark.parametrize("bump", [0, 1, 2])
    def test_sizes_by_formula_are_the_built_ones(self, family, bump):
        row = _FAMILIES[family]
        params = tuple(p + bump for p in least_params(family))
        factors = row.factors(params)
        assert [f.size for f in factors] == [(f.build().n, f.build().m) for f in factors]
        g = generate(spec(family, *params))
        assert families._size(family, row.kind, factors) == (g.n, g.m)

    def test_bad_specs_are_rejected(self, family):
        for params, message in bad_specs(family):
            with pytest.raises(ValueError) as info:
                spec(family, *params)
            assert str(info.value) == message

    def test_gen_exits_2_on_bad_specs(self, family, capsys):
        for params, message in bad_specs(family):
            assert cli.main(["gen", family, *map(str, params)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"


class TestGenerate:
    def test_grid(self):
        g = generate(spec("grid", 3, 2))
        assert isinstance(g, ProductGraph)
        assert g.n == 6 and g.m == 7
        assert g.kind is ProductKind.CARTESIAN

    def test_hyper_petersen_3_is_petersen(self):
        built = generate(spec("hyper_petersen", 3))
        assert built.edges == petersen_graph().edges

    def test_hl3_equals_hp3(self):
        hl3 = generate(spec("hl", 3))
        hp3 = generate(spec("hyper_petersen", 3))
        assert hl3.edges == hp3.edges

    def test_hl4(self):
        g = generate(spec("hl", 4))
        assert g.n == 20 and g.m == 130
        assert g.kind is ProductKind.LEXICOGRAPHIC
        assert g.factor_sizes == (2, 10)

    def test_generalized_hypercube_is_cube(self):
        gh = generate(spec("generalized_hypercube", 2, 2, 2))
        assert gh.edges == hypercube_graph(3).edges
        assert gh.n == 8 and gh.m == 12

    def test_torus_edge_count_matches_iterated_formula(self):
        from mcgraph.families import cycle_graph

        built = generate(spec("torus", 3, 4, 3))
        n_acc, m_acc = 3, 3
        for k in (4, 3):
            nxt = cycle_graph(k)
            m_acc = m_acc * nxt.n + nxt.m * n_acc
            n_acc *= nxt.n
        assert (built.n, built.m) == (n_acc, m_acc) == (36, 108)

    def test_lex_mesh_edge_count_matches_iterated_formula(self):
        built = generate(spec("lex_mesh", 3, 2, 2))
        n_acc, m_acc = 3, 2
        for k in (2, 2):
            nxt = path_graph(k)
            m_acc = nxt.m * n_acc + m_acc * nxt.n * nxt.n
            n_acc *= nxt.n
        assert (built.n, built.m) == (n_acc, m_acc)

    def test_mesh_single_factor_is_path(self):
        g = generate(spec("mesh", 5))
        assert g.edges == path_graph(5).edges

    def test_labels_carry_coordinates(self):
        g = generate(spec("mesh", 2, 2, 2))
        assert g.labels[0] == (0, 0, 0)
        assert g.labels[7] == (1, 1, 1)

    def test_zero_cube_is_one_vertex(self):
        g = generate(spec("hypercube", 0))
        assert g.n == 1 and g.m == 0

    def test_grids_fire_the_diameter_condition(self):
        from mcgraph.graph import diameter
        from mcgraph.mc import theorem1_certificate

        for n, m in ((3, 2), (4, 2), (3, 3), (5, 4)):
            built = generate(spec("grid", n, m))
            assert diameter(built) == n + m - 2 >= 3
            cert = theorem1_certificate(built)
            assert "d" in cert.conditions


@pytest.fixture(scope="module")
def rows():
    return proposition_report()


class TestPropositionReport:
    def test_all_rows_agree(self, rows):
        for row in rows:
            assert row.agree, row

    def test_grid_rows(self, rows):
        values = {
            row.params: row.formula_value_or_interval
            for row in rows
            if row.proposition == "Prop1(i)"
        }
        assert values == {(3, 2): "3", (4, 2): "4", (3, 3): "5"}

    def test_complete_lexicographic_cube_row(self, rows):
        (row,) = [r for r in rows if r.proposition == "Prop4(ii)"]
        assert row.formula_value_or_interval == "15"
        assert "all-distinct" in row.evaluator

    def test_petersen_rows(self, rows):
        prop5 = [r for r in rows if r.proposition == "Prop5"]
        by_key = {(r.family, r.params): r for r in prop5}
        assert by_key[("hyper_petersen", (3,))].formula_value_or_interval == "7"
        assert by_key[("hl", (3,))].formula_value_or_interval == "7"
        assert by_key[("hyper_petersen", (4,))].formula_value_or_interval == "22"
        assert by_key[("hl", (4,))].evaluator_value == "[112,121]"

    def test_csv_shape(self, rows):
        text = report_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == (
            "family,params,proposition,formula_value_or_interval,"
            "evaluator,evaluator_value,agree"
        )
        assert len(lines) == len(rows) + 1

    def test_json_fields(self, rows):
        objs = report_to_json_obj(rows)
        assert all(
            set(o) == {
                "family",
                "params",
                "proposition",
                "formula_value_or_interval",
                "evaluator",
                "evaluator_value",
                "agree",
            }
            for o in objs
        )


class TestAllDistinctIsChecked:
    def test_every_complete_row_passes_the_checker(self, monkeypatch):
        checked = []

        def spy(g, coloring):
            checked.append(g.m)
            return check_mc_coloring(g, coloring)

        monkeypatch.setattr(families, "check_mc_coloring", spy)
        rows = [r for r in proposition_report() if "all-distinct" in r.evaluator]
        # K16 (Prop2(ii)), K81 (Prop3(ii)) and K6 (Prop4(ii))
        assert sorted(checked) == [15, 120, 3240]
        assert [r.proposition for r in rows] == ["Prop2(ii)", "Prop3(ii)", "Prop4(ii)"]

    def test_a_rejected_coloring_is_not_reported(self, monkeypatch):
        monkeypatch.setattr(families, "check_mc_coloring", lambda g, c: (False, (0, 1)))
        rows = {r.proposition: r for r in proposition_report()}
        equality, lower = rows["Prop4(ii)"], rows["Prop2(ii)"]
        assert (equality.evaluator, equality.evaluator_value) == ("mc_exact", "15")
        assert equality.agree
        assert (lower.evaluator, lower.evaluator_value) == ("product-term[Thm3(1)]", "-")
        assert not lower.agree
