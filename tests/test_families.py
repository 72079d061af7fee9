import pytest

from mcgraph.families import (
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


class TestGenerate:
    def test_grid(self):
        g = generate(spec("grid", 3, 2))
        assert isinstance(g, ProductGraph)
        assert g.n == 6 and g.m == 7
        assert g.kind is ProductKind.CARTESIAN

    def test_hyper_petersen_3_is_petersen(self):
        built = generate(spec("hyper_petersen", 3))
        assert built.graph.edges == petersen_graph().edges

    def test_hl3_equals_hp3(self):
        hl3 = generate(spec("hl", 3))
        hp3 = generate(spec("hyper_petersen", 3))
        assert hl3.graph.edges == hp3.graph.edges

    def test_hl4(self):
        g = generate(spec("hl", 4))
        assert g.n == 20 and g.m == 130
        assert g.kind is ProductKind.LEXICOGRAPHIC
        assert g.factor_sizes == (2, 10)

    def test_generalized_hypercube_is_cube(self):
        gh = generate(spec("generalized_hypercube", 2, 2, 2))
        assert gh.graph.edges == hypercube_graph(3).edges
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
        assert g.graph.labels[0] == (0, 0, 0)
        assert g.graph.labels[7] == (1, 1, 1)

    def test_zero_cube_is_one_vertex(self):
        g = generate(spec("hypercube", 0))
        assert g.n == 1 and g.m == 0

    def test_grids_fire_the_diameter_condition(self):
        from mcgraph.graph import diameter
        from mcgraph.mc import theorem1_certificate

        for n, m in ((3, 2), (4, 2), (3, 3), (5, 4)):
            built = generate(spec("grid", n, m))
            assert diameter(built.graph) == n + m - 2 >= 3
            cert = theorem1_certificate(built.graph)
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
