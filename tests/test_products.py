import pytest

from mcgraph.errors import InapplicableError
from mcgraph.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from mcgraph.graph import (
    Graph,
    build_graph,
    distances_from,
    is_connected,
    relabel,
)
from mcgraph.products import (
    ProductKind,
    distance_formula,
    edge_count_formula,
    make_product,
    recover_factors,
    swap_map,
)
from mcgraph.verification import suite_products

P2 = path_graph(2)
P3 = path_graph(3)


class TestMakeProduct:
    def test_cartesian_p2_p2_is_c4(self):
        p = make_product(ProductKind.CARTESIAN, P2, P2)
        assert p.graph.edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_strong_p2_p2_is_k4(self):
        p = make_product(ProductKind.STRONG, P2, P2)
        assert p.m == 6 and p.n == 4

    def test_direct_p2_p2_two_disjoint_edges(self):
        p = make_product(ProductKind.DIRECT, P2, P2)
        assert p.graph.edges == ((0, 3), (1, 2))
        assert not is_connected(p.graph)

    def test_lexicographic_p3_p2(self):
        p = make_product(ProductKind.LEXICOGRAPHIC, P3, P2)
        assert p.n == 6 and p.m == 11

    def test_labels_are_coordinates(self):
        p = make_product(ProductKind.CARTESIAN, P3, P2)
        assert p.graph.labels[5] == (2, 1)

    def test_iterated_labels_flatten(self):
        q = make_product(ProductKind.CARTESIAN, P2, P2)
        p = make_product(ProductKind.CARTESIAN, q.graph, P2)
        assert p.graph.labels[0] == (0, 0, 0)
        assert p.graph.labels[7] == (1, 1, 1)

    def test_product_is_a_graph(self):
        p = make_product(ProductKind.LEXICOGRAPHIC, P3, P2)
        assert isinstance(p, Graph) and p.graph is p

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            make_product(ProductKind.CARTESIAN, build_graph(0, []), P2)


class TestEdgeCountFormula:
    def test_cartesian_c3_c4(self):
        assert edge_count_formula(ProductKind.CARTESIAN, cycle_graph(3), cycle_graph(4)) == 24

    def test_lexicographic_p2_petersen(self):
        assert (
            edge_count_formula(ProductKind.LEXICOGRAPHIC, P2, petersen_graph())
            == 130
        )

    def test_direct_c3_c6(self):
        assert edge_count_formula(ProductKind.DIRECT, cycle_graph(3), cycle_graph(6)) == 36

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_formula_matches_construction(self, kind):
        for g in (P2, P3, cycle_graph(4), complete_graph(3)):
            for h in (P2, cycle_graph(3), path_graph(4)):
                assert make_product(kind, g, h).m == edge_count_formula(kind, g, h)


class TestDistanceFormula:
    def test_cartesian_sum(self):
        assert distance_formula(ProductKind.CARTESIAN, P3, P3, (0, 0), (2, 2)) == 4

    def test_lexicographic_capped(self):
        assert distance_formula(ProductKind.LEXICOGRAPHIC, P3, P3, (1, 0), (1, 2)) == 2

    def test_strong_max(self):
        assert distance_formula(ProductKind.STRONG, P3, P3, (0, 0), (2, 2)) == 2

    def test_direct_refused(self):
        with pytest.raises(InapplicableError):
            distance_formula(ProductKind.DIRECT, P3, P3, (0, 0), (1, 1))

    def test_isolated_first_coordinate_branch(self):
        # a disconnected first factor exercises the isolated-vertex case:
        # within such a fiber the distance is the full second-factor distance,
        # not the usual cap at 2
        g = build_graph(3, [(0, 1)])  # vertex 2 isolated
        p4 = path_graph(4)
        assert distance_formula(ProductKind.LEXICOGRAPHIC, g, p4, (2, 0), (2, 3)) == 3
        assert distance_formula(ProductKind.LEXICOGRAPHIC, g, p4, (0, 0), (0, 3)) == 2

    def test_formula_equals_bfs_on_small_pool(self):
        for kind in (ProductKind.CARTESIAN, ProductKind.LEXICOGRAPHIC, ProductKind.STRONG):
            for g in (P3, cycle_graph(4)):
                for h in (P2, cycle_graph(3)):
                    p = make_product(kind, g, h)
                    dist = [distances_from(p.graph, v) for v in range(p.n)]
                    for a in range(p.n):
                        for b in range(p.n):
                            assert dist[a][b] == distance_formula(
                                kind, g, h, divmod(a, h.n), divmod(b, h.n)
                            )

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            distance_formula(ProductKind.CARTESIAN, P3, P3, (0, 0), (3, 0))


class TestStructure:
    def test_cartesian_commutative_up_to_swap(self):
        a = make_product(ProductKind.CARTESIAN, P3, cycle_graph(4))
        b = make_product(ProductKind.CARTESIAN, cycle_graph(4), P3)
        assert relabel(a.graph, swap_map(3, 4)).edges == b.graph.edges

    def test_lexicographic_not_commutative(self):
        a = make_product(ProductKind.LEXICOGRAPHIC, P3, P2)
        b = make_product(ProductKind.LEXICOGRAPHIC, P2, P3)
        assert relabel(a.graph, swap_map(3, 2)).edges != b.graph.edges

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_recover_factors(self, kind):
        g, h = cycle_graph(4), path_graph(3)
        p = make_product(kind, g, h)
        fg, fh = recover_factors(p)
        assert fg.edges == g.edges and fh.edges == h.edges

    def test_parse_kind_aliases(self):
        assert ProductKind.parse("lex") is ProductKind.LEXICOGRAPHIC
        assert ProductKind.parse("CARTESIAN") is ProductKind.CARTESIAN
        with pytest.raises(ValueError):
            ProductKind.parse("tensorish")


def test_suite_products_passes():
    """Edge counts, factor recovery, commutativity and distances on the pool."""
    assert suite_products().ok
