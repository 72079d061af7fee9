from itertools import combinations

import pytest

from mcgraph import io as gio
from mcgraph import products
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
    MAX_PRODUCT_SIZE,
    ProductKind,
    distance_formula,
    edge_count_formula,
    make_product,
    product_size,
    recover_factors,
    swap_map,
)
from mcgraph.verification import factor_pool, suite_products

P2 = path_graph(2)
P3 = path_graph(3)


def reference_recover_factors(product):
    """The full scan ``recover_factors`` was: every edge projected by the rule
    of its kind."""
    ng, nh = product.factor_sizes
    kind = product.kind
    g_edges, h_edges = set(), set()
    for u, v in product.edges:
        a, x = divmod(u, nh)
        b, y = divmod(v, nh)
        if kind is ProductKind.CARTESIAN or kind is ProductKind.STRONG:
            if x == y and a != b:
                g_edges.add((min(a, b), max(a, b)))
            if a == b and x != y:
                h_edges.add((min(x, y), max(x, y)))
        elif kind is ProductKind.LEXICOGRAPHIC:
            if a != b:
                g_edges.add((min(a, b), max(a, b)))
            else:
                h_edges.add((min(x, y), max(x, y)))
        else:
            g_edges.add((min(a, b), max(a, b)))
            h_edges.add((min(x, y), max(x, y)))
    return Graph(ng, tuple(sorted(g_edges))), Graph(nh, tuple(sorted(h_edges)))


class TestMakeProduct:
    def test_cartesian_p2_p2_is_c4(self):
        p = make_product(ProductKind.CARTESIAN, P2, P2)
        assert p.edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_strong_p2_p2_is_k4(self):
        p = make_product(ProductKind.STRONG, P2, P2)
        assert p.m == 6 and p.n == 4

    def test_direct_p2_p2_two_disjoint_edges(self):
        p = make_product(ProductKind.DIRECT, P2, P2)
        assert p.edges == ((0, 3), (1, 2))
        assert not is_connected(p)

    def test_lexicographic_p3_p2(self):
        p = make_product(ProductKind.LEXICOGRAPHIC, P3, P2)
        assert p.n == 6 and p.m == 11

    def test_labels_are_coordinates(self):
        p = make_product(ProductKind.CARTESIAN, P3, P2)
        assert p.labels[5] == (2, 1)

    def test_iterated_labels_flatten(self):
        q = make_product(ProductKind.CARTESIAN, P2, P2)
        p = make_product(ProductKind.CARTESIAN, q, P2)
        assert p.labels[0] == (0, 0, 0)
        assert p.labels[7] == (1, 1, 1)

    def test_product_is_a_graph(self):
        p = make_product(ProductKind.LEXICOGRAPHIC, P3, P2)
        assert isinstance(p, Graph) and p.graph is p

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            make_product(ProductKind.CARTESIAN, build_graph(0, []), P2)

    def test_colliding_labels_refused(self):
        # first-factor labels of mixed length can concatenate alike:
        # (1,) + (2, 3) == (1, 2) + (3,)
        g = build_graph(2, [(0, 1)], [(1,), (1, 2)])
        h = build_graph(2, [(0, 1)], [(2, 3), (3,)])
        with pytest.raises(ValueError, match="labels must be distinct"):
            make_product(ProductKind.CARTESIAN, g, h)
        # the same lengths the other way round stay distinct
        assert make_product(ProductKind.CARTESIAN, h, g).labels[1] == (2, 3, 1, 2)


# the pool's factors, plus K1 and factors with an isolated vertex or two
# components, which the lexicographic and direct rules treat apart
DEFINITION_FACTORS = [f for _, f in factor_pool()] + [
    Graph(1, ()),
    Graph(3, ((0, 1),)),
    Graph(4, ((0, 1), (2, 3))),
]


def product_by_definition(kind, g, h):
    """The product's edges, read off the four rules over every vertex pair."""

    rule = {
        ProductKind.CARTESIAN: lambda a, x, b, y: (a == b and h.has_edge(x, y))
        or (x == y and g.has_edge(a, b)),
        ProductKind.LEXICOGRAPHIC: lambda a, x, b, y: g.has_edge(a, b)
        or (a == b and h.has_edge(x, y)),
        ProductKind.STRONG: lambda a, x, b, y: (a == b or g.has_edge(a, b))
        and (x == y or h.has_edge(x, y))
        and (a, x) != (b, y),
        ProductKind.DIRECT: lambda a, x, b, y: g.has_edge(a, b) and h.has_edge(x, y),
    }[kind]
    return tuple(
        (u, v)
        for u, v in combinations(range(g.n * h.n), 2)
        if rule(*divmod(u, h.n), *divmod(v, h.n))
    )


@pytest.mark.parametrize("kind", list(ProductKind))
def test_products_match_their_definition(kind):
    for g in DEFINITION_FACTORS:
        for h in DEFINITION_FACTORS:
            assert g.n <= 5 and h.n <= 5
            p = make_product(kind, g, h)
            assert p.edges == product_by_definition(kind, g, h), (g, h)
            assert p.labels == tuple((a, x) for a in g.vertices() for x in h.vertices())
            assert (p.n, p.kind, p.factor_sizes) == (g.n * h.n, kind, (g.n, h.n))


class TestSizeGuard:
    def test_the_cap_is_inclusive(self):
        # direct: 2 * 512 * 512 edges on 1024 * 512 vertices, 2^19 of each
        assert product_size(ProductKind.DIRECT, [(1024, 512), (512, 512)]) == (
            MAX_PRODUCT_SIZE,
            MAX_PRODUCT_SIZE,
        )
        with pytest.raises(ValueError, match="too large"):
            product_size(ProductKind.DIRECT, [(1024, 512), (512, 513)])
        # 3 * 174,763 = 2^19 + 1 vertices
        with pytest.raises(ValueError, match="too large"):
            product_size(ProductKind.DIRECT, [(3, 0), (174_763, 0)])

    def test_a_product_on_the_way_counts(self):
        # the direct product with an edgeless last factor has no edge, but
        # the product before it has 2^20, and the message names that one
        sizes = [(1024, 1024), (512, 512), (1, 0)]
        with pytest.raises(ValueError, match="524288 vertices and 1048576 edges"):
            product_size(ProductKind.DIRECT, sizes)
        assert product_size(ProductKind.DIRECT, [(2, 1)] * 4) == (16, 8)

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_sizes_are_the_built_ones(self, kind):
        g, h = cycle_graph(4), path_graph(3)
        p = make_product(kind, make_product(kind, g, h), g)
        assert product_size(kind, [(g.n, g.m), (h.n, h.m), (g.n, g.m)]) == (p.n, p.m)

    def test_make_product_refuses_before_building(self, monkeypatch):
        monkeypatch.setattr(products, "product_edges", lambda *args: pytest.fail("built"))
        big = Graph(1000, ())
        with pytest.raises(ValueError, match="1000000 vertices and 0 edges"):
            make_product(ProductKind.CARTESIAN, big, big)


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
                    dist = [distances_from(p, v) for v in range(p.n)]
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
        assert relabel(a, swap_map(3, 4)).edges == b.edges

    def test_lexicographic_not_commutative(self):
        a = make_product(ProductKind.LEXICOGRAPHIC, P3, P2)
        b = make_product(ProductKind.LEXICOGRAPHIC, P2, P3)
        assert relabel(a, swap_map(3, 2)).edges != b.edges

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_recover_factors(self, kind):
        pool = [g for _, g in factor_pool()]
        for g in pool:
            for h in pool:
                p = make_product(kind, g, h)
                assert recover_factors(p) == reference_recover_factors(p) == (
                    Graph(g.n, g.edges),
                    Graph(h.n, h.edges),
                )

    def test_parse_kind_aliases(self):
        assert ProductKind.parse("lex") is ProductKind.LEXICOGRAPHIC
        assert ProductKind.parse("CARTESIAN") is ProductKind.CARTESIAN
        with pytest.raises(ValueError):
            ProductKind.parse("tensorish")


def _load(obj):
    """The loaded graph's edges and factors, or the refusal's message."""
    try:
        g = gio.graph_from_obj(obj)
    except ValueError as exc:
        return str(exc)
    return g.edges, g.factors


def test_product_claims_load_as_with_the_full_scan(corpus6, monkeypatch):
    # every (kind, a x b) claim on every corpus graph, the genuine products
    # among them included: the same graphs load, the rest with the same
    # message
    claims = [
        {
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "product": {"kind": kind.value, "factors": [a, g.n // a]},
        }
        for g in corpus6
        for kind in ProductKind
        for a in range(1, g.n + 1)
        if g.n % a == 0
    ]
    got = [_load(obj) for obj in claims]
    monkeypatch.setattr(products, "recover_factors", reference_recover_factors)
    assert got == [_load(obj) for obj in claims]
    assert sum(not isinstance(outcome, str) for outcome in got) == 750


def test_suite_products_passes():
    """Edge counts, factor recovery, commutativity and distances on the pool."""
    assert suite_products().ok
