import hashlib
import inspect
import random
import sys

import pytest

from mcgraph.exact import mc_exact, mc_exact_naive
from mcgraph.families import (
    NetworkSpec,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    star_graph,
)
from mcgraph.graph import build_graph
from mcgraph.mc import TreeCover, check_mc_coloring, mc_bounds_basic
from mcgraph.products import ProductKind, make_product
from mcgraph.smallgraphs import random_connected_graph


class TestNaiveEngine:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (path_graph(4), 1),
            (cycle_graph(3), 3),
            (cycle_graph(4), 2),
            (complete_graph(4), 6),
            (cycle_graph(5), 2),
        ],
    )
    def test_small_values(self, g, expected):
        res = mc_exact_naive(g)
        assert res.value == expected
        ok, _ = check_mc_coloring(g, res.witness)
        assert ok and res.witness.color_count == expected

    def test_p4_pinched_by_window(self):
        g = path_graph(4)
        iv = mc_bounds_basic(g)
        assert iv.lower == iv.upper == 1 == mc_exact_naive(g).value

    def test_disconnected_is_zero(self):
        res = mc_exact_naive(build_graph(4, [(0, 1), (2, 3)]))
        assert res.value == 0 and res.witness is None

    def test_edge_cap(self):
        with pytest.raises(ValueError, match="cap"):
            mc_exact_naive(complete_graph(6))  # 15 edges

    def test_cap_override(self):
        assert mc_exact_naive(complete_graph(6), max_edges=15).value == 15


class TestTreeCoverEngine:
    def test_grid_value(self):
        g = generate(NetworkSpec("grid", (3, 2))).graph
        assert mc_exact(g).value == 3

    def test_tree_is_one(self):
        assert mc_exact(path_graph(6)).value == 1

    def test_c5(self):
        assert mc_exact(cycle_graph(5)).value == 2

    def test_complete_uses_every_color(self):
        assert mc_exact(complete_graph(5)).value == 10

    def test_disconnected_is_zero(self):
        res = mc_exact(build_graph(3, [(0, 1)]))
        assert res.value == 0 and res.method == "tree-cover"

    def test_budget_exceeded_returns_bounds_only(self):
        g = make_product(
            ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(4)
        ).graph
        res = mc_exact(g, max_nodes=50)
        assert res.method == "bounds-only" and res.value is None
        assert res.bounds.lower == g.m - g.n + 2

    def test_witness_is_valid_and_deterministic(self):
        g = generate(NetworkSpec("grid", (3, 3))).graph
        first = mc_exact(g)
        second = mc_exact(g)
        assert first.witness.colors == second.witness.colors
        ok, _ = check_mc_coloring(g, first.witness)
        assert ok and first.witness.color_count == first.value == 5

    def test_solver_trees_form_valid_cover(self):
        # rebuild the cover from the witness classes with >= 2 edges
        g = cycle_graph(6)
        res = mc_exact(g)
        classes = [
            tuple(edges)
            for edges in res.witness.color_classes()
            if len(edges) >= 2
        ]
        TreeCover(host=g, trees=tuple(classes)).validate()


class TestEngineAgreement:
    def test_random_n7(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_graph(7, rng.randint(6, 10), rng)
            assert mc_exact(g).value == mc_exact_naive(g).value

    def test_agreement_survives_relabeling(self):
        from mcgraph.graph import relabel
        from mcgraph.smallgraphs import random_permutation

        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_graph(6, rng.randint(5, 10), rng)
            h = relabel(g, random_permutation(6, rng))
            assert mc_exact(g).value == mc_exact(h).value


# -- search regression: witnesses pinned at the strict-improvement search ----

# Six decided exact-products instances; the budgets are node gates (the
# strict-improvement search took 1,020,101 and 8,628 nodes on the two gated).
PRODUCTS = [
    ("strong_P3_K4", ProductKind.STRONG, path_graph(3), complete_graph(4), 400_000),
    ("lex_P3_C4", ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(4), None),
    ("lex_P3_star4", ProductKind.LEXICOGRAPHIC, path_graph(3), star_graph(4), None),
    ("lex_P3_P4", ProductKind.LEXICOGRAPHIC, path_graph(3), path_graph(4), None),
    ("lex_P2_C5", ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(5), 3_000),
    ("cartesian_C3_C4", ProductKind.CARTESIAN, cycle_graph(3), cycle_graph(4), None),
]


def dense_random_graphs() -> list:
    """60 seeded 7-9-vertex draws, dense enough that some have a root floor
    below the optimum."""
    rng = random.Random(11)
    graphs = []
    for _ in range(60):
        n = rng.randint(7, 9)
        m = rng.randint(2 * n, min(n * (n - 1) // 2 - 2, 3 * n + 3))
        graphs.append(random_connected_graph(n, m, rng))
    return graphs


# sha256 of (value, method, witness colors) over each set, recorded with the
# strict-improvement search that the deepening search replaced
PINNED_DIGESTS = {
    "corpus6": "015055a37ea16a6608b35f8548b68a0f96d871fb2828a8dc697c59b1597bef14",
    "dense_random": "b98128979e081e45df7e8fbeb83675563dd18e52b347448fb17e801f35e2ea69",
    "products": "9742121e60fb56341ba3b58ff38c517a386d2bbbd8c38b431a7433c1290f7f01",
}


def witness_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(repr((res.value, res.method, res.witness.colors)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def product_results():
    out = {}
    for name, kind, a, b, budget in PRODUCTS:
        g = make_product(kind, a, b).graph
        kwargs = {} if budget is None else {"max_nodes": budget}
        out[name] = (g, mc_exact(g, **kwargs))
    return out


class TestSearchRegression:
    def test_corpus6_witnesses_pinned(self, corpus6):
        digest = witness_digest(mc_exact(g) for g in corpus6)
        assert digest == PINNED_DIGESTS["corpus6"]

    def test_dense_random_witnesses_pinned(self):
        graphs = dense_random_graphs()
        results = [mc_exact(g) for g in graphs]
        assert witness_digest(results) == PINNED_DIGESTS["dense_random"]
        # the set exercises deepening: some floors sit below the optimum, and
        # some covers are found only after a round at the floor found none
        wastes = [g.m - res.value for g, res in zip(graphs, results)]
        stats = [res.stats for res in results]
        assert sum(s.floor < w for s, w in zip(stats, wastes)) >= 5
        assert any(
            len(s.targets) > 1 and s.targets[-1] == w for s, w in zip(stats, wastes)
        )

    def test_product_witnesses_pinned(self, product_results):
        results = [product_results[name][1] for name, *_ in PRODUCTS]
        assert [r.value for r in results] == [43, 35, 32, 32, 29, 14]
        for g, res in product_results.values():
            ok, _ = check_mc_coloring(g, res.witness)
            assert ok and res.witness.color_count == res.value
        assert witness_digest(results) == PINNED_DIGESTS["products"]

    def test_node_gates(self, product_results):
        strong = product_results["strong_P3_K4"][1].stats
        assert strong.nodes <= 400_000
        assert (strong.floor, strong.floor_by, strong.targets) == (7, "Lem1", (7,))
        assert product_results["lex_P2_C5"][1].stats.nodes <= 3_000

    def test_stats_stay_out_of_the_json(self, product_results):
        res = product_results["lex_P2_C5"][1]
        assert set(res.to_dict()) == {"value", "method", "bounds", "witness"}
        assert res.stats.to_dict()["cut"] == res.stats.cut > 0

    def test_cut_vertex_graph_needs_no_search(self):
        g = path_graph(300)
        res = mc_exact(g, max_nodes=1)
        assert (res.value, res.method, res.stats.nodes) == (1, "tree-cover", 0)
        ok, _ = check_mc_coloring(g, res.witness)
        assert ok and res.witness.color_count == 1

    def test_path_enumeration_has_no_recursion_cliff(self):
        # u..v paths in C60 run 30 edges deep; allow far fewer frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 25)
        try:
            res = mc_exact(cycle_graph(60))
        finally:
            sys.setrecursionlimit(limit)
        assert res.value == 2
