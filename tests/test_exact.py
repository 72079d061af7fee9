import gc
import hashlib
import inspect
import random
import sys
import tracemalloc
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgraph.bounds import product_mc_bounds
from mcgraph.errors import BudgetExceededError
from mcgraph import naive, treecover
from mcgraph.families import (
    NetworkSpec,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    star_graph,
)
from mcgraph.graph import build_graph, edge_components, is_connected, relabel
from mcgraph.io import coloring_to_obj, dumps, loads_coloring
from mcgraph.mc import (
    EdgeColoring,
    McResult,
    SearchStats,
    TreeCover,
    check_mc_coloring,
    mc_bounds_basic,
)
from mcgraph.naive import mc_exact_naive
from mcgraph.products import ProductKind, make_product
from mcgraph.smallgraphs import random_connected_graph, random_permutation
from mcgraph.treecover import _Frontier, _TreeCoverSolver, mc_exact


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

    def test_unchecked_witness_is_refused(self, monkeypatch):
        # a partition that colors P4 with three colors leaves (0, 2) unserved
        monkeypatch.setattr(
            naive, "EdgeColoring", lambda g, colors: EdgeColoring(g, (0, 1, 2))
        )
        with pytest.raises(AssertionError, match=r"naive-partition .* \(0, 2\)"):
            mc_exact_naive(path_graph(4))

    def test_memo_is_freed_without_the_collector(self):
        # the search's memo must not sit in a reference cycle: with the cycle
        # collector off, a call leaves nothing behind (a leaked memo is ~100 KB)
        g = random_connected_graph(7, 11, random.Random(3))
        gc.collect()
        gc.disable()
        try:
            mc_exact_naive(g)  # warms per-graph caches and the free lists
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            mc_exact_naive(g)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 1024


class TestTreeCoverEngine:
    def test_grid_value(self):
        g = generate(NetworkSpec("grid", (3, 2)))
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
        g = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(4))
        res = mc_exact(g, max_nodes=50)
        assert res.method == "bounds-only" and res.value is None
        assert res.bounds.lower == g.m - g.n + 2

    def test_witness_is_valid_and_deterministic(self):
        g = generate(NetworkSpec("grid", (3, 3)))
        first = mc_exact(g)
        second = mc_exact(g)
        assert first.witness.colors == second.witness.colors
        ok, _ = check_mc_coloring(g, first.witness)
        assert ok and first.witness.color_count == first.value == 5

    def test_unchecked_witness_is_refused(self, monkeypatch):
        monkeypatch.setattr(
            treecover, "spanning_tree_coloring", lambda g: EdgeColoring(g, (0, 1, 2))
        )
        with pytest.raises(AssertionError, match=r"tree-cover .* \(0, 2\)"):
            mc_exact(path_graph(4))

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

    def test_random_n8_m12(self):
        # at the naive engine's edge cap; about 3 s a graph before the
        # coverage cut
        rng = random.Random(29)
        for _ in range(10):
            g = random_connected_graph(8, 12, rng)
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

# Six decided exact-products instances, two at a node budget.
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


def relabelled_lex_p3_p4(seed):
    g = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), path_graph(4))
    return relabel(g, random_permutation(g.n, random.Random(f"{seed}:lex_P3_P4")))


# sha256 of (value, method, witness colors) over each set, recorded with the
# strict-improvement search that the deepening search replaced
PINNED_DIGESTS = {
    "corpus6": "015055a37ea16a6608b35f8548b68a0f96d871fb2828a8dc697c59b1597bef14",
    "dense_random": "b98128979e081e45df7e8fbeb83675563dd18e52b347448fb17e801f35e2ea69",
    "products": "9742121e60fb56341ba3b58ff38c517a386d2bbbd8c38b431a7433c1290f7f01",
    # first decided by the level-by-level move stream
    "strong_P3_K5": "00c7c4480ae71197f6dd7513e11393b8e54e7e5fb5bd4482aa3de8f11927d0b9",
    # first decided with symmetric states pruned; the witness is the file
    # tests/data/lex_P3_C5_mc53.json
    "lex_P3_C5": "07ff21cd7b11aa5ba812ba10715718b219b4d348236aa1c8d1d363230bd1b89e",
    # recorded with the byte-lane capacity table; the witness is the file
    # tests/data/lex_P2_C8_mc68.json
    "lex_P2_C8": "8d4d72bd5e917966224365cde413a7c916848d8db95343a30f81024927896178",
    # recorded when a node was one path prefix and the default budget 10^7,
    # of which the search took 3,734,143
    "generalized_hypercube 2 3 3": (
        "3b7826aee3afe624d6f6deb2ff906ab3b613fce3d3876fcffc4cf2ecc06ac899"
    ),
}


# The exact search counters of each pinned run, the regression gates:
# (nodes, cut, matching_cut, symmetric), where matching_cut counts the cuts
# that only the fractional bound makes and symmetric counts the applied
# states pruned as images of exhausted ones (the symmetry test makes every
# prune decision, so that count is gated too).  The PRODUCTS rows run at
# their budgets there, "at 1,000 nodes" is the bounds-only run at that
# budget, and every other row runs at the default budget.  The seeded rows
# are lex(P3,P4) relabelled as ``bench/run.py --relabel`` relabels it: the
# search must not depend on the vertex names' dict order.
COUNTER_PINS = {
    "strong_P3_K4": (32, 0, 0, 0),
    "lex_P3_C4": (3_428, 733, 50, 8),
    "lex_P3_star4": (2_401, 493, 89, 28),
    "lex_P3_P4": (315, 148, 11, 4),
    "lex_P2_C5": (93, 29, 11, 2),
    "cartesian_C3_C4": (0, 0, 0, 0),
    "lex_P3_C5 at 1,000 nodes": (1_001, 682, 299, 59),
    "lex_P3_C5": (1_730, 1_120, 507, 96),
    "strong_P3_K5": (41, 0, 0, 0),
    "lex_P2_C8": (9_131, 5_303, 314, 120),
    "lex_P3_P4 seed 1": (69_499, 14_916, 3_133, 353),
    "lex_P3_P4 seed 2": (74, 0, 0, 0),
    "lex_P3_P4 seed 3": (478, 245, 35, 0),
    "lex_P3_P4 seed 4": (371, 194, 32, 0),
    "lex_P3_P4 seed 5": (29_762, 9_061, 101, 318),
    "generalized_hypercube 2 3 3": (557_903, 78_758, 15_428, 1_246),
}

# sha256 of every SearchStats.to_dict() over each set, recorded with
# COUNTER_PINS
STATS_DIGESTS = {
    "corpus6": "e41fb66b9ef2e906e7064e0c726647f88e7be2bf9b936941d33054c8dbc4d46e",
    "dense_random": "329aed67b6a15a323eaf6973581a608d8e9be7d01e9f6b5a687e5bbc3dc31d7d",
}


def witness_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(repr((res.value, res.method, res.witness.colors)).encode())
    return h.hexdigest()


def stats_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(repr(res.stats.to_dict()).encode())
    return h.hexdigest()


def counters(res) -> tuple[int, int, int, int]:
    s = res.stats
    return s.nodes, s.cut, s.matching_cut, s.symmetric


@pytest.fixture(scope="module")
def product_results():
    out = {}
    for name, kind, a, b, budget in PRODUCTS:
        g = make_product(kind, a, b)
        kwargs = {} if budget is None else {"max_nodes": budget}
        out[name] = (g, mc_exact(g, **kwargs))
    return out


class TestSearchRegression:
    def test_corpus6_witnesses_pinned(self, corpus6):
        results = [mc_exact(g) for g in corpus6]
        assert witness_digest(results) == PINNED_DIGESTS["corpus6"]
        assert stats_digest(results) == STATS_DIGESTS["corpus6"]

    def test_dense_random_witnesses_pinned(self):
        graphs = dense_random_graphs()
        results = [mc_exact(g) for g in graphs]
        assert witness_digest(results) == PINNED_DIGESTS["dense_random"]
        assert stats_digest(results) == STATS_DIGESTS["dense_random"]
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
        # beside COUNTER_PINS: the root floor, and that the fractional
        # bound and the symmetry pruning each act
        strong = product_results["strong_P3_K4"][1].stats
        assert (strong.floor, strong.floor_by, strong.targets) == (7, "Lem1", (7,))
        for name in ("lex_P3_C4", "lex_P3_star4", "lex_P3_P4"):
            stats = product_results[name][1].stats
            assert 0 < stats.matching_cut < stats.cut, name
            assert stats.symmetric > 0, name

    def test_counters_pinned(self, product_results):
        for name, *_ in PRODUCTS:
            assert counters(product_results[name][1]) == COUNTER_PINS[name], name
        g = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(5))
        res = mc_exact(g, max_nodes=1_000)
        assert res.method == "bounds-only"
        assert counters(res) == COUNTER_PINS["lex_P3_C5 at 1,000 nodes"]

    def test_lex_P3_C5_witness_attains_53(self):
        # the engine's witness for mc(lex(P3,C5)) = 53, written by
        # `mcgraph mc exact ... --witness`; the witness alone proves mc >= 53
        # in milliseconds, so Thm3(3)'s [52, 56] is not attained at its
        # lower end
        kind, a, b = ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(5)
        g = make_product(kind, a, b)
        path = Path(__file__).parent / "data" / "lex_P3_C5_mc53.json"
        witness = loads_coloring(g, path.read_text())
        ok, pair = check_mc_coloring(g, witness)
        assert ok, pair
        assert witness.color_count == 53
        engine = McResult(53, witness, "tree-cover", mc_bounds_basic(g))
        assert witness_digest([engine]) == PINNED_DIGESTS["lex_P3_C5"]
        bounds = product_mc_bounds(kind, a, b)
        assert (bounds.lower_source, bounds.lower, bounds.upper) == ("Thm3(3)", 52, 56)
        assert 53 in bounds

    def test_lex_P3_C5_decided(self):
        # the capacity floor 12 is the optimum waste 65 - 53, so the round at
        # the floor finds the committed witness at the default budget
        g = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(5))
        res = mc_exact(g)
        assert (res.value, res.method) == (53, "tree-cover")
        path = Path(__file__).parent / "data" / "lex_P3_C5_mc53.json"
        written = dumps(coloring_to_obj(res.witness)) + "\n"
        assert written.encode() == path.read_bytes()
        assert counters(res) == COUNTER_PINS["lex_P3_C5"]
        assert (res.stats.floor, res.stats.floor_by, res.stats.targets) == (
            12, "capacity", (12,)
        )

    def test_lex_P2_C8_decided(self):
        # a 16-vertex host: the capacity floor 12 is the optimum waste
        # 80 - 68, and the round at the floor finds the committed witness
        # at the default budget
        g = make_product(ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(8))
        path = Path(__file__).parent / "data" / "lex_P2_C8_mc68.json"
        witness = loads_coloring(g, path.read_text())
        ok, pair = check_mc_coloring(g, witness)
        assert ok, pair
        assert witness.color_count == 68
        res = mc_exact(g)
        assert (res.value, res.method) == (68, "tree-cover")
        written = dumps(coloring_to_obj(res.witness)) + "\n"
        assert written.encode() == path.read_bytes()
        assert witness_digest([res]) == PINNED_DIGESTS["lex_P2_C8"]
        assert counters(res) == COUNTER_PINS["lex_P2_C8"]
        assert (res.stats.floor, res.stats.floor_by, res.stats.targets) == (
            12, "capacity", (12,)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_relabelled_counters_pinned(self, seed):
        res = mc_exact(relabelled_lex_p3_p4(seed))
        assert res.value == 32
        assert counters(res) == COUNTER_PINS[f"lex_P3_P4 seed {seed}"]

    def test_strong_P3_K5_decided(self):
        # the Lem1 ceiling 71 is attained
        g = make_product(ProductKind.STRONG, path_graph(3), complete_graph(5))
        res = mc_exact(g)
        assert (res.value, res.method) == (71, "tree-cover")
        ok, _ = check_mc_coloring(g, res.witness)
        assert ok and res.witness.color_count == 71
        assert witness_digest([res]) == PINNED_DIGESTS["strong_P3_K5"]
        assert counters(res) == COUNTER_PINS["strong_P3_K5"]

    def test_generalized_hypercube_2_3_3_decided(self):
        # the default budget's guard: K2 x K3 x K3 needs 557,903 nodes, the
        # most of any measured instance that the prefix-counting search
        # also decided at its default 10^7, and its second round finds the
        # same witness
        g = generate(NetworkSpec("generalized_hypercube", (2, 3, 3)))
        res = mc_exact(g)
        assert (res.value, res.method) == (29, "tree-cover")
        assert witness_digest([res]) == PINNED_DIGESTS["generalized_hypercube 2 3 3"]
        assert counters(res) == COUNTER_PINS["generalized_hypercube 2 3 3"]
        assert (res.stats.floor, res.stats.floor_by, res.stats.targets) == (
            14, "capacity", (14, 15)
        )

    @pytest.mark.parametrize(
        "kind,a,b,max_nodes",
        [
            (ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(5), 0),
            (ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(5), 1),
            (ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(5), 10),
            (ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(5), 50),
            (ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(5), 1_000),
        ],
    )
    def test_bounds_only_stops_at_the_first_node_past_the_budget(
        self, kind, a, b, max_nodes
    ):
        res = mc_exact(make_product(kind, a, b), max_nodes=max_nodes)
        assert res.method == "bounds-only"
        assert res.stats.nodes == max_nodes + 1

    def test_bounds_only_keeps_the_root_floor(self):
        # the root floor proves mc <= m - floor, below the Lem1 upper end
        # (56 on lex(P3,C5), 124 on hl(4)); lex(P3,C5) has mc = 53.  On
        # strong(P3,K4) the root floor is Lem1's own, so Lem1 keeps the tag
        lex = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(5))
        hl4 = generate(NetworkSpec("hl", (4,)))
        strong = make_product(ProductKind.STRONG, path_graph(3), complete_graph(4))
        got = []
        for g, max_nodes in ((lex, 1_000), (hl4, 10), (strong, 1)):
            res = mc_exact(g, max_nodes=max_nodes)
            iv = res.bounds
            got.append((res.method, iv.lower, iv.upper, iv.upper_source))
        assert got == [
            ("bounds-only", 52, 53, "search(capacity)"),
            ("bounds-only", 112, 120, "search(matching)"),
            ("bounds-only", 40, 43, "Lem1"),
        ]

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

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 81])
    def test_complete_graph_builds_no_solver(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("a complete graph needs no tree-cover search")

        monkeypatch.setattr(treecover, "_TreeCoverSolver", refuse)
        g = complete_graph(n)
        res = mc_exact(g)
        assert (res.value, res.method) == (g.m, "tree-cover")
        assert res.witness.colors == tuple(range(g.m))
        assert res.stats == SearchStats(nodes=0, floor=0, floor_by="Lem1")

    def test_path_enumeration_has_no_recursion_cliff(self):
        # u..v paths in C60 run 30 edges deep; allow far fewer frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 25)
        try:
            res = mc_exact(cycle_graph(60))
        finally:
            sys.setrecursionlimit(limit)
        assert res.value == 2


# -- symmetry: states that an automorphism maps onto exhausted ones ---------


def lex_p3_c4():
    return make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(4))


def lex_p3_c4_automorphisms():
    """Aut(C4) wr Aut(P3), all 1,024 automorphisms of lex(P3,C4) (vertex
    (a, x) is 4a + x): P3's identity or flip, then one C4 automorphism per
    copy of C4."""
    c4 = [tuple((s * x + r) % 4 for x in range(4)) for r in range(4) for s in (1, -1)]
    maps = []
    for flip in (False, True):
        for per_copy in product(c4, repeat=3):
            maps.append(tuple(
                4 * (2 - a if flip else a) + per_copy[a][x]
                for a in range(3)
                for x in range(4)
            ))
    return maps


def state_of(g, *trees):
    """The tree edge masks of trees given as edge lists."""
    return tuple(sum(1 << g.edge_index[e] for e in tree) for tree in trees)


def image(g, state, sigma):
    """The set of tree edge masks that ``sigma`` maps ``state`` onto."""
    out = set()
    for emask in state:
        edges = [g.edges[i] for i in bits_of(emask)]
        out.add(sum(
            1 << g.edge_index[tuple(sorted((sigma[u], sigma[v])))] for u, v in edges
        ))
    return frozenset(out)


def outcome_runs(corpus6):
    """(graph, node budget or None) over corpus6, 24 seeded 7-vertex graphs
    and the decided exact-products instances at their budgets."""
    rng = random.Random(1)
    n7 = [random_connected_graph(7, m, rng) for m in (9, 10, 11) for _ in range(8)]
    products = [(make_product(kind, a, b), budget)
                for _, kind, a, b, budget in PRODUCTS]
    return [(g, None) for g in list(corpus6) + n7] + products


def outcomes(runs):
    """Per run: value, method and witness, and the rounds tried (every round
    but the last found no cover; the last found the witness, or none if the
    witness is the spanning tree)."""
    out = []
    for g, budget in runs:
        res = mc_exact(g) if budget is None else mc_exact(g, max_nodes=budget)
        colors = res.witness.colors if res.witness else None
        targets = res.stats.targets if res.stats else None
        out.append((res.value, res.method, colors, targets))
    return out


def solver_with_wl(g):
    solver = _TreeCoverSolver(g, 10**9)
    solver.wl = solver._wl_colours()
    return solver


def equivalent(solver, a, b):
    """Whether an automorphism of the host maps the trees of state ``a``
    onto the trees of state ``b`` (``wl`` set), decided as ``_symmetric``
    decides it: the record keys agree and ``_maps_onto`` finds the map."""
    ra, rb = solver._record(a), solver._record(b)
    return ra.key == rb.key and solver._maps_onto(ra, rb)


def reference_vertex_classes(solver, state):
    """Each vertex's class in ``state`` by one pass per (vertex, tree): its
    WL colour, then the sorted (edge count, degree) of each tree at it, each
    pair as one int."""
    shift = solver.n.bit_length()
    incident = [0] * solver.n  # the edge mask of the edges at each vertex
    for i, (u, v) in enumerate(solver.g.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    classes = []
    for c, inc in zip(solver.wl, incident):
        at = sorted(
            e.bit_count() << shift | (e & inc).bit_count() for e in state if e & inc
        )
        classes.append((c, *at))
    return classes


def reference_tree_of_edge(state):
    """The index of the tree of ``state`` that holds each tree edge's bit."""
    tree_of = {}
    for i, emask in enumerate(state):
        for j in bits_of(emask):
            tree_of[1 << j] = i
    return tree_of


def reference_equivalent(solver, a, b):
    """The per-neighbour backtrack, the differential reference for the
    record kernel: the same constraints, vertex order and candidate order,
    with every state's classes and tree edges rebuilt per call and each
    mapped neighbour of a candidate tested in turn by dict lookups.  It
    also checks that pi takes no tree of ``b`` twice and pairs trees of
    equal edge counts, which the kernel drops as implied by the classes
    (see ``_maps_onto``)."""
    classes_a = reference_vertex_classes(solver, a)
    classes_b = reference_vertex_classes(solver, b)
    if sorted(classes_a) != sorted(classes_b):
        return False
    n, adj, ebit = solver.n, solver.adj_vmask, solver.ebit
    order = sorted(range(n), key=lambda x: len(classes_a[x]) == 1)
    of_class = {}
    for y, c in enumerate(classes_b):
        of_class[c] = of_class.get(c, 0) | 1 << y
    cands = [of_class[c] for c in classes_a]
    tree_a, tree_b = reference_tree_of_edge(a), reference_tree_of_edge(b)
    pi, pi_inv = [-1] * len(a), [-1] * len(b)
    sigma = [-1] * n
    paired = [[] for _ in range(n)]
    left = [0] * n
    left[0] = cands[order[0]]
    domain = image = 0
    depth = 0
    while depth >= 0:
        if not left[depth]:
            depth -= 1
            if depth >= 0:
                x = order[depth]
                domain ^= 1 << x
                image ^= 1 << sigma[x]
                for i in paired[depth]:
                    pi_inv[pi[i]] = pi[i] = -1
            continue
        ybit = left[depth] & -left[depth]
        left[depth] ^= ybit
        x, y = order[depth], ybit.bit_length() - 1
        near = adj[x] & domain
        if near.bit_count() != (adj[y] & image).bit_count():
            continue
        new_pairs = []
        for w in bits_of(near):
            z = sigma[w]
            if not adj[y] >> z & 1:
                break
            i = tree_a.get(ebit[x][1 << w], -1)
            j = tree_b.get(ebit[y][1 << z], -1)
            if (i < 0) != (j < 0):
                break
            if i >= 0 and pi[i] != j:
                if pi[i] >= 0 or pi_inv[j] >= 0:
                    break
                if a[i].bit_count() != b[j].bit_count():
                    break
                pi[i], pi_inv[j] = j, i
                new_pairs.append(i)
        else:
            sigma[x] = y
            domain |= 1 << x
            image |= ybit
            paired[depth] = new_pairs
            depth += 1
            if depth == n:
                return True
            left[depth] = cands[order[depth]] & ~image
            continue
        for i in new_pairs:
            pi_inv[pi[i]] = pi[i] = -1
    return False


def applied_states(g, max_nodes):
    """The states the unpruned search applies on ``g`` within ``max_nodes``
    nodes, in order: ``_symmetric`` records each and prunes none."""
    applied = []

    class Recording(_TreeCoverSolver):
        def _symmetric(self, state):
            applied.append(tuple(state))
            return False

    try:
        Recording(g, max_nodes).solve(0)
    except BudgetExceededError:
        pass
    return applied


class TestSymmetry:
    def test_the_automorphisms_are_automorphisms(self):
        g = lex_p3_c4()
        maps = lex_p3_c4_automorphisms()
        assert len(set(maps)) == 1024
        for sigma in maps:
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in g.edges} == set(
                g.edges
            )

    def test_a_state_and_its_image_are_equivalent(self):
        g = lex_p3_c4()
        solver = solver_with_wl(g)
        # a path in the first copy of C4 and a path through the middle copy
        state = state_of(g, [(0, 1), (1, 2)], [(0, 4), (4, 8)])
        # P3 flipped, every copy of C4 rotated by one, and the middle copy
        # alone rotated (a wreath element outside Aut(P3) x Aut(C4))
        flip_rotate = tuple(
            4 * (2 - a) + (x + 1) % 4 for a in range(3) for x in range(4)
        )
        middle = tuple(
            4 * a + ((x + 1) % 4 if a == 1 else x) for a in range(3) for x in range(4)
        )
        for sigma in (flip_rotate, middle):
            other = tuple(sorted(image(g, state, sigma), reverse=True))
            assert other != state
            assert equivalent(solver, state, other)
            assert equivalent(solver, other, state)
        # the tree order does not matter
        assert equivalent(solver, state, state[::-1])

    def test_unrelated_states_are_not_equivalent(self):
        g = lex_p3_c4()
        solver = solver_with_wl(g)
        # each a path from the first copy of C4 through vertex 4 back into
        # it: the same classes of vertices (two ends in an outer copy, a
        # centre in the middle one), but the ends are adjacent in one and
        # not in the other, which no automorphism changes
        adjacent = state_of(g, [(0, 4), (1, 4)])
        apart = state_of(g, [(0, 4), (2, 4)])
        assert solver._record(adjacent).key == solver._record(apart).key
        assert not equivalent(solver, adjacent, apart)
        assert not equivalent(solver, apart, adjacent)
        # the star from vertex 4 onto the first copy of C4 cut into two
        # trees, pairing its leaves along the cycle or across it: the same
        # tree edges and vertex classes, and the identity takes tree edges
        # to tree edges, but the trees themselves onto no trees
        along = state_of(g, [(0, 4), (1, 4)], [(2, 4), (3, 4)])
        across_c4 = state_of(g, [(0, 4), (2, 4)], [(1, 4), (3, 4)])
        assert solver._record(along).key == solver._record(across_c4).key
        assert not equivalent(solver, along, across_c4)
        # the path 0-4-8-5-1 cut at vertex 8 into two trees, and the same
        # edges as one tree: a class holds one entry per tree at its vertex,
        # so the keys differ, which is what lets ``_maps_onto`` skip checking
        # that no two trees go to one
        cut = state_of(g, [(0, 4), (4, 8)], [(5, 8), (1, 5)])
        whole = state_of(g, [(0, 4), (4, 8), (5, 8), (1, 5)])
        assert solver._record(cut).key != solver._record(whole).key
        # a path inside a copy of C4 and one across the copies
        inside = state_of(g, [(0, 1), (1, 2)])
        across = state_of(g, [(0, 4), (4, 8)])
        assert not equivalent(solver, inside, across)

    def test_equivalence_matches_the_automorphism_group(self):
        # every state the unpruned search applies on lex(P3,C4), against
        # its orbit under all 1,024 automorphisms
        g = lex_p3_c4()
        applied = []

        class Recording(_TreeCoverSolver):
            def _symmetric(self, state):
                applied.append(state)
                return False

        Recording(g, 10**7).solve(0)
        maps = lex_p3_c4_automorphisms()
        solver = solver_with_wl(g)
        related = unrelated = 0
        for i, a in enumerate(applied):
            orbit = {image(g, a, sigma) for sigma in maps}
            for b in applied[:i]:
                if sorted(map(int.bit_count, a)) != sorted(map(int.bit_count, b)):
                    continue
                truth = frozenset(b) in orbit
                assert equivalent(solver, a, b) == truth, (a, b)
                related += truth
                unrelated += not truth
        assert related > 0 and unrelated > 0

    @pytest.mark.parametrize(
        "name,max_nodes",
        [("lex_P3_star4", 10**7), ("lex_P2_C5", 10**7), ("lex_P3_P4 seed 5", 8_000)],
    )
    def test_kernel_matches_the_reference_backtrack(self, name, max_nodes):
        # every same-key pair of states that the unpruned search applies,
        # both ways round (lex(P3,star4) and lex(P2,C5) are decided within
        # the budget; 8,000 nodes of relabelled lex(P3,P4) give 1,551 pairs)
        if name == "lex_P3_P4 seed 5":
            g = relabelled_lex_p3_p4(5)
        else:
            _, kind, a, b, _ = next(p for p in PRODUCTS if p[0] == name)
            g = make_product(kind, a, b)
        applied = applied_states(g, max_nodes)
        solver = solver_with_wl(g)
        buckets = {}
        keys = set()
        for state in applied:
            ref_key = tuple(sorted(reference_vertex_classes(solver, state)))
            buckets.setdefault(ref_key, []).append(state)
            keys.add((ref_key, solver._record(state).key))
        # the record's key splits the states exactly as the classes do
        assert len(keys) == len(buckets) == len({key for _, key in keys})
        related = unrelated = 0
        for bucket in buckets.values():
            for i, a in enumerate(bucket):
                for b in bucket[:i]:
                    for x, y in ((a, b), (b, a)):
                        truth = reference_equivalent(solver, x, y)
                        assert equivalent(solver, x, y) == truth, (x, y)
                        related += truth
                        unrelated += not truth
        assert related > 0 and unrelated > 0

    def test_a_record_is_built_once_per_visit(self):
        # over the lex(P3,C5) solve: at most one record per _dfs visit, and
        # none built again for a state whose record is kept; the store holds
        # the records of the exhausted states only
        g = make_product(ProductKind.LEXICOGRAPHIC, path_graph(3), cycle_graph(5))
        visits = []  # records built per visit, by visit
        open_visits = []
        built = []
        exhausted = []

        class Counting(_TreeCoverSolver):
            def _dfs(self, limit):
                open_visits.append(len(visits))
                visits.append(0)
                try:
                    return super()._dfs(limit)
                finally:
                    open_visits.pop()

            def _record(self, state):
                visits[open_visits[-1]] += 1
                built.append(tuple(state))
                return super()._record(state)

            def _exhaust(self, state):
                exhausted.append(tuple(state))
                super()._exhaust(state)

        solver = Counting(g, 10**7)
        assert solver.solve(12) is not None
        assert solver.symmetric == COUNTER_PINS["lex_P3_C5"][3]
        assert max(visits) == 1 and sum(visits) == len(built) == 166
        assert len(set(built)) == len(built)  # no state's record built twice
        kept = [rec for bucket in solver.exhausted.values() for rec in bucket]
        assert sorted(map(tuple, kept)) == sorted(exhausted)
        assert len(kept) == 61

    def test_discrete_colouring_turns_pruning_off(self):
        # legs of 1, 2 and 3 edges at vertex 0: every vertex has its own
        # 1-WL colour, so only the identity is an automorphism: no state is
        # kept, and not even the same state is then tested again
        g = build_graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        solver = _TreeCoverSolver(g, 10**9)
        state = state_of(g, [(0, 1), (0, 2)], [(4, 5), (5, 6)])
        solver._exhaust(state)
        assert not solver._symmetric(state)
        assert solver.exhausted is None and sorted(solver.wl) == list(range(7))

    def test_pruning_changes_no_outcome(self, corpus6, monkeypatch):
        # with the equivalence test as is and always False
        runs = outcome_runs(corpus6)
        pruned = outcomes(runs)
        monkeypatch.setattr(_TreeCoverSolver, "_maps_onto", lambda self, a, b: False)
        assert outcomes(runs) == pruned

    def test_search_is_freed_without_the_collector(self):
        # the search, its frontiers and the symmetry test leave no reference
        # cycle: with the cycle collector off, a call leaves no object that
        # only a collection would free (a recursive closure in the
        # backtracking would leave over a thousand)
        g = lex_p3_c4()
        gc.collect()
        gc.disable()
        try:
            res = mc_exact(g)
            assert res.stats.symmetric > 0
            del res
            assert gc.collect() == 0
        finally:
            gc.enable()


# -- path frontiers: the level-by-level kernel against the arc-iterator enumerator --


def reference_paths(solver, start, ends, max_len, forbidden_vmask=0, states=None):
    """The plain neighbour-iterator enumerator, the differential reference
    for ``_Frontier``: a stack of neighbour iterators and an explicit
    used-or-on-path edge test.  Each open prefix it extends past the start
    is added to ``states``, if given, as (vertex mask, last vertex)."""
    ebit = {}
    for i, (u, v) in enumerate(solver.g.edges):
        ebit[(u, v)] = ebit[(v, u)] = 1 << i
    arcs = [
        tuple((w, ebit[(u, w)]) for w in solver.g.neighbors[u])
        for u in range(solver.n)
    ]
    out = []
    if max_len <= 0:
        return out
    blocked = forbidden_vmask & ~(1 << start)
    used = solver.used_edges
    stack = [(1 << start, 0, 0, iter(arcs[start]))]
    while stack:
        path_v, path_e, length, it = stack[-1]
        for w, eb in it:
            if (used | path_e) & eb:
                continue
            wbit = 1 << w
            if ends & wbit:
                out.append((path_v | wbit, path_e | eb, length + 1))
                continue
            if (path_v | blocked) & wbit or length + 1 >= max_len:
                continue
            if states is not None:
                states.add((path_v | wbit, w))
            stack.append((path_v | wbit, path_e | eb, length + 1, iter(arcs[w])))
            break
        else:
            stack.pop()
    return out


def bits_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def path_queries(draw):
    """A graph on at most 9 vertices and one frontier on it: starts, ends
    (never holding a start), forbidden vertices, used edges, the longest
    length asked, node budget and the nodes already spent."""
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
    starts = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n - 1)))
    others = [v for v in range(n) if v not in starts]

    def vertex_mask(min_size, max_size):
        chosen = draw(
            st.sets(st.sampled_from(others), min_size=min_size, max_size=max_size)
        )
        return sum(1 << v for v in chosen)

    start_mask = sum(1 << v for v in starts)
    ends = vertex_mask(1, 3)
    forbidden = vertex_mask(0, 3) | draw(st.sampled_from([0, start_mask]))
    used_ids = draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=g.m // 3))
    used = sum(1 << i for i in used_ids)
    max_len = draw(st.integers(0, n))
    budget = draw(st.one_of(st.just(10**9), st.integers(0, 40)))
    spent = draw(st.integers(0, 3))
    return g, (start_mask, ends, max_len, forbidden), used, budget, spent


def fresh_solver(g, used, budget, spent):
    solver = _TreeCoverSolver(g, budget + spent)
    solver.nodes = spent
    solver.used_edges = used
    return solver


def run_reference(g, args, used, budget):
    """Every start's reference enumeration in turn, on one solver: the
    (vertex mask, edge mask, length) triples, or "budget exceeded", and the
    charge: the starts plus the distinct (vertex mask, last vertex) prefix
    states, stopped at ``budget + 1``."""
    starts, ends, max_len, forbidden = args
    solver = fresh_solver(g, used, budget, 0)
    out, states = [], set()
    for y in bits_of(starts):
        out += reference_paths(solver, y, ends, max_len, forbidden, states)
    charge = starts.bit_count() + len(states)
    if charge > budget:
        return "budget exceeded", budget + 1
    return out, charge


def grouped(pairs):
    """(key, edge mask) pairs as {key: sorted edge masks}."""
    groups = {}
    for pv, pe in pairs:
        groups.setdefault(pv, []).append(pe)
    return {pv: sorted(pes) for pv, pes in groups.items()}


def rebuilt(found, expand):
    """The keys of paths or moves with every group rebuilt by
    ``expand(key)``: {key: sorted edge masks}.  No key rebuilds to
    nothing."""
    out = {}
    for key in found:
        out[key] = sorted(expand(key))
        assert out[key]
    return out


def run_frontier(g, args, used, budget, spent):
    """One frontier asked for lengths 1..max_len in turn: per length, the
    paths grouped by key (vertex set without the last vertex) as rebuilt
    (or "budget exceeded", ending the run), and the ticks spent so far."""
    starts, ends, max_len, forbidden = args
    solver = fresh_solver(g, used, budget, spent)
    front = _Frontier(solver, solver._free_masks(), starts, ends, forbidden)
    levels = []
    for k in range(1, max_len + 1):
        try:
            out = rebuilt(front.paths(k), front.expand)
        except BudgetExceededError:
            out = "budget exceeded"
        levels.append((out, solver.nodes - spent))
        if out == "budget exceeded":
            assert solver.nodes == solver.max_nodes + 1
            break
    return levels


class TestPathEnumeration:
    @settings(max_examples=400, deadline=None)
    @given(path_queries())
    def test_kernel_matches_reference(self, query):
        g, args, used, budget, spent = query
        starts, ends, max_len, forbidden = args
        levels = run_frontier(g, args, used, budget, spent)
        for k, (out, ticks) in enumerate(levels, start=1):
            # the reference capped at length k: per key (the vertex set
            # without the end vertex, the one vertex of ends on a path),
            # the same paths of length k rebuilt, one tick per start and
            # per distinct prefix state, the same budget raise
            ref_out, ref_ticks = run_reference(
                g, (starts, ends, k, forbidden), used, budget
            )
            assert ticks == ref_ticks
            if ref_out == "budget exceeded":
                assert out == ref_out
            else:
                ref_k = [
                    (pv & ~ends, pe) for pv, pe, n_edges in ref_out if n_edges == k
                ]
                assert out == grouped(ref_k)

    @pytest.mark.parametrize("max_nodes", [0, 1, 10])
    def test_tiny_budget_raises_at_the_same_node(self, max_nodes):
        args = (1 << 0, 1 << 6, 6, 0)
        levels = run_frontier(complete_graph(7), args, 0, max_nodes, 0)
        assert levels[-1] == ("budget exceeded", max_nodes + 1)
        assert run_reference(complete_graph(7), args, 0, max_nodes) == (
            "budget exceeded",
            max_nodes + 1,
        )

    def test_one_state_per_vertex_set_and_last_vertex(self):
        # on K7 from vertex 0 to vertex 6, length k has 5!/(5-k)! prefixes
        # of k edges but only C(5, k) * k states (vertex set, last vertex):
        # the charge counts states, and prefixes of one state share it
        args = (1 << 0, 1 << 6, 6, 0)
        levels = run_frontier(complete_graph(7), args, 0, 10**9, 0)
        states = [comb(5, k) * k for k in range(1, 6)]
        assert [ticks for _, ticks in levels] == [
            1 + sum(states[: k - 1]) for k in range(1, 7)
        ]


# -- move levels: every move of every delta, against the reference paths ----


def reference_moves(solver, u, v, budget, dp):
    """Every minimal service of (u, v) built from ``reference_paths`` with no
    length cap but the budget, each kept where its tree's gate passes, and
    each with the vertices it adds to its tree: the reference for the moves
    of all levels of ``_levels``.  Each move comes with whether a frontier
    that serves one tree builds it through a grown prefix: an attachment or
    a connector path of at least 2 edges."""
    moves = []
    new_top = solver._delta_gate(2, 0, budget, dp)
    for pv, pe, length in reference_paths(solver, u, 1 << v, budget + 1):
        if 0 < length - 1 <= new_top:
            moves.append((length - 1, -1, pv, pe, False))
    uv_paths = reference_paths(solver, u, 1 << v, budget)
    for t, tv in enumerate(solver.tree_v):
        top = solver._delta_gate(
            tv.bit_count(), solver._inside(tv).bit_count(), budget, dp
        )
        if tv & ((1 << u) | (1 << v)):
            x = v if tv >> u & 1 else u
            for pv, pe, length in reference_paths(solver, x, tv, budget):
                if 0 < length <= top:
                    moves.append((length, t, pv, pe, length >= 2))
            continue
        for pv, pe, length in uv_paths:
            overlap = (pv & tv).bit_count()
            if overlap == 1 and 0 < length <= top:
                moves.append((length, t, pv, pe, False))
            if overlap == 0:
                # a connector from a vertex of the path, avoiding its edges
                # and, past its first vertex, its vertices
                saved = solver.used_edges
                solver.used_edges |= pe
                for y in bits_of(pv):
                    for cv, ce, n_edges in reference_paths(
                        solver, y, tv, budget - length, pv
                    ):
                        if 0 < length + n_edges <= top:
                            moves.append(
                                (length + n_edges, t, pv | cv, pe | ce, n_edges >= 2)
                            )
                solver.used_edges = saved
    return [
        (delta, t, vmask & ~tree_of(solver, t), emask, grown)
        for delta, t, vmask, emask, grown in moves
    ]


def fails_matching_cut(solver, budget, move):
    delta, target, add_v, _ = move
    tv = tree_of(solver, target) | add_v
    return solver._cuts(solver.covered, tv, budget - delta)


def tree_of(solver, target):
    """The vertices of a move's target tree; none for a new tree."""
    return 0 if target < 0 else solver.tree_v[target]


def vertices_of(solver, emask):
    vmask = 0
    for i in bits_of(emask):
        u, v = solver.g.edges[i]
        vmask |= (1 << u) | (1 << v)
    return vmask


def level_moves(delta, groups):
    """The moves of one ``_levels`` level, every group rebuilt."""
    return [
        (delta, target, add_v, add_e)
        for target, keys, expand in groups
        for add_v, edges in rebuilt(keys, expand).items()
        for add_e in edges
    ]


def search_state(seed):
    """A solver on a seeded dense connected graph, a waste limit, a capacity
    table, and the state after up to three cheapest services of random
    uncovered pairs.  The table is the solver's own or one so optimistic
    that every gate passes; the services are drawn under the optimistic one,
    so that trees, and all kinds of move, show up often."""
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    m = rng.randint(n * (n - 1) // 4, n * (n - 1) // 2 - 1)
    solver = _TreeCoverSolver(random_connected_graph(n, m, rng), 10**9)
    limit = rng.randint(n - 4, n - 3)
    optimistic = rng.random() < 0.5

    def capacity(budget, optimistic=optimistic):
        if optimistic:
            return [solver.num_pairs] * (budget + 1)
        return solver._capacity_dp(budget)

    for _ in range(rng.randint(0, 3)):
        rest = solver.all_mask & ~solver.covered
        budget = limit - solver.waste
        if not rest or budget < 1:
            break
        # a cheapest service of a random uncovered pair
        u, v = solver.pairs[rng.choice(bits_of(rest))]
        levels = solver._levels(u, v, budget, capacity(budget, optimistic=True))
        moves = next(filter(None, (level_moves(*level) for level in levels)), None)
        if moves is None:
            break
        delta, target, add_v, add_e = rng.choice(sorted(moves, key=solver._move_key))
        solver._apply(target, add_v, add_e, delta)
    return solver, limit, capacity


def level_cases():
    """The 300 seeded ``search_state`` states that have a pair to serve
    within the budget: (seed, solver, budget, the pair, capacity table)."""
    for seed in range(300):
        solver, limit, capacity = search_state(seed)
        rest = solver.all_mask & ~solver.covered
        budget = limit - solver.waste
        if rest and budget >= 1:
            u, v = solver.pairs[(rest & -rest).bit_length() - 1]
            yield seed, solver, budget, (u, v), capacity(budget)


class TestMoveLevels:
    def test_levels_hold_every_move_once(self):
        for seed, solver, budget, (u, v), dp in level_cases():
            deltas, moves = [], []
            for delta, groups in solver._levels(u, v, budget, dp):
                # every rebuilt move adds exactly its group's vertices to
                # its tree
                level = level_moves(delta, groups)
                for _, target, add_v, add_e in level:
                    added = vertices_of(solver, add_e) & ~tree_of(solver, target)
                    assert added == add_v, seed
                deltas.append(delta)
                moves += level
            assert deltas == sorted(set(deltas)), seed  # each delta once, ascending
            # the reference moves less those a one-tree frontier drops: a
            # move built through a grown prefix that fails the matching cut
            # (the move's last grown prefix stands for the move itself)
            reference = reference_moves(solver, u, v, budget, dp)
            full = [move[:4] for move in reference]
            kept = [
                move[:4]
                for move in reference
                if not (move[4] and fails_matching_cut(solver, budget, move[:4]))
            ]
            assert set(moves) <= set(full), seed
            assert sorted(moves) == sorted(kept), seed

    def test_prefix_cut_changes_no_outcome(self, corpus6, monkeypatch):
        # with dead prefixes dropped and kept
        runs = outcome_runs(corpus6)
        cut = outcomes(runs)
        monkeypatch.setattr(_Frontier, "_cut", lambda front, grown: None)
        assert outcomes(runs) == cut

    def test_a_dropped_prefix_fails_every_move_through_it(self, monkeypatch):
        # every vertex a move into a tree adds brings one unit of waste and
        # newly covers only pairs at itself, of fractional weight at most 1:
        # so every reference move into the tree of a dropped prefix whose
        # added vertices hold the prefix's fails the matching cut
        dropped = []
        cut = _Frontier._cut

        def recording(front, grown):
            before = {w: set(at_w) for w, at_w in grown.items()}
            cut(front, grown)
            for w, at_w in grown.items():
                for vmask in before[w] - at_w:
                    dropped.append((front.ends, front.starts | vmask))

        monkeypatch.setattr(_Frontier, "_cut", recording)
        checked = 0
        for seed, solver, budget, (u, v), dp in level_cases():
            dropped.clear()
            for _ in solver._levels(u, v, budget, dp):
                pass
            for tree, q in dropped:
                t = solver.tree_v.index(tree)
                assert fails_matching_cut(solver, budget, (q.bit_count(), t, q, 0))
            for move in reference_moves(solver, u, v, budget, dp):
                _, t, add_v, _, _ = move
                tree = tree_of(solver, t)
                if t >= 0 and any(d == tree and not q & ~add_v for d, q in dropped):
                    assert fails_matching_cut(solver, budget, move[:4]), seed
                    checked += 1
        assert checked > 1000


# -- the capacity table: connected subsets against brute force --------------


def reference_max_subset_edges(g):
    """best[s] by listing every vertex subset: the most non-adjacent pairs
    inside a connected induced subgraph on s vertices, then the running
    maximum over s; the reference for ``_max_subset_edges_table``."""
    best = [0] * (g.n + 1)
    for s in range(1, g.n + 1):
        for subset in combinations(range(g.n), s):
            inside = set(subset)
            seen, stack = {subset[0]}, [subset[0]]
            while stack:
                for w in g.neighbors[stack.pop()]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == s:
                apart = sum(not g.has_edge(u, v) for u, v in combinations(subset, 2))
                best[s] = max(best[s], apart)
        best[s] = max(best[s], best[s - 1])
    return best


def table_graphs():
    """15 seeded connected graphs for each n in 3..10, the six products
    above, then the two 15-vertex products (the first and those six are the
    exact-products hosts)."""
    rng = random.Random(23)
    graphs = [
        random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        for n in range(3, 11)
        for _ in range(15)
    ]
    graphs += [make_product(kind, a, b) for _, kind, a, b, _ in PRODUCTS]
    for kind, b in (
        (ProductKind.LEXICOGRAPHIC, cycle_graph(5)),
        (ProductKind.STRONG, complete_graph(5)),
    ):
        graphs.append(make_product(kind, path_graph(3), b))
    return graphs


# the tables of three 16-vertex hosts
SIXTEEN_VERTEX_TABLES = {
    "lex_P2_C8": (
        lambda: make_product(ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(8)),
        [0, 0, 0, 1, 3, 6, 10, 15, 20, 20, 21, 23, 26, 28, 31, 35, 40],
    ),
    "Q4": (
        lambda: generate(NetworkSpec("hypercube", (4,))),
        [0, 0, 0, 1, 3, 6, 10, 15, 21, 28, 35, 43, 50, 58, 67, 77, 88],
    ),
    "grid_4_4": (
        lambda: generate(NetworkSpec("grid", (4, 4))),
        [0, 0, 0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 65, 75, 85, 96],
    ),
}


class TestCapacityTable:
    def test_table_counts_connected_subsets_only(self):
        graphs = table_graphs()
        assert len(graphs) == 128
        for g in graphs:
            table = _TreeCoverSolver(g, 1)._max_subset_edges_table()
            assert table == reference_max_subset_edges(g), g.edges

    @pytest.mark.parametrize("name", sorted(SIXTEEN_VERTEX_TABLES))
    def test_sixteen_vertex_hosts(self, name):
        # the largest hosts the table lists every subset of; Q4 and the grid
        # are sparse, so most of their masks span too few edges to be connected
        build, table = SIXTEEN_VERTEX_TABLES[name]
        g = build()
        assert g.n == 16
        assert _TreeCoverSolver(g, 1).maxedges == table
        assert reference_max_subset_edges(g) == table


# -- the delta gate: one top delta against the boolean list ------------------


def reference_gate(solver, base_size, inside, budget, dp):
    """ok[d] for d <= budget by the O(budget^2) double loop over (delta,
    extra): the reference for ``_delta_gate``."""
    n, maxedges = solver.n, solver.maxedges
    uncovered_cnt = (solver.all_mask & ~solver.covered).bit_count()
    ok = [False] * (budget + 1)
    for delta in range(1, budget + 1):
        best = 0
        for extra in range(budget - delta + 1):
            val = (
                maxedges[min(base_size + delta + extra, n)]
                - inside
                + dp[budget - delta - extra]
            )
            if val > best:
                best = val
        ok[delta] = best >= uncovered_cnt
    return ok


class TestDeltaGate:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    @example(0)  # tops 1 and 2 below their budgets
    @example(61)
    @example(256)
    def test_top_is_the_last_passing_delta(self, seed):
        # the passing deltas are a prefix 1..top, and top is the last of them
        solver, limit, capacity = search_state(seed)
        trees = [(2, 0)] + [
            (tv.bit_count(), solver._inside(tv).bit_count()) for tv in solver.tree_v
        ]
        for budget in range(limit - solver.waste + 1):
            dp = capacity(budget)
            for base_size, inside in trees:
                ok = reference_gate(solver, base_size, inside, budget, dp)
                top = solver._delta_gate(base_size, inside, budget, dp)
                assert ok == [False] + [True] * top + [False] * (budget - top)


# -- the matching bound: one pass over the uncovered pairs' bits ------------


def reference_matching(solver, covered):
    """The greedy matching in pair order, one step per uncovered pair, as
    (size, chosen pair mask): the reference for ``_matching`` and its
    ``greedy_pairs`` entry."""
    used = size = chosen = 0
    rest = solver.all_mask & ~covered
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        u, v = solver.pairs[i]
        pm = (1 << u) | (1 << v)
        if not pm & used:
            used |= pm
            chosen |= 1 << i
            size += 1
    return size, chosen


def reference_fractional_matching(solver, covered):
    """The fractional matching bound by brute force, for n <= 8: the best
    vertex-disjoint union of uncovered pairs (value 1 each) and odd cycles
    of uncovered pairs (value |C|/2 each), which is the shape of a basic
    optimal fractional matching, rounded up.  The reference for
    ``_max_matching``."""
    n = solver.n
    nbr = [0] * n
    for i, (u, v) in enumerate(solver.pairs):
        if not covered >> i & 1:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    # (vertex mask, value in halves): each pair, and each odd cycle's vertex
    # set, found by walking the simple paths out of its lowest vertex
    parts = [
        ((1 << u) | (1 << v), 2) for u in range(n) for v in range(u + 1, n)
        if nbr[u] >> v & 1
    ]
    for low in range(n):
        above = ((1 << n) - 1) >> (low + 1) << (low + 1)
        stack = [(1 << low, low)]
        while stack:
            pv, x = stack.pop()
            size = pv.bit_count()
            if size >= 3 and size % 2 and nbr[x] >> low & 1:
                parts.append((pv, size))
            cand = nbr[x] & above & ~pv
            while cand:
                bit = cand & -cand
                cand ^= bit
                stack.append((pv | bit, bit.bit_length() - 1))
    # best[mask]: the most halves placed inside mask; the lowest vertex of
    # mask is either left out or lies in one part
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        best[mask] = max(
            [best[mask ^ low]]
            + [best[mask ^ pv] + value for pv, value in parts
               if pv & low and pv & mask == pv]
        )
    return (best[(1 << n) - 1] + 1) // 2


@st.composite
def matching_queries(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    solver = _TreeCoverSolver(build_graph(n, [e for e, k in zip(pairs, keep) if k]), 0)
    return solver, draw(st.integers(0, solver.all_mask))


class TestMatchingBound:
    @settings(max_examples=300, deadline=None)
    @given(matching_queries())
    def test_matches_reference(self, query):
        solver, covered = query
        size = solver._matching(covered)
        assert (size, solver.greedy_pairs[covered]) == reference_matching(
            solver, covered
        )

    def test_matches_reference_on_c60(self):
        # 1,710 non-adjacent pairs; seeded covered masks from dense to sparse
        solver = _TreeCoverSolver(cycle_graph(60), 0)
        assert solver.num_pairs == 1_710
        rng = random.Random(29)
        masks = [0, solver.all_mask, solver.vertex_pairs[0] | solver.vertex_pairs[7]]
        for ands in range(5):
            for _ in range(8):
                covered = rng.getrandbits(solver.num_pairs)
                for _ in range(ands):
                    covered &= rng.getrandbits(solver.num_pairs)
                masks.append(covered)
        for covered in masks:
            size = solver._matching(covered)
            assert (size, solver.greedy_pairs[covered]) == reference_matching(
                solver, covered
            ), covered

    @settings(max_examples=300, deadline=None)
    @given(matching_queries(max_n=8))
    def test_fractional_matches_brute_force(self, query):
        solver, covered = query
        size = solver._max_matching(covered)
        assert size == reference_fractional_matching(solver, covered)
        assert size >= solver._matching(covered)

    def test_fractional_beats_every_matching_on_c5(self):
        # the uncovered pairs of C5 form another C5: no matching holds more
        # than 2 of them, but weight 1/2 on each gives 5/2, rounded up to 3
        solver = _TreeCoverSolver(cycle_graph(5), 0)
        assert (solver._matching(0), solver._max_matching(0)) == (2, 3)

    def test_fractional_has_no_recursion_cliff(self):
        # the complement of C60 has a perfect matching; with every pair at
        # vertices 0 and 1 covered, the complement of the path 2..59 is left,
        # which has one too
        solver = _TreeCoverSolver(cycle_graph(60), 0)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 25)
        try:
            full = solver._max_matching(0)
            without_01 = solver._max_matching(
                solver.vertex_pairs[0] | solver.vertex_pairs[1]
            )
        finally:
            sys.setrecursionlimit(limit)
        assert (full, without_01) == (30, 29)


# -- naive engine: the coverage cut against the unpruned enumerator ---------------


def reference_naive(g):
    """The partition enumerator without the coverage cut, the differential
    reference for ``mc_exact_naive``: for k from m down, walk every partition
    into exactly k classes to its leaf and return the first valid one, as
    (value, method, colors)."""
    if g.n <= 1 or not is_connected(g):
        return 0, "naive-partition", None
    m = g.m
    pair_id = {p: i for i, p in enumerate(combinations(range(g.n), 2))}
    full_mask = (1 << len(pair_id)) - 1

    def served_pairs(class_mask):
        edges = [e for i, e in enumerate(g.edges) if class_mask >> i & 1]
        mask = 0
        for comp in edge_components(g.n, edges):
            for a, b in combinations(comp, 2):
                mask |= 1 << pair_id[(a, b)]
        return mask

    def search(k):
        assignment = [0] * m
        classes = []

        def rec(i):
            if i == m:
                if len(classes) != k:
                    return False
                acc = 0
                for cmask in classes:
                    acc |= served_pairs(cmask)
                return acc == full_mask
            if len(classes) + (m - i) < k:
                return False
            bit = 1 << i
            for c in range(min(len(classes) + 1, k)):
                opened = c == len(classes)
                if opened:
                    classes.append(bit)
                else:
                    classes[c] |= bit
                assignment[i] = c
                if rec(i + 1):
                    return True
                if opened:
                    classes.pop()
                else:
                    classes[c] ^= bit
            return False

        return tuple(assignment) if rec(0) else None

    for k in range(m, 0, -1):
        colors = search(k)
        if colors is not None:
            return k, "naive-partition", colors
    raise AssertionError("one color class always works on a connected graph")


@st.composite
def naive_graphs(draw):
    """A graph on at most 7 vertices with at most 10 edges, often
    disconnected; one draw in four is a complete graph K1..K5."""
    if draw(st.integers(0, 3)) == 0:
        return complete_graph(draw(st.integers(1, 5)))
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=10)) if pairs else set()
    return build_graph(n, sorted(chosen))


class TestNaiveCoverageCut:
    @settings(max_examples=50, deadline=None)
    @given(naive_graphs())
    @example(complete_graph(5))
    @example(build_graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (1, 5), (2, 6)]))
    @example(build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]))
    def test_matches_unpruned_enumeration(self, g):
        res = mc_exact_naive(g)
        colors = res.witness.colors if res.witness else None
        assert (res.value, res.method, colors) == reference_naive(g)
