import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgraph.errors import InapplicableError
from mcgraph.families import (
    NetworkSpec,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    petersen_graph,
)
from mcgraph.graph import build_graph, vertex_connectivity
from mcgraph.mc import (
    EdgeColoring,
    TreeCover,
    all_distinct_coloring,
    check_mc_coloring,
    mc_bounds_basic,
    mc_bounds_combined,
    spanning_tree_coloring,
    theorem1_certificate,
)
from mcgraph.products import ProductKind, make_product
from mcgraph.smallgraphs import random_connected_graph
from mcgraph.treecover import mc_exact


def degree_condition_variants(g):
    """The two simpler sufficient forms of the maximum-degree condition:
    Delta <= (n + 1)/2 and Delta <= n - 2m/n.  Either implies the main
    inequality used by ``theorem1_certificate``."""
    n, m = g.n, g.m
    delta = max((g.degree(v) for v in g.vertices()), default=0)
    return (
        Fraction(delta) <= Fraction(n + 1, 2),
        Fraction(delta) <= n - Fraction(2 * m, n),
    )


class TestEdgeColoring:
    def test_contiguity_enforced(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="contiguous"):
            EdgeColoring(g, (0, 2))

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            EdgeColoring(path_graph(3), (0,))

    def test_color_classes(self):
        g = cycle_graph(3)
        c = EdgeColoring(g, (0, 1, 0))
        assert c.color_classes() == [[(0, 1), (1, 2)], [(0, 2)]]


class TestCheckMcColoring:
    def test_monochromatic_path_accepted(self):
        g = path_graph(3)
        ok, violation = check_mc_coloring(g, EdgeColoring(g, (0, 0)))
        assert ok and violation is None

    def test_split_path_rejected_with_smallest_pair(self):
        g = path_graph(3)
        ok, violation = check_mc_coloring(g, EdgeColoring(g, (0, 1)))
        assert not ok and violation == (0, 2)

    def test_triangle_all_distinct(self):
        g = cycle_graph(3)
        ok, _ = check_mc_coloring(g, all_distinct_coloring(g))
        assert ok

    def test_host_mismatch(self):
        g, h = path_graph(3), cycle_graph(3)
        with pytest.raises(ValueError):
            check_mc_coloring(g, EdgeColoring(h, (0, 0, 0)))


def _reference_check(g, coloring):
    """Union-find per color class, then scan every pair against every class."""
    k = coloring.color_count
    parent = [list(range(g.n)) for _ in range(k)]

    def find(c, x):
        while parent[c][x] != x:
            x = parent[c][x]
        return x

    for (u, v), c in zip(g.edges, coloring.colors):
        ru, rv = find(c, u), find(c, v)
        if ru != rv:
            parent[c][ru] = rv
    for u, v in combinations(range(g.n), 2):
        if not any(find(c, u) == find(c, v) for c in range(k)):
            return False, (u, v)
    return True, None


def _ranked(drawn):
    rank = {c: i for i, c in enumerate(sorted(set(drawn)))}
    return tuple(rank[c] for c in drawn)


def _random_colors(rng):
    n = rng.randint(2, 8)
    g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
    k = rng.randint(1, g.m)
    return g, _ranked([rng.randrange(k) for _ in range(g.m)])


def _host_up_to_12(rng):
    n = rng.randint(2, 12)
    return random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)


def _spanning_tree_colors(rng):
    g = _host_up_to_12(rng)
    return g, spanning_tree_coloring(g).colors


def _all_distinct_colors(rng):  # invalid on every non-complete host
    g = _host_up_to_12(rng)
    return g, tuple(range(g.m))


def _classes_and_singletons(rng):
    """A few classes of any size, every other edge a color of its own."""
    g = _host_up_to_12(rng)
    few = rng.randint(1, 3)
    return g, _ranked(
        [rng.randrange(few) if rng.random() < 0.5 else few + i for i in range(g.m)]
    )


def _one_tree_edge_moved(rng):
    """One of the shapes above, with an edge of a multi-edge class recolored
    fresh: a tree edge, for a spanning-tree coloring."""
    g, colors = rng.choice(
        [_spanning_tree_colors, _all_distinct_colors, _classes_and_singletons]
    )(rng)
    shared = [i for i, c in enumerate(colors) if colors.count(c) > 1]
    if not shared:
        return g, colors
    moved = list(colors)
    moved[rng.choice(shared)] = len(set(colors))
    return g, _ranked(moved)


_COLORINGS = [
    _random_colors,
    _spanning_tree_colors,
    _all_distinct_colors,
    _classes_and_singletons,
    _one_tree_edge_moved,
]


@settings(max_examples=500, deadline=None)
@given(
    st.builds(
        lambda seed, draw: draw(random.Random(seed)),
        st.integers(0, 10**6),
        st.sampled_from(_COLORINGS),
    )
)
@example((complete_graph(2), (0,)))
@example((build_graph(4, [(0, 1), (2, 3)]), (0, 1)))  # disconnected: (0, 2)
# (0, 2) is the smallest bad pair, and only one-edge classes touch 0 and 2
@example((cycle_graph(6), (0, 1, 2, 3, 4, 4)))
# vertex 3 is isolated, and the bad pair (0, 2) comes before (0, 3)
@example((build_graph(6, [(0, 1), (1, 2), (2, 4), (4, 5)]), (0, 1, 1, 1)))
def test_checker_matches_pair_scan_reference(case):
    g, colors = case
    coloring = EdgeColoring(g, colors)
    assert check_mc_coloring(g, coloring) == _reference_check(g, coloring)


# The BFS visit order decides the spanning tree, which is also mc_exact's
# witness when no cover beats it, so these recorded colorings change if that
# order does.
_PINNED = [
    (
        petersen_graph(),
        (0, 0, 0, 0, 0, 1, 2, 0, 3, 0, 0, 0, 4, 5, 6),
        (0, 0, 0, 0, 0, 1, 2, 0, 3, 0, 0, 0, 4, 5, 6),
    ),
    (
        make_product(ProductKind.LEXICOGRAPHIC, path_graph(2), cycle_graph(4)),
        (0, 0, 0, 0, 0, 0, 0) + tuple(range(1, 18)),
        (0, 0, 1, 2, 1, 2, 0) + tuple(range(3, 20)),
    ),
]


@pytest.mark.parametrize(
    "g,tree_colors,exact_colors", _PINNED, ids=["petersen", "lex_P2_C4"]
)
def test_pinned_witnesses(g, tree_colors, exact_colors):
    assert spanning_tree_coloring(g).colors == tree_colors
    assert mc_exact(g).witness.colors == exact_colors


class TestSpanningTreeColoring:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle_graph(4), 2),
            (complete_graph(4), 4),
            (path_graph(5), 1),
        ],
    )
    def test_color_counts(self, g, expected):
        c = spanning_tree_coloring(g)
        assert c.color_count == expected == g.m - g.n + 2
        ok, _ = check_mc_coloring(g, c)
        assert ok

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            spanning_tree_coloring(build_graph(4, [(0, 1), (2, 3)]))


class TestTreeCover:
    def test_waste_and_coloring(self):
        g = cycle_graph(4)
        cover = TreeCover(host=g, trees=(((0, 1), (1, 2), (2, 3)),))
        cover.validate()
        assert cover.waste() == 2
        coloring = cover.to_coloring()
        assert coloring.color_count == g.m - 2
        ok, _ = check_mc_coloring(g, coloring)
        assert ok

    def test_rejects_short_tree(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="2 edges"):
            TreeCover(host=g, trees=(((0, 1),),)).validate()

    def test_rejects_uncovered_pair(self):
        g = cycle_graph(5)
        cover = TreeCover(host=g, trees=(((0, 1), (1, 2)),))
        with pytest.raises(ValueError, match="not covered"):
            cover.validate()

    def test_rejects_shared_edge(self):
        g = cycle_graph(4)
        cover = TreeCover(
            host=g, trees=(((0, 1), (1, 2)), ((0, 1), (0, 3)))
        )
        with pytest.raises(ValueError, match="two trees"):
            cover.validate()

    def test_rejects_cyclic_class(self):
        g = cycle_graph(4)
        cover = TreeCover(
            host=g, trees=(((0, 1), (1, 2), (2, 3), (0, 3)),)
        )
        with pytest.raises(ValueError, match="not a tree"):
            cover.validate()


class TestTheorem1Certificate:
    def test_petersen_triangle_free(self):
        cert = theorem1_certificate(petersen_graph())
        assert cert.holds and "b" in cert.conditions
        assert cert.value == 7

    def test_grid_diameter(self):
        g = generate(NetworkSpec("grid", (3, 2)))
        cert = theorem1_certificate(g)
        assert "d" in cert.conditions and cert.value == 3

    def test_path_cut_vertex(self):
        cert = theorem1_certificate(path_graph(5))
        assert "e" in cert.conditions and cert.value == 1

    def test_too_small_rejected(self):
        with pytest.raises(InapplicableError):
            theorem1_certificate(cycle_graph(3))

    def test_disconnected_rejected(self):
        with pytest.raises(InapplicableError):
            theorem1_certificate(build_graph(5, [(0, 1), (2, 3)]))

    def test_no_condition_on_dense_diameter2(self):
        # wheel-like graph: triangle-rich, diameter 2, no cut vertex
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
        cert = theorem1_certificate(g)
        assert not cert.holds and cert.value is None

    def test_variants_imply_main_condition(self, corpus6):
        for g in corpus6:
            if g.n <= 3:
                continue
            half, avg = degree_condition_variants(g)
            if half or avg:
                assert "c" in theorem1_certificate(g).conditions


class TestBoundsBasic:
    def test_petersen(self):
        iv = mc_bounds_basic(petersen_graph())
        assert (iv.lower, iv.upper) == (7, 9)
        assert (iv.lower_source, iv.upper_source) == ("Obs1", "Lem1")

    @pytest.mark.parametrize("k", range(2, 9))
    def test_complete_graph_is_a_point(self, k):
        # diameter 1 lets the all-distinct coloring attain the Lem1 ceiling m,
        # so the interval is [m, m] rather than [m - n + 2, m]
        g = complete_graph(k)
        iv = mc_bounds_basic(g)
        assert (iv.lower, iv.upper) == (g.m, g.m)
        assert (iv.lower_source, iv.upper_source) == ("AllDistinct", "Lem1")
        witness = all_distinct_coloring(g)
        ok, _ = check_mc_coloring(g, witness)
        assert ok and witness.color_count == g.m

    def test_disconnected_zero(self):
        iv = mc_bounds_basic(build_graph(4, [(0, 1), (2, 3)]))
        assert (iv.lower, iv.upper) == (0, 0)

    def test_hl4_true_kappa_vs_combined(self):
        product = generate(NetworkSpec("hl", (4,)))
        assert vertex_connectivity(product) == 13
        basic = mc_bounds_basic(product)
        assert (basic.lower, basic.upper) == (112, 124)
        combined = mc_bounds_combined(product)
        assert (combined.lower, combined.upper) == (112, 121)
        assert combined.upper_source == "Thm3(3)"

    @pytest.mark.parametrize(
        "params,m", [((3, 3), 36), ((3, 3, 3, 3), 3240)]
    )
    def test_combined_contains_m_on_complete_lex_products(self, params, m):
        # lex_torus over triangles is complete, so mc = m
        product = generate(NetworkSpec("lex_torus", params))
        assert product.m == m == product.n * (product.n - 1) // 2
        combined = mc_bounds_combined(product)
        assert (combined.lower, combined.upper) == (m, m)
        assert combined == mc_bounds_basic(product)

    def test_combined_keeps_an_interval_closed_to_a_point(self):
        # Thm5's lower end meets Lem1's ceiling: the intersection is the
        # point 18, which is kept, not thrown away for the basic interval
        paw = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        combined = mc_bounds_combined(make_product(ProductKind.DIRECT, paw, paw))
        assert (combined.lower, combined.upper) == (18, 18)
        assert (combined.lower_source, combined.upper_source) == ("Thm5", "Lem1")
        assert combined.case == (
            "basic sandwich intersected with Thm5 nonbipartite factors"
        )

    def test_combined_falls_back_without_gain(self):
        # direct product with a bipartite factor: themed interval inapplicable
        product = make_product(ProductKind.DIRECT, cycle_graph(3), cycle_graph(4))
        combined = mc_bounds_combined(product)
        assert combined.case.startswith("basic") or "disconnected" in combined.case


def _merge_classes(coloring: EdgeColoring, a: int, b: int) -> EdgeColoring:
    lo, hi = min(a, b), max(a, b)
    remap = []
    for c in coloring.colors:
        if c == hi:
            c = lo
        elif c > hi:
            c -= 1
        remap.append(c)
    return EdgeColoring(coloring.host, tuple(remap))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_merging_classes_keeps_validity(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    g = random_connected_graph(n, rng.randint(n - 1, min(10, n * (n - 1) // 2)), rng)
    witness = mc_exact(g).witness
    if witness.color_count < 2:
        return
    a = rng.randrange(witness.color_count)
    b = rng.randrange(witness.color_count)
    if a == b:
        return
    merged = _merge_classes(witness, a, b)
    ok, violation = check_mc_coloring(g, merged)
    assert ok, violation
