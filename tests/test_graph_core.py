import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgraph import graph as graph_module
from mcgraph.families import (
    NetworkSpec,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    petersen_graph,
    star_graph,
)
from mcgraph.graph import (
    INFINITE,
    bfs_parents,
    build_graph,
    complement,
    connected_components,
    connectivity_at_least,
    diameter,
    distance,
    distances_from,
    edge_components,
    edge_connectivity,
    has_cut_vertex,
    is_bipartite,
    is_connected,
    is_tree,
    metrics,
    min_degree,
    relabel,
    vertex_connectivity,
)
from mcgraph.mc import mc_bounds_basic, theorem1_certificate
from mcgraph.smallgraphs import random_connected_graph
from mcgraph.verification import (
    min_edge_cut_exhaustive,
    min_vertex_cut_exhaustive,
)


def brute_distances(g):
    """Independent all-pairs distances by repeated neighborhood expansion."""
    dist = [[0 if i == j else INFINITE for j in range(g.n)] for i in range(g.n)]
    for s in range(g.n):
        frontier = {s}
        seen = {s}
        step = 0
        while frontier:
            step += 1
            nxt = set()
            for u in frontier:
                for w in g.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
                        dist[s][w] = step
            frontier = nxt
    return dist


class TestBuildGraph:
    def test_path_construction(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_canonical_edge_order(self):
        g = build_graph(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            build_graph(3, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(2, [(0, 1), (1, 0)])

    def test_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_label_arity(self):
        with pytest.raises(ValueError, match="labels"):
            build_graph(2, [(0, 1)], labels=[(0,)])


class TestPredicates:
    def test_connected(self):
        assert is_connected(path_graph(3))
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(complete_graph(4))
        assert is_connected(build_graph(1, []))

    def test_tree(self):
        assert is_tree(path_graph(4))
        assert not is_tree(cycle_graph(4))
        assert is_tree(star_graph(4))

    def test_bipartite(self):
        assert is_bipartite(cycle_graph(4))
        assert not is_bipartite(cycle_graph(5))

    def test_petersen_not_bipartite_by_exhaustive_two_coloring(self):
        g = petersen_graph()
        found = False
        for bits in range(1 << (g.n - 1)):  # fix vertex 0's side
            side = [0] + [(bits >> i) & 1 for i in range(g.n - 1)]
            if all(side[u] != side[v] for u, v in g.edges):
                found = True
                break
        assert not found
        assert not is_bipartite(g)


class TestTraversal:
    def test_bfs_parents_visits_ascending_neighbors(self):
        g = build_graph(5, [(0, 3), (0, 1), (1, 2), (3, 4), (2, 4)])
        parents = bfs_parents(g, 0)
        assert list(parents.items()) == [(0, 0), (1, 0), (3, 0), (2, 1), (4, 3)]

    def test_bfs_parents_skips_removed(self):
        g = cycle_graph(5)
        assert list(bfs_parents(g, 0, frozenset({1}))) == [0, 4, 3, 2]
        assert list(bfs_parents(g, 2, frozenset({1, 3}))) == [2]

    def test_edge_components(self):
        edges = [(3, 4), (0, 1), (1, 5)]
        assert edge_components(7, edges) == [[0, 1, 5], [3, 4]]
        assert edge_components(3, []) == []

    def test_connected_components(self):
        g = build_graph(6, [(0, 4), (1, 2), (2, 5)])
        assert connected_components(g) == [[0, 4], [1, 2, 5], [3]]

    def test_connected_components_without_removed(self):
        g = path_graph(5)
        assert connected_components(g, frozenset({2})) == [[0, 1], [3, 4]]
        assert connected_components(g, frozenset({0, 4})) == [[1, 2, 3]]
        assert connected_components(g, frozenset(range(5))) == []
        star = star_graph(4)
        assert connected_components(star, frozenset({0})) == [[1], [2], [3]]

    @pytest.mark.parametrize(
        "g,expected",
        [
            (path_graph(4), True),
            (cycle_graph(5), False),
            (star_graph(5), True),
            (path_graph(2), False),
            (build_graph(5, [(0, 1), (1, 2), (3, 4)]), False),
            (complete_graph(4), False),
        ],
        ids=["path", "cycle", "star", "K2", "disconnected", "K4"],
    )
    def test_has_cut_vertex(self, g, expected):
        assert has_cut_vertex(g) is expected


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(complete_graph(4)).edges == ()

    def test_path3(self):
        assert complement(path_graph(3)).edges == ((0, 2),)

    def test_c5_self_complementary_shape(self):
        c = complement(cycle_graph(5))
        assert c.n == 5 and c.m == 5
        assert all(c.degree(v) == 2 for v in c.vertices())
        assert is_connected(c)

    def test_involution(self, corpus6):
        for g in corpus6[:40]:
            assert complement(complement(g)).edges == g.edges


class TestDistances:
    def test_examples(self):
        assert distance(path_graph(4), 0, 3) == 3
        assert distance(cycle_graph(6), 0, 3) == 3

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            distance(path_graph(3), 0, 7)

    def test_petersen_diameter_against_brute(self):
        g = petersen_graph()
        brute = brute_distances(g)
        assert max(max(row) for row in brute) == 2
        assert diameter(g) == 2
        for v in g.vertices():
            assert distances_from(g, v) == brute[v]

    def test_disconnected_diameter_infinite(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert diameter(g) == INFINITE

    def test_single_vertex(self):
        assert diameter(build_graph(1, [])) == 0


class TestMetrics:
    def test_petersen(self):
        m = metrics(petersen_graph())
        assert (m.vertex_connectivity, m.edge_connectivity) == (3, 3)
        assert (m.min_degree, m.max_degree, m.diameter) == (3, 3, 2)

    def test_p5(self):
        m = metrics(path_graph(5))
        assert (m.vertex_connectivity, m.edge_connectivity) == (1, 1)
        assert (m.min_degree, m.max_degree, m.diameter) == (1, 2, 4)

    def test_c4(self):
        m = metrics(cycle_graph(4))
        assert (m.vertex_connectivity, m.edge_connectivity) == (2, 2)
        assert (m.min_degree, m.max_degree, m.diameter) == (2, 2, 2)

    def test_complete_convention(self):
        for n in (2, 3, 5):
            m = metrics(complete_graph(n))
            assert m.vertex_connectivity == n - 1
            assert m.edge_connectivity == n - 1

    def test_connectivity_against_exhaustive_cuts(self, corpus6):
        for g in corpus6:
            assert vertex_connectivity(g) == min_vertex_cut_exhaustive(g)
            assert edge_connectivity(g) == min_edge_cut_exhaustive(g)

    def test_connectivity_oracle_n7_samples(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_connected_graph(7, rng.randint(6, 12), rng)
            assert vertex_connectivity(g) == min_vertex_cut_exhaustive(g)
            assert edge_connectivity(g) == min_edge_cut_exhaustive(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_whitney_chain_property(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
    m = metrics(g)
    if not m.is_complete:
        assert (
            m.vertex_connectivity <= m.edge_connectivity <= m.min_degree
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_distance_symmetry_and_triangle(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
    dist = [distances_from(g, v) for v in range(n)]
    for u, v, w in combinations(range(n), 3):
        assert dist[u][v] == dist[v][u]
        assert dist[u][w] <= dist[u][v] + dist[v][w]


def test_relabel_preserves_metrics():
    rng = random.Random(3)
    g = random_connected_graph(6, 9, rng)
    perm = [3, 5, 0, 1, 4, 2]
    h = relabel(g, perm)
    assert metrics(h) == metrics(g)


def test_metrics_tree_flag_implies_edge_count(corpus6):
    for g in corpus6:
        m = metrics(g)
        if m.is_tree:
            assert g.m == g.n - 1 and m.is_connected


@st.composite
def small_graphs(draw, max_n=8):
    """Any simple graph on 1..max_n vertices, connected or not."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


# Every minimum cut of this graph (kappa 3) contains its minimum-degree
# vertex 0, so only the flows between neighbours of 0 find one.
PIVOT_IN_EVERY_MIN_CUT = build_graph(
    8,
    [(0, 2), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
     (2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (4, 5), (4, 6), (5, 6), (5, 7)],
)


@settings(max_examples=80, deadline=None)
@given(small_graphs())
@example(PIVOT_IN_EVERY_MIN_CUT)
def test_connectivity_matches_exhaustive_oracles(g):
    # complements are where Thm1(a) asks its question, and they are dense
    for h in (g, complement(g)):
        kappa = min_vertex_cut_exhaustive(h)
        assert vertex_connectivity(h) == kappa
        thresholds = range(h.n + 1)
        assert [connectivity_at_least(h, k) for k in thresholds] == [
            kappa >= k for k in thresholds
        ]
        # the oracle tries every set of up to lambda <= delta edges; dense
        # 8-vertex graphs would take minutes
        if comb(h.m, min_degree(h)) <= 4000:
            assert edge_connectivity(h) == min_edge_cut_exhaustive(h)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_cached_connectivity(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert h is not g
    fresh = (vertex_connectivity(g), edge_connectivity(g))
    assert (g.vertex_connectivity, g.edge_connectivity) == fresh
    assert (h.vertex_connectivity, h.edge_connectivity) == fresh
    assert metrics(g) == metrics(g) == metrics(h)


TORUS_3333 = generate(NetworkSpec("torus", (3, 3, 3, 3)))


@pytest.fixture()
def flows(monkeypatch):
    """The (source, sink) of every max-flow run, counted through a wrapper."""
    calls = []
    real = graph_module._max_flow

    def counting(arcs, s, t, cap):
        calls.append((s, t))
        return real(arcs, s, t, cap)

    monkeypatch.setattr(graph_module, "_max_flow", counting)
    return calls


class TestFlowCounts:
    @pytest.mark.parametrize(
        "g,kappa", [(path_graph(200), 1), (cycle_graph(200), 2)], ids=["P200", "C200"]
    )
    def test_trees_and_cycles_in_n_flows(self, flows, g, kappa):
        assert vertex_connectivity(g) == kappa
        assert len(flows) <= g.n

    def test_torus_in_n_plus_delta_squared_flows(self, flows):
        assert vertex_connectivity(TORUS_3333) == 8
        assert len(flows) <= TORUS_3333.n + 8**2

    def test_theorem1a_threshold_in_4n_flows(self, flows):
        cert = theorem1_certificate(TORUS_3333)
        assert "a" in cert.conditions
        assert len(flows) <= 4 * TORUS_3333.n

    def test_metrics_then_bounds_run_the_flows_once(self, flows):
        g = generate(NetworkSpec("hypercube", (4,)))
        first = metrics(g)
        ran = len(flows)
        assert ran > 0
        assert mc_bounds_basic(g).upper == g.m - g.n + first.vertex_connectivity + 1
        assert metrics(g) == first
        assert len(flows) == ran
