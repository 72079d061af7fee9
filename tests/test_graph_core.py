import hashlib
import random
from collections import deque
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcgraph import graph as graph_module
from mcgraph import io as gio
from mcgraph import mc as mc_module
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
    Graph,
    bfs_parents,
    build_graph,
    complement,
    complement_connectivity_at_least,
    connected_components,
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
from mcgraph.mc import (
    EdgeColoring,
    check_mc_coloring,
    mc_bounds_basic,
    mc_bounds_combined,
    spanning_tree_coloring,
    theorem1_certificate,
)
from mcgraph.products import ProductKind, make_product
from mcgraph import smallgraphs
from mcgraph.smallgraphs import (
    connected_corpus,
    nonisomorphic_connected_graphs,
    random_connected_graph,
)
from mcgraph.treecover import mc_exact
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


def _two_cliques_joined(k, links):
    """Two copies of K_k, on 0..k-1 and k..2k-1, plus the ``links`` edges."""
    inside = list(combinations(range(k), 2))
    return build_graph(2 * k, inside + [(u + k, v + k) for u, v in inside] + links)


# Graphs whose kappa, lambda and delta differ where the floors meet them:
# three edges from one vertex of a K5 to another K5 (kappa 1 < lambda 3 <
# delta 4), two K4 joined by two disjoint edges (kappa = lambda = 2 < delta
# 3), and two triangles sharing a vertex (kappa 1 < lambda = delta = 2).
K5_THREE_EDGES_K5 = _two_cliques_joined(5, [(0, 5), (0, 6), (0, 7)])
K4_TWO_EDGES_K4 = _two_cliques_joined(4, [(0, 4), (1, 5)])
BOWTIE = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


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

    @pytest.mark.parametrize(
        "g,want",
        [
            (K5_THREE_EDGES_K5, (1, 3, 4)),
            (K4_TWO_EDGES_K4, (2, 2, 3)),
            (BOWTIE, (1, 2, 2)),
        ],
        ids=["K5-3-K5", "K4=K4", "bowtie"],
    )
    def test_named_graphs_against_exhaustive_cuts(self, g, want):
        assert (min_vertex_cut_exhaustive(g), min_edge_cut_exhaustive(g)) == want[:2]
        assert (vertex_connectivity(g), edge_connectivity(g), min_degree(g)) == want

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
    # lambda is floored at kappa by construction, so the chain is checked on
    # the values of the exhaustive oracles, which share no code with it
    kappa, lam = min_vertex_cut_exhaustive(g), min_edge_cut_exhaustive(g)
    assert (m.vertex_connectivity, m.edge_connectivity) == (kappa, lam)
    if not m.is_complete:
        assert kappa <= lam <= m.min_degree


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
@example(K5_THREE_EDGES_K5)
@example(K4_TWO_EDGES_K4)
@example(BOWTIE)
def test_connectivity_matches_exhaustive_oracles(g):
    # complements are where Thm1(a) asks its question, and they are dense
    for h in (g, complement(g)):
        kappa = min_vertex_cut_exhaustive(h)
        assert vertex_connectivity(h) == kappa
        # the oracle tries every set of up to lambda <= delta edges; dense
        # 8-vertex graphs would take minutes
        if comb(h.m, min_degree(h)) <= 4000:
            assert edge_connectivity(h) == min_edge_cut_exhaustive(h)
    assert [complement_connectivity_at_least(g, k) for k in range(g.n + 1)] == [
        vertex_connectivity(complement(g)) >= k for k in range(g.n + 1)
    ]


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_cached_connectivity(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert h is not g
    fresh = (len(connected_components(g)) == 1, vertex_connectivity(g), edge_connectivity(g))
    assert (g.connected, g.vertex_connectivity, g.edge_connectivity) == fresh
    assert (h.connected, h.vertex_connectivity, h.edge_connectivity) == fresh
    assert is_connected(g) is g.connected and is_connected(h) is h.connected
    assert metrics(g) == metrics(g) == metrics(h)


# References: the dict-of-dicts flow network that copied itself per flow, the
# n-search cut-vertex test, the union-find rooted on every vertex, the
# per-source diameter and the pair-set checker.  The kernel must agree with
# them exactly.


def reference_max_flow(arcs, s, t, cap):
    residual = {u: dict(out) for u, out in arcs.items()}
    flow = 0
    while flow < cap:
        prev = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for w, room in residual[u].items():
                if room > 0 and w not in prev:
                    prev[w] = u
                    queue.append(w)
        if t not in prev:
            break
        v = t
        while v != s:
            u = prev[v]
            residual[u][v] -= 1
            residual[v][u] = residual[v].get(u, 0) + 1
            v = u
        flow += 1
    return flow


def reference_split_network(g):
    arcs = {i: {} for i in range(2 * g.n)}
    for v in g.vertices():
        arcs[2 * v][2 * v + 1] = 1
    for u, v in g.edges:
        arcs[2 * u + 1][2 * v] = 1
        arcs[2 * v + 1][2 * u] = 1
    return arcs


def reference_edge_network(g):
    arcs = {v: {} for v in g.vertices()}
    for u, v in g.edges:
        arcs[u][v] = 1
        arcs[v][u] = 1
    return arcs


def reference_has_cut_vertex(g):
    if g.n <= 2 or not is_connected(g):
        return False
    return any(len(connected_components(g, (v,))) > 1 for v in g.vertices())


def reference_edge_components(n, edges):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    touched = set()
    for u, v in edges:
        touched.update((u, v))
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
    comps = {}
    for x in sorted(touched):
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def reference_diameter(g):
    if g.n <= 1:
        return 0
    worst = 0
    for v in g.vertices():
        far = max(distances_from(g, v))
        if far == INFINITE:
            return INFINITE
        worst = max(worst, far)
    return worst


def reference_check(g, coloring):
    served = set()
    for edges in coloring.color_classes():
        for comp in reference_edge_components(g.n, edges):
            served.update(combinations(comp, 2))
    for pair in combinations(range(g.n), 2):
        if pair not in served:
            return False, pair
    return True, None


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
# vertex 0 is the only cut vertex: only the root rule finds it
@example(build_graph(3, [(0, 1), (0, 2)]), random.Random(0))
@example(PIVOT_IN_EVERY_MIN_CUT, random.Random(1))
# thin graphs, where the two frontiers of the search alternate every level
@example(cycle_graph(8), random.Random(2))
@example(make_product(ProductKind.CARTESIAN, cycle_graph(6), path_graph(2)), random.Random(3))
# the diameter sweep's edge cases: no vertex, one vertex, an isolated vertex
# beside a component, and a complete graph (answered without a sweep)
@example(Graph(0, ()), random.Random(4))
@example(Graph(1, ()), random.Random(5))
@example(build_graph(5, [(0, 1), (1, 2), (2, 3)]), random.Random(6))
@example(complete_graph(5), random.Random(7))
def test_kernel_matches_references(g, rnd):
    for h in (g, complement(g)):
        caps = range(1, min_degree(h) + 2)
        pairs = list(permutations(h.vertices(), 2))
        for build, reference, node in (
            (graph_module._split_network, reference_split_network, lambda v, end: 2 * v + end),
            (graph_module._edge_network, reference_edge_network, lambda v, end: v),
        ):
            # one network serves every flow, as in a connectivity search
            net, arcs = build(h), reference(h)
            for (s, t), cap in ((p, c) for p in pairs for c in caps):
                a, b = node(s, 1), node(t, 0)
                assert graph_module._max_flow(net, a, b, cap) == reference_max_flow(
                    arcs, a, b, cap
                )
        assert has_cut_vertex(h) is reference_has_cut_vertex(h)
        assert diameter(h) == h.diameter == reference_diameter(h)
        assert edge_components(h.n, h.edges) == reference_edge_components(h.n, h.edges)
        if h.m:
            drawn = [rnd.randrange(rnd.randint(1, h.m)) for _ in range(h.m)]
            rank = {c: i for i, c in enumerate(sorted(set(drawn)))}
            coloring = EdgeColoring(h, tuple(rank[c] for c in drawn))
            for edges in coloring.color_classes():
                assert edge_components(h.n, edges) == reference_edge_components(h.n, edges)
            assert check_mc_coloring(h, coloring) == reference_check(h, coloring)


# Long thin graphs take as many sweep rounds as their diameter.  They stand
# apart from the kernel test above, whose flow check on the complement of a
# 60-vertex graph would run some 400,000 reference flows.
LONG_THIN = [path_graph(60), make_product(ProductKind.CARTESIAN, cycle_graph(30), path_graph(2))]


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=12), st.integers(1, 13))
@example(LONG_THIN[0], 7)
@example(LONG_THIN[1], 16)
@example(LONG_THIN[0], graph_module._SWEEP_WIDTH)
@example(LONG_THIN[1], graph_module._SWEEP_WIDTH)
@example(build_graph(4, [(1, 2)]), 1)  # the one-source block of vertex 0 is full at once
def test_diameter_sweep_matches_reference(g, width):
    # narrow blocks make small graphs take several, with a short last block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_SWEEP_WIDTH", width)
        assert diameter(g) == reference_diameter(g)


PRISM_300 = make_product(ProductKind.CARTESIAN, cycle_graph(300), path_graph(2))

# the nine network-families instances of the benchmark, Q10 and C1100
DIAMETER_PINS = [
    ("hypercube", (6,), 6),
    ("torus", (3, 3, 3, 3), 4),
    ("grid", (10, 10), 18),
    ("mesh", (4, 4, 4), 9),
    ("generalized_hypercube", (3, 3, 3), 3),
    ("hyper_petersen", (4,), 3),
    ("hl", (4,), 2),
    ("lex_torus", (3, 3), 1),
    ("lex_torus", (3, 3, 3, 3), 1),
    ("hypercube", (10,), 10),
    ("cycle", (1100,), 550),
]


@pytest.mark.parametrize("family, params, diam", DIAMETER_PINS)
def test_diameter_pins(family, params, diam):
    assert diameter(generate(NetworkSpec(family, params))) == diam


def test_prism_diameter_pin():
    # C300 x P2: half the cycle, plus the rung
    assert diameter(PRISM_300) == 151


TORUS_3333 = generate(NetworkSpec("torus", (3, 3, 3, 3)))


def record_flows(patch, entry):
    """Call ``entry(source, sink, cap)`` for every flow from now on, in
    network nodes (out-copy ``2x + 1``, in-copy ``2y``), as it is asked for:
    kappa's at ``_Joined.flow``, the one function every flow of its search
    goes through, seeded or not; lambda's at ``_max_flow``, which a kappa
    flow calls only for the paths its seeds miss."""
    inside = []
    kappa_flow, max_flow = graph_module._Joined.flow, graph_module._max_flow

    def recording_kappa(joined, x, y, cap):
        entry(2 * x + 1, 2 * y, cap)
        inside.append(x)
        try:
            return kappa_flow(joined, x, y, cap)
        finally:
            inside.pop()

    def recording_lambda(net, s, t, cap):
        if not inside:
            entry(s, t, cap)
        return max_flow(net, s, t, cap)

    patch.setattr(graph_module._Joined, "flow", recording_kappa)
    patch.setattr(graph_module, "_max_flow", recording_lambda)


@pytest.fixture()
def flows(monkeypatch):
    """The (source, sink) of every flow."""
    calls = []
    record_flows(monkeypatch, lambda s, t, cap: calls.append((s, t)))
    return calls


@pytest.fixture()
def flow_caps(monkeypatch):
    """The cap of every flow."""
    caps = []
    record_flows(monkeypatch, lambda s, t, cap: caps.append(cap))
    return caps


@pytest.fixture()
def augmenting_searches(monkeypatch):
    """The breadth-first searches of each ``_max_flow`` run: one per path
    found, and one more, failed, where the run ends below its cap."""
    counts = []
    real = graph_module._max_flow

    def counting(net, s, t, cap):
        found = real(net, s, t, cap)
        counts.append(found + (found < cap))
        return found

    monkeypatch.setattr(graph_module, "_max_flow", counting)
    return counts


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


Q6 = generate(NetworkSpec("hypercube", (6,)))
Q10 = generate(NetworkSpec("hypercube", (10,)))
HL4 = generate(NetworkSpec("hl", (4,)))
# Thm1(a) asks whether the complement is 4-connected.  For these dense
# graphs the complement's minimum degree (74 and 59) leaves that open.
# vertex_connectivity(complement(g)) >= 4 would run 480 flows on G150, and
# 2 and 4 flows capped at up to 59 on TWO_K60[3] and TWO_K60[5], where
# Thm1(a) needs only min(kappa, 4).
_RANDOM = random.Random(0)
G150 = build_graph(150, [e for e in combinations(range(150), 2) if _RANDOM.random() < 0.4])
TWO_K60 = {
    joins: complement(_two_cliques_joined(60, [(i, 60 + i) for i in range(joins)]))
    for joins in (3, 5)
}


class TestFlowPins:
    # The one home of the flow-count pins: kappa runs exactly these flows.
    # The pivot's fenced sinks are skipped (before the sink fence: torus 96,
    # Q6 72, hl(4) 39, Q10 1,058, prism 599) and so are its fenced neighbour
    # pairs (before the pair fence: 79, 41, 37 and 547 for the first four;
    # 22 of hl(4)'s 33 pairs are fenced).  No flow runs where the floor (no
    # cut vertex: 2) reaches delta.  lambda, floored at the cached kappa,
    # runs none where kappa = delta.
    @pytest.mark.parametrize(
        "g,kappa_flows,lambda_flows",
        [
            (TORUS_3333, 78, 0),
            (Q6, 40, 0),
            (HL4, 15, 0),
            (generate(NetworkSpec("grid", (10, 10))), 0, 0),
            (cycle_graph(200), 0, 0),
            (Q10, 546, 0),
            (PRISM_300, 300, 0),
            (cycle_graph(1100), 0, 0),
        ],
        ids=["torus3333", "Q6", "hl4", "grid10x10", "C200", "Q10", "prism300", "C1100"],
    )
    def test_same_flow_counts(self, flows, g, kappa_flows, lambda_flows):
        g = build_graph(g.n, g.edges)  # a fresh instance: nothing cached
        assert g.vertex_connectivity == min_degree(g)
        assert len(flows) == kappa_flows
        assert edge_connectivity(g) == min_degree(g)
        assert len(flows) == kappa_flows + lambda_flows

    @pytest.mark.parametrize("g", [TORUS_3333, Q6], ids=["torus3333", "Q6"])
    def test_theorem1a_on_sparse_graphs_runs_no_flow(self, flows, g):
        assert "a" in theorem1_certificate(g).conditions
        assert flows == []

    @pytest.mark.parametrize(
        "g,builds", [(TORUS_3333, 0), (Q6, 0), (HL4, 1)], ids=["torus3333", "Q6", "hl4"]
    )
    def test_theorem1a_builds_the_complement_only_for_flows(
        self, monkeypatch, g, builds
    ):
        # built only where the degree tests leave the answer open; on hl(4)
        # the built complement is disconnected, so no flow follows the build
        calls = []
        real = graph_module.complement
        monkeypatch.setattr(
            graph_module, "complement", lambda h: calls.append(h) or real(h)
        )
        assert ("a" in theorem1_certificate(g).conditions) == (builds == 0)
        assert len(calls) == builds

    @pytest.mark.parametrize(
        "g,thm1a_networks",
        [(G150, 0), (TWO_K60[5], 0), (TWO_K60[3], 1)],
        ids=["G150", "two-K60-5-joins", "two-K60-3-joins"],
    )
    def test_theorem1a_builds_a_flow_network_only_for_searches(
        self, monkeypatch, g, thm1a_networks
    ):
        # G150's sinks and pairs are all fenced, so it runs no flow; the 3
        # flows on TWO_K60[5] end in their seeds; on TWO_K60[3] the seeds of
        # one flow fall short
        calls = []
        real = graph_module._split_network
        monkeypatch.setattr(
            graph_module, "_split_network", lambda h: calls.append(h) or real(h)
        )
        theorem1_certificate(g)
        assert len(calls) == thm1a_networks

    # The augmenting searches of kappa's flows, each the paths its seeds
    # miss, plus one failed search where a flow ends below its cap.  Before
    # the joins and seeds every flow searched from nothing: 624, 240, 195,
    # 5,460 and 900.
    @pytest.mark.parametrize(
        "g,searches",
        [
            (TORUS_3333, 72),
            (Q6, 36),
            (HL4, 0),
            (Q10, 586),
            (PRISM_300, 298),
        ],
        ids=["torus3333", "Q6", "hl4", "Q10", "prism300"],
    )
    def test_augmenting_searches(self, augmenting_searches, g, searches):
        assert vertex_connectivity(g) == min_degree(g)
        assert sum(augmenting_searches) == searches

    def test_theorem1a_threshold_in_4n_flows_on_hl4(self, flows):
        # the complement has delta 6 < (20 + 2) / 2, so it is built, but it
        # is two disjoint Petersen complements: disconnected, kappa 0, and
        # the connectivity check answers before any flow
        assert "a" not in theorem1_certificate(HL4).conditions
        assert flows == []

    def test_theorem1a_caps_its_flows_at_4_on_seven_vertices(self, flow_caps, classes7):
        # the minimum degree settles every class but P7 and C7, whose
        # complements have delta 4 and are 4-connected
        held = [g for g in classes7 if "a" in theorem1_certificate(g).conditions]
        assert len(held) == 2
        assert len(flow_caps) == 4 and max(flow_caps) <= 4

    @pytest.mark.parametrize(
        "g,holds,thm1a_flows",
        [(G150, True, 0), (TWO_K60[5], True, 3), (TWO_K60[3], False, 2)],
        ids=["G150", "two-K60-5-joins", "two-K60-3-joins"],
    )
    def test_theorem1a_caps_its_flows_at_4_on_dense_graphs(
        self, flow_caps, g, holds, thm1a_flows
    ):
        assert ("a" in theorem1_certificate(g).conditions) == holds
        assert len(flow_caps) == thm1a_flows and all(c <= 4 for c in flow_caps)

    def test_degree_threshold_is_tight(self, flows):
        # the prism, the complement of C6: n = 6, delta = kappa = 3
        assert complement_connectivity_at_least(cycle_graph(6), 2) and flows == []
        assert complement_connectivity_at_least(cycle_graph(6), 3) and flows != []

    def test_diameter_computed_once_for_metrics_and_theorem1(self, monkeypatch):
        calls = []
        real = graph_module.diameter
        monkeypatch.setattr(
            graph_module, "diameter", lambda g: calls.append(g) or real(g)
        )
        g = generate(NetworkSpec("grid", (3, 2)))
        assert metrics(g).diameter == 3
        assert "d" in theorem1_certificate(g).conditions
        assert len(calls) == 1

    def test_one_connectivity_search_per_graph(self, monkeypatch, connectedness_searches):
        p = make_product(ProductKind.CARTESIAN, path_graph(3), cycle_graph(3))
        searches = []
        real = graph_module.bfs_parents

        def counting(g, source, removed=frozenset()):
            if g is p:
                searches.append(source)
            return real(g, source, removed)

        monkeypatch.setattr(graph_module, "bfs_parents", counting)
        monkeypatch.setattr(mc_module, "bfs_parents", counting)
        assert metrics(p).is_connected
        assert mc_bounds_combined(p).lower <= mc_exact(p).value
        theorem1_certificate(p)
        spanning_tree_coloring(p)
        assert gio.graph_to_obj(p)["connected"] is True
        assert sum(g is p for g in connectedness_searches) == 1
        # the factors and any complement built on the way: once each too
        assert len({id(g) for g in connectedness_searches}) == len(connectedness_searches)
        # every search of p from vertex 0: connectedness, metrics'
        # bipartiteness, mc_exact's distances and the spanning trees of
        # spanning_tree_coloring and mc_exact (14 when each caller searched
        # for connectedness itself)
        assert searches.count(0) == 5


def separated(g, v, u, cut):
    """Whether removing ``cut`` leaves no path from ``v`` to ``u``."""
    seen, todo = {v}, [v]
    while todo:
        for w in g.adjacency[todo.pop()]:
            if w not in seen and w not in cut:
                seen.add(w)
                todo.append(w)
    return u not in seen


def local_connectivity(g, v, u):
    """kappa(v, u) of non-adjacent ``v`` and ``u``: by brute force over vertex
    subsets up to 9 vertices, by the reference flow (Menger) above that."""
    if g.n > 9:
        return reference_max_flow(reference_split_network(g), 2 * v + 1, 2 * u, g.n)
    others = [w for w in g.vertices() if w not in (v, u)]
    return next(
        size
        for size in range(len(others) + 1)
        for cut in combinations(others, size)
        if separated(g, v, u, set(cut))
    )


def record_skips(patch):
    """(graph, pivot, sink, best) of every sink the sweep finds fenced, with
    the best cut at the moment it skips the flow, from now on."""
    found = []

    class Recording(graph_module._Sweep):
        def __iter__(self):
            for u, fenced in super().__iter__():
                if fenced:
                    found.append((self.g, self.v, u, self.best))
                yield u, fenced

    patch.setattr(graph_module, "_Sweep", Recording)
    return found


MESH_333 = generate(NetworkSpec("mesh", (3, 3, 3)))
# the pivot 0 skips sink 7 at best 4, the flow to sink 1 finds 3, and sink
# 5 is then fenced at 3
FENCE_THEN_FALL = build_graph(
    8,
    [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5),
     (2, 6), (2, 7), (3, 4), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (6, 7)],
)
# the flow from the pivot 1 to sink 0 finds 3 < delta = 4, and only the
# rescan at 3 finds sinks 7 and 4 fenced: no more sink needs a flow
FALL_THEN_FENCE = build_graph(
    8,
    [(0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3),
     (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 7), (4, 7), (5, 6), (6, 7)],
)

# the pivot 0 has five neighbours in a K12 on 1..12; a triangle on 13..15
# hangs off its neighbours 1, 2, 3 and a K4 on 16..19 off 6..9.  The flow
# into the K4 lowers best to 4, and the triangle, fenced by three vertices
# only, still needs its flow, which finds kappa = 3.
TWO_POCKETS = build_graph(
    20,
    [(0, x) for x in range(1, 6)]
    + list(combinations(range(1, 13), 2))
    + list(combinations(range(13, 16), 2))
    + [(c, x) for c in range(13, 16) for x in (1, 2, 3)]
    + list(combinations(range(16, 20), 2))
    + [(d, x) for d in range(16, 20) for x in (6, 7, 8, 9)],
)


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=9))
@example(MESH_333)
@example(LONG_THIN[1])  # the prism C30 x P2
@example(FENCE_THEN_FALL)
@example(FALL_THEN_FENCE)
@example(TWO_POCKETS)
def test_fenced_sinks_need_no_flow(g):
    # complements only where the brute force stays cheap
    hosts = (g, complement(g)) if g.n <= 9 else (g,)
    with pytest.MonkeyPatch.context() as patch:
        found = record_skips(patch)
        for h in hosts:
            kappa = min_vertex_cut_exhaustive(h)
            assert vertex_connectivity(h) == kappa
            for k in range(1, min(min_degree(h) + 2, h.n)):
                # the search capped at k, as Thm1(a) runs it
                assert graph_module._connectivity(h, k) == min(kappa, k)
    for h, v, u, best in found:
        assert local_connectivity(h, v, u) >= best, (v, u)


@pytest.mark.parametrize(
    "g,pivot_flows,fenced",
    [
        (FENCE_THEN_FALL, [(1, 2)], [(0, 7, 4), (0, 5, 3)]),
        (FALL_THEN_FENCE, [(3, 0)], [(1, 7, 3), (1, 4, 3)]),
    ],
    ids=["fence-then-fall", "fall-then-fence"],
)
def test_skips_around_a_fall(monkeypatch, flows, g, pivot_flows, fenced):
    skips = record_skips(monkeypatch)
    assert vertex_connectivity(g) == 3 < min_degree(g)
    # network nodes: the pivot's out-copy 2v + 1, each sink's in-copy 2u
    pivot = fenced[0][0]
    assert [(s, t) for s, t in flows if s == 2 * pivot + 1] == pivot_flows
    assert [(v, u, best) for _, v, u, best in skips] == fenced


def pair_skips(g):
    """kappa of ``g``, and (x, y, best) for every non-adjacent pair of the
    pivot's neighbours that runs no flow, fenced or passed once the floor is
    met, with the best cut at that moment.  best changes only by a flow, so
    it is the cap of the next pair flow, or kappa after the last one."""
    caps = {}
    with pytest.MonkeyPatch.context() as patch:
        record_flows(patch, lambda s, t, cap: caps.__setitem__((s // 2, t // 2), cap))
        kappa = vertex_connectivity(g)
    pivot = min(g.vertices(), key=g.degree)
    skips, passed = [], []
    for x, y in combinations(g.neighbors[pivot], 2):
        if (x, y) in caps:
            skips += [(a, b, caps[x, y]) for a, b in passed]
            passed = []
        elif not g.has_edge(x, y):
            passed.append((x, y))
    return kappa, skips + [(a, b, kappa) for a, b in passed]


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=9))
@example(PIVOT_IN_EVERY_MIN_CUT)
@example(HL4)
def test_fenced_pairs_need_no_flow(g):
    # complements only where the brute force stays cheap
    for h in (g, complement(g)) if g.n <= 9 else (g,):
        kappa, skips = pair_skips(h)
        assert kappa == (min_vertex_cut_exhaustive(h) if h.n <= 9 else min_degree(h))
        for x, y, best in skips:
            assert local_connectivity(h, x, y) >= best, (x, y)


@pytest.mark.parametrize(
    "g,pair_flows,fenced",
    [
        # the flow between the pivot's neighbours 2 and 4 finds kappa = 3,
        # and the pairs (2, 6), (4, 7) and (6, 7) are then fenced at 3
        (PIVOT_IN_EVERY_MIN_CUT, 1, [3] * 3),
        # 22 of its 33 pairs are fenced at delta = kappa = 13
        (HL4, 11, [13] * 22),
    ],
    ids=["pivot-in-every-min-cut", "hl4"],
)
def test_pair_fence_skips(flows, g, pair_flows, fenced):
    _, skips = pair_skips(g)
    pivot = min(g.vertices(), key=g.degree)
    # network nodes: the pivot's out-copy 2v + 1 starts every sink's flow
    assert sum(s != 2 * pivot + 1 for s, _ in flows) == pair_flows
    assert [best for *_, best in skips] == fenced


@st.composite
def thin_cut_graphs(draw):
    """Connected graphs on 10..16 vertices with kappa < delta: two sides
    that share no edge, joined through 1..3 separator vertices, each pair
    elsewhere an edge with probability 3/4, relabelled at random so that
    the pivot falls anywhere."""
    n = draw(st.integers(10, 16))
    cut = draw(st.integers(1, 3))
    split = draw(st.integers(cut + 3, n - 3))
    pairs = [(x, y) for x, y in combinations(range(n), 2) if x < cut or y < split or x >= split]
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    g = build_graph(n, [(perm[x], perm[y]) for (x, y), k in zip(pairs, keep) if k])
    assume(is_connected(g) and reference_connectivity(g) < min_degree(g))
    return g


def reference_connectivity(g):
    """kappa of a non-complete graph: the least flow over its non-adjacent
    pairs, each on the plain split network, with no join and no seed."""
    arcs = reference_split_network(g)
    return min(
        reference_max_flow(arcs, 2 * a + 1, 2 * c, g.n)
        for a, c in combinations(g.vertices(), 2)
        if not g.has_edge(a, c)
    )


# kappa 2 < delta 3: a search that left each flow's seeds pushed in its
# network, where the next flow meets them, finds 3
STALE_SEEDS = build_graph(
    10,
    [(0, 2), (0, 6), (0, 7), (0, 9), (1, 2), (1, 3), (1, 8), (2, 3), (2, 4), (2, 8),
     (2, 9), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8), (5, 9), (6, 9), (7, 9)],
)


@settings(max_examples=80, deadline=None)
@given(thin_cut_graphs())
@example(STALE_SEEDS)
@example(FENCE_THEN_FALL)
@example(FALL_THEN_FENCE)
@example(TWO_POCKETS)
@example(LONG_THIN[1])  # the prism C30 x P2, kappa = delta = 3
def test_joins_where_the_best_cut_falls(g):
    # each join is made at the best cut of its moment, and later flows run
    # at caps as low as the final kappa
    kappa = reference_connectivity(g)
    assert vertex_connectivity(g) == kappa
    for k in range(1, min_degree(g) + 2):
        assert graph_module._connectivity(g, k) == min(kappa, k)


def reference_connected_graphs(n, max_edges=None):
    """The mask-by-mask sweep, the differential reference for
    ``nonisomorphic_connected_graphs``: visit every mask, skip it if seen,
    out of range or disconnected, else keep it and mark its orbit."""
    if n < 1:
        return []
    if n == 1:
        return [Graph(1, ())]
    pairs = list(combinations(range(n), 2))
    num_pairs = len(pairs)
    pair_pos = {p: i for i, p in enumerate(pairs)}
    images = [
        [pair_pos[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        for perm in permutations(range(n))
    ]
    seen = bytearray(1 << num_pairs)
    canon = []
    for mask in range(1 << num_pairs):
        if seen[mask]:
            continue
        size = mask.bit_count()
        if size < n - 1 or (max_edges is not None and size > max_edges):
            continue
        edges = tuple(pairs[i] for i in range(num_pairs) if mask >> i & 1)
        if not is_connected(Graph(n, edges)):
            continue
        canon.append(mask)
        bits = [i for i in range(num_pairs) if mask >> i & 1]
        for target in images:
            seen[sum(1 << target[i] for i in bits)] = 1
    canon.sort(key=lambda m: (m.bit_count(), m))
    return [
        Graph(n, tuple(pairs[i] for i in range(num_pairs) if mask >> i & 1))
        for mask in canon
    ]


# sha256 of the edge lists of the 853 connected classes on 7 vertices, one
# str(g.edges) a line in the generator's order, recorded with the mask-by-mask
# sweep that ``reference_connected_graphs`` keeps
CORPUS7_DIGEST = "44b54263ead6d86f84e736af184dde7de8f58775670babc12112eccb98b41e17"


@pytest.fixture(scope="module")
def classes7():
    return nonisomorphic_connected_graphs(7)


class TestConnectedCorpus:
    def test_class_counts(self, classes7):
        # connected graphs on n vertices up to isomorphism (OEIS A001349)
        counts = [len(nonisomorphic_connected_graphs(n)) for n in range(1, 7)]
        assert counts + [len(classes7)] == [1, 1, 2, 6, 21, 112, 853]

    def test_seven_vertex_classes_pinned(self, classes7):
        lines = "\n".join(str(g.edges) for g in classes7)
        assert hashlib.sha256(lines.encode()).hexdigest() == CORPUS7_DIGEST

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sweep_matches_reference(self, n):
        for max_edges in [None, *range(n - 2, comb(n, 2) + 1)]:
            assert nonisomorphic_connected_graphs(
                n, max_edges
            ) == reference_connected_graphs(n, max_edges), max_edges

    def test_more_than_seven_vertices_is_refused_before_any_work(self, monkeypatch):
        # n = 8 would need a 2^28-byte table of edge counts, n = 9 a 64 GiB
        # one: the size is refused before the pairs, the edge counts, the
        # permutation rows or the seen table are built
        def never(*args):
            pytest.fail("the enumeration started")

        monkeypatch.setattr(smallgraphs, "combinations", never)
        monkeypatch.setattr(smallgraphs, "permutations", never)
        monkeypatch.setattr(smallgraphs, "_edge_counts", never)
        monkeypatch.setattr(smallgraphs, "itemgetter", never)
        monkeypatch.setattr(smallgraphs, "bytearray", never, raising=False)
        monkeypatch.setattr(smallgraphs, "bytes", never, raising=False)
        for call in (nonisomorphic_connected_graphs, connected_corpus):
            for n in (8, 9):
                with pytest.raises(ValueError, match=f"stops at 7 vertices, got {n}"):
                    call(n)

    def test_each_graph_is_its_class_minimum(self, corpus6):
        def mask(n, edges):
            pos = {p: i for i, p in enumerate(combinations(range(n), 2))}
            return sum(1 << pos[e] for e in edges)

        keys = []
        for g in corpus6:
            assert is_connected(g) and g.m <= 10
            own = mask(g.n, g.edges)
            images = (
                mask(g.n, [tuple(sorted((p[u], p[v]))) for u, v in g.edges])
                for p in permutations(range(g.n))
            )
            assert own == min(images)
            keys.append((g.n, g.m, own))
        assert keys == sorted(set(keys)) and len(keys) == 124
