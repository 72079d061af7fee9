"""Simple undirected graphs and the structural metrics everything else consumes.

Vertices are dense integers ``0..n-1``.  Edges are stored canonically with the
smaller endpoint first and the edge tuple sorted, so two graphs are equal iff
their serialized forms are byte-identical.  ``Graph`` instances are immutable;
all operations here are pure functions, safe for concurrent readers.

Every traversal of a ``Graph`` in the package goes through two primitives:

* :func:`bfs_parents` -- breadth-first search tree from one source, visiting
  neighbours in ascending order (``Graph.neighbors``), optionally around a
  set of removed vertices.  Distances, connectivity, components, bipartiteness,
  cut vertices and the spanning trees of the colorings and the exact solver
  are all read off it.
* :func:`edge_components` -- the one union-find, grouping the vertices touched
  by an edge subset (a color class, a cover tree).

Three searches stay separate on purpose: ``_max_flow`` walks a residual arc
map rather than the graph; the bitmask searches in
``exact._TreeCoverSolver._max_subset_edges_table`` and
``smallgraphs._mask_connected`` run over up to 2^21 vertex or edge masks
inside search and corpus set-up, where building a ``Graph`` per mask would
dominate; and the exhaustive-cut oracles in ``verification`` are kept
independent of the code they check.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

INFINITE = math.inf


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph with optional per-vertex labels.

    ``labels``, when present, carries one integer tuple per vertex (product
    coordinates for graphs built as products).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, ...], ...] | None = None

    @property
    def n(self) -> int:
        return self.vertex_count

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbour tuples: the visit order of every traversal."""
        return tuple(tuple(sorted(s)) for s in self.adjacency)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_index or (v, u) in self.edge_index

    def vertices(self) -> range:
        return range(self.vertex_count)


@dataclass(frozen=True)
class GraphMetrics:
    """Bundle of the base metrics: degrees, diameter, connectivities, flags."""

    min_degree: int
    max_degree: int
    diameter: int | float
    vertex_connectivity: int
    edge_connectivity: int
    is_connected: bool
    is_tree: bool
    is_bipartite: bool
    is_complete: bool


def build_graph(
    vertex_count: int,
    edge_list,
    labels=None,
) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Rejects loops, duplicate edges and out-of-range endpoints, naming the
    offending pair in the error message.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(
                f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
            )
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        canon.append(e)
    canon.sort()
    canon_labels = None
    if labels is not None:
        canon_labels = tuple(tuple(lab) for lab in labels)
        if len(canon_labels) != vertex_count:
            raise ValueError(
                f"expected {vertex_count} labels, got {len(canon_labels)}"
            )
        if len(set(canon_labels)) != len(canon_labels):
            raise ValueError("labels must be distinct")
    return Graph(vertex_count, tuple(canon), canon_labels)


def bfs_parents(
    g: Graph, source: int, removed: Collection[int] = frozenset()
) -> dict[int, int]:
    """Breadth-first search tree from ``source``, never entering ``removed``.

    Returns ``{vertex: parent}`` in visit order, with the source mapped to
    itself; the keys are exactly the vertices reachable from ``source``.
    """
    parent = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors[u]:
            if w not in parent and w not in removed:
                parent[w] = u
                queue.append(w)
    return parent


def edge_components(n: int, edges) -> list[list[int]]:
    """Components of the subgraph formed by ``edges`` on vertices ``0..n-1``.

    Only components with at least one edge are returned, each as an ascending
    vertex list, ordered by smallest vertex.
    """
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    touched: set[int] = set()
    for u, v in edges:
        touched.update((u, v))
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
    comps: dict[int, list[int]] = {}
    for x in sorted(touched):
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def distances_from(g: Graph, source: int) -> list[int | float]:
    """Breadth-first distances from ``source``; unreachable vertices get inf."""
    if not 0 <= source < g.n:
        raise ValueError(f"invalid vertex id {source}")
    dist: list[int | float] = [INFINITE] * g.n
    for v, p in bfs_parents(g, source).items():
        dist[v] = dist[p] + 1 if v != source else 0
    return dist


def distance(g: Graph, u: int, v: int) -> int | float:
    """Shortest-path edge count between ``u`` and ``v``; inf when separated."""
    if not 0 <= v < g.n:
        raise ValueError(f"invalid vertex id {v}")
    return distances_from(g, u)[v]


def all_pairs_distances(g: Graph) -> list[list[int | float]]:
    return [distances_from(g, v) for v in g.vertices()]


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single component (vacuously for n <= 1)."""
    return g.n <= 1 or len(bfs_parents(g, 0)) == g.n


def connected_components(
    g: Graph, removed: Collection[int] = frozenset()
) -> list[list[int]]:
    """Ascending vertex lists of the components of ``g`` minus ``removed``."""
    comps: list[list[int]] = []
    seen = set(removed)
    for s in g.vertices():
        if s not in seen:
            comp = sorted(bfs_parents(g, s, removed))
            seen.update(comp)
            comps.append(comp)
    return comps


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_bipartite(g: Graph) -> bool:
    """2-colorability test: no edge joins two vertices of equal BFS depth parity."""
    side: dict[int, int] = {}
    for s in g.vertices():
        if s not in side:
            for v, p in bfs_parents(g, s).items():
                side[v] = 1 - side[p] if v != s else 0
    return all(side[u] != side[v] for u, v in g.edges)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are exactly the non-edges."""
    present = set(g.edges)
    edges = [
        (u, v) for u, v in combinations(range(g.n), 2) if (u, v) not in present
    ]
    return Graph(g.n, tuple(edges), g.labels)


def diameter(g: Graph) -> int | float:
    """Maximum pairwise distance; inf when disconnected, 0 for n <= 1."""
    if g.n <= 1:
        return 0
    worst: int | float = 0
    for v in g.vertices():
        far = max(distances_from(g, v))
        if far == INFINITE:
            return INFINITE
        worst = max(worst, far)
    return worst


def has_cut_vertex(g: Graph) -> bool:
    """True iff removing some single vertex disconnects the graph."""
    if g.n <= 2 or not is_connected(g):
        return False
    return any(len(connected_components(g, (v,))) > 1 for v in g.vertices())


# Menger-style connectivity via unit-capacity augmenting-path max-flow.
# Exhaustive cut enumeration is kept in the test suite as an oracle only.


def _max_flow(arcs: dict[int, dict[int, int]], s: int, t: int) -> int:
    """Max flow on a small unit-capacity digraph by BFS augmentation."""
    flow = 0
    while True:
        prev: dict[int, int] = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for w, cap in arcs[u].items():
                if cap > 0 and w not in prev:
                    prev[w] = u
                    queue.append(w)
        if t not in prev:
            return flow
        v = t
        while v != s:
            u = prev[v]
            arcs[u][v] -= 1
            arcs[v][u] = arcs[v].get(u, 0) + 1
            v = u
        flow += 1


def _vertex_disjoint_paths(g: Graph, s: int, t: int) -> int:
    # Split each vertex v into v_in = 2v and v_out = 2v + 1.
    arcs: dict[int, dict[int, int]] = {i: {} for i in range(2 * g.n)}
    for v in g.vertices():
        arcs[2 * v][2 * v + 1] = 1
    for u, v in g.edges:
        arcs[2 * u + 1][2 * v] = arcs[2 * u + 1].get(2 * v, 0) + 1
        arcs[2 * v + 1][2 * u] = arcs[2 * v + 1].get(2 * u, 0) + 1
    return _max_flow(arcs, 2 * s + 1, 2 * t)


def _edge_disjoint_paths(g: Graph, s: int, t: int) -> int:
    arcs: dict[int, dict[int, int]] = {v: {} for v in g.vertices()}
    for u, v in g.edges:
        arcs[u][v] = arcs[u].get(v, 0) + 1
        arcs[v][u] = arcs[v].get(u, 0) + 1
    return _max_flow(arcs, s, t)


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity, with the convention kappa(K_n) = n - 1."""
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if is_complete(g):
        return g.n - 1
    best = g.n - 1
    for u, v in combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            best = min(best, _vertex_disjoint_paths(g, u, v))
            if best == 0:
                break
    return best


def edge_connectivity(g: Graph) -> int:
    """Edge connectivity via edge-disjoint path counting from a fixed root."""
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    # Some minimum edge cut separates vertex 0 from something, so fixing the
    # source is enough.
    return min(_edge_disjoint_paths(g, 0, t) for t in range(1, g.n))


def metrics(g: Graph) -> GraphMetrics:
    """Compute the full metric bundle for a graph."""
    degs = [g.degree(v) for v in g.vertices()] or [0]
    return GraphMetrics(
        min_degree=min(degs),
        max_degree=max(degs),
        diameter=diameter(g),
        vertex_connectivity=vertex_connectivity(g),
        edge_connectivity=edge_connectivity(g),
        is_connected=is_connected(g),
        is_tree=is_tree(g),
        is_bipartite=is_bipartite(g),
        is_complete=is_complete(g),
    )


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply a vertex permutation (``perm[v]`` is the new name of ``v``)."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of the vertices")
    edges = []
    for u, v in g.edges:
        a, b = perm[u], perm[v]
        edges.append((a, b) if a < b else (b, a))
    labels = None
    if g.labels is not None:
        new_labels = [None] * g.n
        for v, lab in enumerate(g.labels):
            new_labels[perm[v]] = lab
        labels = tuple(new_labels)
    return Graph(g.n, tuple(sorted(edges)), labels)
