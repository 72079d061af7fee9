"""Simple undirected graphs and the structural metrics everything else consumes.

Vertices are dense integers ``0..n-1``.  Edges are stored canonically with the
smaller endpoint first and the edge tuple sorted, so two graphs are equal iff
their serialized forms are byte-identical.  ``Graph`` instances are immutable;
all operations here are pure functions, safe for concurrent readers.  Derived
data (adjacency, sorted neighbours, connectedness, diameter, vertex and edge
connectivity) is computed on first use and cached on the instance, so every
caller shares one search for connectedness per graph.

Every traversal of a ``Graph`` in the package goes through two primitives:

* :func:`bfs_parents` -- breadth-first search tree from one source, visiting
  neighbours in ascending order (``Graph.neighbors``), optionally around a
  set of removed vertices.  Distances, connectivity, components, bipartiteness
  and the spanning trees of the colorings and the exact solver are all read
  off it.
* :func:`edge_components` -- the one union-find, grouping the vertices touched
  by an edge subset (a color class of two or more edges, a cover tree).  It
  roots only the vertices it touches, so a small class costs what its edges
  cost, not O(n).  Every edge serves its own pair, so only the shared
  classes use the union-find: ``mc.check_mc_coloring`` calls it once per
  color of two or more edges, and never on a complete host.

Vertex and edge connectivity are unit-capacity max flows (Menger), run
sparingly: from a minimum-degree pivot only (Esfahanian and Hakimi,
*Networks* 14(2), 1984), each capped at the best cut found so far, and
none once the best cut meets a floor that facts already known prove.  Each
pair the search has proven joins its graph as an edge (as in Even's test,
1975), so one rule fences pairs: none runs a flow whose ends have as many
common neighbours in the joined graph as the best cut.  Each flow starts
from the short disjoint paths it finds there and searches only for the
rest; the network is built at the first flow that needs it.  kappa is 1
when the graph has a cut vertex, else at least 2 and at least 2 delta - n +
2 (Chartrand and Harary, 1968); lambda is at least kappa by Whitney's chain
kappa <= lambda <= delta (*Amer. J. Math.* 54, 1932).  A floor that reaches
delta is the answer, with no flow at all.  For the
question "is kappa >= k?" the minimum degree may force the answer, else the
same search runs with every flow capped at k.  Each augmenting path comes
from a breadth-first search run from both ends of the flow (Pohl, 1971).
The comment above ``_max_flow`` gives the arguments.

Three searches stay separate on purpose:

* ``_max_flow`` walks residual arc arrays, not the graph: a list of arc ids
  per node, a ``head`` list and a ``room`` list, with arc ``a ^ 1`` the
  reverse of arc ``a``.  It searches forward from the source and backward
  from the sink, level by level, with one mark list for both trees.  It
  undoes only the arcs it pushed, so one network serves every flow of a
  search without a copy per flow; a kappa flow pushes its seeds before the
  call and undoes them after.
* :func:`has_cut_vertex` is one depth-first lowpoint search (Hopcroft and
  Tarjan), which a breadth-first tree cannot replace; it keeps its own stack,
  so deep graphs meet no recursion limit.
* :func:`diameter` sweeps all sources at once, a block of them at a time:
  each vertex keeps a bit mask of the block's sources within distance k,
  and one round ORs each mask with its neighbours' masks.  The rounds
  until every mask is full are the block's largest distance, so a hypercube
  takes as many rounds as its dimension, not one search per source.

The bitmask searches in ``naive``, ``treecover`` and ``smallgraphs``, and
the symmetry backtrack in ``treecover``, also stay separate; those modules
document them.

Each search of a graph, each round of the diameter sweep and the order of a
pivot's flows (``_Sweep``) cost O(n + m) operations, so a large sparse graph
costs what its edges cost.  The exhaustive-cut oracles in ``verification``
are kept independent of all of this code.
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

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, ...], ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
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

    @cached_property
    def connected(self) -> bool:
        """Whether the graph has a single component, found once per graph by
        one breadth-first search (vacuously true for n <= 1).  Two counts of
        the edges need no search: fewer than n - 1 cannot connect n vertices,
        so a sparse graph with many declared vertices stays cheap, and all
        n(n - 1)/2 make the graph complete, so a dense one builds no
        adjacency just to learn it is connected."""
        n, m = self.n, len(self.edges)
        if n <= 1 or m == n * (n - 1) // 2:
            return True
        return m >= n - 1 and len(bfs_parents(self, 0)) == n

    @cached_property
    def diameter(self) -> int | float:
        """The diameter, computed once per graph by :func:`diameter`."""
        return diameter(self)

    @cached_property
    def vertex_connectivity(self) -> int:
        """kappa, computed once per graph by :func:`vertex_connectivity`."""
        return vertex_connectivity(self)

    @cached_property
    def edge_connectivity(self) -> int:
        """lambda, computed once per graph by :func:`edge_connectivity`."""
        return edge_connectivity(self)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_index or (v, u) in self.edge_index

    def vertices(self) -> range:
        return range(self.n)


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


def build_graph(n: int, edge_list, labels=None) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Rejects loops, duplicate edges and out-of-range endpoints, naming the
    offending pair in the error message.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        canon.append(e)
    canon.sort()
    canon_labels = None
    if labels is not None:
        canon_labels = tuple(tuple(lab) for lab in labels)
        if len(canon_labels) != n:
            raise ValueError(f"expected {n} labels, got {len(canon_labels)}")
        if len(set(canon_labels)) != len(canon_labels):
            raise ValueError("labels must be distinct")
    return Graph(n, tuple(canon), canon_labels)


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
    root: dict[int, int] = {}

    def find(x: int) -> int:
        root.setdefault(x, x)
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
    comps: dict[int, list[int]] = {}
    for x in sorted(root):
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
    """True iff the graph has a single component: ``g.connected``, searched
    for once per graph."""
    return g.connected


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


# Sources per diameter sweep: the reach masks take O(n * _SWEEP_WIDTH) bits,
# and a graph of up to this many vertices is swept in one block.
_SWEEP_WIDTH = 4096


def diameter(g: Graph) -> int | float:
    """Maximum pairwise distance; inf when disconnected, 0 for n <= 1.

    One bit-parallel sweep from all sources at once, a block of up to
    ``_SWEEP_WIDTH`` sources at a time; a complete graph needs none.  Each
    vertex keeps a reach mask, the block's sources in its ball of radius k,
    and each round ORs every ball that misses a source with its neighbours'
    balls, giving the balls of radius k + 1.  The block's largest distance
    is the round in which the last ball fills; a round that adds nothing
    while a ball misses a source means the graph is disconnected.  Computes
    afresh; ``g.diameter`` holds the value computed once.
    """
    n = g.n
    if n <= 1:
        return 0
    if is_complete(g):
        return 1
    nbrs = g.neighbors
    worst = 0
    for lo in range(0, n, _SWEEP_WIDTH):
        width = min(_SWEEP_WIDTH, n - lo)
        full = (1 << width) - 1
        reach = [0] * n
        for i in range(width):
            reach[lo + i] = 1 << i
        missing = [(v, nbrs[v]) for v in range(n) if reach[v] != full]
        rounds = 0
        while missing:
            rounds += 1
            grown = reach.copy()
            still = []
            for item in missing:
                v, near = item
                r = reach[v]
                for w in near:
                    r |= reach[w]
                grown[v] = r
                if r != full:
                    still.append(item)
            if grown == reach:
                return INFINITE
            reach, missing = grown, still
        worst = max(worst, rounds)
    return worst


def has_cut_vertex(g: Graph) -> bool:
    """True iff removing some single vertex disconnects the connected graph.

    One depth-first search from vertex 0 numbers the vertices in visit order
    and gives each its lowpoint, the smallest number reachable from its
    subtree by one non-tree edge (Hopcroft and Tarjan).  The root is a cut
    vertex iff it has two or more tree children; any other vertex u is one
    iff some child's lowpoint is at least u's number, since no edge then
    climbs from that child's subtree above u.  Counting the tree edge to the
    parent among those edges lowers no lowpoint below the parent's number,
    so the test is unaffected.  Disconnected graphs answer False.
    """
    if g.n <= 2 or g.m < g.n - 1:
        return False
    nbrs = g.neighbors
    order = [-1] * g.n
    low = [0] * g.n
    order[0] = 0
    visited, root_children, cut = 1, 0, False
    stack = [(0, iter(nbrs[0]))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if order[w] < 0:
                order[w] = low[w] = visited
                visited += 1
                stack.append((w, iter(nbrs[w])))
                break
            if order[w] < low[u]:
                low[u] = order[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if p == 0:
                    root_children += 1
                elif low[u] >= order[p]:
                    cut = True
    return visited == g.n and (cut or root_children > 1)


# Connectivity.  By Menger's theorem the local connectivity of a non-adjacent
# pair is the number of internally vertex-disjoint paths joining it, a
# unit-capacity max flow on the vertex-split digraph; edge connectivity is
# the same on the graph's own arcs.  Seven facts keep the flows few and short:
#
# * Pivot (Esfahanian and Hakimi, Networks 14(2), 1984).  Let v have minimum
#   degree delta; on a non-complete graph kappa <= delta.  A minimum cut S
#   either misses v, and then separates v from a non-neighbour, or contains
#   v, and then, being minimal, leaves neighbours of v in two components of
#   G - S, which are non-adjacent.  So kappa is the least of delta, the flows
#   from v to its non-neighbours and the flows between non-adjacent
#   neighbours of v: at most n + delta^2 flows, not one per non-adjacent pair.
# * Join (as Even's k-connectivity test, SIAM J. Comput. 4(3), 1975, joins
#   each vertex to those already checked).  Call a pair (x, y) proven once a
#   flow, or the fence below, has shown kappa(x, y) >= best, the best cut so
#   far; a flow capped at best, followed by best = min(best, flow), proves
#   its pair.  A proven pair joins the search's graph and its network as the
#   edge xy.  That changes no value the search asks for: take a set S of
#   fewer than b <= best vertices that separates a from c.  Each end of a
#   proven pair is in S or in the same component of G - S as the other end,
#   since S is too small to separate them, so the added edge does not join a
#   to c.  Hence min(kappa(a, c), b) is unchanged at every cap b up to the
#   best cut at join time, and caps only fall.  The argument holds in the
#   joined graph as it stands, so joins may follow joins.  The pivot's
#   proven sinks become its neighbours, and its proven neighbour pairs
#   become edges.
# * Fence.  A non-adjacent pair with at least best common neighbours in the
#   joined graph needs no flow: they give best disjoint paths of length 2,
#   and the pair is proven.  For the pivot v and a sink u, the common
#   neighbours are u's neighbours that are adjacent to v or proven; for two
#   neighbours x and y of v, the vertices each adjacent to, or proven with,
#   both (v among them).  ``_Sweep`` takes the fenced sinks first, and
#   otherwise flows to the sink with the most unproven neighbours: on Q10,
#   502 flows instead of 1,013.  kappa takes the pairs of v's neighbours in
#   order, each joined as it passes: on hl(4), 11 flows for 33 pairs, and
#   44 for Q10's 45.
# * Seeds.  Each flow from x to y first takes vertex-disjoint paths in the
#   joined graph, greedily in index order: x-w-y through each common
#   neighbour w (fewer than best, or the pair would be fenced), then x-d-w-y
#   through a neighbour w of y and a joined neighbour d of x.  Together they
#   are a feasible flow, and ``_max_flow`` augments only the paths still
#   missing; augmenting from any feasible flow reaches the same value.  The
#   proven sinks joined to the pivot make the x-d-w-y paths plentiful: on
#   Q10 the flows need 586 augmenting searches, not 5,460.  The network is
#   built at the first flow whose seeds fall short, so a search that the
#   fences and seeds settle builds none.
# * Caps and floors.  A flow that reaches the best cut found so far cannot
#   lower it, so each flow stops after that many augmenting paths.  The
#   question "kappa >= k?" needs only min(kappa, k), so its search starts
#   with the best cut at min(delta, k), and no flow runs past k.  No cut
#   lies below a proven floor, so the search stops once its best cut meets
#   the floor, and does not start (nor build its network) when the floor
#   reaches the cut it starts with.  kappa's floor: one depth-first search
#   (``has_cut_vertex``) finds a cut vertex, and then kappa is 1; a
#   connected graph on 3 or more vertices with none is 2-connected, so
#   kappa >= 2; and kappa >= 2 delta - n + 2 by the degree threshold below.
#   Cycles, grids and every other graph of delta 2 without a cut vertex
#   thus run no flow.  lambda's floor is kappa, by Whitney's chain kappa <=
#   lambda <= delta (Amer. J. Math. 54, 1932), so kappa = delta settles
#   lambda with no flow, as on hypercubes, tori and the hl graphs.
# * Degree threshold (Chartrand and Harary, 1968).  If a set S of at most
#   k - 1 vertices separates x from y, each of x and y has its neighbours in
#   S and its own side, and the two sides and S share n vertices, so
#   deg x + deg y <= n + |S| - 2 <= n + k - 3.  Hence 2 delta >= n + k - 2
#   gives kappa >= k with no flow at all: the complement of a sparse graph,
#   where Thm1(a) asks "kappa >= 4?", answers at once, from the maximum
#   degree of the graph, without the complement being built.
# * Both ends (Pohl, Machine Intelligence 6, 1971).  Each augmenting path is
#   found by a breadth-first search forward from s and backward from t, one
#   whole level of the smaller frontier at a time.  Where levels grow fast,
#   as on a hypercube, each side stops near half the distance and the two
#   together scan far fewer arcs than one search from s; on a long thin
#   graph, such as a prism C300 x P2, both scan about the same arcs, and the
#   search from both ends pays a little more per level.  The backward side
#   walks arc ``a ^ 1`` into a node, so both sides read the same ``room``
#   list.  One ``via`` list keeps a single mark per node, the arc that tree
#   reached it by, so no node is in both trees, and the trees join on an
#   arc: the first arc with room from a forward node to a backward node
#   closes the path s .. u -> w .. t, which the marks spell out from u back
#   to s and from w on to t.  Every augmenting path raises the flow by one,
#   so the value does not depend on which path is found.
#
# ``Graph.vertex_connectivity`` and ``Graph.edge_connectivity`` cache the two
# values, as ``Graph.connected`` caches connectedness, so metrics, bounds and
# product formulas share one computation per graph.  The exhaustive-cut
# oracles in ``verification`` check all of this and share none of its code.


# A residual network: the arc ids leaving each node, and each arc's head and
# remaining room.  Arcs come in pairs, ``a ^ 1`` the reverse of ``a``.
FlowNetwork = tuple[list[list[int]], list[int], list[int]]


def _max_flow(net: FlowNetwork, s: int, t: int, cap: int) -> int:
    """Arc-disjoint ``s``-``t`` paths in a unit-capacity network, at most ``cap``.

    Finds each augmenting path by a breadth-first search from both ends and
    stops after ``cap`` paths; on return every pushed arc is restored, so
    ``net`` serves every flow of a search.
    """
    out, head, room = net
    pushed: list[int] = []
    no_arc = len(head)
    flow = 0
    while flow < cap:
        # one mark per node: the arc the forward tree reached it by (>= 0),
        # -2 - the arc the backward tree left it by, or -1 for unseen
        via = [-1] * len(out)
        via[s], via[t] = no_arc, -2 - no_arc
        front, back = [s], [t]
        join = -1
        while True:
            nxt: list[int] = []
            if len(front) <= len(back):
                for u in front:
                    for a in out[u]:
                        if room[a]:
                            w = head[a]
                            mark = via[w]
                            if mark == -1:
                                via[w] = a
                                nxt.append(w)
                            elif mark < -1:
                                join = a
                                break
                    else:
                        continue
                    break
                if join >= 0 or not nxt:
                    break
                front = nxt
            else:
                for v in back:
                    for b in out[v]:
                        if room[b ^ 1]:
                            u = head[b]
                            mark = via[u]
                            if mark == -1:
                                via[u] = -2 - (b ^ 1)
                                nxt.append(u)
                            elif mark >= 0:
                                join = b ^ 1
                                break
                    else:
                        continue
                    break
                if join >= 0 or not nxt:
                    break
                back = nxt
        if join < 0:
            break
        room[join] -= 1
        room[join ^ 1] += 1
        pushed.append(join)
        u = head[join ^ 1]
        while u != s:
            a = via[u]
            room[a] -= 1
            room[a ^ 1] += 1
            pushed.append(a)
            u = head[a ^ 1]
        w = head[join]
        while w != t:
            a = -2 - via[w]
            room[a] -= 1
            room[a ^ 1] += 1
            pushed.append(a)
            w = head[a]
        flow += 1
    for a in pushed:
        room[a] += 1
        room[a ^ 1] -= 1
    return flow


def _split_network(g: Graph) -> FlowNetwork:
    """Vertex-split network: ``v`` becomes ``2v -> 2v + 1`` (arc ``2v``), each
    edge two arcs out of one endpoint's out-copy into the other's in-copy,
    each paired with an empty reverse arc.  Vertex-disjoint ``s``-``t`` paths
    are the flows from ``2s + 1`` to ``2t``.  Edge ``i`` starts at arc
    ``2n + 4i``: ``_lay_edge`` appends it."""
    nodes = range(2 * g.n)
    net = [[a] for a in nodes], [a ^ 1 for a in nodes], [1, 0] * g.n
    for u, v in g.edges:
        _lay_edge(net, u, v)
    return net


def _lay_edge(net: FlowNetwork, u: int, v: int) -> None:
    """Append the edge ``uv``, ``u < v``, to a vertex-split network: arc
    ``2u + 1 -> 2v``, then its reverse, then ``2v + 1 -> 2u`` and its reverse."""
    out, head, room = net
    a = len(head)
    head += (2 * v, 2 * u + 1, 2 * u, 2 * v + 1)
    room += (1, 0, 1, 0)
    out[2 * u + 1].append(a)
    out[2 * v].append(a + 1)
    out[2 * v + 1].append(a + 2)
    out[2 * u].append(a + 3)


def _edge_network(g: Graph) -> FlowNetwork:
    """Edge ``i`` as arcs ``2i`` and ``2i + 1``, room 1 each way: edge-disjoint
    paths are flows."""
    out: list[list[int]] = [[] for _ in g.vertices()]
    for i, (u, v) in enumerate(g.edges):
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    head = [w for u, v in g.edges for w in (v, u)]
    return out, head, [1] * len(head)


def min_degree(g: Graph) -> int:
    """Smallest vertex degree; 0 for the empty graph."""
    return min((g.degree(v) for v in g.vertices()), default=0)


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity, with the convention kappa(K_n) = n - 1.

    A cut vertex gives 1 with no flow.  Otherwise kappa is at least 2 and at
    least 2 delta - n + 2 (the degree threshold above): a floor that reaches
    delta is the answer, and below it the flows stop once one meets it.
    Computes afresh; ``g.vertex_connectivity`` holds the value computed once.
    """
    return _connectivity(g, g.n)


def _connectivity(g: Graph, cap: int) -> int:
    """min(kappa, ``cap``) for ``cap`` >= 1: the pivot's search (the comment
    above), with the best cut starting at min(delta, ``cap``), so no flow
    runs past ``cap``."""
    if g.n <= 1 or not is_connected(g):
        return 0
    if is_complete(g):
        return min(g.n - 1, cap)
    if has_cut_vertex(g):
        return 1
    v = min(g.vertices(), key=g.degree)
    near = g.adjacency[v]
    best = min(len(near), cap)
    floor = max(2, _degree_floor(g.n, len(near)))
    if floor >= best:
        return best
    joined = _Joined(g)
    # one flow, capped at the best cut so far, to each sink not fenced; each
    # sink yielded is proven, and joins the pivot
    sweep = _Sweep(g, v, best)
    for u, fenced in sweep:
        if not fenced:
            sweep.best = min(sweep.best, joined.flow(v, u, sweep.best))
            if sweep.best <= floor:
                break
        joined.join(v, u)
    best = sweep.best
    adj = joined.adj
    for x, y in combinations(g.neighbors[v], 2):
        if best == floor:
            break
        if y in adj[x]:
            continue
        if len(adj[x] & adj[y]) < best:  # else the pair is fenced
            best = min(best, joined.flow(x, y, best))
        joined.join(x, y)
    return best


class _Joined:
    """One pivot search's joined graph (the comment above) and its network.

    ``adj`` starts as the graph's adjacency and gains the edge xy once the
    pair (x, y) is proven; the vertex-split network holds the same edges,
    the joins after the graph's own.  ``flow`` seeds each flow with short
    paths and builds the network only at the first flow they fall short of.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.adj = [set(s) for s in g.adjacency]
        self.joins: dict[tuple[int, int], int] = {}  # edge -> its order
        self.net: FlowNetwork | None = None

    def join(self, x: int, y: int) -> None:
        self.adj[x].add(y)
        self.adj[y].add(x)
        e = (x, y) if x < y else (y, x)
        self.joins[e] = len(self.joins)
        if self.net is not None:
            _lay_edge(self.net, *e)

    def _arc(self, p: int, q: int) -> int:
        """The arc from ``p``'s out-copy into ``q``'s in-copy."""
        g = self.g
        e = (p, q) if p < q else (q, p)
        i = g.edge_index.get(e)
        if i is None:
            i = g.m + self.joins[e]
        return 2 * g.n + 4 * i + 2 * (p > q)

    def flow(self, x: int, y: int, cap: int) -> int:
        """min(kappa(x, y), ``cap``) in the joined graph, for non-adjacent
        ``x`` and ``y``: the seeds (the comment above), then one augmenting
        search for each path they miss."""
        adj, nbrs = self.adj, self.g.neighbors
        near = adj[x]
        common = sorted(near & adj[y])[:cap]
        seeds = [(w,) for w in common]
        used = {x, y, *common}
        # each w is met once, and is no joined neighbour of x (it would be
        # a common one), so only the d taken need marking
        for w in nbrs[y]:
            if len(seeds) == cap:
                break
            if w not in used:
                for d in nbrs[w]:
                    if d in near and d not in used:
                        seeds.append((d, w))
                        used.add(d)
                        break
        if len(seeds) == cap:
            return cap
        if self.net is None:
            self.net = _split_network(self.g)
            for e in self.joins:
                _lay_edge(self.net, *e)
        room = self.net[2]
        pushed = []
        for path in seeds:
            p = x
            for q in path:
                pushed += (self._arc(p, q), 2 * q)
                p = q
            pushed.append(self._arc(p, y))
        for a in pushed:
            room[a] -= 1
            room[a ^ 1] += 1
        found = _max_flow(self.net, 2 * x + 1, 2 * y, cap - len(seeds))
        for a in pushed:
            room[a] += 1
            room[a ^ 1] -= 1
        return len(seeds) + found


class _Sweep:
    """The pivot ``v``'s sweep over its non-neighbours (the fence above).

    Iterating yields each non-neighbour u of ``v`` once, as ``(u, fenced)``.
    Before the next step the caller makes ``best`` at most kappa(v, u), by a
    flow to u capped at ``best`` unless u is fenced: then at least ``best``
    of u's neighbours are adjacent to ``v`` or yielded before, and kappa(v, u)
    >= ``best`` holds already.  Fenced sinks come first; otherwise the next
    is the sink with the most neighbours neither adjacent to ``v`` nor
    yielded, the lowest index among equals.

    The order costs O(n + m): a sink moves down one bucket of the queue each
    time a neighbour is yielded, the top bucket is sorted once it is reached
    (nothing enters it after that), and each fall of ``best`` rescans the
    sinks, at most delta times.
    """

    def __init__(self, g: Graph, v: int, best: int):
        self.g, self.v, self.best = g, v, best

    def __iter__(self):
        g, v = self.g, self.v
        nbrs = g.neighbors
        near = g.adjacency[v]
        done = [False] * g.n  # v, its neighbours and every sink yielded
        done[v] = True
        for w in near:
            done[w] = True
        sinks = [u for u in g.vertices() if not done[u]]
        # fence[u]: u's neighbours adjacent to v or yielded; open[u] the rest
        fence = [0] * g.n
        for w in near:
            for x in nbrs[w]:
                fence[x] += 1
        open_ = [len(nbrs[u]) - fence[u] for u in g.vertices()]
        best = self.best
        ready = [u for u in sinks if fence[u] >= best]
        # buckets[k]: sinks with k open neighbours, stale once done or moved
        top = max((open_[u] for u in sinks), default=0)
        buckets: list[list[int]] = [[] for _ in range(top + 1)]
        for u in sinks:
            buckets[open_[u]].append(u)
        buckets[top].sort(reverse=True)
        for _ in sinks:
            while ready and done[ready[-1]]:
                ready.pop()
            fenced = bool(ready)
            if fenced:
                u = ready.pop()
            else:
                while True:
                    while not buckets[top]:
                        top -= 1
                        buckets[top].sort(reverse=True)
                    u = buckets[top].pop()
                    if not done[u] and open_[u] == top:
                        break
            yield u, fenced
            done[u] = True
            if self.best < best:
                best = self.best
                ready = [x for x in sinks if not done[x] and fence[x] >= best]
            for w in nbrs[u]:
                if not done[w]:
                    fence[w] += 1
                    open_[w] -= 1
                    buckets[open_[w]].append(w)
                    if fence[w] == best:
                        ready.append(w)


def _degree_floor(n: int, delta: int) -> int:
    """kappa >= 2 delta - n + 2 on n vertices of minimum degree ``delta``
    (the degree threshold above)."""
    return 2 * delta - n + 2


def complement_connectivity_at_least(g: Graph, k: int) -> bool:
    """Whether ``vertex_connectivity(complement(g)) >= k``.  The minimum
    degree may settle it, by kappa <= delta or by the degree threshold,
    without the complement being built: the complement's minimum degree is
    n - 1 - the maximum degree of ``g``.  Otherwise the pivot's search on
    the complement answers it, capped at k."""
    if k <= 0:
        return True
    max_degree = max((g.degree(v) for v in g.vertices()), default=0)
    delta = g.n - 1 - max_degree  # the complement's, and kappa <= delta
    if k > delta:
        return False
    return _degree_floor(g.n, delta) >= k or _connectivity(complement(g), k) >= k


def edge_connectivity(g: Graph) -> int:
    """Edge connectivity, with the convention lambda(K_n) = n - 1.

    Whitney's chain kappa <= lambda <= delta floors lambda at the cached
    ``g.vertex_connectivity``: kappa = delta is the answer with no flow, and
    below it the flows stop once one meets kappa.  Every edge cut separates
    vertex 0 from some other vertex, so the flows run from vertex 0 only.
    Computes afresh; ``g.edge_connectivity`` holds the value computed once.
    """
    if g.n <= 1 or not is_connected(g):
        return 0
    if is_complete(g):
        return g.n - 1
    floor, best = g.vertex_connectivity, min_degree(g)
    if floor == best:
        return best
    net = _edge_network(g)
    for t in range(1, g.n):
        best = min(best, _max_flow(net, 0, t, best))
        if best == floor:
            break
    return best


def metrics(g: Graph) -> GraphMetrics:
    """Compute the full metric bundle for a graph."""
    degs = [g.degree(v) for v in g.vertices()] or [0]
    return GraphMetrics(
        min_degree=min(degs),
        max_degree=max(degs),
        diameter=g.diameter,
        vertex_connectivity=g.vertex_connectivity,
        edge_connectivity=g.edge_connectivity,
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
