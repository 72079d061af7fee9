"""Monochromatic-connection colorings: certificates, checks and basic bounds.

An MC-coloring assigns every edge a color so that each vertex pair is joined
by a path whose edges all share one color; mc(G) is the largest number of
colors such a coloring can use (0 when G is disconnected).  This module holds
the coloring/certificate types, the validity checker, the spanning-tree
construction attaining the m - n + 2 floor, the m - n + kappa + 1 ceiling and
the five sufficient conditions under which the floor is exact.  The two
exact engines live in :mod:`mcgraph.naive` and :mod:`mcgraph.treecover`;
each returns its value through ``_checked_result`` here, which passes the
witness through the checker first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, combinations

from .bounds import BoundInterval, product_mc_bounds
from .errors import InapplicableError
from .graph import (
    Graph,
    bfs_parents,
    complement_connectivity_at_least,
    edge_components,
    has_cut_vertex,
    is_complete,
    is_connected,
)
from .products import ProductGraph


@dataclass(frozen=True)
class EdgeColoring:
    """A total edge coloring of ``host``, aligned with its canonical edge order.

    Color ids must be the contiguous range 0..k-1.
    """

    host: Graph
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.host.m:
            raise ValueError(
                f"expected {self.host.m} colors, got {len(self.colors)}"
            )
        used = set(self.colors)
        if self.colors and used != set(range(len(used))):
            raise ValueError("color ids must be contiguous 0..k-1")

    @property
    def color_count(self) -> int:
        return len(set(self.colors))

    def color_classes(self) -> list[list[tuple[int, int]]]:
        classes: list[list[tuple[int, int]]] = [[] for _ in range(self.color_count)]
        for edge, c in zip(self.host.edges, self.colors):
            classes[c].append(edge)
        return classes

    def to_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.host.edges],
            "colors": list(self.colors),
        }


@dataclass(frozen=True)
class TreeCover:
    """Edge-disjoint trees (two or more edges each) spanning all non-adjacent pairs.

    This is the canonical witness shape for a maximum MC-coloring: each tree
    becomes one color, every leftover edge keeps a fresh color, so the colors
    used are m - waste where waste is the total tree edge surplus.
    """

    host: Graph
    trees: tuple[tuple[tuple[int, int], ...], ...]

    def waste(self) -> int:
        return sum(len(t) - 1 for t in self.trees)

    def color_count(self) -> int:
        return self.host.m - self.waste()

    def validate(self) -> None:
        """Raise ValueError unless all structural invariants hold."""
        used: set[tuple[int, int]] = set()
        spans: list[set[int]] = []
        for tree in self.trees:
            if len(tree) < 2:
                raise ValueError("each cover tree needs at least 2 edges")
            verts: set[int] = set()
            for e in tree:
                if e not in self.host.edge_index:
                    raise ValueError(f"edge {e} not in host graph")
                if e in used:
                    raise ValueError(f"edge {e} used by two trees")
                used.add(e)
                verts.update(e)
            connected = len(edge_components(self.host.n, tree)) == 1
            if len(tree) != len(verts) - 1 or not connected:
                raise ValueError("a cover class is not a tree")
            spans.append(verts)
        for u, v in combinations(range(self.host.n), 2):
            if self.host.has_edge(u, v):
                continue
            if not any(u in span and v in span for span in spans):
                raise ValueError(f"non-adjacent pair ({u}, {v}) not covered")

    def to_coloring(self) -> EdgeColoring:
        color_of: dict[tuple[int, int], int] = {}
        for c, tree in enumerate(self.trees):
            for e in tree:
                color_of[e] = c
        nxt = len(self.trees)
        colors = []
        for e in self.host.edges:
            if e in color_of:
                colors.append(color_of[e])
            else:
                colors.append(nxt)
                nxt += 1
        return EdgeColoring(self.host, tuple(colors))


@dataclass(frozen=True)
class Theorem1Certificate:
    """Outcome of the five sufficient conditions forcing mc = m - n + 2.

    ``conditions`` lists which of a..e fired:
      a: the complement is 4-connected
      b: the graph is triangle-free
      c: the maximum-degree inequality holds
      d: the diameter is at least 3
      e: there is a cut vertex
    """

    holds: bool
    conditions: tuple[str, ...]
    value: int | None

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "conditions": list(self.conditions),
            "value": self.value,
        }


@dataclass(frozen=True)
class SearchStats:
    """Counters of one tree-cover search (see :mod:`mcgraph.treecover`)."""

    nodes: int  # search visits, frontier starts and states, and groups tested
    floor: int  # the root waste floor
    floor_by: str  # Lem1 | matching | capacity: the first bound reaching it
    targets: tuple[int, ...] = ()  # the deepening limits tried
    cut: int = 0  # groups cut before they were applied, and dropped frontier states
    matching_cut: int = 0  # of ``cut``: passed greedy, not the fractional bound
    symmetric: int = 0  # applied states pruned as images of exhausted ones

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McResult:
    """An mc computation outcome: value, witness, method, and bound interval.

    ``stats`` is observability only and stays out of :meth:`to_dict`.
    """

    value: int | None
    witness: EdgeColoring | None
    method: str  # naive-partition | tree-cover | bounds-only
    bounds: BoundInterval
    stats: SearchStats | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "bounds": self.bounds.to_dict(),
            "witness": self.witness.to_dict() if self.witness else None,
        }


def check_mc_coloring(
    g: Graph, coloring: EdgeColoring
) -> tuple[bool, tuple[int, int] | None]:
    """Check the MC property; on failure also return the first bad pair.

    Valid iff every vertex pair lies in one component of some color class's
    subgraph.  The returned violation is the lexicographically smallest pair.

    A class of one edge (u, v) has one component, {u, v}, so it serves
    exactly the pair it joins and needs no union-find.  Such classes are
    nearly all the classes of the colorings that attain the known values:
    every non-tree edge of a spanning-tree coloring, every edge of an
    all-distinct one.

    No class serves a pair with a vertex that no edge touches, so when z is
    the smallest such vertex the first bad pair is at most (0, z), or is
    (0, 1) when z is 0: the masks and the scan stop at max(z, 1), and the
    cost follows the edges, not the declared vertex count.
    """
    if coloring.host.n != g.n or coloring.host.edges != g.edges:
        raise ValueError("coloring does not color this graph's edge set")
    touched = set(chain.from_iterable(g.edges))
    isolated = next((v for v in range(g.n) if v not in touched), g.n)
    end = min(g.n, max(isolated, 1) + 1)
    served = [0] * end  # bit v of served[u]: some class joins u and v
    for edges in coloring.color_classes():
        if len(edges) == 1:
            (u, v), = edges
            if v < end:
                served[u] |= 1 << v
                served[v] |= 1 << u
            continue
        for comp in edge_components(g.n, edges):
            comp = comp[: bisect_left(comp, end)]
            mask = sum(1 << v for v in comp)
            for v in comp:
                served[v] |= mask
    for u in range(end):
        missing = ~served[u] & ((1 << end) - (2 << u))  # the v > u unserved
        if missing:
            return False, (u, (missing & -missing).bit_length() - 1)
    return True, None


def _trivial_result(g: Graph, method: str) -> McResult:
    return McResult(value=0, witness=None, method=method, bounds=mc_bounds_basic(g))


def _checked_result(
    g: Graph,
    witness: EdgeColoring,
    method: str,
    bounds: BoundInterval,
    stats: SearchStats | None = None,
) -> McResult:
    """The result that ``witness`` proves, once ``check_mc_coloring`` passes it."""
    ok, pair = check_mc_coloring(g, witness)
    if not ok:
        raise AssertionError(f"{method} witness leaves pair {pair} unserved")
    return McResult(
        value=witness.color_count,
        witness=witness,
        method=method,
        bounds=bounds,
        stats=stats,
    )


def spanning_tree_coloring(g: Graph) -> EdgeColoring:
    """One color on a spanning tree, a fresh color on every other edge.

    This is always a valid MC-coloring and uses exactly m - n + 2 colors
    (one color when the graph is itself a tree).
    """
    if not is_connected(g):
        raise ValueError("spanning-tree coloring needs a connected graph")
    if g.n == 0:
        raise ValueError("empty graph")
    in_tree = {
        (p, v) if p < v else (v, p) for v, p in bfs_parents(g, 0).items() if v != p
    }
    colors = []
    nxt = 1
    for e in g.edges:
        if e in in_tree:
            colors.append(0)
        else:
            colors.append(nxt)
            nxt += 1
    return EdgeColoring(g, tuple(colors))


def all_distinct_coloring(g: Graph) -> EdgeColoring:
    """Every edge its own color; an MC-coloring exactly for diameter <= 1."""
    return EdgeColoring(g, tuple(range(g.m)))


def mc_bounds_basic(g: Graph) -> BoundInterval:
    """The basic sandwich [m - n + 2, m - n + kappa + 1] for connected graphs.

    Disconnected graphs (and the trivial one-vertex graph, which no coloring
    with a color can serve) get the degenerate interval [0, 0].  A complete
    graph gets [m, m]: the all-distinct coloring attains the Lem1 ceiling
    (kappa = n - 1).
    """
    if g.n <= 1 or not is_connected(g):
        return BoundInterval(0, 0, "Obs1", "Lem1", "disconnected or trivial (mc = 0)")
    if is_complete(g):
        return BoundInterval(g.m, g.m, "AllDistinct", "Lem1", "complete graph")
    return BoundInterval(
        lower=g.m - g.n + 2,
        upper=g.m - g.n + g.vertex_connectivity + 1,
        lower_source="Obs1",
        upper_source="Lem1",
        case="basic sandwich",
    )


def _has_triangle(g: Graph) -> bool:
    for u, v in g.edges:
        if g.adjacency[u] & g.adjacency[v]:
            return True
    return False


def theorem1_certificate(g: Graph) -> Theorem1Certificate:
    """Evaluate the five sufficient conditions for mc(G) = m - n + 2.

    Only meaningful for connected graphs on more than 3 vertices; the degree
    inequality is evaluated in exact rational arithmetic.
    """
    if g.n <= 3:
        raise InapplicableError("certificate not applicable: needs n > 3")
    if not is_connected(g):
        raise InapplicableError("certificate not applicable: graph disconnected")
    n, m = g.n, g.m
    delta = max(g.degree(v) for v in g.vertices())
    conditions: list[str] = []
    if complement_connectivity_at_least(g, 4):
        conditions.append("a")
    if not _has_triangle(g):
        conditions.append("b")
    if Fraction(delta) < n - Fraction(2 * m - 3 * (n - 1), n - 3):
        conditions.append("c")
    if g.diameter >= 3:
        conditions.append("d")
    if has_cut_vertex(g):
        conditions.append("e")
    holds = bool(conditions)
    return Theorem1Certificate(
        holds=holds,
        conditions=tuple(conditions),
        value=m - n + 2 if holds else None,
    )


def mc_bounds_combined(g: Graph) -> BoundInterval:
    """Intersect the basic sandwich with the product-theorem interval.

    The bounds pipeline calls this on every graph; one that carries no
    product structure gets the basic interval.  For a product the lower bound
    is the larger of the two lower bounds, the upper the smaller of the two
    uppers, with provenance following the winning side.  Falls back to the
    basic interval when the product-theorem hypotheses fail, and on a
    complete product: there mc = m, the basic upper end, which the stated
    form over a complete first factor cuts off.
    """
    basic = mc_bounds_basic(g)
    if not isinstance(g, ProductGraph) or is_complete(g):
        return basic
    try:
        # the published pipeline applies the stated lexicographic form even
        # over a complete first factor; keep that reproducible here
        themed = product_mc_bounds(
            g.kind, *g.factors, allow_complete_first_factor=True
        )
    except (InapplicableError, ValueError):
        return basic
    lower, lower_source = max(
        (basic.lower, basic.lower_source), (themed.lower, themed.lower_source)
    )
    upper, upper_source = min(
        (basic.upper, basic.upper_source), (themed.upper, themed.upper_source)
    )
    if lower > upper:  # a collapsed stated-form ceiling cannot be trusted
        return basic
    return BoundInterval(
        lower=lower,
        upper=upper,
        lower_source=lower_source,
        upper_source=upper_source,
        case=f"basic sandwich intersected with {themed.case}",
    )
