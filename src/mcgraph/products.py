"""The four standard graph products and their closed-form counts and distances.

All four products share the vertex set V(G) x V(H); the pair ``(g, h)`` is
stored at index ``g * |V(H)| + h`` (row-major), and vertex labels carry the
concatenated factor coordinates so certificates stay human-readable.  A
product is a ``Graph`` that also records its kind and factor sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InapplicableError
from .graph import Graph, build_graph, distances_from

__all__ = [
    "ProductKind",
    "ProductGraph",
    "make_product",
    "edge_count_formula",
    "distance_formula",
    "recover_factors",
    "swap_map",
]


class ProductKind(str, Enum):
    CARTESIAN = "cartesian"
    LEXICOGRAPHIC = "lexicographic"
    STRONG = "strong"
    DIRECT = "direct"

    @classmethod
    def parse(cls, text: str) -> "ProductKind":
        """Accept the canonical names plus the common shorthand ``lex``."""
        text = text.strip().lower()
        if text == "lex":
            return cls.LEXICOGRAPHIC
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown product kind {text!r} (expected {valid})")


@dataclass(frozen=True, kw_only=True)
class ProductGraph(Graph):
    """A ``Graph`` that is the ``kind`` product of factors of ``factor_sizes``."""

    kind: ProductKind
    factor_sizes: tuple[int, int]

    @property
    def graph(self) -> Graph:
        """The product itself; kept only for ``bench/`` and older scripts."""
        return self


def _vertex_label(g: Graph, v: int) -> tuple[int, ...]:
    return g.labels[v] if g.labels is not None else (v,)


def make_product(kind: ProductKind, g: Graph, h: Graph) -> ProductGraph:
    """Construct the product of ``g`` and ``h`` under the given adjacency rule.

    cartesian:      one coordinate equal, the other adjacent
    lexicographic:  first coordinates adjacent, or equal with second adjacent
    strong:         cartesian plus both-adjacent pairs
    direct:         both coordinates adjacent
    """
    kind = ProductKind(kind)
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be non-empty")
    nh = h.n

    def idx(a: int, x: int) -> int:
        return a * nh + x

    edges: list[tuple[int, int]] = []

    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG, ProductKind.LEXICOGRAPHIC):
        for a in g.vertices():
            for x, y in h.edges:
                edges.append((idx(a, x), idx(a, y)))
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG):
        for a, b in g.edges:
            for x in h.vertices():
                edges.append((idx(a, x), idx(b, x)))
    if kind in (ProductKind.STRONG, ProductKind.DIRECT):
        for a, b in g.edges:
            for x, y in h.edges:
                edges.append((idx(a, x), idx(b, y)))
                edges.append((idx(a, y), idx(b, x)))
    if kind is ProductKind.LEXICOGRAPHIC:
        for a, b in g.edges:
            for x in h.vertices():
                for y in h.vertices():
                    edges.append((idx(a, x), idx(b, y)))

    labels = tuple(
        _vertex_label(g, a) + _vertex_label(h, x)
        for a in g.vertices()
        for x in h.vertices()
    )
    built = build_graph(g.n * h.n, edges, labels)
    return ProductGraph(
        built.n, built.edges, built.labels, kind=kind, factor_sizes=(g.n, h.n)
    )


def edge_count_formula(kind: ProductKind, g: Graph, h: Graph) -> int:
    """Closed-form edge count of the product, without building it."""
    kind = ProductKind(kind)
    eg, eh, ng, nh = g.m, h.m, g.n, h.n
    if kind is ProductKind.CARTESIAN:
        return eg * nh + eh * ng
    if kind is ProductKind.LEXICOGRAPHIC:
        return eh * ng + eg * nh * nh
    if kind is ProductKind.STRONG:
        return eh * ng + eg * nh + 2 * eg * eh
    return 2 * eg * eh


def distance_formula(
    kind: ProductKind,
    g: Graph,
    h: Graph,
    a: tuple[int, int],
    b: tuple[int, int],
) -> int | float:
    """Product distance between coordinate pairs ``a`` and ``b`` by formula.

    cartesian: d_G + d_H; strong: max(d_G, d_H); lexicographic: d_G when the
    first coordinates differ, otherwise d_H for an isolated first coordinate
    and min(d_H, 2) for a non-isolated one.  There is no formula for the
    direct product; callers must fall back to breadth-first search.
    """
    kind = ProductKind(kind)
    if kind is ProductKind.DIRECT:
        raise InapplicableError(
            "no distance formula for the direct product; use BFS instead"
        )
    (g1, h1), (g2, h2) = a, b
    for coord, bound in ((g1, g.n), (g2, g.n), (h1, h.n), (h2, h.n)):
        if not 0 <= coord < bound:
            raise ValueError(f"coordinate {coord} out of range")
    dg = distances_from(g, g1)[g2]
    dh = distances_from(h, h1)[h2]
    if kind is ProductKind.CARTESIAN:
        return dg + dh
    if kind is ProductKind.STRONG:
        return max(dg, dh)
    # lexicographic
    if g1 != g2:
        return dg
    if g.degree(g1) == 0:
        return dh
    return min(dh, 2)


def recover_factors(product: ProductGraph) -> tuple[Graph, Graph]:
    """Project a genuine product back onto its two factor graphs.

    Only valid when ``product`` really is the ``product.kind`` product of some
    pair of graphs with the recorded sizes.  This function does not check
    that; :func:`mcgraph.io.graph_from_obj` does, by rebuilding the product
    from the projections and rejecting a file whose edges differ.
    """
    ng, nh = product.factor_sizes
    kind = product.kind
    g_edges: set[tuple[int, int]] = set()
    h_edges: set[tuple[int, int]] = set()
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
        else:  # direct: every edge projects to an edge in each factor
            g_edges.add((min(a, b), max(a, b)))
            h_edges.add((min(x, y), max(x, y)))
    return (
        Graph(ng, tuple(sorted(g_edges))),
        Graph(nh, tuple(sorted(h_edges))),
    )


def swap_map(ng: int, nh: int) -> list[int]:
    """The coordinate-swap relabeling (g, h) -> (h, g) as a permutation.

    Maps index ``g * nh + h`` of a product with factor sizes (ng, nh) to index
    ``h * ng + g`` of the swapped product.
    """
    perm = [0] * (ng * nh)
    for a in range(ng):
        for x in range(nh):
            perm[a * nh + x] = x * ng + a
    return perm

