"""The four standard graph products and their closed-form counts and distances.

All four products share the vertex set V(G) x V(H); the pair ``(g, h)`` is
stored at index ``g * |V(H)| + h`` (row-major), and vertex labels carry the
concatenated factor coordinates so certificates stay human-readable.  A
product is a ``Graph`` that also records its kind and factor sizes.  No
product is built with more than ``MAX_PRODUCT_SIZE`` vertices or edges; the
sizes come from the closed forms before anything is allocated.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import InapplicableError
from .graph import Graph, distances_from

__all__ = [
    "ProductKind",
    "ProductGraph",
    "MAX_PRODUCT_SIZE",
    "make_product",
    "product_edges",
    "product_size",
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

    @cached_property
    def factors(self) -> tuple[Graph, Graph]:
        """The two factor graphs, recovered once by :func:`recover_factors`."""
        return recover_factors(self)


def _vertex_labels(g: Graph) -> tuple[tuple[int, ...], ...]:
    return g.labels if g.labels is not None else tuple((v,) for v in g.vertices())


def product_edges(kind: ProductKind, g: Graph, h: Graph) -> list[tuple[int, int]]:
    """The product's edges in canonical order: smaller endpoint first, sorted.

    cartesian:      one coordinate equal, the other adjacent
    lexicographic:  first coordinates adjacent, or equal with second adjacent
    strong:         cartesian plus both-adjacent pairs
    direct:         both coordinates adjacent

    Each rule is one comprehension over factor edges, with the row offsets
    ``a * |V(H)|`` computed once, so the work follows the edge counts and
    nothing is built per product vertex.  Every pair comes out smaller end
    first: inside a row because ``h``'s edges are, and across rows because
    row ``a < b`` ends before row ``b`` starts.
    """
    kind = ProductKind(kind)
    nh = h.n
    rows = [a * nh for a in g.vertices()]
    links = [(rows[a], rows[b]) for a, b in g.edges]
    edges: list[tuple[int, int]] = []
    if kind is not ProductKind.DIRECT:
        edges += [(r + x, r + y) for r in rows for x, y in h.edges]
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG):
        edges += [(ra + x, rb + x) for ra, rb in links for x in h.vertices()]
    if kind in (ProductKind.STRONG, ProductKind.DIRECT):
        edges += [(ra + x, rb + y) for ra, rb in links for x, y in h.edges]
        edges += [(ra + y, rb + x) for ra, rb in links for x, y in h.edges]
    if kind is ProductKind.LEXICOGRAPHIC:
        every = range(nh)
        edges += [(ra + x, rb + y) for ra, rb in links for x in every for y in every]
    edges.sort()
    return edges


MAX_PRODUCT_SIZE = 2**19
"""Most vertices, and most edges, of a product that is built, and of any
network-family instance (``families.generate`` sizes it first).  Q16 (65,536
vertices, 524,288 edges) is the largest hypercube within it: it builds in
about 0.6 s CPU at a 160 MB peak RSS, and ``mcgraph gen hypercube 16``
writes it as JSON in about 1.3 s at a 280 MB peak (Python 3.11, 2 CPUs)."""


def product_size(kind: ProductKind, sizes: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(vertices, edges) of the left-associated product of factors with the
    given (vertices, edges), by :func:`edge_count_formula`'s closed forms.

    Raises ``ValueError`` when that product, or one on the way to it, has
    more than ``MAX_PRODUCT_SIZE`` vertices or edges, so a caller can refuse
    it before building anything; the message gives the sizes of the last
    product over the cap.
    """
    kind = ProductKind(kind)
    n, m = sizes[0]
    over = None
    for nh, mh in sizes[1:]:
        n, m = n * nh, _edge_count(kind, n, m, nh, mh)
        if max(n, m) > MAX_PRODUCT_SIZE:
            over = n, m
    if over is not None:
        raise ValueError(
            f"{kind.value} product too large: {over[0]} vertices and {over[1]} "
            f"edges (at most {MAX_PRODUCT_SIZE} of each)"
        )
    return n, m


def make_product(kind: ProductKind, g: Graph, h: Graph) -> ProductGraph:
    """Construct the product of ``g`` and ``h`` (see :func:`product_edges`).

    The result skips ``build_graph``'s checks, which guard untrusted input:
    ``g`` and ``h`` are ``Graph``s, simple with canonical edges, so every
    product rule yields each pair at most once, never a loop, and
    :func:`product_edges` returns them canonical.  Labels are the factor
    labels concatenated; only when ``g``'s labels differ in length (a file
    can make them so) can two coincide, and that case is refused as
    ``build_graph`` refuses it.  A product above ``MAX_PRODUCT_SIZE`` is
    refused before anything is built.
    """
    kind = ProductKind(kind)
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be non-empty")
    n, _ = product_size(kind, [(g.n, g.m), (h.n, h.m)])
    labels = tuple(la + lh for la in _vertex_labels(g) for lh in _vertex_labels(h))
    mixed = g.labels is not None and len(set(map(len, g.labels))) > 1
    if mixed and len(set(labels)) < n:
        raise ValueError("labels must be distinct")
    return ProductGraph(
        n, tuple(product_edges(kind, g, h)), labels, kind=kind, factor_sizes=(g.n, h.n)
    )


def edge_count_formula(kind: ProductKind, g: Graph, h: Graph) -> int:
    """Closed-form edge count of the product, without building it."""
    return _edge_count(ProductKind(kind), g.n, g.m, h.n, h.m)


def _edge_count(kind: ProductKind, ng: int, eg: int, nh: int, eh: int) -> int:
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
    that; :func:`mcgraph.io.graph_from_obj` does, by regenerating the product
    edges from the projections and rejecting a file whose edges differ.

    The cartesian, strong and lexicographic products hold a copy of H on
    row 0, the vertices ``(0, h)``, and a copy of G on column 0, the vertices
    ``(g, 0)`` at the indices divisible by |V(H)|, and no other edge inside
    either: so H is read off the edges inside row 0, all of them among the
    sorted edges that start in row 0, and G off the edges inside column 0.
    The direct product has no edge inside a row or a column, and every one
    of its edges is scanned, each projecting to an edge of both factors.

    Reading less of the file changes nothing ``graph_from_obj`` accepts or
    says.  A genuine product yields the same two factors whether every edge
    is projected or only the two copies are read, so its regenerated edges
    match either way; any other file is refused either way, because no pair
    of factors regenerates its edges; and the message names only the kind
    and the declared sizes.  Nothing here loops over the declared vertices,
    so the cost follows the file.
    """
    ng, nh = product.factor_sizes
    edges = product.edges
    if product.kind is ProductKind.DIRECT:
        g_edges = sorted({(u // nh, v // nh) for u, v in edges})
        h_pairs = ((u % nh, v % nh) for u, v in edges)
        h_edges = sorted({(x, y) if x < y else (y, x) for x, y in h_pairs})
    else:
        # both copies come out distinct and sorted, as the edges are
        row0 = edges[: bisect_left(edges, (nh,))]
        h_edges = [(x, y) for x, y in row0 if y < nh]
        g_edges = [(u // nh, v // nh) for u, v in edges if not u % nh and not v % nh]
    return Graph(ng, tuple(g_edges)), Graph(nh, tuple(h_edges))


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

