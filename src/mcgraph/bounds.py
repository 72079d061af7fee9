"""Product connectivity formulas and the product mc-bound catalog.

Every interval carries provenance tags drawn from a fixed vocabulary:

    Obs1, AllDistinct, Lem1, Thm2(1..3), Thm3(1..4), Thm4(1..3), Thm5,
    Cor3(1..3), Cor4lex(1..4), Cor5(1..3), CorDirect

The tags name entries of the package's bound catalog (see README) so that
reports can say exactly which inequality produced each endpoint.

Every product statement shares one set of factor hypotheses, checked in
one place (``_require_product_factors``): both factors connected with at
least 2 vertices, and both nonbipartite for the direct product (Lem5, Thm5,
CorDirect).  Two further conditions hold for upper ends only, so
``product_mc_bounds`` checks them itself: Thm4 excludes two complete
factors, and Thm3 needs a non-complete first factor unless the stated form
is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InapplicableError
from .graph import (
    Graph,
    connected_components,
    is_bipartite,
    is_complete,
    is_connected,
    is_tree,
    min_degree,
)
from .products import ProductKind

SOURCE_TAGS = (
    ["Obs1", "AllDistinct", "Lem1", "Thm5", "CorDirect"]
    + [f"Thm2({i})" for i in (1, 2, 3)]
    + [f"Thm3({i})" for i in (1, 2, 3, 4)]
    + [f"Thm4({i})" for i in (1, 2, 3)]
    + [f"Cor3({i})" for i in (1, 2, 3)]
    + [f"Cor4lex({i})" for i in (1, 2, 3, 4)]
    + [f"Cor5({i})" for i in (1, 2, 3)]
)


@dataclass(frozen=True)
class BoundInterval:
    """Integer interval [lower, upper] with per-endpoint provenance."""

    lower: int
    upper: int
    lower_source: str
    upper_source: str
    case: str

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(
                f"empty interval [{self.lower}, {self.upper}] ({self.case})"
            )

    def __contains__(self, value: int) -> bool:
        return self.lower <= value <= self.upper

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_source": self.lower_source,
            "upper_source": self.upper_source,
            "case": self.case,
        }


@dataclass(frozen=True)
class DalethSet:
    """Witness for the strong-product separating construction.

    The product vertex set (s_g x comp_h) u (s_g x s_h) u (comp_g x s_h)
    separates the strong product whenever s_g separates G and s_h separates H;
    ``size`` is its cardinality.
    """

    s_g: tuple[int, ...]
    s_h: tuple[int, ...]
    comp_g: tuple[int, ...]
    comp_h: tuple[int, ...]
    size: int


def _separating_sets(g: Graph):
    """All vertex subsets whose removal disconnects ``g``, with the smallest
    remaining component attached (the component choice minimizing the size
    formula is always a smallest one)."""
    out = []
    for k in range(1, g.n - 1):
        for subset in combinations(range(g.n), k):
            comps = connected_components(g, subset)
            if len(comps) >= 2:
                smallest = min(comps, key=lambda c: (len(c), c))
                out.append((subset, tuple(smallest)))
    return out


def daleth_min(g: Graph, h: Graph) -> tuple[int, DalethSet]:
    """Minimum size of a separating product set, by exhaustive enumeration.

    Scans every separating set of each factor; for fixed separators the best
    component choices are the smallest components, so those are the only ones
    tried.  Desk scale only (factor subsets are enumerated exhaustively).
    """
    for name, f in (("first", g), ("second", h)):
        if not is_connected(f):
            raise InapplicableError(f"{name} factor is disconnected")
        if is_complete(f):
            raise InapplicableError(
                f"no daleth-set: {name} factor is complete (no separating set)"
            )
    best: tuple[int, DalethSet] | None = None
    for s_g, comp_g in _separating_sets(g):
        for s_h, comp_h in _separating_sets(h):
            size = (
                len(s_g) * len(comp_h)
                + len(s_g) * len(s_h)
                + len(comp_g) * len(s_h)
            )
            if best is None or size < best[0]:
                best = (size, DalethSet(s_g, s_h, comp_g, comp_h, size))
    assert best is not None  # non-complete connected graphs have separators
    return best


def _require_product_factors(kind: ProductKind, g: Graph, h: Graph) -> None:
    """Refuse factors outside the hypotheses every product statement shares."""
    for name, f in (("first", g), ("second", h)):
        if f.n < 2:
            raise InapplicableError(f"bounds inapplicable: trivial {name} factor")
        if not is_connected(f):
            raise InapplicableError(
                f"bounds inapplicable: disconnected {name} factor"
            )
    if kind is ProductKind.DIRECT and (is_bipartite(g) or is_bipartite(h)):
        raise InapplicableError(
            "bounds inapplicable: direct-product bounds need nonbipartite factors"
        )


def kappa_formula(kind: ProductKind, g: Graph, h: Graph) -> int:
    """Vertex connectivity of a product from the factor metrics alone.

    cartesian:     min(kG*nH, kH*nG, dG + dH)
    lexicographic: kG*nH                            (G nontrivial, non-complete)
    strong:        min(kG*nH, kH*nG, daleth size)   (some factor non-complete)

    Cartesian and strong factors must meet the shared hypotheses; Lem3 holds
    for any second factor, so the lexicographic formula checks G alone.  No
    vertex-connectivity formula is available for the direct product.
    """
    kind = ProductKind(kind)
    if kind is ProductKind.DIRECT:
        raise InapplicableError(
            "no vertex-connectivity formula for the direct product"
        )
    if kind is ProductKind.LEXICOGRAPHIC:
        if g.n < 2:
            raise InapplicableError("formula inapplicable: trivial first factor")
        if is_complete(g):
            raise InapplicableError(
                "formula inapplicable: complete first factor"
            )
        if not is_connected(g):
            raise InapplicableError(
                "formula inapplicable: disconnected first factor"
            )
        return g.vertex_connectivity * h.n
    _require_product_factors(kind, g, h)
    if kind is ProductKind.CARTESIAN:
        return min(
            g.vertex_connectivity * h.n,
            h.vertex_connectivity * g.n,
            min_degree(g) + min_degree(h),
        )
    if is_complete(g) and is_complete(h):
        raise InapplicableError("formula inapplicable: both factors complete")
    terms = [g.vertex_connectivity * h.n, h.vertex_connectivity * g.n]
    if not (is_complete(g) or is_complete(h)):
        terms.append(daleth_min(g, h)[0])
    # with a complete factor there is no separating pair, so the daleth term
    # is an empty minimum and drops out
    return min(terms)


def edge_conn_direct_formula(g: Graph, h: Graph) -> int:
    """Edge connectivity of the direct product of nonbipartite factors."""
    _require_product_factors(ProductKind.DIRECT, g, h)
    return min(
        2 * g.edge_connectivity * h.n,
        2 * h.edge_connectivity * g.n,
        min_degree(g) * min_degree(h),
    )


# per kind: theorem name, corollary name, and the case text of each branch
_UNORDERED_CASES = ("neither factor a tree", "non-tree with tree", "both factors trees")
_CATALOG = {
    ProductKind.CARTESIAN: ("Thm2", "Cor3", _UNORDERED_CASES),
    ProductKind.LEXICOGRAPHIC: (
        "Thm3",
        "Cor4lex",
        (
            "neither factor a tree",
            "G not a tree, H a tree",
            "G a tree, H not a tree",
            "both factors trees",
        ),
    ),
    ProductKind.STRONG: ("Thm4", "Cor5", _UNORDERED_CASES),
    ProductKind.DIRECT: ("Thm5", "CorDirect", ("nonbipartite factors",)),
}


def _branch(kind: ProductKind, g: Graph, h: Graph) -> tuple[int, bool]:
    """The catalog branch of (kind, g, h), and whether the factors swap into it.

    Branches follow factor tree-ness and number from 1: neither factor a
    tree, then the mixed branches, then both trees.  Lexicographic branches
    are order-sensitive: (2) G not a tree and H a tree, (3) G a tree and H
    not, (4) both trees; they never swap.  Cartesian and strong are
    unordered, so their one mixed branch (2) states "non-tree with tree" and
    "G a tree, H not" is handled by swapping the factors into it.  The
    direct product has the single branch 1, for nonbipartite factors.
    """
    if kind is ProductKind.DIRECT:
        return 1, False
    tg, th = is_tree(g), is_tree(h)
    if kind is ProductKind.LEXICOGRAPHIC:
        return 1 + 2 * tg + th, False
    if tg == th:
        return (3 if tg else 1), False
    return 2, tg


def _tag(name: str, kind: ProductKind, branch: int) -> str:
    return name if kind is ProductKind.DIRECT else f"{name}({branch})"


def _lower(kind: ProductKind, branch: int, ea: int, eb: int, na: int, nb: int) -> int:
    """Lower end of a branch, for factors A, B in the branch's order.

    ``ea`` and ``eb`` are the factors' edge counts in the theorems and their
    mc values in the corollaries; ``na`` and ``nb`` are their orders.
    """
    if kind is ProductKind.CARTESIAN:
        return (max(ea * nb, eb * na) + 2, eb * na + 2, ea * eb + 1)[branch - 1]
    if kind is ProductKind.LEXICOGRAPHIC:
        # branch 3 follows its derivation: the stated form swaps the factors'
        # roles, a typo the corollary inherits and (P3, C3) refutes
        return (
            ea * nb * nb + 2,
            eb * na * (nb + 1) + 2,
            ea * nb * nb + 2,
            ea * eb * (nb + 1) + 1,
        )[branch - 1]
    if kind is ProductKind.STRONG:
        return (
            max(ea * nb, eb * na) + 2 * ea * eb + 2,
            eb * na + 2 * ea * eb + 2,
            3 * ea * eb + 1,
        )[branch - 1]
    return ea * eb + 2


def product_mc_bounds(
    kind: ProductKind,
    g: Graph,
    h: Graph,
    *,
    allow_complete_first_factor: bool = False,
) -> BoundInterval:
    """mc interval for a product, on the branch :func:`_branch` selects.

    Besides the shared factor hypotheses, two upper-end conditions are
    checked here.  Thm4 excludes two complete factors.  Lexicographic
    upper bounds lean on the first factor being non-complete (its product
    connectivity formula has that hypothesis), and they really do fail
    otherwise: the single-edge graph composed with itself has mc 6 against a
    stated ceiling of 5.  Complete first factors are therefore refused unless
    ``allow_complete_first_factor`` asks for the stated form anyway, which
    the double-Petersen pipeline needs to reproduce its published ceiling.
    """
    kind = ProductKind(kind)
    _require_product_factors(kind, g, h)
    if kind is ProductKind.STRONG and is_complete(g) and is_complete(h):
        raise InapplicableError(
            "bounds inapplicable: strong product of two complete graphs"
        )
    complete_first = kind is ProductKind.LEXICOGRAPHIC and is_complete(g)
    if complete_first and not allow_complete_first_factor:
        raise InapplicableError(
            "bounds inapplicable: lexicographic upper bounds need a "
            "non-complete first factor"
        )
    branch, swapped = _branch(kind, g, h)
    a, b = (h, g) if swapped else (g, h)
    ea, eb, na, nb = a.m, b.m, a.n, b.n
    lower = _lower(kind, branch, ea, eb, na, nb)
    if kind is ProductKind.CARTESIAN:
        upper = (ea * nb + (eb - 1) * na + 1, ea * nb + 1, ea * eb + 2)[branch - 1]
    elif kind is ProductKind.LEXICOGRAPHIC:
        stated_upper = eb * na + ea * nb * nb - nb + 1
        upper = (
            stated_upper,
            stated_upper,
            eb * na + ea * nb * nb - na * nb + nb + 1,
            ea * eb * (nb + 1) + nb,
        )[branch - 1]
    elif kind is ProductKind.STRONG:
        upper = (
            ea * nb + eb * na + 2 * ea * eb - min(na, nb) + 1,
            ea * nb + 2 * ea * eb + 1,
            3 * ea * eb + min(na, nb),
        )[branch - 1]
    else:
        upper = 2 * ea * eb + 1
    theorem, _, cases = _CATALOG[kind]
    tag = _tag(theorem, kind, branch)
    case = f"{tag} {cases[branch - 1]}"
    if swapped:
        case += " (factors swapped)"
    if kind is ProductKind.LEXICOGRAPHIC and branch == 3:
        # Both stated endpoints of this branch disagree with what its own
        # derivation yields.  The stated lower swaps the factors' roles
        # and can exceed the connectivity ceiling outright; the stated
        # upper is looser than the derivation for nG > 2.  The derived
        # values are reported and the stated ones kept in the case
        # descriptor for the discrepancy report.
        case += (
            f" [stated bounds {eb * na * na + 2}..{stated_upper},"
            f" derived {lower}..{upper}]"
        )
    if complete_first:
        case += " [complete first factor: stated form]"
    return BoundInterval(lower, upper, tag, tag, case)


def corollary_lower(
    kind: ProductKind, g: Graph, h: Graph, mc_g: int, mc_h: int
) -> int:
    """mc lower bound for a product in terms of the factors' mc values.

    The lower end of the :func:`product_mc_bounds` branch, with mc(G) and
    mc(H) in place of the factors' edge counts.  It answers exactly where
    that lower end applies: on factors that meet the shared hypotheses,
    whatever the upper-end conditions say.
    """
    kind = ProductKind(kind)
    _require_product_factors(kind, g, h)
    branch, swapped = _branch(kind, g, h)
    if swapped:
        g, h, mc_g, mc_h = h, g, mc_h, mc_g
    return _lower(kind, branch, mc_g, mc_h, g.n, h.n)


def corollary_source(kind: ProductKind, g: Graph, h: Graph) -> str:
    """Catalog tag of the corollary branch that applies to (kind, g, h)."""
    kind = ProductKind(kind)
    return _tag(_CATALOG[kind][1], kind, _branch(kind, g, h)[0])
