"""Product connectivity formulas and the product mc-bound catalog.

Every interval carries provenance tags drawn from a fixed vocabulary:

    Obs1, AllDistinct, Lem1, Thm2(1..3), Thm3(1..4), Thm4(1..3), Thm5,
    Cor3(1..3), Cor4lex(1..4), Cor5(1..3), CorDirect

The tags name entries of the package's bound catalog (see README) so that
reports can say exactly which inequality produced each endpoint.
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


def kappa_formula(kind: ProductKind, g: Graph, h: Graph) -> int:
    """Vertex connectivity of a product from the factor metrics alone.

    cartesian:     min(kG*nH, kH*nG, dG + dH)       (nontrivial factors)
    lexicographic: kG*nH                            (G nontrivial, non-complete)
    strong:        min(kG*nH, kH*nG, daleth size)   (some factor non-complete)

    No vertex-connectivity formula is available for the direct product.
    """
    kind = ProductKind(kind)
    if kind is ProductKind.DIRECT:
        raise InapplicableError(
            "no vertex-connectivity formula for the direct product"
        )
    if kind is ProductKind.CARTESIAN:
        if g.n < 2 or h.n < 2:
            raise InapplicableError("formula inapplicable: trivial factor")
        if not (is_connected(g) and is_connected(h)):
            raise InapplicableError("formula inapplicable: disconnected factor")
        return min(
            g.vertex_connectivity * h.n,
            h.vertex_connectivity * g.n,
            min_degree(g) + min_degree(h),
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
    # strong
    if not (is_connected(g) and is_connected(h)):
        raise InapplicableError("formula inapplicable: disconnected factor")
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
    for name, f in (("first", g), ("second", h)):
        if not is_connected(f):
            raise InapplicableError(f"formula inapplicable: {name} factor disconnected")
        if is_bipartite(f):
            raise InapplicableError(f"formula inapplicable: {name} factor bipartite")
    return min(
        2 * g.edge_connectivity * h.n,
        2 * h.edge_connectivity * g.n,
        min_degree(g) * min_degree(h),
    )


def _require_product_factors(kind: ProductKind, g: Graph, h: Graph) -> None:
    for name, f in (("first", g), ("second", h)):
        if f.n < 2:
            raise InapplicableError(f"bounds inapplicable: trivial {name} factor")
        if not is_connected(f):
            raise InapplicableError(
                f"bounds inapplicable: disconnected {name} factor"
            )
    if kind is ProductKind.STRONG and is_complete(g) and is_complete(h):
        raise InapplicableError(
            "bounds inapplicable: strong product of two complete graphs"
        )
    if kind is ProductKind.DIRECT:
        if is_bipartite(g) or is_bipartite(h):
            raise InapplicableError(
                "bounds inapplicable: direct-product bounds need nonbipartite factors"
            )


def product_mc_bounds(
    kind: ProductKind,
    g: Graph,
    h: Graph,
    *,
    allow_complete_first_factor: bool = False,
) -> BoundInterval:
    """mc interval for a product, selecting the branch by factor tree-ness.

    The cartesian and strong cases are unordered: "G tree, H not" is handled
    by swapping the factors into the stated mixed branch.  Lexicographic
    branches are order-sensitive and never swap.  Direct-product bounds need
    both factors nonbipartite.

    Lexicographic upper bounds lean on the first factor being non-complete
    (its product connectivity formula has that hypothesis), and they really
    do fail otherwise: the single-edge graph composed with itself has mc 6
    against a stated ceiling of 5.  Complete first factors are therefore
    refused unless ``allow_complete_first_factor`` asks for the stated form
    anyway, which the double-Petersen pipeline needs to reproduce its
    published ceiling.
    """
    kind = ProductKind(kind)
    _require_product_factors(kind, g, h)
    if (
        kind is ProductKind.LEXICOGRAPHIC
        and is_complete(g)
        and not allow_complete_first_factor
    ):
        raise InapplicableError(
            "bounds inapplicable: lexicographic upper bounds need a "
            "non-complete first factor"
        )
    tg, th = is_tree(g), is_tree(h)

    if kind is ProductKind.CARTESIAN:
        if not tg and not th:
            return BoundInterval(
                lower=max(g.m * h.n, h.m * g.n) + 2,
                upper=g.m * h.n + (h.m - 1) * g.n + 1,
                lower_source="Thm2(1)",
                upper_source="Thm2(1)",
                case="Thm2(1) neither factor a tree",
            )
        if tg and th:
            return BoundInterval(
                lower=g.m * h.m + 1,
                upper=g.m * h.m + 2,
                lower_source="Thm2(3)",
                upper_source="Thm2(3)",
                case="Thm2(3) both factors trees",
            )
        swapped = tg  # put the non-tree factor first
        a, b = (h, g) if swapped else (g, h)
        return BoundInterval(
            lower=b.m * a.n + 2,
            upper=a.m * b.n + 1,
            lower_source="Thm2(2)",
            upper_source="Thm2(2)",
            case="Thm2(2) non-tree with tree"
            + (" (factors swapped)" if swapped else ""),
        )

    if kind is ProductKind.LEXICOGRAPHIC:
        strain = " [complete first factor: stated form]" if is_complete(g) else ""
        stated_upper = h.m * g.n + g.m * h.n * h.n - h.n + 1
        if not tg and not th:
            return BoundInterval(
                lower=g.m * h.n * h.n + 2,
                upper=stated_upper,
                lower_source="Thm3(1)",
                upper_source="Thm3(1)",
                case="Thm3(1) neither factor a tree" + strain,
            )
        if not tg and th:
            return BoundInterval(
                lower=h.m * g.n * (h.n + 1) + 2,
                upper=stated_upper,
                lower_source="Thm3(2)",
                upper_source="Thm3(2)",
                case="Thm3(2) G not a tree, H a tree" + strain,
            )
        if tg and not th:
            # Both stated endpoints of this branch disagree with what its own
            # derivation yields.  The stated lower swaps the factors' roles
            # and can exceed the connectivity ceiling outright; the stated
            # upper is looser than the derivation for nG > 2.  The derived
            # values are reported and the stated ones kept in the case
            # descriptor for the discrepancy report.
            stated_lower = h.m * g.n * g.n + 2
            derived_lower = g.m * h.n * h.n + 2
            derived_upper = h.m * g.n + g.m * h.n * h.n - g.n * h.n + h.n + 1
            return BoundInterval(
                lower=derived_lower,
                upper=derived_upper,
                lower_source="Thm3(3)",
                upper_source="Thm3(3)",
                case=(
                    "Thm3(3) G a tree, H not a tree"
                    f" [stated bounds {stated_lower}..{stated_upper},"
                    f" derived {derived_lower}..{derived_upper}]" + strain
                ),
            )
        return BoundInterval(
            lower=h.m * g.m * (h.n + 1) + 1,
            upper=h.m * g.m * (h.n + 1) + h.n,
            lower_source="Thm3(4)",
            upper_source="Thm3(4)",
            case="Thm3(4) both factors trees" + strain,
        )

    if kind is ProductKind.STRONG:
        if not tg and not th:
            return BoundInterval(
                lower=max(
                    g.m * h.n + 2 * h.m * g.m + 2,
                    h.m * g.n + 2 * h.m * g.m + 2,
                ),
                upper=g.m * h.n + h.m * g.n + 2 * h.m * g.m - min(g.n, h.n) + 1,
                lower_source="Thm4(1)",
                upper_source="Thm4(1)",
                case="Thm4(1) neither factor a tree",
            )
        if tg and th:
            return BoundInterval(
                lower=3 * h.m * g.m + 1,
                upper=3 * h.m * g.m + min(g.n, h.n),
                lower_source="Thm4(3)",
                upper_source="Thm4(3)",
                case="Thm4(3) both factors trees",
            )
        swapped = tg
        a, b = (h, g) if swapped else (g, h)
        return BoundInterval(
            lower=b.m * a.n + 2 * b.m * a.m + 2,
            upper=a.m * b.n + 2 * b.m * a.m + 1,
            lower_source="Thm4(2)",
            upper_source="Thm4(2)",
            case="Thm4(2) non-tree with tree"
            + (" (factors swapped)" if swapped else ""),
        )

    # direct
    return BoundInterval(
        lower=h.m * g.m + 2,
        upper=2 * h.m * g.m + 1,
        lower_source="Thm5",
        upper_source="Thm5",
        case="Thm5 nonbipartite factors",
    )


def corollary_lower(
    kind: ProductKind, g: Graph, h: Graph, mc_g: int, mc_h: int
) -> int:
    """mc lower bound for a product in terms of the factors' mc values.

    The caller supplies mc(G) and mc(H); the branch follows the factor
    tree-ness exactly as in :func:`product_mc_bounds`, with the same swap
    convention for the unordered kinds.
    """
    kind = ProductKind(kind)
    for name, f in (("first", g), ("second", h)):
        if not is_connected(f):
            raise InapplicableError(f"bound inapplicable: {name} factor disconnected")
    tg, th = is_tree(g), is_tree(h)

    if kind is ProductKind.CARTESIAN:
        if not tg and not th:
            return max(mc_g * h.n + 2, mc_h * g.n + 2)
        if tg and th:
            return mc_g * mc_h + 1
        if tg:  # swap so the tree factor sits second
            g, h, mc_g, mc_h = h, g, mc_h, mc_g
        return mc_h * g.n + 2

    if kind is ProductKind.LEXICOGRAPHIC:
        if not tg and not th:
            return mc_g * h.n * h.n + 2
        if not tg and th:
            return mc_h * g.n * (h.n + 1) + 2
        if tg and not th:
            # follows the derived tree-branch bound; the stated corollary
            # form inherits the swapped-factor typo refuted by (P3, C3)
            return mc_g * h.n * h.n + 2
        return mc_g * mc_h * (h.n + 1) + 1

    if kind is ProductKind.STRONG:
        if not tg and not th:
            return max(
                mc_g * h.n + 2 * mc_h * mc_g + 2,
                mc_h * g.n + 2 * mc_h * mc_g + 2,
            )
        if tg and th:
            return 3 * mc_h * mc_g + 1
        if tg:
            g, h, mc_g, mc_h = h, g, mc_h, mc_g
        return mc_h * g.n + 2 * mc_h * mc_g + 2

    # direct
    if is_bipartite(g) and is_bipartite(h):
        raise InapplicableError(
            "bound inapplicable: needs a nonbipartite factor"
        )
    return mc_h * mc_g + 2


def corollary_source(kind: ProductKind, g: Graph, h: Graph) -> str:
    """Catalog tag of the corollary branch that applies to (kind, g, h)."""
    kind = ProductKind(kind)
    tg, th = is_tree(g), is_tree(h)
    if kind is ProductKind.DIRECT:
        return "CorDirect"
    if kind is ProductKind.LEXICOGRAPHIC:
        branch = 1 if not tg and not th else 2 if not tg else 3 if not th else 4
        return f"Cor4lex({branch})"
    branch = 1 if not tg and not th else 3 if tg and th else 2
    return f"Cor3({branch})" if kind is ProductKind.CARTESIAN else f"Cor5({branch})"
