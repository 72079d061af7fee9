"""Interconnection-network families and the proposition report.

Families are built by iterated, left-associated products (A op B op C means
(A op B) op C), matching how the report splits each instance into a first
block G and a remainder H.  Generators preserve coordinate labels.
"""

from __future__ import annotations

import csv
import io as _io
from dataclasses import dataclass
from math import comb

from .bounds import product_mc_bounds
from .exact import mc_exact
from .graph import Graph, build_graph, is_complete
from .mc import (
    all_distinct_coloring,
    check_mc_coloring,
    mc_bounds_basic,
    mc_bounds_combined,
    theorem1_certificate,
)
from .products import ProductKind, make_product

__all__ = [
    "NetworkSpec",
    "generate",
    "PropositionRow",
    "proposition_report",
    "report_to_csv",
    "report_to_json_obj",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "petersen_graph",
    "hypercube_graph",
]


# -- base graphs -------------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("clique needs at least 1 vertex")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to each leaf."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    return build_graph(n, [(0, i) for i in range(1, n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def hypercube_graph(dim: int) -> Graph:
    """The dim-cube as an iterated product of single edges (one vertex for dim 0)."""
    if dim < 0:
        raise ValueError("hypercube dimension must be >= 0")
    if dim == 0:
        return build_graph(1, [])
    return _iterated(ProductKind.CARTESIAN, [path_graph(2)] * dim)


def _iterated(kind: ProductKind, factors: list[Graph]) -> Graph:
    """Left-associated iterated product; plain graph when only one factor."""
    result = factors[0]
    for nxt in factors[1:]:
        result = make_product(kind, result, nxt)
    return result


# -- family specs ------------------------------------------------------------

FAMILIES = (
    "path",
    "cycle",
    "clique",
    "star",
    "hypercube",
    "petersen",
    "grid",
    "mesh",
    "lex_mesh",
    "torus",
    "lex_torus",
    "generalized_hypercube",
    "lex_generalized_hypercube",
    "hyper_petersen",
    "hl",
)


@dataclass(frozen=True)
class NetworkSpec:
    """A family name plus its integer parameters."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        p = self.params
        fam = self.family
        if fam == "petersen":
            if p:
                raise ValueError("petersen takes no parameters")
            return
        if not p:
            raise ValueError(f"{fam} needs parameters")
        floor = 0 if fam == "hypercube" else 1  # the 0-cube is one vertex
        if any(x < floor for x in p):
            raise ValueError(f"{fam} parameters must be positive")
        if fam in ("path", "cycle", "clique", "star", "hypercube", "hyper_petersen", "hl"):
            if len(p) != 1:
                raise ValueError(f"{fam} takes exactly one parameter")
        if fam == "cycle" and p[0] < 3:
            raise ValueError("cycle size must be at least three")
        if fam == "star" and p[0] < 2:
            raise ValueError("star needs at least two vertices")
        if fam == "grid" and len(p) != 2:
            raise ValueError("grid takes exactly two parameters")
        if fam in ("torus", "lex_torus") and any(x < 3 for x in p):
            raise ValueError("torus rings must have size at least three")
        if fam in ("generalized_hypercube", "lex_generalized_hypercube") and any(
            x < 2 for x in p
        ):
            raise ValueError("generalized hypercube cliques need size at least two")
        if fam in ("hyper_petersen", "hl") and p[0] < 3:
            raise ValueError(f"{fam} needs parameter n >= 3")


def generate(spec: NetworkSpec) -> Graph:
    """Build the family instance; product families keep product metadata."""
    fam, p = spec.family, spec.params
    if fam == "path":
        return path_graph(p[0])
    if fam == "cycle":
        return cycle_graph(p[0])
    if fam == "clique":
        return complete_graph(p[0])
    if fam == "star":
        return star_graph(p[0])
    if fam == "hypercube":
        return hypercube_graph(p[0])
    if fam == "petersen":
        return petersen_graph()
    if fam in ("grid", "mesh"):
        return _iterated(ProductKind.CARTESIAN, [path_graph(k) for k in p])
    if fam == "lex_mesh":
        return _iterated(ProductKind.LEXICOGRAPHIC, [path_graph(k) for k in p])
    if fam == "torus":
        return _iterated(ProductKind.CARTESIAN, [cycle_graph(k) for k in p])
    if fam == "lex_torus":
        return _iterated(ProductKind.LEXICOGRAPHIC, [cycle_graph(k) for k in p])
    if fam == "generalized_hypercube":
        return _iterated(ProductKind.CARTESIAN, [complete_graph(k) for k in p])
    if fam == "lex_generalized_hypercube":
        return _iterated(ProductKind.LEXICOGRAPHIC, [complete_graph(k) for k in p])
    if fam == "hyper_petersen":
        return make_product(
            ProductKind.CARTESIAN, hypercube_graph(p[0] - 3), petersen_graph()
        )
    if fam == "hl":
        return make_product(
            ProductKind.LEXICOGRAPHIC, hypercube_graph(p[0] - 3), petersen_graph()
        )
    raise AssertionError(fam)


# -- proposition report ------------------------------------------------------


@dataclass(frozen=True)
class PropositionRow:
    family: str
    params: tuple[int, ...]
    proposition: str
    formula_value_or_interval: str
    evaluator: str
    evaluator_value: str
    agree: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": list(self.params),
            "proposition": self.proposition,
            "formula_value_or_interval": self.formula_value_or_interval,
            "evaluator": self.evaluator,
            "evaluator_value": self.evaluator_value,
            "agree": self.agree,
        }


_EXACT_VERTEX_CAP = 10
_EXACT_EDGE_CAP = 20


def _exact_feasible(g: Graph) -> bool:
    return is_complete(g) or (g.n <= _EXACT_VERTEX_CAP and g.m <= _EXACT_EDGE_CAP)


def _equality_row(
    spec: NetworkSpec, proposition: str, formula: int
) -> PropositionRow:
    """Row for a proposition asserting an exact mc value."""
    g = generate(spec)
    evaluators = []
    values = []
    if is_complete(g) and g.n >= 2:
        # every pair adjacent, so the all-distinct coloring is valid
        witness = all_distinct_coloring(g)
        ok, _ = check_mc_coloring(g, witness)
        upper = mc_bounds_basic(g).upper
        if ok and witness.color_count == upper:
            evaluators.append("all-distinct")
            values.append(witness.color_count)
    else:
        cert = theorem1_certificate(g)
        if cert.holds:
            evaluators.append("theorem1-certificate(" + ",".join(cert.conditions) + ")")
            values.append(cert.value)
    if _exact_feasible(g):
        result = mc_exact(g)
        if result.value is not None:
            evaluators.append("mc_exact")
            values.append(result.value)
    agree = bool(values) and all(v == formula for v in values)
    return PropositionRow(
        family=spec.family,
        params=spec.params,
        proposition=proposition,
        formula_value_or_interval=str(formula),
        evaluator="+".join(evaluators) if evaluators else "none",
        evaluator_value=",".join(str(v) for v in values) if values else "-",
        agree=agree,
    )


def _lower_bound_row(
    spec: NetworkSpec,
    proposition: str,
    formula: int,
    kind: ProductKind,
    split: int,
) -> PropositionRow:
    """Row for a proposition asserting a lower bound on an iterated product.

    ``split`` is how many leading factors form the first block G.  The
    proposition is reproduced by the displayed term |E(G)||V(H)| + 2 of the
    cartesian lower bound, |E(G)||V(H)|^2 + 2 of the lexicographic one (the
    max of an unordered branch may pick the other factor, so the comparison
    uses the stated term).
    """
    g_all = generate(spec)
    G = generate(NetworkSpec(spec.family, spec.params[:split]))
    H = generate(NetworkSpec(spec.family, spec.params[split:]))
    h_power = 2 if kind is ProductKind.LEXICOGRAPHIC else 1
    term_value = G.m * H.n**h_power + 2
    # only the branch lower is consumed here, and the lexicographic lower
    # bounds stay valid over a complete first block
    interval = product_mc_bounds(kind, G, H, allow_complete_first_factor=True)
    # the full branch lower can only strengthen the displayed term
    term_consistent = term_value == formula and interval.lower >= term_value

    value: int | None = None
    evaluator = f"product-term[{interval.lower_source}]"
    if is_complete(g_all) and g_all.n >= 2:
        value = mc_bounds_basic(g_all).upper
        evaluator += "+all-distinct"
    else:
        cert = theorem1_certificate(g_all)
        if cert.holds:
            value = cert.value
            evaluator += "+theorem1-certificate(" + ",".join(cert.conditions) + ")"
    agree = term_consistent and value is not None and value >= formula
    return PropositionRow(
        family=spec.family,
        params=spec.params,
        proposition=proposition,
        formula_value_or_interval=f">={formula}",
        evaluator=evaluator,
        evaluator_value=str(value) if value is not None else "-",
        agree=agree,
    )


def _hl4_row() -> PropositionRow:
    interval = mc_bounds_combined(generate(NetworkSpec("hl", (4,))))
    agree = (interval.lower, interval.upper) == (112, 121)
    return PropositionRow(
        family="hl",
        params=(4,),
        proposition="Prop5",
        formula_value_or_interval="[112,121]",
        evaluator=f"combined-bounds[{interval.lower_source},{interval.upper_source}]",
        evaluator_value=f"[{interval.lower},{interval.upper}]",
        agree=agree,
    )


def proposition_report() -> list[PropositionRow]:
    """Evaluate the default instance of every proposition row (all desk scale)."""
    rows: list[PropositionRow] = []

    def p(family: str, *params: int) -> NetworkSpec:
        return NetworkSpec(family, tuple(params))

    # exact grid values: mc = n*m - n - m + 2
    for nm in ((3, 2), (4, 2), (3, 3)):
        n_, m_ = nm
        rows.append(_equality_row(p("grid", *nm), "Prop1(i)", n_ * m_ - n_ - m_ + 2))
    spec = p("lex_mesh", 4, 3)
    rows.append(_equality_row(spec, "Prop1(ii)", 3 * 3 * 4 - 3 * 3 - 4 + 2))
    spec = p("mesh", 2, 2, 2, 2)
    l1, l2, rest = 2, 2, 2 * 2
    rows.append(
        _lower_bound_row(
            spec,
            "Prop2(i)",
            (2 * l1 * l2 - l1 - l2) * rest + 2,
            ProductKind.CARTESIAN,
            split=2,
        )
    )
    spec = p("lex_mesh", 2, 2, 2, 2)
    l1, l2, rest = 2, 2, 2 * 2
    rows.append(
        _lower_bound_row(
            spec,
            "Prop2(ii)",
            (l1 * l2 * l2 + l1 * l2 - l1 - l2 * l2) * rest * rest + 2,
            ProductKind.LEXICOGRAPHIC,
            split=2,
        )
    )
    spec = p("torus", 3, 3, 3, 3)
    rows.append(
        _lower_bound_row(
            spec,
            "Prop3(i)",
            3 * 3 * 3 * 3 + 2,
            ProductKind.CARTESIAN,
            split=1,
        )
    )
    spec = p("lex_torus", 3, 3, 3, 3)
    rows.append(
        _lower_bound_row(
            spec,
            "Prop3(ii)",
            3 * (3 * 3 * 3) ** 2 + 2,
            ProductKind.LEXICOGRAPHIC,
            split=1,
        )
    )
    for params in ((2, 2, 2), (3, 2, 2)):
        spec = p("generalized_hypercube", *params)
        m1 = params[0]
        rest = 1
        for k in params[1:]:
            rest *= k
        rows.append(_equality_row(spec, "Prop4(i)", comb(m1, 2) * rest + 2))
        # Prop4(i) states a lower bound; at these sizes the diameter
        # certificate pins the exact value to the same expression.
    spec = p("lex_generalized_hypercube", 2, 3)
    rows.append(_equality_row(spec, "Prop4(ii)", comb(6, 2)))
    for fam in ("hyper_petersen", "hl"):
        spec = p(fam, 3)
        rows.append(_equality_row(spec, "Prop5", 7))
    spec = p("hyper_petersen", 4)
    rows.append(_equality_row(spec, "Prop5", 22))
    rows.append(_hl4_row())
    return rows


def report_to_csv(rows: list[PropositionRow]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "family",
            "params",
            "proposition",
            "formula_value_or_interval",
            "evaluator",
            "evaluator_value",
            "agree",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                row.family,
                " ".join(str(x) for x in row.params),
                row.proposition,
                row.formula_value_or_interval,
                row.evaluator,
                row.evaluator_value,
                str(row.agree).lower(),
            ]
        )
    return buf.getvalue()


def report_to_json_obj(rows: list[PropositionRow]) -> list[dict]:
    return [row.to_dict() for row in rows]
