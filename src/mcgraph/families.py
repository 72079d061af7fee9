"""Interconnection-network families and the proposition report.

Every family is one row of ``_FAMILIES``: the product kind (None for a plain
graph), the factors the parameters give, each with its size and its builder,
the parameter count (None for any positive count), the least parameter
value, and the message for a value below it.  ``NetworkSpec`` validates
against the row and ``generate`` sizes the instance from its factors' sizes,
refusing one above ``MAX_PRODUCT_SIZE`` before any factor is built, then
builds its iterated, left-associated product (A op B op C means
(A op B) op C), matching how the report splits each instance into a first
block G and a remainder H.  Generators preserve coordinate labels.

Every value the report attributes to an evaluator is a coloring that passed
``check_mc_coloring``, a Theorem 1 certificate, or an ``mc_exact`` witness.
"""

from __future__ import annotations

import csv
import io as _io
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from math import comb, prod
from typing import Callable, NamedTuple

from .bounds import product_mc_bounds
from .graph import Graph, build_graph, is_complete
from .mc import (
    all_distinct_coloring,
    check_mc_coloring,
    mc_bounds_combined,
    theorem1_certificate,
)
from .products import MAX_PRODUCT_SIZE, ProductKind, make_product, product_size
from .treecover import mc_exact

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
    return generate(NetworkSpec("hypercube", (dim,)))


# -- the family table --------------------------------------------------------


class _Factor(NamedTuple):
    """One factor of an instance: its (vertices, edges), and how to build it."""

    size: tuple[int, int]
    build: Callable[[], Graph]


class _Family(NamedTuple):
    kind: ProductKind | None  # None: a plain graph, one factor
    factors: Callable[[tuple[int, ...]], list[_Factor]]
    count: int | None  # None: any positive number of parameters
    floor: int
    below_floor: str  # follows the family name in the error message


CART, LEX = ProductKind.CARTESIAN, ProductKind.LEXICOGRAPHIC
_POSITIVE = "parameters must be positive"


def _each(
    base: Callable[[int], Graph], size: Callable[[int], tuple[int, int]]
) -> Callable[[tuple[int, ...]], list[_Factor]]:
    """One factor ``base(k)``, of ``size(k)`` vertices and edges, per parameter k."""
    return lambda p: [_Factor(size(k), partial(base, k)) for k in p]


_PATHS = _each(path_graph, lambda k: (k, k - 1))
_CYCLES = _each(cycle_graph, lambda k: (k, k))
_CLIQUES = _each(complete_graph, lambda k: (k, comb(k, 2)))
_STARS = _each(star_graph, lambda k: (k, k - 1))
_PETERSEN = _Factor((10, 15), petersen_graph)


def _cube(p: tuple[int, ...]) -> list[_Factor]:
    # the 0-cube is one vertex
    return _PATHS((2,)) * p[0] or _CLIQUES((1,))


def _cube_petersen(p: tuple[int, ...]) -> list[_Factor]:
    cube = _cube((p[0] - 3,))
    size = _size("hypercube", CART, cube)
    return [_Factor(size, partial(_build, CART, cube)), _PETERSEN]


_FAMILIES: dict[str, _Family] = {
    "path": _Family(None, _PATHS, 1, 1, _POSITIVE),
    "cycle": _Family(None, _CYCLES, 1, 3, "size must be at least three"),
    "clique": _Family(None, _CLIQUES, 1, 1, _POSITIVE),
    "star": _Family(None, _STARS, 1, 2, "needs at least two vertices"),
    "hypercube": _Family(CART, _cube, 1, 0, "parameters must be non-negative"),
    "petersen": _Family(None, lambda p: [_PETERSEN], 0, 0, ""),
    "grid": _Family(CART, _PATHS, 2, 1, _POSITIVE),
    "mesh": _Family(CART, _PATHS, None, 1, _POSITIVE),
    "lex_mesh": _Family(LEX, _PATHS, None, 1, _POSITIVE),
    "torus": _Family(CART, _CYCLES, None, 3, "rings must have size at least three"),
    "lex_torus": _Family(LEX, _CYCLES, None, 3, "rings must have size at least three"),
    "generalized_hypercube": _Family(
        CART, _CLIQUES, None, 2, "cliques need size at least two"
    ),
    "lex_generalized_hypercube": _Family(
        LEX, _CLIQUES, None, 2, "cliques need size at least two"
    ),
    "hyper_petersen": _Family(CART, _cube_petersen, 1, 3, "needs parameter n >= 3"),
    "hl": _Family(LEX, _cube_petersen, 1, 3, "needs parameter n >= 3"),
}
FAMILIES = tuple(_FAMILIES)
_COUNT_WORDS = ("no parameters", "exactly one parameter", "exactly two parameters")


@dataclass(frozen=True)
class NetworkSpec:
    """A family name plus its integer parameters."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown family {self.family!r}")
        p = self.params
        if not p and row.count != 0:
            raise ValueError(f"{self.family} needs parameters")
        if row.count is not None and len(p) != row.count:
            raise ValueError(f"{self.family} takes {_COUNT_WORDS[row.count]}")
        if any(x < row.floor for x in p):
            raise ValueError(f"{self.family} {row.below_floor}")


def _size(family: str, kind: ProductKind | None, factors: list[_Factor]) -> tuple[int, int]:
    """(vertices, edges) of the instance, from its factors' sizes alone.

    Raises ``ValueError`` when the instance, or a product on the way to it,
    has more than ``MAX_PRODUCT_SIZE`` vertices or edges.  A cartesian or
    lexicographic product has at least the vertices and the edges of each
    factor, so only a one-factor instance is checked on its own.
    """
    sizes = [f.size for f in factors]
    if len(sizes) > 1:
        return product_size(kind, sizes)
    n, m = sizes[0]
    if max(n, m) > MAX_PRODUCT_SIZE:
        raise ValueError(
            f"{family} too large: {n} vertices and {m} edges "
            f"(at most {MAX_PRODUCT_SIZE} of each)"
        )
    return n, m


def _build(kind: ProductKind | None, factors: list[_Factor]) -> Graph:
    """Left-associated iterated product; plain graph when only one factor."""
    result = factors[0].build()
    for nxt in factors[1:]:
        result = make_product(kind, result, nxt.build())
    return result


def generate(spec: NetworkSpec) -> Graph:
    """Build the family instance; product families keep product metadata.

    The instance is sized by formula first, so one too large to build is
    refused before any factor is made.
    """
    row = _FAMILIES[spec.family]
    factors = row.factors(spec.params)
    _size(spec.family, row.kind, factors)
    return _build(row.kind, factors)


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
        return {**asdict(self), "params": list(self.params)}


_EXACT_VERTEX_CAP = 10
_EXACT_EDGE_CAP = 20


def _evaluations(g: Graph, exact: bool) -> list[tuple[str, int]]:
    """Each value of mc(g) an evaluator settles, with the evaluator's name.

    A complete graph gets the all-distinct coloring once the checker accepts
    it, any other graph its Theorem 1 certificate when one holds; ``exact``
    adds the ``mc_exact`` value within the desk-scale caps.
    """
    found: list[tuple[str, int]] = []
    complete = g.n >= 2 and is_complete(g)
    if complete:
        witness = all_distinct_coloring(g)
        if check_mc_coloring(g, witness)[0]:
            found.append(("all-distinct", witness.color_count))
    else:
        cert = theorem1_certificate(g)
        if cert.holds:
            name = f"theorem1-certificate({','.join(cert.conditions)})"
            found.append((name, cert.value))
    if exact and (complete or (g.n <= _EXACT_VERTEX_CAP and g.m <= _EXACT_EDGE_CAP)):
        result = mc_exact(g)
        if result.value is not None:
            found.append(("mc_exact", result.value))
    return found


def _row(
    proposition: str,
    family: str,
    params: tuple[int, ...],
    formula: int,
    split: int | None = None,
) -> PropositionRow:
    """Row for a proposition asserting mc = ``formula``, or, given ``split``,
    mc >= ``formula`` on an iterated product.

    ``split`` is how many leading factors form the first block G.  A lower
    bound is reproduced by the displayed term |E(G)||V(H)| + 2 of the
    cartesian lower bound, |E(G)||V(H)|^2 + 2 of the lexicographic one (the
    max of an unordered branch may pick the other factor, so the comparison
    uses the stated term), and by every evaluator value reaching it.
    """
    g = generate(NetworkSpec(family, params))
    found = _evaluations(g, exact=split is None)
    names = [name for name, _ in found]
    values = [value for _, value in found]
    if split is None:
        stated = str(formula)
        agree = bool(values) and all(v == formula for v in values)
    else:
        kind = _FAMILIES[family].kind
        G = generate(NetworkSpec(family, params[:split]))
        H = generate(NetworkSpec(family, params[split:]))
        term = G.m * H.n ** (2 if kind is LEX else 1) + 2
        # only the branch lower is consumed here, and the lexicographic lower
        # bounds stay valid over a complete first block
        interval = product_mc_bounds(kind, G, H, allow_complete_first_factor=True)
        stated = f">={formula}"
        names.insert(0, f"product-term[{interval.lower_source}]")
        # the full branch lower can only strengthen the displayed term
        term_ok = term == formula and interval.lower >= term
        agree = term_ok and bool(values) and all(v >= formula for v in values)
    return PropositionRow(
        family=family,
        params=params,
        proposition=proposition,
        formula_value_or_interval=stated,
        evaluator="+".join(names) or "none",
        evaluator_value=",".join(map(str, values)) or "-",
        agree=agree,
    )


def _hl4_row() -> PropositionRow:
    interval = mc_bounds_combined(generate(NetworkSpec("hl", (4,))))
    return PropositionRow(
        family="hl",
        params=(4,),
        proposition="Prop5",
        formula_value_or_interval="[112,121]",
        evaluator=f"combined-bounds[{interval.lower_source},{interval.upper_source}]",
        evaluator_value=f"[{interval.lower},{interval.upper}]",
        agree=(interval.lower, interval.upper) == (112, 121),
    )


def proposition_report() -> list[PropositionRow]:
    """Evaluate the default instance of every proposition row (all desk scale)."""
    # Prop2: a first block P_l1 x P_l2, then a remainder of order ``rest``
    l1 = l2 = 2
    rest = 2 * 2
    prop2_cartesian = (2 * l1 * l2 - l1 - l2) * rest + 2
    prop2_lexicographic = (l1 * l2 * l2 + l1 * l2 - l1 - l2 * l2) * rest * rest + 2
    return [
        # exact grid values: mc = n*m - n - m + 2
        *(
            _row("Prop1(i)", "grid", (n, m), n * m - n - m + 2)
            for n, m in ((3, 2), (4, 2), (3, 3))
        ),
        _row("Prop1(ii)", "lex_mesh", (4, 3), 3 * 3 * 4 - 3 * 3 - 4 + 2),
        _row("Prop2(i)", "mesh", (l1, l2, 2, 2), prop2_cartesian, split=2),
        _row("Prop2(ii)", "lex_mesh", (l1, l2, 2, 2), prop2_lexicographic, split=2),
        _row("Prop3(i)", "torus", (3, 3, 3, 3), 3 * 3 * 3 * 3 + 2, split=1),
        _row("Prop3(ii)", "lex_torus", (3, 3, 3, 3), 3 * (3 * 3 * 3) ** 2 + 2, split=1),
        # Prop4(i) states a lower bound; at these sizes the diameter
        # certificate pins the exact value to the same expression.
        *(
            _row(
                "Prop4(i)", "generalized_hypercube", p, comb(p[0], 2) * prod(p[1:]) + 2
            )
            for p in ((2, 2, 2), (3, 2, 2))
        ),
        _row("Prop4(ii)", "lex_generalized_hypercube", (2, 3), comb(2 * 3, 2)),
        _row("Prop5", "hyper_petersen", (3,), 7),
        _row("Prop5", "hl", (3,), 7),
        _row("Prop5", "hyper_petersen", (4,), 22),
        _hl4_row(),
    ]


def report_to_csv(rows: list[PropositionRow]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f.name for f in fields(PropositionRow)])
    for row in rows:
        family, params, *middle, agree = astuple(row)
        params_text = " ".join(map(str, params))
        writer.writerow([family, params_text, *middle, str(agree).lower()])
    return buf.getvalue()


def report_to_json_obj(rows: list[PropositionRow]) -> list[dict]:
    return [row.to_dict() for row in rows]
