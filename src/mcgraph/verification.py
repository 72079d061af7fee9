"""Cross-checking suites: every closed form is replayed against direct
computation on small instances.

Each suite returns a :class:`SuiteResult` whose failures are genuine contract
violations, while findings document places where a stated closed form and the
recomputed value part ways on a concrete instance.  Findings never fail a
run; they are the discrepancy ledger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .bounds import (
    corollary_lower,
    corollary_source,
    edge_conn_direct_formula,
    kappa_formula,
    product_mc_bounds,
)
from .errors import InapplicableError
from .exact import mc_exact, mc_exact_naive
from .families import (
    NetworkSpec,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    proposition_report,
    star_graph,
)
from .graph import (
    Graph,
    complement,
    diameter,
    distances_from,
    is_bipartite,
    is_connected,
    metrics,
    relabel,
    vertex_connectivity,
)
from .mc import (
    check_mc_coloring,
    mc_bounds_basic,
    spanning_tree_coloring,
    theorem1_certificate,
)
from .products import (
    ProductKind,
    distance_formula,
    edge_count_formula,
    make_product,
    recover_factors,
    swap_map,
)
from .smallgraphs import (
    connected_corpus,
    random_connected_graph,
    random_permutation,
)

__all__ = [
    "SuiteResult",
    "factor_pool",
    "pool_pairs",
    "suite_core",
    "suite_products",
    "suite_bounds",
    "suite_propositions",
    "SUITES",
]


@dataclass
class SuiteResult:
    name: str
    passed: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, invariant: str, condition: bool, detail: str) -> None:
        if condition:
            self.passed[invariant] = self.passed.get(invariant, 0) + 1
        else:
            self.failures.append(f"{invariant}: {detail}")

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.passed):
            lines.append(f"PASS {self.name}.{name} ({self.passed[name]} checks)")
        for failure in self.failures:
            lines.append(f"FAIL {self.name}.{failure}")
        for finding in self.findings:
            lines.append(f"FINDING {finding}")
        return lines


def factor_pool() -> list[tuple[str, Graph]]:
    """The standard factor pool used by the product suites."""
    return [
        ("P2", path_graph(2)),
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("K3", complete_graph(3)),
        ("K4", complete_graph(4)),
        ("star4", star_graph(4)),
    ]


# -- exhaustive cut oracles (test-style, independent of the flow code) -------


def min_vertex_cut_exhaustive(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects g; n - 1 for cliques."""
    if not is_connected(g):
        return 0
    n = g.n
    for k in range(n - 1):
        for subset in combinations(range(n), k):
            gone = set(subset)
            kept = [v for v in range(n) if v not in gone]
            if len(kept) <= 1:
                continue
            seen = {kept[0]}
            stack = [kept[0]]
            while stack:
                u = stack.pop()
                for w in g.adjacency[u]:
                    if w not in gone and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(kept):
                return k
    return n - 1


def min_edge_cut_exhaustive(g: Graph) -> int:
    if not is_connected(g):
        return 0
    for k in range(g.m + 1):
        for removed in combinations(range(g.m), k):
            gone = set(removed)
            kept_edges = [e for i, e in enumerate(g.edges) if i not in gone]
            h = Graph(g.n, tuple(kept_edges))
            if not is_connected(h):
                return k
    return g.m


# -- suites -------------------------------------------------------------------


def suite_core(max_n: int = 6, seed: int = 0) -> SuiteResult:
    """Exact-engine equivalence plus the base graph invariants."""
    res = SuiteResult("core")
    rng = random.Random(seed)
    corpus = connected_corpus(max_n, max_edges=10)

    for g in corpus:
        naive = mc_exact_naive(g)
        solver = mc_exact(g)
        res.check(
            "oracle_equivalence",
            naive.value == solver.value,
            f"n={g.n} edges={g.edges}: naive {naive.value} vs tree-cover {solver.value}",
        )
        bounds = mc_bounds_basic(g)
        res.check(
            "sandwich",
            solver.value in bounds,
            f"n={g.n} edges={g.edges}: {solver.value} outside [{bounds.lower}, {bounds.upper}]",
        )
        ok, violation = check_mc_coloring(g, solver.witness)
        res.check(
            "witness_soundness",
            ok and solver.witness.color_count == solver.value,
            f"n={g.n} edges={g.edges}: witness invalid at {violation}",
        )
        st = spanning_tree_coloring(g)
        st_ok, _ = check_mc_coloring(g, st)
        res.check(
            "spanning_tree_floor",
            st_ok and st.color_count == g.m - g.n + 2,
            f"n={g.n} edges={g.edges}",
        )
        if g.n > 3:
            cert = theorem1_certificate(g)
            if cert.holds:
                res.check(
                    "certificate_soundness",
                    solver.value == g.m - g.n + 2,
                    f"n={g.n} edges={g.edges}: conditions {cert.conditions} "
                    f"but mc={solver.value} != {g.m - g.n + 2}",
                )
        mets = metrics(g)
        res.check(
            "kappa_oracle",
            mets.vertex_connectivity == min_vertex_cut_exhaustive(g),
            f"n={g.n} edges={g.edges}",
        )
        res.check(
            "kappa_prime_oracle",
            mets.edge_connectivity == min_edge_cut_exhaustive(g),
            f"n={g.n} edges={g.edges}",
        )
        if not mets.is_complete:
            res.check(
                "whitney_chain",
                mets.vertex_connectivity
                <= mets.edge_connectivity
                <= mets.min_degree,
                f"n={g.n} edges={g.edges}",
            )
        res.check(
            "complement_involution",
            complement(complement(g)).edges == g.edges,
            f"n={g.n}",
        )

    # relabeling spot checks: both engines are isomorphism-invariant
    sample = rng.sample(corpus, min(12, len(corpus)))
    for g in sample:
        h = relabel(g, random_permutation(g.n, rng))
        res.check(
            "relabel_invariance",
            mc_exact(h).value == mc_exact(g).value,
            f"n={g.n} edges={g.edges}",
        )

    # random larger instances
    for _ in range(8):
        n = 7
        m = rng.randint(n - 1, 10)
        g = random_connected_graph(n, m, rng)
        naive = mc_exact_naive(g)
        solver = mc_exact(g)
        res.check(
            "oracle_equivalence_n7",
            naive.value == solver.value,
            f"edges={g.edges}: naive {naive.value} vs tree-cover {solver.value}",
        )

    # distance symmetry and triangle inequality on sampled triples
    for _ in range(6):
        g = random_connected_graph(6, rng.randint(6, 12), rng)
        dist = [distances_from(g, v) for v in g.vertices()]
        for u, v, w in combinations(range(g.n), 3):
            res.check(
                "distance_metric",
                dist[u][v] == dist[v][u] and dist[u][w] <= dist[u][v] + dist[v][w],
                f"triple {(u, v, w)} in edges={g.edges}",
            )
    return res


def pool_pairs(limit_vertices: int):
    """Ordered factor-pool pairs whose product has at most ``limit_vertices``."""
    pool = factor_pool()
    for name_g, g in pool:
        for name_h, h in pool:
            if g.n * h.n <= limit_vertices:
                yield name_g, g, name_h, h


def suite_products(max_vertices: int = 24) -> SuiteResult:
    """Edge counts, distance formulas, diameters, commutativity checks."""
    res = SuiteResult("products")
    seen_unordered: set[tuple[str, str, ProductKind]] = set()
    lex_noncommutative_witnessed = False

    for name_g, g, name_h, h in pool_pairs(max_vertices):
        for kind in ProductKind:
            product = make_product(kind, g, h)
            res.check(
                "edge_count_formula",
                product.m == edge_count_formula(kind, g, h),
                f"{kind.value}({name_g},{name_h}): built {product.m}",
            )
            fg, fh = recover_factors(product)
            res.check(
                "factor_recovery",
                fg.edges == g.edges and fh.edges == h.edges,
                f"{kind.value}({name_g},{name_h})",
            )
        key = tuple(sorted((name_g, name_h)))
        cart = make_product(ProductKind.CARTESIAN, g, h)
        if (key[0], key[1], ProductKind.CARTESIAN) not in seen_unordered:
            seen_unordered.add((key[0], key[1], ProductKind.CARTESIAN))
            swapped = make_product(ProductKind.CARTESIAN, h, g)
            perm = swap_map(g.n, h.n)
            res.check(
                "cartesian_commutative",
                relabel(cart, perm).edges == swapped.edges,
                f"({name_g},{name_h})",
            )
        lex = make_product(ProductKind.LEXICOGRAPHIC, g, h)
        lex_swapped = make_product(ProductKind.LEXICOGRAPHIC, h, g)
        if relabel(lex, swap_map(g.n, h.n)).edges != lex_swapped.edges:
            lex_noncommutative_witnessed = True

        # distance formulas against BFS on the built product
        for kind in (
            ProductKind.CARTESIAN,
            ProductKind.LEXICOGRAPHIC,
            ProductKind.STRONG,
        ):
            product = make_product(kind, g, h)
            dist = [distances_from(product, v) for v in product.vertices()]
            bad = None
            for a in range(product.n):
                for b in range(a + 1, product.n):
                    expect = distance_formula(
                        kind, g, h, divmod(a, h.n), divmod(b, h.n)
                    )
                    if dist[a][b] != expect:
                        bad = (a, b, dist[a][b], expect)
                        break
                if bad:
                    break
            res.check(
                "distance_formula",
                bad is None,
                f"{kind.value}({name_g},{name_h}): {bad}",
            )
        res.check(
            "cartesian_diameter",
            diameter(cart) == diameter(g) + diameter(h),
            f"({name_g},{name_h})",
        )
        strong = make_product(ProductKind.STRONG, g, h)
        res.check(
            "strong_diameter",
            diameter(strong) == max(diameter(g), diameter(h)),
            f"({name_g},{name_h})",
        )
        direct = make_product(ProductKind.DIRECT, g, h)
        expected_connected = not (is_bipartite(g) and is_bipartite(h))
        res.check(
            "direct_connectivity",
            is_connected(direct) == expected_connected,
            f"({name_g},{name_h})",
        )
    res.check(
        "lexicographic_noncommutative",
        lex_noncommutative_witnessed,
        "no witness pair found in the pool",
    )
    return res


def suite_bounds(max_exact_vertices: int = 10) -> SuiteResult:
    """Connectivity formulas, theorem intervals, corollaries, discrepancies."""
    res = SuiteResult("bounds")
    weak_lowers: list[str] = []

    for name_g, g, name_h, h in pool_pairs(24):
        # vertex-connectivity formulas against the built products
        for kind in (
            ProductKind.CARTESIAN,
            ProductKind.LEXICOGRAPHIC,
            ProductKind.STRONG,
        ):
            try:
                predicted = kappa_formula(kind, g, h)
            except InapplicableError:
                continue
            actual = vertex_connectivity(make_product(kind, g, h))
            res.check(
                "kappa_formula",
                predicted == actual,
                f"{kind.value}({name_g},{name_h}): formula {predicted}, direct {actual}",
            )
        try:
            predicted = edge_conn_direct_formula(g, h)
        except InapplicableError:
            predicted = None
        if predicted is not None:
            actual = metrics(make_product(ProductKind.DIRECT, g, h)).edge_connectivity
            res.check(
                "edge_conn_direct",
                predicted == actual,
                f"direct({name_g},{name_h}): formula {predicted}, direct {actual}",
            )

        for kind in ProductKind:
            try:
                interval = product_mc_bounds(kind, g, h)
            except InapplicableError:
                continue
            product = make_product(kind, g, h)
            floor = product.m - product.n + 2
            if is_connected(product) and interval.lower < floor:
                weak_lowers.append(
                    f"{interval.lower_source} on {kind.value}({name_g},{name_h}): "
                    f"{interval.lower} < {floor}"
                )
            # corollary bound never exceeds the theorem bound (mc <= edges)
            if g.n * h.n <= max_exact_vertices:
                mc_g = mc_exact(g).value
                mc_h = mc_exact(h).value
                try:
                    cor = corollary_lower(kind, g, h, mc_g, mc_h)
                except InapplicableError:
                    cor = None
                if cor is not None:
                    res.check(
                        "corollary_vs_theorem",
                        cor <= interval.lower,
                        f"{corollary_source(kind, g, h)} on ({name_g},{name_h}): "
                        f"{cor} > {interval.lower}",
                    )
                exact = mc_exact(product)
                res.check(
                    "theorem_containment",
                    exact.value is not None and exact.value in interval,
                    f"{kind.value}({name_g},{name_h}): mc {exact.value} outside "
                    f"[{interval.lower}, {interval.upper}] ({interval.case})",
                )

    if weak_lowers:
        shown = "; ".join(weak_lowers[:3])
        res.findings.append(
            f"theorem lower bounds fall below the spanning-tree floor on "
            f"{len(weak_lowers)} pool products (dense non-tree factors widen "
            f"the dropped slack), e.g. {shown}"
        )

    # documented discrepancy: branch Thm3(3) statement vs its derivation
    g, h = path_graph(3), cycle_graph(3)
    interval = product_mc_bounds(ProductKind.LEXICOGRAPHIC, g, h)
    product = make_product(ProductKind.LEXICOGRAPHIC, g, h)
    stated_lower = h.m * g.n * g.n + 2
    stated_upper = h.m * g.n + g.m * h.n * h.n - h.n + 1
    lemma1_upper = mc_bounds_basic(product).upper
    res.findings.append(
        "Thm3(3) statement/derivation divergence on lexicographic(P3,C3): "
        f"stated bounds {stated_lower}..{stated_upper} vs derived "
        f"{interval.lower}..{interval.upper}; the stated lower even exceeds "
        f"the direct kappa-based ceiling {lemma1_upper}; derived values are "
        "reported"
    )
    res.check(
        "thm3_3_derived_upper_consistent",
        interval.upper == lemma1_upper,
        f"derived {interval.upper} vs direct {lemma1_upper}",
    )

    # documented discrepancy: the sharpness example for the strong both-trees
    # branch instantiated with a non-tree cycle factor
    g, h = path_graph(2), cycle_graph(4)
    product = make_product(ProductKind.STRONG, g, h)
    claimed = 3 * h.m * g.m + 1
    floor = product.m - product.n + 2
    diam = diameter(product)
    exact = mc_exact(product)
    res.findings.append(
        "both-trees sharpness example misapplied on strong(P2,C4): claimed value "
        f"{claimed} is below the spanning-tree floor {floor}; diameter is {diam} "
        f"(not >= 3); exact mc is {exact.value}"
    )
    res.check(
        "strong_p2c4_exact",
        exact.value is not None and exact.value >= floor,
        f"mc {exact.value} below floor {floor}",
    )

    # documented hypothesis gap: the lexicographic ceilings fail outright for
    # a complete first factor, so those pairs are refused by default
    g, h = path_graph(2), path_graph(2)
    product = make_product(ProductKind.LEXICOGRAPHIC, g, h)
    stated_upper = h.m * g.m * (h.n + 1) + h.n
    exact = mc_exact(product)
    res.findings.append(
        "lexicographic ceilings need a non-complete first factor: on "
        f"lexicographic(P2,P2) the stated both-trees ceiling is {stated_upper} "
        f"while exact mc is {exact.value}; such pairs are reported inapplicable"
    )

    # documented hypothesis slip: the direct-product sharpness example uses a
    # bipartite factor, outside the stated nonbipartite hypothesis
    g, h = cycle_graph(3), cycle_graph(6)
    product = make_product(ProductKind.DIRECT, g, h)
    cert = theorem1_certificate(product)
    res.findings.append(
        "direct-product sharpness example uses bipartite C6: the Thm5 interval "
        f"hypothesis fails, though the value {product.m - product.n + 2} still "
        f"matches the certified floor (conditions {','.join(cert.conditions)})"
    )
    return res


def suite_propositions() -> SuiteResult:
    """Replay every proposition row and require agreement."""
    res = SuiteResult("propositions")
    for row in proposition_report():
        res.check(
            "proposition_agreement",
            row.agree,
            f"{row.proposition} {row.family}{row.params}: formula "
            f"{row.formula_value_or_interval}, evaluator {row.evaluator} "
            f"gave {row.evaluator_value}",
        )
    # the exact connectivity of the lexicographic double-Petersen instance is
    # larger than the value used to state its upper bound
    hl4 = generate(NetworkSpec("hl", (4,)))
    kappa = vertex_connectivity(hl4)
    basic = mc_bounds_basic(hl4)
    res.findings.append(
        "hl(4): direct vertex connectivity is "
        f"{kappa}, so the kappa-based ceiling alone gives {basic.upper}; the "
        "reported 121 needs the lexicographic product bound (tree branch), "
        "whose hypothesis is strained by the complete first factor"
    )
    return res


SUITES = {
    "core": suite_core,
    "products": suite_products,
    "bounds": suite_bounds,
    "propositions": suite_propositions,
}
