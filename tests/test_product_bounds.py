from itertools import combinations

import pytest

from mcgraph.bounds import (
    SOURCE_TAGS,
    BoundInterval,
    corollary_lower,
    corollary_source,
    daleth_min,
    edge_conn_direct_formula,
    kappa_formula,
    product_mc_bounds,
)
from mcgraph.errors import InapplicableError
from mcgraph.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from mcgraph.graph import (
    Graph,
    connected_components,
    edge_connectivity,
    is_connected,
    metrics,
    vertex_connectivity,
)
from mcgraph import verification
from mcgraph.mc import McResult
from mcgraph.products import ProductGraph, ProductKind, make_product
from mcgraph.treecover import mc_exact
from mcgraph.verification import factor_pool, suite_bounds

P2, P3, P4 = path_graph(2), path_graph(3), path_graph(4)
C3, C4, C5 = cycle_graph(3), cycle_graph(4), cycle_graph(5)
K4 = complete_graph(4)


def daleth_min_brute(g: Graph, h: Graph) -> int:
    """Independent re-derivation: scan all subset pairs and all components."""
    best = None

    def separators(f: Graph):
        for k in range(1, f.n - 1):
            for subset in combinations(range(f.n), k):
                gone = set(subset)
                comps = []
                seen = set(gone)
                for s in range(f.n):
                    if s in seen:
                        continue
                    comp = [s]
                    seen.add(s)
                    stack = [s]
                    while stack:
                        u = stack.pop()
                        for w in f.adjacency[u]:
                            if w not in seen:
                                seen.add(w)
                                comp.append(w)
                                stack.append(w)
                    comps.append(comp)
                if len(comps) >= 2:
                    for comp in comps:
                        yield subset, comp

    for s_g, comp_g in separators(g):
        for s_h, comp_h in separators(h):
            size = (
                len(s_g) * len(comp_h)
                + len(s_g) * len(s_h)
                + len(comp_g) * len(s_h)
            )
            best = size if best is None else min(best, size)
    return best


class TestDalethMin:
    @pytest.mark.parametrize(
        "g,h,expected",
        [(P3, P3, 3), (C4, P3, 5), (P4, P3, 3)],
    )
    def test_examples(self, g, h, expected):
        size, witness = daleth_min(g, h)
        assert size == expected == witness.size
        assert size == daleth_min_brute(g, h)

    def test_witness_separates_factors(self):
        size, w = daleth_min(C4, P3)
        for f, s in ((C4, w.s_g), (P3, w.s_h)):
            gone = set(s)
            kept = [v for v in f.vertices() if v not in gone]
            sub = Graph(
                f.n,
                tuple(e for e in f.edges if e[0] not in gone and e[1] not in gone),
            )
            comps = [c for c in connected_components(sub) if set(c) <= set(kept)]
            assert len(comps) >= 2

    def test_complete_factor_refused(self):
        with pytest.raises(InapplicableError, match="complete"):
            daleth_min(C3, P3)


class TestKappaFormula:
    def test_cartesian_example(self):
        assert kappa_formula(ProductKind.CARTESIAN, C3, C4) == 4

    def test_lexicographic_example(self):
        assert kappa_formula(ProductKind.LEXICOGRAPHIC, P3, P2) == 2

    def test_strong_example_cross_checked(self):
        predicted = kappa_formula(ProductKind.STRONG, P3, P3)
        assert predicted == 3
        king = make_product(ProductKind.STRONG, P3, P3)
        assert vertex_connectivity(king) == 3

    def test_lexicographic_complete_first_factor_refused(self):
        with pytest.raises(InapplicableError):
            kappa_formula(ProductKind.LEXICOGRAPHIC, C3, P2)

    def test_direct_refused(self):
        with pytest.raises(InapplicableError):
            kappa_formula(ProductKind.DIRECT, C3, C3)

    def test_strong_with_one_complete_factor(self):
        # the separating-set term drops out when a factor has no separator
        predicted = kappa_formula(ProductKind.STRONG, C4, C3)
        assert predicted == min(2 * 3, 2 * 4) == 6
        assert vertex_connectivity(make_product(ProductKind.STRONG, C4, C3)) == 6


class TestEdgeConnDirect:
    def test_c3_c3(self):
        assert edge_conn_direct_formula(C3, C3) == 4

    def test_c3_c5(self):
        assert edge_conn_direct_formula(C3, C5) == 4

    def test_bipartite_refused(self):
        with pytest.raises(InapplicableError, match="bipartite"):
            edge_conn_direct_formula(C4, C3)

    def test_against_direct_computation(self):
        for g, h in ((C3, C3), (C3, C5), (C3, K4)):
            predicted = edge_conn_direct_formula(g, h)
            built = make_product(ProductKind.DIRECT, g, h)
            assert metrics(built).edge_connectivity == predicted


class TestProductMcBounds:
    def test_cartesian_both_trees(self):
        iv = product_mc_bounds(ProductKind.CARTESIAN, P2, P3)
        assert (iv.lower, iv.upper) == (3, 4)
        assert iv.lower_source == "Thm2(3)"

    def test_lexicographic_both_trees(self):
        iv = product_mc_bounds(ProductKind.LEXICOGRAPHIC, P4, P2)
        assert (iv.lower, iv.upper) == (10, 11)
        assert iv.lower_source == "Thm3(4)"

    def test_strong_mixed_case(self):
        iv = product_mc_bounds(ProductKind.STRONG, C4, P2)
        assert (iv.lower, iv.upper) == (14, 17)
        assert iv.lower_source == "Thm4(2)"

    def test_strong_mixed_case_swaps(self):
        forward = product_mc_bounds(ProductKind.STRONG, C4, P2)
        mirrored = product_mc_bounds(ProductKind.STRONG, P2, C4)
        assert (forward.lower, forward.upper) == (mirrored.lower, mirrored.upper)
        assert "swapped" in mirrored.case

    def test_direct_interval(self):
        iv = product_mc_bounds(ProductKind.DIRECT, C3, C3)
        assert (iv.lower, iv.upper) == (11, 19)
        assert iv.lower_source == "Thm5"

    def test_direct_needs_nonbipartite(self):
        with pytest.raises(InapplicableError):
            product_mc_bounds(ProductKind.DIRECT, C3, C4)

    def test_strong_two_complete_refused(self):
        with pytest.raises(InapplicableError):
            product_mc_bounds(ProductKind.STRONG, C3, K4)

    def test_lexicographic_complete_first_refused_by_default(self):
        with pytest.raises(InapplicableError, match="non-complete"):
            product_mc_bounds(ProductKind.LEXICOGRAPHIC, P2, P2)

    def test_lexicographic_stated_form_on_request(self):
        iv = product_mc_bounds(
            ProductKind.LEXICOGRAPHIC, P2, P2, allow_complete_first_factor=True
        )
        assert (iv.lower, iv.upper) == (4, 5)
        assert "stated form" in iv.case

    def test_thm3_3_reports_both_value_sets(self):
        iv = product_mc_bounds(ProductKind.LEXICOGRAPHIC, P3, C3)
        assert (iv.lower, iv.upper) == (20, 22)
        assert "stated bounds 29..25" in iv.case

    def test_trivial_factor_refused(self):
        with pytest.raises(InapplicableError):
            product_mc_bounds(ProductKind.CARTESIAN, Graph(1, ()), P3)

    def test_interval_invariant(self):
        with pytest.raises(ValueError):
            BoundInterval(3, 2, "Obs1", "Lem1", "bad")


class TestCorollaryLower:
    def test_cartesian_example(self):
        assert corollary_lower(ProductKind.CARTESIAN, C3, C4, 3, 2) == 14
        assert corollary_source(ProductKind.CARTESIAN, C3, C4) == "Cor3(1)"

    def test_lexicographic_example(self):
        assert corollary_lower(ProductKind.LEXICOGRAPHIC, C3, C3, 3, 3) == 29
        assert corollary_source(ProductKind.LEXICOGRAPHIC, C3, C3) == "Cor4lex(1)"

    def test_strong_both_trees_example(self):
        assert corollary_lower(ProductKind.STRONG, P2, P2, 1, 1) == 4
        assert corollary_source(ProductKind.STRONG, P2, P2) == "Cor5(3)"
        # exact value for the complete 4-vertex product is 6; the bound holds
        assert mc_exact(make_product(ProductKind.STRONG, P2, P2)).value == 6

    def test_direct_needs_nonbipartite_factors(self):
        # Thm5, whose lower end this is, holds for nonbipartite factors only:
        # direct(K3, P2) is C6, of mc 2 against a Thm5 form of 5
        K3 = complete_graph(3)
        for g, h, mc_g, mc_h in ((C4, C4, 2, 2), (C3, C4, 3, 2), (K3, P2, 3, 1)):
            with pytest.raises(InapplicableError, match="nonbipartite"):
                corollary_lower(ProductKind.DIRECT, g, h, mc_g, mc_h)
        assert corollary_lower(ProductKind.DIRECT, C3, C5, 3, 3) == 11

    def test_source_vocabulary_closed(self):
        for kind in ProductKind:
            for g in (P2, P3, C3, C4):
                for h in (P2, C3, star_graph(4)):
                    assert corollary_source(kind, g, h) in SOURCE_TAGS


def test_source_tags_cover_interval_sources():
    pool = [P2, P3, P4, C3, C4, C5, K4, star_graph(4)]
    for kind in ProductKind:
        for g in pool:
            for h in pool:
                try:
                    iv = product_mc_bounds(kind, g, h)
                except InapplicableError:
                    continue
                assert iv.lower_source in SOURCE_TAGS
                assert iv.upper_source in SOURCE_TAGS


def test_daleth_connectivity_contract():
    # the strong formula with the separating-set term must equal direct kappa
    for g, h in ((P3, P3), (C4, P3), (P4, P3), (C4, C5)):
        predicted = kappa_formula(ProductKind.STRONG, g, h)
        built = make_product(ProductKind.STRONG, g, h)
        assert is_connected(built)
        assert vertex_connectivity(built) == predicted


def test_catalog_answers_are_sound():
    # every number the catalog gives on the byte-pinned factor pool, in both
    # orders, against the built product: kappa and lambda exactly, and on
    # products small enough for the exact engine, mc against the corollary
    # and the theorem interval
    factors = factor_pool() + [
        ("K1", Graph(1, ())),
        ("2K2", Graph(4, ((0, 1), (2, 3)))),
    ]
    mc = {name: mc_exact(f).value for name, f in factors}

    def answer(call):
        try:
            return call()
        except InapplicableError:
            return None

    checks, wrong = 0, []
    for kind in ProductKind:
        for gname, g in factors:
            for hname, h in factors:
                product = make_product(kind, g, h)
                where = f"{kind.value}({gname},{hname})"
                claims = []  # (holds, what it says)
                if kind is not ProductKind.DIRECT:
                    kappa = answer(lambda: kappa_formula(kind, g, h))
                    if kappa is not None:
                        actual = vertex_connectivity(product)
                        claims.append((kappa == actual, f"kappa {kappa} != {actual}"))
                else:
                    lam = answer(lambda: edge_conn_direct_formula(g, h))
                    if lam is not None:
                        actual = edge_connectivity(product)
                        claims.append((lam == actual, f"lambda {lam} != {actual}"))
                if product.n <= 12:
                    lower = answer(
                        lambda: corollary_lower(kind, g, h, mc[gname], mc[hname])
                    )
                    iv = answer(lambda: product_mc_bounds(kind, g, h))
                    if lower is not None or iv is not None:
                        exact = mc_exact(product).value
                    if lower is not None:
                        claims.append((lower <= exact, f"Cor {lower} > mc {exact}"))
                    if iv is not None:
                        claims.append((exact in iv, f"mc {exact} not in {iv}"))
                checks += len(claims)
                wrong += [f"{where}: {text}" for ok, text in claims if not ok]
    assert wrong == []
    assert checks == 368  # so a sweep that reaches no answer cannot pass


def test_bounds_only_products_are_checked_by_their_proven_interval(monkeypatch):
    # a product whose search runs out of nodes (direct(K4,C5) does at the
    # default budget once ``verify bounds --max-n`` reaches 20) is no failed
    # contract: its proven interval must meet the theorem interval, and the
    # products are named in one finding.  Here every product search gets 1
    # node, so no long search runs.
    real = verification.mc_exact

    def starved(g, **kwargs):
        if isinstance(g, ProductGraph):
            return real(g, max_nodes=1)
        return real(g, **kwargs)

    monkeypatch.setattr(verification, "mc_exact", starved)
    res = suite_bounds()
    assert res.ok, res.failures
    assert res.passed["theorem_meets_search_interval"] == 11
    assert res.passed["theorem_containment"] == 29  # 40 when all are decided
    [line] = [f for f in res.findings if "ran out of nodes" in f]
    assert line.startswith("the exact search ran out of nodes on 11 pool products")
    assert "; lexicographic(P3,C3) in [20, 22]; " in line
    assert len(res.findings) == 6

    # a proven interval that misses the theorem interval fails the check
    def missing(g, **kwargs):
        if isinstance(g, ProductGraph):
            iv = BoundInterval(0, 0, "Obs1", "Lem1", "forged")
            return McResult(None, None, "bounds-only", iv)
        return real(g, **kwargs)

    monkeypatch.setattr(verification, "mc_exact", missing)
    failed = [f for f in suite_bounds().failures if "search_interval" in f]
    assert len(failed) == 40
    assert "): proven [0, 0] misses [" in failed[0]
