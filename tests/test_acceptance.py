"""Acceptance gate: one test per shipped criterion, printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1 and 4 carry wall-clock budgets; the others are exactness
claims at tolerance zero.
"""

import time

import pytest

from mcgraph.bounds import product_mc_bounds
from mcgraph.errors import InapplicableError
from mcgraph.exact import mc_exact, mc_exact_naive
from mcgraph.families import NetworkSpec, cycle_graph, generate, path_graph
from mcgraph.graph import diameter, distances_from
from mcgraph.mc import (
    mc_bounds_basic,
    mc_bounds_combined,
    theorem1_certificate,
)
from mcgraph.products import (
    ProductKind,
    distance_formula,
    make_product,
)
from mcgraph.smallgraphs import connected_corpus
from mcgraph.verification import pool_pairs, suite_bounds


def _verdict(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def exact_values(corpus6):
    return {g: mc_exact(g).value for g in corpus6}


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for g in connected_corpus(6, max_edges=10):
        assert mc_exact_naive(g).value == mc_exact(g).value, g.edges
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    _verdict(1, f"both engines agree on {checked} graphs in {elapsed:.1f}s")


def test_criterion_2_sandwich(corpus6, exact_values):
    for g in corpus6:
        iv = mc_bounds_basic(g)
        value = exact_values[g]
        assert iv.lower <= value <= iv.upper, (g.edges, value, iv)
    _verdict(2, f"floor <= mc <= ceiling on all {len(corpus6)} graphs")


def test_criterion_3_certificate_soundness(corpus6, exact_values):
    fired = 0
    for g in corpus6:
        if g.n <= 3:
            continue
        cert = theorem1_certificate(g)
        if cert.holds:
            fired += 1
            assert exact_values[g] == g.m - g.n + 2, (g.edges, cert.conditions)
    _verdict(3, f"certified value exact on all {fired} certified graphs")


def test_criterion_4_grid_values():
    start = time.monotonic()
    # the closed form n*m - n - m + 2 gives 3, 4, 5 at these sizes
    for (n, m), expected in (((3, 2), 3), ((4, 2), 4), ((3, 3), 5)):
        assert expected == n * m - n - m + 2
        g = generate(NetworkSpec("grid", (n, m))).graph
        assert mc_exact(g).value == expected, (n, m)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _verdict(4, f"grid values 3, 4, 5 reproduced exactly in {elapsed:.1f}s")


def test_criterion_5_petersen_families():
    hp3 = generate(NetworkSpec("hyper_petersen", (3,)))
    cert = theorem1_certificate(hp3.graph)
    assert "b" in cert.conditions and cert.value == 7

    hl3 = generate(NetworkSpec("hl", (3,)))
    assert hl3.graph.edges == hp3.graph.edges
    assert theorem1_certificate(hl3.graph).value == 7

    hp4 = generate(NetworkSpec("hyper_petersen", (4,)))
    assert diameter(hp4.graph) == 3
    cert4 = theorem1_certificate(hp4.graph)
    assert "d" in cert4.conditions and cert4.value == 22

    hl4 = generate(NetworkSpec("hl", (4,)))
    iv = mc_bounds_combined(hl4)
    assert (iv.lower, iv.upper) == (112, 121)
    _verdict(5, "values 7, 7, 22 and interval [112, 121] all match")


@pytest.fixture(scope="module")
def bounds_suite():
    """One run of the ``verify bounds`` suite, shared by criteria 6 and 9."""
    return suite_bounds()


def test_criterion_6_connectivity_formulas(bounds_suite):
    # the suite replays kappa_formula and edge_conn_direct_formula against
    # max-flow on every product of pool_pairs(24) where they apply
    checked = ("kappa_formula", "edge_conn_direct")
    failed = [f for f in bounds_suite.failures if f.split(":")[0] in checked]
    assert not failed, failed
    counts = tuple(bounds_suite.passed.get(name, 0) for name in checked)
    assert counts == (188, 15), counts
    _verdict(6, f"{sum(counts)} connectivity formulas match direct computation")


def test_criterion_7_distance_formulas():
    checks = 0
    for name_g, g, name_h, h in pool_pairs(24):
        cart = make_product(ProductKind.CARTESIAN, g, h)
        assert diameter(cart.graph) == diameter(g) + diameter(h)
        strong = make_product(ProductKind.STRONG, g, h)
        assert diameter(strong.graph) == max(diameter(g), diameter(h))
        for kind in (ProductKind.CARTESIAN, ProductKind.LEXICOGRAPHIC, ProductKind.STRONG):
            built = make_product(kind, g, h)
            dist = [distances_from(built.graph, v) for v in range(built.n)]
            for a in range(built.n):
                for b in range(a + 1, built.n):
                    expected = distance_formula(
                        kind, g, h, divmod(a, h.n), divmod(b, h.n)
                    )
                    assert dist[a][b] == expected, (kind.value, name_g, name_h, a, b)
                    checks += 1
    _verdict(7, f"{checks} pairwise distances match the formulas")


def test_criterion_8_theorem_containment():
    checks = 0
    for kind in ProductKind:
        seen = set()
        for name_g, g, name_h, h in pool_pairs(14):
            if kind is not ProductKind.LEXICOGRAPHIC:
                key = tuple(sorted((name_g, name_h)))
                if key in seen:
                    continue
                seen.add(key)
            try:
                interval = product_mc_bounds(kind, g, h)
            except InapplicableError:
                continue
            built = make_product(kind, g, h)
            value = mc_exact(built.graph).value
            assert value is not None and value in interval, (
                kind.value,
                name_g,
                name_h,
                value,
                interval,
            )
            checks += 1

    # sharpness instances pinned by the diameter certificate
    examples = [
        (ProductKind.CARTESIAN, cycle_graph(3), cycle_graph(4), 14),
        (ProductKind.LEXICOGRAPHIC, path_graph(4), path_graph(2), 10),
        (ProductKind.STRONG, path_graph(2), cycle_graph(6), 20),
    ]
    for kind, g, h, expected in examples:
        built = make_product(kind, g, h)
        cert = theorem1_certificate(built.graph)
        assert "d" in cert.conditions and cert.value == expected
        assert cert.value in product_mc_bounds(kind, g, h)

    # the direct-product instance uses a bipartite factor, so its interval
    # hypothesis fails; the certificate still pins the value and the branch
    # arithmetic still contains it
    g, h = cycle_graph(3), cycle_graph(6)
    built = make_product(ProductKind.DIRECT, g, h)
    cert = theorem1_certificate(built.graph)
    assert "d" in cert.conditions and cert.value == 20
    with pytest.raises(InapplicableError):
        product_mc_bounds(ProductKind.DIRECT, g, h)
    assert g.m * h.m + 2 <= cert.value <= 2 * g.m * h.m + 1
    _verdict(
        8,
        f"{checks} exact values inside their intervals; sharpness values "
        "14, 10, 20, 20 certified",
    )


def test_criterion_9_discrepancy_findings(bounds_suite):
    result = bounds_suite
    assert result.ok, result.failures
    text = "\n".join(result.findings)
    assert "lexicographic(P3,C3)" in text
    assert "stated bounds 29..25 vs derived 20..22" in text
    assert "strong(P2,C4)" in text
    assert "claimed value 13" in text and "floor 14" in text
    _verdict(
        9,
        f"verify run emitted {len(result.findings)} findings including both "
        "documented discrepancies",
    )
