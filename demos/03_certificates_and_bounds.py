"""Certificates and the bound catalog.

Five cheap structural conditions each force mc = m - n + 2 (catalog tag Thm1,
conditions a..e); the basic sandwich is [m - n + 2, m - n + kappa + 1]
(Obs1/Lem1).  For products, the catalog's branch intervals (Thm2..Thm5)
bound mc from the factors alone, and connectivity formulas (Lem2..Lem5)
replace max-flow computations with factor arithmetic.
"""

from mcgraph import (
    ProductKind,
    corollary_lower,
    cycle_graph,
    daleth_min,
    kappa_formula,
    make_product,
    mc_bounds_basic,
    mc_exact,
    path_graph,
    product_mc_bounds,
    theorem1_certificate,
)
from mcgraph.graph import vertex_connectivity

# Certificates: the 3x2 grid has diameter 3, so condition (d) fires.
grid = make_product(ProductKind.CARTESIAN, path_graph(3), path_graph(2))
cert = theorem1_certificate(grid)
print(f"P3 cartesian P2: conditions {cert.conditions} certify mc = {cert.value}")

# The sandwich for the Petersen graph pins mc between 7 and 9; condition (b)
# (triangle-free) then collapses it to exactly 7.
from mcgraph.families import petersen_graph

pet = petersen_graph()
iv = mc_bounds_basic(pet)
print(f"Petersen sandwich: [{iv.lower}, {iv.upper}], certified {theorem1_certificate(pet).value}")

# Product intervals with provenance tags.
for kind, g, h in [
    (ProductKind.CARTESIAN, cycle_graph(3), cycle_graph(4)),
    (ProductKind.STRONG, cycle_graph(4), path_graph(2)),
    (ProductKind.DIRECT, cycle_graph(3), cycle_graph(3)),
]:
    interval = product_mc_bounds(kind, g, h)
    built = make_product(kind, g, h)
    exact = mc_exact(built).value
    print(
        f"{kind.value:>9}: mc = {exact} inside [{interval.lower}, {interval.upper}] "
        f"({interval.lower_source})"
    )
    assert exact in interval

# Factor-level mc values give coarser corollary bounds (Cor3/Cor4lex/Cor5).
g, h = cycle_graph(3), cycle_graph(4)
mc_g, mc_h = mc_exact(g).value, mc_exact(h).value
print(
    f"\ncorollary floor for the cartesian product: "
    f"{corollary_lower(ProductKind.CARTESIAN, g, h, mc_g, mc_h)}"
)

# Connectivity formulas against direct computation, including the strong
# product's separating-set minimization.
size, witness = daleth_min(path_graph(3), path_graph(3))
print(f"\nminimum separating product set of P3 strong P3: size {size} ({witness})")
predicted = kappa_formula(ProductKind.STRONG, path_graph(3), path_graph(3))
king = make_product(ProductKind.STRONG, path_graph(3), path_graph(3))
print(
    f"strong-product connectivity: formula {predicted}, "
    f"direct computation {vertex_connectivity(king)}"
)
