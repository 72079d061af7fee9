"""Building the four graph products and checking their closed forms.

Every product lives on the coordinate grid V(G) x V(H); the four products
differ only in which coordinate moves are adjacent.  This script builds each
product of a path and a cycle, compares the built edge counts against the
closed-form counts, and replays the distance formulas against breadth-first
search.
"""

from mcgraph import (
    ProductKind,
    cycle_graph,
    diameter,
    distance_formula,
    edge_count_formula,
    make_product,
    path_graph,
)
from mcgraph.graph import distances_from

g = path_graph(3)
h = cycle_graph(4)
print(f"factors: P3 ({g.n} vertices, {g.m} edges), C4 ({h.n} vertices, {h.m} edges)\n")

for kind in ProductKind:
    built = make_product(kind, g, h)
    predicted = edge_count_formula(kind, g, h)
    print(
        f"{kind.value:>13}: {built.n} vertices, {built.m} edges "
        f"(closed form {predicted})"
    )
    assert built.m == predicted

# Distances: the cartesian product adds factor distances, the strong product
# takes their maximum, and the lexicographic product is governed by the first
# coordinate (with a cap of 2 inside a fiber).
print("\ndistance formulas against BFS, corner (0,0) to every vertex:")
for kind in (ProductKind.CARTESIAN, ProductKind.STRONG, ProductKind.LEXICOGRAPHIC):
    built = make_product(kind, g, h)
    bfs = distances_from(built, 0)
    row = []
    for v in range(built.n):
        expect = distance_formula(kind, g, h, (0, 0), divmod(v, h.n))
        assert bfs[v] == expect
        row.append(str(expect))
    print(f"{kind.value:>13}: {' '.join(row)}")

# Diameters compose the same way.
cart = make_product(ProductKind.CARTESIAN, g, h)
strong = make_product(ProductKind.STRONG, g, h)
print(
    f"\ndiam(P3 cartesian C4) = {diameter(cart)} "
    f"= diam(P3) + diam(C4) = {diameter(g)} + {diameter(h)}"
)
print(
    f"diam(P3 strong C4)    = {diameter(strong)} "
    f"= max(diam(P3), diam(C4))"
)

# The direct product of two bipartite factors falls apart; one odd cycle
# restores connectivity.
from mcgraph.graph import is_connected

for a, b in ((path_graph(2), cycle_graph(4)), (cycle_graph(3), cycle_graph(4))):
    built = make_product(ProductKind.DIRECT, a, b)
    print(
        f"direct product with factors ({a.n},{b.n}) connected: "
        f"{is_connected(built)}"
    )
