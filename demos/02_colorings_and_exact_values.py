"""Monochromatic connection colorings and the two exact engines.

A coloring qualifies when every vertex pair is joined by a single-color path;
mc(G) is the most colors such a coloring can use.  One color on a spanning
tree plus fresh colors elsewhere always works, giving the floor m - n + 2.
The naive engine searches the edge partitions by branch and bound; the
tree-cover engine minimizes the edge surplus of covering trees.  Both must
agree.
"""

from mcgraph import (
    check_mc_coloring,
    complete_graph,
    cycle_graph,
    mc_exact,
    mc_exact_naive,
    path_graph,
    spanning_tree_coloring,
)
from mcgraph.families import petersen_graph

for name, g in [
    ("P4", path_graph(4)),
    ("C5", cycle_graph(5)),
    ("K4", complete_graph(4)),
]:
    floor = spanning_tree_coloring(g)
    naive = mc_exact_naive(g)
    solver = mc_exact(g)
    assert naive.value == solver.value
    print(
        f"{name}: floor coloring uses {floor.color_count} colors, "
        f"exact mc = {solver.value} (engines agree)"
    )

# The witness that comes back is a real coloring and passes the checker.
g = cycle_graph(6)
result = mc_exact(g)
ok, violation = check_mc_coloring(g, result.witness)
print(f"\nC6: mc = {result.value}, witness colors = {result.witness.colors}")
print(f"witness valid: {ok}")

# Breaking the witness produces the lexicographically smallest bad pair.
from mcgraph import EdgeColoring

p3 = path_graph(3)
ok, violation = check_mc_coloring(p3, EdgeColoring(p3, (0, 1)))
print(f"\nP3 with two colors is invalid, first uncovered pair: {violation}")

# Dense graphs saturate: with diameter 1 every edge may keep its own color.
pet = petersen_graph()
print(f"\nPetersen: mc = {mc_exact(pet).value} (floor m - n + 2 = {pet.m - pet.n + 2})")
