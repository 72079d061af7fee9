"""Interconnection-network families and the proposition report.

Grids, meshes, tori, generalized hypercubes and the two Petersen-based
families are iterated products; every closed-form value claimed for them is
replayed by an independent route (certificate, exact solver, or combined
bound pipeline) and tabulated.
"""

from mcgraph import NetworkSpec, generate, mc_bounds_combined, proposition_report
from mcgraph.families import report_to_csv
from mcgraph.products import as_graph

for fam, params in [
    ("grid", (3, 2)),
    ("torus", (3, 3)),
    ("generalized_hypercube", (2, 2, 2)),
    ("hyper_petersen", (3,)),
    ("hl", (4,)),
]:
    graph = as_graph(generate(NetworkSpec(fam, params)))
    label = " ".join(str(p) for p in params)
    print(f"{fam} {label}: {graph.n} vertices, {graph.m} edges")

# The lexicographic double-Petersen instance is bounded, not solved exactly:
hl4 = generate(NetworkSpec("hl", (4,)))
interval = mc_bounds_combined(hl4)
print(
    f"\nhl(4) combined interval: [{interval.lower}, {interval.upper}] "
    f"({interval.lower_source} / {interval.upper_source})"
)

print("\nfull proposition report:\n")
print(report_to_csv(proposition_report()))
