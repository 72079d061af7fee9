"""mcgraph: graph products, monochromatic connection numbers, and the
closed-form bound catalog they are checked against.

The package builds the four standard graph products, computes mc(G) exactly
at desk scale with two independent engines, evaluates every cataloged bound
and closed form, and cross-checks formulas against direct computation on
generated interconnection-network families.
"""

from .bounds import (
    BoundInterval,
    DalethSet,
    corollary_lower,
    daleth_min,
    edge_conn_direct_formula,
    kappa_formula,
    product_mc_bounds,
)
from .errors import BudgetExceededError, InapplicableError
from .families import (
    NetworkSpec,
    PropositionRow,
    complete_graph,
    cycle_graph,
    generate,
    hypercube_graph,
    path_graph,
    petersen_graph,
    proposition_report,
    star_graph,
)
from .graph import (
    Graph,
    GraphMetrics,
    INFINITE,
    build_graph,
    complement,
    diameter,
    distance,
    is_bipartite,
    is_connected,
    is_tree,
    metrics,
)
from .mc import (
    EdgeColoring,
    McResult,
    SearchStats,
    Theorem1Certificate,
    TreeCover,
    check_mc_coloring,
    mc_bounds_basic,
    mc_bounds_combined,
    spanning_tree_coloring,
    theorem1_certificate,
)
from .naive import mc_exact_naive
from .products import (
    ProductGraph,
    ProductKind,
    distance_formula,
    edge_count_formula,
    make_product,
    recover_factors,
)
from .treecover import mc_exact

__version__ = "0.1.0"

__all__ = [
    "BoundInterval",
    "BudgetExceededError",
    "DalethSet",
    "EdgeColoring",
    "Graph",
    "GraphMetrics",
    "INFINITE",
    "InapplicableError",
    "McResult",
    "NetworkSpec",
    "ProductGraph",
    "ProductKind",
    "PropositionRow",
    "SearchStats",
    "Theorem1Certificate",
    "TreeCover",
    "build_graph",
    "check_mc_coloring",
    "complement",
    "complete_graph",
    "corollary_lower",
    "cycle_graph",
    "daleth_min",
    "diameter",
    "distance",
    "distance_formula",
    "edge_conn_direct_formula",
    "edge_count_formula",
    "generate",
    "hypercube_graph",
    "is_bipartite",
    "is_connected",
    "is_tree",
    "kappa_formula",
    "make_product",
    "mc_bounds_basic",
    "mc_bounds_combined",
    "mc_exact",
    "mc_exact_naive",
    "metrics",
    "path_graph",
    "petersen_graph",
    "product_mc_bounds",
    "proposition_report",
    "recover_factors",
    "spanning_tree_coloring",
    "star_graph",
    "theorem1_certificate",
]
