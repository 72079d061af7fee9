"""The two exact engines under one name, for callers outside the package.

``mc_exact_naive`` lives in :mod:`mcgraph.naive` and ``mc_exact`` in
:mod:`mcgraph.treecover`; the package's own modules import those directly.
"""

from .naive import DEFAULT_NAIVE_EDGE_CAP, mc_exact_naive
from .treecover import DEFAULT_NODE_BUDGET, mc_exact

__all__ = [
    "mc_exact_naive",
    "mc_exact",
    "DEFAULT_NAIVE_EDGE_CAP",
    "DEFAULT_NODE_BUDGET",
]
