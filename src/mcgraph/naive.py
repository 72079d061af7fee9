"""The naive engine: exact mc by one branch and bound over the partitions of
the edge set into color classes, the ground-truth oracle for small edge
counts.

The tree-cover engine (:mod:`mcgraph.treecover`) is checked against it, so
the two share no search code, and neither imports the other
(``tests/test_module_graph.py``).  The ``mc_exact_naive`` docstring holds
the argument for its coverage cut.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, edge_components, is_connected
from .mc import (
    EdgeColoring,
    McResult,
    _checked_result,
    _trivial_result,
    mc_bounds_basic,
)

DEFAULT_NAIVE_EDGE_CAP = 12

__all__ = ["mc_exact_naive", "DEFAULT_NAIVE_EDGE_CAP"]


class _ServedPairs(dict):
    """Edge mask -> mask of the pairs joined inside that subgraph, memoised.

    Defined once here: a class object always lies in a reference cycle, so
    one defined per call would keep that call's graph until a full collection.
    """

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g
        self.pair_id = {p: i for i, p in enumerate(combinations(range(g.n), 2))}

    def __missing__(self, class_mask: int) -> int:
        edges = [e for i, e in enumerate(self.g.edges) if class_mask >> i & 1]
        mask = 0
        for comp in edge_components(self.g.n, edges):
            for pair in combinations(comp, 2):
                mask |= 1 << self.pair_id[pair]
        self[class_mask] = mask
        return mask


def mc_exact_naive(g: Graph, max_edges: int = DEFAULT_NAIVE_EDGE_CAP) -> McResult:
    """Exact mc by one branch and bound over the edge-set partitions.

    Edges are assigned in index order, each to an existing class or to the
    next new one, and the search keeps the valid partition with the most
    classes found so far.  A node is cut when its classes plus its
    unassigned edges cannot beat that.  With edges 0..i-1 assigned to
    classes C_1..C_j and R the unassigned edges, every class of a partition
    completed below is a subset of some C_c | R, or of R if it is opened
    later.  The pairs an edge set serves only grow with the set, so when
    the pairs served by the sets C_c | R and R together miss one, no
    completion is valid and the node is cut; with R empty it is the leaf's
    validity check.  The witness is the first valid mc-class leaf in
    enumeration order: the incumbent stays below mc until that leaf.
    Refuses graphs with more than ``max_edges`` edges.
    """
    if g.n <= 1 or not is_connected(g):
        return _trivial_result(g, "naive-partition")
    m = g.m
    if m > max_edges:
        raise ValueError(f"naive enumeration cap exceeded: {m} edges > {max_edges}")

    served_pairs = _ServedPairs(g)
    full_mask = (1 << len(served_pairs.pair_id)) - 1
    all_edges = (1 << m) - 1
    assignment = [0] * m
    classes: list[int] = []
    best, partition = 0, None

    def rec(i: int) -> None:
        nonlocal best, partition
        if len(classes) + (m - i) <= best:
            return
        # the coverage cut (see the docstring)
        rest = all_edges >> i << i
        acc = served_pairs[rest]
        for cmask in classes:
            if acc == full_mask:
                break
            acc |= served_pairs[cmask | rest]
        if acc != full_mask:
            return
        if i == m:
            best, partition = len(classes), tuple(assignment)
            return
        bit = 1 << i
        for c in range(len(classes) + 1):
            opened = c == len(classes)
            if opened:
                classes.append(bit)
            else:
                classes[c] |= bit
            assignment[i] = c
            rec(i + 1)
            if opened:
                classes.pop()
            else:
                classes[c] ^= bit

    try:
        rec(0)
    finally:
        # rec's closure holds its own cell, and through it the memo
        del rec
    witness = EdgeColoring(g, partition)
    return _checked_result(g, witness, "naive-partition", mc_bounds_basic(g))
