"""Small-graph corpora: exhaustive connected graphs and seeded random ones.

The exhaustive generator walks the edge-set bitmasks on ``n`` vertices in
increasing order and keeps the first connected mask of each isomorphism
class, which is the class's minimum bitmask over all vertex permutations;
its whole orbit is then marked as seen.  Restricting suites to one
representative per class is sound for isomorphism-invariant quantities;
relabeling spot checks are provided separately.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from .graph import Graph, is_connected

__all__ = [
    "nonisomorphic_connected_graphs",
    "connected_corpus",
    "random_connected_graph",
    "random_permutation",
]

# n = 7 takes a few CPU seconds; n = 8 walks 2^28 masks with 8! images per
# class, and n = 9 would need a 64 GiB table of seen masks
_MAX_N = 7


def _refuse_large(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(
            f"exhaustive graph enumeration stops at {_MAX_N} vertices, got {n}"
        )


def _mask_connected(n: int, pairs: list[tuple[int, int]], mask: int) -> bool:
    nbr = [0] * n
    rest = mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        u, v = pairs[i]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= nbr[v] & ~seen
        seen |= nxt
        frontier = nxt
    return seen == (1 << n) - 1


def nonisomorphic_connected_graphs(
    n: int, max_edges: int | None = None
) -> list[Graph]:
    """All connected graphs on exactly ``n`` vertices, one per isomorphism class.

    Each class is represented by its minimum edge-set bitmask over all vertex
    permutations, and the classes are returned in a deterministic order (edge
    count, then that bitmask).  The sweep visits all 2^(n(n-1)/2) masks and
    maps each class through all n! permutations, so n above 7 raises
    ``ValueError`` before any work starts.
    """
    _refuse_large(n)
    if n < 1:
        return []
    if n == 1:
        return [Graph(1, ())]
    pairs = list(combinations(range(n), 2))
    num_pairs = len(pairs)
    pair_pos = {p: i for i, p in enumerate(pairs)}
    # each vertex permutation as the position it sends every pair position to
    images = [
        [pair_pos[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        for perm in permutations(range(n))
    ]

    seen = bytearray(1 << num_pairs)
    canon = []
    for mask in range(1 << num_pairs):
        # masks run upwards, so the first mask met in an orbit is its minimum;
        # edge count and connectivity hold on a whole orbit or on none of it
        if seen[mask]:
            continue
        size = mask.bit_count()
        if size < n - 1 or (max_edges is not None and size > max_edges):
            continue
        if not _mask_connected(n, pairs, mask):
            continue
        canon.append(mask)
        bits = [i for i in range(num_pairs) if mask >> i & 1]
        for target in images:
            image = 0
            for i in bits:
                image |= 1 << target[i]
            seen[image] = 1
    canon.sort(key=lambda m: (m.bit_count(), m))
    return [
        Graph(n, tuple(pairs[i] for i in range(num_pairs) if mask >> i & 1))
        for mask in canon
    ]


def connected_corpus(max_n: int, max_edges: int | None = None) -> list[Graph]:
    """Nonisomorphic connected graphs on 2..max_n vertices (nontrivial only);
    max_n above 7 raises ``ValueError`` before any work starts."""
    _refuse_large(max_n)
    out: list[Graph] = []
    for n in range(2, max_n + 1):
        out.extend(nonisomorphic_connected_graphs(n, max_edges))
    return out


def random_connected_graph(n: int, m: int, rng: random.Random) -> Graph:
    """A uniformly sampled m-edge graph on n vertices, rejected until connected."""
    pairs = list(combinations(range(n), 2))
    if not (n - 1 <= m <= len(pairs)):
        raise ValueError(f"no connected graph with n={n}, m={m}")
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        g = Graph(n, edges)
        if is_connected(g):
            return g


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
