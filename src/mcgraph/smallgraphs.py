"""Small-graph corpora: exhaustive connected graphs and seeded random ones.

The exhaustive generator walks the edge-set bitmasks on ``n`` vertices in
increasing order, so the first mask met in an isomorphism class is the
class's minimum bitmask over all vertex permutations; its whole orbit is
then marked as seen.  The walk is done by ``bytearray.find``: every mask's
edge count is built as one byte lane, every count out of range is marked
before the walk starts, and ``seen.find(0, mask + 1)`` jumps to the next
unseen mask.  Every unseen orbit is marked, connected or not, because
connectivity holds on a whole orbit or on none of it, so each class is
visited and tested once.  Restricting suites to one representative per
class is sound for isomorphism-invariant quantities; relabeling spot
checks are provided separately.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from operator import itemgetter

from .graph import Graph, is_connected

__all__ = [
    "nonisomorphic_connected_graphs",
    "connected_corpus",
    "random_connected_graph",
    "random_permutation",
]

# n = 7 takes about 1.5 CPU seconds; n = 8 would need a 2^28-byte table of
# edge counts and 8! images per class, and n = 9 a 64 GiB one
_MAX_N = 7

_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # adds 1 to each byte lane


def _refuse_large(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(
            f"exhaustive graph enumeration stops at {_MAX_N} vertices, got {n}"
        )


def _edge_counts(num_pairs: int) -> bytes:
    """Byte ``mask`` is the number of set bits of ``mask``, for every mask
    below 2^num_pairs: each doubling appends the lanes so far plus one."""
    sizes = b"\0"
    for _ in range(num_pairs):
        sizes += sizes.translate(_PLUS_ONE)
    return sizes


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
    count, then that bitmask).  Masks with fewer than n - 1 or more than
    ``max_edges`` edges are marked seen through a byte lane of edge counts;
    the sweep jumps from one unseen mask to the next with ``bytearray.find``
    and marks its orbit, each image summed from a row of pair bits per
    permutation.  On 2 CPUs (Python 3.11) n = 6 takes about 0.03 CPU
    seconds and n = 7 about 1.5 (1.1 at ``max_edges=12``); n above 7 raises
    ``ValueError`` before any work starts.
    """
    _refuse_large(n)
    if n < 1:
        return []
    if n == 1:
        return [Graph(1, ())]
    pairs = list(combinations(range(n), 2))
    num_pairs = len(pairs)
    top = num_pairs if max_edges is None else max_edges
    out_of_range = bytes(not n - 1 <= size <= top for size in range(256))
    seen = bytearray(_edge_counts(num_pairs).translate(out_of_range))
    pos = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        pos[u][v] = pos[v][u] = i
    # each vertex permutation as the bit it sends every pair position to,
    # plus a 0 column so that itemgetter always returns a tuple
    rows = [
        [1 << pos[perm[u]][perm[v]] for u, v in pairs] + [0]
        for perm in permutations(range(n))
    ]

    canon = []
    mask = seen.find(0)
    while mask >= 0:
        # masks run upwards, so the first mask met in an orbit is its minimum;
        # connectivity holds on a whole orbit or on none of it
        bits = [i for i in range(num_pairs) if mask >> i & 1]
        for image in map(sum, map(itemgetter(*bits, num_pairs), rows)):
            seen[image] = 1
        if _mask_connected(n, pairs, mask):
            canon.append(mask)
        mask = seen.find(0, mask + 1)
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
