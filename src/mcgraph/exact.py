"""Exact monochromatic connection numbers via two independent engines.

``mc_exact_naive`` enumerates set partitions of the edge set into color
classes and keeps the best partition that passes the validity check; it is
the ground-truth oracle for small edge counts.

``mc_exact`` reformulates the search: a maximum coloring can be assumed to be
a family of edge-disjoint monochromatic trees with at least two edges each,
whose vertex spans cover every non-adjacent pair, plus a fresh color on every
remaining edge.  Writing waste = sum(|tree| - 1), the value is m - min waste,
so the solver branch-and-bounds over tree covers.  The two engines are kept
independent and are cross-checked against each other in the test suite.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetExceededError
from .graph import (
    Graph,
    all_pairs_distances,
    bfs_parents,
    edge_components,
    is_connected,
)
from .mc import EdgeColoring, McResult, TreeCover, mc_bounds_basic

DEFAULT_NAIVE_EDGE_CAP = 12
DEFAULT_NODE_BUDGET = 10_000_000

__all__ = [
    "mc_exact_naive",
    "mc_exact",
    "DEFAULT_NAIVE_EDGE_CAP",
    "DEFAULT_NODE_BUDGET",
]


def _trivial_result(g: Graph, method: str) -> McResult:
    return McResult(value=0, witness=None, method=method, bounds=mc_bounds_basic(g))


# ---------------------------------------------------------------------------
# Naive engine: exhaustive set-partition search
# ---------------------------------------------------------------------------


def mc_exact_naive(g: Graph, max_edges: int = DEFAULT_NAIVE_EDGE_CAP) -> McResult:
    """Exact mc by brute force over all edge-set partitions.

    Iterates candidate color counts from m downward and returns the first
    count admitting a valid partition, so the cost is dominated by the
    partition counts just above the answer.  Refuses graphs with more than
    ``max_edges`` edges.
    """
    if g.n <= 1 or not is_connected(g):
        return _trivial_result(g, "naive-partition")
    m = g.m
    if m > max_edges:
        raise ValueError(f"naive enumeration cap exceeded: {m} edges > {max_edges}")

    n = g.n
    pair_id = {p: i for i, p in enumerate(combinations(range(n), 2))}
    full_mask = (1 << len(pair_id)) - 1
    served_cache: dict[int, int] = {}

    def served_pairs(class_mask: int) -> int:
        """Pairs joined inside the subgraph formed by this set of edges."""
        cached = served_cache.get(class_mask)
        if cached is not None:
            return cached
        edges = [e for i, e in enumerate(g.edges) if class_mask >> i & 1]
        mask = 0
        for comp in edge_components(n, edges):
            for a, b in combinations(comp, 2):
                mask |= 1 << pair_id[(a, b)]
        served_cache[class_mask] = mask
        return mask

    def search(k: int) -> list[int] | None:
        """First valid partition of the edges into exactly k classes."""
        assignment = [0] * m
        classes: list[int] = []

        def rec(i: int) -> bool:
            if i == m:
                if len(classes) != k:
                    return False
                acc = 0
                for cmask in classes:
                    acc |= served_pairs(cmask)
                    if acc == full_mask:
                        return True
                return False
            if len(classes) + (m - i) < k:
                return False
            bit = 1 << i
            limit = min(len(classes) + 1, k)
            for c in range(limit):
                opened = c == len(classes)
                if opened:
                    classes.append(bit)
                else:
                    classes[c] |= bit
                assignment[i] = c
                if rec(i + 1):
                    return True
                if opened:
                    classes.pop()
                else:
                    classes[c] ^= bit
            return False

        return list(assignment) if rec(0) else None

    for k in range(m, 0, -1):
        partition = search(k)
        if partition is not None:
            witness = EdgeColoring(g, tuple(partition))
            return McResult(
                value=witness.color_count,
                witness=witness,
                method="naive-partition",
                bounds=mc_bounds_basic(g),
            )
    raise AssertionError("one color class always works on a connected graph")


# ---------------------------------------------------------------------------
# Tree-cover engine: branch and bound over covering tree families
# ---------------------------------------------------------------------------


class _TreeCoverSolver:
    """Minimizes total tree waste subject to covering all non-adjacent pairs.

    Branching picks the first uncovered pair in a fixed order (farthest pairs
    first) and enumerates every minimal way to bring both endpoints into one
    tree: a fresh path between them, an attachment path into an existing
    tree, or a path plus a connector when neither endpoint is housed yet.
    Pruning combines the strict-improvement budget with a vertex-disjoint
    matching bound, a housing bound (each waste unit houses at most three new
    vertices) and a capacity bound built from the densest-subset table of the
    non-adjacency graph.  All iteration orders are fixed, so the witness is
    deterministic.
    """

    def __init__(self, g: Graph, max_nodes: int):
        self.g = g
        self.n = g.n
        self.m = g.m
        self.max_nodes = max_nodes
        self.nodes = 0

        self.nbrs = g.neighbors
        self.eid: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(g.edges):
            self.eid[(u, v)] = i
            self.eid[(v, u)] = i

        dist = all_pairs_distances(g)
        na = [
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if not g.has_edge(u, v)
        ]
        na.sort(key=lambda p: (-dist[p[0]][p[1]], p))
        self.pairs = na
        self.num_pairs = len(na)
        self.all_mask = (1 << self.num_pairs) - 1
        self.pair_vmask = [(1 << u) | (1 << v) for u, v in na]

        self.maxedges = self._max_subset_edges_table()
        self.dp_new = self._new_tree_capacity_table()

        # search state
        self.tree_v: list[int] = []
        self.tree_e: list[int] = []
        self.tree_cov: list[int] = []
        self.used_edges = 0
        self.covered = 0
        self.waste = 0

        self.best_waste: int | None = None
        self.best_trees: list[int] | None = None
        self.floor = 0
        self.done = False

    # -- precomputed tables -------------------------------------------------

    def _max_subset_edges_table(self) -> list[int]:
        """maxedges[s] = most non-adjacent pairs inside any s-vertex subset
        whose induced subgraph is connected (a tree's span always is)."""
        n, total = self.n, self.num_pairs
        if total == 0:
            return [0] * (n + 1)
        if n > 16:
            return [min(s * (s - 1) // 2, total) for s in range(n + 1)]
        na_vmask = [0] * n
        for u, v in self.pairs:
            na_vmask[u] |= 1 << v
            na_vmask[v] |= 1 << u
        adj_vmask = [0] * n
        for u, v in self.g.edges:
            adj_vmask[u] |= 1 << v
            adj_vmask[v] |= 1 << u
        check_connected = n <= 14  # subset BFS is the costly part
        best = [0] * (n + 1)
        counts = bytearray(1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            v = low.bit_length() - 1
            rest = mask ^ low
            c = counts[rest] + (na_vmask[v] & rest).bit_count()
            counts[mask] = c
            s = mask.bit_count()
            if c <= best[s]:
                continue
            if check_connected:
                seen = low
                frontier = low
                while frontier:
                    nxt = 0
                    f = frontier
                    while f:
                        w = (f & -f).bit_length() - 1
                        f &= f - 1
                        nxt |= adj_vmask[w]
                    frontier = nxt & mask & ~seen
                    seen |= frontier
                if seen != mask:
                    continue
            best[s] = c
        for s in range(1, n + 1):  # connected spans extend one vertex at a time
            best[s] = max(best[s], best[s - 1])
        return best

    def _new_tree_capacity_table(self) -> list[int]:
        """dp[b] = optimistic pairs coverable by fresh trees of total waste b."""
        limit = max(self.n, 2)
        dp = [0] * (limit + 1)
        for b in range(1, limit + 1):
            dp[b] = max(
                dp[b - w] + self.maxedges[min(w + 2, self.n)]
                for w in range(1, b + 1)
            )
        return dp

    # -- bounds -------------------------------------------------------------

    def _matching_and_housing(self) -> tuple[int, int]:
        """Greedy vertex-disjoint uncovered pairs and their housing demand."""
        housed = 0
        for vm in self.tree_v:
            housed |= vm
        used = 0
        matching = 0
        demand = 0
        rest = self.all_mask & ~self.covered
        while rest:
            idx = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            pm = self.pair_vmask[idx]
            if pm & used:
                continue
            used |= pm
            matching += 1
            demand += max(1, (pm & ~housed).bit_count())
        housing_lb = -(-demand // 3)
        return matching, housing_lb

    def _capacity_dp(self, budget: int) -> list[int]:
        """Budget-indexed optimistic coverage: extensions plus fresh trees."""
        dp = list(self.dp_new[: budget + 1])
        n = self.n
        for t in range(len(self.tree_v)):
            size = self.tree_v[t].bit_count()
            inside = self.tree_cov[t].bit_count()
            gain = [
                max(0, self.maxedges[min(size + e, n)] - inside)
                for e in range(budget + 1)
            ]
            for b in range(budget, 0, -1):
                best = dp[b]
                for e in range(1, b + 1):
                    cand = dp[b - e] + gain[e]
                    if cand > best:
                        best = cand
                dp[b] = best
        return dp

    # -- path enumeration ---------------------------------------------------

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"tree-cover search exceeded {self.max_nodes} nodes"
            )

    def _simple_paths(self, start: int, goal: int, max_len: int) -> list:
        """All simple start..goal paths over free edges, ascending neighbors.

        Returns (vertex_mask, edge_mask, length) triples; length <= max_len.
        """
        out: list[tuple[int, int, int]] = []
        if max_len <= 0:
            return out

        def rec(u: int, path_v: int, path_e: int, length: int) -> None:
            self._tick()
            for w in self.nbrs[u]:
                ebit = 1 << self.eid[(u, w)]
                if (self.used_edges | path_e) & ebit:
                    continue
                if w == goal:
                    out.append((path_v | (1 << w), path_e | ebit, length + 1))
                    continue
                wbit = 1 << w
                if path_v & wbit or length + 1 >= max_len:
                    continue
                rec(w, path_v | wbit, path_e | ebit, length + 1)

        rec(start, 1 << start, 0, 0)
        return out

    def _attach_paths(
        self, start: int, tree_vmask: int, max_len: int, forbidden_vmask: int = 0
    ) -> list:
        """Simple paths from start into the tree, touching it only at the end.

        Internal vertices avoid the tree and ``forbidden_vmask``; the start
        must lie outside the tree.
        """
        out: list[tuple[int, int, int]] = []
        if max_len <= 0:
            return out
        blocked = forbidden_vmask & ~(1 << start)

        def rec(u: int, path_v: int, path_e: int, length: int) -> None:
            self._tick()
            for w in self.nbrs[u]:
                ebit = 1 << self.eid[(u, w)]
                if (self.used_edges | path_e) & ebit:
                    continue
                wbit = 1 << w
                if tree_vmask & wbit:
                    out.append((path_v | wbit, path_e | ebit, length + 1))
                    continue
                if (path_v | blocked) & wbit or length + 1 >= max_len:
                    continue
                rec(w, path_v | wbit, path_e | ebit, length + 1)

        rec(start, 1 << start, 0, 0)
        return out

    # -- move generation ----------------------------------------------------

    def _ekey(self, emask: int) -> tuple[int, ...]:
        out = []
        while emask:
            out.append((emask & -emask).bit_length() - 1)
            emask &= emask - 1
        return tuple(out)

    def _moves(self, u: int, v: int, budget: int, dp: list[int]) -> list:
        """Every minimal service of the pair (u, v) within the waste budget.

        Entries are (delta, edge_key, target, add_vmask, add_emask); target -1
        opens a new tree.  Each delta is gated by a sound capacity test: the
        move's tree may keep growing later, so the gate maximizes over how
        much further budget that tree could absorb before charging the rest
        to ``dp``.
        """
        uncovered_cnt = (self.all_mask & ~self.covered).bit_count()
        n = self.n
        moves: list[tuple[int, tuple[int, ...], int, int, int]] = []

        def delta_gate(base_size: int, inside: int) -> list[bool]:
            ok = [False] * (budget + 1)
            for delta in range(1, budget + 1):
                best = 0
                for extra in range(budget - delta + 1):
                    val = (
                        self.maxedges[min(base_size + delta + extra, n)]
                        - inside
                        + dp[budget - delta - extra]
                    )
                    if val > best:
                        best = val
                ok[delta] = best >= uncovered_cnt
            return ok

        new_ok = delta_gate(2, 0)
        max_new = max((d for d in range(budget + 1) if new_ok[d]), default=0)
        ext_ok_cache: dict[int, list[bool]] = {}

        def ext_ok(t: int) -> list[bool]:
            arr = ext_ok_cache.get(t)
            if arr is None:
                arr = delta_gate(
                    self.tree_v[t].bit_count(), self.tree_cov[t].bit_count()
                )
                ext_ok_cache[t] = arr
            return arr

        # longest u..v path worth enumerating across all uses of uv_paths
        uv_cap = max_new + 1
        pending = [
            t
            for t in range(len(self.tree_v))
            if not self.tree_v[t] & ((1 << u) | (1 << v))
        ]
        for t in pending:
            arr = ext_ok(t)
            worth = max((d for d in range(budget + 1) if arr[d]), default=0)
            uv_cap = max(uv_cap, worth)
        uv_paths = self._simple_paths(u, v, uv_cap)

        for pv, pe, length in uv_paths:
            delta = length - 1
            if delta <= budget and new_ok[delta]:
                moves.append((delta, self._ekey(pe), -1, pv, pe))

        ubit, vbit = 1 << u, 1 << v
        for t in range(len(self.tree_v)):
            tv = self.tree_v[t]
            has_u, has_v = bool(tv & ubit), bool(tv & vbit)
            if has_u and has_v:
                continue
            arr = ext_ok(t)
            worth = max((d for d in range(budget + 1) if arr[d]), default=0)
            if worth == 0:
                continue
            if has_u or has_v:
                x = v if has_u else u
                for pv, pe, length in self._attach_paths(x, tv, worth):
                    if arr[length]:
                        moves.append((length, self._ekey(pe), t, pv, pe))
                continue
            # Neither endpoint housed: a u..v path crossing the tree exactly
            # once attaches directly; a disjoint one needs a connector from
            # some junction on the path into the tree.
            for pv, pe, length in uv_paths:
                if length > worth:
                    continue
                overlap = (pv & tv).bit_count()
                if overlap > 1:
                    continue
                if overlap == 1:
                    if arr[length]:
                        moves.append((length, self._ekey(pe), t, pv, pe))
                    continue
                room = worth - length
                if room < 1:
                    continue
                saved = self.used_edges
                self.used_edges |= pe  # connector must avoid the path's edges
                try:
                    rest = pv
                    while rest:
                        y = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        for cv, ce, clen in self._attach_paths(
                            y, tv, room, forbidden_vmask=pv
                        ):
                            delta = length + clen
                            if arr[delta]:
                                moves.append(
                                    (
                                        delta,
                                        self._ekey(pe | ce),
                                        t,
                                        pv | cv,
                                        pe | ce,
                                    )
                                )
                finally:
                    self.used_edges = saved
        moves.sort(key=lambda mv: (mv[0], mv[1], mv[2]))
        return moves

    # -- state updates ------------------------------------------------------

    def _newly_covered(self, t: int) -> int:
        vm = self.tree_v[t]
        new = 0
        rest = ~self.tree_cov[t] & self.all_mask
        while rest:
            idx = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if self.pair_vmask[idx] & ~vm == 0:
                new |= 1 << idx
        return new

    def _apply(self, target: int, add_v: int, add_e: int, delta: int):
        state: tuple = (self.covered, self.used_edges, self.waste)
        if target < 0:
            self.tree_v.append(0)
            self.tree_e.append(0)
            self.tree_cov.append(0)
            target = len(self.tree_v) - 1
            created = True
        else:
            created = False
            state += (
                self.tree_v[target],
                self.tree_e[target],
                self.tree_cov[target],
            )
        self.tree_v[target] |= add_v
        self.tree_e[target] |= add_e
        new_pairs = self._newly_covered(target)
        self.tree_cov[target] |= new_pairs
        self.covered |= new_pairs
        self.used_edges |= add_e
        self.waste += delta
        return created, target, state

    def _undo(self, created: bool, target: int, state: tuple) -> None:
        self.covered, self.used_edges, self.waste = state[0], state[1], state[2]
        if created:
            self.tree_v.pop()
            self.tree_e.pop()
            self.tree_cov.pop()
        else:
            self.tree_v[target] = state[3]
            self.tree_e[target] = state[4]
            self.tree_cov[target] = state[5]

    # -- search -------------------------------------------------------------

    def _dfs(self) -> None:
        if self.done:
            return
        self._tick()
        if self.covered == self.all_mask:
            if self.best_waste is None or self.waste < self.best_waste:
                self.best_waste = self.waste
                self.best_trees = list(self.tree_e)
                if self.waste <= self.floor:
                    self.done = True
            return
        assert self.best_waste is not None
        budget = self.best_waste - 1 - self.waste
        if budget < 0:
            return
        matching, housing = self._matching_and_housing()
        if max(matching, housing) > budget:
            return
        uncovered_cnt = (self.all_mask & ~self.covered).bit_count()
        dp = self._capacity_dp(budget)
        if dp[budget] < uncovered_cnt:
            return
        rest = self.all_mask & ~self.covered
        idx = (rest & -rest).bit_length() - 1
        u, v = self.pairs[idx]
        for delta, _key, target, add_v, add_e in self._moves(u, v, budget, dp):
            created, t, state = self._apply(target, add_v, add_e, delta)
            self._dfs()
            self._undo(created, t, state)
            if self.done:
                return

    def _greedy_incumbent(self) -> tuple[int, list[int]] | None:
        """Cheapest-service-first construction used as the starting incumbent."""
        permissive = [10**9] * (self.n + 2)
        try:
            while self.covered != self.all_mask:
                rest = self.all_mask & ~self.covered
                idx = (rest & -rest).bit_length() - 1
                u, v = self.pairs[idx]
                move = None
                for cap in range(1, self.n + 1):
                    candidates = self._moves(u, v, cap, permissive)
                    if candidates:
                        move = candidates[0]
                        break
                if move is None:
                    return None
                delta, _key, target, add_v, add_e = move
                self._apply(target, add_v, add_e, delta)
            return self.waste, list(self.tree_e)
        finally:
            self.tree_v.clear()
            self.tree_e.clear()
            self.tree_cov.clear()
            self.covered = 0
            self.used_edges = 0
            self.waste = 0

    def _spanning_tree_emask(self) -> int:
        emask = 0
        for v, p in bfs_parents(self.g, 0).items():
            if v != p:
                emask |= 1 << self.eid[(p, v)]
        return emask

    def solve(self, lemma1_floor: int) -> tuple[int, list[int]]:
        """Return (minimum waste, tree edge masks)."""
        if self.num_pairs == 0:
            return 0, []
        matching, housing = self._matching_and_housing()
        capacity_floor = next(
            b for b in range(len(self.dp_new)) if self.dp_new[b] >= self.num_pairs
        )
        self.floor = max(lemma1_floor, matching, housing, capacity_floor, 1)

        self.best_waste = self.n - 2
        self.best_trees = [self._spanning_tree_emask()]
        greedy = self._greedy_incumbent()
        if greedy is not None and greedy[0] < self.best_waste:
            self.best_waste, self.best_trees = greedy
        if self.best_waste > self.floor:
            self._dfs()
        assert self.best_waste is not None and self.best_trees is not None
        return self.best_waste, self.best_trees


def mc_exact(g: Graph, max_nodes: int = DEFAULT_NODE_BUDGET) -> McResult:
    """Exact mc by branch and bound over covering tree families.

    The search window comes from the basic sandwich only, so this engine
    stays independent of the certificate machinery.  On budget exhaustion no
    value is claimed: the result carries just the interval, with method
    ``bounds-only``.
    """
    if g.n <= 1 or not is_connected(g):
        return _trivial_result(g, "tree-cover")
    bounds = mc_bounds_basic(g)
    lemma1_floor = g.m - bounds.upper
    solver = _TreeCoverSolver(g, max_nodes)
    try:
        waste, tree_masks = solver.solve(lemma1_floor)
    except BudgetExceededError:
        return McResult(value=None, witness=None, method="bounds-only", bounds=bounds)
    trees = []
    for emask in tree_masks:
        edges = []
        rest = emask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            edges.append(g.edges[i])
        trees.append(tuple(sorted(edges)))
    cover = TreeCover(host=g, trees=tuple(sorted(trees)))
    return McResult(
        value=g.m - waste,
        witness=cover.to_coloring(),
        method="tree-cover",
        bounds=bounds,
    )
