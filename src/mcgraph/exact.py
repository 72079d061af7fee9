"""Exact monochromatic connection numbers via two independent engines.

``mc_exact_naive`` enumerates set partitions of the edge set into color
classes and keeps the best partition that passes the validity check; it is
the ground-truth oracle for small edge counts.

``mc_exact`` reformulates the search: a maximum coloring can be assumed to be
a family of edge-disjoint monochromatic trees with at least two edges each,
whose vertex spans cover every non-adjacent pair, plus a fresh color on every
remaining edge.  Writing waste = sum(|tree| - 1), the value is m - min waste,
so the solver branch-and-bounds over tree covers.  It runs one depth-first
round per waste limit, from the root floor up to n - 3, and stops at the
first cover found; children are bounded before they are applied.  When no
round finds a cover, or the floor is already n - 2 (kappa <= 1), the
spanning-tree coloring (waste n - 2) is returned.  The two engines are kept
independent and are cross-checked against each other in the test suite.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetExceededError
from .graph import (
    Graph,
    all_pairs_distances,
    edge_components,
    is_connected,
)
from .mc import (
    EdgeColoring,
    McResult,
    SearchStats,
    TreeCover,
    mc_bounds_basic,
    spanning_tree_coloring,
)

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

    The waste limit deepens one unit per round, from the root floor up to
    n - 3, one below a spanning tree (Korf 1985).  Each round is a
    depth-first search that stops at its first cover, which is optimal
    because the round before found none.  A generated child is first tested
    without being applied: its covered set comes from a memo of the pairs
    inside each vertex set, and it is cut when the greedy vertex-disjoint
    matching of the pairs it leaves uncovered exceeds the budget left.  The
    survivors are sorted by (delta, edge key, target), applied one by one,
    and tested against a capacity bound built from the densest-subset table
    of the non-adjacency graph.  Every pruning test is monotone in the
    limit and a smaller limit only filters the move lists, so the first
    cover found is the one a strict-improvement search over the same move
    order ends on.

    One node is charged per generated child, cut or not, per round root and
    per expanded prefix of the path enumeration; ``max_nodes`` caps the sum.
    All iteration orders are fixed, so the witness is deterministic.
    """

    def __init__(self, g: Graph, max_nodes: int):
        self.g = g
        self.n = g.n
        self.max_nodes = max_nodes
        self.nodes = 0
        self.cut = 0

        ebit: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(g.edges):
            ebit[(u, v)] = ebit[(v, u)] = 1 << i
        # (neighbor, edge bit) per vertex, neighbors ascending
        self.arcs = [
            tuple((w, ebit[(u, w)]) for w in g.neighbors[u]) for u in range(self.n)
        ]

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
        self.vertex_pairs = [0] * self.n  # the pairs with an endpoint at v
        for i, (u, v) in enumerate(na):
            self.vertex_pairs[u] |= 1 << i
            self.vertex_pairs[v] |= 1 << i
        self.inside_memo: dict[int, int] = {}
        self.matching_memo: dict[int, int] = {}

        self.maxedges = self._max_subset_edges_table()
        self.dp_new = self._new_tree_capacity_table()

        # search state
        self.tree_v: list[int] = []
        self.tree_e: list[int] = []
        self.used_edges = 0
        self.covered = 0
        self.waste = 0

        self.floor = 0
        self.floor_by = "Lem1"
        self.targets: list[int] = []

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

    def _inside(self, vmask: int) -> int:
        """The non-adjacent pairs with both endpoints in ``vmask`` (memoised)."""
        inside = self.inside_memo.get(vmask)
        if inside is None:
            touched = 0
            rest = ~vmask & ((1 << self.n) - 1)
            while rest:
                touched |= self.vertex_pairs[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            inside = self.all_mask & ~touched
            self.inside_memo[vmask] = inside
        return inside

    def _matching(self, covered: int) -> int:
        """Greedy vertex-disjoint matching of the uncovered pairs, in pair
        order: a lower bound on the waste still needed (memoised)."""
        size = self.matching_memo.get(covered)
        if size is None:
            used = 0
            size = 0
            rest = self.all_mask & ~covered
            while rest:
                pm = self.pair_vmask[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
                if not pm & used:
                    used |= pm
                    size += 1
            self.matching_memo[covered] = size
        return size

    def _capacity_dp(self, budget: int) -> list[int]:
        """Budget-indexed optimistic coverage: extensions plus fresh trees."""
        dp = list(self.dp_new[: budget + 1])
        n = self.n
        for tv in self.tree_v:
            size = tv.bit_count()
            inside = self._inside(tv).bit_count()
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

    def _tick(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"tree-cover search exceeded {self.max_nodes} nodes"
            )

    def _paths(
        self, start: int, ends: int, max_len: int, forbidden_vmask: int = 0
    ) -> list:
        """Simple paths over free edges from start to a vertex of ``ends``,
        touching ``ends`` only at their last vertex; neighbors ascending.

        Internal vertices avoid ``forbidden_vmask``; the start must lie
        outside ``ends``.  Returns (vertex_mask, edge_mask, length) triples
        with length <= max_len.  Depth-first over an explicit stack of
        neighbor iterators, one node per expanded prefix.
        """
        out: list[tuple[int, int, int]] = []
        if max_len <= 0:
            return out
        blocked = forbidden_vmask & ~(1 << start)
        used = self.used_edges
        self._tick()
        stack = [(1 << start, 0, 0, iter(self.arcs[start]))]
        while stack:
            path_v, path_e, length, arcs = stack[-1]
            for w, ebit in arcs:
                if (used | path_e) & ebit:
                    continue
                wbit = 1 << w
                if ends & wbit:
                    out.append((path_v | wbit, path_e | ebit, length + 1))
                    continue
                if (path_v | blocked) & wbit or length + 1 >= max_len:
                    continue
                self._tick()
                stack.append(
                    (path_v | wbit, path_e | ebit, length + 1, iter(self.arcs[w]))
                )
                break
            else:
                stack.pop()
        return out

    # -- move generation ----------------------------------------------------

    def _move_key(self, move: tuple[int, int, int, int]) -> tuple:
        """The fixed move order: delta, ascending edge indices, target."""
        delta, target, _add_v, emask = move
        edges = []
        while emask:
            edges.append((emask & -emask).bit_length() - 1)
            emask &= emask - 1
        return delta, tuple(edges), target

    def _moves(self, u: int, v: int, budget: int, dp: list[int]) -> list:
        """Every minimal service of the pair (u, v) within the waste budget.

        Entries are (delta, target, add_vmask, add_emask), unsorted; target -1
        opens a new tree.  Each delta is gated by a sound capacity test: the
        move's tree may keep growing later, so the gate maximizes over how
        much further budget that tree could absorb before charging the rest
        to ``dp``.
        """
        uncovered_cnt = (self.all_mask & ~self.covered).bit_count()
        n = self.n
        moves: list[tuple[int, int, int, int]] = []

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
                tv = self.tree_v[t]
                arr = delta_gate(tv.bit_count(), self._inside(tv).bit_count())
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
        uv_paths = self._paths(u, 1 << v, uv_cap)

        for pv, pe, length in uv_paths:
            delta = length - 1
            if delta <= budget and new_ok[delta]:
                moves.append((delta, -1, pv, pe))

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
                for pv, pe, length in self._paths(x, tv, worth):
                    if arr[length]:
                        moves.append((length, t, pv, pe))
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
                        moves.append((length, t, pv, pe))
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
                        for cv, ce, clen in self._paths(
                            y, tv, room, forbidden_vmask=pv
                        ):
                            delta = length + clen
                            if arr[delta]:
                                moves.append((delta, t, pv | cv, pe | ce))
                finally:
                    self.used_edges = saved
        return moves

    # -- state updates ------------------------------------------------------

    def _apply(self, target: int, add_v: int, add_e: int, delta: int):
        state: tuple = (self.covered, self.used_edges, self.waste)
        if target < 0:
            self.tree_v.append(add_v)
            self.tree_e.append(add_e)
            target = len(self.tree_v) - 1
            created = True
        else:
            created = False
            state += (self.tree_v[target], self.tree_e[target])
            self.tree_v[target] |= add_v
            self.tree_e[target] |= add_e
        self.covered |= self._inside(self.tree_v[target])
        self.used_edges |= add_e
        self.waste += delta
        return created, target, state

    def _undo(self, created: bool, target: int, state: tuple) -> None:
        self.covered, self.used_edges, self.waste = state[0], state[1], state[2]
        if created:
            self.tree_v.pop()
            self.tree_e.pop()
        else:
            self.tree_v[target] = state[3]
            self.tree_e[target] = state[4]

    # -- search -------------------------------------------------------------

    def _dfs(self, limit: int) -> list[int] | None:
        """The tree edge masks of the first cover of waste at most ``limit``
        below the current state, or None."""
        if self.covered == self.all_mask:
            return list(self.tree_e)
        budget = limit - self.waste
        rest = self.all_mask & ~self.covered
        dp = self._capacity_dp(budget)
        if dp[budget] < rest.bit_count():
            return None
        u, v = self.pairs[(rest & -rest).bit_length() - 1]
        moves = self._moves(u, v, budget, dp)
        self._tick(len(moves))
        children = []
        for move in moves:
            delta, target, add_v, _add_e = move
            tv = add_v if target < 0 else self.tree_v[target] | add_v
            if self._matching(self.covered | self._inside(tv)) > budget - delta:
                self.cut += 1
            else:
                children.append(move)
        children.sort(key=self._move_key)
        for delta, target, add_v, add_e in children:
            created, t, state = self._apply(target, add_v, add_e, delta)
            found = self._dfs(limit)
            self._undo(created, t, state)
            if found is not None:
                return found
        return None

    def solve(self, lemma1_floor: int) -> list[int] | None:
        """The tree edge masks of a minimum-waste cover, or None when no
        cover is cheaper than a spanning tree (waste n - 2)."""
        capacity_floor = next(
            b for b in range(len(self.dp_new)) if self.dp_new[b] >= self.num_pairs
        )
        floors = {
            "Lem1": lemma1_floor,
            "matching": self._matching(0),
            "capacity": capacity_floor,
        }
        self.floor = max(floors.values())
        self.floor_by = next(name for name, b in floors.items() if b == self.floor)
        if self.num_pairs == 0:
            return []
        for limit in range(self.floor, self.n - 2):
            self.targets.append(limit)
            self._tick()  # the round's root
            found = self._dfs(limit)
            if found is not None:
                return found
        return None

    def stats(self) -> SearchStats:
        return SearchStats(
            nodes=self.nodes,
            floor=self.floor,
            floor_by=self.floor_by,
            targets=tuple(self.targets),
            cut=self.cut,
        )


def mc_exact(g: Graph, max_nodes: int = DEFAULT_NODE_BUDGET) -> McResult:
    """Exact mc by branch and bound over covering tree families.

    The search window comes from the basic sandwich only, so this engine
    stays independent of the certificate machinery.  When that floor already
    allows no cover cheaper than a spanning tree (kappa <= 1, so any tree or
    graph with a cut vertex), the spanning tree is returned without a search.
    On budget exhaustion no value is claimed: the result carries just the
    interval, with method ``bounds-only``.  ``stats`` holds the search
    counters either way.
    """
    if g.n <= 1 or not is_connected(g):
        return _trivial_result(g, "tree-cover")
    bounds = mc_bounds_basic(g)
    lemma1_floor = g.m - bounds.upper
    tree_masks = None
    if lemma1_floor >= g.n - 2:
        stats = SearchStats(nodes=0, floor=lemma1_floor, floor_by="Lem1")
    else:
        solver = _TreeCoverSolver(g, max_nodes)
        try:
            tree_masks = solver.solve(lemma1_floor)
        except BudgetExceededError:
            return McResult(
                value=None,
                witness=None,
                method="bounds-only",
                bounds=bounds,
                stats=solver.stats(),
            )
        stats = solver.stats()
    if tree_masks is None:
        witness = spanning_tree_coloring(g)
    else:
        trees = []
        for emask in tree_masks:
            edges = []
            rest = emask
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                edges.append(g.edges[i])
            trees.append(tuple(sorted(edges)))
        witness = TreeCover(host=g, trees=tuple(sorted(trees))).to_coloring()
    return McResult(
        value=witness.color_count,
        witness=witness,
        method="tree-cover",
        bounds=bounds,
        stats=stats,
    )
