"""The tree-cover engine: exact mc by branch and bound over tree covers.

A maximum coloring can be taken to be edge-disjoint monochromatic trees of
at least two edges each, whose vertex spans cover every non-adjacent pair,
plus a fresh color on every other edge, so mc = m - min waste, the waste
of a tree being its edge count less one.  The engine shares no search code
with the naive engine (:mod:`mcgraph.naive`), its independent check, and
neither imports the other (``tests/test_module_graph.py``).  The
``_TreeCoverSolver`` docstring holds the argument for every cut and prune.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import combinations

from .errors import BudgetExceededError
from .graph import Graph, all_pairs_distances, is_complete, is_connected
from .mc import (
    McResult,
    SearchStats,
    TreeCover,
    _checked_result,
    _trivial_result,
    all_distinct_coloring,
    mc_bounds_basic,
    spanning_tree_coloring,
)

DEFAULT_NODE_BUDGET = 1_000_000
_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # adds 1 to each byte lane

__all__ = ["mc_exact", "DEFAULT_NODE_BUDGET"]


class _Frontier:
    """The simple paths over ``free`` from a vertex of ``starts`` to a vertex
    of ``ends``, one length at a time, kept as subset states rather than
    listed.

    A path touches ``ends`` only at its last vertex, its internal vertices
    avoid ``forbidden``, and no start lies in ``ends``.  Two open prefixes
    with the same vertex set and the same last vertex have the same
    extensions, so ``states`` maps each last vertex x to the set of vertex
    masks of the prefixes of length ``length`` that end at x (None before
    the first call).  ``paths(k)`` grows the states to length k - 1 and
    returns the keys of the paths of length k, a path's key being its
    vertex set without its last vertex: a state (vmask, x) gives key vmask
    when ``free[x] & ends`` is not empty.  k must rise from call to call.
    ``expand(key)`` rebuilds the edge masks of the paths behind one key.
    The frontier is charged one node per start and per state it creates.

    A frontier given a ``budget`` serves one tree, ``ends``: each of its
    paths, joined with ``starts``, is one move into that tree, adding
    every vertex but the last with one unit of waste each.  A state with
    vertex set P then stands for the partial move that adds ``starts | P``
    (delta popcount(``starts | P``), which is ``starts.bit_count()`` plus
    the length), and a grow step drops it, after charging it, when that
    move fails the matching cut (``_TreeCoverSolver._cuts``).  Every move
    through a dropped state fails the cut too (the argument is in the
    ``_TreeCoverSolver`` docstring), and no kept state loses a prefix (each
    prefix of a kept state passes as well).  Without a budget nothing is
    dropped.

    At a prefix ending at x the extensions are ``free[x] & open & ~vmask``,
    where ``open`` is every vertex outside ``ends`` and ``forbidden``, and
    the paths close at ``free[x] & ends``.  A grow step lists x's steps
    ``free[x] & open`` once, for every state ending at x.  A path's own
    edges join vertices of its prefix, which ``ends`` never meets, so no
    edge test beyond ``free`` is needed.
    """

    __slots__ = (
        "solver", "free", "starts", "ends", "open_v", "budget", "states", "length",
    )

    def __init__(
        self,
        solver: _TreeCoverSolver,
        free: list[int],
        starts: int,
        ends: int,
        forbidden: int = 0,
        budget: int | None = None,
    ):
        self.solver = solver
        self.free = free
        self.starts = starts
        self.ends = ends
        self.open_v = solver.vertex_mask & ~ends & ~forbidden
        self.budget = budget
        self.states: dict[int, set[int]] | None = None
        self.length = 0

    def paths(self, k: int) -> set[int]:
        """The keys of the paths of length k, a path's key being its vertex
        set without its last vertex; grows the states to length k - 1 first,
        charging each state it creates."""
        free = self.free
        states = self.states
        if states is None:
            self.solver._tick(self.starts.bit_count())
            states = {}
            rest = self.starts
            while rest:
                bit = rest & -rest
                rest ^= bit
                states[bit.bit_length() - 1] = {bit}
        open_v = self.open_v
        while self.length < k - 1 and states:
            grown: dict[int, set[int]] = {}
            for x, at_x in states.items():
                steps = []
                cand = free[x] & open_v
                while cand:
                    wbit = cand & -cand
                    cand ^= wbit
                    w = wbit.bit_length() - 1
                    steps.append((wbit, grown.setdefault(w, set())))
                for vmask in at_x:
                    for wbit, at_w in steps:
                        if not vmask & wbit:
                            at_w.add(vmask | wbit)
            self.solver._tick(sum(map(len, grown.values())))
            self.length += 1
            if self.budget is not None:
                self._cut(grown)
            states = {w: at_w for w, at_w in grown.items() if at_w}
        self.states = states
        ends = self.ends
        return {
            vmask for x, at_x in states.items() if free[x] & ends for vmask in at_x
        }

    def _cut(self, grown: dict[int, set[int]]) -> None:
        """Drop from ``grown`` the states whose partial move fails the
        matching cut (see the class docstring).  The solver's covered set is
        the node's own here, as ``_levels`` grows its frontiers only between
        children."""
        cuts, covered = self.solver._cuts, self.solver.covered
        tree = self.ends | self.starts
        slack = self.budget - self.starts.bit_count() - self.length
        for w, at_w in grown.items():
            grown[w] = {p for p in at_w if not cuts(covered, tree | p, slack)}

    def expand(self, key: int) -> list[int]:
        """The edge masks of the frontier's paths whose vertex set without
        the last vertex is exactly ``key``: a depth-first walk inside
        ``key`` on an explicit stack, closed at each free end vertex of the
        walk's last vertex; charges nothing."""
        free, ebit, ends = self.free, self.solver.ebit, self.ends
        inner = key & self.open_v
        out = []
        stack = []
        rest = key & self.starts
        while rest:
            bit = rest & -rest
            rest ^= bit
            stack.append((bit, bit.bit_length() - 1, 0))
        while stack:
            pv, x, pe = stack.pop()
            if pv == key:  # the walk uses the whole key
                close, at_x = free[x] & ends, ebit[x]
                while close:
                    wbit = close & -close
                    close ^= wbit
                    out.append(pe | at_x[wbit])
                continue
            cand = free[x] & inner & ~pv
            while cand:
                wbit = cand & -cand
                cand ^= wbit
                stack.append((pv | wbit, wbit.bit_length() - 1, pe | ebit[x][wbit]))
        return out


def _augment(root: int, nbr: list[int], mate: list[int]) -> bool:
    """Flip an augmenting path from the free left copy ``root`` of the
    bipartite double cover into ``mate`` and return True, or return False
    if there is none.  Left copy x is joined to the right copies ``nbr[x]``,
    and ``mate[y]`` is the left copy matched to right copy y, or -1.  The
    depth-first search keeps the path's right copies on a stack; the left
    copy after y is ``mate[y]``.  Each step marks a right copy not seen
    before in this search or pops one, so it ends within 2n + 1 steps."""
    seen = 0
    path: list[int] = []
    while True:
        cand = nbr[mate[path[-1]] if path else root] & ~seen
        if cand:
            bit = cand & -cand
            seen |= bit
            path.append(bit.bit_length() - 1)
            if mate[path[-1]] < 0:
                x = root
                for y in path:  # each right copy takes the left copy before it
                    mate[y], x = x, mate[y]
                return True
        elif path:
            path.pop()
        else:
            return False


class _Record(tuple):
    """A search state, the tuple of its tree edge masks, with what the
    symmetry test reads of it, built once by ``_TreeCoverSolver._record``:

    - ``order``: the vertices in the order the vertex map takes them: those
      at a tree edge first (they have the fewest candidates), then the
      others, each part by index;
    - ``classes``: the class of each vertex of ``order``, in that order: the
      WL colour and then the sorted (edge count, degree) of each tree at the
      vertex, each pair as one int, or the WL colour alone, an int, for a
      vertex at no tree edge;
    - ``key``: the sorted classes of the vertices at a tree edge, the
      state's bucket, which an automorphism keeps.  The colours of the other
      vertices are the host's colours less theirs, so two states of one key
      have the same classes, with the same multiplicities;
    - ``of_class``: each class's vertices, as a mask;
    - ``tree_of``: the index of the tree that holds each tree edge's bit;
    - ``tn``: each vertex's neighbours along tree edges, as a mask.
    """

    key: tuple
    order: list[int]
    classes: list
    of_class: dict
    tree_of: dict[int, int]
    tn: list[int]


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
    inside each vertex set, and it is cut when a matching bound on the
    pairs it leaves uncovered exceeds the budget left.  The greedy matching
    in pair order (``_matching``) is tried first; only a child it passes
    pays for the fractional matching bound (``_max_matching``, one
    augmenting search per free vertex on the bipartite double cover,
    started from the greedy matching), and both are memoised by covered
    set.  The survivors are sorted by (delta, edge key, target), applied
    one by one, and tested against a capacity bound built from
    ``_max_subset_edges_table``: the most non-adjacent pairs inside a
    connected subset of each size, as a tree's span is connected (a subset
    spanning fewer than s - 1 edges is skipped as disconnected, and every
    other one that would raise the table is searched).  Every pruning test
    is monotone in the limit and a smaller limit only filters the move
    lists, so the first cover found is the one a strict-improvement search
    over the same move order ends on.

    The matching cut is sound for any weights y >= 0 on the uncovered
    (non-adjacent) pairs with sum(y_p for p at w) <= 1 at every vertex w:
    completing the cover costs at least sum(y) more waste.  A completion
    grows existing trees, one vertex and one edge (one unit of waste) per
    added vertex, and opens new ones.  Adding a vertex w to an existing
    tree newly covers only pairs at w, of weight at most 1.  A new tree
    over s vertices has waste s - 2 and covers pairs inside its s
    vertices, of weight at most s/2.  If s >= 4, then s/2 <= s - 2.  If
    s = 3, the tree is a path, so it holds one non-adjacent pair, of weight
    at most 1 = s - 2.  Every uncovered pair must be covered, so the waste
    to come is at least sum(y), and, being whole, at least its ceiling.  A
    matching is such a y with weights 0 and 1, so the fractional matching
    number, never below the largest matching, cuts every child the greedy
    matching cuts, and no cut child leads to a cover within the limit.

    The same count cuts a path prefix before its move is finished.  A
    frontier that serves one tree (each attachment, the connectors of each
    base) holds states that stand for partial moves into that tree: a
    state with vertex set P adds the vertices ``starts | P``.  When that
    partial move fails the cut, so does every move through the state: a
    completion A of P adds |A - P| more vertices, each of which newly
    covers only pairs at itself, of weight at most 1, so the bound falls
    by at most |A - P| while the waste left falls by exactly |A - P|.  So
    the frontier drops the state, and loses no move of a group that passes
    the cut.  The u..v frontier also serves new trees, crossing paths and
    connector bases, so it drops nothing.

    Moves stream one delta level at a time (``_levels``): a node generates,
    cuts, sorts and visits every child of delta d before it asks for delta
    d + 1.  Delta leads the sort key, so the visit order is that of sorting
    every move of the node at once.  The paths behind the moves are kept
    per node as ``_Frontier`` objects (the u..v paths, each attachment, the
    connectors of each base vertex set), each holding, per last vertex, the
    vertex sets of its open prefixes of one length; a frontier grows by one
    edge only when a level needs longer paths, so a path that no visited
    level needs is never built.  A level comes as groups of children with
    one target and one set of vertices added to that target; the paths
    that differ only in the tree vertex they end at fall in one group, as
    one frontier entry.  The matching cut reads nothing else of a child,
    so it runs once per group, and only a group that passes it is expanded
    into concrete moves, by the frontier that produced it: a walk inside
    the group's vertex set closed at each free end vertex.  A tree's
    capacity gate is the one number ``_delta_gate`` returns: it passes
    exactly the deltas 1..top, so level d asks only trees with top >= d.

    States that are symmetric to exhausted ones are pruned, as in orbital
    branching (Ostrowski et al., *Math. Program.* 126, 2011).  A state is
    the family of tree edge masks; it fixes the tree vertex sets, the
    covered pairs, the used edges and the waste.  Each round keeps the
    states whose ``_dfs`` returned None, and ``_dfs`` returns None at once
    (counted in ``symmetric``) for a state S that an automorphism sigma of
    the host maps onto one of them, S*.  This is sound because the search
    from a state is complete: it returns None only when no cover within the
    limit extends the state, every tree of the state inside its own tree of
    the cover.  sigma maps the covers that extend S onto the covers that
    extend sigma(S) = S*, of the same waste, and none extends S*, so none
    extends S.  A pruned subtree therefore holds no cover, the first cover
    found, which is the witness, does not change, and only the counters
    move.  A round at a larger limit starts with no exhausted state, since
    a state exhausted at one limit may hold a cover at the next.  The test
    (``_symmetric``) never enumerates the automorphism group: just before
    the first exhausted state is kept, the host's 1-WL colours are computed
    once, and if they are discrete only the identity is an automorphism and
    no state is kept for the solve.  Otherwise a visit builds its state's
    record (``_Record``) once, by one walk over the tree edges, when a kept
    state may match it or when it is exhausted and kept itself: the vertex
    classes (WL colour and the size and degree of each tree at the vertex),
    their sorted tuple as the bucket key, the tree of each tree edge, each
    vertex's tree neighbours and the order of the vertex map.  The store
    keeps records by key, and only records of one key reach
    ``_maps_onto``, which backtracks a vertex map: at each depth it
    collects the images of the vertex's mapped neighbours and mapped tree
    neighbours as two masks, and a candidate passes those constraints by
    two int comparisons.

    A node is one unit of work the search does: a ``_dfs`` visit (round
    roots included), a frontier start or state created (dropped or not),
    or a (target, added vertex set) group tested against the matching cut.
    ``max_nodes`` caps the sum, and the search raises with ``nodes ==
    max_nodes + 1``.  ``cut`` counts the groups cut and the frontier states
    dropped, and ``matching_cut`` those of them that only the fractional
    bound removes; ``_cuts`` counts both as it tests.  A child is undone
    by restoring the snapshot of the node's state that ``_dfs`` takes
    before its first child.  The children are sorted before they are
    visited, so the witness does not depend on the order in which sets are
    iterated.
    """

    def __init__(self, g: Graph, max_nodes: int):
        self.g = g
        self.n = g.n
        self.max_nodes = max_nodes
        self.nodes = 0
        self.cut = 0
        self.matching_cut = 0
        self.symmetric = 0

        self.vertex_mask = (1 << self.n) - 1
        self.adj_vmask = [0] * self.n
        # ebit[u][1 << w] is the bit of edge uw in an edge mask
        self.ebit: list[dict[int, int]] = [{} for _ in range(self.n)]
        for i, (u, v) in enumerate(g.edges):
            self.adj_vmask[u] |= 1 << v
            self.adj_vmask[v] |= 1 << u
            self.ebit[u][1 << v] = self.ebit[v][1 << u] = 1 << i

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
        self.vertex_pairs = [0] * self.n  # the pairs with an endpoint at v
        for i, (u, v) in enumerate(na):
            self.vertex_pairs[u] |= 1 << i
            self.vertex_pairs[v] |= 1 << i
        self.inside_memo: dict[int, int] = {}
        self.matching_memo: dict[int, int] = {}
        self.greedy_pairs: dict[int, int] = {}  # covered -> greedy's pair mask
        self.max_matching_memo: dict[int, int] = {}

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

        # symmetry: the records of this round's exhausted states by key
        # (None once the host's 1-WL colouring ``wl`` is found discrete)
        self.exhausted: dict[tuple, list[_Record]] | None = {}
        self.wl: list[int] | None = None

    # -- precomputed tables -------------------------------------------------

    def _max_subset_edges_table(self) -> list[int]:
        """maxedges[s] = most non-adjacent pairs inside a subset of at most
        s vertices whose induced subgraph is connected (a tree's span always
        is); above 16 vertices the 2^n subsets are not listed, and the bound
        is min(s choose 2, pairs).

        Each mask's pair count and size are byte lanes, built one top vertex
        v at a time: mask 2^v + r (r < 2^v) adds ``popcount(na & r)`` to the
        lane of r, na being v's non-neighbours below v.  The increments
        double over the bits of na by ``bytes.translate``, and one big-int
        addition adds the whole block; no lane carries, as none exceeds
        C(16, 2) = 120.  A mask holding more than C(s, 2) - s + 1 pairs
        spans fewer than s - 1 edges, so it is skipped as disconnected; each
        other mask that would raise best[s] is searched."""
        n, total = self.n, self.num_pairs
        if n > 16:
            return [min(s * (s - 1) // 2, total) for s in range(n + 1)]
        adj_vmask = self.adj_vmask
        counts = sizes = b"\0"
        for v in range(n):
            na, inc = ~adj_vmask[v], b"\0"
            for w in range(v):
                inc += inc.translate(_PLUS_ONE) if na >> w & 1 else inc
            block = int.from_bytes(counts, "little") + int.from_bytes(inc, "little")
            counts += block.to_bytes(1 << v, "little")
            sizes += sizes.translate(_PLUS_ONE)
        best = [0] * (n + 1)
        most = [s * (s - 1) // 2 - s + 1 for s in range(n + 1)]
        mask = -1  # counted by hand: enumerate costs more per mask
        for c, s in zip(counts, sizes):
            mask += 1
            if c <= best[s] or c > most[s]:
                continue
            seen = frontier = mask & -mask
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    w = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= adj_vmask[w]
                frontier = nxt & mask & ~seen
                seen |= frontier
            if seen == mask:
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
        order: a lower bound on the waste still needed (memoised, with the
        chosen pairs as ``_max_matching``'s start; the argument is in the
        class docstring).  It takes the lowest pair left and drops every
        pair at its endpoints, one step per chosen pair."""
        size = self.matching_memo.get(covered)
        if size is None:
            chosen = size = 0
            rest = self.all_mask & ~covered
            pairs, vertex_pairs = self.pairs, self.vertex_pairs
            while rest:
                bit = rest & -rest
                u, v = pairs[bit.bit_length() - 1]
                rest &= ~(vertex_pairs[u] | vertex_pairs[v])
                chosen |= bit
                size += 1
            self.matching_memo[covered] = size
            self.greedy_pairs[covered] = chosen
        return size

    def _max_matching(self, covered: int) -> int:
        """The fractional matching number of the uncovered pairs, rounded
        up: the strongest bound of ``_matching``'s kind (memoised; the
        argument is in the class docstring).  It is half the maximum
        matching of the bipartite double cover, whose left copy x is joined
        to right copy y when the pair xy is uncovered (Schrijver,
        *Combinatorial Optimization*, ch. 30).  That matching starts from
        both copies of the greedy pairs, and ``_augment`` runs once from
        each free left copy: one with no augmenting path never gains one."""
        size = self.max_matching_memo.get(covered)
        if size is not None:
            return size
        size = 2 * self._matching(covered)
        chosen = self.greedy_pairs[covered]
        n, pairs = self.n, self.pairs
        nbr = [0] * n
        mate = [-1] * n  # mate[y]: the left copy matched to right copy y
        bits = bin(self.all_mask & ~covered)[:1:-1]  # bits[i] is pair i
        i = bits.find("1")
        while i >= 0:
            u, v = pairs[i]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            if chosen >> i & 1:
                mate[u], mate[v] = v, u
            i = bits.find("1", i + 1)
        # seeded symmetrically, left copy x is free exactly when right copy x
        # is, and an augmentation matches no left copy but its root
        for x in [x for x in range(n) if nbr[x] and mate[x] < 0]:
            size += _augment(x, nbr, mate)
        size = (size + 1) // 2
        self.max_matching_memo[covered] = size
        return size

    def _cuts(self, covered: int, tv: int, slack: int) -> bool:
        """Whether a move that grows a tree to the vertex set ``tv`` from the
        covered set ``covered`` fails the matching cut at ``slack`` waste
        left, counting a cut in ``cut``, and in ``matching_cut`` too when
        only the fractional bound makes it.  The greedy matching goes first,
        with its memo hits taken inline, and the fractional bound runs only
        where greedy passes (alone it makes the same cuts, in about a third
        more exact-products wall_s)."""
        inside = self.inside_memo.get(tv)
        if inside is None:
            inside = self._inside(tv)
        after = covered | inside
        need = self.matching_memo.get(after)
        if need is None:
            need = self._matching(after)
        if need <= slack:
            if self._max_matching(after) <= slack:
                return False
            self.matching_cut += 1
        self.cut += 1
        return True

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

    # -- node accounting ----------------------------------------------------

    def _tick(self, count: int = 1) -> None:
        """Charge ``count`` nodes.  Past the budget it raises, with the count
        stopped at ``max_nodes + 1``: the node at which charging them one by
        one would have raised."""
        if self.nodes + count > self.max_nodes:
            self.nodes = self.max_nodes + 1
            raise BudgetExceededError(
                f"tree-cover search exceeded {self.max_nodes} nodes"
            )
        self.nodes += count

    def _free_masks(self) -> list[int]:
        """Each vertex's neighbour mask over the edges outside ``used_edges``."""
        free = list(self.adj_vmask)
        rest = self.used_edges
        while rest:
            u, v = self.g.edges[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
            free[u] &= ~(1 << v)
            free[v] &= ~(1 << u)
        return free

    # -- move generation ----------------------------------------------------

    def _move_key(self, move: tuple[int, int, int, int]) -> tuple:
        """The fixed move order: delta, ascending edge indices, target."""
        delta, target, _add_v, emask = move
        edges = []
        while emask:
            edges.append((emask & -emask).bit_length() - 1)
            emask &= emask - 1
        return delta, tuple(edges), target

    def _delta_gate(
        self, base_size: int, inside: int, budget: int, dp: list[int]
    ) -> int:
        """The largest delta d <= budget, or 0, at which a move growing a
        tree of ``base_size`` vertices holding ``inside`` pairs by d edges
        passes a sound capacity test.  The tree may keep growing later, so d
        passes when some total growth s in [d, budget] has
        ``maxedges[base_size + s] - inside + dp[budget - s]`` reach the
        uncovered count.  An s that serves d serves every smaller delta, so
        the passing deltas are exactly 1..top, and top is the largest such
        s."""
        n, maxedges = self.n, self.maxedges
        uncovered_cnt = (self.all_mask & ~self.covered).bit_count()
        for s in range(budget, 0, -1):
            span = maxedges[min(base_size + s, n)] - inside
            if span + dp[budget - s] >= uncovered_cnt:
                return s
        return 0

    def _levels(self, u: int, v: int, budget: int, dp: list[int]):
        """Every minimal service of the pair (u, v) within the waste budget,
        one delta at a time: yields (1, groups) for delta 1, then (2,
        groups), and so on.

        A group is a triple (target, keys, expand).  ``keys`` are the vertex
        sets that the target's moves at this delta add, a move's vertices
        outside the target tree; target -1 opens a new tree, to which a
        move adds all its vertices.  ``expand(add_vmask)`` lists the edge
        masks of one key's moves, rebuilt by the frontier that produced the
        key, and holds until the next level is asked for.  A move is kept
        only where its delta is at most its tree's ``_delta_gate`` top.  The
        kinds of move at delta d, with the key and the expand of each:

        - a new tree: a u..v path of length d + 1, keyed by the u..v
          frontier's key with v put back, and expanded by that frontier;
        - a tree housing one endpoint: an attachment path of length d from
          the other endpoint into the tree, keyed by the attachment
          frontier's key (the path without its last vertex, the one in the
          tree), and expanded by the attachment frontier's own ``expand``;
        - a tree housing neither: a u..v path of length d that crosses the
          tree exactly once, keyed by its vertex set minus that one tree
          vertex, or a disjoint u..v base path of length L < d plus a
          connector of length d - L from one of its vertices into the tree,
          avoiding the base's vertices, keyed by the base's vertices joined
          with the connector frontier's key.  Here ``keys`` is a map, filled
          as the crossing paths and the connector keys are collected, from
          each key to the (frontier, frontier key) pairs that give it; the
          expand rebuilds each pair, and joins a connector's paths to every
          u..v path over its frontier's start set, the base.

        The key is all that the matching cut and ``_apply`` read of a move
        (the tree grows to ``tree_v[target] | add_vmask``), and no key
        depends on the vertex where a path enters its tree, so a frontier
        gives one entry per state however many end vertices close it.

        The u..v paths, each attachment and the connectors of each (base
        vertex set, tree) are a ``_Frontier`` that grows only when a level
        asks for a longer path, so the paths of delta d + 1 are built only
        after the caller has visited every child of delta d.  An attachment
        or connector frontier serves one tree, so it gets the budget and
        drops each state whose partial move fails the matching cut (sound by
        the argument in the class docstring).  A connector never uses an
        edge inside its base's vertex set, so the base paths that share a
        vertex set share one connector frontier.  A tree's gate passes every
        delta up to its top, so the connectors of the base paths of length
        d - 1 are created at level d, the first level that can use them.
        Children change ``used_edges`` and the trees between levels and
        restore them, so the frontiers work over a snapshot of the free
        edges and of the trees taken here.
        """

        free = self._free_masks()
        new_top = self._delta_gate(2, 0, budget, dp)
        last = new_top
        housing = {}  # t -> (top delta, attachment frontier)
        pending = {}  # t -> (tree vertices, top delta, connector frontiers)
        ubit, vbit = 1 << u, 1 << v
        for t, tv in enumerate(self.tree_v):
            top = self._delta_gate(
                tv.bit_count(), self._inside(tv).bit_count(), budget, dp
            )
            if top == 0:
                continue
            last = max(last, top)
            if tv & (ubit | vbit):
                start = vbit if tv & ubit else ubit
                housing[t] = (top, _Frontier(self, free, start, tv, budget=budget))
            else:
                pending[t] = (tv, top, [])

        uv_front = _Frontier(self, free, ubit, vbit)
        # uv_paths[k]: the vertex sets of the u..v paths of length k (the
        # frontier's keys with v put back), cached for every consumer
        uv_paths: list[set[int]] = [set()]

        def uv(length: int) -> set[int]:
            while len(uv_paths) <= length:
                found = uv_front.paths(len(uv_paths))
                uv_paths.append({key | vbit for key in found})
            return uv_paths[length]

        def new_tree(add_v: int) -> list[int]:
            return uv_front.expand(add_v ^ vbit)

        def joined(sources: dict[int, list], add_v: int) -> list[int]:
            out = []
            for front, key in sources[add_v]:
                paths = front.expand(key)
                if front is not uv_front:  # a connector, after each base path
                    bases = uv_front.expand(front.starts ^ vbit)
                    paths = [be | ce for ce in paths for be in bases]
                out += paths
            return out

        for d in range(1, last + 1):
            groups = []
            if d <= new_top:
                groups.append((-1, uv(d + 1), new_tree))
            for t, (top, front) in housing.items():
                if d <= top:
                    groups.append((t, front.paths(d), front.expand))
            for t, (tv, top, connectors) in pending.items():
                if d > top:
                    continue
                sources: dict[int, list] = {}  # add_v -> [(frontier, key)]
                for pv in uv(d):
                    crossing = pv & tv
                    if crossing and not crossing & (crossing - 1):
                        entry = (uv_front, pv ^ vbit)
                        sources.setdefault(pv ^ crossing, []).append(entry)
                for pv in uv(d - 1):
                    if not pv & tv:
                        connectors.append(
                            _Frontier(self, free, pv, tv, forbidden=pv, budget=budget)
                        )
                for front in connectors:
                    for cv in front.paths(d + 1 - front.starts.bit_count()):
                        sources.setdefault(front.starts | cv, []).append((front, cv))
                connectors[:] = [front for front in connectors if front.states]
                groups.append((t, sources, partial(joined, sources)))
            yield d, groups

    # -- state updates ------------------------------------------------------

    def _apply(self, target: int, add_v: int, add_e: int, delta: int) -> None:
        """Grow tree ``target`` by a move, opening a new last tree for
        target -1."""
        if target < 0:
            self.tree_v.append(0)
            self.tree_e.append(0)
        self.tree_v[target] |= add_v
        self.tree_e[target] |= add_e
        self.covered |= self._inside(self.tree_v[target])
        self.used_edges |= add_e
        self.waste += delta

    # -- symmetry -----------------------------------------------------------

    def _wl_colours(self) -> list[int]:
        """The host's 1-WL colour classes (colour refinement from one
        colour), numbered by their sorted signatures.  Every automorphism
        keeps each vertex's class."""
        n, nbrs = self.n, self.g.neighbors
        colour = [0] * n
        count = 1
        while True:
            sigs = [
                (colour[x], tuple(sorted(colour[w] for w in nbrs[x])))
                for x in range(n)
            ]
            ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            colour = [ids[sig] for sig in sigs]
            if len(ids) == count:  # no class split: the colouring is stable
                return colour
            count = len(ids)

    def _record(self, state: tuple[int, ...]) -> _Record:
        """The symmetry record of ``state`` (``wl`` set; see ``_Record``),
        built by one walk over the tree edges and one pass over the
        vertices."""
        n, edges, wl = self.n, self.g.edges, self.wl
        shift = n.bit_length()  # a degree is below n
        tree_of: dict[int, int] = {}
        tn = [0] * n
        at: dict[int, tuple[int, ...]] = {}  # x -> WL colour, x's tree pairs
        for i, emask in enumerate(state):
            size = emask.bit_count() << shift
            deg: dict[int, int] = {}
            while emask:
                bit = emask & -emask
                emask ^= bit
                tree_of[bit] = i
                u, v = edges[bit.bit_length() - 1]
                tn[u] |= 1 << v
                tn[v] |= 1 << u
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            for x, d in deg.items():
                c = at.get(x)
                at[x] = (wl[x], size | d) if c is None else c + (size | d,)
        order = sorted(at)
        classes: list = []
        of_class: dict = {}
        for x in order:
            c = at[x]
            if len(c) > 2:  # x is in more than one tree
                c = (c[0], *sorted(c[1:]))
            classes.append(c)
            of_class[c] = of_class.get(c, 0) | 1 << x
        key = tuple(sorted(classes))
        for x in range(n):
            if not tn[x]:
                c = wl[x]
                order.append(x)
                classes.append(c)
                of_class[c] = of_class.get(c, 0) | 1 << x
        rec = _Record(state)
        rec.key, rec.order, rec.classes, rec.of_class = key, order, classes, of_class
        rec.tree_of, rec.tn = tree_of, tn
        return rec

    def _maps_onto(self, a: _Record, b: _Record) -> bool:
        """Whether an automorphism of the host maps the trees of ``a`` onto
        the trees of ``b``, two records of one key.

        A vertex map sigma is backtracked on an explicit stack, each vertex
        of ``a`` in ``a.order`` tried on the vertices of ``b`` of its class,
        in index order: sigma must keep adjacency and non-adjacency with
        every vertex w mapped before, and take an edge xw of tree i to an
        edge of tree pi(i), for one map pi of trees built along the way (an
        edge outside the trees goes to an edge outside them).  A complete
        sigma is an automorphism taking the tree edges of ``a`` onto those
        of ``b``, and T_i into T_pi(i).  pi is onto, and one to one by the
        classes: were pi(i) = pi(i') = j, the connected T_j, the union of
        the images sent to it, would have two meet at some z = sigma(x), and
        x, in more trees than z, has another class.  So sigma(T_i) = T_pi(i).

        The first two constraints are two int comparisons per candidate y:
        on entering a depth, the images of x's mapped neighbours and of its
        mapped tree neighbours are collected once, as masks, and y passes
        when they are exactly y's neighbours and y's tree neighbours in
        ``b`` among the mapped images.  pi is then checked over x's mapped
        tree neighbours only."""
        n, adj, ebit, nbrs = self.n, self.adj_vmask, self.ebit, self.g.neighbors
        order, classes, tn_a, tree_a = a.order, a.classes, a.tn, a.tree_of
        tn_b, tree_b, of_class = b.tn, b.tree_of, b.of_class
        pi = [-1] * len(a)
        sigma = [0] * n  # the bit of each vertex's image, 0 while unmapped
        near_img = [0] * n  # per depth: the images of x's mapped neighbours
        tree_img = [0] * n  # and of its mapped tree neighbours
        paired: list[list[int]] = [[]] * n  # the pi entries made at each depth
        left = [0] * n  # the candidates still to try at each depth
        left[0] = of_class[classes[0]]
        domain = image = 0
        depth = 0
        x = order[0]
        while depth >= 0:
            if not left[depth]:
                depth -= 1
                if depth >= 0:  # undo the vertex mapped at this depth
                    x = order[depth]
                    image ^= sigma[x]
                    sigma[x] = 0
                    domain ^= 1 << x
                    for i in paired[depth]:
                        pi[i] = -1
                continue
            ybit = left[depth] & -left[depth]
            left[depth] ^= ybit
            y = ybit.bit_length() - 1
            if adj[y] & image != near_img[depth] or tn_b[y] & image != tree_img[depth]:
                continue
            new_pairs: list[int] = []
            near = tn_a[x] & domain
            while near:  # each mapped tree neighbour w of x
                wbit = near & -near
                near ^= wbit
                i = tree_a[ebit[x][wbit]]
                j = tree_b[ebit[y][sigma[wbit.bit_length() - 1]]]
                if pi[i] != j:  # send tree i to tree j, if i is free
                    if pi[i] >= 0:
                        break
                    pi[i] = j
                    new_pairs.append(i)
            else:  # x goes to y
                sigma[x] = ybit
                domain |= 1 << x
                image |= ybit
                paired[depth] = new_pairs
                depth += 1
                if depth == n:
                    return True
                x = order[depth]
                img = 0
                for w in nbrs[x]:  # an unmapped w adds nothing
                    img |= sigma[w]
                near_img[depth] = img
                img = 0
                near = tn_a[x] & domain
                while near:
                    wbit = near & -near
                    near ^= wbit
                    img |= sigma[wbit.bit_length() - 1]
                tree_img[depth] = img
                left[depth] = of_class[classes[depth]] & ~image
                continue
            for i in new_pairs:
                pi[i] = -1
        return False

    def _symmetric(self, state: tuple[int, ...]) -> bool:
        """Whether an automorphism of the host maps ``state`` onto a state
        exhausted in this round; ``state`` is its record whenever the store
        is non-empty, and the kernel runs on the records of its bucket."""
        if not self.exhausted:  # empty or None until ``_exhaust`` sets ``wl``
            return False
        bucket = self.exhausted.get(state.key, ())
        return any(self._maps_onto(state, other) for other in bucket)

    def _exhaust(self, state: tuple[int, ...]) -> None:
        """Keep the record of ``state``, whose search found no cover, for
        ``_symmetric``; ``state`` may already be its record.  The WL colours
        are computed before the first state is kept: if they are discrete,
        only the identity is an automorphism, and no state is kept for the
        rest of the solve."""
        if self.wl is None:
            self.wl = self._wl_colours()
            if len(set(self.wl)) == self.n:
                self.exhausted = None
        if self.exhausted is not None:
            if not isinstance(state, _Record):
                state = self._record(state)
            self.exhausted.setdefault(state.key, []).append(state)

    # -- search -------------------------------------------------------------

    def _dfs(self, limit: int) -> list[int] | None:
        """The tree edge masks of the first cover of waste at most ``limit``
        below the current state, or None."""
        self._tick()
        if self.covered == self.all_mask:
            return list(self.tree_e)
        state = tuple(self.tree_e)
        if self.exhausted:  # the one record of this visit, kept if exhausted
            state = self._record(state)
        if self._symmetric(state):
            self.symmetric += 1
            return None
        budget = limit - self.waste
        rest = self.all_mask & ~self.covered
        dp = self._capacity_dp(budget)
        if dp[budget] < rest.bit_count():
            return None
        u, v = self.pairs[(rest & -rest).bit_length() - 1]
        cuts = self._cuts
        # the node's state, which undoes each child
        saved = self.covered, self.used_edges, self.waste
        trees = list(self.tree_v), list(self.tree_e)
        for delta, groups in self._levels(u, v, budget, dp):
            # the matching cut reads only a child's target and vertex set, so
            # it runs once per group, and each group tested is one node
            slack = budget - delta
            covered, tree_v = self.covered, self.tree_v
            children = []
            for target, keys, expand in groups:
                self._tick(len(keys))
                tree = 0 if target < 0 else tree_v[target]
                for add_v in keys:
                    if not cuts(covered, tree | add_v, slack):
                        children += [
                            (delta, target, add_v, add_e) for add_e in expand(add_v)
                        ]
            children.sort(key=self._move_key)
            for _delta, target, add_v, add_e in children:
                self._apply(target, add_v, add_e, delta)
                found = self._dfs(limit)
                self.covered, self.used_edges, self.waste = saved
                self.tree_v[:], self.tree_e[:] = trees
                if found is not None:
                    return found
        self._exhaust(state)
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
        for limit in range(self.floor, self.n - 2):
            self.targets.append(limit)
            if self.exhausted is not None:  # a state exhausted at a smaller
                self.exhausted.clear()  # limit may hold a cover at this one
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
            matching_cut=self.matching_cut,
            symmetric=self.symmetric,
        )


def mc_exact(g: Graph, max_nodes: int = DEFAULT_NODE_BUDGET) -> McResult:
    """Exact mc by branch and bound over covering tree families.

    The search window comes from the basic sandwich only, so this engine
    stays independent of the certificate machinery.  When that floor already
    allows no cover cheaper than a spanning tree (kappa <= 1, so any tree or
    graph with a cut vertex), the spanning tree is returned without a search.
    A complete graph has no pair to cover, so it gets the all-distinct
    coloring without building the solver.  On budget exhaustion no
    value is claimed: the result carries just the interval, with method
    ``bounds-only`` and the upper end m - (root floor) where that is lower,
    tagged ``search(<floor_by>)``.  ``stats`` holds the counters either way.
    """
    if g.n <= 1 or not is_connected(g):
        return _trivial_result(g, "tree-cover")
    bounds = mc_bounds_basic(g)
    lemma1_floor = g.m - bounds.upper
    stats = SearchStats(nodes=0, floor=lemma1_floor, floor_by="Lem1")
    if is_complete(g):  # no non-adjacent pair: every edge its own color
        return _checked_result(g, all_distinct_coloring(g), "tree-cover", bounds, stats)
    tree_masks = None
    if lemma1_floor < g.n - 2:
        solver = _TreeCoverSolver(g, max_nodes)
        try:
            tree_masks = solver.solve(lemma1_floor)
        except BudgetExceededError:
            upper = g.m - solver.floor  # the root floor proves mc <= m - floor
            if upper < bounds.upper:
                source = f"search({solver.floor_by})"
                bounds = replace(bounds, upper=upper, upper_source=source)
            return McResult(None, None, "bounds-only", bounds, solver.stats())
        stats = solver.stats()
    if tree_masks is None:
        witness = spanning_tree_coloring(g)
    else:
        trees = [
            tuple(sorted(e for i, e in enumerate(g.edges) if emask >> i & 1))
            for emask in tree_masks
        ]
        witness = TreeCover(host=g, trees=tuple(sorted(trees))).to_coloring()
    return _checked_result(g, witness, "tree-cover", bounds, stats)
