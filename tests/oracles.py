"""Independent brute-force oracles used only by the tests.

These deliberately avoid the algorithms they check: straight-line
enumeration over product spaces, subsets, or permutations. The
exceptions are frozen copies of earlier production code, kept to pin the
exact values the current code returns: the plain list-coloring
backtracker, the pasting verifier's loop over every injective A-coloring,
the induced-pattern minor sweep over every size, the random gadget
builder's rejection loop that samples every shape, the four hand-written
pair searches of the two pseudo-random property checkers, the minor
search over eagerly built candidate lists, the Mader sweep over every
induced subgraph, the choosability witness search that re-solves every
node from scratch, the Alon-Tarsi expansion keyed by degree tuples, and
the degree-<=2 reduction and elimination width of the minor filters as
they stood before their low-bit loops. The exact treewidth is a subset
dynamic programme, with no elimination heuristic.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from minorforge.coloring import (
    ListAssignment,
    _solve_list_coloring,
    chromatic_number,
)
from minorforge.graphs import (
    Graph,
    bit_list,
    bits,
    degeneracy,
    induced_subgraph,
    is_connected_subset,
    mask_of,
    min_degree,
    nonempty_submasks,
    relabel_rows,
    vertex_connectivity,
)


def naive_l_colorable(G: Graph, L: ListAssignment) -> bool:
    """Product-space enumeration of all list selections."""
    lists = [sorted(s) for s in L.lists]
    for choice in product(*lists):
        if all(choice[u] != choice[v] for u, v in G.edges()):
            return True
    return False if G.n else True


def reference_solve_list_coloring(n: int, adj, list_masks: list[int]) -> list[int] | None:
    """The list-coloring backtracker as it stood before the pigeonhole cut
    and the explicit stack: recursive, no pruning beyond emptied lists.

    Vertex choice is fewest-remaining-colors with lowest index as the tie
    break; colors are tried in ascending order. Kept verbatim so that the
    production solver's returned colorings can be compared against it.
    """
    remaining = list(list_masks)
    color = [-1] * n

    def solve(uncolored: int) -> bool:
        if not uncolored:
            return True
        best, best_size = -1, None
        for v in bits(uncolored):
            size = remaining[v].bit_count()
            if size == 0:
                return False
            if best_size is None or size < best_size:
                best, best_size = v, size
        v = best
        avail = remaining[v]
        for c in bits(avail):
            cbit = 1 << c
            color[v] = c
            touched = 0
            dead = False
            for u in bits(adj[v] & uncolored):
                if u != v and remaining[u] & cbit:
                    remaining[u] ^= cbit
                    touched |= 1 << u
                    if not remaining[u]:
                        dead = True
            if not dead and solve(uncolored ^ (1 << v)):
                return True
            for u in bits(touched):
                remaining[u] |= cbit
            color[v] = -1
        return False

    if solve((1 << n) - 1):
        return color
    return None


def reference_is_l_colorable(G: Graph, L: ListAssignment) -> tuple[int, ...] | None:
    """``is_l_colorable`` on top of the reference backtracker."""
    palette = sorted(set().union(*L.lists)) if G.n else []
    index = {c: i for i, c in enumerate(palette)}
    masks = [sum(1 << index[c] for c in s) for s in L.lists]
    solved = reference_solve_list_coloring(G.n, G.adj, masks)
    if solved is None:
        return None
    return tuple(palette[i] for i in solved)


def brute_vertex_connectivity(G: Graph) -> int:
    """Smallest separator by subset enumeration; n-1 for complete graphs."""
    if G.n <= 1:
        return 0

    def connected_within(left: int) -> bool:
        if not left:
            return True
        reach = left & -left
        while True:
            grow = reach
            for v in bits(reach):
                grow |= G.adj[v] & left
            if grow == reach:
                break
            reach = grow
        return reach == left

    for size in range(G.n - 1):
        for combo in combinations(range(G.n), size):
            left = G.vertex_mask() & ~mask_of(combo)
            if left.bit_count() <= 1:
                continue
            if not connected_within(left):
                return size
    return G.n - 1


def exact_treewidth(G: Graph) -> int:
    """Treewidth by the subset dynamic programme of Bodlaender et al., *On
    exact algorithms for treewidth* (2006); -1 for the empty graph.

    TW(S) is the least width of an elimination order that starts with the
    vertices of S: TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|),
    where Q(S - v, v) is the set of vertices outside S joined to v by a path
    whose inner vertices lie in S - v. Then tw(G) = TW(V).
    """
    tw = [-1] * (1 << G.n)
    for S in range(1, 1 << G.n):  # every S - v is smaller than S
        best = G.n
        for v in bits(S):
            comp = frontier = 1 << v  # v's component in G[S]
            while frontier:
                grow = 0
                for u in bits(frontier):
                    grow |= G.adj[u]
                frontier = grow & S & ~comp
                comp |= frontier
            q = 0
            for u in bits(comp):
                q |= G.adj[u]
            best = min(best, max(tw[S ^ 1 << v], (q & ~S).bit_count()))
        tw[S] = best
    return tw[-1]


def reference_best_induced_connectivity(H: Graph) -> int:
    """The Mader sweep as it stood before its pruning: the vertex
    connectivity of every non-empty induced subgraph, largest kept."""
    best = 0
    for S in range(1, 1 << H.n):
        sub = induced_subgraph(H, S)
        if sub.n >= 1:
            best = max(best, vertex_connectivity(sub))
    return best


def naive_not_k_choosable(G: Graph, k: int) -> bool:
    """Reduction-free choosability ground truth: enumerate every support
    multiset with per-vertex coverage exactly k (up to color renaming only)
    and test colorability at the leaves."""
    from minorforge.coloring import ListAssignment, is_l_colorable

    n = G.n
    cov = [0] * n
    chosen: list[int] = []

    def leaf_uncolorable() -> bool:
        lists = [frozenset(i for i, S in enumerate(chosen) if S >> v & 1) for v in range(n)]
        return is_l_colorable(G, ListAssignment(tuple(lists))) is None

    def dfs(max_support: int) -> bool:
        open_mask = 0
        for v in range(n):
            if cov[v] < k:
                open_mask |= 1 << v
        if not open_mask:
            return leaf_uncolorable()
        high = open_mask.bit_length() - 1
        if (1 << high) > max_support:
            return False
        s = open_mask
        while s:
            if s <= max_support:
                chosen.append(s)
                for v in bits(s):
                    cov[v] += 1
                if dfs(s):
                    return True
                for v in bits(s):
                    cov[v] -= 1
                chosen.pop()
            s = (s - 1) & open_mask
        return False

    return dfs((1 << n) - 1)


def reference_alon_tarsi_certifies(H: Graph, k: int) -> bool:
    """``_alon_tarsi_certifies`` as it stood before the clique skip and the
    packed keys: every polynomial is expanded, monomials keyed by their
    degree tuples."""
    if H.edge_count() > H.n * (k - 1):
        return False
    coeffs: dict[tuple[int, ...], int] = {(0,) * H.n: 1}
    for u, v in H.edges():
        nxt: dict[tuple[int, ...], int] = {}
        for degs, c in coeffs.items():
            if degs[u] < k - 1:
                bumped = degs[:u] + (degs[u] + 1,) + degs[u + 1 :]
                nxt[bumped] = nxt.get(bumped, 0) + c
            if degs[v] < k - 1:
                bumped = degs[:v] + (degs[v] + 1,) + degs[v + 1 :]
                nxt[bumped] = nxt.get(bumped, 0) - c
        coeffs = {t: c for t, c in nxt.items() if c}
        if not coeffs:
            return False
    return True


def _reference_solve_on_subset(H: Graph, P: int, masks: list[int], cache: dict) -> bool:
    got = cache.get(P)
    if got is None:
        verts = bit_list(P)
        got = cache[P] = (verts, relabel_rows(H.adj, verts))
    verts, adj = got
    return _solve_list_coloring(len(verts), adj, [masks[v] for v in verts]) is not None


def _reference_capped_uncolorable_supports(H: Graph, k: int) -> list[int] | None:
    """The support DFS as it stood before it carried the colourable-subset
    family: every node re-solves its covered part from scratch, and every
    candidate support's cap comes from ``chromatic_number``."""
    n = H.n
    full = (1 << n) - 1
    supports = []
    caps = []
    for m in range(1, full + 1):
        if m.bit_count() >= 2 and all(H.adj[v] & m for v in bits(m)):
            cap = chromatic_number(induced_subgraph(H, m)) - 1
            if cap >= 1:
                supports.append(m)
                caps.append(cap)
    order = sorted(range(len(supports)), key=lambda i: (-supports[i].bit_count(), -supports[i]))
    supports = [supports[i] for i in order]
    caps = [caps[i] for i in order]
    last_idx = [max((i for i, S in enumerate(supports) if S >> v & 1), default=-1) for v in range(n)]
    pair_budget = n * k * (k - 1) // 2
    max_colors = 1
    while (max_colors + 1) * max_colors // 2 <= pair_budget:
        max_colors += 1
    cov = [0] * n
    chosen: list[int] = []
    masks = [0] * n
    structure_cache: dict = {}
    pairs_of = [d * (d - 1) // 2 for d in range(k + 1)]

    def dfs(idx: int, mult_here: int, need: int) -> bool:
        covered = 0
        open_mask = 0
        hosted = 0
        for v in range(n):
            c = cov[v]
            if c > 0:
                covered |= 1 << v
                hosted += pairs_of[c]
            if c < k:
                open_mask |= 1 << v
        d = len(chosen)
        if d * (d - 1) // 2 > hosted:
            return False
        if covered and _reference_solve_on_subset(H, covered, masks, structure_cache):
            return False
        if not open_mask:
            return True
        if d >= max_colors:
            return False
        for v in bits(open_mask):
            if last_idx[v] < idx:
                return False
        for C in chosen:
            if not C & open_mask:
                return False
        cbit = 1 << d
        slots = max_colors - d
        for i in range(idx, len(supports)):
            S = supports[i]
            if S & ~open_mask:
                continue
            if need > slots * S.bit_count():
                break
            used = mult_here if i == idx else 0
            if used >= caps[i]:
                continue
            if any(not S & C for C in chosen):
                continue
            chosen.append(S)
            for v in bits(S):
                cov[v] += 1
                masks[v] |= cbit
            if dfs(i, used + 1, need - S.bit_count()):
                return True
            for v in bits(S):
                cov[v] -= 1
                masks[v] &= ~cbit
            chosen.pop()
        return False

    if dfs(0, 0, n * k):
        return chosen
    return None


def reference_find_uncolorable_assignment(G: Graph, k: int, *, use_shortcuts: bool = True):
    """``find_uncolorable_assignment`` as it stood before the support DFS
    carried the colourable-subset family: same sweep, same reductions, same
    witness lifting, with no size guard, and the frozen Alon-Tarsi
    expansion. Kept so that the production search's returned assignments
    can be compared against it."""
    if k < 1:
        raise ValueError("k must be at least 1")
    for T in sorted(range(1, 1 << G.n), key=lambda m: (m.bit_count(), m)):
        degs_ok = all((G.adj[v] & T).bit_count() >= k for v in bits(T))
        if not degs_ok or not is_connected_subset(G, T):
            continue
        sub = induced_subgraph(G, T)
        if use_shortcuts and (
            degeneracy(sub)[0] + 1 <= k or reference_alon_tarsi_certifies(sub, k)
        ):
            continue
        supports = _reference_capped_uncolorable_supports(sub, k)
        if supports is None:
            continue
        verts = bit_list(T)
        lists: list[set[int]] = [set() for _ in range(G.n)]
        for i, S in enumerate(supports):
            for v in bits(S):
                lists[verts[v]].add(i)
        fresh = len(supports)
        for v in range(G.n):
            if not T >> v & 1:
                lists[v] = set(range(fresh, fresh + k))
                fresh += k
        return ListAssignment.from_lists(lists)
    return None


def are_isomorphic(G: Graph, H: Graph) -> bool:
    """Permutation brute force; fine below ten vertices."""
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    if sorted(G.degree(v) for v in range(G.n)) != sorted(H.degree(v) for v in range(H.n)):
        return False
    h_edges = {(min(u, v), max(u, v)) for u, v in H.edges()}
    for perm in permutations(range(G.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in h_edges for u, v in G.edges()):
            return True
    return False


@dataclass
class ReferencePastingCheck:
    """Outcome of ``reference_check_pasting_lower_bound``. ``counterexample``
    holds the first injective A-coloring that extends and its extension;
    only a partition that ``validate`` rejects can have one."""

    certified: bool
    bound: int
    copies: int
    colorings_checked: int
    counterexample: dict | None = None


def reference_check_pasting_lower_bound(part, *, check_invariants: bool = True):
    """The pasting verifier as it stood before the canonical-coloring collapse
    and the pigeonhole proof: one pinned solve per injective A-coloring, in
    the order ``permutations`` yields them, stopping at the first that
    extends. With ``check_invariants=False`` it also runs on partitions whose
    B is not a clique or whose slack is too small."""
    from minorforge.coloring import is_l_colorable
    from minorforge.constructions import adversarial_lists_for_copy

    if check_invariants:
        part.validate()
    G = part.graph
    a_vertices = part.a_vertices()
    u = part.universe_size()
    bound = part.a_mask.bit_count() + part.b_mask.bit_count() - part.slack
    if G.n == 0:
        return ReferencePastingCheck(certified=True, bound=bound, copies=1, colorings_checked=0)
    copies = u ** len(a_vertices)
    checked = 0
    for assignment in permutations(range(1, u + 1), len(a_vertices)):
        checked += 1
        coloring_of_a = dict(zip(a_vertices, assignment))
        lists = adversarial_lists_for_copy(part, coloring_of_a)
        pinned = list(lists.lists)
        for a, c in coloring_of_a.items():
            pinned[a] = frozenset({c})
        extension = is_l_colorable(G, ListAssignment(tuple(pinned)))
        if extension is not None:
            return ReferencePastingCheck(
                certified=False,
                bound=bound,
                copies=copies,
                colorings_checked=checked,
                counterexample={
                    "a_coloring": {str(a): c for a, c in coloring_of_a.items()},
                    "extension": list(extension),
                },
            )
    return ReferencePastingCheck(certified=True, bound=bound, copies=copies, colorings_checked=checked)


def reference_build_thm_random_gadget(H: Graph, delta, p, seed: int, attempts: int = 200):
    """``build_thm_random_gadget`` as it stood before shapes that no attempt
    can pass were settled by proof: it samples every shape until an attempt
    passes or the budget runs out."""
    from fractions import Fraction

    from minorforge.constructions import GadgetResult, TwoCliquePartition
    from minorforge.graphs import bipartite_union_complement
    from minorforge.minors import find_induced_pattern_minor
    from minorforge.random_models import sample_bipartite

    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 3):
        raise ValueError("delta must lie strictly between 0 and 1/3")
    if p is None:
        p = delta / 2
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    n = H.n
    if n == 0:
        raise ValueError("H must have at least one vertex")
    side = math.floor((1 - 3 * delta) * n)
    if side < 1:
        raise ValueError("(1-3*delta)*n is below 1; no gadget exists at this scale")
    u_size = math.ceil((1 - delta) * n)
    a_mask = (1 << side) - 1
    for attempt in range(attempts):
        sample = sample_bipartite(side, side, float(p), seed + attempt)
        if Fraction(sample.max_degree()) > delta * n:
            continue
        F = bipartite_union_complement(sample, a_mask, a_mask)
        if find_induced_pattern_minor(F, H, u_size) is not None:
            continue
        part = TwoCliquePartition(F, a_mask, a_mask << side, math.floor(delta * n))
        part.validate()
        return GadgetResult(F, part, attempt + 1)
    return GadgetResult(None, None, attempts)


def reference_minor_free_all_induced(host: Graph, pattern: Graph, min_size: int) -> bool:
    """No induced pattern subgraph on min_size or more vertices is a minor
    of the host, checked at every size."""
    from minorforge.minors import contains_minor

    for size in range(min_size, pattern.n + 1):
        for combo in combinations(range(pattern.n), size):
            if contains_minor(host, induced_subgraph(pattern, mask_of(combo))) is not None:
                return False
    return True


def reference_check_property_Q(H, params, mode="exact", *, pairs="minimal", budget=10_000, seed=None):
    """``check_property_Q`` as it stood before the shared pair search: one
    hand-written loop for exact mode and one for falsify mode."""
    from minorforge.graphs import edges_between
    from minorforge.random_models import (
        VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE, PropertyReport, _q_threshold,
    )

    n = H.n
    r = math.ceil(params.delta * n)
    threshold = _q_threshold(params.D, n)
    if mode == "exact":
        nodes = 0
        sizes = [(r, r)] if pairs == "minimal" else [
            (sa, sb) for sa in range(r, n + 1) for sb in range(r, n + 1 - sa)
        ]
        for sa, sb in sizes:
            if sa + sb > n or sa < 1 or sb < 1:
                continue
            for combo_a in combinations(range(n), sa):
                A = mask_of(combo_a)
                rest = [v for v in range(n) if not A >> v & 1]
                for combo_b in combinations(rest, sb):
                    B = mask_of(combo_b)
                    nodes += 1
                    if edges_between(H, A, B) < threshold:
                        return PropertyReport(
                            VERDICT_FAILS,
                            witness={"A": list(combo_a), "B": list(combo_b),
                                     "edges": edges_between(H, A, B),
                                     "threshold": threshold},
                            nodes_explored=nodes,
                        )
        return PropertyReport(VERDICT_HOLDS, nodes_explored=nodes)
    if mode == "falsify":
        if seed is None:
            raise ValueError("falsify mode needs a seed")
        rng = random.Random(seed)
        if 2 * r > n or r < 1:
            return PropertyReport(VERDICT_INCONCLUSIVE, trials=0, seed=seed)
        for trial in range(budget):
            sample = rng.sample(range(n), 2 * r)
            combo_a, combo_b = sorted(sample[:r]), sorted(sample[r:])
            A, B = mask_of(combo_a), mask_of(combo_b)
            e = edges_between(H, A, B)
            if e < threshold:
                return PropertyReport(
                    VERDICT_FAILS,
                    witness={"A": combo_a, "B": combo_b, "edges": e,
                             "threshold": threshold},
                    trials=trial + 1,
                    seed=seed,
                )
        return PropertyReport(VERDICT_INCONCLUSIVE, trials=budget, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")


def reference_check_property_P(G, H, params, mode="exact", *, k_l_range="full",
                               node_budget=2_000_000, budget=10_000, seed=None):
    """``check_property_P`` as it stood before the shared pair search, with
    its falsify loop and edge-pair helper. The set-family search
    ``_violating_family`` and the witness recheck are the production ones,
    which the pair search left as they were."""
    from minorforge.errors import BudgetExceededError
    from minorforge.graphs import edges_between
    from minorforge.random_models import (
        VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE, PropertyReport,
        _violating_family, property_p_witness_violates,
    )

    def admissible_edge_pairs(xs, ys):
        return [(i, j) for i, x in enumerate(xs) for j, y in enumerate(ys) if H.has_edge(x, y)]

    def random_disjoint_sets(rng, universe, count, cap, needed):
        pool = list(range(universe))
        rng.shuffle(pool)
        sets = [0] * count
        for idx in range(count):
            if idx not in needed:
                continue
            size = rng.randint(1, cap)
            if len(pool) < size:
                return sets, False
            sets[idx] = mask_of(pool.pop() for _ in range(size))
        return sets, True

    n = H.n
    r = math.ceil(params.delta * n)
    cap = math.floor(1 / params.delta)
    if mode == "falsify":
        if seed is None:
            raise ValueError("falsify mode needs a seed")
        rng = random.Random(seed)
        if 2 * r > n or r < 1:
            return PropertyReport(VERDICT_INCONCLUSIVE, trials=0, seed=seed)
        for trial in range(budget):
            sample = rng.sample(range(n), 2 * r)
            xs, ys = tuple(sorted(sample[:r])), tuple(sorted(sample[r:]))
            if edges_between(H, mask_of(xs), mask_of(ys)) < params.s:
                continue
            edge_pairs = admissible_edge_pairs(xs, ys)
            X_sets, ok_x = random_disjoint_sets(rng, G.a_size, r, cap, {i for i, _ in edge_pairs})
            Y_sets, ok_y = random_disjoint_sets(rng, G.b_size, r, cap, {j for _, j in edge_pairs})
            if not (ok_x and ok_y):
                continue
            witness = {"k": r, "l": r, "xs": list(xs), "ys": list(ys),
                       "X": [sorted(bits(s)) for s in X_sets],
                       "Y": [sorted(bits(s)) for s in Y_sets]}
            if property_p_witness_violates(G, H, params, witness):
                return PropertyReport(VERDICT_FAILS, witness=witness, trials=trial + 1, seed=seed)
        return PropertyReport(VERDICT_INCONCLUSIVE, trials=budget, seed=seed)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    nodes = 0

    def spend(amount=1):
        nonlocal nodes
        nodes += amount
        if nodes > node_budget:
            raise BudgetExceededError(f"property P exact enumeration exceeded {node_budget} nodes")

    if k_l_range == "minimal":
        kl_pairs = [(r, r)] if 2 * r <= n and r >= 1 else []
    elif k_l_range == "full":
        kl_pairs = [(k, l) for k in range(max(r, 1), n + 1) for l in range(max(r, 1), n + 1 - k)]
    else:
        raise ValueError(f"unknown k_l_range {k_l_range!r}")

    for k, l in kl_pairs:
        for xs in combinations(range(n), k):
            x_mask = mask_of(xs)
            rest = [v for v in range(n) if not x_mask >> v & 1]
            for ys in combinations(rest, l):
                spend()
                if edges_between(H, x_mask, mask_of(ys)) < params.s:
                    continue
                edge_pairs = admissible_edge_pairs(xs, ys)
                witness_sets = _violating_family(G, k, l, edge_pairs, cap, spend)
                if witness_sets is not None:
                    X_sets, Y_sets = witness_sets
                    return PropertyReport(
                        VERDICT_FAILS,
                        witness={"k": k, "l": l, "xs": list(xs), "ys": list(ys),
                                 "X": [sorted(bits(s)) for s in X_sets],
                                 "Y": [sorted(bits(s)) for s in Y_sets]},
                        nodes_explored=nodes,
                    )
    return PropertyReport(VERDICT_HOLDS, nodes_explored=nodes)


def reference_search_model(host: Graph, pattern: Graph):
    """``minors._search_model`` as it stood before the lazy candidate walk:
    every search node first builds the full ascending list of candidate
    branch sets and tests the host edge budget per candidate. Returns the
    branch-set dict of the first model, or None. It calls the production
    ``is_connected_subset``, which is checked against networkx on its own."""
    from minorforge.minors import _twin_classes

    if pattern.n == 0:
        return {}
    if host.n < pattern.n or host.edge_count() < pattern.edge_count():
        return None

    twin = _twin_classes(pattern)
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), twin[v], v))
    same_class_as_prev = [False] + [
        twin[order[i]] == twin[order[i - 1]] for i in range(1, len(order))
    ]
    host_e = host.edge_count()
    pattern_e = pattern.edge_count()
    rows = relabel_rows(pattern.adj, order)
    earlier_nbrs = [bit_list(row & ((1 << i) - 1)) for i, row in enumerate(rows)]
    last_nbr_pos = [row.bit_length() - 1 for row in rows]

    assigned = []
    reach = []

    def search(depth, avail, tree_edges):
        if depth == pattern.n:
            return {order[i]: assigned[i] for i in range(pattern.n)}
        remaining = pattern.n - depth - 1
        max_size = avail.bit_count() - remaining
        if max_size < 1:
            return None
        prev_min = (assigned[-1] & -assigned[-1]) if same_class_as_prev[depth] else 0
        for Z in nonempty_submasks(avail, max_size):
            if (Z & -Z) <= prev_min and prev_min:
                continue
            if host_e < pattern_e + tree_edges + Z.bit_count() - 1:
                continue
            if not all(reach[j] & Z for j in earlier_nbrs[depth]):
                continue
            if not is_connected_subset(host, Z):
                continue
            nxt_avail = avail & ~Z
            nb = 0
            for v in bits(Z):
                nb |= host.adj[v]
            nb &= ~Z
            viable = not (last_nbr_pos[depth] > depth and not nb & nxt_avail)
            if viable:
                for j in range(depth):
                    if last_nbr_pos[j] > depth and not reach[j] & nxt_avail:
                        viable = False
                        break
            if not viable:
                continue
            assigned.append(Z)
            reach.append(nb)
            got = search(depth + 1, nxt_avail, tree_edges + Z.bit_count() - 1)
            assigned.pop()
            reach.pop()
            if got is not None:
                return got
        return None

    return search(0, host.vertex_mask(), 0)


def reference_series_parallel_reduction(host: Graph) -> Graph:
    """``minors._series_parallel_reduction`` as it stood before its low-bit
    loop: the same stack order, with ``bits()`` and a generator per step."""
    adj = list(host.adj)
    alive = host.vertex_mask()
    stack = [v for v in range(host.n) if adj[v].bit_count() <= 2]
    if not stack:
        return host
    # no step raises a degree, so a stacked vertex keeps degree <= 2
    while stack:
        v = stack.pop()
        if not alive >> v & 1:
            continue
        nb = adj[v]
        alive ^= 1 << v
        adj[v] = 0
        for u in bits(nb):
            adj[u] &= ~(1 << v)
            adj[u] |= nb & ~(1 << u)  # joins the two neighbours of a degree-2 v
        stack.extend(u for u in bits(nb) if adj[u].bit_count() <= 2)
    keep = bit_list(alive)
    return Graph(len(keep), relabel_rows(adj, keep))


def reference_elimination_width(G: Graph, stop: int) -> int:
    """``minors._elimination_width`` as it stood before its low-bit loop:
    the min-degree vertex by ``min(key=...)`` over ``bits()``."""
    adj = list(G.adj)
    alive = G.vertex_mask()
    width = 0
    while alive:
        v = min(bits(alive), key=lambda u: adj[u].bit_count())
        nb = adj[v]
        if nb.bit_count() > width:
            width = nb.bit_count()
            if width >= stop:
                return width
        for u in bits(nb):
            adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
        alive ^= 1 << v
    return width


def reference_contains_minor(host: Graph, pattern: Graph):
    """``minors.contains_minor`` with the two frozen filters above, in the
    same order, ahead of the production ``_search_model``."""
    from minorforge.minors import _search_model

    if min_degree(pattern) >= 3:
        reduced = reference_series_parallel_reduction(host)
        lb = degeneracy(pattern)[0]
        n = reduced.n
        if reduced.edge_count() <= (lb - 1) * n - (lb - 1) * lb // 2 and (
            reference_elimination_width(reduced, lb) < lb
        ):
            return None
        if reduced.n < host.n and _search_model(reduced, pattern) is None:
            return None
    return _search_model(host, pattern)
