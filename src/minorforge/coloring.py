"""Exact list-colorability and choosability decisions with certificates.

Colors are small nonnegative integers. A coloring is a plain tuple of
per-vertex colors; properness is a checkable predicate, not a structural
guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import check_size
from .graphs import (
    Graph,
    bit_list,
    bits,
    degeneracy,
    induced_subgraph,
    is_connected_subset,
    nonempty_submasks,
)

Coloring = tuple[int, ...]

LIST_CHROMATIC_MAX_ORDER = 8


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex finite color sets."""

    lists: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, lists) -> "ListAssignment":
        return cls(tuple(frozenset(colors) for colors in lists))

    @classmethod
    def uniform(cls, n: int, colors) -> "ListAssignment":
        shared = frozenset(colors)
        return cls((shared,) * n)

    def __len__(self) -> int:
        return len(self.lists)

    def min_size(self) -> int:
        return min((len(s) for s in self.lists), default=0)

    def to_json(self) -> str:
        return json.dumps({"lists": [sorted(s) for s in self.lists]})

    @classmethod
    def from_json(cls, text: str) -> "ListAssignment":
        """Parse ``{"lists": [[color, ...], ...]}``. Anything else raises
        ValueError: colors must be non-negative integers, and a JSON
        ``true`` or ``false`` is not one."""
        data = json.loads(text)
        lists = data.get("lists") if isinstance(data, dict) else None
        if not isinstance(lists, list) or not all(
            isinstance(colors, list) and all(type(c) is int and c >= 0 for c in colors) for colors in lists
        ):
            raise ValueError('a list assignment must be a JSON object whose "lists" is a list of lists '
                             "of non-negative integers")
        return cls.from_lists(lists)


def is_proper_coloring(G: Graph, coloring) -> bool:
    """No edge is monochromatic."""
    for u, v in G.edges():
        if coloring[u] == coloring[v]:
            return False
    return True


def respects_lists(L: ListAssignment, coloring) -> bool:
    return all(c in s for c, s in zip(coloring, L.lists))


def _solve_list_coloring(n: int, adj: tuple[int, ...], list_masks: list[int]) -> list[int] | None:
    """Backtracking on bitmask color lists; colors are bit positions.

    Vertex choice is fewest-remaining-colors with lowest index as the tie
    break; colors are tried in ascending order, removing each choice from
    uncolored neighbors. The search keeps an explicit stack, so its depth
    is not bounded by the interpreter's recursion limit.

    Pigeonhole cut: at every node the uncolored vertices are split greedily
    into cliques (the lowest uncolored vertex, grown through common
    neighbors in ascending order, then the same on what is left). A clique
    whose members' remaining lists together hold fewer colors than it has
    members would need two equal colors on adjacent vertices, so the node
    has no completion and is cut. The cut removes only subtrees without a
    coloring and leaves the vertex and color order alone, so the search
    reaches the same first coloring as plain backtracking, only sooner: in
    the materialized pastings the tests solve, the copy that plans A's
    coloring leaves its clique B |B|-1 colors once A's colors propagate,
    and the search dies at that node instead of after enumerating B.
    """
    if not all(list_masks):
        return None
    remaining = list(list_masks)
    palette_size = max(list_masks, default=0).bit_length()
    color = [-1] * n
    uncolored = (1 << n) - 1
    # one frame per colored vertex: [vertex, colors still to try,
    # bit of its current color, neighbors that lost that color]
    stack: list[list[int]] = []
    descend = True
    while True:
        if descend:
            if not uncolored:
                return color
            rest = uncolored
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                union = remaining[w]
                members = 1
                common = adj[w] & rest
                while common:
                    low = common & -common
                    rest ^= low
                    u = low.bit_length() - 1
                    common &= adj[u]
                    union |= remaining[u]
                    members += 1
                if union.bit_count() < members:
                    break
            else:
                # every list is nonempty here, so a singleton is the minimum
                best, best_size = -1, palette_size + 1
                scan = uncolored
                while scan:
                    low = scan & -scan
                    scan ^= low
                    u = low.bit_length() - 1
                    size = remaining[u].bit_count()
                    if size < best_size:
                        best, best_size = u, size
                        if size == 1:
                            break
                uncolored ^= 1 << best
                stack.append([best, remaining[best], 0, 0])
        # try the next color of the vertex on top of the stack
        if not stack:
            return None
        frame = stack[-1]
        v, untried, cbit, touched = frame
        while touched:
            low = touched & -touched
            remaining[low.bit_length() - 1] |= cbit
            touched ^= low
        if not untried:
            stack.pop()
            color[v] = -1
            uncolored |= 1 << v
            descend = False
            continue
        cbit = untried & -untried
        color[v] = cbit.bit_length() - 1
        descend = True
        nbrs = adj[v] & uncolored
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            u = low.bit_length() - 1
            if remaining[u] & cbit:
                remaining[u] ^= cbit
                touched |= low
                if not remaining[u]:
                    descend = False
        frame[1] = untried ^ cbit
        frame[2] = cbit
        frame[3] = touched


def is_l_colorable(G: Graph, L: ListAssignment) -> Coloring | None:
    """A proper coloring with c(v) in L(v), or None.

    Exact backtracking choosing next the vertex with fewest remaining
    feasible colors, with color-set propagation to neighbors and the
    pigeonhole cut on greedy cliques (see ``_solve_list_coloring``). The
    cut only discards nodes with no coloring below them, so the coloring
    returned is the first one in the fixed vertex and color order, the
    same one plain backtracking returns.
    """
    if len(L.lists) != G.n:
        raise ValueError("need one color list per vertex")
    palette = sorted(set().union(*L.lists)) if G.n else []
    bit = {c: 1 << i for i, c in enumerate(palette)}
    # the bits of one list are distinct, so their sum is their union
    masks = [sum(map(bit.__getitem__, s)) for s in L.lists]
    solved = _solve_list_coloring(G.n, G.adj, masks)
    if solved is None:
        return None
    return tuple(palette[i] for i in solved)


def verify_choosability_witness(G: Graph, L: ListAssignment, k: int) -> bool:
    """True iff every list has >= k colors and G is not L-colorable.

    A true result certifies that the list chromatic number is at least k+1.
    """
    if len(L.lists) != G.n:
        raise ValueError("need one color list per vertex")
    if any(len(s) < k for s in L.lists):
        return False
    return is_l_colorable(G, L) is None


def _alon_tarsi_certifies(H: Graph, k: int) -> bool:
    """True when the graph polynomial of H has a nonzero coefficient on a
    monomial with every degree below k, which certifies k-choosability.

    Expands prod (x_u - x_v) over the edges, discarding monomials as soon
    as a degree reaches k. An empty expansion is merely inconclusive.

    Nothing is expanded when H is complete on more than k vertices: such
    an H is not even k-colorable, so by the Combinatorial Nullstellensatz
    no coefficient of that kind can be nonzero.

    A monomial is keyed by one integer holding its degree vector in fields
    of w = bit_length(k-1) bits, vertex u in bits w*u and up. A degree is
    raised only while it is below k-1 < 2**w, so a field never carries
    into the next and the key is a bijective image of the degree tuple.
    """
    n = H.n
    m = H.edge_count()
    top = k - 1
    if m > n * top or (n > k and 2 * m == n * (n - 1)):
        return False
    width = max(1, top.bit_length())
    field = (1 << width) - 1
    coeffs: dict[int, int] = {0: 1}
    for u, v in H.edges():
        su, sv = width * u, width * v
        bu, bv = 1 << su, 1 << sv
        nxt: dict[int, int] = {}
        for degs, c in coeffs.items():
            if degs >> su & field < top:
                bumped = degs + bu
                nxt[bumped] = nxt.get(bumped, 0) + c
            if degs >> sv & field < top:
                bumped = degs + bv
                nxt[bumped] = nxt.get(bumped, 0) - c
        coeffs = {t: c for t, c in nxt.items() if c}
        if not coeffs:
            return False
    return True


def _is_two_choosable_core(adj: tuple[int, ...], C: int) -> bool:
    """True iff G[C] is an even cycle or a theta graph θ(2,2,2m), where
    ``adj`` are the rows of G and G[C] is connected with minimum degree at
    least 2, so that G[C] is its own core.

    By the theorem of Erdős, Rubin and Taylor (Choosability in graphs,
    1979), a connected graph is 2-choosable iff its core, left after
    deleting vertices of degree 1 while there are any, is K1, an even cycle
    or θ(2,2,2m) for some m >= 1: two vertices joined by three internally
    disjoint paths of lengths 2, 2 and 2m. So for such a G[C] this is the
    exact answer to "is G[C] 2-choosable".

    With n = |C| and every degree at least 2, the degree sum 2e is at least
    2n. If e = n every degree is 2 and the connected G[C] is a cycle, even
    iff n is. Otherwise G[C] is θ(2,2,2m) iff e = n + 1, exactly two
    vertices have degree 3, they are not adjacent, they share at least two
    neighbors, and n is odd:

    - The degree sum 2n + 2 exceeds 2n by 2, so either one vertex has
      degree 4 (two cycles through one vertex) or two vertices u, v have
      degree 3 and all others degree 2.
    - In the second case G[C] is made of paths whose ends are u or v: three
      u-v paths (a theta graph), or a cycle through u, a cycle through v
      and one u-v path. In the latter u and v share at most one neighbor,
      the middle of that path, so two shared neighbors leave a theta graph
      with two u-v paths of length 2.
    - u and v are not adjacent, so the third path has some length c >= 2,
      and θ(2,2,c) has c + 3 vertices: n is odd iff c is even.

    A triangle, the commonest kept subgraph, is answered after one pass
    over its three vertices.
    """
    n = C.bit_count()
    twice_e = 0
    cubic = []
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        d = (adj[v] & C).bit_count()
        twice_e += d
        if d == 3:
            cubic.append(v)
    if twice_e == 2 * n:
        return n % 2 == 0
    if twice_e != 2 * n + 2 or n % 2 == 0 or len(cubic) != 2:
        return False
    u, v = cubic
    return not adj[u] >> v & 1 and (adj[u] & adj[v] & C).bit_count() >= 2


def _is_two_choosable(G: Graph) -> bool:
    """Decide 2-choosability of G by the Erdős–Rubin–Taylor theorem (see
    ``_is_two_choosable_core``), without a search.

    G is 2-choosable iff each of its components is. Deleting vertices of
    degree at most 1 while there are any leaves the 2-core of G, whose
    components are the cores of G's components that are not trees (a tree's
    core is K1, and a deleted leaf leaves its component connected). So G is
    2-choosable iff every component of its 2-core is an even cycle or
    θ(2,2,2m).
    """
    adj = G.adj
    core = (1 << G.n) - 1
    peeled = True
    while peeled:
        peeled = False
        rest = core
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & core).bit_count() < 2:
                core ^= low
                peeled = True
    while core:
        # the component of the lowest core vertex
        comp = frontier = core & -core
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = adj[low.bit_length() - 1] & core & ~comp
            comp |= grow
            frontier |= grow
        if not _is_two_choosable_core(adj, comp):
            return False
        core ^= comp
    return True


def _independent_sets(H: Graph) -> dict[int, int]:
    """D_I for every non-empty independent set I of H, keyed by I.

    D_I is the 2**n-bit mask of the vertex sets X with ``X & I == 0``,
    built as the AND of the per-vertex masks of I's members; the mask for
    vertex v is runs of 2**v ones alternating with 2**v zeros from X = 0.
    """
    every = (1 << (1 << H.n)) - 1
    without = [((1 << (1 << v)) - 1) * (every // ((1 << (2 << v)) - 1)) for v in range(H.n)]
    free = {0: every}
    for I in range(1, 1 << H.n):
        low = I & -I
        v = low.bit_length() - 1
        rest = I ^ low
        if rest in free and not H.adj[v] & rest:
            free[I] = free[rest] & without[v]
    del free[0]
    return free


def _add_color(F: int, moves) -> int:
    """The colorable family after one more color instance, which may go to
    any independent set I of the ``moves`` pairs (I, D_I)."""
    grown = F
    for I, D in moves:
        grown |= (F & D) << I
    return grown


def _chromatic_layers(H: Graph, free: dict[int, int]) -> list[int]:
    """Entry j is the family of vertex sets of H colorable with j colors,
    up to the first entry that holds the whole vertex set, and so every
    set; ``free`` is ``_independent_sets(H)``."""
    full = (1 << H.n) - 1
    layers = [1]
    while not layers[-1] >> full & 1:
        layers.append(_add_color(layers[-1], free.items()))
    return layers


def _capped_uncolorable_supports(H: Graph, k: int) -> list[int] | None:
    """Support multiset (with multiplicity) of an uncolorable k-assignment
    covering all of H, or None.

    Assignments are enumerated up to color renaming as non-increasing
    sequences of supports (the set of vertices whose list holds a color).
    The caller sweeps induced subgraphs in ascending order, so every proper
    induced subgraph is already known k-choosable here; that justifies the
    exact reductions below on a minimal witness:

    - A support never isolates one of its vertices: a color absent from a
      member's neighborhood could color that member, which then deletes.
    - A support never repeats chi(H[S]) times: that many copies color S
      internally (one copy per color class) and the untouched remainder is
      a choosable proper subgraph. Supports inducing no edge never occur.
    - Two colors with disjoint supports merge into one (recoloring the
      merged class splits back into the original two), so all supports
      pairwise intersect; counting intersecting pairs through vertices
      gives at most n*k(k-1)/2, which caps the number of color instances
      and, with sizes non-increasing, lower-bounds every prefix's sizes
      against the remaining coverage.
    - A branch dies once the positive-coverage part is colorable from its
      current lists: later colors are fresh instances, so they cannot
      clash with the fixed choices, and the untouched vertices form a
      choosable proper subgraph however the adversary fills them.

    Colorability is never solved from scratch. Each DFS node carries the
    colorable family F, an integer of 2**n bits whose bit X is set iff the
    vertex set X can be properly colored from the node's lists. The root has
    empty lists, so only the empty set is colorable: F = 1. A child adds one
    color instance with support S, and X is colorable from the grown lists
    iff some independent I contained in both S and X takes the new color
    while X - I is colorable from the parent's lists: the new color appears
    in no other list, so it can go only to an independent part of S, and
    removing it leaves a coloring from the old lists. Hence

        F' = OR over independent I within S of ((F & D_I) << I),

    where D_I marks the X with X & I == 0, so that X - I + I = X | I is the
    bit the shift lands on; I = 0 keeps F. The test of a node is then the
    bit F >> covered. The caps come from the same update applied to every
    independent set of H at once, starting again from 1: after j rounds the
    family holds exactly the sets of chromatic number at most j.

    ``dfs`` recurses once per chosen support and refuses a node that
    already holds ``max_colors`` of them, so it is at most ``max_colors``
    calls deep below the root. The sweep passes only k <= n - 1, since a
    set of at most k vertices fails its degree test, so at the order-8
    guard (k <= 7, 168 intersecting pairs) that depth is 18.
    """
    n = H.n
    adj = H.adj
    full = (1 << n) - 1
    free = _independent_sets(H)
    layers = _chromatic_layers(H, free)
    supports = []
    for m in range(full, 0, -1):
        # a color unseen in some member's neighborhood could color that
        # member and delete it, so supports never isolate a vertex
        rest = m
        while rest:
            low = rest & -rest
            if not adj[low.bit_length() - 1] & m:
                break
            rest ^= low
        else:
            supports.append(m)
    # non-increasing size, then descending mask: the sort is stable
    supports.sort(key=int.bit_count, reverse=True)
    # every support has an edge, so chi(H[S]) >= 2 and each cap is >= 1
    caps = [sum(not layer >> S & 1 for layer in layers) - 1 for S in supports]
    sizes = [S.bit_count() for S in supports]
    # reach[i]: the vertices some support at index >= i contains
    reach = [0] * (len(supports) + 1)
    for i in range(len(supports) - 1, -1, -1):
        reach[i] = reach[i + 1] | supports[i]
    # each support's (I, D_I) pairs, built on its first use
    splits: list[list[tuple[int, int]] | None] = [None] * len(supports)
    pair_budget = n * k * (k - 1) // 2
    max_colors = 1
    while (max_colors + 1) * max_colors // 2 <= pair_budget:
        max_colors += 1
    cov = [0] * n
    chosen: list[int] = []

    def dfs(idx: int, mult_here: int, need: int, F: int, covered: int, open_mask: int, hosted: int) -> bool:
        # the pair count and colorability tests of this node ran in its parent
        if not open_mask:
            return True
        d = len(chosen)
        if d >= max_colors:
            return False
        if open_mask & ~reach[idx]:
            # an open vertex lies in no support still to come
            return False
        for C in chosen:
            if not C & open_mask:
                # a sealed-off support can never meet future ones
                return False
        # every pair of chosen supports shares a vertex, and a vertex of
        # coverage c hosts at most C(c, 2) such pairs; a child has d + 1
        pairs = d * (d + 1) // 2
        slots = max_colors - d
        for i in range(idx, len(supports)):
            S = supports[i]
            if S & ~open_mask:
                continue
            if need > slots * sizes[i]:  # future supports are no larger
                break
            used = mult_here if i == idx else 0
            if used >= caps[i]:
                continue
            for C in chosen:
                if not S & C:
                    break
            else:
                child_hosted = hosted
                closed = 0
                rest = S
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = cov[low.bit_length() - 1]
                    child_hosted += c  # C(c+1, 2) - C(c, 2)
                    if c == k - 1:
                        closed |= low
                if pairs > child_hosted:
                    continue
                moves = splits[i]
                if moves is None:
                    moves = splits[i] = [(I, free[I]) for I in nonempty_submasks(S, n) if I in free]
                child_F = _add_color(F, moves)
                child_covered = covered | S
                if child_F >> child_covered & 1:
                    continue
                chosen.append(S)
                rest = S
                while rest:
                    low = rest & -rest
                    rest ^= low
                    cov[low.bit_length() - 1] += 1
                if dfs(i, used + 1, need - sizes[i], child_F, child_covered, open_mask ^ closed, child_hosted):
                    return True
                rest = S
                while rest:
                    low = rest & -rest
                    rest ^= low
                    cov[low.bit_length() - 1] -= 1
                chosen.pop()
        return False

    if dfs(0, 0, n * k, 1, 0, full, 0):
        return chosen
    return None


def find_uncolorable_assignment(
    G: Graph, k: int, *, use_shortcuts: bool = True
) -> ListAssignment | None:
    """An uncolorable assignment with all lists of size exactly k, or None.

    Sweeps connected induced subgraphs of minimum degree >= k in ascending
    (order, mask) order: a minimal uncolorable assignment lives on such a
    subgraph, because a vertex with fewer than k colored neighbors can
    always be colored last. A witness found on a subgraph is lifted to G by
    giving every outside vertex k fresh private colors. Assignments use at
    most k*v(G) colors overall and are enumerated up to color renaming.

    With ``use_shortcuts`` a subgraph proved k-choosable is skipped; that
    is sound, so the result is exact either way, and since a k-choosable
    subgraph has no witness to find, the first subgraph searched, and so
    the witness returned, is the same as without the skip. At k = 2 the
    proof is the Erdős–Rubin–Taylor theorem: a kept subgraph is connected
    with minimum degree at least 2, so it is its own core, and it is
    2-choosable iff it is an even cycle or θ(2,2,2m)
    (``_is_two_choosable_core``); every other kept subgraph is searched.
    At other k it is the polynomial certificate of
    ``_alon_tarsi_certifies``, which at k = 2 could certify only the even
    cycles (it needs at most n edges). No degeneracy test is needed: every
    vertex of a kept subgraph has at least k neighbors in it, so its
    degeneracy is at least k and greedy coloring from k colors settles none.

    The support search keeps families of 2**v(G) bits, and one chromatic
    layer combines up to 2**v(G) of them, so the order is held to the guard
    of ``list_chromatic_number``.
    """
    check_size(G.n, LIST_CHROMATIC_MAX_ORDER, "graph order for find_uncolorable_assignment")
    if k < 1:
        raise ValueError("k must be at least 1")
    adj = G.adj
    # sets of at most k vertices fail the degree test: a vertex of T has
    # at most |T| - 1 neighbors in T
    for size in range(k + 1, G.n + 1):
        nxt = (1 << size) - 1
        while not nxt >> G.n:
            T = nxt
            # Gosper's hack: the next larger mask with as many bits
            low = T & -T
            ripple = T + low
            nxt = ripple | ((T ^ ripple) >> 2) // low
            rest = T
            while rest:
                low = rest & -rest
                if (adj[low.bit_length() - 1] & T).bit_count() < k:
                    break
                rest ^= low
            if rest or not is_connected_subset(G, T):
                continue
            if use_shortcuts and k == 2 and _is_two_choosable_core(adj, T):
                continue
            sub = induced_subgraph(G, T)
            if use_shortcuts and k != 2 and _alon_tarsi_certifies(sub, k):
                continue
            supports = _capped_uncolorable_supports(sub, k)
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


def is_k_choosable(G: Graph, k: int, *, use_shortcuts: bool = True) -> bool:
    """True iff every assignment of k colors per vertex has a coloring.

    With ``use_shortcuts`` and k = 2 the answer comes from the
    Erdős–Rubin–Taylor theorem (``_is_two_choosable``), with no sweep and
    no witness built; the order guard of ``find_uncolorable_assignment``
    still applies. Otherwise it is ``find_uncolorable_assignment(G, k)
    is None``.
    """
    if use_shortcuts and k == 2:
        check_size(G.n, LIST_CHROMATIC_MAX_ORDER, "graph order for find_uncolorable_assignment")
        return _is_two_choosable(G)
    return find_uncolorable_assignment(G, k, use_shortcuts=use_shortcuts) is None


def list_chromatic_number(G: Graph, *, use_shortcuts: bool = True) -> int:
    """Exact list chromatic number by exhaustive assignment enumeration.

    With d the degeneracy, greedy coloring along a degeneracy order succeeds
    from any lists of d+1 colors, so chi_l <= d+1. Below chi no
    k is choosable: giving every vertex the same k colors leaves G
    uncolorable, so chi <= chi_l. With ``use_shortcuts`` only the k in
    chi..d are searched, and when chi = d+1 that sandwich closes and nothing
    is; k = 2, when searched, is answered by the Erdős–Rubin–Taylor theorem
    (see ``is_k_choosable``) and never reaches the support sweep.
    ``use_shortcuts=False`` is the oracle: it searches every k from 1 to
    d+1, with no shortcut inside the search either.
    """
    check_size(G.n, LIST_CHROMATIC_MAX_ORDER, "graph order for list_chromatic_number")
    if G.n == 0 or G.edge_count() == 0:
        return min(1, G.n)
    d = degeneracy(G)[0]
    if not use_shortcuts:
        return next(k for k in range(1, d + 2) if is_k_choosable(G, k, use_shortcuts=False))
    return next((k for k in range(chromatic_number(G), d + 1) if is_k_choosable(G, k)), d + 1)


def chromatic_number(G: Graph) -> int:
    """Chromatic number, decided with the list solver on identical lists.

    The tries start at the size of the largest of n greedy cliques, one
    grown from each vertex through common neighbors, lowest first. A
    clique needs as many colors as it has vertices, so no smaller k can
    succeed and the first k that does is still chi. (Reading chi from
    ``_chromatic_layers`` instead builds every independent set of G first
    and measured no faster.)
    """
    if G.n == 0:
        return 0
    if G.edge_count() == 0:
        return 1
    adj = G.adj
    start = 2
    for v in range(G.n):
        size, common = 1, adj[v]
        while common:
            low = common & -common
            common &= adj[low.bit_length() - 1]
            size += 1
        start = max(start, size)
    for k in range(start, G.n + 1):
        if is_l_colorable(G, ListAssignment.uniform(G.n, range(k))) is not None:
            return k
    raise AssertionError("unreachable: n colors always suffice")
