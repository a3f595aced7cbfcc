"""Minor-model certificates, exact containment search with two independent
algorithms, clique sums, and model surgery through a gluing clique."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import check_size
from .graphs import (
    Graph,
    VertexSet,
    bit_list,
    bits,
    complete_graph,
    degeneracy,
    induced_subgraph,
    is_clique,
    is_connected_subset,
    mask_of,
    min_degree,
    relabel_rows,
)

CONTRACTION_ORACLE_MAX_ORDER = 9
HADWIGER_MAX_ORDER = 12
MINOR_SUPPORT_MAX_ORDER = 10


@dataclass
class MinorModel:
    """Branch sets of a minor model: pattern vertex -> host vertex mask."""

    branch_sets: dict[int, VertexSet]

    def to_json(self) -> str:
        return json.dumps(
            {str(h): bit_list(mask) for h, mask in sorted(self.branch_sets.items())}
        )

    @classmethod
    def from_json(cls, text: str) -> "MinorModel":
        data = json.loads(text)
        return cls({int(h): mask_of(vs) for h, vs in data.items()})


def check_model(host: Graph, pattern: Graph, model: MinorModel) -> str | None:
    """None if the model is valid, else a reason naming the failed invariant."""
    sets = model.branch_sets
    for h in range(pattern.n):
        if h not in sets:
            return f"missing: no branch set for pattern vertex {h}"
    for h in sets:
        if not 0 <= h < pattern.n:
            return f"range: branch set for nonexistent pattern vertex {h}"
    host_mask = host.vertex_mask()
    seen = 0
    for h, mask in sorted(sets.items()):
        if mask & ~host_mask:
            return f"range: branch set of {h} references vertices outside the host"
        if not mask:
            return f"nonempty: branch set of {h} is empty"
        if mask & seen:
            return f"disjoint: branch set of {h} overlaps an earlier one"
        seen |= mask
    for h, mask in sorted(sets.items()):
        if not is_connected_subset(host, mask):
            return f"connectivity: branch set of {h} is disconnected in the host"
    for h1, h2 in pattern.edges():
        z1, z2 = sets[h1], sets[h2]
        if not any(host.adj[v] & z2 for v in bits(z1)):
            return f"edge: no host edge between branch sets of {h1} and {h2}"
    return None


def verify_model(host: Graph, pattern: Graph, model: MinorModel) -> bool:
    return check_model(host, pattern, model) is None


def _twin_classes(pattern: Graph) -> list[int]:
    """Class representative per vertex; vertices in one class are interchangeable.

    Non-adjacent vertices with equal open neighborhoods and adjacent vertices
    with equal closed neighborhoods are twins; permuting a twin class is an
    automorphism. The two kinds never mix on a vertex, so using whichever
    applies is sound.
    """
    rep = list(range(pattern.n))
    open_groups: dict[int, list[int]] = {}
    for v in range(pattern.n):
        open_groups.setdefault(pattern.adj[v], []).append(v)
    grouped = set()
    for members in open_groups.values():
        if len(members) > 1:
            for v in members:
                rep[v] = members[0]
                grouped.add(v)
    closed_groups: dict[int, list[int]] = {}
    for v in range(pattern.n):
        if v not in grouped:
            closed_groups.setdefault(pattern.adj[v] | 1 << v, []).append(v)
    for members in closed_groups.values():
        if len(members) > 1:
            for v in members:
                rep[v] = members[0]
    return rep


def _series_parallel_reduction(host: Graph) -> Graph:
    """The host after repeatedly deleting a vertex of degree at most 1 and
    suppressing a vertex of degree 2 until neither is left.

    Suppressing v deletes it and joins its two neighbours; if they are
    already adjacent the new edge merges into the old one. Each step is a
    deletion or the contraction of an edge at v, so the result is a minor of
    the host, relabelled 0..k-1 in ascending original order.
    """
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


def _elimination_width(G: Graph, stop: int) -> int:
    """Width of the min-degree elimination order with fill edges, or a value
    of at least ``stop`` as soon as the width reaches ``stop``.

    Eliminating v joins its remaining neighbours pairwise (the fill edges)
    and deletes v; the width is the largest number of remaining neighbours
    an eliminated vertex had. The vertex of fewest remaining neighbours goes
    first, the lowest on ties. Any elimination order's width bounds the
    treewidth from above, so a width below ``stop`` proves treewidth below
    ``stop``.
    """
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


class _PatternPlan(NamedTuple):
    """Everything the search needs from the pattern alone, in search positions."""

    order: tuple[int, ...]  # pattern vertex at each search position
    same_class_as_prev: tuple[bool, ...]
    earlier_nbrs: tuple[tuple[int, ...], ...]  # positions before i adjacent to i
    later_own: tuple[int, ...]  # pattern neighbours of position i after i
    # per position i: (j, pattern neighbours of j after i) for each earlier
    # position j that still has some
    later_placed: tuple[tuple[tuple[int, int], ...], ...]
    pattern_e: int
    lb: int  # degeneracy, a lower bound on the pattern's treewidth


@lru_cache(maxsize=64)
def _pattern_plan(pattern: Graph) -> _PatternPlan:
    """The pattern's search plan, built once per pattern (graphs are frozen)."""
    twin = _twin_classes(pattern)
    order = tuple(sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), twin[v], v)))
    same_class_as_prev = (False,) + tuple(
        twin[order[i]] == twin[order[i - 1]] for i in range(1, len(order))
    )
    rows = relabel_rows(pattern.adj, order)
    later_placed = []
    for i in range(pattern.n):
        counts = ((j, (rows[j] >> (i + 1)).bit_count()) for j in range(i))
        later_placed.append(tuple((j, c) for j, c in counts if c))
    return _PatternPlan(
        order=order,
        same_class_as_prev=same_class_as_prev,
        earlier_nbrs=tuple(tuple(bit_list(row & ((1 << i) - 1))) for i, row in enumerate(rows)),
        later_own=tuple((row >> (i + 1)).bit_count() for i, row in enumerate(rows)),
        later_placed=tuple(later_placed),
        pattern_e=pattern.edge_count(),
        lb=degeneracy(pattern)[0],
    )


def contains_minor(host: Graph, pattern: Graph) -> MinorModel | None:
    """A valid minor model of the pattern in the host, or None.

    The returned model is always the first one ``_search_model`` finds in
    the original host. When the pattern has minimum degree at least 3,
    ``_series_parallel_reduction`` first cuts the host down (delete vertices
    of degree at most 1, suppress vertices of degree 2, until none is left),
    and two exact negative filters run on the reduced host, in this order;
    each answers None only where that search would:

    1. If the reduced host's min-degree elimination width is below
       lb = degeneracy(pattern), the answer is None.
    2. If the reduction removed a vertex and the reduced host has no model,
       the answer is None (a host that loses no vertex is searched once).

    A reduced host with fewer vertices than the pattern needs no filter of
    its own: if the reduction removed a vertex, filter 2's search answers
    None at its first check (``host.n < pattern.n``), and if it removed
    none, the search of the host itself does.

    Filter 2 is exact because the host has a model iff the reduced host has
    one:

    - The reduced host is a minor of the host, so a model in it gives one in
      the host.
    - Conversely, take a model in the current host and a vertex v of degree
      at most 2. If v is in no branch set, deleting v (and joining its
      neighbours) keeps the model. Otherwise v cannot be a whole branch set:
      each pattern neighbour of its pattern vertex h needs its own host
      neighbour of v, so h would have degree at most 2 < 3. So the branch
      set of h holds a neighbour a of v. If v has degree at most 1, a is its
      only neighbour, and dropping v from the branch set leaves it connected
      and loses no edge to another branch set. If v has degree 2, contract
      va into a: the branch set stays connected, and an edge from v to its
      other neighbour b becomes the edge ab that suppression adds.

    Filter 1 is exact because treewidth does not grow under taking minors,
    and every graph has treewidth at least its degeneracy (a graph of
    treewidth k has a vertex of degree at most k, and so does each of its
    subgraphs). A host with an elimination order of width w < lb has
    treewidth at most w < lb <= tw(pattern), so the pattern is not its
    minor. The elimination is skipped when the reduced host has more than
    (lb - 1)n - (lb - 1)lb/2 edges: a graph of treewidth at most lb - 1 on
    n >= lb vertices has at most that many, so a denser host has treewidth
    at least lb and no elimination order of width below lb. The elimination
    stops as soon as its width reaches lb. The filter can only fire when
    lb >= 4: the reduced host has minimum degree at least 3, so the first
    vertex eliminated already has 3 neighbours.

    Patterns of minimum degree below 3 (K1-K3, cycles, paths) skip the
    filters: a cycle host reduces to nothing but contains a triangle.

    The search itself (``_search_model``) backtracks over branch sets:
    pattern vertices by descending degree, candidate branch sets by
    ascending mask value. Candidates are generated lazily, one submask of
    the free host vertices at a time, so a search that succeeds early never
    builds the rest of the list. Their size is capped by the remaining
    host-vertex budget and by the host edge budget (a model needs one host
    edge per pattern edge plus a spanning tree inside every branch set).
    After a branch set is placed, every placed branch set must keep as many
    free host neighbours as it has unplaced pattern neighbours (see
    ``_search_model``). Twin pattern vertices are searched with increasing
    branch-set minima, which skips permuted duplicates: the walk only
    visits submasks above the previous twin's minimum. The first model
    found is returned, so the witness is deterministic.
    """
    if min_degree(pattern) >= 3:
        reduced = _series_parallel_reduction(host)
        lb = _pattern_plan(pattern).lb
        n = reduced.n
        if reduced.edge_count() <= (lb - 1) * n - (lb - 1) * lb // 2 and (
            _elimination_width(reduced, lb) < lb
        ):
            return None
        # an unreduced host is the host itself: searching it twice gains nothing
        if reduced.n < host.n and _search_model(reduced, pattern) is None:
            return None
    return _search_model(host, pattern)


def _search_model(host: Graph, pattern: Graph) -> MinorModel | None:
    """The first minor model of the branch-set backtracking search, or None.

    Viability prune: after Z is placed at position i, every placed position
    j <= i (Z included) with k pattern neighbours after position i must have
    at least k host vertices in N(Z_j) that are still free, or the node is
    skipped. In any model below the node, the branch sets of those k
    neighbours are pairwise disjoint and lie in the free vertices, and each
    holds a vertex adjacent to Z_j, i.e. a free vertex of N(Z_j); so k such
    vertices exist. A skipped node has no model below it, so the first model
    found is the one the unpruned search finds.
    """
    if pattern.n == 0:
        return MinorModel({})
    if host.n < pattern.n or host.edge_count() < pattern.edge_count():
        return None

    order, same_class_as_prev, earlier_nbrs, later_own, later_placed, pattern_e, _ = (
        _pattern_plan(pattern)
    )
    host_e = host.edge_count()
    hadj = host.adj
    assigned: list[VertexSet] = []
    reach: list[VertexSet] = []  # host neighborhoods of each assigned branch set

    def search(depth: int, avail: VertexSet, tree_edges: int) -> dict[int, VertexSet] | None:
        if depth == pattern.n:
            return {order[i]: assigned[i] for i in range(pattern.n)}
        remaining = pattern.n - depth - 1
        # the host edge budget caps |Z| too: a model needs one host edge per
        # pattern edge plus |Z| - 1 spanning-tree edges inside Z
        max_size = min(avail.bit_count() - remaining, host_e - pattern_e - tree_edges + 1)
        if max_size < 1:
            return None
        need = [reach[j] for j in earlier_nbrs[depth]]  # Z must touch each of these
        own_later = later_own[depth]
        placed_later = later_placed[depth]
        walk = avail
        if same_class_as_prev[depth]:
            # a twin's branch set has a larger minimum than the previous one's
            walk &= -((assigned[-1] & -assigned[-1]) << 1)
        Z = 0
        while True:
            Z = (Z - walk) & walk  # the next submask of walk in ascending order
            if not Z:
                return None
            if Z.bit_count() > max_size:
                continue
            missed = False
            for r in need:
                if not r & Z:
                    missed = True
                    break
            if missed or not is_connected_subset(host, Z):
                continue
            nxt_avail = avail & ~Z
            nb = 0
            rest = Z
            while rest:
                low = rest & -rest
                nb |= hadj[low.bit_length() - 1]
                rest ^= low
            nb &= ~Z
            # each later pattern neighbour needs its own free host neighbour
            if (nb & nxt_avail).bit_count() < own_later:
                continue
            for j, later in placed_later:
                if (reach[j] & nxt_avail).bit_count() < later:
                    break
            else:
                assigned.append(Z)
                reach.append(nb)
                got = search(depth + 1, nxt_avail, tree_edges + Z.bit_count() - 1)
                assigned.pop()
                reach.pop()
                if got is not None:
                    return got

    sets = search(0, host.vertex_mask(), 0)
    return MinorModel(sets) if sets is not None else None


# ---------------------------------------------------------------------------
# independent oracle: delete/contract recursion


def _delete_vertex(n: int, adj: tuple[int, ...], v: int) -> tuple[int, tuple[int, ...]]:
    return n - 1, relabel_rows(adj, [u for u in range(n) if u != v])


def _contract_edge(n: int, adj: tuple[int, ...], u: int, v: int) -> tuple[int, tuple[int, ...]]:
    # merge v into u, then drop v
    merged = list(adj)
    merged[u] = (adj[u] | adj[v]) & ~(1 << u)
    for w in bits(adj[v]):
        if w != u:
            merged[w] |= 1 << u
    return _delete_vertex(n, merged, v)


def _refine_key(n: int, adj: tuple[int, ...]) -> tuple:
    # iso-invariant relabeling by iterated degree refinement; not canonical,
    # but identical labeled graphs always collide, which is all memo needs
    color = [adj[v].bit_count() for v in range(n)]
    for _ in range(3):
        color = [
            (color[v], tuple(sorted(color[u] for u in bits(adj[v])))) for v in range(n)
        ]
    return (n, relabel_rows(adj, sorted(range(n), key=lambda v: (color[v], v))))


def _spanning_subgraph_iso(pn: int, padj: tuple[int, ...], hn: int, hadj: tuple[int, ...]) -> bool:
    """Is there an injection of pattern into host mapping edges into edges?

    With equal orders it is a bijection, so the host spans the pattern.
    The walk is skipped when the host has fewer edges, or when its i-th
    largest degree is below the pattern's for some i: the i pattern vertices
    of largest degree need i distinct images of at least that degree.
    """
    pdeg = sorted((row.bit_count() for row in padj), reverse=True)
    hdeg = sorted((row.bit_count() for row in hadj), reverse=True)
    if pn > hn or sum(pdeg) > sum(hdeg) or any(p > h for p, h in zip(pdeg, hdeg)):
        return False
    order = sorted(range(pn), key=lambda v: -padj[v].bit_count())
    image = [-1] * pn
    used = [False] * hn
    nxt = [0] * (pn + 1)  # the next host vertex to try at each depth
    i = 0
    while i < pn:
        p = order[i]
        pdeg = padj[p].bit_count()
        for h in range(nxt[i], hn):
            if used[h] or hadj[h].bit_count() < pdeg:
                continue
            ok = True
            for q in bits(padj[p]):
                img = image[q]
                if img >= 0 and not hadj[h] >> img & 1:
                    ok = False
                    break
            if ok:
                image[p] = h
                used[h] = True
                nxt[i] = h + 1
                i += 1
                nxt[i] = 0
                break
        else:  # no host vertex fits here: undo the previous placement
            i -= 1
            if i < 0:
                return False
            p = order[i]
            used[image[p]] = False
            image[p] = -1
    return True


def contains_minor_contraction_oracle(
    host: Graph, pattern: Graph, *, max_host_order: int = CONTRACTION_ORACLE_MAX_ORDER
) -> bool:
    """Independent containment oracle: recursion over vertex deletion and
    edge contraction with memoization on refined relabelings.

    Only feasible for small hosts; the default guard admits 9 vertices.
    """
    check_size(host.n, max_host_order, "host order for the contraction oracle")
    pn, padj = pattern.n, pattern.adj
    pe = pattern.edge_count()
    memo: dict[tuple, bool] = {}

    def rec(n: int, adj: tuple[int, ...], e: int) -> bool:
        if pn == 0:
            return True
        if n < pn or e < pe:
            return False
        if n == pn:
            return _spanning_subgraph_iso(pn, padj, n, adj)
        key = _refine_key(n, adj)
        if key in memo:
            return memo[key]
        result = False
        for v in range(n):
            dn, dadj = _delete_vertex(n, adj, v)
            de = sum(r.bit_count() for r in dadj) // 2
            if rec(dn, dadj, de):
                result = True
                break
        if not result:
            for u in range(n):
                for v in bits(adj[u] >> (u + 1) << (u + 1)):
                    cn, cadj = _contract_edge(n, adj, u, v)
                    ce = sum(r.bit_count() for r in cadj) // 2
                    if rec(cn, cadj, ce):
                        result = True
                        break
                if result:
                    break
        memo[key] = result
        return result

    if _spanning_subgraph_iso(pn, padj, host.n, host.adj):  # cheap sufficient case
        return True
    return rec(host.n, host.adj, host.edge_count())


def hadwiger_number(G: Graph) -> int:
    """Largest t such that G has a complete minor on t vertices."""
    check_size(G.n, HADWIGER_MAX_ORDER, "graph order for hadwiger_number")
    t = 0
    while t < G.n and contains_minor(G, complete_graph(t + 1)) is not None:
        t += 1
    return t


# ---------------------------------------------------------------------------
# clique sums


@dataclass(frozen=True)
class CliqueSumSpec:
    """Two graphs and an injective identification of a clique of g1 with one of g2."""

    g1: Graph
    g2: Graph
    ident: tuple[tuple[int, int], ...]  # (vertex of g1, vertex of g2) pairs

    @classmethod
    def from_mapping(cls, g1: Graph, g2: Graph, ident: dict[int, int]) -> "CliqueSumSpec":
        return cls(g1, g2, tuple(sorted(ident.items())))

    def validate(self) -> None:
        sources = [a for a, _ in self.ident]
        targets = [b for _, b in self.ident]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("identification must be injective")
        if any(not 0 <= a < self.g1.n for a in sources):
            raise ValueError("identification references vertices outside g1")
        if any(not 0 <= b < self.g2.n for b in targets):
            raise ValueError("identification references vertices outside g2")
        if not is_clique(self.g1, mask_of(sources)):
            raise ValueError("identified set is not a clique in g1")
        if not is_clique(self.g2, mask_of(targets)):
            raise ValueError("identified set is not a clique in g2")

    def g2_vertex_map(self) -> dict[int, int]:
        """Map of g2 vertices into the union graph produced by clique_sum."""
        to_g1 = {b: a for a, b in self.ident}
        mapped = {}
        fresh = self.g1.n
        for w in range(self.g2.n):
            if w in to_g1:
                mapped[w] = to_g1[w]
            else:
                mapped[w] = fresh
                fresh += 1
        return mapped


def clique_sum(spec: CliqueSumSpec) -> Graph:
    """Union of g1 and g2 overlapping exactly in the identified clique.

    Layout: g1 keeps its labels 0..v(g1)-1; unidentified g2 vertices follow
    in ascending g2 order.
    """
    spec.validate()
    n = spec.g1.n + spec.g2.n - len(spec.ident)
    rows = list(spec.g1.adj) + [0] * (spec.g2.n - len(spec.ident))
    g2_map = spec.g2_vertex_map()
    for u, v in spec.g2.edges():
        mu, mv = g2_map[u], g2_map[v]
        rows[mu] |= 1 << mv
        rows[mv] |= 1 << mu
    return Graph(n, tuple(rows))


def restrict_model_through_clique(
    host_union: Graph, C: VertexSet, side: VertexSet, model: MinorModel
) -> MinorModel:
    """Project a minor model of a clique-sum onto one side.

    ``side`` must contain the gluing clique C. Pattern vertices whose branch
    sets avoid ``side`` are dropped; every kept branch set becomes its
    intersection with ``side``, which stays connected because any excursion
    through the far side can be shortcut inside the clique C.
    """
    if C & ~side:
        raise ValueError("side must contain the gluing clique")
    if not is_clique(host_union, C):
        raise ValueError("C does not induce a clique in the union graph")
    far = host_union.vertex_mask() & ~side
    for v in bits(far & ~C):
        if host_union.adj[v] & side & ~C:
            raise ValueError(
                f"vertex {v} of the far side has neighbors beyond the clique; "
                "the host is not a clique sum along C"
            )
    restricted = {}
    for h, mask in model.branch_sets.items():
        inter = mask & side
        if not inter:
            continue
        if mask & far and not mask & C:
            raise ValueError(
                f"branch set of pattern vertex {h} crosses to the far side "
                "without meeting the clique"
            )
        restricted[h] = inter
    return MinorModel(restricted)


def find_minimum_minor_support(G: Graph, F: Graph) -> VertexSet | None:
    """Minimum-cardinality X with an F-minor inside G[X], or None.

    Increasing-size subset sweep; within one size, subsets are tried in
    lexicographic vertex order, so the witness is deterministic.
    """
    check_size(G.n, MINOR_SUPPORT_MAX_ORDER, "graph order for find_minimum_minor_support")
    if F.n == 0:
        return 0
    for size in range(F.n, G.n + 1):
        for combo in combinations(range(G.n), size):
            X = mask_of(combo)
            if contains_minor(induced_subgraph(G, X), F) is not None:
                return X
    return None


def find_induced_pattern_minor(host: Graph, pattern: Graph, size: int) -> tuple[int, ...] | None:
    """First pattern vertex set X with |X| = size, in lexicographic order,
    whose induced subgraph is a minor of the host; None if there is none.

    None also settles every larger size: an induced subgraph on more than
    ``size`` vertices contains one on ``size`` vertices as a subgraph, and a
    subgraph of a minor is itself a minor.
    """
    for combo in combinations(range(pattern.n), size):
        if contains_minor(host, induced_subgraph(pattern, mask_of(combo))) is not None:
            return combo
    return None
