"""Bitmask simple graphs and the invariants every other module builds on.

Vertices are integers 0..n-1. Adjacency is one Python int per vertex with
bit u of ``adj[v]`` set iff uv is an edge. Python ints are arbitrary
precision, so the same rows serve 5-vertex fixtures and 4000-vertex
pastings without a word-size cap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

VertexSet = int  # bitmask over the vertices of an associated graph


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bitmask with exactly the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_list(mask: int) -> list[int]:
    """Ascending list of vertices in ``mask`` (the induced-subgraph relabel map)."""
    return list(bits(mask))


def nonempty_submasks(mask: int, limit: int) -> list[int]:
    """Non-empty submasks of ``mask`` with at most ``limit`` bits, ascending."""
    out = []
    s = mask
    while s:
        if s.bit_count() <= limit:
            out.append(s)
        s = (s - 1) & mask
    out.reverse()
    return out


@dataclass(frozen=True)
class Graph:
    """Simple loopless undirected graph; adjacency as per-vertex bit rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def vertex_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(row):
                out.append((v, u))
        return out


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on parts A and B; intra-part adjacency is not representable."""

    a_size: int
    b_size: int
    rows: tuple[int, ...]  # one row per A-vertex, bits over B

    def __post_init__(self):
        if self.a_size < 0 or self.b_size < 0:
            raise ValueError("part sizes must be nonnegative")
        if len(self.rows) != self.a_size:
            raise ValueError("need one row per A-vertex")
        full = (1 << self.b_size) - 1
        for a, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {a} has bits outside 0..{self.b_size - 1}")

    @classmethod
    def from_edges(cls, a_size: int, b_size: int, edges) -> "BipartiteGraph":
        rows = [0] * a_size
        for a, b in edges:
            if not (0 <= a < a_size and 0 <= b < b_size):
                raise ValueError(f"cross pair ({a},{b}) out of range")
            rows[a] |= 1 << b
        return cls(a_size, b_size, tuple(rows))

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def degree_a(self, a: int) -> int:
        return self.rows[a].bit_count()

    def degree_b(self, b: int) -> int:
        return sum(row >> b & 1 for row in self.rows)

    def max_degree(self) -> int:
        degs = [self.degree_a(a) for a in range(self.a_size)]
        degs += [self.degree_b(b) for b in range(self.b_size)]
        return max(degs, default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


# ---------------------------------------------------------------------------
# standard small-graph builders


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite_graph(s: int, t: int) -> Graph:
    return Graph.from_edges(s + t, [(a, s + b) for a in range(s) for b in range(t)])


def complete_multipartite_graph(*sizes: int) -> Graph:
    n = sum(sizes)
    edges = []
    offsets = []
    pos = 0
    for size in sizes:
        offsets.append((pos, pos + size))
        pos += size
    for i, (lo1, hi1) in enumerate(offsets):
        for lo2, hi2 in offsets[i + 1 :]:
            edges += [(u, v) for u in range(lo1, hi1) for v in range(lo2, hi2)]
    return Graph.from_edges(n, edges)


def add_isolated_vertices(G: Graph, k: int) -> Graph:
    """G plus k fresh isolated vertices appended after the existing ones."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Graph(G.n + k, G.adj + (0,) * k)


# ---------------------------------------------------------------------------
# graph algebra


def complement(G: Graph) -> Graph:
    """Graph with edge uv iff u != v and uv is not an edge of G."""
    full = G.vertex_mask()
    return Graph(G.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(G.adj)))


def relabel_rows(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows renumbered so that new vertex i is old vertex ``order[i]``.

    ``order`` lists distinct old vertices; edges to vertices not in it are
    dropped. Every renumbering in the package goes through this one rule.
    """
    new_bit = {1 << v: 1 << i for i, v in enumerate(order)}  # old bit -> new bit
    keep = sum(new_bit)
    rows = []
    for v in order:
        row = 0
        m = adj[v] & keep
        while m:
            low = m & -m
            row |= new_bit[low]
            m ^= low
        rows.append(row)
    return tuple(rows)


def induced_subgraph(G: Graph, S: VertexSet) -> Graph:
    """Subgraph induced on S, relabelled 0..|S|-1 in ascending original order.

    The relabel map is ``bit_list(S)``: new index i corresponds to the i-th
    smallest original vertex.
    """
    keep = bit_list(S)
    return Graph(len(keep), relabel_rows(G.adj, keep))


def bipartite_union_complement(B: BipartiteGraph, A_sub: VertexSet, B_sub: VertexSet) -> Graph:
    """Complement-style gadget on chosen parts of a bipartite graph.

    Both chosen parts become cliques; a cross pair is an edge iff it is NOT
    an edge of B. Vertex layout: chosen A-vertices first (ascending), then
    chosen B-vertices (ascending).
    """
    if A_sub & ~((1 << B.a_size) - 1):
        raise ValueError("A_sub references vertices outside the A part")
    if B_sub & ~((1 << B.b_size) - 1):
        raise ValueError("B_sub references vertices outside the B part")
    avs = bit_list(A_sub)
    bvs = bit_list(B_sub)
    na, nb = len(avs), len(bvs)
    n = na + nb
    rows = [0] * n
    for i in range(na):
        for j in range(na):
            if i != j:
                rows[i] |= 1 << j
    for i in range(nb):
        for j in range(nb):
            if i != j:
                rows[na + i] |= 1 << (na + j)
    for i, a in enumerate(avs):
        for j, b in enumerate(bvs):
            if not B.has_edge(a, b):
                rows[i] |= 1 << (na + j)
                rows[na + j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# degrees, degeneracy, connectivity


def min_degree(G: Graph) -> int:
    return min((row.bit_count() for row in G.adj), default=0)


def max_degree(G: Graph) -> int:
    return max((row.bit_count() for row in G.adj), default=0)


def edges_between(G: Graph, A: VertexSet, B: VertexSet) -> int:
    """Number of edges with one endpoint in A and the other in B."""
    if A & B:
        raise ValueError("A and B must be disjoint")
    return sum((G.adj[a] & B).bit_count() for a in bits(A))


def degeneracy(G: Graph) -> tuple[int, list[int]]:
    """Degeneracy and a witness elimination order (min-degree peeling).

    Every vertex has at most d neighbors later in the returned order.
    """
    remaining = G.vertex_mask()
    order = []
    d = 0
    while remaining:
        best, best_deg = -1, G.n + 1
        for v in bits(remaining):
            deg = (G.adj[v] & remaining).bit_count()
            if deg < best_deg:
                best, best_deg = v, deg
        d = max(d, best_deg)
        order.append(best)
        remaining ^= 1 << best
    return d, order


def is_connected_subset(G: Graph, S: VertexSet) -> bool:
    """True iff S is non-empty and G[S] is connected."""
    if not S:
        return False
    adj = G.adj
    reach = frontier = S & -S
    while frontier:  # each reached vertex leaves the frontier once
        low = frontier & -frontier
        frontier ^= low
        grow = adj[low.bit_length() - 1] & S & ~reach
        reach |= grow
        frontier |= grow
    return reach == S


def is_clique(G: Graph, S: VertexSet) -> bool:
    """True iff every pair of vertices in S is adjacent (empty and singleton pass)."""
    for v in bits(S):
        if (G.adj[v] & S) != S ^ (1 << v):
            return False
    return True


def _max_vertex_disjoint_paths(G: Graph, s: int, t: int, limit: int) -> int:
    # Unit-capacity max flow on the vertex-split digraph, stopped at ``limit``
    # paths. Node v is v_in and node n+v is v_out; arcs are v_in -> v_out and
    # u_out -> v_in for each edge uv. All have capacity 1 (a vertex passes one
    # unit), so each residual row is a bitmask and pushing a unit over x -> y
    # flips bit y of row x and bit x of row y.
    n = G.n
    res = [1 << (n + v) for v in range(n)] + list(G.adj)
    source, sink = n + s, 1 << t
    flow = 0
    while flow < limit:
        layers = [1 << source]  # breadth-first layers of the residual digraph
        seen = layers[0]
        while not seen & sink:
            reach = 0
            for x in bits(layers[-1]):
                reach |= res[x]
            reach &= ~seen
            if not reach:
                return flow
            seen |= reach
            layers.append(reach)
        y = t  # walk back through the layers, taking the lowest parent
        for layer in reversed(layers[:-1]):
            x = next(x for x in bits(layer) if res[x] >> y & 1)
            res[x] ^= 1 << y
            res[y] ^= 1 << x
            y = x
        flow += 1
    return flow


def vertex_connectivity(G: Graph) -> int:
    """Vertex connectivity: n-1 for complete graphs, 0 for disconnected ones.

    Computed as the minimum number of internally vertex-disjoint paths over
    non-adjacent pairs s < t (Menger, via unit-capacity flow), with s only
    among v_0..v_k for the smallest count k found so far (Even 1975). No
    minimum is missed: k never drops below kappa, and a minimum separator X
    misses some v_i with i <= kappa, which X cuts off from some w; the pair
    {v_i, w} is examined with s = v_i if w > v_i, and else with s = w.
    """
    if G.n == 0:
        raise ValueError("vertex connectivity is undefined for the empty graph")
    best = G.n - 1
    s = 0
    while s <= best:
        for t in bits(~G.adj[s] & G.vertex_mask() >> (s + 1) << (s + 1)):
            best = _max_vertex_disjoint_paths(G, s, t, best)
            if best == 0:
                return 0
        s += 1
    return best


# ---------------------------------------------------------------------------
# cliques and the Turan threshold


def find_clique(G: Graph, k: int) -> VertexSet | None:
    """A k-clique as a vertex mask, or None; witness is lexicographically least.

    Depth-first over cliques grown in ascending vertex order, with an
    explicit stack so that no input size can exhaust the recursion limit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > G.n:
        return None
    # each frame: the clique so far, its size, and the candidates not yet
    # tried, all above the clique's last vertex and adjacent to all of it
    stack = [(0, 0, G.vertex_mask())]
    while stack:
        chosen, count, cand = stack[-1]
        if count == k:
            return chosen
        if count + cand.bit_count() < k:
            stack.pop()
            continue
        low = cand & -cand
        stack[-1] = (chosen, count, cand ^ low)
        stack.append((chosen | low, count + 1, (cand ^ low) & G.adj[low.bit_length() - 1]))
    return None


def turan_threshold_exceeded(G: Graph, k: int) -> bool:
    """Exact check of e(G) > (1 - 1/(k-1)) v(G)^2 / 2 in rational arithmetic."""
    if k < 2:
        raise ValueError("k must be at least 2")
    threshold = Fraction(k - 2, k - 1) * Fraction(G.n * G.n, 2)
    return Fraction(G.edge_count()) > threshold


# ---------------------------------------------------------------------------
# degeneracy coloring


def color_by_degeneracy(G: Graph, lists) -> tuple[int, ...]:
    """Greedy list coloring along the reverse degeneracy order.

    Requires every list to have at least degeneracy(G)+1 colors; under that
    precondition the greedy pass cannot fail. Accepts a ListAssignment or a
    plain sequence of color collections.
    """
    seqs = getattr(lists, "lists", lists)
    if len(seqs) != G.n:
        raise ValueError("need one color list per vertex")
    d, order = degeneracy(G)
    for v in range(G.n):
        if len(seqs[v]) < d + 1:
            raise ValueError(
                f"list of vertex {v} has {len(seqs[v])} colors, "
                f"need at least degeneracy+1 = {d + 1}"
            )
    color = [-1] * G.n
    for v in reversed(order):
        used = {color[u] for u in bits(G.adj[v]) if color[u] != -1}
        for c in sorted(seqs[v]):
            if c not in used:
                color[v] = c
                break
        else:  # unreachable under the precondition
            raise RuntimeError(f"greedy coloring failed at vertex {v}")
    return tuple(color)
